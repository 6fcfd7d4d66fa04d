"""Checks on the benchmark itself (``pytest bench/``; not part of the
tier-1 suite, whose ``testpaths`` is ``tests``).

Each workload runs once in ``--quick`` mode untraced and once traced,
through the same command line the benchmark is driven by.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_FRONT_END = {"lexer", "parser", "types", "analysis.determinism",
              "api.compile", "api.cached_program", "interp.closure_compile",
              "interp.execute"}
_SERVE = _FRONT_END | {"http.handler", "service.run", "service.submit",
                       "protocol.validate", "protocol.run_key",
                       "quotas.admit", "overload.admission", "cache.get",
                       "cache.put", "pool.submit", "worker.request",
                       "loadgen.request"}
#: Wrappers each workload must exercise (span count > 0).
EXPECTED_SPANS = {
    "classroom": _SERVE,
    "unique": _SERVE,
    "edit_run": _FRONT_END,
    "kernels": _FRONT_END | {"native.lower", "native.cc", "native.load",
                             "proc.offload", "sim.schedule"},
}


def _run(workload: str, trace: int, tmp_path) -> tuple[dict, dict]:
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--quick", "--json", str(out),
         "--trace-out", str(tmp_path / "trace.json")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        return last, json.load(fh)


def _check_line(line: dict, metrics: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_pass_reports_every_end_to_end_metric(workload, tmp_path):
    line, full = _run(workload, 0, tmp_path)
    _check_line(line, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert full["provenance"]["machine_cores"] == os.cpu_count()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_fires_every_layer_wrapper(workload, tmp_path):
    line, full = _run(workload, 1, tmp_path)
    _check_line(line, SPEC["per_layer"])
    assert full["missing_wrappers"] == {}
    silent = sorted(name for name in EXPECTED_SPANS[workload]
                    if not full["span_counts"].get(name))
    assert not silent, f"wrappers that never fired: {silent}"
    with open(full["chrome_trace"], encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(ev["ph"] == "X" and ev["dur"] >= 0
                          for ev in events)


def test_corrupted_expected_output_counts_as_failure(monkeypatch, tmp_path):
    sys.path.insert(0, BENCH)
    try:
        import reference
        import run

        # run_once points these at bench/.work; restore them afterwards.
        monkeypatch.setenv("TETRA_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(sys, "pycache_prefix", sys.pycache_prefix)
        monkeypatch.setattr(sys, "dont_write_bytecode",
                            sys.dont_write_bytecode)
        monkeypatch.setattr(reference, "tsp_best", lambda n: -1)
        args = SimpleNamespace(workload="kernels", seed=3, seconds=1,
                               trace=0, quick=True, trace_out=None)
        result = run.run_once(args)
    finally:
        sys.path.remove(BENCH)
    line = run.result_line(result, SPEC)
    assert line["correct"] is False
    assert line["failed"] > 0
    assert line["metrics"]["ok_share"]["value"] < 1.0


def test_serve_check_rejects_a_wrong_answer():
    sys.path.insert(0, BENCH)
    try:
        import programs
        import serve_load
    finally:
        sys.path.remove(BENCH)
    case = programs.Case("sum_squares", "def main():\n    print(5)\n",
                         output="5\n")
    assert serve_load._correct(case, 200, {"exit_code": 0, "output": "5\n"})
    assert not serve_load._correct(case, 200, {"exit_code": 0,
                                               "output": "6\n"})
    assert not serve_load._correct(case, 429, {"error": "rate limited"})


def test_missing_wrapper_target_reports_null_and_keeps_running():
    sys.path.insert(0, BENCH)
    try:
        import layers
    finally:
        sys.path.remove(BENCH)
    tracer = layers.Tracer()
    tracer.wrap("repro.api:no_such_function", "lexer")
    assert "no_such_function" in tracer.missing["lexer"]
    out = layers.layer_metrics(tracer, os.getpid(), {})
    assert out["lexer.self_ms"]["value"] is None
    assert "no_such_function" in out["lexer.self_ms"]["reason"]
    assert out["trace.missing_wrappers"]["value"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
