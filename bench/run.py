"""The Tetra benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
                         [--json OUT] [--quick]
    python3 bench/run.py --repeat N [--workload W] [--seed N] [--json OUT]
    python3 bench/run.py --compare A.json B.json

A single run measures one workload for ``--seconds`` and prints a table,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``, which also
writes a Chrome trace).  Every output is checked against the Python
references in ``reference.py``.

``--repeat N`` runs each workload N times, with seeds ``--seed`` to
``--seed`` + N - 1, prints the median, quartiles and spread (IQR / median)
of every end-to-end metric,
adds one traced run per workload to record ``trace_overhead``, and exits
1 when a metric's spread exceeds its bound.  ``--compare`` checks a
second such run set against a first: every median within its bound.

The benchmark writes only under ``bench/.work`` (and ``--json``): its
scratch files, Python's bytecode cache, and a private native-artifact
cache, never ``~/.cache/tetra``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
PYCACHE = os.path.join(WORK, "pycache")
SRC = os.path.join(ROOT, "src")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no Tetra sources at {SRC} — run from a repository checkout")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


class Context:
    """Everything a workload needs to know about this run."""

    def __init__(self, args):
        self.root, self.bench = ROOT, BENCH
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.quick = args.quick
        #: Cold starts per run; set-up time is their median.
        self.setup_trials = 1 if args.quick else 11
        self.work = os.path.join(
            WORK, f"run-{os.getpid()}-{args.workload}-{args.seed}")
        os.makedirs(self.work)
        cache = os.path.join(self.work, "native")
        # Children (the server, cold CLI runs, probes) import the same
        # sources and never touch the user's native artifact cache.  Cold
        # starts are timed with warm bytecode, as an installed package
        # has it, whatever the caller's PYTHONDONTWRITEBYTECODE says; the
        # bytecode lives under bench/.work.
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        PYTHONPYCACHEPREFIX=PYCACHE,
                        TETRA_NATIVE_CACHE=cache)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        os.environ["TETRA_NATIVE_CACHE"] = cache
        self.tracer = None

    def trial_times(self) -> list[float]:
        """When, in seconds into the measured window, each cold start runs
        (the window's clock stops meanwhile): evenly spread, the first as
        the window opens and the last as it closes.  A shared VM's speed
        drifts over tens of seconds, and a process start drifts most, so
        set-up time samples the whole run rather than one moment of it."""
        n = self.setup_trials
        return [self.seconds * k / (n - 1) if n > 1 else 0.0
                for k in range(n)]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def end_to_end(outcome: dict) -> dict:
    lat = outcome["latencies_ms"]
    return {
        "setup_s": statistics.median(outcome["setup_s"]),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "latency_gmean_ms": statistics.geometric_mean(lat),
        "ok_share": outcome["ok"] / outcome["attempted"],
        "capacity_rps": outcome["capacity_rps"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _first_line(cmd: list) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def provenance() -> dict:
    return {
        "machine_cores": os.cpu_count(),
        "python": platform.python_version(),
        "cc": _first_line(["cc", "--version"]),
        "platform": platform.platform(),
        "git_commit": _first_line(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else None,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_once(args) -> dict:
    ctx = Context(args)
    sys.pycache_prefix = PYCACHE
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    import layers

    serve = args.workload in ("classroom", "unique")
    if ctx.trace:
        ctx.tracer = layers.Tracer()
        if not serve:
            layers.install(ctx.tracer)
    try:
        if serve:
            import serve_load

            outcome = serve_load.run(ctx, args.workload)
        else:
            import inproc

            fn = inproc.run_edit if args.workload == "edit_run" \
                else inproc.run_kernels
            outcome = fn(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    e2e = end_to_end(outcome)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": ctx.seconds, "trace": ctx.trace,
        "provenance": provenance(),
        "correct": outcome["wrong"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["attempted"] - outcome["ok"],
        "end_to_end": e2e,
        "diagnostics": {
            "samples": len(outcome["latencies_ms"]),
            "latency_p99_ms": percentile(outcome["latencies_ms"], 99),
            "latency_max_ms": max(outcome["latencies_ms"]),
            "setup_trials_s": outcome["setup_s"],
            **outcome["extra"],
        },
    }
    if ctx.trace:
        extra = dict(outcome["extra"], latency_p50_ms=e2e["latency_p50_ms"])
        root_pid = outcome.get("root_pid", os.getpid())
        result["layers"] = layers.layer_metrics(ctx.tracer, root_pid, extra)
        result["missing_wrappers"] = ctx.tracer.missing
        result["span_counts"] = dict(collections.Counter(
            span[0] for span in ctx.tracer.spans))
        trace_out = args.trace_out or os.path.join(
            WORK, f"trace-{args.workload}.json")
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)),
                    exist_ok=True)
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(ctx.tracer.chrome_trace(), fh)
        result["chrome_trace"] = trace_out
    return result


def result_line(result: dict, spec: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones for a
    traced run."""
    metrics = {}
    if result["trace"]:
        for m in spec["per_layer"]:
            value = result["layers"][m["name"]]["value"]
            # A layer whose wrapper target is gone reads 0 here (the table
            # and --json show null with the reason; trace.missing_wrappers
            # counts them).
            metrics[m["name"]] = {"value": value if value is not None else 0,
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": result["end_to_end"][m["name"]],
                                  "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(result: dict, spec: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g}s  cores {os.cpu_count()}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(f"  samples {result['diagnostics']['samples']}  "
          f"p99 {result['diagnostics']['latency_p99_ms']:.3f} ms  "
          f"max {result['diagnostics']['latency_max_ms']:.3f} ms "
          "(diagnostics, not gated)")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<34} {result['end_to_end'][m['name']]:>14.4f} "
              f"{m['unit']}")
    if result["trace"]:
        print("  per layer:")
        for m in spec["per_layer"]:
            entry = result["layers"][m["name"]]
            value = entry["value"]
            shown = f"{value:>14.4f}" if value is not None else \
                f"{'null':>14} ({entry['reason']})"
            print(f"  {m['name']:<34} {shown} {m['unit']}")
        print(f"  chrome trace: {result['chrome_trace']}")


# ----------------------------------------------------------------------
# Repeat and compare
# ----------------------------------------------------------------------
def _child(args, workload: str, seed: int, trace: int, out: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--json", out]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(runs: list, spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["end_to_end"][m["name"]] for r in runs]
        med, q1, q3, spr = spread(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spr,
                          "bound": m["bound"], "ok": spr <= m["bound"],
                          "values": values}
    return out


def repeat(args, spec: dict) -> int:
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, f"repeat-{os.getpid()}.json")
    report = {"provenance": provenance(), "seconds": args.seconds,
              "repeat": args.repeat, "first_seed": args.seed,
              "workloads": {}}
    status = 0
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            t0 = time.perf_counter()
            runs.append(_child(args, w, args.seed + i, 0, tmp))
            print(f"{w} seed {args.seed + i}: {time.perf_counter() - t0:.1f}s "
                  f"failed {runs[-1]['failed']}", file=sys.stderr)
        summary = summarize(runs, spec)
        traced = _child(args, w, args.seed, 1, tmp)
        overhead = {name: traced["end_to_end"][name] / s["median"]
                    for name, s in summary.items() if s["median"]}
        report["workloads"][w] = {
            "summary": summary,
            "trace_overhead": overhead,
            "runs": runs,
            "traced": {k: traced[k] for k in ("end_to_end", "layers",
                                             "missing_wrappers")},
        }
        print(f"\n{w}: {args.repeat} runs, {args.seconds:g}s each")
        print(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  traced/untraced")
        for name, s in summary.items():
            flag = "" if s["ok"] else "  SPREAD OVER BOUND"
            print(f"  {name:<18} {s['median']:>11.4f} {s['q1']:>11.4f} "
                  f"{s['q3']:>11.4f} {s['spread']:>7.4f} {s['bound']:>6.2f}"
                  f"  {overhead.get(name, 0.0):.3f}{flag}")
            status |= not s["ok"]
        failed = sum(r["failed"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            print(f"  {failed} failed operations")
            status = 1
    if os.path.exists(tmp):
        os.unlink(tmp)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return status


def compare(paths: list, spec: dict) -> int:
    """Is every median of run set B within its bound of run set A?"""
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh)["workloads"])
    a, b = sets
    status = 0
    for w in a:
        if w not in b:
            continue
        print(f"{w}:")
        for m in spec["end_to_end"]:
            ma = a[w]["summary"][m["name"]]["median"]
            mb = b[w]["summary"][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else \
                (ma - mb) / ma
            ok = worse <= m["bound"] if ma else mb == ma
            status |= not ok
            print(f"  {m['name']:<18} {ma:>11.4f} {mb:>11.4f} "
                  f"{'worse' if worse > 0 else 'better'} by "
                  f"{abs(worse):.4f} (bound {m['bound']:.2f})"
                  f"{'' if ok else '  OVER BOUND'}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Tetra benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result (or run set) here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="Chrome trace path (default "
                             "bench/.work/trace-<workload>.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one set-up trial (tests)")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare, spec)
    if args.repeat:
        return repeat(args, spec)
    if args.workload is None:
        parser.error("--workload is required (or use --repeat)")
    result = run_once(args)
    print_table(result, spec)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
