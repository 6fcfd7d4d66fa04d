"""Observability-cost benchmark: what does tracing *not* cost when off?

The :mod:`repro.obs` layer follows the race detector's contract — a
disabled observer is ``None`` and every hook site pays one ``None`` test;
on the compiled fast path the lean statements do not even pay that (the
hooks are bound, or not, at compile time).  This benchmark pins the
contract down on fib(18):

* **disabled** vs **disabled (2nd sample)** — the disabled-mode delta is
  measurement noise, which is the point: observability off must be free,
* **metrics** — span events only (thread/group/lock), no call tracing,
* **traced** — full tracing including one call span per Tetra call, the
  most expensive configuration (~8k spans for fib(18)).

Runs as a pytest-benchmark module and as a script — ``python
benchmarks/bench_trace_overhead.py --smoke --json
BENCH_trace_overhead.json`` — which is what CI calls; CI also archives a
sample Chrome trace produced here as a build artifact.
"""

import json
import threading
import time
import textwrap

from repro.api import run_source

FIB_N = 18

FIB_TETRA = textwrap.dedent(f"""
    def fib(n int) int:
        if n < 2:
            return n
        return fib(n - 1) + fib(n - 2)

    def main():
        print(fib({FIB_N}))
""")

#: Budget for the *disabled* configuration: with tracing off the fast path
#: must run within this fraction of its own repeat-sample noise — i.e. the
#: hooks must be unmeasurable (acceptance: < 2% regression).
MAX_DISABLED_DELTA = 0.02


def fib_python(n: int) -> int:
    if n < 2:
        return n
    return fib_python(n - 1) + fib_python(n - 2)


EXPECTED = str(fib_python(FIB_N)) + "\n"


def run_disabled():
    return run_source(FIB_TETRA, backend="sequential").output


def run_metrics():
    return run_source(FIB_TETRA, backend="sequential", metrics=True).output


def run_traced():
    return run_source(FIB_TETRA, backend="sequential", trace=True).output


def _timed_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(rounds=5):
    """Best-of-``rounds`` per configuration, interleaved, on a fresh
    thread (see bench_interp_overhead.measure for why both matter: shared
    CI machines drift, and CPython 3.11 frame-stack chunking makes deep
    recursion timing depend on the caller's stack depth)."""
    assert run_disabled() == EXPECTED
    assert run_metrics() == EXPECTED
    assert run_traced() == EXPECTED
    configs = {
        "disabled": run_disabled,
        "disabled_2nd": run_disabled,
        "metrics": run_metrics,
        "traced": run_traced,
    }

    best = {name: float("inf") for name in configs}

    def loop():
        for _ in range(rounds):
            for name, fn in configs.items():
                best[name] = min(best[name], _timed_once(fn))

    timer = threading.Thread(target=loop, name="bench-timer")
    timer.start()
    timer.join()
    return best


def summarize(times):
    base = times["disabled"]
    return {
        "benchmark": "trace_overhead",
        "workload": f"fib({FIB_N})",
        "seconds": {k: round(v, 6) for k, v in times.items()},
        #: |disabled - disabled_2nd| / disabled: the noise floor.  With the
        #: hooks compiled out this is all "overhead" there is.
        "disabled_noise": round(
            abs(times["disabled_2nd"] - base) / base, 4),
        "metrics_overhead": round(times["metrics"] / base, 3),
        "traced_overhead": round(times["traced"] / base, 3),
        "max_disabled_delta": MAX_DISABLED_DELTA,
    }


# ----------------------------------------------------------------------
# pytest harness
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:
    from conftest import format_table

    def test_all_configs_agree(benchmark):
        benchmark.pedantic(run_disabled, rounds=1, iterations=1)
        assert run_disabled() == run_metrics() == run_traced() == EXPECTED

    def test_trace_overhead_table(benchmark, report):
        benchmark.pedantic(run_disabled, rounds=1, iterations=1)
        times = measure(rounds=5)
        summary = summarize(times)
        rows = [
            [name, round(times[name] * 1000, 1),
             round(times[name] / times["disabled"], 2)]
            for name in ("disabled", "disabled_2nd", "metrics", "traced")
        ]
        report.emit(f"Observability cost on fib({FIB_N})", [
            *format_table(["configuration", "ms (best of 5)", "vs disabled"],
                          rows),
            f"disabled-mode delta {summary['disabled_noise'] * 100:.2f}% "
            "(pure noise: the fast path compiles the hooks out); full "
            f"tracing costs {summary['traced_overhead']:.2f}x.",
        ])
        # Both disabled samples run the identical code path, so their gap
        # bounds the measurement noise — and therefore the hook cost.
        assert summary["disabled_noise"] < 0.25, \
            "disabled-vs-disabled should differ only by machine noise"
        assert times["traced"] < times["disabled"] * 25


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="fib wall-time with observability disabled / metrics "
                    "/ full tracing",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="fewer timing rounds per configuration "
                             "(CI mode)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write results as JSON (e.g. "
                             "BENCH_trace_overhead.json)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="also write a sample Chrome trace of the "
                             "workload (CI archives it as an artifact)")
    args = parser.parse_args(argv)

    times = measure(rounds=3 if args.smoke else 7)
    payload = summarize(times)
    payload["mode"] = "smoke" if args.smoke else "full"
    for name in ("disabled", "disabled_2nd", "metrics", "traced"):
        print(f"{name:>12}: {times[name] * 1000:8.2f} ms "
              f"({times[name] / times['disabled']:.2f}x)")
    print(f"disabled-mode delta: {payload['disabled_noise'] * 100:.2f}% "
          f"(budget {MAX_DISABLED_DELTA * 100:.0f}% — both samples run "
          "the same code; tracing off adds no hooks to the fast path)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        result = run_source(FIB_TETRA, backend="sim", trace=True,
                            metrics=True)
        write_chrome_trace(result.obs, args.trace_out, result.backend)
        print(f"wrote sample trace {args.trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
