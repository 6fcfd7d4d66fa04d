"""Ablation: interpretation overhead (the interpreter vs hand-written Python).

The paper's future-work native compiler exists "so Tetra programs can be
run more efficiently than with the interpreter"; this benchmark measures
what the interpreter costs on fib(18), a call-heavy program:

* the **closure fast path** (``repro.interp.compile``, the interpreter),
* **hand-written Python** as the floor.

The gate is a ceiling on how far the interpreter trails that floor
(``fast_path / python``).  The native C tier has its own benchmark,
``bench_native_tiers.py``.

Runs as a pytest-benchmark module (the repo's usual harness) and as a
script — ``python benchmarks/bench_interp_overhead.py --smoke --json
BENCH_interp_overhead.json`` — which is what CI calls to track the perf
trajectory from PR to PR.
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

#: The fast path may trail hand-written Python at most this much on fib.
#: The bound was 32x over the Tetra→Python codegen module, since deleted.
#: Twelve script runs of the last commit that had it (2-vCPU VM) measured
#: codegen/Python at 1.17-1.55x and fast path/Python at 25.1-34.3x;
#: 37 is 32 times the smallest codegen/Python ratio, rounded down, so the
#: converted bound is no looser than the old one.
MAX_FAST_OVER_PYTHON = 37


def fib_python(n: int) -> int:
    if n < 2:
        return n
    return fib_python(n - 1) + fib_python(n - 2)


EXPECTED = str(fib_python(FIB_N))


def run_fast_path():
    """The closure fast path through the (warm) program cache — the
    default execution pipeline."""
    return run_source(FIB_TETRA, backend="sequential").output_lines()


def _timed_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(rounds=5):
    """Best-of-``rounds`` wall time per strategy, in seconds.

    Two methodology notes, both learned the hard way:

    * Rounds are **interleaved** (fast path, python, then again) rather
      than timed back-to-back per strategy: shared CI machines drift in
      speed over a benchmark's lifetime, and interleaving spreads that
      drift evenly across strategies so the fast-path/python *ratio*
      stays honest even when absolute times wobble.
    * The timing loop runs on a **fresh thread**.  CPython 3.11+ grows
      the frame stack in 16 KiB chunks and frees a chunk the moment
      recursion pops back across its base, so a deeply recursive workload
      like fib can pay a chunk allocation per call — *if* the caller's
      stack depth happens to put the hot part of the call tree on a chunk
      edge.  Measured from the main thread, fib wall time swung ±40%
      depending on whether pytest or a script invoked it.  A new thread
      starts a new frame stack at a fixed depth, which makes the numbers
      reproducible across harnesses.
    """
    assert run_fast_path() == [EXPECTED]
    strategies = {
        "fast_path": run_fast_path,
        "python": lambda: fib_python(FIB_N),
    }

    best = {name: float("inf") for name in strategies}

    def loop():
        for _ in range(rounds):
            for name, fn in strategies.items():
                best[name] = min(best[name], _timed_once(fn))

    timer = threading.Thread(target=loop, name="bench-timer")
    timer.start()
    timer.join()
    return best


# ----------------------------------------------------------------------
# pytest harness
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:
    from conftest import format_table

    def test_all_strategies_agree(benchmark):
        benchmark.pedantic(run_fast_path, rounds=1, iterations=1)
        assert run_fast_path() == [EXPECTED]

    def test_fast_path_agrees_on_all_backends(benchmark):
        benchmark.pedantic(run_fast_path, rounds=1, iterations=1)
        for backend in ("thread", "sequential", "coop", "sim"):
            fast = run_source(FIB_TETRA, backend=backend).output
            assert fast == EXPECTED + "\n"

    def test_interpreter_overhead_table(benchmark, report):
        benchmark.pedantic(run_fast_path, rounds=1, iterations=1)
        # As many rounds as the script's gated mode: the 0.4 ms Python
        # run makes the ratio noisy.
        times = measure(rounds=7)
        ratio = times["fast_path"] / times["python"]
        rows = [
            ["closure fast path",
             round(times["fast_path"] * 1000, 1), round(ratio, 1)],
            ["hand-written Python",
             round(times["python"] * 1000, 1), 1.0],
        ]
        report.emit(f"Ablation: execution strategy on fib({FIB_N})", [
            *format_table(["strategy", "ms (best of 7)", "vs Python"], rows),
            f"the closure fast path is {ratio:.1f}x hand-written Python "
            "on a call-heavy program.",
        ])
        assert ratio <= MAX_FAST_OVER_PYTHON

    def test_fast_path_fib(benchmark):
        benchmark.pedantic(run_fast_path, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="fib wall-time for the closure fast path and "
                    "hand-written Python",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="fewer timing rounds per strategy (CI mode)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write results as JSON (e.g. "
                             "BENCH_interp_overhead.json)")
    args = parser.parse_args(argv)

    times = measure(rounds=3 if args.smoke else 7)
    ratio = times["fast_path"] / times["python"]
    payload = {
        "benchmark": "interp_overhead",
        "workload": f"fib({FIB_N})",
        "mode": "smoke" if args.smoke else "full",
        "seconds": {k: round(v, 6) for k, v in times.items()},
        "fast_over_python": round(ratio, 3),
        "max_fast_over_python": MAX_FAST_OVER_PYTHON,
    }
    for name in ("fast_path", "python"):
        print(f"{name:>12}: {times[name] * 1000:8.2f} ms")
    print(f"fast path is {ratio:.1f}x hand-written Python "
          f"(ceiling: {MAX_FAST_OVER_PYTHON}x)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if ratio > MAX_FAST_OVER_PYTHON and not args.smoke:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
