"""Per-tier wall-clock comparison: fast path vs. proc vs. native.

The native compiled tier's claim (DESIGN.md §2c) is that type-checked
numeric kernels escape the interpreter loop entirely: the hot function and
the ``parallel for`` body run as machine code, so the speedup is orthogonal
to — and multiplies with — real-core parallelism.  This script measures it
on three workloads:

* **primes** — trial-division prime counting, a branchy integer kernel
  with a lock-reduction ``parallel for`` (the paper's own workload);
* **matmul** — the inner loop of a dense integer matrix multiply, an
  array-indexing kernel whose rows are computed by a ``parallel for``;
* **tsp** — the paper's §IV branch-and-bound TSP
  (``examples/tetra/tsp_7.ttr`` at more cities): a recursive search that
  allocates a local array per step, fanned out by a ``parallel for`` with
  a lock-guarded min reduction.

Each workload runs on three tiers sharing one source program:

* ``fast``    — the AST→closure fast path (the default pipeline);
* ``proc``    — the process-parallel backend at machine-core workers;
* ``native``  — ``--native=require``: C kernels on OS threads.

Usage::

    python benchmarks/bench_native_tiers.py --json BENCH_parallel_speedup.json

When the JSON file already holds the proc speedup study, the per-tier
section is merged in under ``"tiers"`` (the existing keys are preserved).
The acceptance floor: native at least 5x over the fast path on every
kernel — pure single-thread compiled-code gains, so it applies even on
one core.

The section also records what the native tier's int64 overflow checks
cost on primes and matmul: the native run is repeated with a C prelude
whose checked-arithmetic builtins are redefined as plain wrapping
arithmetic.  ``overflow_check_cost`` holds checked time / unchecked time
- 1 for the whole run (``run``) and for its C calls alone (``c_calls``,
the only time the checks can touch).  The target, under 0.10, is judged
on ``c_calls``; it is reported, not gated.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.api import clear_program_cache, run_source  # noqa: E402
from repro.compiler import native  # noqa: E402
from repro.runtime import RuntimeConfig  # noqa: E402

MIN_NATIVE_VS_FAST = 5.0
MAX_OVERFLOW_CHECK_COST = 0.10

#: Prepended to the C prelude to measure the overflow checks' cost: the
#: checked builtins become plain two's-complement arithmetic that never
#: reports an overflow.
UNCHECKED_ARITH = """\
#define __builtin_add_overflow(a, b, r) \\
    (*(r) = (int64_t)((uint64_t)(a) + (uint64_t)(b)), 0)
#define __builtin_sub_overflow(a, b, r) \\
    (*(r) = (int64_t)((uint64_t)(a) - (uint64_t)(b)), 0)
#define __builtin_mul_overflow(a, b, r) \\
    (*(r) = (int64_t)((uint64_t)(a) * (uint64_t)(b)), 0)
"""

with open(os.path.join(ROOT, "examples", "tetra", "tsp_7.ttr"),
          encoding="utf-8") as _fh:
    TSP = _fh.read()

PRIMES = """\
def is_prime(n int) bool:
    if n < 2:
        return false
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return false
        d += 2
    return true

def main():
    count = 0
    parallel for n in [2 ... {limit}]:
        if is_prime(n):
            lock c:
                count += 1
    print(count)
"""

MATMUL = """\
def row(a [int], b [int], c [int], n int, i int):
    j = 0
    while j < n:
        total = 0
        k = 0
        while k < n:
            total += a[i * n + k] * b[k * n + j]
            k += 1
        c[i * n + j] = total
        j += 1

def main():
    n = {n}
    a = [0 ... n * n - 1]
    b = [0 ... n * n - 1]
    c = [0 ... n * n - 1]
    i = 0
    while i < n * n:
        a[i] = i % 17
        b[i] = i % 23
        c[i] = 0
        i += 1
    parallel for r in [0 ... n - 1]:
        row(a, b, c, n, r)
    check = 0
    for i in [0 ... n * n - 1]:
        check += c[i]
    print(check)
"""


def _time_tier(source, tier, jobs, repeats):
    kwargs = {}
    if tier == "proc":
        kwargs = {"backend": "proc",
                  "config": RuntimeConfig(num_workers=jobs)}
    elif tier == "native":
        kwargs = {"native": "require",
                  "config": RuntimeConfig(num_workers=jobs)}
    # One untimed warm-up: the fast path compiles closures into the
    # program cache, the native tier builds (or dlopens) its .so, proc
    # spins up its pool.  Steady state is what the tier comparison is
    # about; cold-start costs are covered by the artifact-cache tests.
    run_source(source, **kwargs)
    best, output = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_source(source, **kwargs)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        output = result.output
    return best, output


def run_workload(name, source, jobs, repeats):
    print(f"{name}:")
    timings = {}
    baseline_out = None
    for tier in ("fast", "proc", "native"):
        seconds, output = _time_tier(source, tier, jobs, repeats)
        if baseline_out is None:
            baseline_out = output
        elif output != baseline_out:
            raise SystemExit(
                f"{name}: tier '{tier}' output diverged: "
                f"{output!r} != {baseline_out!r}")
        timings[tier] = seconds
        print(f"  {tier:<8} {seconds * 1000:9.1f} ms")
    entry = {
        "output": baseline_out.strip(),
        "seconds": {t: round(s, 6) for t, s in timings.items()},
        "native_vs_fast": round(timings["fast"] / timings["native"], 2)
        if timings["native"] > 0 else 0.0,
    }
    print(f"  native vs fast path: {entry['native_vs_fast']:.1f}x "
          f"(target >= {MIN_NATIVE_VS_FAST:.0f}x)")
    return entry


def overflow_check_cost(source, jobs, rounds):
    """What the overflow checks cost: checked / unchecked time - 1, for
    the whole native run and for its C calls alone (``NativeRun._call``,
    which excludes the marshalling around them).

    The two builds alternate round by round and the best of each side
    counts, so drift in the machine's speed lands on both sides."""
    checked = native._c_prelude

    def unchecked():
        return UNCHECKED_ARITH + checked()

    in_c = [0.0]
    call = native.NativeRun._call

    def timed_call(self, *args):
        t0 = time.perf_counter()
        try:
            return call(self, *args)
        finally:
            in_c[0] += time.perf_counter() - t0

    config = RuntimeConfig(native="require", num_workers=jobs)
    best = {checked: [None, None], unchecked: [None, None]}
    outputs = set()
    native.NativeRun._call = timed_call
    try:
        for r in range(rounds):
            for prelude in ((checked, unchecked) if r % 2 == 0
                            else (unchecked, checked)):
                native._c_prelude = prelude
                clear_program_cache()  # the lowering is memoised there
                run_source(source, config=config)  # build + warm up
                in_c[0] = 0.0
                t0 = time.perf_counter()
                outputs.add(run_source(source, config=config).output)
                for i, seconds in enumerate(
                        (time.perf_counter() - t0, in_c[0])):
                    if best[prelude][i] is None or seconds < best[prelude][i]:
                        best[prelude][i] = seconds
    finally:
        native._c_prelude = checked
        native.NativeRun._call = call
        clear_program_cache()
    if len(outputs) != 1:
        raise SystemExit("unchecked native build changed the output")
    cost = {key: round(best[checked][i] / best[unchecked][i] - 1, 4)
            for i, key in enumerate(("run", "c_calls"))}
    for i, key in enumerate(("run", "c_calls")):
        print(f"  overflow checks, {key}: "
              f"{best[checked][i] * 1000:.2f} ms checked vs "
              f"{best[unchecked][i] * 1000:.2f} ms unchecked "
              f"({cost[key]:+.1%})")
    return cost


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="wall-clock per-tier comparison on numeric kernels")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workloads, single repetition (CI)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="merge a 'tiers' section into this JSON file")
    args = parser.parse_args(argv)

    if native.find_compiler() is None:
        print("no C compiler on this machine; the native tier cannot run")
        return 1

    cores = os.cpu_count() or 1
    repeats = 1 if args.smoke else 3
    primes_limit = 20000 if args.smoke else 60000
    matmul_n = 48 if args.smoke else 96
    tsp_cities = 8 if args.smoke else 9

    print(f"per-tier benchmark on {cores} core(s), "
          f"jobs={cores}, repeats={repeats}")
    sources = {
        "primes": PRIMES.format(limit=primes_limit),
        "matmul": MATMUL.format(n=matmul_n),
        "tsp": TSP.replace("solve(7)", f"solve({tsp_cities})"),
    }
    workloads = {
        "primes": run_workload(
            f"primes up to {primes_limit}", sources["primes"], cores,
            repeats),
        "matmul": run_workload(
            f"matmul {matmul_n}x{matmul_n} (int)", sources["matmul"], cores,
            repeats),
        "tsp": run_workload(
            f"tsp over {tsp_cities} cities", sources["tsp"], cores, repeats),
    }
    met = all(w["native_vs_fast"] >= MIN_NATIVE_VS_FAST
              for w in workloads.values())
    print(f"native >= {MIN_NATIVE_VS_FAST:.0f}x over fast path on every "
          f"kernel -> {'met' if met else 'NOT met'}")
    check_cost = {}
    for name in ("primes", "matmul"):
        print(f"{name}:")
        # Native runs take tens of milliseconds: many short rounds.
        check_cost[name] = overflow_check_cost(sources[name], cores,
                                               5 * repeats)
    cheap = all(c["c_calls"] < MAX_OVERFLOW_CHECK_COST
                for c in check_cost.values())
    print(f"overflow checks under {MAX_OVERFLOW_CHECK_COST:.0%} of the C "
          f"calls on primes and matmul -> {'met' if cheap else 'NOT met'}")

    if args.json:
        payload = {}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as handle:
                payload = json.load(handle)
        payload["tiers"] = {
            "machine_cores": cores,
            "mode": "smoke" if args.smoke else "full",
            "workloads": workloads,
            "target_native_vs_fast": MIN_NATIVE_VS_FAST,
            "target_met": met,
            "overflow_check_cost": check_cost,
            "target_overflow_check_cost": MAX_OVERFLOW_CHECK_COST,
            "overflow_check_target_met": cheap,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if met else 1


if __name__ == "__main__":
    raise SystemExit(main())
