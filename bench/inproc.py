"""The two in-process workloads: ``edit_run`` and ``kernels``.

Both call the library API (``run_source``) from this process, one call
at a time (a closed loop), and time each call.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time

import programs as P
import reference as ref

SETUP_TIMEOUT = 120.0


class _Window:
    """The measured window's clock, stopped while the run's cold starts
    take place at the times ``ctx.trial_times()`` names."""

    def __init__(self, ctx, cold_start):
        self.ctx = ctx
        self.cold_start = cold_start
        self.due = ctx.trial_times()
        self.setup: list[float] = []
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        """Window seconds so far, after running any cold start now due."""
        while True:
            elapsed = time.perf_counter() - self.start - self.paused
            if not self.due or self.due[0] > elapsed:
                return elapsed
            self.due.pop(0)
            self._trial()

    def close(self) -> list[float]:
        """Run the cold starts still due; every set-up time of the run."""
        while self.due:
            self.due.pop(0)
            self._trial()
        return self.setup

    def _trial(self) -> None:
        t0 = time.perf_counter()
        self.setup.append(self.cold_start(self.ctx, len(self.setup)))
        self.paused += time.perf_counter() - t0


def _finish(latencies, oks, wrong, setup, extra) -> dict:
    return {
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "ok": oks,
        "wrong": wrong,
        "setup_s": setup,
        # In process the loop is already closed, one call at a time, so
        # capacity is correct runs per second of run_source time: ok_share
        # over the mean latency.  It is reported because every end-to-end
        # metric must exist on every workload.
        "capacity_rps": oks / (sum(latencies) / 1000.0) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "extra": extra,
    }


# ----------------------------------------------------------------------
# edit_run: the student edit-run loop
# ----------------------------------------------------------------------
def _edits(rng: random.Random):
    """Endless distinct edits, every listing once per round in seeded
    order, so each run holds the same mix of listings whatever the seed."""
    families = sorted(P.LISTINGS)
    n = 0
    while True:
        rng.shuffle(families)
        for family in families:
            n += 1
            yield P.make(family, P.LISTINGS[family], rng, f"edit {n}")


def _cold_run(ctx, trial: int) -> float:
    """Seconds for one cold ``tetra run`` of a seeded Figure I edit (always
    Figure I, so every cold start does the same work), output checked."""
    case = P.make("factorial", P.factorial,
                  random.Random(f"{ctx.seed}/setup/{trial}"), f"setup {trial}")
    path = os.path.join(ctx.work, f"edit-setup-{trial}.ttr")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case.source)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", "run", path],
        input="".join(line + "\n" for line in case.inputs),
        capture_output=True, text=True, cwd=ctx.root, env=ctx.env,
        timeout=SETUP_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout != case.output:
        raise RuntimeError(f"cold `tetra run` of {case.family} printed "
                           f"{proc.stdout!r} (exit {proc.returncode}), "
                           f"expected {case.output!r}:\n{proc.stderr}")
    return elapsed


def run_edit(ctx) -> dict:
    """Distinct seeded edits of the listings through ``run_source`` on
    the thread backend with the native tier off: every call misses the
    program cache, so the front end is a large share of each run."""
    rng = random.Random(ctx.seed)

    from repro.api import clear_program_cache, run_source
    from repro.runtime import RuntimeConfig

    clear_program_cache()
    for family, gen in sorted(P.LISTINGS.items()):
        # Lazy imports, outside the measured window.
        case = P.make(family, gen, random.Random(0), "warm-up")
        run_source(case.source, inputs=case.inputs)
    edits = _edits(rng)
    latencies, families = [], {}
    oks = wrong = 0
    window = _Window(ctx, _cold_run)
    while window.elapsed() < ctx.seconds:
        case = next(edits)
        t0 = time.perf_counter()
        try:
            result = run_source(case.source, inputs=case.inputs,
                                backend="thread",
                                config=RuntimeConfig(native="off"))
            output = result.output
        except Exception as exc:  # noqa: BLE001 - a failed operation
            output = f"{type(exc).__name__}: {exc}"
        dt = (time.perf_counter() - t0) * 1000.0
        latencies.append(dt)
        good = P.check_run(case, output)
        oks += good
        wrong += not good
        families.setdefault(case.family, []).append(dt)
    setup = window.close()
    extra = {"family_p50_ms": {f: statistics.median(v)
                               for f, v in sorted(families.items())},
             "family_runs": {f: len(v) for f, v in sorted(families.items())}}
    return _finish(latencies, oks, wrong, setup, extra)


# ----------------------------------------------------------------------
# kernels: the speedup study's executors
# ----------------------------------------------------------------------
# Copied from benchmarks/bench_native_tiers.py.
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
    parallel for n in [2 ... LIMIT]:
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
    n = SIZE
    a = [0 ... n * n - 1]
    b = [0 ... n * n - 1]
    c = [0 ... n * n - 1]
    i = 0
    while i < n * n:
        a[i] = i % MOD_A
        b[i] = i % MOD_B
        c[i] = 0
        i += 1
    parallel for r in [0 ... n - 1]:
        row(a, b, c, n, r)
    check = 0
    for i in [0 ... n * n - 1]:
        check += c[i]
    print(check)
"""

#: Kernel sizes, and the seconds a run allows per pass over every op (one
#: takes 6-9 s on a 2-vCPU x86-64 VM; 3 passes at the default 25 s).
FULL = {"primes": 60000, "matmul": 96, "tsp": 9, "sim_primes": 1500,
        "sim_tsp": 7, "pass_s": 8.0}
QUICK = {"primes": 6000, "matmul": 24, "tsp": 7, "sim_primes": 300,
         "sim_tsp": 5, "pass_s": 1.0}
PROBE = {"primes": 2000, "matmul": 16, "tsp": 6}
WORKERS = 2
SIM_CORES = (1, 2, 4, 8)


def kernel_cases(rng: random.Random, sizes: dict) -> dict:
    """name -> (source, expected output).  The seed moves the primes
    limit by under 1% and picks the matrix contents; the work stays
    fixed."""
    limit = sizes["primes"] + rng.randrange(0, sizes["primes"] // 100 + 1)
    mod_a, mod_b = rng.randint(13, 19), rng.randint(19, 29)
    n = sizes["matmul"]
    matmul = (MATMUL.replace("SIZE", str(n))
              .replace("MOD_A", str(mod_a)).replace("MOD_B", str(mod_b)))
    return {
        "primes": (PRIMES.replace("LIMIT", str(limit)),
                   f"{ref.prime_count(limit)}\n"),
        "matmul": (matmul, f"{ref.matmul_checksum(n, mod_a, mod_b)}\n"),
        "tsp": (P.TSP.replace("CITIES", str(sizes["tsp"])),
                f"{ref.tsp_best(sizes['tsp'])}\n"),
    }


def sim_cases(sizes: dict) -> dict:
    return {
        "primes": (P.PRIMES.replace("LIMIT", str(sizes["sim_primes"])),
                   f"{ref.prime_count(sizes['sim_primes'])}\n"),
        "tsp": (P.TSP.replace("CITIES", str(sizes["sim_tsp"])),
                f"{ref.tsp_best(sizes['sim_tsp'])}\n"),
    }


def _tier_kwargs(tier: str) -> dict:
    from repro.runtime import RuntimeConfig

    if tier == "native":
        return {"config": RuntimeConfig(native="auto", num_workers=WORKERS)}
    if tier == "proc":
        return {"backend": "proc",
                "config": RuntimeConfig(num_workers=WORKERS)}
    return {"config": RuntimeConfig(num_workers=WORKERS)}


def probe(seed: int) -> int:
    """Cold set-up of the executor tiers, run in a fresh process with a
    fresh ``TETRA_NATIVE_CACHE``: lower + ``cc`` + dlopen of every kernel
    and one proc-pool spawn, each checked."""
    from repro.api import run_source

    cases = kernel_cases(random.Random(seed), PROBE)
    for name, (src, expected) in cases.items():
        if run_source(src, **_tier_kwargs("native")).output != expected:
            print(f"native {name} output mismatch", file=sys.stderr)
            return 1
    src, expected = cases["primes"]
    if run_source(src, **_tier_kwargs("proc")).output != expected:
        print("proc primes output mismatch", file=sys.stderr)
        return 1
    return 0


def _cold_probe(ctx, trial: int) -> float:
    """Seconds for one :func:`probe` process with a fresh native cache."""
    cache = os.path.join(ctx.work, f"native-probe-{trial}")
    env = dict(ctx.env, TETRA_NATIVE_CACHE=cache)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(ctx.bench, "inproc.py"),
         "--probe", str(ctx.seed)],
        capture_output=True, text=True, cwd=ctx.root, env=env,
        timeout=SETUP_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"kernel set-up probe failed:\n{proc.stderr}")
    return elapsed


def run_kernels(ctx) -> dict:
    """Warm caches, then whole passes over every (tier, kernel) pair and
    the two sim programs, as many as fit the run's seconds."""
    rng = random.Random(ctx.seed)
    sizes = QUICK if ctx.quick else FULL

    from repro.api import clear_program_cache, run_source
    from repro.runtime.sim import SimBackend

    clear_program_cache()
    kernels = kernel_cases(rng, sizes)
    sims = sim_cases(sizes)
    # Warm-up: build and load every native artifact in this process's own
    # private cache, and spawn the proc pool once.
    for src, _expected in kernels.values():
        run_source(src, **_tier_kwargs("native"))
    run_source(PRIMES.replace("LIMIT", "2000"), **_tier_kwargs("proc"))

    ops = [(tier, name) for tier in ("fast", "native", "proc")
           for name in kernels] + [("sim", name) for name in sims]
    times: dict[tuple, list] = {op: [] for op in ops}
    makespans: dict = {}
    latencies = []
    oks = wrong = 0
    # A fixed number of whole passes, so every run has the same op mix and
    # sample count however fast the machine happens to be.
    passes = max(1, round(ctx.seconds / sizes["pass_s"]))
    window = _Window(ctx, _cold_probe)
    for _ in range(passes):
        order = list(ops)
        rng.shuffle(order)
        for tier, name in order:
            window.elapsed()  # a cold start may be due
            t0 = time.perf_counter()
            try:
                if tier == "sim":
                    src, expected = sims[name]
                    backend = SimBackend(cores=max(SIM_CORES))
                    output = run_source(src, backend=backend).output
                    makespans[name] = {
                        str(c): backend.schedule(c).makespan
                        for c in SIM_CORES}
                else:
                    src, expected = kernels[name]
                    output = run_source(src, **_tier_kwargs(tier)).output
            except Exception as exc:  # noqa: BLE001 - a failed operation
                output = f"{type(exc).__name__}: {exc}"
            dt = (time.perf_counter() - t0) * 1000.0
            latencies.append(dt)
            times[(tier, name)].append(dt / 1000.0)
            good = output == expected
            oks += good
            wrong += not good
    setup = window.close()
    tiers = {tier: statistics.geometric_mean(
        statistics.median(times[(tier, name)]) for name in kernels)
        for tier in ("fast", "native", "proc")}
    speedup = statistics.geometric_mean(
        m["1"] / m["8"] for m in makespans.values()) if makespans else 0.0
    extra = {
        "passes": passes,
        "tiers": tiers,
        "op_median_s": {f"{t}.{n}": statistics.median(v)
                        for (t, n), v in times.items()},
        "sim": makespans,
        "sim_speedup_8c": speedup,
        "sim_speedups": {n: m["1"] / m["8"] for n, m in makespans.items()},
    }
    return _finish(latencies, oks, wrong, setup, extra)


if __name__ == "__main__":
    # Set-up probe entry point: ``python bench/inproc.py --probe SEED``.
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        sys.exit(probe(int(sys.argv[2])))
    print("usage: inproc.py --probe SEED", file=sys.stderr)
    sys.exit(2)
