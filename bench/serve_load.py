"""The two ``tetra serve`` workloads: ``classroom`` and ``unique``.

The server is a real ``tetra serve`` subprocess with operator defaults
(2 sandbox workers, default quotas, dedup on).  Load comes from this one
process: at most two sender threads, each holding at most one
connection.  A run has an open-loop phase (requests sent on a fixed
schedule, each timed from when it was *due*, so a stall also charges the
requests queued behind it) and a closed-loop capacity phase (both
threads send back to back).  Both are cut into stretches at the run's
cold-start times; no request is in flight while a cold server starts.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
import programs as P

#: Per-workload traffic shape.
SHAPES = {
    # Browser/IDE-like: persistent HTTP/1.1 connections, a class of 200
    # students re-running three assignments.
    "classroom": {"rate": 20.0, "keepalive": True, "tenants": 200},
    # Grader-like: a fresh connection per request, every source distinct.
    "unique": {"rate": 60.0, "keepalive": False, "tenants": 50},
}
#: Share of the run's seconds spent in the open loop; the rest is the
#: closed-loop capacity phase.
OPEN_SHARE = 2 / 3
SENDERS = 2
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class ClassroomMix:
    """70% three shared assignments (one on ``sim`` with ``parallel
    for``), 20% per-student variants, 10% broken programs (expect 422).

    A student's variant of an assignment is fixed for the run, so a
    student who re-submits it hits the result cache like a real class.
    """

    #: One round of the mix, dealt in seeded order: the shares are exact
    #: in every run, so the tail percentiles do not move with the draw.
    ROUND = ["shared"] * 7 + ["variant"] * 2 + ["broken"]

    def __init__(self, seed: int, tenants: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.tenants = tenants
        self.shared = [self._assignment(k, self.rng, "assignment")
                       for k in range(3)]
        self.dealt = []

    @staticmethod
    def _assignment(k: int, rng: random.Random, tag: str) -> P.Case:
        # Sizes chosen so the three cost about the same to execute: the
        # p95 then sits inside one homogeneous cluster of executions.
        if k == 0:
            return P.make("collatz", P.collatz, rng, tag,
                          limit=rng.randint(38, 44))
        if k == 1:
            return P.make("factorial_table", P.factorial_table, rng, tag,
                          n=rng.randint(25, 30))
        return P.make("primes_sim", P.primes, rng, tag, backend="sim",
                      limit=rng.randint(55, 65))

    def next(self) -> tuple[P.Case, str]:
        rng = self.rng
        if not self.dealt:
            self.dealt = list(self.ROUND)
            rng.shuffle(self.dealt)
        kind = self.dealt.pop()
        student = rng.randrange(self.tenants)
        tenant = f"student-{student}"
        k = rng.randrange(3)
        if kind == "shared":
            return self.shared[k], tenant
        own = random.Random(f"{self.seed}/{student}/{k}")
        case = self._assignment(k, own, f"student {student}")
        case.family += "_variant"
        if kind == "variant":
            return case, tenant
        return P.break_case(case, own), tenant


class UniqueMix:
    """Every source distinct; a third are ``parallel for`` + ``lock``
    programs on the thread backend (one in each seeded round of three)."""

    ROUND = [P.PARALLEL_LOCKED, P.SEQUENTIAL, P.SEQUENTIAL]

    def __init__(self, seed: int, tenants: int):
        self.rng = random.Random(seed)
        self.tenants = tenants
        self.n = 0
        self.dealt = []

    def next(self) -> tuple[P.Case, str]:
        rng = self.rng
        self.n += 1
        if not self.dealt:
            self.dealt = list(self.ROUND)
            rng.shuffle(self.dealt)
        pool = self.dealt.pop()
        family = rng.choice(sorted(pool))
        case = P.make(family, pool[family], rng, f"submission {self.n}")
        return case, f"grader-{rng.randrange(self.tenants)}"


MIXES = {"classroom": ClassroomMix, "unique": UniqueMix}


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    """One ``tetra serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx, index: int):
        self.err_path = os.path.join(ctx.work, f"serve-{index}.err")
        if ctx.trace:
            self.spill_dir = os.path.join(ctx.work, f"spans-{index}")
            os.makedirs(self.spill_dir)
            cmd = [sys.executable,
                   os.path.join(ctx.bench, "serve_launcher.py"),
                   "--spill-dir", self.spill_dir]
        else:
            self.spill_dir = None
            cmd = [sys.executable, "-m", "repro.tools.cli", "serve",
                   "--port", "0", "--workers", "2"]
        self._err = open(self.err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._err)

    def wait_port(self) -> int:
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.perf_counter() < deadline:
            with open(self.err_path, encoding="utf-8") as fh:
                found = pattern.search(fh.read())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.err_path, encoding="utf-8") as fh:
            raise RuntimeError(f"tetra serve did not start:\n{fh.read()}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._err.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
def _post(conn: http.client.HTTPConnection, case: P.Case, tenant: str):
    body = json.dumps(case.payload())
    conn.request("POST", "/api/run", body,
                 {"Content-Type": "application/json",
                  "X-Tetra-Tenant": tenant})
    resp = conn.getresponse()
    data = resp.read()
    return resp.status, json.loads(data)


def _correct(case: P.Case, status: int, body: dict) -> bool:
    if case.error is not None:
        return status == 422 and P.check_diagnostic(
            case, body.get("exit_code"), body.get("error"))
    return (status == 200 and body.get("exit_code") == 0
            and P.check_run(case, body.get("output")))


class Client:
    """One sender thread's connection: persistent or one per request."""

    def __init__(self, port: int, keepalive: bool):
        self.port = port
        self.keepalive = keepalive
        self.conn = None

    def send(self, case: P.Case, tenant: str) -> dict:
        """One request; returns a record (never raises)."""
        rec = {"family": case.family, "status": None, "ok": False,
               "rid": None}
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
            status, body = _post(self.conn, case, tenant)
            rec["status"] = status
            rec["rid"] = body.get("id")
            rec["ok"] = _correct(case, status, body)
            rec["wrong"] = status in (200, 422) and not rec["ok"]
        except (OSError, http.client.HTTPException, ValueError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            self.close()
        finally:
            rec["start"] = start
            rec["end"] = time.perf_counter()
            if not self.keepalive:
                self.close()
        return rec

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def open_loop(port, mix, shape, seconds) -> list:
    """Send ``rate * seconds`` requests on a fixed schedule."""
    cases = [mix.next() for _ in range(round(shape["rate"] * seconds))]
    records = [None] * len(cases)
    cursor = iter(range(len(cases)))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def sender():
        client = Client(port, shape["keepalive"])
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            due = t0 + i / shape["rate"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec = client.send(*cases[i])
            rec["due"] = due
            records[i] = rec
        client.close()

    _run_senders(sender)
    return records


def closed_loop(port, mix, shape, seconds) -> tuple[list, float]:
    """Both senders back to back until ``seconds`` pass."""
    records = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def sender():
        client = Client(port, shape["keepalive"])
        while time.perf_counter() < stop_at:
            with lock:
                case = mix.next()
            rec = client.send(*case)
            with lock:
                records.append(rec)
        client.close()

    _run_senders(sender)
    last = max((r["end"] for r in records), default=stop_at)
    return records, last - start


def _run_senders(target) -> None:
    threads = [threading.Thread(target=target, name=f"sender-{k}")
               for k in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _get_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        conn.request("GET", "/api/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _cold_start(ctx, trial: int) -> tuple[Server, int, float]:
    """A fresh server, its port, and the seconds from ``Popen`` to its
    first correct ``/api/run``."""
    t0 = time.perf_counter()
    server = Server(ctx, trial)
    port = server.wait_port()
    probe = P.make("sum_squares", P.sum_squares, random.Random(trial),
                   f"setup probe {ctx.seed} {trial}")
    rec = Client(port, False).send(probe, "setup")
    elapsed = time.perf_counter() - t0
    if not rec["ok"]:
        server.stop()
        raise RuntimeError(f"setup probe failed: {rec}")
    return server, port, elapsed


def run(ctx, workload: str) -> dict:
    shape = SHAPES[workload]
    mix = MIXES[workload](ctx.seed, shape["tenants"])
    due = ctx.trial_times()
    # The first cold start's server serves the run.  Each later one is
    # started, probed and stopped at its time in the window, between two
    # stretches of load, while the serving one sits idle.
    server, port, elapsed = _cold_start(ctx, 0)
    setup = [elapsed]
    opened, closed, closed_s, rss = [], [], 0.0, 0.0
    try:
        # Warm-up outside the measured window: every worker imports its
        # lazy modules, and the classroom's shared assignments are in the
        # result cache like yesterday's class left them.
        warm = Client(port, False)
        for case in getattr(mix, "shared", []):
            warm.send(case, "warmup")
        for k in range(2 * SENDERS):
            warm.send(P.make("fibonacci", P.fibonacci, random.Random(k),
                             f"warmup {k}"), "warmup")
        pid = server.proc.pid
        open_s = ctx.seconds * OPEN_SHARE
        at = 0.0
        for cut in sorted({*due[1:], open_s, ctx.seconds}):
            if at < open_s:
                opened += open_loop(port, mix, shape, cut - at)
            else:
                records, took = closed_loop(port, mix, shape, cut - at)
                closed += records
                closed_s += took
            rss = max(rss, _hwm_mb(pid))
            if cut in due:
                cold, _port, elapsed = _cold_start(ctx, len(setup))
                cold.stop()
                setup.append(elapsed)
            at = cut
        stats = _get_stats(port)
    finally:
        server.stop()
    records = opened + closed
    latencies = [(r["end"] - r["due"]) * 1000.0 for r in opened]
    late = sorted(max(0.0, r["start"] - r["due"]) * 1000.0 for r in opened)
    ok_closed = sum(r["ok"] for r in closed)
    out = {
        "latencies_ms": latencies,
        "attempted": len(records),
        "ok": sum(r["ok"] for r in records),
        "wrong": sum(bool(r.get("wrong")) for r in records),
        "setup_s": setup,
        "capacity_rps": ok_closed / closed_s if closed_s > 0 else 0.0,
        "peak_rss_mb": rss,
        "extra": {
            "sent": len(records),
            "open_requests": len(opened),
            "closed_requests": len(closed),
            "late_p99_ms": late[int(0.99 * (len(late) - 1))] if late else 0.0,
            "family_p50_ms": _family_p50(opened),
            "family_requests": _tally(r["family"] for r in opened),
            "statuses": _tally(r["status"] for r in records),
            "errors": _tally(r["error"] for r in records if "error" in r),
            "serve_stats": stats,
        },
    }
    if ctx.trace:
        ctx.tracer.merge_spills(server.spill_dir)
        for r in records:
            ctx.tracer.span("loadgen.request", r["start"], r["end"], r["rid"])
        client = {r["rid"]: r["end"] - r["start"]
                  for r in records if r["rid"]}
        out["extra"]["transport_ms"] = layers.transport_ms(ctx.tracer, client,
                                                           pid)
        out["root_pid"] = pid
    return out


# ----------------------------------------------------------------------
# Peak memory of the server tree, from /proc (Linux)
# ----------------------------------------------------------------------
def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            text = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may contain spaces.
    return int(text[text.rindex(")") + 2:].split()[1])


def _descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _ppid(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _hwm_mb(root: int) -> float:
    """Sum of VmHWM (peak resident set) over ``root``'s live tree."""
    total_kb = 0
    for pid in _descendants(root):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _family_p50(records) -> dict:
    by: dict = {}
    for r in records:
        by.setdefault(r["family"], []).append((r["end"] - r["due"]) * 1000.0)
    return {f: statistics.median(v) for f, v in sorted(by.items())}


def _tally(values) -> dict:
    return dict(collections.Counter(map(str, values)))
