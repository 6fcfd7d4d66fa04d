"""Schedule record/replay: turn any run into a reproducible artifact.

``tetra stress`` can tell a student that seed 7 on the thread backend
deadlocked or printed the wrong sum — but until now the evidence
evaporated with the run.  This module records *the decisions that
determine an interleaving* and replays them deterministically:

* **Turns** — the serialized order in which threads executed statements
  (and resumed from lock/join blocks).  On the deterministic backends
  this is simply the scheduler's own grant order; on the thread backend a
  :class:`Turnstile` serializes execution at statement granularity while
  chaos jitter still decides *which* interleaving happens, so the
  recorded run is an honest sample of the schedule space.
* **Lock grants** — the per-lock order in which threads won each lock,
  including barging (a later requester overtaking parked waiters).
* **Parallel-for shapes** — worker count per ``parallel for`` execution,
  so replay partitions the iteration space exactly as the recorded run
  did (including multiprocess offloads on the proc backend).
* **Faults** — the chaos seed; semantically visible injected faults
  (thread faults) are re-drawn from the same dedicated RNG stream in the
  same program order, so they land on the same threads.

The artifact is versioned JSON (``tetra-schedule/1``) embedding the
source text and the recorded ground truth (output, race fingerprints,
fault counts, final status), and it replays on the **coop** scheduler via
:class:`~repro.runtime.coop.ReplayPolicy` — one recorded turn per
scheduler grant — which also makes every recorded schedule a steppable
debugger session (``DebugSession(..., replay=...)``).

Granularity contract: record/replay captures *statement-level*
interleavings — the same granularity the cooperative scheduler (and the
paper's lesson scripts) use.  Sub-statement OS races (two threads inside
one ``x = x + 1``) are serialized by the recording turnstile; the race
*detector* still reports them, because it judges logical concurrency,
not timing.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from ..errors import TetraError

#: Format family/version for the schedule artifact; bump the version on
#: breaking layout changes (see :func:`repro.runtime.traceio.check_format`).
SCHEDULE_FORMAT_FAMILY = "tetra-schedule"
SCHEDULE_FORMAT_VERSION = 1
SCHEDULE_FORMAT = f"{SCHEDULE_FORMAT_FAMILY}/{SCHEDULE_FORMAT_VERSION}"

#: Cap on recorded turns; beyond it the artifact is marked truncated and
#: refuses to replay (a partial schedule would silently diverge).
MAX_TURNS = 500_000


class ScheduleRecorder:
    """Collects one run's scheduling decisions (thread-safe, append-only).

    Backends call :meth:`turn` once per consumed scheduler turn — one
    executed statement or one resumption from a lock/join block — and
    :meth:`grant` every time a lock changes hands.  The interpreter calls
    :meth:`pfor` once per ``parallel for`` execution with the worker
    count it actually used.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self.turns: list[str] = []
        self.grants: list[tuple[str, str]] = []
        self.pfors: list[dict] = []
        self.truncated = False

    def turn(self, label: str) -> None:
        with self._mu:
            if len(self.turns) >= MAX_TURNS:
                self.truncated = True
                return
            self.turns.append(label)

    def grant(self, name: str, label: str) -> None:
        with self._mu:
            self.grants.append((name, label))

    def pfor(self, line: int, items: int, workers: int,
             offloaded: bool = False) -> None:
        with self._mu:
            self.pfors.append({
                "line": int(line),
                "items": int(items),
                "workers": int(workers),
                "offloaded": bool(offloaded),
            })


class Turnstile:
    """Statement-granular serialization of the thread backend while
    recording.

    One token lock: a thread may only execute the statement after its
    checkpoint while holding the token, so the recorded turn order *is*
    the execution order.  Between release and re-acquire the holder
    yields (with chaos jitter when a :class:`FaultPlan` is present), so
    the OS — and the seed — still pick which thread wins the next turn;
    recording explores real interleavings, it does not flatten them to
    round-robin.

    Threads that block (lock waits, joins) :meth:`pause` first so they
    never hold the token while parked; :meth:`resume` re-acquires and
    records the resumption as one turn, mirroring the coop scheduler's
    "resuming costs a turn" rule.  :meth:`close` is the abort/teardown
    gate: it stops serialization so error paths never hang a thread on
    the token of a program that already unwound.
    """

    def __init__(self, recorder: ScheduleRecorder, plan=None):
        self._token = threading.Lock()
        self._mu = threading.Lock()
        self._holder: object = None
        self._dead = False
        self._recorder = recorder
        self._plan = plan

    # ------------------------------------------------------------------
    def step(self, ctx) -> None:
        """One statement boundary: yield, (jitter), re-acquire, record."""
        if self._dead:
            return
        self._release_if_holder(ctx)
        plan = self._plan
        if plan is not None:
            # Token-free jitter: the sleep happens while nobody holds the
            # token, which is what lets another thread barge in and take
            # the next turn — the seed's way of varying the schedule.
            plan.maybe_preempt(ctx)
        else:
            time.sleep(0)
        if self._acquire(ctx):
            self._recorder.turn(ctx.label)

    def pause(self, ctx) -> None:
        """Give up the token around a blocking operation (lock wait, join)."""
        self._release_if_holder(ctx)

    def resume(self, ctx) -> None:
        """Re-acquire after a blocking operation; the resumption is a turn."""
        if self._dead:
            return
        if self._acquire(ctx):
            self._recorder.turn(ctx.label)

    def finish(self, ctx) -> None:
        """A thread is done (or unwinding): release the token if held."""
        self._release_if_holder(ctx)

    def close(self, ctx=None) -> None:
        """End of program or abort: stop serializing, wake waiters."""
        with self._mu:
            self._dead = True
            if ctx is not None and self._holder == ctx.id:
                self._holder = None
                self._token.release()

    # ------------------------------------------------------------------
    def _release_if_holder(self, ctx) -> None:
        with self._mu:
            if self._holder == ctx.id:
                self._holder = None
                self._token.release()

    def _acquire(self, ctx) -> bool:
        while not self._token.acquire(timeout=0.05):
            if self._dead:
                return False
        if self._dead:
            self._token.release()
            return False
        with self._mu:
            self._holder = ctx.id
        return True


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
def race_fingerprints(races) -> list[list]:
    """Schedule-independent fingerprints for race reports, sorted so two
    runs that observed the same races compare equal regardless of
    detection order."""
    prints = []
    for r in races:
        prints.append([
            r.variable,
            r.first.thread, r.first.kind, r.first.span.line,
            r.second.thread, r.second.kind, r.second.span.line,
        ])
    return sorted(prints)


def source_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_artifact(recorder: ScheduleRecorder, *, source_text: str,
                   name: str, entry: str, backend_name: str, config,
                   inputs: list[str] | None, output: str, status: str,
                   races, fault_counts: dict) -> dict:
    """Assemble the versioned artifact for one recorded run."""
    plan = config.fault_plan
    return {
        "format": SCHEDULE_FORMAT,
        "name": name,
        "entry": entry,
        "backend": backend_name,
        "chaos_seed": plan.seed if plan is not None else config.chaos_seed,
        "fault_plan": plan.knobs if plan is not None else None,
        "detect_races": bool(config.detect_races),
        "num_workers": config.num_workers,
        "chunking": config.chunking,
        "inputs": list(inputs or []),
        "source": source_text,
        "source_sha256": source_sha256(source_text),
        "truncated": recorder.truncated,
        "turns": list(recorder.turns),
        "lock_grants": [[name, label] for name, label in recorder.grants],
        "parallel_fors": list(recorder.pfors),
        "recorded": {
            "status": status,
            "output": output,
            "races": race_fingerprints(races),
            "fault_counts": dict(fault_counts),
        },
    }


def _want(data: dict, key: str, types, path: str, where: str = "schedule"):
    """Fetch a required field, naming the file and field on failure."""
    if key not in data:
        raise TetraError(
            f"{path}: malformed {where} — missing field {key!r}"
        )
    value = data[key]
    if types is not None and not isinstance(value, types):
        expected = getattr(types, "__name__", None) or \
            "/".join(t.__name__ for t in types)
        raise TetraError(
            f"{path}: malformed {where} — field {key!r} should be "
            f"{expected}, got {type(value).__name__}"
        )
    return value


class Schedule:
    """One parsed schedule artifact, validated field by field."""

    def __init__(self, data: dict, path: str = "<schedule>"):
        from .traceio import check_format

        check_format(data, SCHEDULE_FORMAT_FAMILY, SCHEDULE_FORMAT_VERSION,
                     path)
        self.path = path
        self.name = str(data.get("name", "<schedule>"))
        self.entry = str(data.get("entry", "main"))
        self.backend = str(_want(data, "backend", str, path))
        self.chaos_seed = data.get("chaos_seed")
        if self.chaos_seed is not None and \
                not isinstance(self.chaos_seed, int):
            raise TetraError(
                f"{path}: malformed schedule — field 'chaos_seed' should "
                f"be an integer or null, got "
                f"{type(self.chaos_seed).__name__}"
            )
        self.fault_knobs = data.get("fault_plan")
        if self.fault_knobs is not None and \
                not isinstance(self.fault_knobs, dict):
            raise TetraError(
                f"{path}: malformed schedule — field 'fault_plan' should "
                f"be an object or null, got "
                f"{type(self.fault_knobs).__name__}"
            )
        self.detect_races = bool(data.get("detect_races", False))
        self.num_workers = data.get("num_workers")
        self.chunking = str(data.get("chunking", "block"))
        self.inputs = [str(x) for x in _want(data, "inputs", list, path)]
        self.source = _want(data, "source", str, path)
        self.source_sha256 = str(data.get("source_sha256", ""))
        if bool(data.get("truncated", False)):
            raise TetraError(
                f"{path}: this schedule was truncated at {MAX_TURNS} turns "
                "while recording — a partial schedule cannot replay "
                "faithfully"
            )
        turns = _want(data, "turns", list, path)
        if not all(isinstance(t, str) for t in turns):
            raise TetraError(
                f"{path}: malformed schedule — field 'turns' should be a "
                "list of thread labels (strings)"
            )
        self.turns: list[str] = list(turns)
        self.grants: list[tuple[str, str]] = []
        for i, pair in enumerate(_want(data, "lock_grants", list, path)):
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(p, str) for p in pair)):
                raise TetraError(
                    f"{path}: malformed schedule — entry {i} of "
                    "'lock_grants' should be a [lock, thread-label] pair"
                )
            self.grants.append((pair[0], pair[1]))
        self.pfors: list[dict] = []
        for i, rec in enumerate(_want(data, "parallel_fors", list, path)):
            if not isinstance(rec, dict) or "workers" not in rec:
                raise TetraError(
                    f"{path}: malformed schedule — entry {i} of "
                    "'parallel_fors' should be an object with a "
                    "'workers' field"
                )
            self.pfors.append(rec)
        recorded = _want(data, "recorded", dict, path)
        self.recorded_status = str(recorded.get("status", "ok"))
        self.recorded_output = str(
            _want(recorded, "output", str, path, "schedule 'recorded'")
        )
        self.recorded_races = [
            list(r) for r in recorded.get("races", [])
        ]
        self.recorded_fault_counts = dict(recorded.get("fault_counts", {}))

    def make_fault_plan(self):
        """Reconstruct the recorded run's fault plan — same seed, same
        knobs — so a replay re-injects the same thread faults (None when
        the recording ran without chaos)."""
        if self.chaos_seed is None:
            return None
        from ..resilience import FaultPlan

        return FaultPlan(self.chaos_seed, **(self.fault_knobs or {}))


def save_schedule(artifact: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def parse_schedule(data, path: str = "<schedule>") -> Schedule:
    """Validate raw JSON data (or pass a :class:`Schedule` through)."""
    if isinstance(data, Schedule):
        return data
    if not isinstance(data, dict):
        raise TetraError(
            f"{path}: a schedule artifact must be a JSON object, got "
            f"{type(data).__name__}"
        )
    return Schedule(data, path)


def load_schedule(path: str) -> Schedule:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TetraError(
            f"cannot read schedule file {path}: {exc.strerror or exc}"
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TetraError(
            f"{path}: schedule file is not valid JSON: {exc}"
        ) from exc
    return parse_schedule(data, path)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class ReplayReport:
    """How faithfully a replay reproduced its recording."""

    def __init__(self, schedule: Schedule, result, policy) -> None:
        self.schedule = schedule
        self.output_match = (result.output == schedule.recorded_output)
        self.races_match = (
            race_fingerprints(result.races) == schedule.recorded_races
        )
        # Timing faults (preempt, lock-delay) are *subsumed* by the
        # schedule — their effect is the interleaving itself, which the
        # turns reproduce.  Only semantically visible faults must recur.
        seen = result.fault_counts.get("thread-fault", 0)
        want = schedule.recorded_fault_counts.get("thread-fault", 0)
        self.faults_match = (seen == want)
        self.status_match = (
            (result.aborted_by or "ok") == schedule.recorded_status
        )
        self.matched_turns = getattr(policy, "matched_turns", 0)
        self.fallback_turns = getattr(policy, "fallback_turns", 0)
        self.pending_turns = len(getattr(policy, "script", ()))

    @property
    def faithful(self) -> bool:
        return (self.output_match and self.races_match
                and self.faults_match and self.status_match)

    def render(self) -> str:
        ok = "byte-identical" if self.faithful else "DIVERGED"
        parts = [
            f"replay of {self.schedule.path} "
            f"(recorded on {self.schedule.backend}): {ok}",
            f"  output:  {'match' if self.output_match else 'differs'}",
            f"  races:   {'match' if self.races_match else 'differ'}",
            f"  faults:  {'match' if self.faults_match else 'differ'}",
            f"  status:  {'match' if self.status_match else 'differs'} "
            f"(recorded: {self.schedule.recorded_status})",
            f"  turns:   {self.matched_turns} replayed, "
            f"{self.fallback_turns} filled in, "
            f"{self.pending_turns} unused",
        ]
        return "\n".join(parts)


def replay_schedule(schedule, *, trace: bool = False, metrics: bool = False,
                    record_schedule: bool = False, cache: bool = True,
                    time_limit: float = 0.0):
    """Replay a recorded schedule on the coop scheduler.

    ``schedule`` is a :class:`Schedule`, a raw artifact dict, or a path.
    Returns a normal :class:`~repro.api.RunResult` (``on_error="return"``
    semantics, so a replayed deadlock lands in ``result.error``) with a
    :class:`ReplayReport` attached as ``result.replay``.
    """
    from ..api import run_source  # late: api imports the runtime package

    if isinstance(schedule, str):
        schedule = load_schedule(schedule)
    else:
        schedule = parse_schedule(schedule)
    return run_source(
        schedule.source, inputs=list(schedule.inputs), backend="coop",
        name=schedule.name, entry=schedule.entry,
        detect_races=schedule.detect_races, cache=cache,
        trace=trace, metrics=metrics, time_limit=time_limit,
        record_schedule=record_schedule, replay=schedule,
        on_error="return",
    )
