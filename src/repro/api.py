"""High-level convenience API — the functions most users call.

>>> from repro import run_source
>>> result = run_source('''
... def main():
...     print("hello from tetra")
... ''')
>>> result.output
'hello from tetra\\n'

Every function here composes the pipeline (lex → parse → check → interpret)
with sensible defaults; the underlying pieces stay importable for tools that
need finer control.

A run is one checked program paired with one :class:`RuntimeConfig`:
every run knob (race detection, tracing, limits, chaos, the native tier)
is a field of that config, built per run by
:func:`~repro.runtime.run_config` and passed to :func:`run_source` either
whole (``config=``) or field by field as keywords.

Repeat runs of the same source — REPL loops, IDE re-runs, benchmark
harnesses — go through a small LRU **program cache** keyed by
``(sha256(text), name, entry)``: the lex/parse/check work happens once and
the checked AST (with its type annotations and symbol tables) is reused
by every run, whatever its config.  Runs never write to the shared tree;
the only things ever attached to it are analyses that are pure functions
of the program (determinism, the proc plan, the native lowering), so one
entry serves plain, traced, race-detected, native and simulated runs
alike.  Per-interpreter state (the compiled functions of the fast path, the
race detector, the observer) is rebuilt per run, which is a single
O(nodes) pass.  Pass ``cache=False`` (or ``tetra run --no-cache``) to
bypass it, e.g. when benchmarking the front end itself.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import TetraError
from .parser import parse_source
from .source import SourceFile
from .tetra_ast import Program
from .types import ProgramSymbols, check_program, collect_diagnostics
from .interp import Interpreter
from .runtime import (
    Backend,
    RuntimeConfig,
    SequentialBackend,
    SimBackend,
    ThreadBackend,
    run_config,
)
from .runtime.coop import CoopBackend, RandomPolicy, RoundRobinPolicy, ScriptPolicy
from .runtime.proc import ProcBackend
from .stdlib.io import CapturingIO

#: Backend factories selectable by name in :func:`run_source`.
BACKEND_FACTORIES = {
    "thread": ThreadBackend,
    "sequential": SequentialBackend,
    "coop": CoopBackend,
    "sim": SimBackend,
    "proc": ProcBackend,
}


@dataclass
class RunResult:
    """Everything a run produced."""

    program: Program
    backend: Backend
    io: CapturingIO
    symbols: ProgramSymbols
    #: Data races observed by the detector (empty unless ``detect_races``).
    races: list = field(default_factory=list)
    #: The program's display name (file path or the default "<string>").
    name: str = "<string>"
    #: Aggregated :class:`~repro.obs.RunMetrics` (None unless the run was
    #: made with ``metrics=True``).
    metrics: object = None
    #: The raw :class:`~repro.obs.Observer` when tracing/metrics/profiling
    #: was enabled; feed it to :func:`repro.obs.chrome_trace` or
    #: :func:`repro.obs.render_profile`.
    obs: object = None
    #: :class:`~repro.resilience.faults.FaultRecord` entries the chaos plan
    #: injected (empty unless the run had a ``chaos_seed``/fault plan).
    faults: list = field(default_factory=list)
    #: Injection counters by kind (e.g. ``{"preempt": 12}``), never capped.
    fault_counts: dict = field(default_factory=dict)
    #: Why the run stopped early: ``"time"``, ``"memory"``, ``"steps"``,
    #: ``"recursion"``, ``"cancelled"``, ``"deadlock"``, ``"error"`` — or
    #: None when it ran to completion.  Only set with ``on_error="return"``.
    aborted_by: str | None = None
    #: The :class:`~repro.errors.TetraError` that ended the run, when
    #: ``on_error="return"`` swallowed it.  Partial output/races/metrics
    #: gathered before the abort are still populated.
    error: object = None
    #: The recorded schedule artifact (a ``tetra-schedule/1`` dict, ready
    #: for :func:`repro.runtime.schedule.save_schedule`) when the run was
    #: made with ``record_schedule=True``.
    schedule: dict | None = None
    #: :class:`~repro.runtime.schedule.ReplayReport` comparing this run to
    #: its recording, when the run was made with ``replay=...``.
    replay: object = None

    @property
    def output(self) -> str:
        return self.io.output

    def output_lines(self) -> list[str]:
        return self.io.lines()

    def chrome_trace(self) -> dict:
        """The run as a Chrome trace-event document (``trace=True`` runs).

        Dump it with ``json.dump`` and load the file in Perfetto or
        ``chrome://tracing``.
        """
        if self.obs is None:
            raise ValueError(
                "this run was not traced — pass trace=True (or metrics=True) "
                "to run_source/run_file"
            )
        from .obs import chrome_trace
        return chrome_trace(self.obs, self.backend)

    def __repr__(self) -> str:
        # The default dataclass repr would dump the whole AST, backend, and
        # symbol tables — hundreds of lines in a pytest failure report.
        return (
            f"<RunResult {self.name!r} backend={self.backend.name} "
            f"output={len(self.output)} chars races={len(self.races)}>"
        )


def compile_source(text: str, name: str = "<string>") -> tuple[Program, SourceFile]:
    """Parse and type-check; returns the checked program and its source."""
    source = SourceFile.from_string(text, name)
    program = parse_source(source)
    check_program(program, source)
    return program, source


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------
_CACHE_CAPACITY = 128
_cache: OrderedDict[tuple, tuple[Program, SourceFile]] = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0
#: Single-flight tracking: key -> Event set when the leading compile of
#: that key finishes (successfully or not).  Guarded by ``_cache_lock``.
#: Forked worker processes must reset this alongside ``_cache_lock`` — an
#: inherited Event copy would never be set in the child.
_inflight: dict[tuple, threading.Event] = {}


def cached_program(text: str, name: str = "<string>",
                   entry: str = "main",
                   cache: bool = True) -> tuple[Program, SourceFile]:
    """:func:`compile_source` behind the LRU program cache.

    Only successful compilations are cached — a program with a syntax or
    type error raises every time, with a fresh diagnostic.  Any change to
    the source text changes its hash and misses the cache, so there is no
    explicit invalidation to get wrong.  The key is ``(sha, name,
    entry)`` and nothing else: no run mode writes to a checked tree, so
    one entry serves every run of the program.

    Concurrent misses on the same key are **single-flight**: the first
    caller compiles while the rest wait on its result, so N simultaneous
    requests for the same program (the ``tetra serve`` steady state) cost
    one compile and record one miss — the losers used to compile too and
    silently discard their trees.  A failed leading compile wakes the
    waiters to retry, so each of them still raises its own diagnostic.
    """
    global _cache_hits, _cache_misses
    if not cache:
        return compile_source(text, name)
    key = (hashlib.sha256(text.encode("utf-8")).hexdigest(), name, entry)
    while True:
        with _cache_lock:
            cached = _cache.get(key)
            if cached is not None:
                _cache.move_to_end(key)
                _cache_hits += 1
                return cached
            waiter = _inflight.get(key)
            if waiter is None:
                _inflight[key] = threading.Event()
                _cache_misses += 1
                break
        waiter.wait()
    try:
        compiled = compile_source(text, name)
        # Pre-attach the determinism metadata while we are the single
        # flight: every later consumer of this cached tree — notably the
        # serve layer's result-cache gate — reads it as a plain attribute.
        from .analysis.determinism import determinism_info

        determinism_info(compiled[0])
    except BaseException:
        with _cache_lock:
            done = _inflight.pop(key, None)
        if done is not None:
            done.set()
        raise
    with _cache_lock:
        _cache[key] = compiled
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
        done = _inflight.pop(key, None)
    if done is not None:
        done.set()
    return compiled


def cached_parse(text: str, name: str = "<string>",
                 tag: object = None,
                 cache: bool = True) -> tuple[Program, SourceFile]:
    """Parse (without type-checking) behind the same LRU cache.

    This is the entry point for incremental front ends — the REPL and the
    IDE session — that parse fragments repeatedly and run their own
    checking passes.  ``tag`` scopes the cache entry: the checker annotates
    AST nodes in place, so a cached tree is only safe to reuse by a
    consumer that re-checks it (or checked it) itself — callers pass a
    per-session token to avoid sharing annotated trees across sessions.
    """
    global _cache_hits, _cache_misses
    if not cache:
        source = SourceFile.from_string(text, name)
        return parse_source(source), source
    key = ("parse", hashlib.sha256(text.encode("utf-8")).hexdigest(),
           name, tag)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return cached
        _cache_misses += 1
    source = SourceFile.from_string(text, name)
    program = parse_source(source)
    with _cache_lock:
        _cache[key] = (program, source)
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return program, source


def clear_program_cache() -> None:
    """Drop every cached program and reset the hit/miss counters."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0


def program_cache_info() -> dict:
    """Cache statistics (mirrors ``functools.lru_cache``'s info fields)."""
    with _cache_lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "currsize": len(_cache),
            "maxsize": _CACHE_CAPACITY,
        }


def check_source(text: str, name: str = "<string>") -> list[TetraError]:
    """All static diagnostics for a piece of source (empty list = clean)."""
    source = SourceFile.from_string(text, name)
    try:
        program = parse_source(source)
    except TetraError as exc:
        return [exc]
    return list(collect_diagnostics(program, source))


def _abort_kind(exc) -> str:
    """Classify why a run ended early (for :attr:`RunResult.aborted_by`)."""
    from .errors import (
        TetraCancelledError,
        TetraDeadlockError,
        TetraLimitError,
    )

    if isinstance(exc, TetraDeadlockError):
        return "deadlock"
    if isinstance(exc, TetraCancelledError):
        return "cancelled"
    if isinstance(exc, TetraLimitError):
        return exc.limit or "limit"
    return "error"


def run_source(text: str, inputs: list[str] | None = None,
               backend: str | Backend = "thread",
               config: RuntimeConfig | None = None,
               name: str = "<string>", entry: str = "main",
               cache: bool = True,
               io: CapturingIO | None = None,
               on_error: str = "raise",
               record_schedule: bool = False, replay: object = None,
               **knobs) -> RunResult:
    """Compile and run Tetra source, capturing console output.

    ``backend`` is a name from :data:`BACKEND_FACTORIES` or a ready-made
    backend instance (e.g. a ``SimBackend(cores=8)`` whose trace you want).
    ``cache=False`` bypasses the program cache.  ``io`` brings the run's
    own console channel (the serve worker's streaming one, the IDE pane);
    it then owns the input lines too.

    Run knobs are :class:`~repro.runtime.RuntimeConfig` fields: pass a
    whole ``config``, name fields as keywords (``detect_races=True``,
    ``trace=True``, ``metrics=True``, ``time_limit=2.0``,
    ``chaos_seed=7``, ``native="auto"``, ...), or both — a keyword wins
    over the same field of ``config``, which is never modified.  With no
    ``config``, a backend instance's own config is the base.  Observed
    races land in :attr:`RunResult.races`, a tracing/metrics/profiling run
    carries its :attr:`RunResult.obs` (and :attr:`RunResult.metrics`), and
    a chaos run's injected faults land in :attr:`RunResult.faults`.
    Guardrails and chaos are described in DESIGN.md §6f, the native tier
    in §2c.

    ``on_error="return"`` reports a failed run through
    :attr:`RunResult.error`/:attr:`RunResult.aborted_by` — with whatever
    partial output, races, and metrics the run produced — instead of
    raising.  Compile errors always raise.

    Record/replay (DESIGN.md §6g): ``record_schedule=True`` attaches a
    :class:`~repro.runtime.schedule.ScheduleRecorder` and leaves the
    versioned artifact — with the input lines the program actually
    consumed — on :attr:`RunResult.schedule`; ``replay`` takes a
    recorded artifact (a :class:`~repro.runtime.schedule.Schedule`, a raw
    dict, or a file path), forces the coop backend with a
    :class:`~repro.runtime.coop.ReplayPolicy`, and attaches a fidelity
    :class:`~repro.runtime.schedule.ReplayReport` as
    :attr:`RunResult.replay`.  Most callers replay through
    :func:`repro.runtime.schedule.replay_schedule`, which also feeds the
    recorded source and inputs back in.
    """
    if on_error not in ("raise", "return"):
        raise ValueError('on_error must be "raise" or "return"')
    sched = None
    if replay is not None:
        from .runtime.schedule import load_schedule, parse_schedule

        sched = load_schedule(replay) if isinstance(replay, str) \
            else parse_schedule(replay)
        if isinstance(backend, str):
            backend = "coop"  # replays run on the coop scheduler
    recorder = None
    if record_schedule:
        from .runtime.schedule import ScheduleRecorder

        recorder = knobs["schedule_recorder"] = ScheduleRecorder()
    if config is None and not isinstance(backend, str):
        config = backend.config
    config = run_config(config, sched, **knobs)
    program, source = cached_program(text, name, entry, cache=cache)
    if isinstance(backend, str):
        try:
            factory = BACKEND_FACTORIES[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; pick one of "
                f"{sorted(BACKEND_FACTORIES)}"
            ) from None
        backend_obj = factory(config=config)
    else:
        backend_obj = backend
    if io is None:
        io = CapturingIO(inputs or [])
    interp = Interpreter(program, source, backend=backend_obj, io=io,
                         config=config)
    error = None
    try:
        interp.run(entry)
    except TetraError as exc:
        if on_error == "raise":
            raise
        error = exc
    result = RunResult(program, backend_obj, io, program.symbols,  # type: ignore[attr-defined]
                       races=interp.races, name=name)
    if error is not None:
        result.error = error
        result.aborted_by = _abort_kind(error)
    plan = config.fault_plan
    if plan is not None:
        result.faults = list(plan.records)
        result.fault_counts = dict(plan.counts)
    if recorder is not None:
        from .runtime.schedule import build_artifact

        result.schedule = build_artifact(
            recorder, source_text=text, name=name, entry=entry,
            backend_name=backend_obj.name, config=config,
            inputs=io.consumed, output=result.output,
            status=result.aborted_by or "ok", races=interp.races,
            fault_counts=result.fault_counts,
        )
    if sched is not None:
        from .runtime.schedule import ReplayReport

        policy = getattr(getattr(backend_obj, "scheduler", None),
                         "policy", None)
        result.replay = ReplayReport(sched, result, policy)
    obs = interp._obs
    if obs is not None:
        result.obs = obs
        if obs.metrics:
            from .obs import collect_metrics
            result.metrics = collect_metrics(obs, backend_obj)
    return result


def run_file(path: str, inputs: list[str] | None = None,
             **kwargs) -> RunResult:
    """Compile and run a ``.ttr`` file: :func:`run_source` on its text,
    with the file path as the program's name."""
    return run_source(SourceFile.from_path(path).text, inputs, name=path,
                      **kwargs)
