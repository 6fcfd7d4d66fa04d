"""Tetra's parallel runtime: values, environments, locks, and backends."""

from .backend import (
    Backend,
    RuntimeConfig,
    SequentialBackend,
    ThreadBackend,
    guided_chunk_sizes,
    run_config,
)
from .coop import (
    CoopBackend,
    CoopScheduler,
    ManualPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulerPolicy,
    ScriptPolicy,
)
from .cost import DEFAULT_COST_MODEL, FREE_PARALLELISM, CostModel
from .env import Environment, Frame
from .locks import LockStats, LockTable
from .machine import Machine, ScheduleResult, speedup_curve
from .proc import ProcBackend
from .schedule import (
    Schedule,
    ScheduleRecorder,
    load_schedule,
    replay_schedule,
    save_schedule,
)
from .sim import SimBackend
from .taskgraph import Access, Acquire, Fork, Release, Task, TraceRecorder, Work
from .values import (
    TetraArray,
    Value,
    coerce_to,
    deep_copy,
    display,
    int_div,
    int_mod,
    make_array,
    real_div,
    real_mod,
    tetra_pow,
    type_of_value,
)

__all__ = [
    "Backend", "RuntimeConfig", "SequentialBackend", "ThreadBackend",
    "ProcBackend", "guided_chunk_sizes", "run_config",
    "CoopBackend", "CoopScheduler", "ManualPolicy", "RandomPolicy",
    "RoundRobinPolicy", "SchedulerPolicy", "ScriptPolicy",
    "DEFAULT_COST_MODEL", "FREE_PARALLELISM", "CostModel",
    "Environment", "Frame", "LockStats", "LockTable",
    "Machine", "ScheduleResult", "speedup_curve", "SimBackend",
    "Schedule", "ScheduleRecorder", "load_schedule", "replay_schedule",
    "save_schedule",
    "Access", "Acquire", "Fork", "Release", "Task", "TraceRecorder", "Work",
    "TetraArray", "Value", "coerce_to", "deep_copy", "display",
    "int_div", "int_mod", "make_array", "real_div", "real_mod",
    "tetra_pow", "type_of_value",
]
