"""Core builtins: lengths, conversions, construction, assertions, time.

``len`` is the paper's own (strings and arrays); the rest are the small,
unavoidable core any static language needs once conversions are explicit
(``int()`` / ``real()`` / ``str()``), plus ``array`` / ``copy`` for building
arrays whose size is not a literal, ``assert`` for teaching, and ``clock`` /
``sleep`` so Tetra programs can time themselves and stage concurrency demos.
"""

from __future__ import annotations

import time

from ..errors import (
    TetraAssertionError,
    TetraRuntimeError,
    TetraTypeError,
    TetraUserError,
)
from ..types.types import (
    BOOL,
    INT,
    REAL,
    STRING,
    VOID,
    ArrayType,
    BoolType,
    IntType,
    RealType,
    StringType,
    Type,
)
from ..runtime.values import TetraArray, deep_copy, display, make_array
from .builtin_time import monotonic_clock
from .mathlib import _checked
from .registry import builtin, polymorphic


# ----------------------------------------------------------------------
# len / str / conversions
# ----------------------------------------------------------------------
def _len_rule(arg_types: tuple[Type, ...]) -> Type:
    from ..types.types import DictType

    if len(arg_types) != 1 or not isinstance(
        arg_types[0], (ArrayType, StringType, DictType)
    ):
        raise TetraTypeError("len() takes one array, string, or dict")
    return INT


@polymorphic("len", _len_rule,
             doc="len(x) — elements in an array or dict, characters in a string")
def _len(args, io, span):
    return len(args[0])


def _str_rule(arg_types: tuple[Type, ...]) -> Type:
    if len(arg_types) != 1:
        raise TetraTypeError("str() takes exactly one argument")
    return STRING


@polymorphic("str", _str_rule, doc="str(x) — the printed form of any value")
def _str(args, io, span):
    return display(args[0])


@polymorphic("string", _str_rule,
             doc="string(x) — same as str(x); the type name as a conversion")
def _string(args, io, span):
    return display(args[0])


def _int_rule(arg_types: tuple[Type, ...]) -> Type:
    if len(arg_types) != 1 or not isinstance(
        arg_types[0], (IntType, RealType, StringType, BoolType)
    ):
        raise TetraTypeError("int() takes one int, real, string, or bool")
    return INT


#: Python's int() truncates toward zero, like int_div; inf and NaN get the
#: error policy of floor, ceil and round.
_int_of_real = _checked(int, "int")


@polymorphic("int", _int_rule,
             doc="int(x) — convert to int (reals truncate toward zero)")
def _int(args, io, span):
    value = args[0]
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float):
        return _int_of_real(args, io, span)
    if isinstance(value, str):
        try:
            return int(value.strip(), 10)
        except ValueError:
            raise TetraRuntimeError(
                f"int() cannot parse {value!r}", span
            ) from None
    return value


def _real_rule(arg_types: tuple[Type, ...]) -> Type:
    if len(arg_types) != 1 or not isinstance(
        arg_types[0], (IntType, RealType, StringType)
    ):
        raise TetraTypeError("real() takes one int, real, or string")
    return REAL


@polymorphic("real", _real_rule, doc="real(x) — convert to real")
def _real(args, io, span):
    value = args[0]
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise TetraRuntimeError(
                f"real() cannot parse {value!r}", span
            ) from None
    return float(value)


# ----------------------------------------------------------------------
# Array construction
# ----------------------------------------------------------------------
def _array_rule(arg_types: tuple[Type, ...]) -> Type:
    if len(arg_types) != 2 or not isinstance(arg_types[0], IntType):
        raise TetraTypeError(
            "array() takes (length int, initial_value) and returns an array "
            "of that value's type"
        )
    return ArrayType(arg_types[1])


@polymorphic("array", _array_rule,
             doc="array(n, value) — a new array of n copies of value")
def _array(args, io, span):
    n, value = args
    if n < 0:
        raise TetraRuntimeError(f"array() length must be >= 0, not {n}", span)
    from ..runtime.values import type_of_value

    return TetraArray([deep_copy(value) for _ in range(n)], type_of_value(value))


def _copy_rule(arg_types: tuple[Type, ...]) -> Type:
    from ..types.types import ClassType, DictType

    if len(arg_types) != 1 or not isinstance(
        arg_types[0], (ArrayType, DictType, ClassType)
    ):
        raise TetraTypeError("copy() takes one array, dict, or class instance")
    return arg_types[0]


@polymorphic("copy", _copy_rule,
             doc="copy(x) — a deep copy of an array, dict, or object")
def _copy(args, io, span):
    return deep_copy(args[0])


# ----------------------------------------------------------------------
# Assertions and timing
# ----------------------------------------------------------------------
def _assert_rule(arg_types: tuple[Type, ...]) -> Type:
    ok = (
        len(arg_types) in (1, 2)
        and isinstance(arg_types[0], BoolType)
        and (len(arg_types) == 1 or isinstance(arg_types[1], StringType))
    )
    if not ok:
        raise TetraTypeError("assert() takes a bool and an optional message string")
    return VOID


@polymorphic("assert", _assert_rule,
             doc="assert(cond, message?) — stop the program if cond is false")
def _assert(args, io, span):
    if not args[0]:
        message = args[1] if len(args) > 1 else "assertion failed"
        raise TetraAssertionError(message, span)
    return None


@builtin("error", [STRING], VOID,
         doc="error(message) — raise an error the program can catch with try")
def _error(args, io, span):
    raise TetraUserError(args[0], span)


@builtin("clock", [], REAL,
         doc="clock() — this backend's clock: monotonic seconds on the "
             "thread backend, virtual time on sim/coop (for timing programs)")
def _clock(args, io, span):
    # Both interpreters special-case clock() to ``backend.now()`` — the
    # registry cannot see the backend, so this body only runs for direct
    # ``Builtin.invoke`` callers (which get the host clock).
    return monotonic_clock()


@builtin("sleep", [REAL], VOID,
         doc="sleep(seconds) — pause this thread (for concurrency demos)")
def _sleep(args, io, span):
    seconds = args[0]
    if seconds < 0:
        raise TetraRuntimeError("sleep() needs a non-negative duration", span)
    time.sleep(min(seconds, 10.0))  # cap: educational demos, not servers
    return None
