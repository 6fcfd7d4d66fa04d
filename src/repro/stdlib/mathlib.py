"""Mathematical builtins — the paper's future-work "more robust library
with mathematical functions", implemented.

Transcendentals take and return ``real`` (pass ints freely thanks to the
registry's int→real widening).  ``abs`` / ``min`` / ``max`` are polymorphic
over numeric types and preserve int-ness when every argument is an int,
matching the promotion rule of the arithmetic operators.
"""

from __future__ import annotations

import math

from ..errors import TetraRuntimeError, TetraTypeError
from ..types.types import INT, REAL, IntType, RealType, Type
from .registry import builtin, polymorphic


def _checked(func, name):
    def impl(args, io, span):
        try:
            result = func(*args)
        except ValueError:
            raise TetraRuntimeError(
                f"{name}() is not defined for {', '.join(map(str, args))}", span
            ) from None
        except OverflowError:
            raise TetraRuntimeError(f"{name}() overflowed", span) from None
        return result

    return impl


for _name, _func in [
    ("sqrt", math.sqrt), ("sin", math.sin), ("cos", math.cos),
    ("tan", math.tan), ("asin", math.asin), ("acos", math.acos),
    ("atan", math.atan), ("exp", math.exp), ("log", math.log),
    ("log2", math.log2), ("log10", math.log10),
]:
    builtin(_name, [REAL], REAL, doc=f"{_name}(x) — {_name} of x",
            category="math")(_checked(_func, _name))

builtin("atan2", [REAL, REAL], REAL,
        doc="atan2(y, x) — angle of the point (x, y)",
        category="math")(_checked(math.atan2, "atan2"))


def _round_half_away(x):
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


# Real-to-int conversions: inf overflows and NaN is outside the domain,
# through the same policy as the transcendentals.
builtin("floor", [REAL], INT, doc="floor(x) — largest int <= x",
        category="math")(_checked(math.floor, "floor"))
builtin("ceil", [REAL], INT, doc="ceil(x) — smallest int >= x",
        category="math")(_checked(math.ceil, "ceil"))
builtin("round", [REAL], INT,
        doc="round(x) — nearest int (ties away from zero)",
        category="math")(_checked(_round_half_away, "round"))


def _numeric_unary(name: str):
    def rule(arg_types: tuple[Type, ...]) -> Type:
        if len(arg_types) != 1 or not arg_types[0].is_numeric:
            raise TetraTypeError(f"{name}() takes one number")
        return arg_types[0]

    return rule


@polymorphic("abs", _numeric_unary("abs"),
             doc="abs(x) — absolute value (keeps int-ness)", category="math")
def _abs(args, io, span):
    return abs(args[0])


def _numeric_binary(name: str):
    def rule(arg_types: tuple[Type, ...]) -> Type:
        if len(arg_types) != 2 or not all(t.is_numeric for t in arg_types):
            raise TetraTypeError(f"{name}() takes two numbers")
        if any(isinstance(t, RealType) for t in arg_types):
            return REAL
        return INT

    return rule


@polymorphic("min", _numeric_binary("min"),
             doc="min(a, b) — the smaller of two numbers", category="math")
def _min(args, io, span):
    result = min(args[0], args[1])
    if any(isinstance(a, float) for a in args):
        return float(result)
    return result


@polymorphic("max", _numeric_binary("max"),
             doc="max(a, b) — the larger of two numbers", category="math")
def _max(args, io, span):
    result = max(args[0], args[1])
    if any(isinstance(a, float) for a in args):
        return float(result)
    return result


@builtin("pi", [], REAL, doc="pi() — the constant π", category="math")
def _pi(args, io, span):
    return math.pi
