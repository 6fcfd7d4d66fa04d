"""Runtime values for the Tetra interpreter.

Primitives map onto Python primitives (``int``, ``float``, ``str``,
``bool``) so arithmetic stays fast; arrays are :class:`TetraArray`, a typed,
bounds-checked, mutable sequence — the one place where an educational
language must be stricter than raw Python lists (negative indices and silent
growth would hide bugs the paper wants students to see).

This module also centralizes the C-flavoured numeric semantics the paper
implies (``mid = len(nums) / 2`` on ints must truncate): :func:`int_div`,
:func:`int_mod`, and :func:`tetra_pow`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ..errors import TetraIndexError, TetraRuntimeError, TetraZeroDivisionError
from ..source import NO_SPAN, Span
from ..types import (
    BOOL,
    INT,
    REAL,
    STRING,
    ArrayType,
    ClassType,
    DictType,
    TupleType,
    Type,
)

#: The Python-level type of any Tetra runtime value.
Value = object


class TetraArray:
    """A mutable, fixed-length, homogeneously typed array.

    ``element_type`` is carried for runtime introspection (``str()`` of
    nested arrays, the debugger's variable pane) and for copy-on-construct
    coercion of int values into real arrays.
    """

    # __weakref__ lets the resilience HeapMeter attach a finalizer without
    # giving up the slotted layout (same for the other containers below).
    __slots__ = ("items", "element_type", "__weakref__")

    def __init__(self, items: Iterable[Value], element_type: Type):
        self.items: list[Value] = list(items)
        self.element_type = element_type

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def _check_index(self, index: int, span: Span) -> int:
        if not 0 <= index < len(self.items):
            raise TetraIndexError(
                f"index {index} is out of range for an array of length "
                f"{len(self.items)} (valid indexes are 0 through "
                f"{len(self.items) - 1})",
                span,
            )
        return index

    def get(self, index: int, span: Span = NO_SPAN) -> Value:
        return self.items[self._check_index(index, span)]

    def set(self, index: int, value: Value, span: Span = NO_SPAN) -> None:
        self.items[self._check_index(index, span)] = value

    # -- equality and display ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TetraArray):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):  # arrays are mutable
        raise TypeError("Tetra arrays are not hashable")

    def __repr__(self) -> str:
        return f"TetraArray({self.items!r}, {self.element_type})"


class TetraTuple:
    """An immutable fixed-arity tuple value."""

    __slots__ = ("items", "__weakref__")

    def __init__(self, items):
        self.items: tuple = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    def get(self, index: int, span: Span = NO_SPAN):
        # The checker guarantees constant in-range indexes; defend anyway.
        if not 0 <= index < len(self.items):
            raise TetraIndexError(
                f"tuple index {index} is out of range (arity "
                f"{len(self.items)})",
                span,
            )
        return self.items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TetraTuple):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        raise TypeError("Tetra tuples are not hashable")

    def __repr__(self) -> str:
        return f"TetraTuple({self.items!r})"


class TetraObject:
    """An instance of a user-defined class: named, typed, mutable fields.

    ``field_order`` preserves declaration order for display;
    ``field_types`` drives int→real widening on stores.
    """

    __slots__ = ("class_name", "fields", "field_types", "field_order",
                 "__weakref__")

    def __init__(self, class_name: str, fields: dict,
                 field_types: dict, field_order: list):
        self.class_name = class_name
        self.fields: dict = dict(fields)
        self.field_types: dict = field_types
        self.field_order: list = field_order

    def get(self, name: str, span: Span = NO_SPAN):
        try:
            return self.fields[name]
        except KeyError:
            raise TetraIndexError(
                f"'{self.class_name}' has no field '{name}'", span
            ) from None

    def set(self, name: str, value, span: Span = NO_SPAN) -> None:
        if name not in self.fields:
            raise TetraIndexError(
                f"'{self.class_name}' has no field '{name}'", span
            )
        self.fields[name] = coerce_to(value, self.field_types[name])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TetraObject):
            return NotImplemented
        return (self.class_name == other.class_name
                and self.fields == other.fields)

    def __hash__(self):
        raise TypeError("Tetra objects are not hashable")

    def __repr__(self) -> str:
        return f"TetraObject({self.class_name}, {self.fields!r})"


class TetraDict:
    """A mutable associative array with typed keys and values.

    Iteration and display use **sorted key order**, so dict-using programs
    are deterministic across runs and backends — a must for an educational
    language (and for this repository's differential tests).
    """

    __slots__ = ("items", "key_type", "value_type", "__weakref__")

    def __init__(self, items: dict, key_type: Type, value_type: Type):
        self.items: dict = dict(items)
        self.key_type = key_type
        self.value_type = value_type

    def __len__(self) -> int:
        return len(self.items)

    def sorted_keys(self) -> list:
        return sorted(self.items.keys())

    def __iter__(self):
        return iter(self.sorted_keys())

    def get(self, key, span: Span = NO_SPAN):
        try:
            return self.items[key]
        except KeyError:
            raise TetraIndexError(
                f"the dict has no key {display(key)!s} "
                f"(use has_key() to test first)",
                span,
            ) from None

    def set(self, key, value) -> None:
        self.items[key] = value

    def remove(self, key, span: Span = NO_SPAN) -> None:
        try:
            del self.items[key]
        except KeyError:
            raise TetraIndexError(
                f"cannot remove missing key {display(key)!s}", span
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TetraDict):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        raise TypeError("Tetra dicts are not hashable")

    def __repr__(self) -> str:
        return f"TetraDict({self.items!r})"


def type_of_value(value: Value) -> Type:
    """Runtime type of a value (bool before int: bool *is* an int in Python)."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return REAL
    if isinstance(value, str):
        return STRING
    if isinstance(value, TetraArray):
        return ArrayType(value.element_type)
    if isinstance(value, TetraDict):
        return DictType(value.key_type, value.value_type)
    if isinstance(value, TetraTuple):
        return TupleType(tuple(type_of_value(v) for v in value.items))
    if isinstance(value, TetraObject):
        return ClassType(value.class_name)
    raise TypeError(f"not a Tetra value: {value!r}")


#: Digit budget for printing huge integers.  CPython's default int->str
#: limit (4300 digits) is far too small for an educational language where
#: ``print(fact(2000))`` is a day-one exercise; this budget covers that and
#: then some, while still bounding the quadratic conversion cost a runaway
#: ``a *= a`` loop could otherwise hang the console with.
MAX_PRINT_DIGITS = 500_000


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:
        import sys

        if sys.get_int_max_str_digits() < MAX_PRINT_DIGITS:
            sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
            try:
                return str(value)
            except ValueError:
                pass
        raise TetraRuntimeError(
            f"this integer is too large to print (more than "
            f"{MAX_PRINT_DIGITS} digits); it is still usable in arithmetic"
        ) from None


def display(value: Value) -> str:
    """Render a value the way ``print`` shows it.

    Ints and strings print plainly; reals use Python's shortest-repr floats;
    bools print as ``true`` / ``false``; arrays as ``[a, b, c]``.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, TetraArray):
        return "[" + ", ".join(display(v) for v in value) + "]"
    if isinstance(value, TetraTuple):
        return "(" + ", ".join(display(v) for v in value.items) + ")"
    if isinstance(value, TetraDict):
        return "{" + ", ".join(
            f"{display(k)}: {display(value.items[k])}"
            for k in value.sorted_keys()
        ) + "}"
    if isinstance(value, TetraObject):
        inner = ", ".join(
            f"{name}: {display(value.fields[name])}"
            for name in value.field_order
        )
        return f"{value.class_name}({inner})"
    return str(value)


# ----------------------------------------------------------------------
# Numeric semantics
# ----------------------------------------------------------------------
def int_div(a: int, b: int, span: Span = NO_SPAN) -> int:
    """C-style integer division: truncates toward zero (``-7 / 2 == -3``)."""
    if b == 0:
        raise TetraZeroDivisionError("integer division by zero", span)
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_mod(a: int, b: int, span: Span = NO_SPAN) -> int:
    """C-style remainder: same sign as the dividend, pairs with int_div."""
    if b == 0:
        raise TetraZeroDivisionError("integer modulo by zero", span)
    return a - int_div(a, b, span) * b


def real_div(a: float, b: float, span: Span = NO_SPAN) -> float:
    if b == 0.0:
        raise TetraZeroDivisionError("division by zero", span)
    return a / b


def real_mod(a: float, b: float, span: Span = NO_SPAN) -> float:
    """``fmod`` semantics (sign of dividend), consistent with int_mod."""
    if b == 0.0:
        raise TetraZeroDivisionError("modulo by zero", span)
    return math.fmod(a, b)


def tetra_pow(a: Value, b: Value, span: Span = NO_SPAN) -> Value:
    """``**``: int ** non-negative int stays int; anything else is real.

    A real power follows the math builtins' error policy: a zero base with
    a negative exponent divides by zero, a negative base with a fractional
    exponent is outside the domain, and a result beyond the largest real
    overflows."""
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        if b >= 0:
            return a ** b
    if a == 0 and b < 0:
        raise TetraZeroDivisionError("0 raised to a negative power", span)
    try:
        result = float(a) ** float(b)
    except OverflowError:
        raise TetraRuntimeError("'**' overflowed", span) from None
    if isinstance(result, complex):
        raise TetraRuntimeError(
            f"'**' is not defined for {float(a)} and {float(b)}", span
        )
    return result


_REAL_TYPE = type(REAL)


def coerce_to(value: Value, target: Type) -> Value:
    """Apply the implicit int→real widening when storing into a real slot
    (element-wise for tuples, whose widening is covariant).

    This sits on the interpreter's hottest path (every argument bind and
    return), so it branches on exact types with no imports or allocation in
    the common no-op case.
    """
    if type(value) is int and type(target) is _REAL_TYPE:
        return float(value)
    if type(value) is TetraTuple and type(target) is TupleType:
        return TetraTuple(
            coerce_to(v, t) for v, t in zip(value.items, target.elements)
        )
    return value


def make_array(values: Iterable[Value], element_type: Type) -> TetraArray:
    """Build an array, widening int elements if the element type is real."""
    coerced = [coerce_to(v, element_type) for v in values]
    return TetraArray(coerced, element_type)


def deep_copy(value: Value) -> Value:
    """Structural copy of a value (arrays copy recursively; primitives are
    immutable).  Used by the ``copy`` builtin and the debugger snapshots."""
    if isinstance(value, TetraArray):
        return TetraArray([deep_copy(v) for v in value.items], value.element_type)
    if isinstance(value, TetraDict):
        return TetraDict(
            {k: deep_copy(v) for k, v in value.items.items()},
            value.key_type, value.value_type,
        )
    if isinstance(value, TetraTuple):
        return TetraTuple(deep_copy(v) for v in value.items)
    if isinstance(value, TetraObject):
        return TetraObject(
            value.class_name,
            {k: deep_copy(v) for k, v in value.fields.items()},
            value.field_types,
            value.field_order,
        )
    return value
