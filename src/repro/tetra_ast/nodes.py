"""AST node definitions for Tetra.

The hierarchy follows the paper's grammar: a program is a list of function
definitions; statements include the four parallel constructs (``parallel``,
``background``, ``parallel for``, ``lock``) as first-class nodes rather than
library calls — that is the paper's central design point.

Nodes are dataclasses with ``eq=False``: identity equality is what the
interpreter and debugger need (nodes are dict keys for breakpoints and cost
attribution).  Structural comparison — used by the parse/unparse round-trip
property tests — is provided by :func:`node_equal`, which ignores spans and
inferred types.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields

from ..source import NO_SPAN, Span


class BinaryOp(enum.Enum):
    """Binary operators, including short-circuiting ``and`` / ``or``."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    POW = "**"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"

    @property
    def is_comparison(self) -> bool:
        return self in (BinaryOp.EQ, BinaryOp.NE, BinaryOp.LT,
                        BinaryOp.LE, BinaryOp.GT, BinaryOp.GE)

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOp.AND, BinaryOp.OR)

    @property
    def is_arithmetic(self) -> bool:
        return not (self.is_comparison or self.is_logical)


class UnaryOp(enum.Enum):
    NEG = "-"
    POS = "+"
    NOT = "not"


@functools.cache
def _fields_without_span(cls: type) -> tuple[str, ...]:
    """Field names of the node class ``cls`` except ``span``, computed once
    per class: ``dataclasses.fields`` rebuilds its answer on every call."""
    return tuple(f.name for f in fields(cls) if f.name != "span")


@dataclass(eq=False)
class Node:
    """Base class of every AST node."""

    span: Span = field(default=NO_SPAN, kw_only=True)

    def children(self):
        """Yield all direct child nodes (used by generic walkers)."""
        for name in _fields_without_span(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item


# ----------------------------------------------------------------------
# Types as written in source (distinct from semantic types in repro.types)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class TypeExpr(Node):
    """A type annotation as it appears in the source."""


@dataclass(eq=False)
class PrimitiveTypeExpr(TypeExpr):
    name: str = ""  # "int" | "real" | "string" | "bool"


@dataclass(eq=False)
class ArrayTypeExpr(TypeExpr):
    element: TypeExpr = None  # type: ignore[assignment]


@dataclass(eq=False)
class DictTypeExpr(TypeExpr):
    """``{K: V}`` — an associative array annotation (future-work feature)."""

    key: TypeExpr = None  # type: ignore[assignment]
    value: TypeExpr = None  # type: ignore[assignment]


@dataclass(eq=False)
class TupleTypeExpr(TypeExpr):
    """``(T1, T2, ...)`` — a tuple annotation (future-work feature)."""

    elements: list[TypeExpr] = field(default_factory=list)


@dataclass(eq=False)
class ClassTypeExpr(TypeExpr):
    """A class name used as a type annotation (future-work feature)."""

    name: str = ""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Expr(Node):
    """Base class for expressions.  ``ty`` is filled in by the checker."""

    def __post_init__(self) -> None:
        self.ty = None  # annotated by repro.types.check; not a field


@dataclass(eq=False)
class IntLiteral(Expr):
    value: int = 0


@dataclass(eq=False)
class RealLiteral(Expr):
    value: float = 0.0


@dataclass(eq=False)
class StringLiteral(Expr):
    value: str = ""


@dataclass(eq=False)
class BoolLiteral(Expr):
    value: bool = False


@dataclass(eq=False)
class Name(Expr):
    id: str = ""


@dataclass(eq=False)
class ArrayLiteral(Expr):
    elements: list[Expr] = field(default_factory=list)


@dataclass(eq=False)
class TupleLiteral(Expr):
    """``(e1, e2, ...)`` — a fixed-arity heterogeneous value (>= 2 items)."""

    elements: list[Expr] = field(default_factory=list)


@dataclass(eq=False)
class DictLiteral(Expr):
    """``{k1: v1, k2: v2}`` — an associative array literal."""

    entries: list[tuple[Expr, Expr]] = field(default_factory=list)

    def children(self):
        for key, value in self.entries:
            yield key
            yield value


@dataclass(eq=False)
class RangeLiteral(Expr):
    """Inclusive integer range ``[start ... stop]`` (Figure II's ``[1...100]``)."""

    start: Expr = None  # type: ignore[assignment]
    stop: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Attribute(Expr):
    """``obj.field`` — read (or, as an assignment target, write) a field."""

    base: Expr = None  # type: ignore[assignment]
    attr: str = ""


@dataclass(eq=False)
class MethodCall(Expr):
    """``obj.method(args)`` — invoke a class method on an instance."""

    base: Expr = None  # type: ignore[assignment]
    method: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(eq=False)
class Call(Expr):
    """A call to a user function or builtin.  Functions are not first-class
    values in Tetra, so the callee is a bare name."""

    func: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(eq=False)
class BinOp(Expr):
    op: BinaryOp = BinaryOp.ADD
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Unary(Expr):
    op: UnaryOp = UnaryOp.NEG
    operand: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Stmt(Node):
    """Base class for statements."""


@dataclass(eq=False)
class Block(Node):
    """An indented suite of statements."""

    statements: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Assign(Stmt):
    """``target = value`` where target is a Name or an Index chain."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class AugAssign(Stmt):
    """``target op= value`` for ``+= -= *= /= %=``."""

    target: Expr = None  # type: ignore[assignment]
    op: BinaryOp = BinaryOp.ADD
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Unpack(Stmt):
    """``a, b = expr`` — destructure a tuple into assignment targets."""

    targets: list[Expr] = field(default_factory=list)
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Declare(Stmt):
    """``name type = value`` — an explicitly typed local declaration.

    Inference covers most locals (the paper's design); the explicit form
    exists for the cases inference cannot reach, chiefly empty array and
    dict literals: ``scores {string: int} = {}``.
    """

    name: str = ""
    declared_type: TypeExpr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class ElifClause(Node):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    elifs: list[ElifClause] = field(default_factory=list)
    orelse: Block | None = None


@dataclass(eq=False)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class For(Stmt):
    """Sequential ``for var in sequence:``."""

    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class ParallelFor(Stmt):
    """``parallel for var in sequence:`` — iterations may run concurrently;
    the induction variable is private to each worker (paper §IV)."""

    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class ParallelBlock(Stmt):
    """``parallel:`` — each child statement runs in its own thread; the
    block joins them all before continuing (paper §II)."""

    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class BackgroundBlock(Stmt):
    """``background:`` — like ``parallel`` but without the join."""

    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class LockStmt(Stmt):
    """``lock name:`` — mutual exclusion keyed by a name in a separate
    namespace from variables (paper §II)."""

    name: str = ""
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class TryStmt(Stmt):
    """``try:`` / ``catch name:`` — runtime error handling (future work in
    the paper, implemented here).  The error message is bound to ``name``
    (a ``string``) inside the catch block."""

    body: Block = None  # type: ignore[assignment]
    error_name: str = ""
    handler: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class Return(Stmt):
    value: Expr | None = None


@dataclass(eq=False)
class Break(Stmt):
    pass


@dataclass(eq=False)
class Continue(Stmt):
    pass


@dataclass(eq=False)
class Pass(Stmt):
    pass


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Param(Node):
    name: str = ""
    type: TypeExpr = None  # type: ignore[assignment]


@dataclass(eq=False)
class FunctionDef(Node):
    """``def name(p1 T1, p2 T2) R:`` — parameter and return types are
    declared; a missing return type means the function returns nothing."""

    name: str = ""
    params: list[Param] = field(default_factory=list)
    return_type: TypeExpr | None = None
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class FieldDecl(Node):
    """One typed field inside a ``class`` block: ``name type``."""

    name: str = ""
    type: TypeExpr = None  # type: ignore[assignment]


@dataclass(eq=False)
class ClassDef(Node):
    """``class Name:`` with typed fields and methods (future-work feature).

    Instances are created with ``Name(field1, field2, ...)`` — an implicit
    constructor taking the fields in declaration order.  Methods see the
    instance as an implicit ``self``.  There is no inheritance.
    """

    name: str = ""
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[FunctionDef] = field(default_factory=list)


@dataclass(eq=False)
class Program(Node):
    """A Tetra compilation unit: class and function definitions.

    Execution starts at ``main()``.
    """

    functions: list[FunctionDef] = field(default_factory=list)
    classes: list[ClassDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def class_def(self, name: str) -> ClassDef | None:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None


# ----------------------------------------------------------------------
# Structural comparison and traversal
# ----------------------------------------------------------------------
def node_equal(a: object, b: object) -> bool:
    """Structural equality ignoring spans and inferred types.

    Used by the property test ``parse(unparse(p))`` ≡ ``p``.
    """
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return False
        return all(node_equal(getattr(a, name), getattr(b, name))
                   for name in _fields_without_span(type(a)))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(node_equal(x, y) for x, y in zip(a, b))
    return a == b


def walk(node: Node):
    """Yield ``node`` and all its descendants, depth-first, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def walk_statements(node: Node):
    """Yield the statements nested in ``node``, depth-first, pre-order,
    without descending into expressions (which hold no statements)."""
    for child in node.children():
        if isinstance(child, Stmt):
            yield child
            yield from walk_statements(child)
        elif isinstance(child, (Block, ElifClause)):
            yield from walk_statements(child)


def count_nodes(node: Node) -> int:
    """Number of nodes in the subtree (used by cost-model calibration)."""
    return sum(1 for _ in walk(node))
