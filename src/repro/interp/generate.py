"""Generated code: a block, statement or expression as one Python function.

On a lean compile (no cost accounting, no per-statement prologue, no race
detection) :meth:`repro.interp.compile._Compiler.block` hands each block to
:func:`generate_block`, which writes it as the source of one Python
function instead of a tree of closures.  A loop's iteration then costs the
bytecode of its statements, not one closure call per AST node.  Without
cost accounting or race detection the closure compiler also hands each
assignment, ``op=``, binop and local element load to
:func:`generate_stmt` / :func:`generate_expr`, and builds its int ``/``
and ``%`` applier with :func:`checked_applier`, so this module alone
spells the operator and element rules below.

The generated vocabulary:

* local reads and writes through ``frame.vars``, and literals;
* assignments to locals, and ``op=`` on a local with any operator;
* the total operators (``+ - * == != < <= > >=``, unary ``-`` and
  ``not``, ``and``/``or``); int ``/`` and ``%`` as Python's ``//`` and
  ``%`` when the dividend is non-negative and the divisor positive, with
  :func:`int_div` / :func:`int_mod` and the operator's span otherwise;
  the other operators through the closure compiler's two-argument applier;
* element load, store and ``op=`` on a local array, with the bounds test
  inline and :meth:`TetraArray.get` / :meth:`TetraArray.set` raising the
  out-of-range diagnostic;
* ``len(array)`` and calls through the bound function invokers;
* ``if``/``elif``/``else``, ``while`` and ``for``, with ``break``,
  ``continue`` and ``return`` as Python's own inside a generated loop and
  as completion values (:mod:`repro.interp.control`) at the block's top;
* the stop poll at every loop back-edge; under a step budget it counts
  the step and compares the count with ``Interpreter._budget`` instead,
  and without one the source is the same as if budgets did not exist.

Any other statement or expression — ``print`` and the other builtins,
``lock``, ``try``, stores that widen, reads of ``parallel for`` induction
variables — is compiled by the closure compiler as before, and the
generated code calls that closure and passes its completion on.  A
variable read before any assignment raises the closures' internal error.

No program text reaches the generated source.  Every name, literal, span,
invoker and closure is a parameter of the factory that builds the
function (``_make(_i, _a0, _a1, ...)``), so the source depends only on the
program's shape, and edits that rename variables or change constants
share one code object.  Code objects live in a bounded LRU keyed by the
source text; a block CPython refuses to compile (loops nested past its 20
static blocks, too deep an expression) is cached as refused and runs as
closures.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import TetraInternalError
from ..runtime import int_div, int_mod
from ..tetra_ast import (
    Assign,
    AugAssign,
    BinaryOp,
    BinOp,
    BoolLiteral,
    Break,
    Call,
    Continue,
    ExprStmt,
    For,
    If,
    Index,
    IntLiteral,
    Name,
    Pass,
    RealLiteral,
    Return,
    StringLiteral,
    Unary,
    UnaryOp,
    While,
    walk_statements,
)
from ..types import ArrayType, IntType, RealType, TupleType
from .control import BREAK, CONTINUE, RETURN

#: The most code objects the cache keeps; the least recently used go first.
CACHE_SIZE = 512

_cache: OrderedDict[str, object] = OrderedDict()
_cache_lock = threading.Lock()

#: A cache entry for source CPython would not compile.
_REFUSED = object()


def unbound_error(ctx, exc: KeyError) -> TetraInternalError:
    """Map a frame-dict KeyError from an inlined variable read onto the
    same diagnostic :meth:`Environment.get` raises."""
    return TetraInternalError(
        f"variable '{exc.args[0]}' read before any assignment in "
        f"{ctx.env.frame.function_name}"
    )


#: The generated functions' globals: helpers only, and no builtins.
_GLOBALS = {
    "__builtins__": {},
    "_BREAK": BREAK,
    "_CONTINUE": CONTINUE,
    "_RETURN": RETURN,
    "_KeyError": KeyError,
    "_len": len,
    "_next": next,
    "_int_div": int_div,
    "_int_mod": int_mod,
    "_unbound": unbound_error,
}

#: Operators whose Python spelling is total on checked operands.
_SYMBOLS = {
    BinaryOp.ADD: "+", BinaryOp.SUB: "-", BinaryOp.MUL: "*",
    BinaryOp.EQ: "==", BinaryOp.NE: "!=", BinaryOp.LT: "<",
    BinaryOp.LE: "<=", BinaryOp.GT: ">", BinaryOp.GE: ">=",
    BinaryOp.AND: "and", BinaryOp.OR: "or",
}

#: The aug-assign operators that are total: ``x op= v`` is ``x = x op v``.
_AUG_SYMBOLS = {BinaryOp.ADD: "+", BinaryOp.SUB: "-", BinaryOp.MUL: "*"}

#: int ``/`` and ``%``: Python's operator on the fast path, and the
#: truncating helper that owns the zero-divisor diagnostic.
_CHECKED = {BinaryOp.DIV: ("//", "_int_div"), BinaryOp.MOD: ("%", "_int_mod")}


def generate_block(comp, body):
    """``body`` as one generated function taking a thread context and
    returning the block's completion, or None where CPython refuses the
    source (the caller then compiles the block to closures)."""
    writer = _Writer(comp)
    writer.block(body)
    return writer.function()


def generate_stmt(comp, s):
    """An assignment or ``op=`` as one generated function, or None when it
    is outside the vocabulary or CPython refuses it."""
    writer = _Writer(comp)
    write = _STMT_WRITERS.get(type(s))
    if write is None or not write(writer, s):
        return None
    return writer.function()


def generate_expr(comp, e):
    """A binop or a local element load as one generated function returning
    its value, or None when it is outside the vocabulary or CPython refuses
    it."""
    writer = _Writer(comp)
    write = _EXPR_WRITERS.get(type(e))
    code = write(writer, e) if write is not None else None
    if code is None:
        return None
    writer.emit(f"return {code}")
    return writer.function()


def checked_applier(op, span):
    """int ``a / b`` or ``a % b`` as a two-argument function, written by
    the same rule the generated code inlines."""
    writer = _Writer(None)
    code = writer.checked(op, "_x", "_y", span)
    make = _factory("def _make(_a0):\n"
                    f"    return lambda _x, _y: {code}\n")
    return make(*writer.values)


def _factory(text: str):
    """The ``_make`` function for ``text``, compiled at most once while it
    stays in the cache; None if CPython refuses it."""
    with _cache_lock:
        make = _cache.get(text)
        if make is not None:
            _cache.move_to_end(text)
            return None if make is _REFUSED else make
    try:
        code = compile(text, "<tetra lean block>", "exec",
                       dont_inherit=True)
    except (SyntaxError, RecursionError, MemoryError):
        # Too many statically nested blocks, indentation levels or
        # parentheses for CPython, or an expression too deep to compile.
        make = _REFUSED
    else:
        namespace: dict = {}
        exec(code, _GLOBALS, namespace)
        make = namespace["_make"]
    with _cache_lock:
        _cache[text] = make
        _cache.move_to_end(text)
        while len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
    return None if make is _REFUSED else make


def _is_checked(op, left, right) -> bool:
    """True for int ``/`` or ``%``: ``left`` and ``right`` are the operand
    (or target and value) nodes."""
    return (op in _CHECKED and isinstance(left.ty, IntType)
            and isinstance(right.ty, IntType))


def _widens(ty) -> bool:
    """True when a store into a slot of type ``ty`` must coerce."""
    return isinstance(ty, (RealType, TupleType))


def _may_complete(stmt) -> bool:
    """True when ``stmt`` contains a return, break or continue, so running
    it can yield a completion other than falling through."""
    return any(isinstance(n, (Return, Break, Continue))
               for n in walk_statements(stmt))


class _Writer:
    """Writes one block's function body: ``lines`` of source and the
    ``values`` bound to its ``_a<n>`` parameters."""

    def __init__(self, comp):
        self.comp = comp
        self.lines: list[str] = []
        self.values: list = []
        self._slots: dict = {}
        self._temps = 0
        self._indent = "            "
        #: Generated loops around the statement being written.
        self._loops = 0

    # -- slots, temporaries, lines ------------------------------------
    def _slot(self, key, value) -> str:
        name = self._slots.get(key)
        if name is None:
            name = self._slots[key] = f"_a{len(self.values)}"
            self.values.append(value)
        return name

    def bound(self, value) -> str:
        """A parameter bound to an object (span, closure, invoker)."""
        return self._slot(("id", id(value)), value)

    def name(self, name: str) -> str:
        """A parameter bound to a variable's name (a frame-dict key)."""
        return self._slot(("name", name), name)

    def const(self, value) -> str:
        """A parameter bound to a literal's value."""
        return self._slot(("const", type(value), repr(value)), value)

    def function(self):
        """The written lines as a function of a thread context, bound to
        the slot values; None if CPython refuses the source."""
        text = "".join((
            "def _make(_i",
            *(f", _a{n}" for n in range(len(self.values))),
            "):\n"
            "    def _run(_c):\n"
            "        _fv = _c.env.frame.vars\n"
            "        try:\n",
            *self.lines,
            "        except _KeyError as _e:\n"
            "            raise _unbound(_c, _e) from None\n"
            "    return _run\n",
        ))
        make = _factory(text)
        if make is None:
            return None
        return make(self.comp.interp, *self.values)

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def emit(self, line: str) -> None:
        self.lines.append(f"{self._indent}{line}\n")

    def nested(self, body) -> None:
        self._indent += "    "
        self.block(body)
        self._indent = self._indent[:-4]

    def local_array(self, e) -> bool:
        """True for an index into a local, non-private array."""
        return (type(e) is Index and isinstance(e.base.ty, ArrayType)
                and self.comp._local_name(e.base) is not None)

    # -- statements -----------------------------------------------------
    def block(self, body) -> None:
        for s in body.statements:
            write = _STMT_WRITERS.get(type(s))
            if write is None or not write(self, s):
                self.fallback(s)

    def fallback(self, s) -> None:
        """Run ``s``'s closure and pass its completion on."""
        run = self.bound(self.comp.stmt(s))
        if not _may_complete(s):
            self.emit(f"{run}(_c)")
            return
        done = self.temp()
        self.emit(f"{done} = {run}(_c)")
        self.emit(f"if {done} is not None:")
        if self._loops:
            self.emit(f"    if {done} is _BREAK: break")
            self.emit(f"    if {done} is _CONTINUE: continue")
        self.emit(f"    return {done}")

    def poll(self, span) -> None:
        steps = self.comp.steps
        test = ("_i._stopped" if steps is None
                else f"_next({self.bound(steps)}) > _i._budget")
        self.emit(f"    if {test}: raise _i._stop_error({self.bound(span)})")

    def expr_stmt(self, s: ExprStmt) -> bool:
        self.emit(self.expr(s.expr))
        return True

    def assign(self, s: Assign) -> bool:
        target = s.target
        if self.comp._plain_local(target) is not None:
            self.emit(f"_fv[{self.name(target.id)}] = {self.expr(s.value)}")
            return True
        if not self.local_array(target) or _widens(target.base.ty.element):
            return False
        # The value is evaluated first, then the array, then the index.
        value = self.expr(s.value)
        if not isinstance(s.value, _LITERALS):
            held = self.temp()
            self.emit(f"{held} = {value}")
            value = held
        items, base, index = self.temp(), self.temp(), self.temp()
        self.emit(f"{items} = ({base} := _fv[{self.name(target.base.id)}])"
                  ".items")
        self.emit(f"if _len({items}) > ({index} := "
                  f"{self.expr(target.index)}) >= 0:")
        self.emit(f"    {items}[{index}] = {value}")
        self.emit("else:")
        self.emit(f"    {base}.set({index}, {value}, "
                  f"{self.bound(target.span)})")
        return True

    def aug_assign(self, s: AugAssign) -> bool:
        target = s.target
        op = s.op
        if self.comp._plain_local(target) is not None:
            ref = f"_fv[{self.name(target.id)}]"
        elif (self.local_array(target)
              and not isinstance(target.base.ty.element, TupleType)):
            # A real element needs no coercion here: a real operand on
            # either side makes the result a real already.
            items, base, index = self.temp(), self.temp(), self.temp()
            self.emit(f"{items} = ({base} := "
                      f"_fv[{self.name(target.base.id)}]).items")
            self.emit(f"if not _len({items}) > ({index} := "
                      f"{self.expr(target.index)}) >= 0:")
            self.emit(f"    {base}.get({index}, {self.bound(target.span)})")
            ref = f"{items}[{index}]"
        else:
            return False
        symbol = _AUG_SYMBOLS.get(op)
        if symbol is not None:
            self.emit(f"{ref} {symbol}= {self.expr(s.value)}")
        elif _is_checked(op, target, s.value):
            self.emit(f"{ref} = {self.checked_node(op, ref, s.value, s.span)}")
        else:
            apply = self.comp._binop_apply(op, target.ty, s.value.ty,
                                           s.span, s)
            self.emit(f"{ref} = {self.bound(apply)}({ref}, "
                      f"{self.expr(s.value)})")
        return True

    def return_(self, s: Return) -> bool:
        # No Tetra value is None, so a returned value is its completion.
        self.emit("return _RETURN" if s.value is None
                  else f"return {self.expr(s.value)}")
        return True

    def break_(self, s: Break) -> bool:
        self.emit("break" if self._loops else "return _BREAK")
        return True

    def continue_(self, s: Continue) -> bool:
        self.emit("continue" if self._loops else "return _CONTINUE")
        return True

    def pass_(self, s: Pass) -> bool:
        self.emit("pass")
        return True

    def if_(self, s: If) -> bool:
        self.emit(f"if {self.expr(s.cond)}:")
        self.nested(s.then)
        for clause in s.elifs:
            self.emit(f"elif {self.expr(clause.cond)}:")
            self.nested(clause.body)
        if s.orelse is not None:
            self.emit("else:")
            self.nested(s.orelse)
        return True

    def loop_body(self, body) -> None:
        self._loops += 1
        self.nested(body)
        self._loops -= 1

    def while_(self, s: While) -> bool:
        self.emit(f"while {self.expr(s.cond)}:")
        self.poll(s.span)
        self.loop_body(s.body)
        return True

    def for_(self, s: For) -> bool:
        if s.var in self.comp._induction:
            return False
        item = self.temp()
        self.emit(f"for {item} in _i._iterate({self.expr(s.iterable)}, "
                  f"{self.bound(s.span)}):")
        self.poll(s.span)
        self.emit(f"    _fv[{self.name(s.var)}] = {item}")
        self.loop_body(s.body)
        return True

    # -- expressions ----------------------------------------------------
    def expr(self, e) -> str:
        """Source for ``e``'s value; a closure call outside the
        vocabulary."""
        write = _EXPR_WRITERS.get(type(e))
        code = write(self, e) if write is not None else None
        if code is None:
            code = f"{self.bound(self.comp.expr(e))}(_c)"
        return code

    def literal(self, e) -> str:
        return self.const(e.value)

    def name_load(self, e: Name) -> str | None:
        if self.comp._local_name(e) is None:
            return None
        return f"_fv[{self.name(e.id)}]"

    def unary(self, e: Unary) -> str:
        op = e.op
        if isinstance(e.operand, _LITERALS):
            raw = e.operand.value  # -1 and not true are constants
            return self.const(-raw if op is UnaryOp.NEG
                              else raw if op is UnaryOp.POS else not raw)
        operand = self.expr(e.operand)
        if op is UnaryOp.NEG:
            return f"(-{operand})"
        if op is UnaryOp.POS:
            return operand
        return f"(not {operand})"

    def binop(self, e: BinOp) -> str:
        op = e.op
        symbol = _SYMBOLS.get(op)
        if symbol is not None:
            return f"({self.expr(e.left)} {symbol} {self.expr(e.right)})"
        if _is_checked(op, e.left, e.right):
            return self.checked_node(op, self.expr(e.left), e.right, e.span)
        apply = self.comp._binop_apply(op, e.left.ty, e.right.ty, e.span, e)
        return (f"{self.bound(apply)}({self.expr(e.left)}, "
                f"{self.expr(e.right)})")

    def checked_node(self, op, left: str, right, span) -> str:
        """:meth:`checked` with the node ``right`` as the divisor; a
        positive literal divisor needs no test."""
        if type(right) is IntLiteral and right.value > 0:
            return self.checked(op, left, self.const(right.value), span,
                                positive=True)
        return self.checked(op, left, self.expr(right), span)

    def checked(self, op, left: str, right: str, span,
                positive: bool = False) -> str:
        """int ``left op right`` (``op`` is ``/`` or ``%``): Python's
        operator when ``left >= 0`` and ``right > 0``, else the truncating
        helper with ``span``, which owns the zero-divisor diagnostic.
        ``left`` is evaluated before ``right``; ``positive`` says ``right``
        is a positive constant.  The one spelling of this rule: the
        closure compiler's appliers are built from it too
        (:func:`checked_applier`)."""
        fast, slow = _CHECKED[op]
        where = self.bound(span)
        a = self.temp()
        if positive:
            return (f"({a} {fast} {right} if ({a} := {left}) >= 0 "
                    f"else {slow}({a}, {right}, {where}))")
        b = self.temp()
        return (f"({a} {fast} {b} if (({a} := {left}) >= 0) & "
                f"(({b} := {right}) > 0) "
                f"else {slow}({a}, {b}, {where}))")

    def index(self, e: Index) -> str | None:
        if not self.local_array(e):
            return None
        items, base, index = self.temp(), self.temp(), self.temp()
        # The array is read before the index is evaluated.
        return (f"({items}[{index}] if _len({items} := ({base} := "
                f"_fv[{self.name(e.base.id)}]).items) > ({index} := "
                f"{self.expr(e.index)}) >= 0 else "
                f"{base}.get({index}, {self.bound(e.span)}))")

    def call(self, e: Call) -> str | None:
        comp = self.comp
        invoke = comp._invokers.get(e.func)
        if invoke is not None:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.bound(invoke)}([{args}], _c, {self.bound(e.span)})"
        if (e.func == "len" and e.func not in comp.symbols.classes
                and isinstance(e.args[0].ty, ArrayType)):
            return f"_len({self.expr(e.args[0])}.items)"
        return None


_LITERALS = (IntLiteral, RealLiteral, StringLiteral, BoolLiteral)

_STMT_WRITERS = {
    ExprStmt: _Writer.expr_stmt,
    Assign: _Writer.assign,
    AugAssign: _Writer.aug_assign,
    Return: _Writer.return_,
    Break: _Writer.break_,
    Continue: _Writer.continue_,
    Pass: _Writer.pass_,
    If: _Writer.if_,
    While: _Writer.while_,
    For: _Writer.for_,
}

_EXPR_WRITERS = {
    IntLiteral: _Writer.literal,
    RealLiteral: _Writer.literal,
    StringLiteral: _Writer.literal,
    BoolLiteral: _Writer.literal,
    Name: _Writer.name_load,
    Unary: _Writer.unary,
    BinOp: _Writer.binop,
    Index: _Writer.index,
    Call: _Writer.call,
}
