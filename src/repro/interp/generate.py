"""Generated code: the one statement and expression compiler.

:meth:`repro.interp.compile._Compiler.block` hands every block — and
every lone statement, a ``parallel:`` child or a REPL line — to
:func:`generate_block`, which writes it as the source of one Python
function; :func:`generate_value` does the same for a lone expression (a
``parallel for``'s iterable, a debugger console expression).  A loop's
iteration then costs the bytecode of its statements, not one closure
call per AST node.

The generated vocabulary is the whole language but for the parallel
constructs, which hand a generated body to the backend (see
:mod:`repro.interp.compile`):

* variable reads and writes: locals through ``frame.vars``, ``parallel
  for`` induction variables (and, under race detection, every name)
  through the thread's environment, and stores into real and tuple slots
  through :func:`coerce_to`; literals;
* assignments, ``Declare``, ``Unpack``, and ``op=`` with any operator; a
  field or element ``op=`` whose target holds a call evaluates the target
  once;
* the total operators (``+ - * == != < <= > >=``, unary ``-`` and
  ``not``, ``and``/``or``); int ``/`` and ``%`` as Python's ``//`` and
  ``%`` when the dividend is non-negative and the divisor positive, with
  :func:`int_div` / :func:`int_mod` and the operator's span otherwise;
  ``**`` and real ``/`` and ``%`` as calls to :func:`tetra_pow`,
  :func:`real_div` and :func:`real_mod`;
* array element load, store and ``op=``, with the bounds test inline and
  :meth:`TetraArray.get` / :meth:`TetraArray.set` raising the
  out-of-range diagnostic; dict, tuple and string elements; fields;
* array, tuple, dict and range literals;
* calls through the bound function and method invokers, constructors,
  and the builtins (``clock()`` reads the backend's clock);
* ``if``/``elif``/``else``, ``while`` and ``for``, with ``break``,
  ``continue`` and ``return`` as Python's own inside a generated loop and
  as completion values (:mod:`repro.interp.control`) at the block's top;
  ``try`` as Python's own ``try``/``except``; a ``for`` over a range
  literal that nothing can observe (no cost accounting, no memory limit)
  walks Python's ``range`` and builds no array;
* ``lock`` as the interpreter's enter and, in a ``finally``, its exit
  around the body, whose ``return``, ``break`` and ``continue`` are
  Python's own;
* the stop poll at every loop back-edge; under a step budget it counts
  the step and compares the count with ``Interpreter._budget`` instead,
  and without one the source is the same as if budgets did not exist;
* off the lean path, each statement's prologue — stop flag, guardrail
  check, ``current_span`` store, checkpoint, profile line hit and
  statement charge — as lines before the statement;
* under cost accounting (the simulator), each node's ``charge`` where
  the node does its work: after its operands, before its action;
* under race detection, each shared access's note after the access's
  charge and type check and before the access itself;
* under a memory limit, each allocation site's ``track_value``.

A variable read before any assignment raises the internal error
:meth:`Environment.get` raises.

No program text reaches the generated source.  Every name (of a
variable, field, method or class), literal, dict key, span, invoker and
closure is a parameter of the factory that builds the function
(``_make(_i, _a0, _a1, ...)``), so the source depends only on the
program's shape, and edits that rename variables or change constants
share one code object.  Code objects live in a bounded LRU keyed by the
source text.  The writer is total: a body nested deeper than
:data:`MAX_NESTING` and an expression deeper than :data:`MAX_EXPR_DEPTH`
become functions of their own, bound as parameters, so every source stays
inside CPython's limits on statically nested blocks, indentation and
parentheses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import TetraInternalError, TetraRuntimeError, is_catchable
from ..runtime import (
    Frame,
    coerce_to,
    int_div,
    int_mod,
    make_array,
    real_div,
    real_mod,
    tetra_pow,
)
from ..runtime.values import TetraArray, TetraDict, TetraObject, TetraTuple
from ..stdlib.registry import BUILTINS
from ..tetra_ast import (
    ArrayLiteral,
    Assign,
    Attribute,
    AugAssign,
    BinaryOp,
    BinOp,
    BoolLiteral,
    Break,
    Call,
    Continue,
    Declare,
    DictLiteral,
    ExprStmt,
    For,
    If,
    Index,
    IntLiteral,
    LockStmt,
    MethodCall,
    Name,
    Pass,
    RangeLiteral,
    RealLiteral,
    Return,
    StringLiteral,
    TryStmt,
    TupleLiteral,
    Unary,
    UnaryOp,
    Unpack,
    While,
    unparse,
    walk,
    walk_statements,
)
from ..types import (
    INT,
    ArrayType,
    ClassType,
    DictType,
    IntType,
    RealType,
    StringType,
    TupleType,
    from_type_expr,
)
from .control import BREAK, CONTINUE, RETURN

#: The most code objects the cache keeps; the least recently used go first.
CACHE_SIZE = 512

#: Nested bodies written inline; a deeper body is a function of its own.
#: Each level adds one indentation level and at most one of CPython's 20
#: statically nested blocks (the function's ``try`` is another; a
#: ``catch`` body counts two levels).
MAX_NESTING = 10

#: Expression nodes written inline; a deeper sub-expression is a function
#: of its own.  A node adds at most five levels of parentheses, which
#: keeps a source well inside CPython's 200 and its compiler's recursion.
MAX_EXPR_DEPTH = 20

_cache: OrderedDict[str, object] = OrderedDict()
_cache_lock = threading.Lock()

_NO_FIELDS = "only class instances have fields"
_NO_METHODS = "only class instances have methods"
_IMMUTABLE = ("only array and dict elements can be assigned through an "
              "index (strings are immutable)")


def unbound_error(ctx, exc: KeyError) -> TetraInternalError:
    """Map a frame-dict KeyError from an inlined variable read onto the
    same diagnostic :meth:`Environment.get` raises."""
    return TetraInternalError(
        f"variable '{exc.args[0]}' read before any assignment in "
        f"{ctx.env.frame.function_name}"
    )


def note_name(note, ctx, name, span) -> None:
    """Feed a name access to the race note when the name is shared."""
    env = ctx.env
    if env.is_shared(name):
        note(ctx, (id(env.frame), name), name, span, env.frame)


def note_element(note, ctx, base, index, prefix, span) -> None:
    """Feed an array or dict element access to the race note."""
    note(ctx, (id(base), index), f"{prefix}[{index!r}]", span, base)


def note_field(note, ctx, base, name, span) -> None:
    """Feed a field access to the race note."""
    note(ctx, (id(base), name), f"{base.class_name}.{name}", span, base)


def fail(interp, message, span):
    """Raise the runtime error ``message`` at ``span``."""
    raise interp._err(TetraRuntimeError, message, span)


def string_char(interp, text, index, span):
    """``text[index]``, or the out-of-range diagnostic."""
    if not 0 <= index < len(text):
        raise interp._err(
            TetraRuntimeError,
            f"index {index} is out of range for a string of length "
            f"{len(text)}",
            span,
        )
    return text[index]


def call_builtin(interp, invoke, args, span):
    """A builtin's result; its runtime errors carry the program's
    source."""
    try:
        return invoke(args, interp.io, span)
    except TetraRuntimeError as exc:
        if exc.source is None and interp.source is not None:
            exc.attach_source(interp.source)
        raise


def tracked(heap, value, span):
    """``value``, once the memory meter has charged for it."""
    heap.track_value(value, span)
    return value


#: The generated functions' globals: helpers only, and no builtins.
_GLOBALS = {
    "__builtins__": {},
    "_BREAK": BREAK,
    "_CONTINUE": CONTINUE,
    "_RETURN": RETURN,
    "_KeyError": KeyError,
    "_RuntimeError": TetraRuntimeError,
    "_len": len,
    "_next": next,
    "_float": float,
    "_range": range,
    "_isinstance": isinstance,
    "_Array": TetraArray,
    "_Dict": TetraDict,
    "_Object": TetraObject,
    "_Tuple": TetraTuple,
    "_make_array": make_array,
    "_int_div": int_div,
    "_int_mod": int_mod,
    "_real_div": real_div,
    "_real_mod": real_mod,
    "_pow": tetra_pow,
    "_unbound": unbound_error,
    "_coerce": coerce_to,
    "_catchable": is_catchable,
    "_fail": fail,
    "_char": string_char,
    "_builtin": call_builtin,
    "_tracked": tracked,
    "_note_name": note_name,
    "_note_elem": note_element,
    "_note_field": note_field,
    # Where a statement's span goes when its thread has no call stack.
    "_NOFRAME": Frame("<toplevel>"),
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

#: ``**`` and real ``/`` and ``%``: the runtime's checked functions.
_CALLED = {BinaryOp.POW: "_pow", BinaryOp.DIV: "_real_div",
           BinaryOp.MOD: "_real_mod"}


def generate_block(comp, statements):
    """``statements`` as one generated function taking a thread context
    and returning the block's completion."""
    writer = _Writer(comp)
    for s in statements:
        writer.statement(s)
    return writer.function()


def generate_value(comp, e):
    """``e`` as one generated function taking a thread context and
    returning the value."""
    writer = _Writer(comp)
    writer.emit(f"return {writer.expr(e)}")
    return writer.function()


def _factory(text: str):
    """The ``_make`` function for ``text``, compiled at most once while it
    stays in the cache."""
    with _cache_lock:
        make = _cache.get(text)
        if make is not None:
            _cache.move_to_end(text)
            return make
    namespace: dict = {}
    exec(compile(text, "<tetra block>", "exec", dont_inherit=True),
         _GLOBALS, namespace)
    make = namespace["_make"]
    with _cache_lock:
        _cache[text] = make
        _cache.move_to_end(text)
        while len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
    return make


def _is_checked(op, left, right, node) -> bool:
    """True for int ``/`` or ``%``: ``left`` and ``right`` are the operand
    (or target and value) nodes of ``node``, which picks int or real from
    their types."""
    if op not in _CHECKED:
        return False
    if left.ty is None or right.ty is None:
        raise missing(node, f"an operand of '{op.value}'")
    return isinstance(left.ty, IntType) and isinstance(right.ty, IntType)


def missing(node, what: str) -> TetraInternalError:
    """The checker failed to annotate a node the compiler depends on."""
    return TetraInternalError(
        f"the checker left {what} untyped at {node.span} — "
        "was this program type-checked?",
        node.span,
    )


def widening(ty):
    """The type a value stored into a slot of type ``ty`` must be coerced
    to — a real or tuple slot — or None where it binds unchanged."""
    return ty if isinstance(ty, (RealType, TupleType)) else None


def _coercion(ty, value):
    """:func:`widening` for the value node ``value`` (None when unknown)
    stored into a slot of type ``ty``: a real value is already a real."""
    if (isinstance(ty, RealType) and value is not None
            and isinstance(value.ty, RealType)):
        return None
    return widening(ty)


def _element_type(target):
    """The type an element or field store coerces to: an array's element
    or a dict's value type; None for a field (which coerces itself) or a
    string element (whose store fails)."""
    ty = target.base.ty
    if isinstance(ty, ArrayType):
        return ty.element
    return ty.value if isinstance(ty, DictType) else None


def _may_complete(stmt) -> bool:
    """True when ``stmt`` contains a return, break or continue, so running
    it can yield a completion other than falling through."""
    return any(isinstance(n, (Return, Break, Continue))
               for n in walk_statements(stmt))


def _has_call(node) -> bool:
    return any(isinstance(n, (Call, MethodCall)) for n in walk(node))


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
        #: Bodies and expression nodes written inline around this point.
        self._nesting = 0
        self._depth = 0
        #: True once a prologue stores spans through ``_fr``.
        self._framed = False
        self.acc = comp.acc
        self.race = comp.race
        #: Locals live in the frame dict and elements are tested inline:
        #: nothing to charge and no access to note.
        self.fast = not self.acc and self.race is None

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
        """A parameter bound to a literal's value (or a field name)."""
        return self._slot(("const", type(value), repr(value)), value)

    def function(self, params: str = "_c"):
        """The written lines as a function of a thread context (and of
        ``params``' other names), bound to the slot values."""
        text = "".join((
            "def _make(_i",
            *(f", _a{n}" for n in range(len(self.values))),
            "):\n"
            f"    def _run({params}):\n"
            "        _fv = _c.env.frame.vars\n",
            ("        _fr = _s[-1] if (_s := _c.call_stack) else _NOFRAME\n"
             if self._framed else ""),
            "        try:\n",
            *self.lines,
            "        except _KeyError as _e:\n"
            "            raise _unbound(_c, _e) from None\n"
            "    return _run\n",
        ))
        return _factory(text)(self.comp.interp, *self.values)

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def emit(self, line: str) -> None:
        self.lines.append(f"{self._indent}{line}\n")

    def charge(self, units: int) -> None:
        self.emit(self.charge_call(units))

    def charge_call(self, units: int) -> str:
        """The backend's charge of ``units``, as an expression (None)."""
        return (f"{self.bound(self.comp.charge)}(_c, "
                f"{self.const(units)})")

    def after(self, units: int, operands, action) -> str:
        """``action`` over ``operands`` (sources, evaluated left to
        right); under cost accounting the node's charge comes between the
        operands and the action."""
        if not self.acc:
            return action(*operands)
        temps = [self.temp() for _ in operands]
        held = "".join(f"({t} := {o}), " for t, o in zip(temps, operands))
        return f"({held}{self.charge_call(units)}, {action(*temps)})[-1]"

    def sized(self, items: str, build) -> str:
        """``build`` over the collection ``items`` (a source); under cost
        accounting one array element's charge per item, and at least one,
        comes between."""
        if not self.acc:
            return build(items)
        held = self.temp()
        per = self.const(self.comp.cost.array_element)
        return (f"(({held} := {items}), {self.bound(self.comp.charge)}(_c, "
                f"{per} * (_len({held}) or 1)), {build(held)})[-1]")

    def alloc(self, code: str, span) -> str:
        """``code``, a value that may hold cells, metered under a memory
        limit."""
        heap = self.comp._heap
        if heap is None:
            return code
        return f"_tracked({self.bound(heap)}, {code}, {self.bound(span)})"

    def coerced(self, value: str, ty, node=None) -> str:
        """``value`` (a source; ``node`` its value node, when known) as
        stored into a slot of type ``ty``."""
        widen = _coercion(ty, node)
        if widen is None:
            return value
        return f"_coerce({value}, {self.bound(widen)})"

    def note(self, is_write: bool) -> str:
        return self.bound(self.comp.race_notes[is_write])

    def private(self, name: str) -> bool:
        """True for a name read and written through the environment: a
        ``parallel for`` induction variable, or any name whose accesses
        are noted."""
        return self.race is not None or name in self.comp._induction

    # -- statements -----------------------------------------------------
    def statement(self, s) -> None:
        if not self.comp.lean:
            self.prologue(s)
        write = _STMT_WRITERS.get(type(s))
        if write is None:
            self.pass_on(self.comp.backend_stmt(s), s)
        else:
            write(self, s)

    def prologue(self, s) -> None:
        """The full per-statement prologue: stop flag, guardrail, current
        span, checkpoint, profile hit and statement charge."""
        comp = self.comp
        span = self.bound(s.span)
        self.emit(f"if _i._stopped: raise _i._stop_error({span})")
        if comp._guard_check is not None:
            self.emit(f"{self.bound(comp._guard_check)}(_c, {span})")
        self._framed = True
        self.emit(f"_fr.current_span = {span}")
        if comp._checkpoint is not None:
            self.emit(f"{self.bound(comp._checkpoint)}(_c, {self.bound(s)})")
        if comp._line_hit is not None:
            self.emit(f"{self.bound(comp._line_hit)}(_c.id, "
                      f"{self.const(s.span.line)})")
        if self.acc:
            self.charge(comp.cost.statement)

    def pass_on(self, run, node) -> None:
        """Run the block function ``run`` for ``node`` and pass its
        completion on."""
        run = self.bound(run)
        if not _may_complete(node):
            self.emit(f"{run}(_c)")
            return
        done = self.temp()
        self.emit(f"{done} = {run}(_c)")
        self.emit(f"if {done} is not None:")
        if self._loops:
            self.emit(f"    if {done} is _BREAK: break")
            self.emit(f"    if {done} is _CONTINUE: continue")
        self.emit(f"    return {done}")

    def nested(self, body, weight: int = 1) -> None:
        """Write ``body`` one indentation level in; ``weight`` is the
        number of CPython's nested blocks around it."""
        self._indent += "    "
        if self._nesting + weight <= MAX_NESTING:
            self._nesting += weight
            for s in body.statements:
                self.statement(s)
            self._nesting -= weight
        else:
            self.pass_on(generate_block(self.comp, body.statements), body)
        self._indent = self._indent[:-4]

    def poll(self, span) -> None:
        steps = self.comp.steps
        test = ("_i._stopped" if steps is None
                else f"_next({self.bound(steps)}) > _i._budget")
        self.emit(f"    if {test}: raise _i._stop_error({self.bound(span)})")

    def expr_stmt(self, s: ExprStmt) -> None:
        self.emit(self.expr(s.expr))

    def assign(self, s: Assign) -> None:
        if type(s.target) is Name:
            self.name(s.target.id)  # the target's slot comes first
        self.store(s.target, self.expr(s.value), s.value)

    def declare(self, s: Declare) -> None:
        """A declaration binds like a first assignment, with no charge and
        no race note."""
        value = self.coerced(self.expr(s.value),
                             from_type_expr(s.declared_type), s.value)
        if s.name in self.comp._induction:
            self.emit(f"_c.env.set({self.name(s.name)}, {value})")
        else:
            self.emit(f"_fv[{self.name(s.name)}] = {value}")

    def unpack(self, s: Unpack) -> None:
        items = self.temp()
        self.emit(f"{items} = {self.expr(s.value)}.items")
        for n, target in enumerate(s.targets):
            self.store(target, f"{items}[{n}]")

    def store(self, target, value: str, node=None) -> None:
        """Store ``value`` (a source; ``node`` its value node, when known)
        into an assignment target."""
        if type(target) is Name:
            self.store_name(target, value, node)
        else:
            self.store_element(target, value, node)

    def store_name(self, target: Name, value: str, node=None) -> None:
        """Store ``value`` into the variable ``target``: the charge and
        the race note come after the value."""
        ref = self.name(target.id)
        if target.ty is None:
            raise missing(target, f"assignment target '{target.id}'")
        if not self.fast:
            held = self.temp()
            self.emit(f"{held} = {value}")
            value = held
            if self.acc:
                self.charge(self.comp.cost.name_store)
            if self.race is not None:
                self.emit(f"_note_name({self.note(True)}, _c, {ref}, "
                          f"{self.bound(target.span)})")
        value = self.coerced(value, target.ty, node)
        if self.private(target.id):
            self.emit(f"_c.env.set({ref}, {value})")
        else:
            self.emit(f"_fv[{ref}] = {value}")

    def store_element(self, target, value: str, node=None) -> None:
        """Store ``value`` into an element or a field.  The value is
        evaluated first, then the base, then the index."""
        if not isinstance(node, _LITERALS) or not self.fast:
            held = self.temp()
            self.emit(f"{held} = {value}")
            value = held
        if not (self.fast and isinstance(target.base.ty, ArrayType)):
            base, key = self.hold_target(target)
            self.put(target, base, key, value, node)
            return
        value = self.coerced(value, target.base.ty.element, node)
        items, base, index = self.temp(), self.temp(), self.temp()
        self.emit(f"{items} = ({base} := {self.expr(target.base)})"
                  ".items")
        self.emit(f"if _len({items}) > ({index} := "
                  f"{self.expr(target.index)}) >= 0:")
        self.emit(f"    {items}[{index}] = {value}")
        self.emit("else:")
        self.emit(f"    {base}.set({index}, {value}, "
                  f"{self.bound(target.span)})")

    def hold_target(self, target) -> tuple[str, str]:
        """Evaluate an element's base and index (a field's base) into
        temporaries: the base and the key, as sources."""
        if type(target) is Attribute:
            base = self.temp()
            self.emit(f"{base} = {self.expr(target.base)}")
            return base, self.const(target.attr)
        base, index = self.temp(), self.temp()
        self.emit(f"{base} = {self.expr(target.base)}")
        self.emit(f"{index} = {self.expr(target.index)}")
        return base, index

    def put(self, target, base: str, key: str, value: str,
            node=None) -> None:
        """Store ``value`` at ``key`` of the evaluated ``base``, after the
        store's charge, type check and race note."""
        for part in self.access(target, base, key, True):
            self.emit(part)
        value = self.coerced(value, _element_type(target), node)
        span = self.bound(target.span)
        if type(target) is Attribute or isinstance(target.base.ty,
                                                   ArrayType):
            self.emit(f"{base}.set({key}, {value}, {span})")
        elif isinstance(target.base.ty, DictType):
            self.emit(f"{base}.set({key}, {value})")

    def access(self, e, base: str, key: str, is_write: bool) -> list[str]:
        """The charge, type check and race note of a field or element
        access to the evaluated ``base`` and ``key``, in that order, as
        expressions.  Tuple and string elements are immutable, so they
        take no note."""
        base_ty = e.base.ty
        parts = []
        if self.acc:
            cost = self.comp.cost
            parts.append(self.charge_call(cost.index_store if is_write
                                          else cost.index_load))
        if type(e) is Attribute:
            parts.append(f"_isinstance({base}, _Object) or _fail(_i, "
                         f"{self.const(_NO_FIELDS)}, {self.bound(e.span)})")
            if self.race is not None:
                parts.append(f"_note_field({self.note(is_write)}, _c, "
                             f"{base}, {key}, {self.bound(e.span)})")
        elif is_write and not isinstance(base_ty, (ArrayType, DictType)):
            parts.append(f"_fail(_i, {self.const(_IMMUTABLE)}, "
                         f"{self.bound(e.span)})")
        elif (self.race is not None
              and isinstance(base_ty, (ArrayType, DictType))):
            parts.append(self.element_note(e, is_write, base, key))
        return parts

    def element_note(self, e: Index, is_write: bool, base: str,
                     index: str) -> str:
        return (f"_note_elem({self.note(is_write)}, _c, {base}, {index}, "
                f"{self.bound(unparse(e.base))}, {self.bound(e.span)})")

    def aug_assign(self, s: AugAssign) -> None:
        target = s.target
        op = s.op
        if (self.fast and type(target) is Name
                and target.id not in self.comp._induction):
            ref = f"_fv[{self.name(target.id)}]"
        elif (self.fast and type(target) is Index
              and isinstance(target.base.ty, ArrayType)
              and not isinstance(target.base.ty.element, TupleType)):
            # A real element needs no coercion here: a real operand on
            # either side makes the result a real already.  The array and
            # the index are evaluated once.
            items, base, index = self.temp(), self.temp(), self.temp()
            self.emit(f"{items} = ({base} := "
                      f"{self.expr(target.base)}).items")
            self.emit(f"if not _len({items}) > ({index} := "
                      f"{self.expr(target.index)}) >= 0:")
            self.emit(f"    {base}.get({index}, {self.bound(target.span)})")
            ref = f"{items}[{index}]"
        elif type(target) is Name or not _has_call(target):
            return self.aug_assign_twice(s)
        else:
            return self.aug_assign_once(s)
        symbol = _AUG_SYMBOLS.get(op)
        if symbol is not None:
            self.emit(f"{ref} {symbol}= {self.expr(s.value)}")
            return
        if _is_checked(op, target, s.value, s):
            value = self.checked_node(op, ref, s.value, s.span)
        else:
            value = self.called(op, ref, self.expr(s.value), s.span)
        if type(target) is Name:
            value = self.coerced(value, target.ty)
        self.emit(f"{ref} = {value}")

    def aug_value(self, s: AugAssign, current: str, operand: str) -> str:
        """``current op operand`` for ``s``'s operator, both sources
        evaluated already."""
        op = s.op
        symbol = _AUG_SYMBOLS.get(op)
        if symbol is not None:
            return f"{current} {symbol} {operand}"
        if _is_checked(op, s.target, s.value, s):
            return self.checked(op, current, operand, s.span)
        return self.called(op, current, operand, s.span)

    def aug_assign_twice(self, s: AugAssign) -> None:
        """``t op= v`` as a load of ``t``, ``v``, the operator and a store
        into ``t``, each access with its charge and note: a call-free
        target is evaluated twice."""
        current, operand = self.temp(), self.temp()
        self.emit(f"{current} = {self.expr(s.target)}")
        self.emit(f"{operand} = {self.expr(s.value)}")
        self.store(s.target, self.aug_value(s, current, operand))

    def aug_assign_once(self, s: AugAssign) -> None:
        """``t[k] op= v`` or ``o.f op= v`` whose target contains a call:
        the base and the index are evaluated once, and the load and the
        store share them, each with its charge and race note."""
        target = s.target
        base, key = self.hold_target(target)
        current, operand = self.temp(), self.temp()
        for part in self.access(target, base, key, False):
            self.emit(part)
        self.emit(f"{current} = {self.load(target, base, key)}")
        self.emit(f"{operand} = {self.expr(s.value)}")
        self.put(target, base, key, self.aug_value(s, current, operand))

    def return_(self, s: Return) -> None:
        # No Tetra value is None, so a returned value is its completion.
        self.emit("return _RETURN" if s.value is None
                  else f"return {self.expr(s.value)}")

    def break_(self, s: Break) -> None:
        self.emit("break" if self._loops else "return _BREAK")

    def continue_(self, s: Continue) -> None:
        self.emit("continue" if self._loops else "return _CONTINUE")

    def pass_(self, s: Pass) -> None:
        self.emit("pass")

    def if_(self, s: If) -> None:
        if self.acc:
            self.charge(self.comp.cost.branch)
        self.emit(f"if {self.expr(s.cond)}:")
        self.nested(s.then)
        for clause in s.elifs:
            self.emit(f"elif {self.expr(clause.cond)}:")
            self.nested(clause.body)
        if s.orelse is not None:
            self.emit("else:")
            self.nested(s.orelse)

    def loop_body(self, body) -> None:
        self._loops += 1
        self.nested(body)
        self._loops -= 1

    def while_(self, s: While) -> None:
        if self.acc:
            # The charge comes before each test of the condition.
            self.emit("while True:")
            self.emit(f"    {self.charge_call(self.comp.cost.loop_iteration)}")
            self.emit(f"    if not {self.expr(s.cond)}: break")
        else:
            self.emit(f"while {self.expr(s.cond)}:")
        self.poll(s.span)
        self.loop_body(s.body)

    def for_(self, s: For) -> None:
        item = self.temp()
        iterable = s.iterable
        if type(iterable) is not RangeLiteral:
            items = (f"_i._iterate({self.expr(iterable)}, "
                     f"{self.bound(s.span)})")
        elif self.acc or self.comp._heap is not None:
            # The array's charges and cells are observable; nothing else
            # holds it, so the loop needs no copy of its items.
            items = f"{self.expr(iterable)}.items"
        else:
            items = (f"_range({self.expr(iterable.start)}, "
                     f"{self.expr(iterable.stop)} + 1)")
        self.emit(f"for {item} in {items}:")
        if self.acc:
            self.emit(f"    {self.charge_call(self.comp.cost.loop_iteration)}")
        self.poll(s.span)
        if s.var in self.comp._induction:
            self.emit(f"    _c.env.set({self.name(s.var)}, {item})")
        else:
            self.emit(f"    _fv[{self.name(s.var)}] = {item}")
        self.loop_body(s.body)

    def lock(self, s: LockStmt) -> None:
        """The interpreter's enter, then the body inside ``try`` with its
        exit in ``finally``."""
        comp = self.comp
        name = self.const(s.name)
        stamp = self.temp()
        self.emit(f"{stamp} = {self.bound(comp.lock_enter)}(_c, {name}, "
                  f"{self.bound(s.span)})")
        self.emit("try:")
        self.nested(s.body)
        self.emit("finally:")
        self.emit(f"    {self.bound(comp.lock_exit)}(_c, {name}, {stamp})")

    def try_(self, s: TryStmt) -> None:
        """Python's own ``try``: the catch binds the message of a
        catchable runtime error, with no charge and no race note."""
        error = self.temp()
        self.emit("try:")
        self.nested(s.body)
        self.emit(f"except _RuntimeError as {error}:")
        self.emit(f"    if not _catchable({error}): raise")
        self.emit(f"    _c.env.set({self.name(s.error_name)}, "
                  f"{error}.message)")
        # The handler and its cleanup are two of CPython's nested blocks.
        self.nested(s.handler, weight=2)

    # -- expressions ----------------------------------------------------
    def expr(self, e) -> str:
        """Source for ``e``'s value."""
        try:
            write = _EXPR_WRITERS[type(e)]
        except KeyError:  # pragma: no cover - parser emits no other kinds
            raise TetraInternalError(
                f"fast path has no compiler for {type(e).__name__}", e.span
            ) from None
        if self._depth >= MAX_EXPR_DEPTH and type(e) not in _LEAVES:
            return f"{self.bound(generate_value(self.comp, e))}(_c)"
        self._depth += 1
        code = write(self, e)
        self._depth -= 1
        return code

    def literal(self, e) -> str:
        value = self.const(e.value)
        if self.acc:
            return f"({self.charge_call(self.comp.cost.literal)} or {value})"
        return value

    def name_load(self, e: Name) -> str:
        ref = self.name(e.id)
        if not self.private(e.id):
            code = f"_fv[{ref}]"
        elif self.race is None:
            code = f"_c.env.get({ref})"
        else:
            code = (f"_note_name({self.note(False)}, _c, {ref}, "
                    f"{self.bound(e.span)}) or _c.env.get({ref})")
        if self.acc:
            return (f"({self.charge_call(self.comp.cost.name_load)} "
                    f"or {code})")
        return code if self.race is None else f"({code})"

    def unary(self, e: Unary) -> str:
        op = e.op
        if isinstance(e.operand, _LITERALS) and not self.acc:
            raw = e.operand.value  # -1 and not true are constants
            return self.const(-raw if op is UnaryOp.NEG
                              else raw if op is UnaryOp.POS else not raw)
        if op is UnaryOp.NEG:
            action = "(-{})".format
        elif op is UnaryOp.POS:
            action = "{}".format
        else:
            action = "(not {})".format
        return self.after(self.comp.cost.unary, [self.expr(e.operand)],
                          action)

    def binop(self, e: BinOp) -> str:
        op = e.op
        units = self.comp.cost.binop
        symbol = _SYMBOLS.get(op)
        if op is BinaryOp.AND or op is BinaryOp.OR:
            # The right operand is evaluated only when it decides.
            return self.after(units, [self.expr(e.left)],
                              lambda a: f"({a} {symbol} {self.expr(e.right)})")
        if symbol is not None:
            return self.after(units, [self.expr(e.left), self.expr(e.right)],
                              lambda a, b: f"({a} {symbol} {b})")
        if _is_checked(op, e.left, e.right, e):
            if not self.acc:
                return self.checked_node(op, self.expr(e.left), e.right,
                                         e.span)
            return self.after(units, [self.expr(e.left), self.expr(e.right)],
                              lambda a, b: self.checked(op, a, b, e.span))
        return self.after(units, [self.expr(e.left), self.expr(e.right)],
                          lambda a, b: self.called(op, a, b, e.span))

    def called(self, op, left: str, right: str, span) -> str:
        """``left ** right``, or real ``left / right`` or ``left % right``,
        through the runtime function that owns the diagnostic."""
        call = _CALLED[op]
        if op is not BinaryOp.POW:
            left, right = f"_float({left})", f"_float({right})"
        return f"{call}({left}, {right}, {self.bound(span)})"

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
        is a positive constant."""
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

    def index(self, e: Index) -> str:
        base_ty = e.base.ty
        if not isinstance(base_ty, (ArrayType, DictType, TupleType,
                                    StringType)):
            raise missing(e.base, "an indexed expression")
        if self.fast and isinstance(base_ty, ArrayType):
            items, base, index = self.temp(), self.temp(), self.temp()
            # The array is read before the index is evaluated.
            return (f"({items}[{index}] if _len({items} := ({base} := "
                    f"{self.expr(e.base)}).items) > ({index} := "
                    f"{self.expr(e.index)}) >= 0 else "
                    f"{base}.get({index}, {self.bound(e.span)}))")
        if self.fast:
            return self.load(e, self.expr(e.base), self.expr(e.index))
        base, index = self.temp(), self.temp()
        return self.loaded(e, [f"({base} := {self.expr(e.base)})",
                               f"({index} := {self.expr(e.index)})"],
                           base, index)

    def attribute(self, e: Attribute) -> str:
        base = self.temp()
        return self.loaded(e, [f"({base} := {self.expr(e.base)})"], base,
                           self.const(e.attr))

    def loaded(self, e, held: list[str], base: str, key: str) -> str:
        """The load at ``key`` of ``base`` once ``held`` (sources that
        bind them) are evaluated, with the access's charge, check and
        note between."""
        parts = [*held, *self.access(e, base, key, False),
                 self.load(e, base, key)]
        return f"({', '.join(parts)})[-1]"

    def load(self, e, base: str, key: str) -> str:
        """The read at ``key`` of ``base``, both evaluated."""
        if isinstance(e.base.ty, StringType):
            return f"_char(_i, {base}, {key}, {self.bound(e.span)})"
        return f"{base}.get({key}, {self.bound(e.span)})"

    def call(self, e: Call) -> str:
        comp = self.comp
        invoke = comp._invokers.get(e.func)
        if invoke is not None:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.bound(invoke)}([{args}], _c, {self.bound(e.span)})"
        if (e.func == "len" and not self.acc
                and e.func not in comp.symbols.classes
                and isinstance(e.args[0].ty, ArrayType)):
            return f"_len({self.expr(e.args[0])}.items)"
        info = comp.symbols.classes.get(e.func)
        if info is not None:
            return self.constructor(e, info)
        builtin = BUILTINS.get(e.func)
        if builtin is None:
            raise TetraInternalError(
                f"unknown function '{e.func}' at runtime", e.span
            )
        units = comp.cost.builtin_overhead
        if e.func == "clock":
            # clock() reports the backend's clock (virtual under sim and
            # coop), which the builtin table cannot see.
            return self.after(units, [],
                              lambda: f"{self.bound(comp.backend)}.now()")
        invoke = self.bound(builtin.invoke)
        span = self.bound(e.span)
        return self.alloc(self.after(
            units, [self.expr(a) for a in e.args],
            lambda *args: f"_builtin(_i, {invoke}, [{', '.join(args)}], "
                          f"{span})"), e.span)

    def constructor(self, e: Call, info) -> str:
        cost = self.comp.cost
        units = cost.call_overhead + cost.array_element * max(1, len(e.args))
        # The type and order tables are immutable; every instance shares
        # them.
        types = self.bound(dict(zip(info.field_names, info.field_types)))
        order = self.bound(list(info.field_names))

        def build(*args):
            fields = ", ".join(
                f"{self.const(name)}: {self.coerced(arg, ty, node)}"
                for name, ty, arg, node in zip(
                    info.field_names, info.field_types, args, e.args))
            return (f"_Object({self.const(info.name)}, {{{fields}}}, "
                    f"{types}, {order})")

        return self.alloc(self.after(
            units, [self.expr(a) for a in e.args], build), e.span)

    def method_call(self, e: MethodCall) -> str:
        base_ty = e.base.ty
        if not isinstance(base_ty, ClassType):
            raise missing(e.base, "a method-call receiver")
        invoke = self.comp._method_invokers.get((base_ty.name, e.method))
        if invoke is None:
            raise TetraInternalError(
                f"call to unknown method '{base_ty.name}.{e.method}'"
            )
        args = self.temp()
        items = ", ".join(self.expr(a) for a in (e.base, *e.args))
        span = self.bound(e.span)
        # The receiver and the arguments are evaluated before the check.
        return (f"({self.bound(invoke)}({args}, _c, {span}) "
                f"if _isinstance(({args} := [{items}])[0], _Object) "
                f"else _fail(_i, {self.const(_NO_METHODS)}, {span}))")

    def array_literal(self, e: ArrayLiteral) -> str:
        ty = e.ty
        if not isinstance(ty, ArrayType):
            raise missing(e, "an array literal")
        units = self.comp.cost.array_element * max(1, len(e.elements))
        element = self.bound(ty.element)
        return self.alloc(self.after(
            units, [self.expr(x) for x in e.elements],
            lambda *xs: f"_make_array([{', '.join(xs)}], {element})"),
            e.span)

    def tuple_literal(self, e: TupleLiteral) -> str:
        ty = e.ty
        if not isinstance(ty, TupleType):
            raise missing(e, "a tuple literal")
        units = self.comp.cost.array_element * len(e.elements)

        def build(*xs):
            xs = map(self.coerced, xs, ty.elements, e.elements)
            return f"_Tuple([{', '.join(xs)}])"

        return self.alloc(self.after(
            units, [self.expr(x) for x in e.elements], build), e.span)

    def dict_literal(self, e: DictLiteral) -> str:
        ty = e.ty
        if not isinstance(ty, DictType):
            raise missing(e, "a dict literal")
        entries = ", ".join(
            f"{self.expr(k)}: {self.coerced(self.expr(v), ty.value, v)}"
            for k, v in e.entries)
        types = f"{self.bound(ty.key)}, {self.bound(ty.value)}"
        return self.alloc(self.sized(
            f"{{{entries}}}",
            lambda items: f"_Dict({items}, {types})"), e.span)

    def range_literal(self, e: RangeLiteral) -> str:
        items = f"_range({self.expr(e.start)}, {self.expr(e.stop)} + 1)"
        return self.alloc(self.sized(
            items, lambda held: f"_Array({held}, {self.bound(INT)})"),
            e.span)


_LITERALS = (IntLiteral, RealLiteral, StringLiteral, BoolLiteral)

#: Expression nodes without operands: the ones that never deepen a source.
_LEAVES = (*_LITERALS, Name)

_STMT_WRITERS = {
    ExprStmt: _Writer.expr_stmt,
    Assign: _Writer.assign,
    AugAssign: _Writer.aug_assign,
    Declare: _Writer.declare,
    Unpack: _Writer.unpack,
    Return: _Writer.return_,
    Break: _Writer.break_,
    Continue: _Writer.continue_,
    Pass: _Writer.pass_,
    If: _Writer.if_,
    While: _Writer.while_,
    For: _Writer.for_,
    TryStmt: _Writer.try_,
    LockStmt: _Writer.lock,
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
    Attribute: _Writer.attribute,
    Call: _Writer.call,
    MethodCall: _Writer.method_call,
    ArrayLiteral: _Writer.array_literal,
    TupleLiteral: _Writer.tuple_literal,
    DictLiteral: _Writer.dict_literal,
    RangeLiteral: _Writer.range_literal,
}
