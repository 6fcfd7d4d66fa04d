"""Generated code: the one statement compiler.

:meth:`repro.interp.compile._Compiler.block` hands every block — and
every lone statement, a ``parallel:`` child or a REPL line — to
:func:`generate_block`, which writes it as the source of one Python
function; :func:`generate_value` does the same for an expression a
closure evaluates.  A loop's iteration then costs the
bytecode of its statements, not one closure call per AST node.

The generated vocabulary:

* variable reads and writes: locals through ``frame.vars``, ``parallel
  for`` induction variables (and, under race detection, every name)
  through the thread's environment, and stores into real and tuple slots
  through :func:`coerce_to`; literals;
* assignments, and ``op=`` with any operator;
* the total operators (``+ - * == != < <= > >=``, unary ``-`` and
  ``not``, ``and``/``or``); int ``/`` and ``%`` as Python's ``//`` and
  ``%`` when the dividend is non-negative and the divisor positive, with
  :func:`int_div` / :func:`int_mod` and the operator's span otherwise;
  the other operators through the closure compiler's two-argument applier;
* array element load, store and ``op=``, with the bounds test inline and
  :meth:`TetraArray.get` / :meth:`TetraArray.set` raising the
  out-of-range diagnostic;
* ``len(array)`` and calls through the bound function invokers;
* ``if``/``elif``/``else``, ``while`` and ``for``, with ``break``,
  ``continue`` and ``return`` as Python's own inside a generated loop and
  as completion values (:mod:`repro.interp.control`) at the block's top;
* the stop poll at every loop back-edge; under a step budget it counts
  the step and compares the count with ``Interpreter._budget`` instead,
  and without one the source is the same as if budgets did not exist;
* off the lean path, each statement's prologue — stop flag, guardrail
  check, ``current_span`` store, checkpoint, profile line hit and
  statement charge — as lines before the statement;
* under cost accounting (the simulator), each node's ``charge`` where
  the node does its work: after its operands, before its action;
* under race detection, each shared access's note after the access's
  charge and before the access itself.

Any other statement or expression — ``print`` and the other builtins,
constructors, method calls, fields, dict and string elements, collection
literals, ``lock``, ``try``, the parallel constructs, ``Unpack`` and
``Declare`` — is compiled by the closure compiler, and the generated code
calls that closure and passes its completion on.  A variable read before
any assignment raises the closures' internal error.

No program text reaches the generated source.  Every name, literal, span,
invoker and closure is a parameter of the factory that builds the
function (``_make(_i, _a0, _a1, ...)``), so the source depends only on the
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

from ..errors import TetraInternalError
from ..runtime import Frame, coerce_to, int_div, int_mod
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
    MethodCall,
    Name,
    Pass,
    RealLiteral,
    Return,
    StringLiteral,
    Unary,
    UnaryOp,
    While,
    unparse,
    walk,
    walk_statements,
)
from ..types import ArrayType, IntType, RealType, TupleType
from .control import BREAK, CONTINUE, RETURN

#: The most code objects the cache keeps; the least recently used go first.
CACHE_SIZE = 512

#: Nested bodies written inline; a deeper body is a function of its own.
#: Each level adds one indentation level and at most one of CPython's 20
#: statically nested blocks (the function's ``try`` is another).
MAX_NESTING = 10

#: Expression nodes written inline; a deeper sub-expression is a function
#: of its own.  A node adds at most four levels of parentheses, which
#: keeps a source well inside CPython's 200 and its compiler's recursion.
MAX_EXPR_DEPTH = 20

_cache: OrderedDict[str, object] = OrderedDict()
_cache_lock = threading.Lock()


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
    """Feed an array element access to the race note."""
    note(ctx, (id(base), index), f"{prefix}[{index!r}]", span, base)


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
    "_coerce": coerce_to,
    "_note_name": note_name,
    "_note_elem": note_element,
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


def generate_block(comp, statements):
    """``statements`` as one generated function taking a thread context
    and returning the block's completion."""
    writer = _Writer(comp)
    for s in statements:
        writer.statement(s)
    return writer.function()


def generate_value(comp, e):
    """A function returning ``e``'s value: generated, or the closure
    compiler's closure for an expression outside the vocabulary."""
    writer = _Writer(comp)
    code = writer.node(e)
    if code is None:
        return comp.fallback_expr(e)
    writer.emit(f"return {code}")
    return writer.function()


def generate_store(comp, target):
    """A function ``(ctx, value)`` storing into a name or an array
    element, as an assignment would."""
    writer = _Writer(comp)
    if type(target) is Name:
        writer.store_name(target, "_v")
    else:
        writer.store_element(target, "_v")
    return writer.function("_c, _v")


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


def _is_checked(op, left, right) -> bool:
    """True for int ``/`` or ``%``: ``left`` and ``right`` are the operand
    (or target and value) nodes."""
    return (op in _CHECKED and isinstance(left.ty, IntType)
            and isinstance(right.ty, IntType))


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
        self.acc = comp is not None and comp.acc
        self.race = comp.race if comp is not None else None
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
        """A parameter bound to a literal's value."""
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
        if write is None or not write(self, s):
            self.pass_on(self.comp.fallback_stmt(s), s)

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

    def nested(self, body) -> None:
        self._indent += "    "
        if self._nesting < MAX_NESTING:
            self._nesting += 1
            for s in body.statements:
                self.statement(s)
            self._nesting -= 1
        else:
            self.pass_on(generate_block(self.comp, body.statements), body)
        self._indent = self._indent[:-4]

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
        if type(target) is Name:
            self.name(target.id)  # the target's slot comes first
            self.store_name(target, self.expr(s.value), s.value)
        elif type(target) is Index and isinstance(target.base.ty, ArrayType):
            self.store_element(target, self.expr(s.value), s.value)
        else:
            # A field or a dict element: the closure compiler's store.
            self.emit(f"{self.bound(self.comp._store(target))}(_c, "
                      f"{self.expr(s.value)})")
        return True

    def store_name(self, target: Name, value: str, node=None) -> None:
        """Store ``value`` (a source) into the variable ``target``: the
        charge and the race note come after the value."""
        ref = self.name(target.id)
        if target.ty is None:
            raise missing(target, f"assignment target '{target.id}'")
        widen = _coercion(target.ty, node)
        if not self.fast:
            held = self.temp()
            self.emit(f"{held} = {value}")
            value = held
            if self.acc:
                self.charge(self.comp.cost.name_store)
            if self.race is not None:
                self.emit(f"_note_name({self.note(True)}, _c, {ref}, "
                          f"{self.bound(target.span)})")
        if widen is not None:
            value = f"_coerce({value}, {self.bound(widen)})"
        if self.private(target.id):
            self.emit(f"_c.env.set({ref}, {value})")
        else:
            self.emit(f"_fv[{ref}] = {value}")

    def store_element(self, target: Index, value: str, node=None) -> None:
        """Store ``value`` into an array element.  The value is evaluated
        first, then the array, then the index."""
        widen = _coercion(target.base.ty.element, node)
        if not isinstance(node, _LITERALS) or not self.fast:
            held = self.temp()
            self.emit(f"{held} = {value}")
            value = held
        if widen is not None:
            value = f"_coerce({value}, {self.bound(widen)})"
        if self.fast:
            items, base, index = self.temp(), self.temp(), self.temp()
            self.emit(f"{items} = ({base} := {self.expr(target.base)})"
                      ".items")
            self.emit(f"if _len({items}) > ({index} := "
                      f"{self.expr(target.index)}) >= 0:")
            self.emit(f"    {items}[{index}] = {value}")
            self.emit("else:")
            self.emit(f"    {base}.set({index}, {value}, "
                      f"{self.bound(target.span)})")
            return
        base, index = self.temp(), self.temp()
        self.emit(f"{base} = {self.expr(target.base)}")
        self.emit(f"{index} = {self.expr(target.index)}")
        if self.acc:
            self.charge(self.comp.cost.index_store)
        if self.race is not None:
            self.emit(self.element_note(target, True, base, index))
        self.emit(f"{base}.set({index}, {value}, {self.bound(target.span)})")

    def element_note(self, e: Index, is_write: bool, base: str,
                     index: str) -> str:
        return (f"_note_elem({self.note(is_write)}, _c, {base}, {index}, "
                f"{self.bound(unparse(e.base))}, {self.bound(e.span)})")

    def aug_assign(self, s: AugAssign) -> bool:
        target = s.target
        op = s.op
        array = (type(target) is Index
                 and isinstance(target.base.ty, ArrayType))
        if (self.fast and type(target) is Name
                and target.id not in self.comp._induction):
            ref = f"_fv[{self.name(target.id)}]"
        elif (self.fast and array
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
        else:
            return self.aug_assign_twice(s, array)
        symbol = _AUG_SYMBOLS.get(op)
        if symbol is not None:
            self.emit(f"{ref} {symbol}= {self.expr(s.value)}")
            return True
        if _is_checked(op, target, s.value):
            value = self.checked_node(op, ref, s.value, s.span)
        else:
            apply = self.comp._binop_apply(op, target.ty, s.value.ty,
                                           s.span, s)
            value = f"{self.bound(apply)}({ref}, {self.expr(s.value)})"
        if type(target) is Name and widening(target.ty) is not None:
            value = f"_coerce({value}, {self.bound(target.ty)})"
        self.emit(f"{ref} = {value}")
        return True

    def aug_assign_twice(self, s: AugAssign, array: bool) -> bool:
        """``t op= v`` as a load of ``t``, ``v``, the operator and a store
        into ``t``, each access with its charge and note: a call-free
        target is evaluated twice.  A target with a call is the closure
        compiler's (it evaluates the target once)."""
        target = s.target
        if type(target) is not Name and _has_call(target):
            return False
        current, operand = self.temp(), self.temp()
        self.emit(f"{current} = {self.expr(target)}")
        self.emit(f"{operand} = {self.expr(s.value)}")
        op = s.op
        symbol = _AUG_SYMBOLS.get(op)
        if symbol is not None:
            value = f"{current} {symbol} {operand}"
        elif _is_checked(op, target, s.value):
            value = self.checked(op, current, operand, s.span)
        else:
            apply = self.comp._binop_apply(op, target.ty, s.value.ty,
                                           s.span, s)
            value = f"{self.bound(apply)}({current}, {operand})"
        if type(target) is Name:
            self.store_name(target, value)
        elif array:
            self.store_element(target, value)
        else:
            self.emit(f"{self.bound(self.comp._store(target))}(_c, {value})")
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
        return True

    def loop_body(self, body) -> None:
        self._loops += 1
        self.nested(body)
        self._loops -= 1

    def while_(self, s: While) -> bool:
        if self.acc:
            # The charge comes before each test of the condition.
            self.emit("while True:")
            self.emit(f"    {self.charge_call(self.comp.cost.loop_iteration)}")
            self.emit(f"    if not {self.expr(s.cond)}: break")
        else:
            self.emit(f"while {self.expr(s.cond)}:")
        self.poll(s.span)
        self.loop_body(s.body)
        return True

    def for_(self, s: For) -> bool:
        item = self.temp()
        self.emit(f"for {item} in _i._iterate({self.expr(s.iterable)}, "
                  f"{self.bound(s.span)}):")
        if self.acc:
            self.emit(f"    {self.charge_call(self.comp.cost.loop_iteration)}")
        self.poll(s.span)
        if s.var in self.comp._induction:
            self.emit(f"    _c.env.set({self.name(s.var)}, {item})")
        else:
            self.emit(f"    _fv[{self.name(s.var)}] = {item}")
        self.loop_body(s.body)
        return True

    # -- expressions ----------------------------------------------------
    def expr(self, e) -> str:
        """Source for ``e``'s value; a closure call outside the
        vocabulary."""
        code = self.node(e)
        if code is None:
            code = f"{self.bound(self.comp.fallback_expr(e))}(_c)"
        return code

    def node(self, e) -> str | None:
        """Source for ``e``'s value, or None outside the vocabulary."""
        write = _EXPR_WRITERS.get(type(e))
        if write is None:
            return None
        if self._depth >= MAX_EXPR_DEPTH and type(e) in _INNER:
            run = generate_value(self.comp, e)
            return f"{self.bound(run)}(_c)"
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
        if _is_checked(op, e.left, e.right):
            if not self.acc:
                return self.checked_node(op, self.expr(e.left), e.right,
                                         e.span)
            return self.after(units, [self.expr(e.left), self.expr(e.right)],
                              lambda a, b: self.checked(op, a, b, e.span))
        apply = self.bound(self.comp._binop_apply(op, e.left.ty, e.right.ty,
                                                  e.span, e))
        return self.after(units, [self.expr(e.left), self.expr(e.right)],
                          lambda a, b: f"{apply}({a}, {b})")

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
        if not isinstance(e.base.ty, ArrayType):
            return None
        if self.fast:
            items, base, index = self.temp(), self.temp(), self.temp()
            # The array is read before the index is evaluated.
            return (f"({items}[{index}] if _len({items} := ({base} := "
                    f"{self.expr(e.base)}).items) > ({index} := "
                    f"{self.expr(e.index)}) >= 0 else "
                    f"{base}.get({index}, {self.bound(e.span)}))")
        base, index = self.temp(), self.temp()
        parts = [f"({base} := {self.expr(e.base)})",
                 f"({index} := {self.expr(e.index)})"]
        if self.acc:
            parts.append(self.charge_call(self.comp.cost.index_load))
        if self.race is not None:
            parts.append(self.element_note(e, False, base, index))
        return (f"({', '.join(parts)}, "
                f"{base}.get({index}, {self.bound(e.span)}))[-1]")

    def call(self, e: Call) -> str | None:
        comp = self.comp
        invoke = comp._invokers.get(e.func)
        if invoke is not None:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.bound(invoke)}([{args}], _c, {self.bound(e.span)})"
        if (e.func == "len" and not self.acc
                and e.func not in comp.symbols.classes
                and isinstance(e.args[0].ty, ArrayType)):
            return f"_len({self.expr(e.args[0])}.items)"
        return None


_LITERALS = (IntLiteral, RealLiteral, StringLiteral, BoolLiteral)

#: Expression nodes with operands: the ones that deepen a source.
_INNER = (Unary, BinOp, Index, Call)

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
