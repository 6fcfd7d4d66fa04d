"""The Tetra compiler: AST → Python source using ``threading``.

The paper's future-work item: "add a native code compiler, which will
compile Tetra code into an efficient executable, possibly by targeting C
with Pthreads as the output language."  This reproduction targets Python
with ``threading`` (DESIGN.md §4): the pipeline position is identical
(typed AST → lower-level language with a thread library), and the generated
code is differential-tested against the interpreter.

Mapping highlights:

* Tetra functions become nested Python functions inside one ``_program``
  closure, giving them access to the per-run :class:`ProgramRuntime`
  (console, named locks, background threads) without globals.
* Variables are mangled ``v_<name>`` and functions ``t_<name>`` so Tetra
  identifiers can never collide with Python keywords or the runtime.
* ``parallel`` children compile to nested ``def``s that declare
  ``nonlocal`` for every enclosing-scope variable they assign — the
  compiled analogue of the interpreter's shared symbol tables.  Variables
  first assigned *inside* a parallel construct are pre-initialized at
  function entry so the ``nonlocal`` has a binding to refer to.
* The ``parallel for`` induction variable becomes the worker function's
  loop variable — lexically private, matching the private symbol table.
* Static types drive operator lowering: ``/`` on two ints emits
  ``rt.idiv`` (C-style truncation), otherwise checked real division.
"""

from __future__ import annotations

from ..errors import TetraInternalError
from ..source import SourceFile
from ..tetra_ast import (
    ArrayLiteral,
    Assign,
    Attribute,
    AugAssign,
    BackgroundBlock,
    BinaryOp,
    BinOp,
    Block,
    BoolLiteral,
    Break,
    Call,
    ClassDef,
    Continue,
    Declare,
    DictLiteral,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Index,
    IntLiteral,
    LockStmt,
    MethodCall,
    Name,
    Node,
    ParallelBlock,
    ParallelFor,
    Pass,
    Program,
    RangeLiteral,
    RealLiteral,
    Return,
    Stmt,
    StringLiteral,
    TryStmt,
    TupleLiteral,
    Unary,
    UnaryOp,
    Unpack,
    While,
    walk,
)
from ..types import (
    BOOL,
    INT,
    REAL,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    DictType,
    IntType,
    RealType,
    TupleType,
    Type,
    check_program,
    from_type_expr,
)

_MODULE_HEADER = '''\
"""Python module compiled from Tetra source {name!r} by repro.compiler.

Run it with ``python thisfile.py`` or import it and call ``run()``.
"""

from repro.compiler import runtime_support as rt


def _program(_rt):
    _io = _rt.io
'''

_MODULE_FOOTER = '''

def run(io=None, num_workers=None, chunking="block"):
    """Execute the program once with fresh runtime state."""
    _rt = rt.ProgramRuntime(io, num_workers, chunking)
    functions = _program(_rt)
    try:
        functions["main"]()
    finally:
        _rt.finish()
    return _rt


if __name__ == "__main__":
    run()
'''


def _type_expr(t: Type) -> str:
    """Python expression that rebuilds a semantic type at runtime."""
    if isinstance(t, ArrayType):
        return f"rt.ArrayType({_type_expr(t.element)})"
    if isinstance(t, DictType):
        return f"rt.DictType({_type_expr(t.key)}, {_type_expr(t.value)})"
    if isinstance(t, TupleType):
        inner = ", ".join(_type_expr(e) for e in t.elements)
        return f"rt.TupleType(({inner},))"
    if isinstance(t, ClassType):
        return f"rt.ClassType({t.name!r})"
    return {INT: "rt.INT", REAL: "rt.REAL", STRING: "rt.STRING",
            BOOL: "rt.BOOL"}[t]


def _assigned_directly(stmts: list[Stmt]) -> set[str]:
    """Variable names a statement list assigns *in its own scope* — not
    inside nested parallel constructs (those become nested defs with their
    own nonlocal declarations)."""
    names: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, AugAssign) and isinstance(stmt.target, Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, Declare):
            names.add(stmt.name)
        elif isinstance(stmt, Unpack):
            names |= {t.id for t in stmt.targets if isinstance(t, Name)}
        elif isinstance(stmt, TryStmt):
            names.add(stmt.error_name)
            names |= _assigned_directly(stmt.body.statements)
            names |= _assigned_directly(stmt.handler.statements)
        elif isinstance(stmt, For):
            names.add(stmt.var)
            names |= _assigned_directly(stmt.body.statements)
        elif isinstance(stmt, If):
            names |= _assigned_directly(stmt.then.statements)
            for clause in stmt.elifs:
                names |= _assigned_directly(clause.body.statements)
            if stmt.orelse is not None:
                names |= _assigned_directly(stmt.orelse.statements)
        elif isinstance(stmt, While):
            names |= _assigned_directly(stmt.body.statements)
        elif isinstance(stmt, LockStmt):
            names |= _assigned_directly(stmt.body.statements)
        # ParallelBlock / BackgroundBlock / ParallelFor bodies run in
        # nested defs; their assignments are not direct.
    return names


def _assigned_anywhere(stmts: list[Stmt]) -> set[str]:
    """All enclosing-scope names assigned in the subtree, including inside
    parallel constructs (but excluding induction variables, which are
    private to their workers)."""
    names: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, (Assign, AugAssign)) and isinstance(stmt.target, Name):
            names.add(stmt.target.id)
        if isinstance(stmt, Declare):
            names.add(stmt.name)
        if isinstance(stmt, Unpack):
            names |= {t.id for t in stmt.targets if isinstance(t, Name)}
        if isinstance(stmt, TryStmt):
            names.add(stmt.error_name)
        if isinstance(stmt, For):
            names.add(stmt.var)
        for child_block in _blocks_of(stmt):
            names |= _assigned_anywhere(child_block.statements)
        if isinstance(stmt, ParallelFor):
            names.discard(stmt.var)
    return names


def _blocks_of(stmt: Stmt) -> list[Block]:
    blocks: list[Block] = []
    if isinstance(stmt, If):
        blocks.append(stmt.then)
        blocks.extend(c.body for c in stmt.elifs)
        if stmt.orelse is not None:
            blocks.append(stmt.orelse)
    elif isinstance(stmt, (While, For, ParallelFor, ParallelBlock,
                           BackgroundBlock, LockStmt)):
        blocks.append(stmt.body)
    elif isinstance(stmt, TryStmt):
        blocks.append(stmt.body)
        blocks.append(stmt.handler)
    return blocks


class CodeGenerator:
    def __init__(self, program: Program, source: SourceFile | None = None,
                 module_name: str = "<tetra>"):
        if not hasattr(program, "symbols"):
            check_program(program, source)
        self.program = program
        self.symbols = program.symbols  # type: ignore[attr-defined]
        self.module_name = module_name
        self.lines: list[str] = []
        self._tmp = 0
        self._user_functions = {fn.name for fn in program.functions}
        self._current_return_type: Type = VOID

    # ------------------------------------------------------------------
    def generate(self) -> str:
        self.lines = [_MODULE_HEADER.format(name=self.module_name)]
        for cls in getattr(self.program, "classes", []):
            self._class(cls)
        for fn in self.program.functions:
            self._function(fn)
            self.lines.append("")
        exports = ", ".join(
            f'"{fn.name}": t_{fn.name}' for fn in self.program.functions
        )
        self._emit(1, f"return {{{exports}}}")
        return "\n".join(self.lines) + _MODULE_FOOTER

    def _class(self, cls: ClassDef) -> None:
        """Methods compile to functions taking the instance explicitly."""
        info = self.symbols.classes[cls.name]
        names = ", ".join(repr(n) for n in info.field_names)
        types = ", ".join(
            f"{n!r}: {_type_expr(t)}"
            for n, t in zip(info.field_names, info.field_types)
        )
        self._emit(1, f"_fields_{cls.name} = {{{types}}}")
        self._emit(1, f"_order_{cls.name} = [{names}]")
        self.lines.append("")
        for method in cls.methods:
            self._current_return_type = info.methods[method.name].return_type
            params = ", ".join(
                ["v_self"] + [f"v_{p.name}" for p in method.params]
            )
            self._emit(1, f"def t_{cls.name}__{method.name}({params}):")
            direct = _assigned_directly(method.body.statements)
            everywhere = _assigned_anywhere(method.body.statements)
            param_names = {p.name for p in method.params} | {"self"}
            for name in sorted((everywhere - direct) - param_names):
                self._emit(2, f"v_{name} = None")
            if not method.body.statements:
                self._emit(2, "pass")
            self._block(method.body, 2)
            self.lines.append("")

    def _emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _fresh(self, base: str) -> str:
        self._tmp += 1
        return f"_{base}{self._tmp}"

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def _function(self, fn: FunctionDef) -> None:
        params = ", ".join(f"v_{p.name}" for p in fn.params)
        self._emit(1, f"def t_{fn.name}({params}):")
        self._current_return_type = self.symbols.functions[fn.name].return_type
        param_names = {p.name for p in fn.params}
        direct = _assigned_directly(fn.body.statements)
        everywhere = _assigned_anywhere(fn.body.statements)
        # Pre-initialize names only ever assigned inside parallel constructs
        # so nested defs have a binding to declare nonlocal against.
        needs_init = sorted((everywhere - direct) - param_names)
        for name in needs_init:
            self._emit(2, f"v_{name} = None")
        if not fn.body.statements and not needs_init:
            self._emit(2, "pass")
        self._block(fn.body, 2)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _block(self, block: Block, depth: int) -> None:
        if not block.statements:
            self._emit(depth, "pass")
            return
        for stmt in block.statements:
            self._stmt(stmt, depth)

    def _stmt(self, stmt: Stmt, depth: int) -> None:
        handler = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if handler is None:
            raise TetraInternalError(
                f"codegen has no handler for {type(stmt).__name__}"
            )
        handler(stmt, depth)

    def _stmt_ExprStmt(self, stmt: ExprStmt, depth: int) -> None:
        self._emit(depth, self._expr(stmt.expr))

    def _stmt_Assign(self, stmt: Assign, depth: int) -> None:
        value = self._coerced(stmt.value, getattr(stmt.target, "ty", None))
        if isinstance(stmt.target, Name):
            self._emit(depth, f"v_{stmt.target.id} = {value}")
        elif isinstance(stmt.target, Attribute):
            self._emit(
                depth,
                f"rt.set_attr({self._expr(stmt.target.base)}, "
                f"{stmt.target.attr!r}, {value}, {stmt.span.line})",
            )
        else:
            assert isinstance(stmt.target, Index)
            base = self._expr(stmt.target.base)
            index = self._expr(stmt.target.index)
            self._emit(
                depth,
                f"rt.store_index({base}, {index}, {value}, {stmt.span.line})",
            )

    def _stmt_AugAssign(self, stmt: AugAssign, depth: int) -> None:
        # Desugar to load-op-store, with the target's base and index bound
        # to temporaries so each is evaluated once.
        target = stmt.target
        if isinstance(target, Name):
            load = f"v_{target.id}"
        else:
            base = self._fresh("base")
            self._emit(depth, f"{base} = {self._expr(target.base)}")
            if isinstance(target, Attribute):
                load = (f"rt.get_attr({base}, {target.attr!r}, "
                        f"{target.span.line})")
            else:
                assert isinstance(target, Index)
                index = self._fresh("index")
                self._emit(depth, f"{index} = {self._expr(target.index)}")
                load = f"rt.index_value({base}, {index}, {target.span.line})"
        combined = self._binop_text(
            stmt.op, load, getattr(target, "ty", None),
            self._expr(stmt.value), getattr(stmt.value, "ty", None),
            stmt.span.line,
        )
        if isinstance(target, Name):
            self._emit(depth, f"{load} = {combined}")
        elif isinstance(target, Attribute):
            self._emit(
                depth,
                f"rt.set_attr({base}, {target.attr!r}, {combined}, "
                f"{stmt.span.line})",
            )
        else:
            self._emit(
                depth,
                f"rt.store_index({base}, {index}, {combined}, "
                f"{stmt.span.line})",
            )

    def _stmt_Unpack(self, stmt: Unpack, depth: int) -> None:
        tmp = self._fresh("unpack")
        self._emit(depth, f"{tmp} = {self._expr(stmt.value)}.items")
        for i, target in enumerate(stmt.targets):
            if isinstance(target, Name):
                self._emit(depth, f"v_{target.id} = {tmp}[{i}]")
            elif isinstance(target, Attribute):
                self._emit(
                    depth,
                    f"rt.set_attr({self._expr(target.base)}, "
                    f"{target.attr!r}, {tmp}[{i}], {stmt.span.line})",
                )
            else:
                assert isinstance(target, Index)
                base = self._expr(target.base)
                index = self._expr(target.index)
                self._emit(
                    depth,
                    f"rt.store_index({base}, {index}, {tmp}[{i}], "
                    f"{stmt.span.line})",
                )

    def _stmt_Declare(self, stmt: Declare, depth: int) -> None:
        declared = from_type_expr(stmt.declared_type)
        value = self._coerced(stmt.value, declared)
        self._emit(depth, f"v_{stmt.name} = {value}")

    def _stmt_TryStmt(self, stmt: TryStmt, depth: int) -> None:
        err = self._fresh("err")
        self._emit(depth, "try:")
        self._block(stmt.body, depth + 1)
        self._emit(depth, f"except rt.TetraRuntimeError as {err}:")
        self._emit(depth + 1, f"if not rt.is_catchable({err}):")
        self._emit(depth + 2, "raise")
        self._emit(depth + 1, f"v_{stmt.error_name} = {err}.message")
        self._block(stmt.handler, depth + 1)

    def _stmt_If(self, stmt: If, depth: int) -> None:
        self._emit(depth, f"if {self._expr(stmt.cond)}:")
        self._block(stmt.then, depth + 1)
        for clause in stmt.elifs:
            self._emit(depth, f"elif {self._expr(clause.cond)}:")
            self._block(clause.body, depth + 1)
        if stmt.orelse is not None:
            self._emit(depth, "else:")
            self._block(stmt.orelse, depth + 1)

    def _stmt_While(self, stmt: While, depth: int) -> None:
        self._emit(depth, f"while {self._expr(stmt.cond)}:")
        self._block(stmt.body, depth + 1)

    def _stmt_For(self, stmt: For, depth: int) -> None:
        self._emit(
            depth,
            f"for v_{stmt.var} in rt.iter_value({self._expr(stmt.iterable)}, "
            f"{stmt.span.line}):",
        )
        self._block(stmt.body, depth + 1)

    def _stmt_ParallelFor(self, stmt: ParallelFor, depth: int) -> None:
        worker = self._fresh("worker")
        chunk = self._fresh("chunk")
        self._emit(depth, f"def {worker}({chunk}):")
        shared = sorted(_assigned_anywhere(stmt.body.statements) - {stmt.var})
        if shared:
            self._emit(depth + 1, "nonlocal " + ", ".join(f"v_{n}" for n in shared))
        self._emit(depth + 1, f"for v_{stmt.var} in {chunk}:")
        self._block(stmt.body, depth + 2)
        self._emit(
            depth,
            f"_rt.run_parallel_for(rt.iter_value({self._expr(stmt.iterable)}, "
            f"{stmt.span.line}), {worker}, {stmt.span.line})",
        )

    def _stmt_ParallelBlock(self, stmt: ParallelBlock, depth: int) -> None:
        self._spawn_group(stmt, depth, join=True)

    def _stmt_BackgroundBlock(self, stmt: BackgroundBlock, depth: int) -> None:
        self._spawn_group(stmt, depth, join=False)

    def _spawn_group(self, stmt, depth: int, join: bool) -> None:
        thunk_names: list[str] = []
        for child in stmt.body.statements:
            thunk = self._fresh("par")
            thunk_names.append(thunk)
            self._emit(depth, f"def {thunk}():")
            shared = sorted(_assigned_anywhere([child]))
            if shared:
                self._emit(
                    depth + 1, "nonlocal " + ", ".join(f"v_{n}" for n in shared)
                )
            self._stmt(child, depth + 1)
        joined = ", ".join(thunk_names)
        self._emit(
            depth,
            f"_rt.run_group([{joined}], join={join}, line={stmt.span.line})",
        )

    def _stmt_LockStmt(self, stmt: LockStmt, depth: int) -> None:
        self._emit(depth, f"with _rt.lock({stmt.name!r}, {stmt.span.line}):")
        self._block(stmt.body, depth + 1)

    def _stmt_Return(self, stmt: Return, depth: int) -> None:
        if stmt.value is None:
            self._emit(depth, "return")
        else:
            # _coerced widens int returns from real-returning functions.
            value = self._coerced(stmt.value, self._current_return_type)
            self._emit(depth, f"return {value}")

    def _stmt_Break(self, stmt: Break, depth: int) -> None:
        self._emit(depth, "break")

    def _stmt_Continue(self, stmt: Continue, depth: int) -> None:
        self._emit(depth, "continue")

    def _stmt_Pass(self, stmt: Pass, depth: int) -> None:
        self._emit(depth, "pass")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _coerced(self, expr: Expr, want: Type | None) -> str:
        """Expression text, widened to real if the destination wants one."""
        text = self._expr(expr)
        got = getattr(expr, "ty", None)
        if isinstance(want, RealType) and isinstance(got, IntType):
            return f"float({text})"
        if isinstance(want, TupleType) and got != want:
            return f"rt.coerce_to({text}, {_type_expr(want)})"
        return text

    def _expr(self, expr: Expr) -> str:
        handler = getattr(self, f"_expr_{type(expr).__name__}", None)
        if handler is None:
            raise TetraInternalError(
                f"codegen has no handler for {type(expr).__name__}"
            )
        return handler(expr)

    def _expr_IntLiteral(self, expr: IntLiteral) -> str:
        return repr(expr.value)

    def _expr_RealLiteral(self, expr: RealLiteral) -> str:
        return repr(expr.value)

    def _expr_StringLiteral(self, expr: StringLiteral) -> str:
        return repr(expr.value)

    def _expr_BoolLiteral(self, expr: BoolLiteral) -> str:
        return "True" if expr.value else "False"

    def _expr_Name(self, expr: Name) -> str:
        return f"v_{expr.id}"

    def _expr_ArrayLiteral(self, expr: ArrayLiteral) -> str:
        ty = getattr(expr, "ty", None)
        element = ty.element if isinstance(ty, ArrayType) else INT
        items = ", ".join(self._coerced(e, element) for e in expr.elements)
        return f"rt.make_array([{items}], {_type_expr(element)})"

    def _expr_TupleLiteral(self, expr: TupleLiteral) -> str:
        ty = getattr(expr, "ty", None)
        assert isinstance(ty, TupleType), "tuple literal was not typed"
        items = ", ".join(
            self._coerced(e, t) for e, t in zip(expr.elements, ty.elements)
        )
        return f"rt.TetraTuple(({items},))"

    def _expr_DictLiteral(self, expr: DictLiteral) -> str:
        ty = getattr(expr, "ty", None)
        assert isinstance(ty, DictType), "dict literal was not typed"
        entries = ", ".join(
            f"({self._expr(k)}, {self._coerced(v, ty.value)})"
            for k, v in expr.entries
        )
        return (f"rt.make_dict([{entries}], {_type_expr(ty.key)}, "
                f"{_type_expr(ty.value)})")

    def _expr_RangeLiteral(self, expr: RangeLiteral) -> str:
        return (
            f"rt.make_range({self._expr(expr.start)}, {self._expr(expr.stop)})"
        )

    def _expr_Index(self, expr: Index) -> str:
        return (
            f"rt.index_value({self._expr(expr.base)}, "
            f"{self._expr(expr.index)}, {expr.span.line})"
        )

    def _expr_Attribute(self, expr: Attribute) -> str:
        return (f"rt.get_attr({self._expr(expr.base)}, {expr.attr!r}, "
                f"{expr.span.line})")

    def _expr_MethodCall(self, expr: MethodCall) -> str:
        base_ty = getattr(expr.base, "ty", None)
        assert isinstance(base_ty, ClassType), "method call base untyped"
        sig = self.symbols.classes[base_ty.name].methods[expr.method]
        args = ", ".join(
            [self._expr(expr.base)]
            + [self._coerced(a, want)
               for a, want in zip(expr.args, sig.param_types[1:])]
        )
        return f"t_{base_ty.name}__{expr.method}({args})"

    def _expr_Call(self, expr: Call) -> str:
        if expr.func in self._user_functions:
            sig = self.symbols.functions[expr.func]
            args = ", ".join(
                self._coerced(a, want)
                for a, want in zip(expr.args, sig.param_types)
            )
            return f"t_{expr.func}({args})"
        if expr.func in self.symbols.classes:
            info = self.symbols.classes[expr.func]
            values = ", ".join(
                f"{n!r}: {self._coerced(a, t)}"
                for n, a, t in zip(info.field_names, expr.args,
                                   info.field_types)
            )
            return (f"rt.TetraObject({expr.func!r}, {{{values}}}, "
                    f"_fields_{expr.func}, _order_{expr.func})")
        args = ", ".join(self._expr(a) for a in expr.args)
        return (
            f"rt.call_builtin({expr.func!r}, [{args}], _io, {expr.span.line})"
        )

    def _expr_Unary(self, expr: Unary) -> str:
        operand = self._expr(expr.operand)
        if expr.op is UnaryOp.NEG:
            return f"(-({operand}))"
        if expr.op is UnaryOp.POS:
            return f"(+({operand}))"
        return f"(not ({operand}))"

    def _expr_BinOp(self, expr: BinOp) -> str:
        return self._binop_text(
            expr.op,
            self._expr(expr.left), getattr(expr.left, "ty", None),
            self._expr(expr.right), getattr(expr.right, "ty", None),
            expr.span.line,
        )

    def _binop_text(self, op: BinaryOp, left: str, left_ty: Type | None,
                    right: str, right_ty: Type | None, line: int) -> str:
        both_int = isinstance(left_ty, IntType) and isinstance(right_ty, IntType)
        if op is BinaryOp.DIV:
            if both_int:
                return f"rt.int_div({left}, {right}, rt.span_at({line}))"
            return (
                f"rt.real_div(float({left}), float({right}), rt.span_at({line}))"
            )
        if op is BinaryOp.MOD:
            if both_int:
                return f"rt.int_mod({left}, {right}, rt.span_at({line}))"
            return (
                f"rt.real_mod(float({left}), float({right}), rt.span_at({line}))"
            )
        if op is BinaryOp.POW:
            return f"rt.tetra_pow({left}, {right}, rt.span_at({line}))"
        symbol = {
            BinaryOp.ADD: "+", BinaryOp.SUB: "-", BinaryOp.MUL: "*",
            BinaryOp.EQ: "==", BinaryOp.NE: "!=", BinaryOp.LT: "<",
            BinaryOp.LE: "<=", BinaryOp.GT: ">", BinaryOp.GE: ">=",
            BinaryOp.AND: "and", BinaryOp.OR: "or",
        }[op]
        return f"(({left}) {symbol} ({right}))"


def compile_to_python(program_or_text, source: SourceFile | None = None,
                      module_name: str = "<tetra>") -> str:
    """Compile a (checked) program or raw Tetra text to Python source."""
    if isinstance(program_or_text, str):
        from ..parser import parse_source

        source = SourceFile.from_string(program_or_text, module_name)
        program = parse_source(source)
    else:
        program = program_or_text
    return CodeGenerator(program, source, module_name).generate()


def load_compiled(python_code: str):
    """Exec generated code and return its namespace (exposes ``run``)."""
    namespace: dict = {}
    exec(compile(python_code, "<tetra-compiled>", "exec"), namespace)
    return namespace


def run_compiled(tetra_text: str, inputs: list[str] | None = None,
                 num_workers: int | None = None, chunking: str = "block"):
    """Compile, load, and run Tetra source; returns the CapturingIO used.

    The mirror of :func:`repro.api.run_source` for the compiled path —
    differential tests assert both produce identical output.
    """
    from ..stdlib.io import CapturingIO

    code = compile_to_python(tetra_text)
    namespace = load_compiled(code)
    io = CapturingIO(inputs or [])
    namespace["run"](io=io, num_workers=num_workers, chunking=chunking)
    return io
