"""Unit tests for the recursive-descent parser: shapes and diagnostics."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.errors import TetraSyntaxError, exit_code_for
from repro.parser import parse_expression, parse_source
from repro.tetra_ast import (
    ArrayLiteral,
    ArrayTypeExpr,
    Assign,
    AugAssign,
    BackgroundBlock,
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
    LockStmt,
    Name,
    ParallelBlock,
    ParallelFor,
    Pass,
    PrimitiveTypeExpr,
    RangeLiteral,
    RealLiteral,
    Return,
    StringLiteral,
    Unary,
    UnaryOp,
    While,
)


def parse_fn(body: str, header: str = "def main():"):
    """Parse a single function whose body is the dedented ``body``."""
    indented = textwrap.indent(textwrap.dedent(body).strip("\n"), "    ")
    program = parse_source(f"{header}\n{indented}\n")
    return program.functions[0]


def first_stmt(body: str):
    return parse_fn(body).body.statements[0]


class TestProgramStructure:
    def test_empty_program(self):
        assert parse_source("").functions == []

    def test_comment_only_program(self):
        assert parse_source("# nothing\n").functions == []

    def test_two_functions(self):
        program = parse_source(
            "def a():\n    pass\n\ndef b():\n    pass\n"
        )
        assert [f.name for f in program.functions] == ["a", "b"]

    def test_function_lookup(self):
        program = parse_source("def solo():\n    pass\n")
        assert program.function("solo") is not None
        assert program.function("missing") is None

    def test_top_level_statement_rejected(self):
        with pytest.raises(TetraSyntaxError, match="top level"):
            parse_source("x = 1\n")


class TestFunctionHeaders:
    def test_no_params_no_return(self):
        fn = parse_source("def f():\n    pass\n").functions[0]
        assert fn.params == []
        assert fn.return_type is None

    def test_param_types(self):
        fn = parse_source("def f(a int, b real, c string, d bool):\n    pass\n").functions[0]
        names = [p.name for p in fn.params]
        types = [p.type.name for p in fn.params]
        assert names == ["a", "b", "c", "d"]
        assert types == ["int", "real", "string", "bool"]

    def test_array_param(self):
        fn = parse_source("def f(xs [int]):\n    pass\n").functions[0]
        assert isinstance(fn.params[0].type, ArrayTypeExpr)
        assert fn.params[0].type.element.name == "int"

    def test_nested_array_type(self):
        fn = parse_source("def f(m [[real]]):\n    pass\n").functions[0]
        t = fn.params[0].type
        assert isinstance(t, ArrayTypeExpr)
        assert isinstance(t.element, ArrayTypeExpr)
        assert t.element.element.name == "real"

    def test_return_type(self):
        fn = parse_source("def f() int:\n    return 1\n").functions[0]
        assert isinstance(fn.return_type, PrimitiveTypeExpr)
        assert fn.return_type.name == "int"

    def test_array_return_type(self):
        fn = parse_source("def f() [int]:\n    return [1]\n").functions[0]
        assert isinstance(fn.return_type, ArrayTypeExpr)

    def test_missing_param_type(self):
        with pytest.raises(TetraSyntaxError, match="expected a type"):
            parse_source("def f(x):\n    pass\n")

    def test_missing_colon(self):
        with pytest.raises(TetraSyntaxError, match="':'"):
            parse_source("def f()\n    pass\n")

    def test_missing_indent(self):
        with pytest.raises(TetraSyntaxError, match="indent"):
            parse_source("def f():\npass\n")


class TestStatements:
    def test_assignment(self):
        stmt = first_stmt("x = 5")
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.target, Name)
        assert isinstance(stmt.value, IntLiteral)

    def test_indexed_assignment(self):
        stmt = first_stmt("xs[0] = 5")
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.target, Index)

    def test_augmented_assignments(self):
        for op_text, op in [("+=", BinaryOp.ADD), ("-=", BinaryOp.SUB),
                            ("*=", BinaryOp.MUL), ("/=", BinaryOp.DIV),
                            ("%=", BinaryOp.MOD)]:
            stmt = first_stmt(f"x {op_text} 2")
            assert isinstance(stmt, AugAssign)
            assert stmt.op is op

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(TetraSyntaxError, match="assigned to"):
            first_stmt("5 = x")

    def test_assignment_to_call_rejected(self):
        with pytest.raises(TetraSyntaxError, match="assigned to"):
            first_stmt("f() = 1")

    def test_if_else(self):
        stmt = first_stmt("""
            if x:
                a = 1
            else:
                a = 2
        """)
        assert isinstance(stmt, If)
        assert stmt.orelse is not None
        assert stmt.elifs == []

    def test_if_elif_chain(self):
        stmt = first_stmt("""
            if a:
                x = 1
            elif b:
                x = 2
            elif c:
                x = 3
            else:
                x = 4
        """)
        assert isinstance(stmt, If)
        assert len(stmt.elifs) == 2
        assert stmt.orelse is not None

    def test_if_without_else(self):
        stmt = first_stmt("""
            if x:
                a = 1
        """)
        assert stmt.orelse is None

    def test_while(self):
        stmt = first_stmt("""
            while x < 10:
                x += 1
        """)
        assert isinstance(stmt, While)

    def test_for(self):
        stmt = first_stmt("""
            for item in xs:
                y = item
        """)
        assert isinstance(stmt, For)
        assert stmt.var == "item"

    def test_parallel_block(self):
        stmt = first_stmt("""
            parallel:
                a = 1
                b = 2
        """)
        assert isinstance(stmt, ParallelBlock)
        assert len(stmt.body.statements) == 2

    def test_background_block(self):
        stmt = first_stmt("""
            background:
                a = 1
        """)
        assert isinstance(stmt, BackgroundBlock)

    def test_parallel_for(self):
        stmt = first_stmt("""
            parallel for i in xs:
                y = i
        """)
        assert isinstance(stmt, ParallelFor)
        assert stmt.var == "i"

    def test_lock_statement(self):
        stmt = first_stmt("""
            lock counter:
                x += 1
        """)
        assert isinstance(stmt, LockStmt)
        assert stmt.name == "counter"

    def test_lock_needs_name(self):
        with pytest.raises(TetraSyntaxError, match="lock name"):
            first_stmt("""
                lock:
                    x = 1
            """)

    def test_return_with_and_without_value(self):
        fn = parse_fn("""
            return
        """)
        assert isinstance(fn.body.statements[0], Return)
        assert fn.body.statements[0].value is None
        fn = parse_fn("""
            return 42
        """)
        assert isinstance(fn.body.statements[0].value, IntLiteral)

    def test_break_continue_pass(self):
        fn = parse_fn("""
            while x:
                break
            while x:
                continue
            pass
        """)
        stmts = fn.body.statements
        assert isinstance(stmts[0].body.statements[0], Break)
        assert isinstance(stmts[1].body.statements[0], Continue)
        assert isinstance(stmts[2], Pass)

    def test_call_statement(self):
        stmt = first_stmt('print("hi")')
        assert isinstance(stmt, ExprStmt)
        assert isinstance(stmt.expr, Call)


class TestExpressions:
    def test_literals(self):
        assert isinstance(parse_expression("42"), IntLiteral)
        assert isinstance(parse_expression("4.5"), RealLiteral)
        assert isinstance(parse_expression('"s"'), StringLiteral)
        assert parse_expression("true").value is True
        assert parse_expression("false").value is False

    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op is BinaryOp.ADD
        assert e.right.op is BinaryOp.MUL

    def test_left_associativity(self):
        e = parse_expression("10 - 4 - 3")
        assert e.op is BinaryOp.SUB
        assert isinstance(e.left, BinOp)
        assert e.left.op is BinaryOp.SUB

    def test_power_right_associative(self):
        e = parse_expression("2 ** 3 ** 2")
        assert e.op is BinaryOp.POW
        assert isinstance(e.right, BinOp)
        assert e.right.op is BinaryOp.POW

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-2 ** 2")
        assert isinstance(e, Unary)
        assert e.operand.op is BinaryOp.POW

    def test_power_with_negative_exponent(self):
        e = parse_expression("2 ** -3")
        assert e.op is BinaryOp.POW
        assert isinstance(e.right, Unary)

    def test_comparison_below_arithmetic(self):
        e = parse_expression("a + 1 < b * 2")
        assert e.op is BinaryOp.LT

    def test_logical_precedence(self):
        e = parse_expression("a or b and c")
        assert e.op is BinaryOp.OR
        assert e.right.op is BinaryOp.AND

    def test_not_binds_looser_than_comparison(self):
        e = parse_expression("not a < b")
        assert isinstance(e, Unary)
        assert e.op is UnaryOp.NOT
        assert e.operand.op is BinaryOp.LT

    def test_parentheses_override(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op is BinaryOp.MUL
        assert e.left.op is BinaryOp.ADD

    def test_call_with_arguments(self):
        e = parse_expression("f(1, x, g(2))")
        assert isinstance(e, Call)
        assert len(e.args) == 3
        assert isinstance(e.args[2], Call)

    def test_call_no_arguments(self):
        e = parse_expression("read_int()")
        assert e.args == []

    def test_chained_indexing(self):
        e = parse_expression("m[1][2]")
        assert isinstance(e, Index)
        assert isinstance(e.base, Index)

    def test_index_of_call_result(self):
        e = parse_expression("f()[0]")
        assert isinstance(e, Index)
        assert isinstance(e.base, Call)

    def test_array_literal(self):
        e = parse_expression("[1, 2, 3]")
        assert isinstance(e, ArrayLiteral)
        assert len(e.elements) == 3

    def test_empty_array_literal(self):
        e = parse_expression("[]")
        assert isinstance(e, ArrayLiteral)
        assert e.elements == []

    def test_trailing_comma_tolerated(self):
        e = parse_expression("[1, 2,]")
        assert len(e.elements) == 2

    def test_nested_array_literal(self):
        e = parse_expression("[[1], [2, 3]]")
        assert isinstance(e.elements[0], ArrayLiteral)

    def test_range_literal(self):
        e = parse_expression("[1 ... 100]")
        assert isinstance(e, RangeLiteral)
        assert e.start.value == 1
        assert e.stop.value == 100

    def test_range_with_expressions(self):
        e = parse_expression("[a + 1 ... b * 2]")
        assert isinstance(e, RangeLiteral)
        assert isinstance(e.start, BinOp)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TetraSyntaxError, match="trailing"):
            parse_expression("1 + 2 3")

    def test_unclosed_paren(self):
        with pytest.raises(TetraSyntaxError, match="'\\)'"):
            parse_expression("(1 + 2")


class TestSpans:
    def test_function_span_line(self):
        program = parse_source("\ndef f():\n    pass\n")
        assert program.functions[0].span.line == 2

    def test_statement_spans(self):
        fn = parse_fn("""
            x = 1
            y = 2
        """)
        lines = [s.span.line for s in fn.body.statements]
        assert lines == [2, 3]

    def test_binop_span_covers_operands(self):
        e = parse_expression("abc + defg")
        assert e.span.start == 0
        assert e.span.end == len("abc + defg")


class TestNestingDepth:
    def test_nesting_past_the_recursion_limit_is_a_syntax_error(self,
                                                                tmp_path):
        """An expression nested deeper than Python's recursion limit lets
        the descent go is a syntax error at the token being read, with its
        caret and the compile-error exit code.  The run is a fresh process,
        at the default limit: ``Interpreter.run`` raises the limit for the
        whole process, so in-process results would depend on test order."""
        depth = 100
        path = tmp_path / "deep.ttr"
        path.write_text("def main():\n    a = 1\n"
                        f"    b = {'(' * depth}a{' + 1)' * depth}\n"
                        "    print(b)\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", "run", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert "Traceback" not in result.stderr, result.stderr[-500:]
        lines = result.stderr.splitlines()
        assert lines[0].startswith(f"{path}:3:")
        assert "syntax error: the program nests too deeply" in lines[0]
        column = int(lines[0].split(":")[2])
        assert lines[2].index("^") == lines[1].index("|") + column + 1
        assert result.returncode == exit_code_for(TetraSyntaxError("x"))
