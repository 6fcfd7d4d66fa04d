"""Property-based tests (hypothesis) on the core invariants.

* parse(unparse(e)) is structurally identical to e, for generated ASTs —
  pins the parser and unparser against each other over the whole grammar.
* The interpreter's arithmetic agrees with a independent Python oracle.
* int_div/int_mod satisfy the C identity on arbitrary operands.
* The lexer round-trips token text and never loses source positions.
* Machine-model makespans respect the Graham scheduling bounds for
  arbitrary fork/join trees, and are monotone in core count.
"""

import textwrap

from hypothesis import given, settings, strategies as st

from repro.api import run_source
from repro.lexer import TokenType, tokenize
from repro.parser import parse_expression, parse_source
from repro.tetra_ast import (
    ArrayLiteral,
    BinaryOp,
    BinOp,
    BoolLiteral,
    Expr,
    IntLiteral,
    Name,
    RealLiteral,
    StringLiteral,
    Unary,
    UnaryOp,
    node_equal,
    unparse,
)
from repro.runtime.cost import FREE_PARALLELISM
from repro.runtime.machine import Machine
from repro.runtime.taskgraph import Fork, Task, Work
from repro.runtime.values import int_div, int_mod


# ----------------------------------------------------------------------
# Expression AST strategies
# ----------------------------------------------------------------------
_names = st.sampled_from(["x", "y", "total", "n2", "value_"])

_int_expr_leaves = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(lambda v: IntLiteral(value=v)),
    _names.map(lambda n: Name(id=n)),
)

_arith_ops = st.sampled_from([
    BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV, BinaryOp.MOD,
    BinaryOp.POW,
])
_compare_ops = st.sampled_from([
    BinaryOp.EQ, BinaryOp.NE, BinaryOp.LT, BinaryOp.LE, BinaryOp.GT,
    BinaryOp.GE,
])
_logic_ops = st.sampled_from([BinaryOp.AND, BinaryOp.OR])


def _exprs(children):
    return st.one_of(
        st.tuples(_arith_ops, children, children).map(
            lambda t: BinOp(op=t[0], left=t[1], right=t[2])
        ),
        st.tuples(_compare_ops, children, children).map(
            lambda t: BinOp(op=t[0], left=t[1], right=t[2])
        ),
        st.tuples(_logic_ops, children, children).map(
            lambda t: BinOp(op=t[0], left=t[1], right=t[2])
        ),
        children.map(lambda c: Unary(op=UnaryOp.NEG, operand=c)),
        children.map(lambda c: Unary(op=UnaryOp.NOT, operand=c)),
        st.lists(children, min_size=1, max_size=3).map(
            lambda es: ArrayLiteral(elements=es)
        ),
    )


expression_asts = st.recursive(
    st.one_of(
        _int_expr_leaves,
        st.booleans().map(lambda b: BoolLiteral(value=b)),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False).map(lambda v: RealLiteral(value=v)),
        st.text(alphabet=st.characters(codec="ascii",
                                       exclude_characters="\x00"),
                max_size=8).map(lambda s: StringLiteral(value=s)),
    ),
    _exprs,
    max_leaves=20,
)


class TestParseUnparseRoundTrip:
    @given(expression_asts)
    @settings(max_examples=300, deadline=None)
    def test_expression_round_trip(self, expr):
        text = unparse(expr)
        again = parse_expression(text)
        assert node_equal(expr, again), text

    @given(st.lists(expression_asts, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_statement_round_trip(self, exprs):
        body = "\n".join(f"    v{i} = {unparse(e)}" for i, e in enumerate(exprs))
        text = f"def main():\n{body}\n"
        program = parse_source(text)
        assert node_equal(program, parse_source(unparse(program)))


class TestArithmeticOracle:
    @given(st.integers(-10**9, 10**9), st.integers(-10**4, 10**4))
    @settings(max_examples=150, deadline=None)
    def test_int_div_mod_identity(self, a, b):
        if b == 0:
            return
        q, r = int_div(a, b), int_mod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)
        # Truncation toward zero: quotient never overshoots.
        assert abs(q) == abs(a) // abs(b)

    @given(st.integers(-100, 100), st.integers(-100, 100),
           st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_interpreter_matches_python_on_int_arithmetic(self, a, b, c):
        # + - * over arbitrary ints agree with Python exactly.
        program = textwrap.dedent(f"""
            def main():
                print({a} + {b} * {c} - ({b} - {a}))
        """)
        expected = a + b * c - (b - a)
        assert run_source(program).output_lines() == [str(expected)]

    @given(st.integers(-50, 50), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_interpreter_div_matches_c_semantics(self, a, b):
        program = f"def main():\n    print({a} / {b}, \" \", {a} % {b})\n"
        q = abs(a) // b * (1 if a >= 0 else -1)
        r = a - q * b
        assert run_source(program).output_lines() == [f"{q} {r}"]

    @given(st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_boolean_algebra(self, p, q, r):
        lit = lambda v: "true" if v else "false"
        program = (
            "def main():\n"
            f"    print(({lit(p)} and {lit(q)}) or not {lit(r)})\n"
        )
        expected = "true" if (p and q) or not r else "false"
        assert run_source(program).output_lines() == [expected]


class TestLexerProperties:
    @given(st.text(alphabet=st.characters(), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_lexer_never_hangs_or_crashes_unexpectedly(self, text):
        from repro.errors import TetraError

        try:
            tokens = tokenize(text)
        except TetraError:
            return  # diagnostics are fine; crashes are not
        assert tokens[-1].type is TokenType.EOF

    @given(st.lists(st.sampled_from(
        ["x", "42", "4.25", '"s"', "+", "-", "(", ")", "[", "]",
         "while", "parallel", "==", "<=", "...", '"a\\tb\\"c\\\\"',
         '"\\n\\0\\r\\\'"', "# note\n", "(\n", "[1,\n  2]", "\n"]),
        min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_token_texts_match_source_slices(self, pieces):
        text = " ".join(pieces) + "\n"
        from repro.errors import TetraError

        try:
            tokens = tokenize(text)
        except TetraError:
            return
        for tok in tokens:
            if tok.type not in (TokenType.NEWLINE, TokenType.INDENT,
                                TokenType.DEDENT, TokenType.EOF):
                assert text[tok.span.start:tok.span.end] == tok.text


# ----------------------------------------------------------------------
# Machine model properties
# ----------------------------------------------------------------------
@st.composite
def task_trees(draw, depth=0):
    task = Task(draw(st.integers(0, 10**6)), "t")
    n_items = draw(st.integers(1, 3 if depth < 2 else 1))
    next_id = task.id
    for _ in range(n_items):
        kind = draw(st.sampled_from(
            ["work", "fork"] if depth < 2 else ["work"]))
        if kind == "work":
            task.items.append(Work(draw(st.integers(1, 100))))
        else:
            children = [draw(task_trees(depth=depth + 1))
                        for _ in range(draw(st.integers(1, 3)))]
            task.items.append(Fork(children, join=draw(st.booleans())))
    return task


def _renumber(root: Task) -> Task:
    for i, task in enumerate(root.walk()):
        task.id = i
    return root


class TestMachineProperties:
    @given(task_trees().map(_renumber), st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_graham_bounds(self, root, cores):
        result = Machine(cores, FREE_PARALLELISM).run(root)
        work = root.subtree_work()
        assert result.makespan <= work + 1e-9
        assert result.makespan >= work / cores - 1e-9
        assert result.makespan >= root.critical_path() - 1e-9

    @given(task_trees().map(_renumber))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_cores(self, root):
        spans = [Machine(m, FREE_PARALLELISM).run(root).makespan
                 for m in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(spans, spans[1:]))

    @given(task_trees().map(_renumber), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, root, cores):
        a = Machine(cores, FREE_PARALLELISM).run(root).makespan
        b = Machine(cores, FREE_PARALLELISM).run(root).makespan
        assert a == b
