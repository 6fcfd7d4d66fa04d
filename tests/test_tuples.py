"""Tests for tuples — the last of the paper's future-work built-in types.

Covers the checker's static rules (constant indexing, immutability, arity
matching in unpacking), runtime semantics on every backend, pinned
outputs of whole-feature programs, and unparse round trips.
"""

import textwrap

import pytest

from conftest import run, run_output
from repro.errors import TetraSyntaxError
from repro.parser import parse_source
from repro.source import SourceFile
from repro.tetra_ast import node_equal, unparse
from repro.types import INT, STRING, TupleType, check_program, collect_diagnostics


def errors_of(text: str) -> list[str]:
    text = textwrap.dedent(text)
    source = SourceFile.from_string(text)
    return [e.message for e in collect_diagnostics(parse_source(source), source)]


def reject(text: str, match: str):
    msgs = errors_of(text)
    assert any(match in m for m in msgs), msgs


class TestTupleChecker:
    def test_literal_type(self):
        source = SourceFile.from_string(
            'def main():\n    p = (1, "one")\n'
        )
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("p").type == TupleType((INT, STRING))

    def test_constant_index_types(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                p = (1, "one")
                a = p[0]
                b = p[1]
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        scope = symbols.scope_of("main")
        assert scope.lookup("a").type == INT
        assert scope.lookup("b").type == STRING

    def test_dynamic_index_rejected(self):
        reject("""
            def main():
                p = (1, 2)
                i = 0
                x = p[i]
        """, "constant index")

    def test_out_of_range_index_rejected(self):
        reject("def main():\n    x = (1, 2)[5]\n", "out of range for a 2-tuple")

    def test_element_assignment_rejected(self):
        reject("""
            def main():
                p = (1, 2)
                p[0] = 9
        """, "tuples are immutable")

    def test_unpack_arity_checked(self):
        reject("""
            def main():
                a, b, c = (1, 2)
        """, "cannot unpack a 2-tuple into 3")

    def test_unpack_non_tuple_rejected(self):
        reject("def main():\n    a, b = 5\n", "only tuples can be unpacked")

    def test_unpack_types_flow(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                a, b = (1, "x")
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        scope = symbols.scope_of("main")
        assert scope.lookup("a").type == INT
        assert scope.lookup("b").type == STRING

    def test_unpack_type_conflict(self):
        reject("""
            def main():
                a = "s"
                a, b = (1, 2)
        """, "cannot hold")

    def test_one_tuple_rejected(self):
        with pytest.raises(TetraSyntaxError, match="at least two"):
            parse_source("def main():\n    p = (1,)\n")

    def test_function_returning_tuple(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def pair() (int, int):
                return (1, 2)

            def main():
                a, b = pair()
        """))
        program = parse_source(source)
        check_program(program, source)

    def test_tuple_parameter(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def first(p (int, string)) int:
                return p[0]

            def main():
                print(first((7, "seven")))
        """))
        check_program(parse_source(source), source)

    def test_nested_tuple_type(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                p = ((1, 2), "label")
                inner = p[0]
                x = inner[1]
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("x").type == INT

    def test_tuple_equality_same_shape(self):
        assert errors_of("def main():\n    b = (1, 2) == (3, 4)\n") == []

    def test_tuple_equality_different_shape(self):
        reject("def main():\n    b = (1, 2) == (1, \"a\")\n", "cannot compare")


class TestTupleRuntime:
    def test_literal_and_index(self, any_backend):
        assert run("""
            def main():
                p = (10, "ten", true)
                print(p[0], " ", p[1], " ", p[2])
                print(p)
        """, backend=any_backend) == ["10 ten true", "(10, ten, true)"]

    def test_unpacking(self, any_backend):
        assert run("""
            def main():
                a, b = (1, 2)
                print(a + b)
        """, backend=any_backend) == ["3"]

    def test_multi_return_idiom(self, any_backend):
        assert run("""
            def divmod2(a int, b int) (int, int):
                return (a / b, a % b)

            def main():
                q, r = divmod2(17, 5)
                print(q, " ", r)
        """, backend=any_backend) == ["3 2"]

    def test_unpack_into_array_elements(self):
        assert run("""
            def main():
                xs = [0, 0]
                xs[0], xs[1] = (7, 8)
                print(xs)
        """) == ["[7, 8]"]

    def test_swap_idiom(self):
        assert run("""
            def main():
                a = 1
                b = 2
                a, b = (b, a)
                print(a, " ", b)
        """) == ["2 1"]

    def test_tuple_int_widens_in_real_slot(self):
        assert run("""
            def point() (real, real):
                return (1, 2)

            def main():
                x, y = point()
                print(x, " ", y)
        """) == ["1.0 2.0"]

    def test_tuples_in_arrays(self):
        assert run("""
            def main():
                points = [(1, 2), (3, 4)]
                print(points[1][0])
                print(points)
        """) == ["3", "[(1, 2), (3, 4)]"]

    def test_tuples_as_dict_values(self):
        assert run("""
            def main():
                spans {string: (int, int)} = {}
                spans["a"] = (1, 5)
                lo, hi = spans["a"]
                print(lo, " ", hi)
        """) == ["1 5"]

    def test_tuple_equality(self):
        assert run("""
            def main():
                print((1, 2) == (1, 2), " ", (1, 2) != (1, 3))
        """) == ["true true"]

    def test_str_of_tuple(self):
        assert run("""
            def main():
                print(str((1, 2.5)))
        """) == ["(1, 2.5)"]

    def test_tuple_from_parallel_block(self):
        assert run("""
            def main():
                parallel:
                    p = (1, "a")
                    q = (2, "b")
                print(p[1], q[1])
        """) == ["ab"]


class TestTupleCompiled:
    """Whole-feature programs, their outputs pinned."""

    def test_full_feature_differential(self):
        assert run_output("""
            def stats(xs [int]) (int, int, real):
                total = 0
                hi = xs[0]
                for x in xs:
                    total += x
                    hi = max(hi, x)
                return (total, hi, real(total) / real(len(xs)))

            def main():
                total, hi, mean = stats([4, 8, 6])
                print(total, " ", hi, " ", mean)
                nested = ((1, 2), (3, 4))
                print(nested[0][1], " ", nested)
        """) == '18 8 6.0\n2 ((1, 2), (3, 4))\n'

    def test_unpack_into_elements_differential(self):
        assert run_output("""
            def main():
                xs = [0.0, 0.0]
                xs[0], xs[1] = (1, 2.5)
                print(xs)
        """) == '[1.0, 2.5]\n'


class TestTupleUnparse:
    @pytest.mark.parametrize("text", [
        'def main():\n    p = (1, "a", true)\n',
        'def pair() (int, int):\n    return (1, 2)\n',
        'def main():\n    a, b = (1, 2)\n',
        'def main():\n    p ((int, int), string) = ((1, 2), "x")\n',
        'def f(p (int, [real])) (bool, bool):\n    return (true, false)\n',
    ])
    def test_round_trip(self, text):
        program = parse_source(text)
        assert node_equal(program, parse_source(unparse(program)))

    def test_grouping_parens_not_tuples(self):
        # (1 + 2) is grouping, not a 1-tuple.
        assert run("""
            def main():
                x = (1 + 2) * 3
                print(x)
        """) == ["9"]
