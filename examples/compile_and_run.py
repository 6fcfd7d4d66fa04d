"""The compiler pipeline: Tetra source → C with pthreads (the native tier).

The paper's future-work compiler targets "C with Pthreads"; the native
tier (``repro.compiler.native``) is that compiler.  This script lowers the
primes listing, shows which functions and loops compile and why the rest
stay on the interpreter, then runs the program with the tier on and off.
``tetra compile examples/tetra/primes_2000.ttr`` prints the same C.

Run with:  python examples/compile_and_run.py
"""

from repro import run_source
from repro.api import compile_source
from repro.compiler.native import lower_program
from repro.programs import ALL_PROGRAMS

PRIMES_2000 = ALL_PROGRAMS["primes_2000"]


def main() -> None:
    program, _ = compile_source(PRIMES_2000)
    lowering = lower_program(program, program.symbols)

    print("=== lowered to C ===")
    for name, fn in lowering.functions.items():
        print(f"  function {name} (line {fn.line}) -> {fn.cname}")
    for _node, loop in lowering.loops:
        print(f"  parallel for (line {loop.line}) -> {loop.cname}")
    print("=== stays on the fast path ===")
    for line, reason in lowering.fallbacks:
        print(f"  line {line}: {reason}")
    print(f"({len(lowering.c_source.splitlines())} lines of C)")

    print("\n=== differential check: native tier vs interpreter ===")
    interpreted = run_source(PRIMES_2000, native="off").output
    # "auto" runs the C tier when cc and cffi are present.
    compiled = run_source(PRIMES_2000, native="auto").output
    print(f"interpreted: {interpreted.strip()}")
    print(f"native:      {compiled.strip()}")
    assert interpreted == compiled, "the two execution paths must agree"


if __name__ == "__main__":
    main()
