"""The Tetra interpreter: programs run as the generated functions
:mod:`repro.interp.compile` builds from their checked ASTs."""

from .compile import CompiledProgram, compile_program
from .context import ThreadContext
from .control import BREAK, CONTINUE, RETURN
from .interpreter import Interpreter

__all__ = [
    "ThreadContext",
    "BREAK", "CONTINUE", "RETURN",
    "CompiledProgram", "compile_program", "Interpreter",
]
