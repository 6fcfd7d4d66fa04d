"""The Tetra interpreter: programs run as the closure trees
:mod:`repro.interp.compile` builds from their checked ASTs."""

from .compile import CompiledProgram, compile_program
from .context import CallRecord, ThreadContext
from .control import BreakSignal, ContinueSignal, ControlSignal, ReturnSignal
from .interpreter import Interpreter

__all__ = [
    "CallRecord", "ThreadContext",
    "BreakSignal", "ContinueSignal", "ControlSignal", "ReturnSignal",
    "CompiledProgram", "compile_program", "Interpreter",
]
