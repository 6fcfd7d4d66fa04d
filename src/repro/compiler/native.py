"""The native tier: Tetra → C kernels that escape the interpreter loop.

The paper's stated future work is "a compiler that compiles Tetra code
down to efficient low-level parallel code".  This module is that tier:
type-checked numeric functions and merge-safe ``parallel for`` bodies are
lowered to C, compiled once per program into a shared object (cached on
disk under ``~/.cache/tetra/native``), and invoked through cffi.  Kernel
calls release the GIL, and lowered ``parallel for`` loops run their chunks
on real OS threads *inside* C — multicore speedup with neither the proc
backend's pickling nor Python's interpreter overhead.

Eligibility reuses the static machinery that already exists:

* the checker's types decide what can be lowered (``int``/``real``/``bool``
  scalars and rank-1 arrays of them);
* :mod:`repro.runtime.parplan`'s merge-safety analysis decides which
  ``parallel for`` loops may offload, exactly as for the proc backend;
* every ineligible function or loop falls back to the current fast path
  with a ``(line, reason)`` surfaced in ``--metrics``, like proc fallbacks.

Lowering contract (see DESIGN §2c for the full write-up):

* ``int`` is ``int64_t`` with two's-complement wraparound (``-fwrapv``) —
  the one semantic deviation from Python's big integers.  Function calls
  whose *arguments* don't fit in 64 bits delegate to the Python fallback
  invoker, so the deviation is only observable through in-kernel overflow.
* ``real`` is ``double`` (bit-identical to CPython floats), ``bool`` is
  ``int64_t`` 0/1.
* Arrays are marshalled by copy (pointer + length); element stores are
  copied back only on success.  A kernel that errors mid-loop does not
  write partial results back — a deviation from the walker observable only
  through ``try``-recovered state.
* Runtime errors (division by zero, index out of range, sqrt domain) latch
  an error code + line in a shared ``tt_ctx`` struct; every loop back-edge
  polls it, so errors and time-limit/cancel interrupts stop hot C loops
  within ~1024 iterations.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from ..errors import (
    TetraIndexError,
    TetraNativeError,
    TetraRuntimeError,
    TetraZeroDivisionError,
)
from ..runtime.parplan import plan_parallel_for
from ..runtime.values import TetraArray
from ..source import Span
from ..tetra_ast import (
    Assign,
    AugAssign,
    BinaryOp,
    BinOp,
    Block,
    BoolLiteral,
    Break,
    Call,
    Continue,
    Declare,
    ExprStmt,
    For,
    If,
    Index,
    IntLiteral,
    LockStmt,
    Name,
    ParallelFor,
    Pass,
    RangeLiteral,
    RealLiteral,
    Return,
    Unary,
    UnaryOp,
    While,
    walk,
)
from ..types import BOOL, INT, REAL, VOID, ArrayType, BoolType, IntType, RealType

#: Bumped whenever the C runtime protocol (tt_ctx layout, helper
#: signatures, kernel calling convention) changes; stale on-disk artifacts
#: with a different ABI recompile cold instead of erroring.
ABI_VERSION = 1

#: Cached shared objects beyond this count are evicted oldest-first.
CACHE_MAX_ENTRIES = 64

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_SCALARS = (IntType, RealType, BoolType)


def _ctype(ty) -> str:
    return "double" if isinstance(ty, RealType) else "int64_t"


def _is_scalar(ty) -> bool:
    return isinstance(ty, _SCALARS)


def _is_scalar_array(ty) -> bool:
    return isinstance(ty, ArrayType) and _is_scalar(ty.element)


# ----------------------------------------------------------------------
# Toolchain probe
# ----------------------------------------------------------------------
_probe_lock = threading.Lock()
_probed: tuple[bool, str] | None = None


def find_compiler() -> str | None:
    """Path of a working C compiler, or None (probed once per process)."""
    global _probed
    with _probe_lock:
        if _probed is None:
            cc = next(
                (found for name in ("cc", "gcc", "clang")
                 if (found := shutil.which(name))),
                None,
            )
            _probed = (cc is not None, cc or "")
        return _probed[1] if _probed[0] else None


# ----------------------------------------------------------------------
# Per-run state (surfaced in --metrics)
# ----------------------------------------------------------------------
@dataclass
class NativeState:
    """What the native tier did (or why it didn't) during one run."""

    mode: str
    enabled: bool = False
    #: One-line reason the tier is disabled for this run ("" when enabled).
    notice: str = ""
    compiler: str = ""
    #: True when the shared object came from the on-disk artifact cache.
    cache_hit: bool | None = None
    functions: list[str] = field(default_factory=list)
    parallel_loops: int = 0
    calls: int = 0
    parallel_calls: int = 0
    #: (line, reason) for every function/loop that stayed on the fast path.
    fallbacks: list[tuple[int, str]] = field(default_factory=list)
    _seen: set[tuple[int, str]] = field(default_factory=set)

    def note_fallback(self, line: int, reason: str) -> None:
        key = (line, reason)
        if key not in self._seen:
            self._seen.add(key)
            self.fallbacks.append(key)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "enabled": self.enabled,
            "notice": self.notice,
            "compiler": self.compiler,
            "cache_hit": self.cache_hit,
            "functions": list(self.functions),
            "parallel_loops": self.parallel_loops,
            "calls": self.calls,
            "parallel_calls": self.parallel_calls,
            "fallbacks": [list(f) for f in self.fallbacks],
        }


class _Ineligible(Exception):
    """Raised during emission when a construct cannot be lowered; the
    message is the human-readable fallback reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class _CFn:
    """One lowered function: its C name and marshalling signature."""

    name: str
    cname: str
    param_names: tuple[str, ...]
    param_types: tuple  # semantic types, parallel to param_names
    return_type: object
    line: int


@dataclass
class _CLoop:
    """One lowered ``parallel for``: kernel name and environment layout."""

    cname: str
    var: str
    var_ty: object
    #: Non-reduction free variables the body reads: (name, semantic type).
    env: tuple
    #: Reductions merged back by the parent: (name, "sum"|"min"|"max", ty).
    reductions: tuple
    line: int
    #: sha of the owning module's C source — pairs the annotation on the
    #: (shared, cached) AST node with the right compiled artifact.
    module_key: str = ""


@dataclass
class Lowering:
    """The pure result of lowering a program (no toolchain involved)."""

    c_source: str
    cdef: str
    functions: dict  # name -> _CFn
    loops: list  # (ParallelFor node, _CLoop)
    fallbacks: list  # (line, reason)
    line_spans: dict  # line -> Span, for reconstructing error spans

    @property
    def key(self) -> str:
        return hashlib.sha256(self.c_source.encode()).hexdigest()[:16]


@dataclass
class NativeModule:
    """A compiled-and-loaded shared object plus its cffi handles."""

    lowering: Lowering
    ffi: object
    lib: object
    so_path: str
    cache_hit: bool


# ----------------------------------------------------------------------
# Artifact cache + build
# ----------------------------------------------------------------------
class BuildError(Exception):
    pass


def _abi_tag() -> str:
    return f"abi{ABI_VERSION}-{sys.platform}-{platform.machine()}"


def cache_dir() -> str:
    override = os.environ.get("TETRA_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "tetra", "native")


def _evict_lru(directory: str) -> None:
    """Drop the oldest cached artifacts beyond CACHE_MAX_ENTRIES."""
    try:
        entries = [
            (os.path.getmtime(p), p)
            for name in os.listdir(directory)
            if name.endswith(".so")
            and os.path.isfile(p := os.path.join(directory, name))
        ]
    except OSError:
        return
    entries.sort()
    for _, path in entries[:max(0, len(entries) - CACHE_MAX_ENTRIES)]:
        try:
            os.unlink(path)
        except OSError:
            pass


def _compile_so(cc: str, c_source: str, out_path: str) -> None:
    """Compile ``c_source`` to ``out_path`` crash-atomically.

    The object is built in a temp directory and moved into place with
    ``os.replace`` (same discipline as serve/cache.py), so a crashed or
    concurrent build can never leave a half-written .so behind.
    """
    directory = os.path.dirname(out_path)
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        c_path = os.path.join(tmp, "kernel.c")
        so_tmp = os.path.join(tmp, "kernel.so")
        with open(c_path, "w") as fh:
            fh.write(c_source)
        # -fwrapv makes signed int64 overflow well-defined wraparound —
        # part of the lowering contract, not an optimization knob.
        cmd = [cc, "-O2", "-fwrapv", "-shared", "-fPIC",
               "-o", so_tmp, c_path, "-lpthread", "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(
                f"C compilation failed ({cc}):\n{proc.stderr.strip()[:2000]}"
            )
        os.replace(so_tmp, out_path)
    _evict_lru(directory)


#: Loaded modules by lowering key: a shared object is dlopened once per
#: process no matter how many runs share the program.
_modules_lock = threading.Lock()
_modules: dict[str, NativeModule] = {}


def load_module(lowering: Lowering, cc: str) -> NativeModule:
    """Return a loaded NativeModule for ``lowering``, building if needed."""
    key = lowering.key
    with _modules_lock:
        cached = _modules.get(key)
        if cached is not None:
            return cached
        from cffi import FFI

        so_path = os.path.join(cache_dir(), f"{key}-{_abi_tag()}.so")
        module = None
        if os.path.exists(so_path):
            try:
                ffi = FFI()
                ffi.cdef(lowering.cdef)
                lib = ffi.dlopen(so_path)
                if lib.tt_abi() != ABI_VERSION:
                    raise BuildError("stale ABI")
                os.utime(so_path)  # LRU touch
                module = NativeModule(lowering, ffi, lib, so_path, True)
            except Exception:
                # Corrupt or stale-ABI artifact: recompile cold.
                try:
                    os.unlink(so_path)
                except OSError:
                    pass
                module = None
        if module is None:
            _compile_so(cc, lowering.c_source, so_path)
            ffi = FFI()
            ffi.cdef(lowering.cdef)
            lib = ffi.dlopen(so_path)
            if lib.tt_abi() != ABI_VERSION:
                raise BuildError(
                    "freshly built artifact reports a mismatched ABI"
                )
            module = NativeModule(lowering, ffi, lib, so_path, False)
        _modules[key] = module
        return module


def _reset_for_tests() -> None:
    """Forget the toolchain probe and loaded modules (test isolation)."""
    global _probed
    with _probe_lock:
        _probed = None
    with _modules_lock:
        _modules.clear()
    # A dropped module's shared object stays mapped until its cffi handle
    # is finalized, and dlopen of a still-mapped path returns the old
    # mapping without reading the file again. Collect now so the next
    # load sees what is on disk, as a fresh process would.
    gc.collect()


# ----------------------------------------------------------------------
# Error mapping (C error codes -> Tetra exceptions)
# ----------------------------------------------------------------------
def _map_error(code: int, a: int, b: int, span: Span):
    if code == 1:
        return TetraZeroDivisionError("integer division by zero", span)
    if code == 2:
        return TetraZeroDivisionError("integer modulo by zero", span)
    if code == 3:
        return TetraZeroDivisionError("division by zero", span)
    if code == 4:
        return TetraZeroDivisionError("modulo by zero", span)
    if code == 5:
        return TetraIndexError(
            f"index {a} is out of range for an array of length {b} "
            f"(valid indexes are 0 through {b - 1})",
            span,
        )
    if code == 6:
        return TetraRuntimeError(
            "sqrt() is not defined for negative numbers", span
        )
    if code == 7:
        return TetraRuntimeError(
            "result does not fit in a 64-bit integer "
            "(native-tier integer range)",
            span,
        )
    return TetraRuntimeError(
        f"native kernel failed (internal error code {code})", span
    )


# ----------------------------------------------------------------------
# Guard watcher: interrupts hot C loops from the Python side
# ----------------------------------------------------------------------
class _Watcher:
    """Polls the run's ExecutionGuard while a C kernel is executing.

    C kernels release the GIL, so time limits and cancellation cannot
    fire at Tetra statement boundaries the way they do in the
    interpreter.  Instead, each in-flight kernel registers its ``tt_ctx``
    here; a lazy daemon thread polls the guard every ~20ms and, when it
    raises, stores the exception and sets ``ctx.stop`` — which every C
    loop back-edge checks — so the kernel unwinds within ~1024
    iterations and the stored exception is re-raised in the caller.
    """

    _POLL_SECONDS = 0.02
    _LINGER_SECONDS = 0.25

    def __init__(self, interp):
        self.interp = interp
        self._cond = threading.Condition()
        self._entries: dict[int, list] = {}  # token -> [cctx, ctx, span, exc]
        self._next_token = 0
        self._thread = None

    def watch(self, cctx, ctx, span) -> int:
        with self._cond:
            token = self._next_token
            self._next_token += 1
            self._entries[token] = [cctx, ctx, span, None]
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="tetra-native-watcher", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
            return token

    def unwatch(self, token: int):
        """Deregister; returns the guard exception caught mid-kernel, if any."""
        with self._cond:
            entry = self._entries.pop(token, None)
            return entry[3] if entry is not None else None

    def _loop(self) -> None:
        guard = self.interp._guard
        idle_rounds = int(self._LINGER_SECONDS / self._POLL_SECONDS)
        idle = 0
        while True:
            with self._cond:
                if not self._entries:
                    idle += 1
                    if idle > idle_rounds:
                        self._thread = None
                        return
                    self._cond.wait(self._POLL_SECONDS)
                    continue
                idle = 0
                entries = list(self._entries.values())
            for entry in entries:
                cctx, ctx, span, exc = entry
                if exc is not None:
                    continue
                try:
                    guard.check(ctx, span)
                except Exception as caught:
                    with self._cond:
                        entry[3] = caught
                        cctx.stop = 1
            with self._cond:
                self._cond.wait(self._POLL_SECONDS)


# ----------------------------------------------------------------------
# C emission
# ----------------------------------------------------------------------
class _ScalarRef:
    __slots__ = ("code", "ty", "writable")

    def __init__(self, code, ty, writable):
        self.code = code
        self.ty = ty
        self.writable = writable


class _ArrayRef:
    __slots__ = ("buf", "length", "elem")

    def __init__(self, buf, length, elem):
        self.buf = buf
        self.length = length
        self.elem = elem


_ARITH_SYMBOLS = {BinaryOp.ADD: "+", BinaryOp.SUB: "-", BinaryOp.MUL: "*"}
_CMP_SYMBOLS = {
    BinaryOp.EQ: "==", BinaryOp.NE: "!=", BinaryOp.LT: "<",
    BinaryOp.LE: "<=", BinaryOp.GT: ">", BinaryOp.GE: ">=",
}


class _Emitter:
    """Emits one C function body (a lowered function or a loop kernel)."""

    def __init__(self, callables: dict, resolve, line_spans: dict,
                 in_parallel_body: bool = False):
        self.callables = callables
        self.resolve = resolve
        self.line_spans = line_spans
        self.in_parallel_body = in_parallel_body
        self.lines: list[str] = []
        self.depth = 1
        self.loop_depth = 0
        self._tmp = 0

    # -- plumbing ------------------------------------------------------
    def out(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def _line(self, node) -> int:
        line = node.span.line
        self.line_spans.setdefault(line, node.span)
        return line

    def _temp(self, prefix: str) -> str:
        self._tmp += 1
        return f"_{prefix}{self._tmp}"

    def _scalar(self, name: str, node) -> _ScalarRef:
        ref = self.resolve(name)
        if isinstance(ref, _ArrayRef):
            raise _Ineligible(
                f"array '{name}' used as a value (only indexing, len(), "
                "and whole-array arguments are lowered)"
            )
        return ref

    def _array(self, e) -> _ArrayRef:
        if not isinstance(e, Name):
            raise _Ineligible(
                "array expressions other than plain variables are not lowered"
            )
        ref = self.resolve(e.id)
        if not isinstance(ref, _ArrayRef):
            raise _Ineligible(f"'{e.id}' is not an array variable")
        return ref

    # -- expressions ---------------------------------------------------
    def expr(self, e) -> tuple[str, object]:
        if isinstance(e, IntLiteral):
            if not _INT64_MIN < e.value <= _INT64_MAX:
                raise _Ineligible("integer literal does not fit in 64 bits")
            return f"INT64_C({e.value})", INT
        if isinstance(e, RealLiteral):
            text = repr(float(e.value))
            if not any(c in text for c in ".e"):
                text += ".0"
            return text, REAL
        if isinstance(e, BoolLiteral):
            return ("INT64_C(1)" if e.value else "INT64_C(0)"), BOOL
        if isinstance(e, Name):
            ref = self._scalar(e.id, e)
            return ref.code, ref.ty
        if isinstance(e, Unary):
            return self._unary(e)
        if isinstance(e, BinOp):
            lc, lt = self.expr(e.left)
            rc, rt = self.expr(e.right)
            return self._binop(e.op, lc, lt, rc, rt, self._line(e))
        if isinstance(e, Index):
            arr = self._array(e.base)
            idx, idx_ty = self.expr(e.index)
            if not isinstance(idx_ty, IntType):
                raise _Ineligible("array index is not an int")
            line = self._line(e)
            code = (f"{arr.buf}[tt_idx(ctx, {arr.length}, {idx}, {line})]")
            return code, arr.elem
        if isinstance(e, Call):
            return self._call(e)
        raise _Ineligible(f"{type(e).__name__} expressions are not lowered")

    def _unary(self, e) -> tuple[str, object]:
        code, ty = self.expr(e.operand)
        if e.op is UnaryOp.NOT:
            return f"(int64_t)(!({code}))", BOOL
        if not ty.is_numeric:
            raise _Ineligible("unary +/- on a non-numeric value")
        if e.op is UnaryOp.POS:
            return code, ty
        if isinstance(ty, RealType):
            return f"(-({code}))", REAL
        return f"tt_ineg({code})", INT

    def _binop(self, op, lc, lt, rc, rt, line) -> tuple[str, object]:
        if op in _CMP_SYMBOLS:
            if isinstance(lt, ArrayType) or isinstance(rt, ArrayType):
                raise _Ineligible("array comparison is not lowered")
            return f"(int64_t)(({lc}) {_CMP_SYMBOLS[op]} ({rc}))", BOOL
        if op is BinaryOp.AND:
            return f"(int64_t)(({lc}) && ({rc}))", BOOL
        if op is BinaryOp.OR:
            return f"(int64_t)(({lc}) || ({rc}))", BOOL
        if op is BinaryOp.POW:
            raise _Ineligible("'^' (power) is not lowered")
        if not (lt.is_numeric and rt.is_numeric):
            raise _Ineligible("arithmetic on non-numeric values is not lowered")
        real = isinstance(lt, RealType) or isinstance(rt, RealType)
        out_ty = REAL if real else INT
        if op is BinaryOp.DIV:
            if real:
                return (f"tt_rdiv(ctx, (double)({lc}), (double)({rc}), "
                        f"{line})"), REAL
            return f"tt_idiv(ctx, {lc}, {rc}, {line})", INT
        if op is BinaryOp.MOD:
            if real:
                return (f"tt_rmod(ctx, (double)({lc}), (double)({rc}), "
                        f"{line})"), REAL
            return f"tt_imod(ctx, {lc}, {rc}, {line})", INT
        sym = _ARITH_SYMBOLS[op]
        return f"(({lc}) {sym} ({rc}))", out_ty

    def _call(self, e) -> tuple[str, object]:
        meta = self.callables.get(e.func)
        if meta is not None:
            args = []
            for arg, want in zip(e.args, meta.param_types):
                if isinstance(want, ArrayType):
                    arr = self._array(arg)
                    args.append(arr.buf)
                    args.append(arr.length)
                else:
                    code, ty = self.expr(arg)
                    if isinstance(want, RealType):
                        code = f"(double)({code})"
                    args.append(code)
            call = f"{meta.cname}(ctx" + "".join(f", {a}" for a in args) + ")"
            return call, meta.return_type
        return self._builtin(e)

    def _builtin(self, e) -> tuple[str, object]:
        name = e.func
        line = self._line(e)
        if name == "len":
            if len(e.args) != 1:
                raise _Ineligible("len() with unexpected arity")
            arr = self._array(e.args[0])
            return arr.length, INT
        if name == "sqrt":
            code, _ = self.expr(e.args[0])
            return f"tt_sqrt(ctx, (double)({code}), {line})", REAL
        if name in ("floor", "ceil", "round"):
            code, _ = self.expr(e.args[0])
            return f"tt_{name}(ctx, (double)({code}), {line})", INT
        if name == "abs":
            code, ty = self.expr(e.args[0])
            if not ty.is_numeric:
                raise _Ineligible("abs() on a non-numeric value")
            if isinstance(ty, RealType):
                return f"fabs({code})", REAL
            return f"tt_iabs({code})", INT
        if name in ("min", "max"):
            (ac, at), (bc, bt) = self.expr(e.args[0]), self.expr(e.args[1])
            if not (at.is_numeric and bt.is_numeric):
                raise _Ineligible(f"{name}() on non-numeric values")
            if isinstance(at, RealType) or isinstance(bt, RealType):
                fn = "fmin" if name == "min" else "fmax"
                return f"{fn}((double)({ac}), (double)({bc}))", REAL
            return f"tt_i{name}({ac}, {bc})", INT
        raise _Ineligible(f"calls '{name}', which is not lowered")

    # -- statements ----------------------------------------------------
    def block(self, body: Block) -> None:
        for s in body.statements:
            self.stmt(s)

    def stmt(self, s) -> None:
        if isinstance(s, Assign):
            self._assign(s.target, *self.expr(s.value), s)
        elif isinstance(s, AugAssign):
            self._aug_assign(s)
        elif isinstance(s, Declare):
            self._declare(s)
        elif isinstance(s, If):
            self._if(s)
        elif isinstance(s, While):
            cond, _ = self.expr(s.cond)
            self.out(f"while ({cond}) {{")
            self._loop_body(s.body)
            self.out("}")
        elif isinstance(s, For):
            self._for(s)
        elif isinstance(s, Return):
            self._return(s)
        elif isinstance(s, Break):
            if self.loop_depth == 0:
                raise _Ineligible("break outside a lowered loop")
            self.out("break;")
        elif isinstance(s, Continue):
            if self.loop_depth == 0:
                raise _Ineligible("continue outside a lowered loop")
            self.out("continue;")
        elif isinstance(s, Pass):
            self.out(";")
        elif isinstance(s, ExprStmt):
            code, _ = self.expr(s.expr)
            self.out(f"(void)({code});")
        elif isinstance(s, LockStmt):
            if not self.in_parallel_body:
                raise _Ineligible("lock statements are not lowered here")
            # parplan guarantees ok-plan lock bodies are reduction idioms
            # over worker-local accumulators, so the lock itself vanishes.
            self.block(s.body)
        else:
            raise _Ineligible(
                f"{type(s).__name__} statements are not lowered"
            )

    def _assign(self, target, code, val_ty, s) -> None:
        if isinstance(target, Name):
            ref = self._scalar(target.id, s)
            if not ref.writable:
                raise _Ineligible(
                    f"assigns shared variable '{target.id}' "
                    "inside a parallel body"
                )
            self.out(f"{ref.code} = {self._coerce(code, val_ty, ref.ty)};")
            return
        if isinstance(target, Index):
            arr = self._array(target.base)
            idx, _ = self.expr(target.index)
            line = self._line(s)
            store = self._coerce(code, val_ty, arr.elem)
            self.out(
                f"{arr.buf}[tt_idx(ctx, {arr.length}, {idx}, {line})]"
                f" = {store};"
            )
            return
        raise _Ineligible("assignment target is not lowered")

    def _aug_assign(self, s) -> None:
        vc, vt = self.expr(s.value)
        line = self._line(s)
        if isinstance(s.target, Name):
            ref = self._scalar(s.target.id, s)
            if not ref.writable:
                raise _Ineligible(
                    f"assigns shared variable '{s.target.id}' "
                    "inside a parallel body"
                )
            code, ty = self._binop(s.op, ref.code, ref.ty, vc, vt, line)
            self.out(f"{ref.code} = {self._coerce(code, ty, ref.ty)};")
            return
        if isinstance(s.target, Index):
            arr = self._array(s.target.base)
            idx, _ = self.expr(s.target.index)
            tmp = self._temp("ix")
            self.out("{")
            self.depth += 1
            self.out(
                f"int64_t {tmp} = tt_idx(ctx, {arr.length}, {idx}, {line});"
            )
            code, ty = self._binop(
                s.op, f"{arr.buf}[{tmp}]", arr.elem, vc, vt, line
            )
            self.out(
                f"{arr.buf}[{tmp}] = {self._coerce(code, ty, arr.elem)};"
            )
            self.depth -= 1
            self.out("}")
            return
        raise _Ineligible("augmented assignment target is not lowered")

    def _declare(self, s) -> None:
        ref = self._scalar(s.name, s)
        if not ref.writable:
            raise _Ineligible(f"declares shared variable '{s.name}'")
        if s.value is not None:
            code, ty = self.expr(s.value)
            self.out(f"{ref.code} = {self._coerce(code, ty, ref.ty)};")

    def _if(self, s) -> None:
        cond, _ = self.expr(s.cond)
        self.out(f"if ({cond}) {{")
        self.depth += 1
        self.block(s.then)
        self.depth -= 1
        for clause in s.elifs:
            cond, _ = self.expr(clause.cond)
            self.out(f"}} else if ({cond}) {{")
            self.depth += 1
            self.block(clause.body)
            self.depth -= 1
        if s.orelse is not None and s.orelse.statements:
            self.out("} else {")
            self.depth += 1
            self.block(s.orelse)
            self.depth -= 1
        self.out("}")

    def _for(self, s) -> None:
        if not isinstance(s.iterable, RangeLiteral):
            raise _Ineligible(
                "only 'for ... in [a ... b]' ranges are lowered"
            )
        ref = self._scalar(s.var, s)
        if not (ref.writable and isinstance(ref.ty, IntType)):
            raise _Ineligible(f"loop variable '{s.var}' is not a local int")
        lo_code, lo_ty = self.expr(s.iterable.start)
        hi_code, hi_ty = self.expr(s.iterable.stop)
        if not (isinstance(lo_ty, IntType) and isinstance(hi_ty, IntType)):
            raise _Ineligible("range bounds are not ints")
        lo, hi = self._temp("lo"), self._temp("hi")
        it = self._temp("it")
        self.out("{")
        self.depth += 1
        self.out(f"int64_t {lo} = {lo_code};")
        self.out(f"int64_t {hi} = {hi_code};")
        # The walker iterates over the *materialized* range, assigning
        # the loop variable each pass — so a body that writes it (or a
        # same-named nested loop) must not perturb this loop's own
        # progress.  A hidden counter drives the loop; the visible
        # variable is a per-iteration copy, and after the loop it keeps
        # the last item, exactly like the walker.
        self.out(f"for (int64_t {it} = {lo}; {it} <= {hi}; {it}++) {{")
        self.depth += 1
        self.out(f"{ref.code} = {it};")
        self.depth -= 1
        self._loop_body(s.body)
        self.out("}")
        self.depth -= 1
        self.out("}")

    def _loop_body(self, body: Block) -> None:
        self.depth += 1
        self.out("TT_CHECK")
        self.loop_depth += 1
        self.block(body)
        self.loop_depth -= 1
        self.depth -= 1

    def _return(self, s) -> None:
        if s.value is None:
            self.out("return;" if self.ret_ty is VOID else "return 0;")
            return
        if self.ret_ty is VOID:
            code, _ = self.expr(s.value)
            self.out(f"(void)({code});")
            self.out("return;")
            return
        code, ty = self.expr(s.value)
        self.out(f"return {self._coerce(code, ty, self.ret_ty)};")

    ret_ty = VOID  # overridden per function

    def _coerce(self, code: str, have, want) -> str:
        if isinstance(want, RealType) and not isinstance(have, RealType):
            return f"(double)({code})"
        if not isinstance(want, RealType) and isinstance(have, RealType):
            raise _Ineligible("implicit real-to-int narrowing is not lowered")
        return code


def _always_returns(block: Block) -> bool:
    """Conservative 'every path ends in return' check: a non-void native
    function may not fall off its end (the walker would return nothing)."""
    for s in reversed(block.statements):
        if isinstance(s, Pass):
            continue
        if isinstance(s, Return):
            return True
        if isinstance(s, If):
            if s.orelse is None:
                return False
            branches = [s.then] + [c.body for c in s.elifs] + [s.orelse]
            return all(_always_returns(b) for b in branches)
        return False
    return False


# ----------------------------------------------------------------------
# C runtime prelude (error protocol + checked helpers)
# ----------------------------------------------------------------------
_C_PRELUDE = """\
#include <stdint.h>
#include <math.h>
#include <stdlib.h>
#include <pthread.h>

typedef struct {
    volatile int64_t stop;
    volatile int64_t err;
    volatile int64_t err_line;
    volatile int64_t err_a;
    volatile int64_t err_b;
} tt_ctx;

int64_t tt_abi(void) { return @ABI@; }

/* First error wins; later failures in other workers are dropped. */
static void tt_fail(tt_ctx *c, int64_t code, int64_t line,
                    int64_t a, int64_t b) {
    if (!c->err) {
        c->err_line = line;
        c->err_a = a;
        c->err_b = b;
        c->err = code;
    }
}

/* Polled at every loop back-edge: stops hot loops on error or interrupt. */
#define TT_CHECK if (((++_tick) & 1023) == 0 && (ctx->stop | ctx->err)) break;

static int64_t tt_ineg(int64_t a) { return (int64_t)(0 - (uint64_t)a); }

static int64_t tt_idiv(tt_ctx *c, int64_t a, int64_t b, int64_t line) {
    if (b == 0) { tt_fail(c, 1, line, 0, 0); return 0; }
    if (b == -1) return tt_ineg(a);  /* INT64_MIN / -1 would trap */
    return a / b;  /* C99: truncation toward zero, same as Tetra int_div */
}

static int64_t tt_imod(tt_ctx *c, int64_t a, int64_t b, int64_t line) {
    if (b == 0) { tt_fail(c, 2, line, 0, 0); return 0; }
    if (b == -1) return 0;
    return a % b;  /* C99: sign of dividend, same as Tetra int_mod */
}

static double tt_rdiv(tt_ctx *c, double a, double b, int64_t line) {
    if (b == 0.0) { tt_fail(c, 3, line, 0, 0); return 0.0; }
    return a / b;
}

static double tt_rmod(tt_ctx *c, double a, double b, int64_t line) {
    if (b == 0.0) { tt_fail(c, 4, line, 0, 0); return 0.0; }
    return fmod(a, b);
}

/* Buffers are always allocated with at least one element, so the
 * error-path index 0 reads allocated memory while the error latches. */
static int64_t tt_idx(tt_ctx *c, int64_t n, int64_t i, int64_t line) {
    if (i < 0 || i >= n) { tt_fail(c, 5, line, i, n); return 0; }
    return i;
}

static double tt_sqrt(tt_ctx *c, double x, int64_t line) {
    if (x < 0.0) { tt_fail(c, 6, line, 0, 0); return 0.0; }
    return sqrt(x);
}

static int64_t tt_f2i(tt_ctx *c, double f, int64_t line) {
    if (!(f >= -9223372036854775808.0 && f < 9223372036854775808.0)) {
        tt_fail(c, 7, line, 0, 0);
        return 0;
    }
    return (int64_t)f;
}

static int64_t tt_floor(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, floor(x), line);
}

static int64_t tt_ceil(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, ceil(x), line);
}

/* Tetra round(): nearest int, ties away from zero (mathlib round). */
static int64_t tt_round(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5), line);
}

static int64_t tt_iabs(int64_t a) { return a < 0 ? tt_ineg(a) : a; }
static int64_t tt_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static int64_t tt_imax(int64_t a, int64_t b) { return a > b ? a : b; }
"""


def _c_prelude() -> str:
    return _C_PRELUDE.replace("@ABI@", str(ABI_VERSION))


# ----------------------------------------------------------------------
# Lowering: functions
# ----------------------------------------------------------------------
def _check_signature(sig) -> None:
    for pname, pty in zip(sig.param_names, sig.param_types):
        if not (_is_scalar(pty) or _is_scalar_array(pty)):
            raise _Ineligible(
                f"parameter '{pname}' has type {pty}, which is not lowered"
            )
    ret = sig.return_type
    if not (ret is VOID or _is_scalar(ret)):
        raise _Ineligible(
            f"return type {ret} is not lowered"
        )


def _check_locals(scope) -> None:
    for name in scope.names():
        info = scope.lookup(name)
        ty = info.type
        if _is_scalar(ty):
            continue
        if _is_scalar_array(ty):
            if info.is_parameter:
                continue
            raise _Ineligible(
                f"local array '{name}' would need allocation inside C"
            )
        raise _Ineligible(
            f"variable '{name}' has type {ty}, which is not lowered"
        )


def _fn_signature_text(meta) -> str:
    params = ["tt_ctx *ctx"]
    for pname, pty in zip(meta.param_names, meta.param_types):
        if isinstance(pty, ArrayType):
            params.append(f"{_ctype(pty.element)} *v_{pname}")
            params.append(f"int64_t v_{pname}_n")
        else:
            params.append(f"{_ctype(pty)} v_{pname}")
    ret = ("void" if meta.return_type is VOID
           else _ctype(meta.return_type))
    return f"{ret} {meta.cname}({', '.join(params)})"


def _emit_function(fn, sig, scope, callables: dict,
                   line_spans: dict) -> str:
    """Emit the C definition of one eligible function (or raise
    _Ineligible with the reason it cannot be lowered)."""
    ret = sig.return_type
    if ret is not VOID and not _always_returns(fn.body):
        raise _Ineligible(
            "a path may fall off the end without returning a value"
        )

    def resolve(name):
        info = scope.lookup(name)
        if info is None:
            raise _Ineligible(f"unknown variable '{name}'")
        ty = info.type
        if isinstance(ty, ArrayType):
            return _ArrayRef(f"v_{name}", f"v_{name}_n", ty.element)
        return _ScalarRef(f"v_{name}", ty, True)

    em = _Emitter(callables, resolve, line_spans)
    em.ret_ty = ret
    em.block(fn.body)

    meta = callables[fn.name]
    lines = [_fn_signature_text(meta) + " {"]
    lines.append("    int64_t _tick = 0; (void)_tick;")
    params = set(sig.param_names)
    for name in scope.names():
        if name in params:
            continue
        ty = scope.lookup(name).type
        lines.append(f"    {_ctype(ty)} v_{name} = 0;")
    lines.extend(em.lines)
    if ret is VOID:
        lines.append("    return;")
    else:
        lines.append(f"    return ({_ctype(ret)})0;")
    lines.append("}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering: parallel-for kernels
# ----------------------------------------------------------------------
def _loop_signature_text(meta) -> str:
    item_c = _ctype(meta.var_ty)
    params = [
        "tt_ctx *ctx", "int64_t nworkers", "int64_t *starts",
        "int64_t *counts", f"{item_c} *items",
    ]
    for name, ty in meta.env:
        if isinstance(ty, ArrayType):
            params.append(f"{_ctype(ty.element)} *v_{name}")
            params.append(f"int64_t v_{name}_n")
        else:
            params.append(f"{_ctype(ty)} v_{name}")
    for name, _op, ty in meta.reductions:
        params.append(f"{_ctype(ty)} init_{name}")
        params.append(f"{_ctype(ty)} *out_{name}")
    return f"int64_t {meta.cname}({', '.join(params)})"


def _emit_loop(stmt, meta, program, callables: dict,
               line_spans: dict) -> str:
    rednames = {name for name, _op, _ty in meta.reductions}
    redtypes = {name: ty for name, _op, ty in meta.reductions}
    env_map = dict(meta.env)
    var = meta.var

    def resolve(name):
        if name == var:
            return _ScalarRef(f"v_{var}", meta.var_ty, True)
        if name in rednames:
            return _ScalarRef(f"r_{name}", redtypes[name], True)
        ty = env_map.get(name)
        if ty is None:
            raise _Ineligible(
                f"variable '{name}' is not available inside the kernel"
            )
        if isinstance(ty, ArrayType):
            return _ArrayRef(f"v_{name}", f"v_{name}_n", ty.element)
        return _ScalarRef(f"v_{name}", ty, False)

    em = _Emitter(callables, resolve, line_spans, in_parallel_body=True)
    em.ret_ty = VOID
    em.depth = 2
    em.block(stmt.body)

    item_c = _ctype(meta.var_ty)
    cname = meta.cname
    struct_fields = [
        "    tt_ctx *ctx;",
        "    int64_t start;",
        "    int64_t count;",
        f"    {item_c} *items;",
    ]
    for name, ty in meta.env:
        if isinstance(ty, ArrayType):
            struct_fields.append(f"    {_ctype(ty.element)} *v_{name};")
            struct_fields.append(f"    int64_t v_{name}_n;")
        else:
            struct_fields.append(f"    {_ctype(ty)} v_{name};")
    for name, _op, ty in meta.reductions:
        struct_fields.append(f"    {_ctype(ty)} r_{name};")

    lines = [f"typedef struct {{"]
    lines.extend(struct_fields)
    lines.append(f"}} {cname}_env;")
    lines.append("")
    # Per-worker body: locals copied out of the env struct for speed,
    # reduction accumulators written back at the end of the chunk.
    lines.append(f"static void *{cname}_run(void *arg) {{")
    lines.append(f"    {cname}_env *e = ({cname}_env *)arg;")
    lines.append("    tt_ctx *ctx = e->ctx;")
    lines.append("    int64_t _tick = 0; (void)_tick;")
    lines.append(f"    {item_c} v_{var} = 0;")
    for name, ty in meta.env:
        if isinstance(ty, ArrayType):
            lines.append(
                f"    {_ctype(ty.element)} *v_{name} = e->v_{name};"
            )
            lines.append(f"    int64_t v_{name}_n = e->v_{name}_n;")
        else:
            lines.append(f"    {_ctype(ty)} v_{name} = e->v_{name};")
    for name, _op, ty in meta.reductions:
        lines.append(f"    {_ctype(ty)} r_{name} = e->r_{name};")
    lines.append("    for (int64_t _it = 0; _it < e->count; _it++) {")
    lines.append("        TT_CHECK")
    lines.append(f"        v_{var} = e->items[e->start + _it];")
    lines.extend(em.lines)
    lines.append("    }")
    for name, _op, _ty in meta.reductions:
        lines.append(f"    e->r_{name} = r_{name};")
    lines.append("    return 0;")
    lines.append("}")
    lines.append("")
    # Entry point: worker 0 runs inline on the calling thread; a failed
    # pthread_create degrades that worker to inline execution too.
    lines.append(_loop_signature_text(meta) + " {")
    lines.append(f"    {cname}_env *envs = ({cname}_env *)"
                 f"malloc(sizeof({cname}_env) * (size_t)nworkers);")
    lines.append("    pthread_t *tids = (pthread_t *)"
                 "malloc(sizeof(pthread_t) * (size_t)nworkers);")
    lines.append("    int64_t *live = (int64_t *)"
                 "malloc(sizeof(int64_t) * (size_t)nworkers);")
    lines.append("    int64_t w;")
    lines.append("    if (!envs || !tids || !live) {")
    lines.append("        free(envs); free(tids); free(live);")
    lines.append(f"        tt_fail(ctx, 8, {meta.line}, 0, 0);")
    lines.append("        return 0;")
    lines.append("    }")
    lines.append("    for (w = 0; w < nworkers; w++) {")
    lines.append("        envs[w].ctx = ctx;")
    lines.append("        envs[w].start = starts[w];")
    lines.append("        envs[w].count = counts[w];")
    lines.append("        envs[w].items = items;")
    for name, ty in meta.env:
        if isinstance(ty, ArrayType):
            lines.append(f"        envs[w].v_{name} = v_{name};")
            lines.append(f"        envs[w].v_{name}_n = v_{name}_n;")
        else:
            lines.append(f"        envs[w].v_{name} = v_{name};")
    for name, _op, _ty in meta.reductions:
        lines.append(f"        envs[w].r_{name} = init_{name};")
    lines.append("        live[w] = 0;")
    lines.append("    }")
    lines.append("    for (w = 1; w < nworkers; w++) {")
    lines.append(f"        if (pthread_create(&tids[w], 0, {cname}_run, "
                 "&envs[w]) == 0) live[w] = 1;")
    lines.append(f"        else {cname}_run(&envs[w]);")
    lines.append("    }")
    lines.append(f"    {cname}_run(&envs[0]);")
    lines.append("    for (w = 1; w < nworkers; w++) "
                 "if (live[w]) pthread_join(tids[w], 0);")
    for name, _op, _ty in meta.reductions:
        lines.append(f"    for (w = 0; w < nworkers; w++) "
                     f"out_{name}[w] = envs[w].r_{name};")
    lines.append("    free(envs); free(tids); free(live);")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering: whole program
# ----------------------------------------------------------------------
def _call_targets(fn, user_functions: set) -> set:
    return {
        node.func for node in walk(fn.body)
        if isinstance(node, Call) and node.func in user_functions
    }


def _in_cycle(start: str, edges: dict) -> bool:
    """Does ``start`` reach itself through the call graph?"""
    stack = list(edges.get(start, ()))
    seen = set()
    while stack:
        node = stack.pop()
        if node == start:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(edges.get(node, ()))
    return False


def _plan_loop(fn, scope, stmt, program):
    """Build the _CLoop meta for one parallel for (or raise _Ineligible)."""
    plan = plan_parallel_for(stmt, program)
    if not plan.ok:
        raise _Ineligible(plan.reason)
    var = stmt.var
    info = scope.lookup(var)
    if info is None or not isinstance(info.type, (IntType, RealType)):
        raise _Ineligible(
            f"induction variable '{var}' is not an int or real"
        )
    extra = [w for w in plan.scalar_writes if w != var]
    if extra:
        raise _Ineligible(
            f"writes scalar '{extra[0]}' outside a lock "
            "(only the induction variable may be reassigned natively)"
        )
    reductions = []
    for name in sorted(plan.reductions):
        rinfo = scope.lookup(name)
        if rinfo is None or not rinfo.type.is_numeric:
            raise _Ineligible(f"reduction '{name}' is not numeric")
        reductions.append((name, plan.reductions[name], rinfo.type))
    rednames = set(plan.reductions)
    env = []
    for name in sorted(plan.names):
        if name in rednames or name == var:
            continue
        ninfo = scope.lookup(name)
        if ninfo is None:
            raise _Ineligible(f"'{name}' has no static type")
        ty = ninfo.type
        if not (_is_scalar(ty) or _is_scalar_array(ty)):
            raise _Ineligible(
                f"'{name}' has type {ty}, which is not lowered"
            )
        env.append((name, ty))
    return _CLoop(
        cname="",  # assigned by lower_program
        var=var,
        var_ty=info.type,
        env=tuple(env),
        reductions=tuple(reductions),
        line=stmt.span.line,
    )


def lower_program(program, symbols) -> Lowering:
    """Lower every eligible function and parallel-for kernel to C.

    Pure and toolchain-free: callable on a box with no compiler (the
    tests use it to assert eligibility decisions without building).
    """
    fallbacks: list[tuple[int, str]] = []
    seen_reasons: set[tuple[int, str]] = set()

    def note(line: int, reason: str) -> None:
        key = (line, reason)
        if key not in seen_reasons:
            seen_reasons.add(key)
            fallbacks.append(key)

    # Stage 1: signature / local-variable screening.
    candidates: dict[str, object] = {}
    for fn in program.functions:
        sig = symbols.functions[fn.name]
        try:
            _check_signature(sig)
            _check_locals(symbols.scope_of(fn.name))
        except _Ineligible as exc:
            note(fn.span.line, f"'{fn.name}': {exc.reason}")
            continue
        candidates[fn.name] = fn

    # Stage 2: recursion (direct or mutual) stays on the fast path — the
    # C tier has no recursion-depth guard.
    edges = {
        name: _call_targets(fn, set(candidates))
        for name, fn in candidates.items()
    }
    for name in list(candidates):
        if _in_cycle(name, edges):
            note(candidates[name].span.line,
                 f"'{name}': recursion is not lowered")
            del candidates[name]

    # Stage 3: emission fixpoint.  A candidate whose body fails to lower
    # (or that calls a non-candidate) drops out; dropping it can strand
    # its callers, so retry until the set is stable, then keep the last
    # full emission.
    fn_texts: list[str] = []
    metas: dict[str, _CFn] = {}
    line_spans: dict[int, Span] = {}
    while True:
        metas = {
            name: _CFn(
                name=name,
                cname=f"tt_fn_{name}",
                param_names=symbols.functions[name].param_names,
                param_types=symbols.functions[name].param_types,
                return_type=symbols.functions[name].return_type,
                line=fn.span.line,
            )
            for name, fn in candidates.items()
        }
        fn_texts = []
        line_spans = {}
        failed = False
        for name, fn in list(candidates.items()):
            try:
                fn_texts.append(_emit_function(
                    fn, symbols.functions[name],
                    symbols.scope_of(name), metas, line_spans,
                ))
            except _Ineligible as exc:
                note(fn.span.line, f"'{name}': {exc.reason}")
                del candidates[name]
                failed = True
        if not failed:
            break

    # Stage 4: parallel-for kernels (top-level functions only).
    loops: list = []
    loop_texts: list[str] = []
    k = 0
    for fn in program.functions:
        scope = symbols.scope_of(fn.name)
        for node in walk(fn.body):
            if not isinstance(node, ParallelFor):
                continue
            try:
                meta = _plan_loop(fn, scope, node, program)
                meta.cname = f"tt_pf{k}"
                loop_texts.append(
                    _emit_loop(node, meta, program, metas, line_spans)
                )
            except _Ineligible as exc:
                note(node.span.line, exc.reason)
                continue
            loops.append((node, meta))
            k += 1

    protos = [_fn_signature_text(m) + ";" for m in metas.values()]
    protos.extend(_loop_signature_text(m) + ";" for _n, m in loops)
    parts = [_c_prelude()]
    if protos:
        parts.append("\n".join(protos))
    parts.extend(fn_texts)
    parts.extend(loop_texts)
    c_source = "\n\n".join(parts) + "\n"

    cdef_lines = [
        "typedef struct { int64_t stop; int64_t err; int64_t err_line; "
        "int64_t err_a; int64_t err_b; } tt_ctx;",
        "int64_t tt_abi(void);",
    ]
    cdef_lines.extend(protos)
    lowering = Lowering(
        c_source=c_source,
        cdef="\n".join(cdef_lines),
        functions=metas,
        loops=loops,
        fallbacks=fallbacks,
        line_spans=line_spans,
    )
    for _node, meta in loops:
        meta.module_key = lowering.key
    return lowering


# ----------------------------------------------------------------------
# Runtime: the per-run native tier
# ----------------------------------------------------------------------
class NativeRun:
    """One run's handle on the native tier.

    Holds the loaded module (None when the tier is disabled or nothing
    lowered), substitutes marshalling invokers for lowered functions,
    and offloads annotated ``parallel for`` loops to the C kernels.
    """

    def __init__(self, interp, state: NativeState,
                 module: NativeModule | None):
        self.interp = interp
        self.state = state
        self.module = module
        self._watcher: _Watcher | None = None

    # -- core C call with error/interrupt protocol ---------------------
    def _call(self, func, cargs, ctx, span):
        module = self.module
        cctx = module.ffi.new("tt_ctx *")
        guard = self.interp._guard
        token = None
        if guard is not None:
            if self._watcher is None:
                self._watcher = _Watcher(self.interp)
            token = self._watcher.watch(cctx, ctx, span)
        try:
            # cffi releases the GIL around the call: other Python threads
            # (including the guard watcher) keep running.
            ret = func(cctx, *cargs)
        finally:
            stored = (self._watcher.unwatch(token)
                      if token is not None else None)
        if stored is not None:
            raise stored
        if cctx.err:
            err_span = module.lowering.line_spans.get(cctx.err_line, span)
            exc = _map_error(cctx.err, cctx.err_a, cctx.err_b, err_span)
            if self.interp.source is not None:
                exc.attach_source(self.interp.source)
            raise exc
        if cctx.stop and guard is not None:
            guard.check(ctx, span)
        return ret

    @staticmethod
    def _as_i64(value) -> int:
        iv = int(value)
        if not (_INT64_MIN <= iv <= _INT64_MAX):
            raise OverflowError(value)
        return iv

    # -- function invokers ---------------------------------------------
    def function_invoker(self, name: str, fallback):
        """A marshalling invoker for a lowered function, or None."""
        if self.module is None:
            return None
        meta = self.module.lowering.functions.get(name)
        if meta is None:
            return None
        ffi = self.module.ffi
        func = getattr(self.module.lib, meta.cname)
        param_types = meta.param_types
        ret_ty = meta.return_type
        state = self.state
        interp = self.interp

        def invoke(args, ctx, span):
            cargs = []
            writebacks = []
            try:
                for value, want in zip(args, param_types):
                    if isinstance(want, ArrayType):
                        items = value.items
                        n = len(items)
                        ctyp = ("double[]"
                                if isinstance(want.element, RealType)
                                else "int64_t[]")
                        buf = ffi.new(ctyp, items if n else 1)
                        cargs.append(buf)
                        cargs.append(n)
                        writebacks.append((value, buf, n, want.element))
                    elif isinstance(want, RealType):
                        cargs.append(float(value))
                    else:
                        cargs.append(self._as_i64(value))
            except (OverflowError, AttributeError, TypeError):
                # Arguments the C ABI cannot represent (notably ints
                # beyond 64 bits): run the Python fast path instead.
                return fallback(args, ctx, span)
            state.calls += 1
            ret = self._call(func, cargs, ctx, span)
            for arr, buf, n, elem in writebacks:
                data = list(ffi.unpack(buf, n)) if n else []
                if isinstance(elem, BoolType):
                    data = [bool(x) for x in data]
                arr.items[:] = data
            if ret_ty is VOID:
                return None
            if isinstance(ret_ty, BoolType):
                return bool(ret)
            return ret

        obs = interp._obs
        if obs is not None and obs.trace:
            clock = obs.clock
            call_span = obs.call_span
            label = name + " [native]"

            def invoke_traced(args, ctx, span):
                t0 = clock()
                try:
                    return invoke(args, ctx, span)
                finally:
                    call_span(ctx.id, label, t0, clock())

            return invoke_traced
        return invoke

    # -- parallel-for offload ------------------------------------------
    def try_parallel_for(self, interp, stmt, items, ctx) -> bool:
        if self.module is None:
            return False
        meta = getattr(stmt, "_native_loop", None)
        if meta is None or meta.module_key != self.module.lowering.key:
            return False
        state = self.state
        env = ctx.env
        ffi = self.module.ffi
        line = stmt.span.line
        try:
            scalars = {}
            arrays = {}
            for name, ty in meta.env:
                if not env.has(name):
                    state.note_fallback(
                        line, f"'{name}' is not bound at loop entry")
                    return False
                value = env.get(name)
                if isinstance(ty, ArrayType):
                    if not isinstance(value, TetraArray):
                        state.note_fallback(
                            line, f"'{name}' is not an array at run time")
                        return False
                    arrays[name] = (value, ty.element)
                elif isinstance(ty, RealType):
                    scalars[name] = float(value)
                else:
                    scalars[name] = self._as_i64(value)
            red_init = []
            for name, _op, ty in meta.reductions:
                # The merged result must land in the frame every thread
                # sees; a worker-private binding of the same name (an
                # outer parallel for's induction variable) would swallow
                # the env.set below.
                if not env.has(name) or name in env.private:
                    state.note_fallback(
                        line,
                        f"reduction '{name}' does not resolve to a "
                        "shared variable",
                    )
                    return False
                value = env.get(name)
                red_init.append(float(value) if isinstance(ty, RealType)
                                else self._as_i64(value))
            # Partition exactly like the in-process backends, so worker
            # counts and the block/cyclic/dynamic policies stay bit-for-
            # bit comparable across tiers.
            workers = interp.backend.parallel_for_workers(len(items))
            chunks = [c for c in interp._partition(items, workers) if c]
            nworkers = len(chunks)
            flat = [x for chunk in chunks for x in chunk]
            if isinstance(meta.var_ty, RealType):
                items_buf = ffi.new("double[]", [float(x) for x in flat])
            else:
                items_buf = ffi.new(
                    "int64_t[]", [self._as_i64(x) for x in flat])
            starts, counts, pos = [], [], 0
            for chunk in chunks:
                starts.append(pos)
                counts.append(len(chunk))
                pos += len(chunk)
            cargs = [nworkers, ffi.new("int64_t[]", starts),
                     ffi.new("int64_t[]", counts), items_buf]
            bufs: dict[int, tuple] = {}
            writebacks = []
            for name, ty in meta.env:
                if name in scalars:
                    cargs.append(scalars[name])
                    continue
                arr, elem = arrays[name]
                entry = bufs.get(id(arr))
                if entry is None:
                    n = len(arr.items)
                    ctyp = ("double[]" if isinstance(elem, RealType)
                            else "int64_t[]")
                    entry = (ffi.new(ctyp, arr.items if n else 1), n)
                    bufs[id(arr)] = entry
                    writebacks.append((arr, entry[0], n, elem))
                cargs.append(entry[0])
                cargs.append(entry[1])
            red_outs = []
            for (name, _op, ty), init in zip(meta.reductions, red_init):
                ctyp = ("double[]" if isinstance(ty, RealType)
                        else "int64_t[]")
                out = ffi.new(ctyp, nworkers)
                cargs.append(init)
                cargs.append(out)
                red_outs.append(out)
        except (OverflowError, TypeError):
            state.note_fallback(
                line, "a value does not fit in a 64-bit integer")
            return False

        func = getattr(self.module.lib, meta.cname)
        obs = interp._obs
        t0 = obs.clock() if (obs is not None and obs.trace) else 0.0
        self._call(func, cargs, ctx, stmt.span)
        # Merge: same math as the proc backend.  sum: the initial value
        # plus each worker's delta; min/max: extreme of initial + finals.
        for (name, op, ty), init, out in zip(
                meta.reductions, red_init, red_outs):
            finals = list(ffi.unpack(out, nworkers))
            if op == "sum":
                merged = init + sum(v - init for v in finals)
            elif op == "min":
                merged = min([init] + finals)
            else:
                merged = max([init] + finals)
            env.set(name, merged)
        for arr, buf, n, elem in writebacks:
            data = list(ffi.unpack(buf, n)) if n else []
            if isinstance(elem, BoolType):
                data = [bool(x) for x in data]
            arr.items[:] = data
        state.parallel_calls += 1
        if obs is not None and obs.trace:
            obs.call_span(
                ctx.id, f"parallel for (line {line}) [native]",
                t0, obs.clock(),
            )
        return True


# ----------------------------------------------------------------------
# Run-level gating + setup
# ----------------------------------------------------------------------
def _run_block_reason(interp) -> str:
    """Why this run cannot use native kernels at all ('' if it can).

    Time limits and cancellation are deliberately *not* here — the
    watcher thread interrupts C kernels for them (see _Watcher).
    """
    cfg = interp.config
    backend_name = getattr(interp.backend, "name", "")
    if backend_name not in ("thread", "sequential", "proc"):
        return (f"the {backend_name} backend schedules cooperatively; "
                "C kernels cannot yield to it")
    if cfg.detect_races:
        return ("race detection instruments every shared access; "
                "C kernels are opaque to it")
    if cfg.profile:
        return "line profiling needs per-statement interpreter hooks"
    if cfg.step_limit:
        return "step limits count interpreter steps, which C kernels skip"
    if cfg.memory_limit:
        return "memory limits meter interpreter allocations"
    if cfg.output_limit:
        return "output limits meter interpreter-side printing"
    if cfg.schedule_recorder is not None:
        return "schedule recording needs interpreter-visible scheduling"
    if cfg.schedule_replay is not None:
        return "schedule replay needs interpreter-visible scheduling"
    if cfg.fault_plan is not None:
        return "chaos fault injection preempts at interpreter checkpoints"
    return ""


_setup_lock = threading.Lock()


def setup_native(interp):
    """Build (or fetch) the native tier for one interpreter, per its
    ``RuntimeConfig.native`` mode.  Returns a NativeRun or None."""
    cfg = interp.config
    mode = getattr(cfg, "native", "off")
    if mode == "off":
        return None
    state = NativeState(mode=mode)
    reason = _run_block_reason(interp)
    if not reason:
        try:
            import cffi  # noqa: F401
        except ImportError:
            reason = "cffi is not installed"
    cc = None
    if not reason:
        cc = find_compiler()
        if cc is None:
            reason = "no C compiler found (tried cc, gcc, clang)"
    if reason:
        if mode == "require":
            raise TetraNativeError(
                f"--native=require, but the native tier is unavailable: "
                f"{reason}"
            )
        state.notice = reason
        return NativeRun(interp, state, None)
    state.compiler = cc
    with _setup_lock:
        program = interp.program
        lowering = getattr(program, "_native_lowering", None)
        if lowering is None:
            lowering = lower_program(program, interp.symbols)
            program._native_lowering = lowering  # type: ignore[attr-defined]
        for line, why in lowering.fallbacks:
            state.note_fallback(line, why)
        if not lowering.functions and not lowering.loops:
            # The tier is up but nothing in this program qualifies —
            # not a failure, even under require (which guards *setup*).
            state.enabled = True
            return NativeRun(interp, state, None)
        try:
            module = load_module(lowering, cc)
        except (BuildError, OSError) as exc:
            if mode == "require":
                raise TetraNativeError(
                    f"--native=require, but the native build failed: {exc}"
                )
            state.notice = f"native build failed: {exc}"
            return NativeRun(interp, state, None)
        for node, meta in lowering.loops:
            node._native_loop = meta  # type: ignore[attr-defined]
        state.enabled = True
        state.cache_hit = module.cache_hit
        state.functions = sorted(lowering.functions)
        state.parallel_loops = len(lowering.loops)
        return NativeRun(interp, state, module)
