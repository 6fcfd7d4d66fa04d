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

* ``int`` is ``int64_t``, ``real`` is ``double`` (bit-identical to CPython
  floats), ``bool`` is ``int64_t`` 0/1.  Function calls whose *arguments*
  don't fit in 64 bits delegate to the Python fast path.
* Direct and mutual recursion lower.  Every lowered function takes a
  ``depth`` argument, seeded from the caller's Tetra call-stack length,
  and checks it on entry against ``min(recursion_limit, base +
  C_DEPTH_CAP)``; it also polls ``ctx->stop | ctx->err`` there, because
  shallow recursion never reaches a loop back-edge's ``TT_CHECK``.
  Call-cycle members are ``noinline``.
* Local rank-1 scalar arrays (``x = array(n, fill)``) own a heap buffer:
  reassignment frees the old one and every exit frees all of them.  They
  cannot alias, be returned, or escape — an array used as a value (``b =
  a``) keeps the function on the fast path.
* A function that may read a local before assigning it stays on the fast
  path, which raises that error (C locals would read 0).
* Arrays passed in are marshalled by copy (pointer + length); element
  stores are copied back only when the kernel returns cleanly.
* Every failure is a *deopt*.  A runtime error (division by zero, index
  out of range, sqrt of a negative number), int64 overflow (checked with
  ``__builtin_*_overflow``, including ``INT64_MIN / -1``, ``abs``,
  negation and float-to-int), depth past the cap, a negative array
  length and a failed ``malloc`` all latch a code + line in a shared
  ``tt_ctx`` struct; every loop back-edge polls it, so failures and
  time-limit/cancel interrupts stop hot C loops within ~1024 iterations.

Since nothing a failed kernel did is copied back, the function invoker
then reruns the call on the fast path from its original arguments, and a
loop kernel's ``try_parallel_for`` returns False so the loop runs on the
fast path.  The fast path alone therefore produces the output, the
partial writes, the error and its span; a trapping call costs a second
run.  A rerun never re-enters C: native invokers on that thread are
bypassed until it returns.  Each deopt is counted in ``--metrics`` with
its line and cause.
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
from functools import cached_property

from ..errors import TetraNativeError
from ..runtime.parplan import plan_parallel_for
from ..runtime.values import TetraArray
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
ABI_VERSION = 3

#: Cached shared objects beyond this count are evicted oldest-first.
CACHE_MAX_ENTRIES = 64

#: Lowered frames one C stack may hold before a call deopts: far below
#: any thread's stack, far above the default ``recursion_limit``.
C_DEPTH_CAP = 2048

#: Why a kernel deopted: its nonzero ``tt_ctx.err`` code (numbered from
#: 1 in this order), as the C macro that latches it and the cause
#: ``--metrics`` names.  The fast path rerun decides what the error says.
_DEOPT_CAUSES = (
    ("TT_ZERO_DIV", "division by zero"),
    ("TT_INDEX", "index out of range"),
    ("TT_SQRT", "sqrt domain"),
    ("TT_OVERFLOW", "overflow"),
    ("TT_ALLOC", "alloc"),
    ("TT_DEPTH", "depth"),
)

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
    #: (line, cause) -> calls or loop runs that deopted there and reran
    #: on the fast path.
    deopts: dict[tuple[int, str], int] = field(default_factory=dict)
    _seen: set[tuple[int, str]] = field(default_factory=set)

    def note_fallback(self, line: int, reason: str) -> None:
        key = (line, reason)
        if key not in self._seen:
            self._seen.add(key)
            self.fallbacks.append(key)

    def note_deopt(self, line: int, cause: str) -> None:
        key = (line, cause)
        self.deopts[key] = self.deopts.get(key, 0) + 1

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
            "deopts": [[line, cause, count] for (line, cause), count
                       in sorted(self.deopts.items())],
        }


class _Ineligible(Exception):
    """Raised during emission when a construct cannot be lowered; the
    message is the human-readable fallback reason."""

    def __init__(self, reason: str, loop=None):
        super().__init__(reason)
        self.reason = reason
        #: The ``parallel for`` that kept a function body from lowering;
        #: it may still lower as its own kernel.
        self.loop = loop


@dataclass
class _CFn:
    """One lowered function: its C name and marshalling signature."""

    name: str
    cname: str
    param_names: tuple[str, ...]
    param_types: tuple  # semantic types, parallel to param_names
    return_type: object
    line: int
    #: Member of a call cycle: emitted ``noinline``.
    recursive: bool = False


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


@dataclass
class Lowering:
    """The pure result of lowering a program (no toolchain involved)."""

    c_source: str
    cdef: str
    functions: dict  # name -> _CFn
    loops: list  # (ParallelFor node, _CLoop)
    fallbacks: list  # (line, reason)

    @property
    def key(self) -> str:
        return hashlib.sha256(self.c_source.encode()).hexdigest()[:16]

    @cached_property
    def loop_meta(self) -> dict:
        """ParallelFor node → its _CLoop: the loops a run may offload.
        Kept here rather than on the nodes, so no run writes to the
        shared, cached tree."""
        return dict(self.loops)


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
        # -O1: the checked helpers are all inline, so -O2 runs the
        # kernels within 3% and costs about a third more cc time, which
        # every cold start pays.
        cmd = [cc, "-O1", "-shared", "-fPIC",
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
# C emission
# ----------------------------------------------------------------------
class _ScalarRef:
    __slots__ = ("code", "ty", "writable")

    def __init__(self, code, ty, writable):
        self.code = code
        self.ty = ty
        self.writable = writable


class _ArrayRef:
    __slots__ = ("buf", "length", "elem", "owned")

    def __init__(self, buf, length, elem, owned=False):
        self.buf = buf
        self.length = length
        self.elem = elem
        #: A local ``array(n, fill)`` whose heap buffer this frame frees.
        self.owned = owned


_ARITH_SYMBOLS = {BinaryOp.ADD: "+", BinaryOp.SUB: "-", BinaryOp.MUL: "*"}
_CHECKED_ARITH = {BinaryOp.ADD: "tt_add", BinaryOp.SUB: "tt_sub",
                  BinaryOp.MUL: "tt_mul"}
_CMP_SYMBOLS = {
    BinaryOp.EQ: "==", BinaryOp.NE: "!=", BinaryOp.LT: "<",
    BinaryOp.LE: "<=", BinaryOp.GT: ">", BinaryOp.GE: ">=",
}


class _Emitter:
    """Emits one C function body (a lowered function or a loop kernel)."""

    def __init__(self, callables: dict, resolve,
                 in_parallel_body: bool = False, call_depth: str = "depth + 1",
                 owned: tuple = ()):
        self.callables = callables
        self.resolve = resolve
        self.in_parallel_body = in_parallel_body
        #: The depth argument of calls made from this body.
        self.call_depth = call_depth
        #: C names of the local arrays every exit must free.
        self.owned = owned
        self.lines: list[str] = []
        self.depth = 1
        self.loop_depth = 0
        self._tmp = 0

    # -- plumbing ------------------------------------------------------
    def out(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

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
            return self._binop(e.op, lc, lt, rc, rt, e.span.line)
        if isinstance(e, Index):
            arr = self._array(e.base)
            idx, idx_ty = self.expr(e.index)
            if not isinstance(idx_ty, IntType):
                raise _Ineligible("array index is not an int")
            return (f"{arr.buf}[tt_idx(ctx, {arr.length}, {idx}, "
                    f"{e.span.line})]"), arr.elem
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
        return f"tt_ineg(ctx, {code}, {e.span.line})", INT

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
        if real:
            return f"(({lc}) {_ARITH_SYMBOLS[op]} ({rc}))", REAL
        return f"{_CHECKED_ARITH[op]}(ctx, {lc}, {rc}, {line})", INT

    def _call(self, e) -> tuple[str, object]:
        if e.func in self.callables:  # a user function shadows a builtin
            meta = self.callables[e.func]
            if meta is None:
                raise _Ineligible(f"calls '{e.func}', which is not lowered")
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
            call = (f"{meta.cname}(ctx, {self.call_depth}"
                    + "".join(f", {a}" for a in args) + ")")
            return call, meta.return_type
        return self._builtin(e)

    def _builtin(self, e) -> tuple[str, object]:
        name = e.func
        line = e.span.line
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
        if name == "int":
            code, ty = self.expr(e.args[0])
            if isinstance(ty, IntType):
                return code, INT
            if isinstance(ty, RealType):  # the cast truncates toward zero
                return f"tt_f2i(ctx, {code}, {line})", INT
            raise _Ineligible("int() of a bool")
        if name == "abs":
            code, ty = self.expr(e.args[0])
            if not ty.is_numeric:
                raise _Ineligible("abs() on a non-numeric value")
            if isinstance(ty, RealType):
                return f"fabs({code})", REAL
            return f"tt_iabs(ctx, {code}, {line})", INT
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
            ref = (self.resolve(s.target.id) if isinstance(s.target, Name)
                   else None)
            if isinstance(ref, _ArrayRef):
                self._assign_array(ref, s)
            else:
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
        elif isinstance(s, ParallelFor):
            raise _Ineligible(f"its parallel for at line {s.span.line} is "
                              "not lowered", loop=s)
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
            store = self._coerce(code, val_ty, arr.elem)
            self.out(
                f"{arr.buf}[tt_idx(ctx, {arr.length}, {idx}, {s.span.line})]"
                f" = {store};"
            )
            return
        raise _Ineligible("assignment target is not lowered")

    def _assign_array(self, arr, s) -> None:
        """``x = array(n, fill)`` for a local array: the one way an array
        variable is written natively (no aliasing, no parameters)."""
        name = s.target.id
        if not arr.owned:
            raise _Ineligible(f"reassigns array '{name}', which it does "
                              "not own")
        value = s.value
        if not (isinstance(value, Call) and value.func == "array"
                and "array" not in self.callables and len(value.args) == 2):
            raise _Ineligible(
                f"assigns array '{name}' from something other than "
                "array(n, fill) (array aliasing is not lowered)"
            )
        n_code, n_ty = self.expr(value.args[0])
        fill_code, fill_ty = self.expr(value.args[1])
        if not isinstance(n_ty, IntType) or type(fill_ty) is not type(
                arr.elem):
            raise _Ineligible(f"array '{name}' changes element type")
        new = "tt_rnew" if isinstance(arr.elem, RealType) else "tt_inew"
        self.out(
            f"{arr.buf} = {new}(ctx, {arr.buf}, {arr.buf}_spare, "
            f"&{arr.length}, {n_code}, {fill_code}, {s.span.line});"
        )

    def _aug_assign(self, s) -> None:
        vc, vt = self.expr(s.value)
        line = s.span.line
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
        if isinstance(self.resolve(s.name), _ArrayRef):
            raise _Ineligible(f"declares array '{s.name}'")
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
        hi, it, go = self._temp("hi"), self._temp("it"), self._temp("go")
        self.out("{")
        self.depth += 1
        self.out(f"int64_t {it} = {lo_code};")
        self.out(f"int64_t {hi} = {hi_code};")
        # The fast path iterates over the *materialized* range, assigning
        # the loop variable each pass — so a body that writes it (or a
        # same-named nested loop) must not perturb this loop's own
        # progress.  A hidden counter drives the loop; the visible
        # variable is a per-iteration copy, and after the loop it keeps
        # the last item, exactly like the fast path.  The counter stops *at*
        # the bound instead of stepping past it, so a range ending at
        # INT64_MAX terminates without overflow.
        self.out(f"for (int64_t {go} = {it} <= {hi}; {go}; "
                 f"{go} = {it} < {hi}, {it} += {go}) {{")
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
        if self.ret_ty is VOID or s.value is None:
            if s.value is not None:
                code, _ = self.expr(s.value)
                self.out(f"(void)({code});")
            self.out_exit("return;" if self.ret_ty is VOID else "return 0;")
            return
        code, ty = self.expr(s.value)
        code = self._coerce(code, ty, self.ret_ty)
        if not self.owned:
            self.out(f"return {code};")
            return
        # Evaluate first: the value may read a local array.
        self.out(f"{{ {_ctype(self.ret_ty)} _ret = {code};")
        self.out_exit("return _ret; }")

    def out_exit(self, ret: str) -> None:
        """A function exit: free every local array, then ``ret``."""
        self.out("".join(f"tt_free({b}, {b}_spare); " for b in self.owned)
                 + ret)

    ret_ty = VOID  # overridden per function

    def _coerce(self, code: str, have, want) -> str:
        if isinstance(want, RealType) and not isinstance(have, RealType):
            return f"(double)({code})"
        if not isinstance(want, RealType) and isinstance(have, RealType):
            raise _Ineligible("implicit real-to-int narrowing is not lowered")
        return code


def _always_returns(block: Block) -> bool:
    """Conservative 'every path ends in return' check: a non-void native
    function may not fall off its end (the fast path would return
    nothing)."""
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


def _assigned_after(block: Block, assigned: frozenset):
    """The variables assigned on every path through ``block`` when
    ``assigned`` are on entry, or None if no path reaches its end.  Raises
    _Ineligible at a read that some path reaches first: the fast path
    raises there, while a C local would read 0."""
    def read(*exprs):
        for e in exprs:
            for node in walk(e) if e is not None else ():
                if isinstance(node, Name) and node.id not in assigned:
                    raise _Ineligible(
                        f"may read '{node.id}' before assigning it "
                        f"(line {node.span.line})"
                    )

    for s in block.statements:
        if isinstance(s, Assign) and isinstance(s.target, Name):
            read(s.value)
            assigned |= {s.target.id}
        elif isinstance(s, Declare):
            read(s.value)
            assigned |= {s.name}
        elif isinstance(s, (Assign, AugAssign)):
            read(s.target, s.value)
        elif isinstance(s, ExprStmt):
            read(s.expr)
        elif isinstance(s, Return):
            read(s.value)
            return None
        elif isinstance(s, (Break, Continue)):
            return None
        elif isinstance(s, If):
            read(s.cond, *(c.cond for c in s.elifs))
            ends = [_assigned_after(b, assigned) for b in
                    [s.then, *(c.body for c in s.elifs)]]
            ends.append(assigned if s.orelse is None
                        else _assigned_after(s.orelse, assigned))
            ends = [end for end in ends if end is not None]
            if not ends:
                return None
            assigned = frozenset.intersection(*ends)
        elif isinstance(s, While):
            read(s.cond)
            _assigned_after(s.body, assigned)
        elif isinstance(s, For):
            read(s.iterable)
            _assigned_after(s.body, assigned | {s.var})
    return assigned


# ----------------------------------------------------------------------
# C runtime prelude (error protocol + checked helpers)
# ----------------------------------------------------------------------
_C_PRELUDE = """\
#include <stdint.h>
#include <pthread.h>

/* The libc/libm functions kernels call, declared here: parsing <math.h>
 * and <stdlib.h> costs a module about as much cc time as a small kernel. */
void *malloc(__SIZE_TYPE__ size);
void free(void *ptr);
double sqrt(double x);
double floor(double x);
double ceil(double x);
double fmod(double x, double y);
double fabs(double x);
double fmin(double x, double y);
double fmax(double x, double y);

typedef struct {
    volatile int64_t stop;
    volatile int64_t err;
    volatile int64_t err_line;
    int64_t max_depth;
} tt_ctx;

/* Every error code is a deopt: the caller reruns on the fast path. */
@CAUSES@

int64_t tt_abi(void) { return @ABI@; }

/* First error wins; later failures in other workers are dropped.  Cold
 * and out of line: every checked operation branches here. */
__attribute__((cold, noinline))
static void tt_fail(tt_ctx *c, int64_t code, int64_t line) {
    if (!c->err) {
        c->err_line = line;
        c->err = code;
    }
}

/* Polled at every loop back-edge: stops hot loops on error or interrupt. */
#define TT_CHECK if (((++_tick) & 1023) == 0 && (ctx->stop | ctx->err)) break;

/* Entry guard of every lowered function: nonzero when the body must not
 * run (an error, a stop, or a call one frame too deep). */
static inline int tt_enter(tt_ctx *c, int64_t depth, int64_t line) {
    if (c->stop | c->err) return 1;
    if (depth >= c->max_depth) {
        tt_fail(c, TT_DEPTH, line);
        return 1;
    }
    return 0;
}

#define TT_ARITH(NAME, OP) \\
static inline int64_t NAME(tt_ctx *c, int64_t a, int64_t b, \\
                           int64_t line) { \\
    int64_t r; \\
    if (__builtin_expect(OP(a, b, &r), 0)) \\
        tt_fail(c, TT_OVERFLOW, line); \\
    return r; \\
}
TT_ARITH(tt_add, __builtin_add_overflow)
TT_ARITH(tt_sub, __builtin_sub_overflow)
TT_ARITH(tt_mul, __builtin_mul_overflow)

static inline int64_t tt_ineg(tt_ctx *c, int64_t a, int64_t line) {
    return tt_sub(c, 0, a, line);
}

static inline int64_t tt_idiv(tt_ctx *c, int64_t a, int64_t b, int64_t line) {
    if (b == 0) { tt_fail(c, TT_ZERO_DIV, line); return 0; }
    if (b == -1) return tt_ineg(c, a, line);  /* INT64_MIN / -1 */
    return a / b;  /* C99: truncation toward zero, same as Tetra int_div */
}

static inline int64_t tt_imod(tt_ctx *c, int64_t a, int64_t b, int64_t line) {
    if (b == 0) { tt_fail(c, TT_ZERO_DIV, line); return 0; }
    if (b == -1) return 0;
    return a % b;  /* C99: sign of dividend, same as Tetra int_mod */
}

static inline double tt_rdiv(tt_ctx *c, double a, double b, int64_t line) {
    if (b == 0.0) { tt_fail(c, TT_ZERO_DIV, line); return 0.0; }
    return a / b;
}

static inline double tt_rmod(tt_ctx *c, double a, double b, int64_t line) {
    if (b == 0.0) { tt_fail(c, TT_ZERO_DIV, line); return 0.0; }
    return fmod(a, b);
}

/* Buffers are always allocated with at least one element, so the
 * error-path index 0 reads allocated memory while the error latches. */
static inline int64_t tt_idx(tt_ctx *c, int64_t n, int64_t i, int64_t line) {
    if (i < 0 || i >= n) { tt_fail(c, TT_INDEX, line); return 0; }
    return i;
}

static inline double tt_sqrt(tt_ctx *c, double x, int64_t line) {
    if (x < 0.0) { tt_fail(c, TT_SQRT, line); return 0.0; }
    return sqrt(x);
}

static inline int64_t tt_f2i(tt_ctx *c, double f, int64_t line) {
    if (!(f >= -9223372036854775808.0 && f < 9223372036854775808.0)) {
        tt_fail(c, TT_OVERFLOW, line);
        return 0;
    }
    return (int64_t)f;
}

static inline int64_t tt_floor(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, floor(x), line);
}

static inline int64_t tt_ceil(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, ceil(x), line);
}

/* Tetra round(): nearest int, ties away from zero (mathlib round). */
static inline int64_t tt_round(tt_ctx *c, double x, int64_t line) {
    return tt_f2i(c, x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5), line);
}

static inline int64_t tt_iabs(tt_ctx *c, int64_t a, int64_t line) {
    return a < 0 ? tt_ineg(c, a, line) : a;
}
static inline int64_t tt_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t tt_imax(int64_t a, int64_t b) { return a > b ? a : b; }

/* Local arrays: each starts on a one-element placeholder in its frame
 * (`spare`, length 0) and owns every buffer assigned to it after that.
 * A failed allocation latches a deopt and leaves the placeholder, so
 * error-path index 0 still reads valid memory. */
static void tt_free(void *buf, void *spare) { if (buf != spare) free(buf); }

#define TT_NEW(NAME, T) \\
static T *NAME(tt_ctx *c, T *old, T *spare, int64_t *len, int64_t n, \\
               T fill, int64_t line) { \\
    T *buf = 0; \\
    int64_t i; \\
    tt_free(old, spare); \\
    *len = 0; \\
    if (c->stop | c->err) return spare; \\
    if (n < 0 || (uint64_t)n >= SIZE_MAX / sizeof(T) \\
            || !(buf = (T *)malloc(sizeof(T) * (size_t)(n ? n : 1)))) { \\
        tt_fail(c, TT_ALLOC, line); \\
        return spare; \\
    } \\
    for (i = 0; i < n; i++) buf[i] = fill; \\
    *len = n; \\
    return buf; \\
}
TT_NEW(tt_inew, int64_t)
TT_NEW(tt_rnew, double)
"""


def _c_prelude() -> str:
    causes = "\n".join(f"#define {macro} {code}" for code, (macro, _)
                       in enumerate(_DEOPT_CAUSES, 1))
    return (_C_PRELUDE.replace("@ABI@", str(ABI_VERSION))
            .replace("@CAUSES@", causes))


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
        if _is_scalar(ty) or _is_scalar_array(ty):
            continue
        raise _Ineligible(
            f"variable '{name}' has type {ty}, which is not lowered"
        )


def _fn_signature_text(meta) -> str:
    params = ["tt_ctx *ctx", "int64_t depth"]
    for pname, pty in zip(meta.param_names, meta.param_types):
        if isinstance(pty, ArrayType):
            params.append(f"{_ctype(pty.element)} *v_{pname}")
            params.append(f"int64_t v_{pname}_n")
        else:
            params.append(f"{_ctype(pty)} v_{pname}")
    ret = ("void" if meta.return_type is VOID
           else _ctype(meta.return_type))
    return f"{ret} {meta.cname}({', '.join(params)})"


def _emit_function(fn, sig, scope, callables: dict) -> str:
    """Emit the C definition of one eligible function (or raise
    _Ineligible with the reason it cannot be lowered)."""
    ret = sig.return_type
    if ret is not VOID and not _always_returns(fn.body):
        raise _Ineligible(
            "a path may fall off the end without returning a value"
        )

    params = set(sig.param_names)
    local_arrays = [
        name for name in scope.names()
        if name not in params
        and isinstance(scope.lookup(name).type, ArrayType)
    ]

    def resolve(name):
        info = scope.lookup(name)
        if info is None:
            raise _Ineligible(f"unknown variable '{name}'")
        ty = info.type
        if isinstance(ty, ArrayType):
            return _ArrayRef(f"v_{name}", f"v_{name}_n", ty.element,
                             owned=name in local_arrays)
        return _ScalarRef(f"v_{name}", ty, True)

    zero = "return;" if ret is VOID else f"return ({_ctype(ret)})0;"
    em = _Emitter(callables, resolve,
                  owned=tuple(f"v_{name}" for name in local_arrays))
    em.ret_ty = ret
    em.block(fn.body)
    em.out_exit(zero)
    _assigned_after(fn.body, frozenset(params))

    meta = callables[fn.name]
    attr = "__attribute__((noinline)) " if meta.recursive else ""
    lines = [attr + _fn_signature_text(meta) + " {"]
    lines.append(f"    if (__builtin_expect(tt_enter(ctx, depth, {meta.line}),"
                 f" 0)) {zero}")
    lines.append("    int64_t _tick = 0; (void)_tick;")
    for name in scope.names():
        if name in params:
            continue
        ty = scope.lookup(name).type
        if name in local_arrays:
            elem = _ctype(ty.element)
            lines.append(f"    {elem} v_{name}_spare[1] = {{0}};")
            lines.append(f"    {elem} *v_{name} = v_{name}_spare;")
            lines.append(f"    int64_t v_{name}_n = 0;")
        else:
            lines.append(f"    {_ctype(ty)} v_{name} = 0;")
    lines.extend(em.lines)
    lines.append("}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering: parallel-for kernels
# ----------------------------------------------------------------------
def _loop_signature_text(meta) -> str:
    item_c = _ctype(meta.var_ty)
    params = [
        "tt_ctx *ctx", "int64_t depth", "int64_t nworkers",
        "int64_t *starts", "int64_t *counts", f"{item_c} *items",
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


def _emit_loop(stmt, meta, program, callables: dict) -> str:
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

    # The body runs in its function's frame: calls from it are made at
    # the loop's own call-stack depth.
    em = _Emitter(callables, resolve, in_parallel_body=True,
                  call_depth="depth")
    em.ret_ty = VOID
    em.depth = 2
    em.block(stmt.body)

    item_c = _ctype(meta.var_ty)
    cname = meta.cname
    struct_fields = [
        "    tt_ctx *ctx;",
        "    int64_t depth;",
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
    lines.append("    int64_t depth = e->depth; (void)depth;")
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
    lines.append(f"        tt_fail(ctx, TT_ALLOC, {meta.line});")
    lines.append("        return 0;")
    lines.append("    }")
    lines.append("    for (w = 0; w < nworkers; w++) {")
    lines.append("        envs[w].ctx = ctx;")
    lines.append("        envs[w].depth = depth;")
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
    #: Functions a parallel for kept on the fast path: (their fallback,
    #: name, loop), reworded once stage 3 knows whether the loop lowered.
    loop_bound: list[tuple[tuple[int, str], str, object]] = []

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

    # Stage 2: emission fixpoint.  A candidate whose body fails to lower
    # (or that calls a non-candidate) drops out; dropping it can strand
    # its callers, so retry until the set is stable, then keep the last
    # full emission.
    fn_texts: list[str] = []
    metas: dict[str, _CFn] = {}
    while True:
        edges = {
            name: _call_targets(fn, set(candidates))
            for name, fn in candidates.items()
        }
        metas = {
            name: _CFn(
                name=name,
                cname=f"tt_fn_{name}",
                param_names=symbols.functions[name].param_names,
                param_types=symbols.functions[name].param_types,
                return_type=symbols.functions[name].return_type,
                line=fn.span.line,
                recursive=_in_cycle(name, edges),
            )
            for name, fn in candidates.items()
        }
        # Every user function, lowered (its _CFn) or not (None).
        callables = {fn.name: None for fn in program.functions} | metas
        fn_texts = []
        failed = False
        for name, fn in list(candidates.items()):
            try:
                fn_texts.append(_emit_function(
                    fn, symbols.functions[name],
                    symbols.scope_of(name), callables,
                ))
            except _Ineligible as exc:
                key = (fn.span.line, f"'{name}': {exc.reason}")
                note(*key)
                if exc.loop is not None:
                    loop_bound.append((key, name, exc.loop))
                del candidates[name]
                failed = True
        if not failed:
            break

    # Stage 3: parallel-for kernels (top-level functions only).
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
                    _emit_loop(node, meta, program, callables)
                )
            except _Ineligible as exc:
                note(node.span.line, exc.reason)
                continue
            loops.append((node, meta))
            k += 1
    lowered = {id(node): meta.cname for node, meta in loops}
    for key, name, loop in loop_bound:
        if id(loop) in lowered:
            fallbacks[fallbacks.index(key)] = (
                key[0], f"'{name}': its parallel for at line "
                f"{loop.span.line} is lowered on its own "
                f"({lowered[id(loop)]})")

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
        "int64_t max_depth; } tt_ctx;",
        "int64_t tt_abi(void);",
    ]
    cdef_lines.extend(protos)
    return Lowering(
        c_source=c_source,
        cdef="\n".join(cdef_lines),
        functions=metas,
        loops=loops,
        fallbacks=fallbacks,
    )


# ----------------------------------------------------------------------
# Runtime: the per-run native tier
# ----------------------------------------------------------------------
#: What ``NativeRun._call`` returns when the C code deopted.
_DEOPT = object()


def _marshal_array(ffi, arr, elem, bufs: dict) -> tuple:
    """(buffer, length) of a C copy of ``arr``, kept in ``bufs`` for the
    copy-back.  An array passed twice shares one buffer, as its two names
    share one list in Python."""
    entry = bufs.get(id(arr))
    if entry is None:
        n = len(arr.items)
        ctyp = "double[]" if isinstance(elem, RealType) else "int64_t[]"
        entry = bufs[id(arr)] = (arr, ffi.new(ctyp, arr.items if n else 1),
                                 n, elem)
    return entry[1:3]


def _copy_back(ffi, bufs: dict) -> None:
    """After a clean return, each C buffer replaces its array's items."""
    for arr, buf, n, elem in bufs.values():
        data = list(ffi.unpack(buf, n)) if n else []
        arr.items[:] = ([bool(x) for x in data]
                        if isinstance(elem, BoolType) else data)


class _Bypass(threading.local):
    """Set on a thread while a deopted call reruns on the fast path, so
    the rerun never re-enters C."""

    active = False


class NativeRun:
    """One run's handle on the native tier.

    Holds the loaded module (None when the tier is disabled or nothing
    lowered), substitutes marshalling invokers for lowered functions,
    and offloads annotated ``parallel for`` loops to the C kernels.
    """

    def __init__(self, interp, state: NativeState,
                 module: NativeModule | None,
                 lowering: Lowering | None = None):
        self.interp = interp
        self.state = state
        self.module = module
        #: This program's own lowering (``module`` may have been loaded
        #: for another tree that lowered to the same C source).
        self.lowering = lowering
        self._bypass = _Bypass()

    # -- core C call with error/interrupt/deopt protocol ---------------
    def _call(self, func, cargs, ctx, span):
        """Run one C entry point from ``ctx``'s call depth.  Returns its
        result, or ``_DEOPT`` (counted in the state) when the caller must
        rerun on the fast path."""
        module = self.module
        cctx = module.ffi.new("tt_ctx *")
        depth = len(ctx.call_stack)
        cctx.max_depth = min(self.interp.config.recursion_limit,
                             depth + C_DEPTH_CAP)
        guard = self.interp._guard
        disarm = None
        if guard is not None:
            # C kernels release the GIL and never reach a statement
            # boundary: the guard's deadline thread or the cancelling
            # thread sets the flag every loop back-edge and function entry
            # polls, and the kernel unwinds within ~1024 iterations.
            def trip():
                cctx.stop = 1

            disarm = guard.watch(trip)
        try:
            ret = func(cctx, depth, *cargs)
        finally:
            if disarm is not None:
                disarm()
        if cctx.stop:
            raise guard.error(span)
        if cctx.err:
            self.state.note_deopt(cctx.err_line,
                                  _DEOPT_CAUSES[cctx.err - 1][1])
            return _DEOPT
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
        meta = self.lowering.functions.get(name)
        if meta is None:
            return None
        ffi = self.module.ffi
        func = getattr(self.module.lib, meta.cname)
        param_types = meta.param_types
        ret_ty = meta.return_type
        state = self.state
        interp = self.interp
        bypass = self._bypass

        def invoke(args, ctx, span):
            if bypass.active:
                return fallback(args, ctx, span)
            cargs = []
            bufs = {}
            try:
                for value, want in zip(args, param_types):
                    if isinstance(want, ArrayType):
                        cargs.extend(
                            _marshal_array(ffi, value, want.element, bufs))
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
            if ret is _DEOPT:
                # Nothing was copied back: rerun exactly, C-free.
                bypass.active = True
                try:
                    return fallback(args, ctx, span)
                finally:
                    bypass.active = False
            _copy_back(ffi, bufs)
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
        if self.module is None or self._bypass.active:
            return False
        meta = self.lowering.loop_meta.get(stmt)
        if meta is None:
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
            bufs = {}
            for name, ty in meta.env:
                if name in scalars:
                    cargs.append(scalars[name])
                else:
                    cargs.extend(_marshal_array(ffi, *arrays[name], bufs))
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
        if self._call(func, cargs, ctx, stmt.span) is _DEOPT:
            return False  # nothing merged or copied back: rerun exactly
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
        _copy_back(ffi, bufs)
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

    Time limits and cancellation are deliberately *not* here — the guard's
    watch interrupts C kernels for them (see ``NativeRun._call``).
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
        return ("step budgets count loop iterations and calls, which C "
                "kernels do not count")
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
        state.enabled = True
        state.cache_hit = module.cache_hit
        state.functions = sorted(lowering.functions)
        state.parallel_loops = len(lowering.loops)
        return NativeRun(interp, state, module, lowering)
