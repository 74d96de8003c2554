"""Native whole-program executor for float64 compiled programs.

:meth:`~repro.core.program.CompiledProgram.execute` hands a bit-exact
(fused or blocked) float64 program to ``figlut_execute`` in ``native.c``:
one C call runs the LUT builds, the plane gather-accumulate, the α scale
and the offset apply over the program's own buffers, replaying the NumPy
executor's float order so the output is bitwise identical (see the
"Native executor" section of ``docs/compilation.md``).

The library is built with the system C compiler on first use — never at
import, ``prepare()`` or ``compile_plan`` time — and cached on disk under
a name keyed by the SHA-256 of the source, the compiler's version string,
the flags and the machine.  The cache lives in ``_native_build/`` next to
this module, or in a per-user temporary directory when the package
directory is read-only.  Builds write a private temporary file and
``os.replace`` it into place, so processes racing on a cold cache each
load a complete library.

When no compiler is found, the build or load fails, or the accumulator is
not float64, :func:`available` returns False with one warning per cause
per process, and the caller runs the NumPy executor instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

__all__ = ["CFLAGS", "Timings", "available", "load", "run"]

SOURCE = Path(__file__).with_name("native.c")

# -ffp-contract=off keeps every product rounded before its add (no FMA);
# no -ffast-math/-Ofast, which would let the compiler reassociate sums.
CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

_BUILD_TIMEOUT_S = 120

# Per-call phase timers the kernel adds nanoseconds into when profiling:
# luts, plane (gather + α scale), offset.
Timings = ctypes.c_int64 * 3

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_failed = False
_warned: set[str] = set()


class _Program(ctypes.Structure):
    """Mirror of ``figlut_program`` in native.c."""

    _fields_ = [("m", ctypes.c_int64), ("n", ctypes.c_int64),
                ("mu", ctypes.c_int64), ("num_segments", ctypes.c_int64),
                ("slots_per_segment", ctypes.c_int64),
                ("num_passes", ctypes.c_int64),
                ("num_offsets", ctypes.c_int64),
                ("lut_cols", ctypes.c_void_p), ("keys", ctypes.c_void_p),
                ("rows", ctypes.c_void_p), ("scales", ctypes.c_void_p),
                ("pass_rows", ctypes.c_void_p), ("offsets", ctypes.c_void_p)]


def _warn_once(cause: str, message: str) -> None:
    with _lock:
        if cause in _warned:
            return
        _warned.add(cause)
    warnings.warn(message, RuntimeWarning, stacklevel=4)


def _find_compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> Path:
    """``_native_build/`` beside this module, else a per-user temp dir."""
    local = Path(__file__).with_name("_native_build")
    try:
        local.mkdir(exist_ok=True)
        if os.access(local, os.W_OK):
            return local
    except OSError:
        pass
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    fallback.mkdir(mode=0o700, exist_ok=True)
    return fallback


def _library_path(compiler: str) -> Path:
    """Where the library built by ``compiler`` is cached."""
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30, check=True).stdout
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), version.encode(),
                 " ".join(CFLAGS).encode(), platform.machine().encode()):
        key.update(part)
        key.update(b"\0")
    return _cache_dir() / f"figlut_native-{key.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    tmp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", str(tmp),
                               str(SOURCE)], capture_output=True, text=True,
                              timeout=_BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise OSError(f"{compiler} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[:500]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _load_library() -> ctypes.CDLL:
    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler (cc/gcc) on PATH")
    target = _library_path(compiler)
    if not target.exists():
        _build(compiler, target)
    lib = ctypes.CDLL(str(target))
    fn = lib.figlut_execute
    fn.argtypes = [ctypes.POINTER(_Program), ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = ctypes.c_int
    return lib


def load() -> ctypes.CDLL | None:
    """The native library, built on first use; None when unavailable.

    A failure is final for the process: it warns once and every later
    call returns None without retrying the build.
    """
    global _lib, _failed
    if _lib is not None or _failed:
        return _lib
    error = None
    with _lock:
        if _lib is None and not _failed:
            try:
                _lib = _load_library()
            except (OSError, subprocess.SubprocessError) as exc:
                _failed = True
                error = exc
    if error is not None:
        _warn_once("load", f"native FIGLUT executor unavailable ({error}); "
                           f"compiled programs run on the NumPy executor")
    return _lib


def available(accumulate_dtype: np.dtype) -> bool:
    """Whether a program with this accumulator can run natively."""
    if accumulate_dtype != np.float64:
        _warn_once(f"dtype:{accumulate_dtype}",
                   f"the native FIGLUT executor accumulates in float64 "
                   f"only; {accumulate_dtype} programs run on the NumPy "
                   f"executor")
        return False
    return load() is not None


def _reset() -> None:
    """Forget the loaded library and the warnings issued (tests only)."""
    global _lib, _failed
    with _lock:
        _lib, _failed = None, False
        _warned.clear()


class _Handle:
    """A program's buffers marshalled once for the C ABI.

    Holds references to every array the ``_Program`` struct points at, so
    the pointers stay valid as long as the handle lives.
    """

    def __init__(self, program) -> None:
        def arr(a, dtype):
            return np.ascontiguousarray(a, dtype=dtype)

        passes = program.passes
        self.lut_cols = arr(program.lut_cols, np.int64)
        self.keys = [arr(pp.keys, np.int32) for pp in passes]
        self.rows = [None if pp.rows is None else arr(pp.rows, np.int64)
                     for pp in passes]
        self.scales = [arr(pp.scales, np.float64) for pp in passes]
        self.pass_rows = np.array([k.shape[1] for k in self.keys],
                                  dtype=np.int64)
        self.offsets = arr(program.offsets, np.float64)
        self.valid = self._in_bounds(program)

        def ptrs(arrays):
            return (ctypes.c_void_p * max(len(arrays), 1))(
                *[None if a is None else a.ctypes.data for a in arrays])

        self.key_ptrs = ptrs(self.keys)
        self.row_ptrs = ptrs(self.rows)
        self.scale_ptrs = ptrs(self.scales)
        self.struct = _Program(
            program.m, program.n, program.mu, program.num_segments,
            program.slots_per_segment, len(passes), len(program.offset_slices),
            self.lut_cols.ctypes.data, ctypes.addressof(self.key_ptrs),
            ctypes.addressof(self.row_ptrs),
            ctypes.addressof(self.scale_ptrs), self.pass_rows.ctypes.data,
            self.offsets.ctypes.data)
        self.ref = ctypes.byref(self.struct)

    def _in_bounds(self, program) -> bool:
        """Whether every buffer index the kernel follows is in range.

        The C kernel does not bounds-check, so a malformed program (which
        ``verify_program`` would reject) stays on the NumPy executor and
        fails there the way it always did.
        """
        m, slots = program.m, program.num_slots
        if (self.lut_cols.shape != (slots, program.mu)
                or self.offsets.shape != (m, len(program.offset_slices))):
            return False
        if slots and not (0 <= self.lut_cols.min()
                          and self.lut_cols.max() <= program.n):
            return False
        for keys, rows, scales in zip(self.keys, self.rows, self.scales,
                                      strict=True):
            r = keys.shape[1]
            if (keys.shape[0] != slots
                    or scales.shape != (program.num_segments, r)):
                return False
            if keys.size and not (0 <= keys.min()
                                  and keys.max() < 1 << program.mu):
                return False
            if rows is None:
                if r != m:
                    return False
            elif rows.shape != (r,) or r and not (0 <= rows.min()
                                                  and rows.max() < m):
                return False
        return True


def _handle(program) -> _Handle:
    # Cached on the frozen program outside its dataclass fields, like the
    # profiling byte totals; a racing first call just builds it twice.
    handle = program.__dict__.get("_native_handle")
    if handle is None:
        handle = _Handle(program)
        object.__setattr__(program, "_native_handle", handle)
    return handle


def run(program, x: np.ndarray, group_sums: np.ndarray,
        timings: ctypes.Array | None = None) -> np.ndarray | None:
    """``y`` for float64 activations ``x`` (n, batch), or None when the
    library is unavailable, the program's buffers fail the bounds check,
    or scratch allocation fails.

    ``group_sums`` is the (num_offsets, batch) matrix of owned-group
    activation sums; ``timings`` optionally receives the kernel's
    luts/plane/offset nanoseconds.  The GIL is released for the call.
    """
    lib = load()
    if lib is None:
        return None
    handle = _handle(program)
    if not handle.valid:
        return None
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[0] != program.n:
        raise ValueError(f"expected float64 activations of shape "
                         f"({program.n}, batch), got {x.dtype} {x.shape}")
    batch = x.shape[1]
    if group_sums.shape != (len(program.offset_slices), batch):
        raise ValueError(f"group sums {group_sums.shape} do not match "
                         f"{len(program.offset_slices)} groups x {batch}")
    if not x.flags.aligned or x.strides[0] % 8 or x.strides[1] % 8:
        x = np.ascontiguousarray(x)
    group_sums = np.ascontiguousarray(group_sums, dtype=np.float64)
    y = np.zeros((program.m, batch), dtype=np.float64)
    rc = lib.figlut_execute(handle.ref, batch, x.ctypes.data,
                            x.strides[0] // 8, x.strides[1] // 8,
                            group_sums.ctypes.data, y.ctypes.data, timings)
    return y if rc == 0 else None
