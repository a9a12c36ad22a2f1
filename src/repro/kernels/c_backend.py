"""The compiled C backend (``"c"``).

All four kernels are compiled, from :file:`ckernels.c`:
``fused_update`` and ``fused_predict``, whose NumPy body is a
per-example Python loop, and the parameter-server push codec's
``chunk_delta`` (encode each dirty chunk's delta and advance the sync
base in one pass) and ``chunk_add`` (add each shipped row into the
driver table).  The C bodies are bit-identical to the reference on
every input, including the exception it raises and the partial state
it leaves.

The library is built once per machine and source hash with the system
``cc`` into the first usable cache directory (``$XDG_CACHE_HOME/repro``,
``~/.cache/repro``, or ``repro-<uid>`` under the system temp dir), and
looked up there only; a directory or library another user owns or can
write to is never used.  It is built under a temporary name that
``os.replace`` moves into place, so concurrent first builds never load
a partial library.  It is loaded through cffi's ABI mode
(``ffi.dlopen``: no Python headers, and the GIL is released around
every call).  Any failure raises :class:`BuildError`, which the
registry records as the backend's unavailability reason.

The wrappers do O(1) work in Python — dtype, shape and contiguity
checks — before one C call.  Buffers the kernels write must already be
C-contiguous and writable (a copy would silently drop the writes);
strided read-only inputs are copied.  Range checks (``indptr``, every
flat bucket, chunk ids, the buffers' lengths) run in C before anything
is written and come back as a status the wrapper raises.  The chunk
kernels share their Python checks and error messages with the NumPy
reference (``numpy_backend.check_chunk_buffers`` / ``chunk_ids_error``).
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels import numpy_backend
from repro.kernels.api import CHUNK, KernelBackend

SOURCE = Path(__file__).with_name("ckernels.c")

#: The only flags the kernels are built with.  Never -ffast-math or
#: -march=native: FMA contraction and reassociation change float bits.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: ckernels.c's entry points.  Pointer arguments are declared ``void *``
#: so the wrappers can pass untyped ``ffi.from_buffer`` views, the
#: cheapest conversion cffi has; the wrappers check every dtype first.
_CDEF = """
int64_t repro_fused_update(
    void *table, int64_t size,
    void *fb, void *sv, int64_t depth, int64_t ncols,
    void *indptr, void *labels, void *etas,
    int64_t n, double lam, double sqrt_s,
    int64_t loss_id, double loss_param,
    void *margins, void *gathered, int64_t gathered_rows,
    void *scales, int64_t n_scales,
    void *touched, int64_t n_touched, double *scale_io);
int64_t repro_fused_predict(
    void *table, int64_t size,
    void *fb, void *sv, int64_t depth, int64_t ncols,
    void *indptr, int64_t n, double scale, double sqrt_s,
    void *out);
int64_t repro_chunk_delta(
    void *table, int64_t size, void *base, int64_t base_len,
    void *ids, int64_t k, double alpha, double drift,
    void *out, int64_t out_len);
int64_t repro_chunk_add(
    void *table, int64_t size, void *ids, int64_t k,
    void *data, int64_t data_len, double scale);
"""

class BuildError(RuntimeError):
    """The C library could not be built or loaded on this host."""


def _find_compiler() -> str | None:
    return shutil.which("cc")


def _library_name() -> str:
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"ckernels-{digest.hexdigest()[:16]}.so"


def _cache_dirs() -> list[Path]:
    """Candidate build directories, in preference order."""
    dirs = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        dirs.append(Path(xdg) / "repro")
    try:
        dirs.append(Path.home() / ".cache" / "repro")
    except RuntimeError:  # no resolvable home directory
        pass
    uid = getattr(os, "getuid", lambda: None)()
    suffix = "" if uid is None else f"-{uid}"
    dirs.append(Path(tempfile.gettempdir()) / f"repro{suffix}")
    return dirs


def _is_private(path: Path) -> bool:
    """Whether no other user can have written ``path``: it is not a
    symlink, belongs to this user and is neither group- nor
    world-writable.  A library someone else could plant or replace must
    never be loaded."""
    if not hasattr(os, "getuid"):
        return True
    info = path.lstat()
    return (not stat.S_ISLNK(info.st_mode) and info.st_uid == os.getuid()
            and not info.st_mode & 0o022)


def _compile(cc: str, final: Path) -> None:
    fd, tmp = tempfile.mkstemp(
        prefix=final.name + ".", suffix=".tmp", dir=final.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise BuildError(
                f"{cc} exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-400:]}"
            )
        # The linker applies the umask; under 002 the library would be
        # group-writable, and _is_private would reject it next time.
        os.chmod(tmp, 0o755)
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build() -> Path:
    """Path of the built library, compiling it on first use.

    Lookup and build use one directory: the first cache candidate that
    exists or can be made, is private (:func:`_is_private`) and holds
    the library or can take it.  A library there that is not private is
    rebuilt in place."""
    name = _library_name()
    failures = []
    for directory in _cache_dirs():
        path = directory / name
        try:
            directory.mkdir(parents=True, exist_ok=True, mode=0o700)
            if not _is_private(directory):
                raise OSError("not a private directory")
            if path.is_file() and _is_private(path):
                return path
            cc = _find_compiler()
            if cc is None:
                raise BuildError("no C compiler ('cc') on PATH")
            _compile(cc, path)
        except OSError as exc:
            failures.append(f"{directory}: {exc}")
            continue
        except subprocess.TimeoutExpired as exc:
            raise BuildError(f"{cc} timed out after {exc.timeout}s") from exc
        return path
    raise BuildError(f"no usable cache directory ({'; '.join(failures)})")


def load() -> KernelBackend:
    """Build (if needed) and load the library: the ``"c"`` backend.

    The registry (:mod:`repro.kernels`) calls this once per process and
    caches the result."""
    try:
        import cffi
    except ImportError as exc:
        raise BuildError(
            f"{exc} (install the repro[compiled] extra)"
        ) from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    path = build()
    try:
        lib = ffi.dlopen(str(path))
    except OSError as exc:
        raise BuildError(f"cannot load {path}: {exc}") from exc
    return _make_backend(ffi, lib)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
#: Dtypes of (table_flat, flat_buckets, sign_values, indptr, labels,
#: etas, margins_out, gathered_out, scales_out, touched_out).
_UPDATE_DTYPES = (_F64, _I64, _F64, _I64, _I64, _F64, _F64, _F64, _F64, _I64)
#: Dtypes of (table_flat, flat_buckets, sign_values, indptr, out).
_PREDICT_DTYPES = (_F64, _I64, _F64, _I64, _F64)


def _raise_status(status: int, flat_buckets, size: int, n: int,
                  loss_id=None, loss_param=None):
    """Raise what a nonzero ckernels.c status (code in the low four
    bits, detail above) stands for — what the NumPy reference raises."""
    code, detail = status & 15, status >> 4
    if code == 1:  # detail: flat position of the bucket
        bucket = int(flat_buckets.reshape(-1)[detail])
        raise IndexError(
            f"index {bucket} is out of bounds for axis 0 with size {size}"
        )
    if code == 10:  # detail: the first bad entry of n chunk ids
        raise numpy_backend.chunk_ids_error(detail, n, -(-size // CHUNK))
    exc_type, message = {
        2: (OverflowError, "intermediate overflow in fsum"),
        3: (ValueError, "-inf + inf in fsum"),
        4: (ZeroDivisionError, "float division by zero"),
        5: (ValueError, f"indptr must be non-decreasing within [0, nnz] "
                        f"(bad entry {detail} of {n + 1})"),
        6: (ValueError, f"unknown loss_id {loss_id}"),
        7: (ValueError, f"gamma must be positive, got {loss_param}"),
        8: (ValueError, ("touched_out must hold 0, 1 or at least 1 + "
                         "depth * nnz slots",
                         "gathered_out / scales_out are too short for "
                         "the batch",
                         "a chunk buffer is too short")[min(detail, 2)]),
    }.get(code, (RuntimeError, f"C kernel failed with status {status}"))
    raise exc_type(message)


def _layout_error(name: str, exc: Exception) -> ValueError:
    return ValueError(f"{name} must be a writable C-contiguous array ({exc})")


def _make_backend(ffi, lib) -> KernelBackend:
    # Untyped buffer views: read-only ones need C-contiguity (numpy
    # refuses a simple buffer otherwise), written ones also writability.
    view = ffi.from_buffer
    new = ffi.new
    c_update = lib.repro_fused_update
    c_predict = lib.repro_fused_predict
    c_delta = lib.repro_chunk_delta
    c_add = lib.repro_chunk_add
    check_chunk_buffers = numpy_backend.check_chunk_buffers

    def copied_views(*arrays):
        # A strided read-only input: a contiguous copy reads the same.
        return [view(np.ascontiguousarray(a)) for a in arrays]

    def fused_update(
        table_flat, flat_buckets, sign_values, indptr, labels, etas,
        lam, scale, sqrt_s, loss_id, loss_param, margins_out,
        gathered_out, scales_out, touched_out,
    ):
        dtypes = (table_flat.dtype, flat_buckets.dtype, sign_values.dtype,
                  indptr.dtype, labels.dtype, etas.dtype, margins_out.dtype,
                  gathered_out.dtype, scales_out.dtype, touched_out.dtype)
        if dtypes != _UPDATE_DTYPES:
            raise TypeError(f"fused_update dtypes must be {_UPDATE_DTYPES}, "
                            f"got {dtypes}")
        n = margins_out.shape[0]
        if (table_flat.ndim != 1 or flat_buckets.ndim != 2
                or sign_values.shape != flat_buckets.shape
                or indptr.ndim != 1 or indptr.shape[0] <= n
                or labels.ndim != 1 or labels.shape[0] < n
                or etas.ndim != 1 or etas.shape[0] < n
                or margins_out.ndim != 1 or gathered_out.ndim != 2
                or scales_out.ndim != 1 or touched_out.ndim != 1):
            raise ValueError(
                "fused_update: inconsistent shapes (see kernels.api)"
            )
        depth, ncols = flat_buckets.shape
        rows = gathered_out.shape[0]
        # C indexes gathered_out with row stride depth; it checks every
        # buffer length itself.
        if rows and gathered_out.shape[1] != depth:
            raise ValueError(
                f"gathered_out must have depth = {depth} columns, "
                f"got {gathered_out.shape[1]}"
            )
        try:
            fb, sv, ip, ys, es = (
                view(flat_buckets), view(sign_values), view(indptr),
                view(labels), view(etas),
            )
        except ValueError:
            fb, sv, ip, ys, es = copied_views(
                flat_buckets, sign_values, indptr, labels, etas
            )
        written = []
        for name, arr in (("table_flat", table_flat),
                          ("margins_out", margins_out),
                          ("gathered_out", gathered_out),
                          ("scales_out", scales_out),
                          ("touched_out", touched_out)):
            try:
                written.append(view(arr, require_writable=True))
            except ValueError as exc:
                raise _layout_error(name, exc) from None
        table, margins, gathered, scales, touched = written
        scale_io = new("double *", scale)
        status = c_update(
            table, table_flat.shape[0], fb, sv, depth, ncols, ip, ys, es,
            n, lam, sqrt_s, loss_id, loss_param, margins, gathered, rows,
            scales, scales_out.shape[0], touched, touched_out.shape[0],
            scale_io,
        )
        if status:
            _raise_status(status, flat_buckets, table_flat.shape[0], n,
                          loss_id, loss_param)
        return scale_io[0]

    def fused_predict(
        table_flat, flat_buckets, sign_values, indptr, scale, sqrt_s, out,
    ):
        dtypes = (table_flat.dtype, flat_buckets.dtype, sign_values.dtype,
                  indptr.dtype, out.dtype)
        if dtypes != _PREDICT_DTYPES:
            raise TypeError(f"fused_predict dtypes must be "
                            f"{_PREDICT_DTYPES}, got {dtypes}")
        n = out.shape[0]
        if (table_flat.ndim != 1 or flat_buckets.ndim != 2
                or sign_values.shape != flat_buckets.shape
                or indptr.ndim != 1 or indptr.shape[0] <= n
                or out.ndim != 1):
            raise ValueError(
                "fused_predict: inconsistent shapes (see kernels.api)"
            )
        depth, ncols = flat_buckets.shape
        try:
            table, fb, sv, ip = (
                view(table_flat), view(flat_buckets), view(sign_values),
                view(indptr),
            )
        except ValueError:
            table, fb, sv, ip = copied_views(
                table_flat, flat_buckets, sign_values, indptr
            )
        try:
            dest = view(out, require_writable=True)
        except ValueError as exc:
            raise _layout_error("out", exc) from None
        status = c_predict(
            table, table_flat.shape[0], fb, sv, depth, ncols, ip, n,
            scale, sqrt_s, dest,
        )
        if status:
            _raise_status(status, flat_buckets, table_flat.shape[0], n)

    def chunk_delta(table_flat, base_flat, chunk_ids, alpha, drift, out):
        check_chunk_buffers(
            table_flat, chunk_ids, out,
            (("base_flat", base_flat), ("out", out)), base_flat,
        )
        try:
            table, ids = view(table_flat), view(chunk_ids)
        except ValueError:
            table, ids = copied_views(table_flat, chunk_ids)
        size, k = table_flat.shape[0], chunk_ids.shape[0]
        status = c_delta(
            table, size, view(base_flat, require_writable=True),
            base_flat.shape[0], ids, k, alpha, drift,
            view(out, require_writable=True), out.size,
        )
        if status:
            _raise_status(status, None, size, k)

    def chunk_add(table_flat, chunk_ids, data, scale):
        check_chunk_buffers(
            table_flat, chunk_ids, data, (("table_flat", table_flat),)
        )
        try:
            ids, rows = view(chunk_ids), view(data)
        except ValueError:
            ids, rows = copied_views(chunk_ids, data)
        size, k = table_flat.shape[0], chunk_ids.shape[0]
        status = c_add(
            view(table_flat, require_writable=True), size, ids, k, rows,
            data.size, scale,
        )
        if status:
            _raise_status(status, None, size, k)

    return KernelBackend("c", functions={
        "fused_update": fused_update,
        "fused_predict": fused_predict,
        "chunk_delta": chunk_delta,
        "chunk_add": chunk_add,
    })
