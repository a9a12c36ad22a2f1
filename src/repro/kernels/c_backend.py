"""The compiled C backend (``"c"``).

All ten kernels are compiled, from :file:`ckernels.c`:
``fused_update``, whose NumPy body is a per-example Python loop; the
serving reads ``fused_predict`` and ``fused_query``, which hash, translate
through a snapshot's chunk map, gather and sum or take the median (and
find AWM members by binary search) in one C call where the NumPy bodies
make a dozen NumPy calls; ``heap_maintain``, WM's passive-heap refresh
and admissions, which runs the shared decision core in Python until
the store is full and one C loop from there; ``awm_update``, AWM's
Algorithm 2 step against a full active set, one C loop whose
admissions ``TopKStore.apply_admissions`` finishes; the
parameter-server codec's four chunk moves, ``chunk_delta`` (encode each
dirty chunk's delta and advance the sync base in one pass),
``chunk_add`` (add each shipped row into the driver table),
``chunk_gather`` (copy the driver chunks a pull ships) and
``chunk_scatter`` (write each pulled row into the worker's table and
sync base in one pass); and ``hash_rows``, which
evaluates a hash family over its packed tables where the NumPy body
serves keys from the hasher's memo.  The C bodies are
bit-identical to the reference on every input, including the exception
it raises and the partial state it leaves.

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
checks (``hash_rows`` shares them with the memo,
``repro.hashing.batch.check_rows_buffers``) — before one C call
(``heap_maintain`` first runs the decision core itself while the store
has free slots; the two store kernels finish with
``TopKStore.apply_admissions``, on a raising status too).
Buffers the kernels write must already be
C-contiguous and writable (a copy would silently drop the writes);
strided read-only inputs are copied.  Range checks (``indptr``, every
flat bucket, chunk ids, the buffers' lengths) run in C before anything
is written and come back as a status the wrapper raises.  The chunk
kernels share their Python checks and error messages with the NumPy
reference (``numpy_backend.check_chunk_buffers`` / ``chunk_ids_error``),
including the rejection of a written buffer that may share memory with
another argument, which their ``restrict``-qualified row loops rely on.
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

from repro.hashing.batch import check_rows_buffers
from repro.hashing.family import KIND_CODES
from repro.heap.topk import BatchSlotCache
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
    void *touched, int64_t n_touched, void *state);
int64_t repro_fused_predict(
    void *packed, int64_t kind, int64_t row_len, int64_t depth,
    int64_t width, void *table, int64_t size, void *cmap, int64_t n_map,
    int64_t members, void *skeys, void *sslots, int64_t live,
    void *raw, int64_t n_raw, double hscale,
    void *keys, void *values, void *indptr,
    int64_t n, int64_t nnz, double scale, double sqrt_s,
    void *slots, int64_t n_slots, void *out);
int64_t repro_fused_query(
    void *packed, int64_t kind, int64_t row_len, int64_t depth,
    int64_t width, void *table, int64_t size, void *cmap, int64_t n_map,
    void *skeys, void *sslots, int64_t live,
    void *raw, int64_t n_raw, double hscale,
    void *keys, int64_t n, double factor, double l1,
    void *row, int64_t n_row, void *out, int64_t *hashed);
int64_t repro_heap_maintain(
    void *indices, int64_t nnz, void *indptr, int64_t n, int64_t start,
    void *signs, void *gathered, int64_t depth,
    void *scales, int64_t n_scales, double sqrt_s, double l1,
    void *keys, void *raw, int64_t live, int64_t capacity, double scale,
    void *probe, int64_t probe_len,
    void *est, void *slots, int64_t scratch_len,
    void *row, int64_t row_len, void *block, int64_t block_len,
    void *log, int64_t log_len, int64_t *min_io);
int64_t repro_awm_update(
    void *table, int64_t size,
    void *indices, void *values, void *indptr, void *labels, void *etas,
    int64_t n, int64_t start,
    void *fb, void *signs, void *sv, int64_t depth, int64_t nnz,
    void *key_fb, void *key_signs,
    void *keys, void *raw, int64_t live, int64_t capacity,
    double lam, double sqrt_s, double l1, int64_t loss_id,
    double loss_param, double *state, int64_t *io,
    void *margins, void *dirty, int64_t n_dirty,
    void *probe, int64_t probe_len,
    void *slots, void *members, void *tail, void *cand,
    int64_t scratch_len, void *row, int64_t row_len,
    void *block, int64_t block_len,
    void *admits, int64_t admits_len);
int64_t repro_chunk_delta(
    void *table, int64_t size, void *base, int64_t base_len,
    void *ids, int64_t k, double alpha, double drift,
    void *out, int64_t out_len);
int64_t repro_chunk_add(
    void *table, int64_t size, void *ids, int64_t k,
    void *data, int64_t data_len, double scale);
int64_t repro_chunk_gather(
    void *table, int64_t size, void *ids, int64_t k,
    void *out, int64_t out_len);
int64_t repro_chunk_scatter(
    void *table, int64_t size, void *base, int64_t base_len,
    void *ids, int64_t k, void *data, int64_t data_len);
void repro_hash_rows(
    void *packed, int64_t kind, int64_t row_len, int64_t depth,
    int64_t width, void *keys, int64_t n, void *buckets, void *signs);
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
#: etas, state, margins_out, gathered_out, scales_out, touched_out).
_UPDATE_DTYPES = (_F64, _I64, _F64, _I64, _I64, _F64, _F64, _F64, _F64, _F64,
                  _I64)
#: Dtypes of fused_predict's (table_flat, indices, values, indptr, out).
_PREDICT_DTYPES = (_F64, _I64, _F64, _I64, _F64)
#: Dtypes of fused_query's (table_flat, keys, out).
_QUERY_DTYPES = (_F64, _I64, _F64)
#: Dtypes of (indices, indptr, signs, gathered, scales).
_MAINTAIN_DTYPES = (_I64, _I64, _F64, _F64, _F64)
#: Dtypes of (etas, flat, signs, sv, key_flat, key_signs, table_flat,
#: state, progress, margins_out, dirty).
_AWM_DTYPES = (_F64, _I64, _F64, _F64, _I64, _F64, _F64, _F64, _I64, _F64,
               np.dtype(bool))


def _raise_status(status: int, flat_buckets, size: int, n: int,
                  loss_id=None, loss_param=None):
    """Raise what a nonzero ckernels.c status (code in the low four
    bits, detail above) stands for — what the NumPy reference raises."""
    code, detail = status & 15, status >> 4
    if code == 1:  # detail: flat position of the bucket, or the bucket
        bucket = (detail if flat_buckets is None
                  else int(flat_buckets.reshape(-1)[detail]))
        raise IndexError(
            f"index {bucket} is out of bounds for axis 0 with size {size}"
        )
    if code == 5:  # detail: the first bad entry of n + 1 offsets
        raise numpy_backend.indptr_error(detail, n)
    if code == 10:  # detail: the first bad entry of n chunk ids
        raise numpy_backend.chunk_ids_error(detail, n, -(-size // CHUNK))
    exc_type, message = {
        2: (OverflowError, "intermediate overflow in fsum"),
        3: (ValueError, "-inf + inf in fsum"),
        4: (ZeroDivisionError, "float division by zero"),
        6: (ValueError, f"unknown loss_id {loss_id}"),
        7: (ValueError, f"gamma must be positive, got {loss_param}"),
        8: (ValueError, ("touched_out must hold at least 1 + depth * nnz "
                         "slots",
                         "gathered_out / scales_out are too short for "
                         "the batch",
                         "a chunk buffer is too short",
                         "a heap_maintain buffer is too short for the "
                         "batch",
                         "an awm_update buffer is too short for the "
                         "batch",
                         "a read kernel's scratch or chunk map is too "
                         "short")[min(detail, 5)]),
        11: (ValueError, ("the store's live keys are not distinct",
                          "the kernel needs a full store with its "
                          "cached minimum slot in range",
                          "a key repeats within an example",
                          "a store slot is out of range")[min(detail, 3)]),
    }.get(code, (RuntimeError, f"C kernel failed with status {status}"))
    raise exc_type(message)


def _probe_cells(live: int) -> int:
    """Cells of the C probe table over ``live`` store keys: the smallest
    power of two >= 8 * live, at least 8 (ckernels.c's probe_cells)."""
    cells = 8
    while cells < 8 * live:
        cells *= 2
    return cells


def _min_blocks(live: int) -> int:
    """Per-block cached minima of ``live`` store slots, one per 64
    (ckernels.c's min_blocks)."""
    return -(-live // 64)


def _layout_error(name: str, exc: Exception) -> ValueError:
    return ValueError(f"{name} must be a writable C-contiguous array ({exc})")


def _make_backend(ffi, lib) -> KernelBackend:
    # Untyped buffer views: read-only ones need C-contiguity (numpy
    # refuses a simple buffer otherwise), written ones also writability.
    view = ffi.from_buffer
    new = ffi.new
    null = ffi.NULL
    c_update = lib.repro_fused_update
    c_predict = lib.repro_fused_predict
    c_query = lib.repro_fused_query
    c_maintain = lib.repro_heap_maintain
    c_awm = lib.repro_awm_update
    c_delta = lib.repro_chunk_delta
    c_add = lib.repro_chunk_add
    c_gather = lib.repro_chunk_gather
    c_scatter = lib.repro_chunk_scatter
    c_hash = lib.repro_hash_rows
    check_chunk_buffers = numpy_backend.check_chunk_buffers

    def copied_views(*arrays):
        # A strided read-only input: a contiguous copy reads the same.
        return [view(np.ascontiguousarray(a)) for a in arrays]

    def fused_update(
        table_flat, flat_buckets, sign_values, indptr, labels, etas,
        lam, state, sqrt_s, loss_id, loss_param, margins_out,
        gathered_out, scales_out, touched_out,
    ):
        dtypes = (table_flat.dtype, flat_buckets.dtype, sign_values.dtype,
                  indptr.dtype, labels.dtype, etas.dtype, state.dtype,
                  margins_out.dtype, gathered_out.dtype, scales_out.dtype,
                  touched_out.dtype)
        if dtypes != _UPDATE_DTYPES:
            raise TypeError(f"fused_update dtypes must be {_UPDATE_DTYPES}, "
                            f"got {dtypes}")
        n = margins_out.shape[0]
        if (table_flat.ndim != 1 or flat_buckets.ndim != 2
                or state.shape != (2,)
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
                          ("state", state),
                          ("margins_out", margins_out),
                          ("gathered_out", gathered_out),
                          ("scales_out", scales_out),
                          ("touched_out", touched_out)):
            try:
                written.append(view(arr, require_writable=True))
            except ValueError as exc:
                raise _layout_error(name, exc) from None
        table, state_io, margins, gathered, scales, touched = written
        # C writes state on a raising status too: the completed examples.
        status = c_update(
            table, table_flat.shape[0], fb, sv, depth, ncols, ip, ys, es,
            n, lam, sqrt_s, loss_id, loss_param, margins, gathered, rows,
            scales, scales_out.shape[0], touched, touched_out.shape[0],
            state_io,
        )
        if status:
            _raise_status(status, flat_buckets, table_flat.shape[0], n,
                          loss_id, loss_param)

    def read_views(hasher, table_flat, chunk_map, store):
        # The arguments both reads share: the family's packed rows, the
        # table (and chunk map), and the store's sorted live keys.
        family = hasher.family
        packed = family.packed
        if chunk_map is None:
            cmap, n_map = null, 0
        else:
            if chunk_map.dtype != _I64 or chunk_map.ndim != 1:
                raise TypeError("chunk_map must be a 1-d int64 array")
            cmap, n_map = view(np.ascontiguousarray(chunk_map)), \
                chunk_map.shape[0]
        args = [view(packed), KIND_CODES[family.kind],
                packed.shape[0] // family.depth, family.depth,
                family.width, view(np.ascontiguousarray(table_flat)),
                table_flat.shape[0], cmap, n_map]
        if store is None or store._n == 0:
            return args + [null, null, 0, null, 0, 1.0]
        keys, slots = store._sorted()
        if slots.shape != keys.shape:
            raise ValueError("the store's sorted keys and slots differ in "
                             "length")
        raw = np.ascontiguousarray(store._raw, dtype=np.float64)
        return args + [
            view(np.ascontiguousarray(keys, dtype=np.int64)),
            view(np.ascontiguousarray(slots, dtype=np.int64)),
            keys.shape[0], view(raw), raw.shape[0], store._scale,
        ]

    def written(name, arr):
        try:
            return view(arr, require_writable=True)
        except ValueError as exc:
            raise _layout_error(name, exc) from None

    def fused_predict(
        hasher, table_flat, chunk_map, store, indices, values, indptr,
        scale, sqrt_s, ws, out,
    ):
        dtypes = (table_flat.dtype, indices.dtype, values.dtype,
                  indptr.dtype, out.dtype)
        if dtypes != _PREDICT_DTYPES:
            raise TypeError(f"fused_predict dtypes must be "
                            f"{_PREDICT_DTYPES}, got {dtypes}")
        n = out.shape[0]
        nnz = indices.shape[0] if indices.ndim == 1 else -1
        if (table_flat.ndim != 1 or indices.ndim != 1
                or values.shape != indices.shape
                or indptr.ndim != 1 or indptr.shape[0] <= n
                or out.ndim != 1):
            raise ValueError(
                "fused_predict: inconsistent shapes (see kernels.api)"
            )
        members = store is not None
        slots = ws.array("fp_slots", nnz, np.int64) if members else None
        shared = read_views(hasher, table_flat, chunk_map, store)
        status = c_predict(
            *shared[:9], members, *shared[9:],
            view(np.ascontiguousarray(indices)),
            view(np.ascontiguousarray(values)),
            view(np.ascontiguousarray(indptr)), n, nnz, scale, sqrt_s,
            null if slots is None else written("slots", slots), nnz,
            written("out", out),
        )
        # The numpy body hashes every position once indptr checks out
        # (status 5: a bad indptr; 8: a short buffer, both raised first).
        if nnz and status & 15 not in (5, 8):
            hasher.count_misses(nnz)
        if status:
            _raise_status(status, None, table_flat.shape[0], n)

    def fused_query(
        hasher, table_flat, chunk_map, store, keys, factor, l1, ws, out,
    ):
        dtypes = (table_flat.dtype, keys.dtype, out.dtype)
        if dtypes != _QUERY_DTYPES:
            raise TypeError(f"fused_query dtypes must be {_QUERY_DTYPES}, "
                            f"got {dtypes}")
        if (table_flat.ndim != 1 or keys.ndim != 1
                or out.shape != keys.shape):
            raise ValueError(
                "fused_query: inconsistent shapes (see kernels.api)"
            )
        n = keys.shape[0]
        if n == 0:
            return
        depth = hasher.family.depth
        hashed = new("int64_t[1]")
        status = c_query(
            *read_views(hasher, table_flat, chunk_map, store),
            view(np.ascontiguousarray(keys)), n, factor, l1,
            written("row", ws.array("fq_row", depth)), depth,
            written("out", out), hashed,
        )
        if status:
            _raise_status(status, None, table_flat.shape[0], n)
        # The numpy body hashes exactly the keys the store does not hold.
        if hashed[0]:
            hasher.count_misses(hashed[0])

    def heap_maintain(
        store, indices, indptr, signs, gathered, scales, sqrt_s, l1, ws,
    ):
        dtypes = (indices.dtype, indptr.dtype, signs.dtype, gathered.dtype,
                  scales.dtype)
        if dtypes != _MAINTAIN_DTYPES:
            raise TypeError(f"heap_maintain dtypes must be "
                            f"{_MAINTAIN_DTYPES}, got {dtypes}")
        n = indptr.shape[0] - 1
        if (indices.ndim != 1 or indptr.ndim != 1 or n < 0
                or signs.ndim != 2 or signs.shape[0] < 1
                or signs.shape[1] != indices.shape[0]
                or gathered.shape != signs.shape[::-1]
                or scales.ndim != 1 or scales.shape[0] < n):
            raise ValueError(
                "heap_maintain: inconsistent shapes (see kernels.api)"
            )
        if store._priority is not abs:
            raise ValueError("heap_maintain needs a store ordered by abs")
        start = 0
        if not store.is_full:
            # Free slots: every example runs the shared decision core
            # (as in the numpy body) until one meets a full store.  It
            # writes, so it gets C's indptr check first.
            numpy_backend.check_indptr(indptr, n, indices.shape[0])
            est, _ = numpy_backend.recorded_estimates(
                indptr, signs, gathered, scales, sqrt_s, l1, ws
            )
            start = numpy_backend.maintain_until_full(
                store, indices, indptr.tolist(), est,
                BatchSlotCache(store, indices, ws=ws),
            )
            if start == n:
                return
        depth, nnz = signs.shape
        live = store._n
        cells = _probe_cells(live)
        blocks = _min_blocks(live)
        try:
            ids, ip, sg, gt, sc = (
                view(indices), view(indptr), view(signs), view(gathered),
                view(scales),
            )
        except ValueError:
            ids, ip, sg, gt, sc = copied_views(
                indices, indptr, signs, gathered, scales
            )
        log = ws.array("hm_log", 3 * nnz, np.int64)
        min_io = new("int64_t[2]", [store._min_slot, 0])
        status = c_maintain(
            ids, nnz, ip, n, start, sg, gt, depth, sc, scales.shape[0],
            sqrt_s, l1, view(store._keys, require_writable=True),
            view(store._raw, require_writable=True), live, store.capacity,
            store._scale,
            view(ws.array("hm_probe", 2 * cells, np.int64),
                 require_writable=True), 2 * cells,
            view(ws.array("hm_est", nnz), require_writable=True),
            view(ws.array("hm_slots", nnz, np.int64), require_writable=True),
            nnz, view(ws.array("hm_row", depth), require_writable=True),
            depth, view(ws.array("hm_block", blocks, np.int64),
                        require_writable=True), blocks,
            view(log, require_writable=True), log.shape[0], min_io,
        )
        if status:
            _raise_status(status, None, 0, n)
        count = min_io[1]
        store.apply_admissions(log[:3 * count].reshape(count, 3), min_io[0])

    def awm_update(
        store, batch, start, etas, flat, signs, sv, key_flat, key_signs,
        table_flat, lam, sqrt_s, l1, loss_id, loss_param, state, progress,
        margins_out, dirty, ws,
    ):
        dtypes = (etas.dtype, flat.dtype, signs.dtype, sv.dtype,
                  key_flat.dtype, key_signs.dtype, table_flat.dtype,
                  state.dtype, progress.dtype, margins_out.dtype, dirty.dtype)
        if dtypes != _AWM_DTYPES:
            raise TypeError(f"awm_update dtypes must be {_AWM_DTYPES}, "
                            f"got {dtypes}")
        indptr = batch.indptr
        n = indptr.shape[0] - 1
        nnz = batch.indices.shape[0]
        depth = flat.shape[0] if flat.ndim == 2 else 0
        capacity = store.capacity
        if (flat.ndim != 2 or depth < 1 or flat.shape[1] != nnz
                or signs.shape != flat.shape or sv.shape != flat.shape
                or key_flat.shape != (depth, capacity)
                or key_signs.shape != key_flat.shape
                or etas.ndim != 1 or etas.shape[0] < n
                or table_flat.ndim != 1 or state.shape != (2,)
                or progress.shape != (2,) or margins_out.ndim != 1
                or margins_out.shape[0] < n or dirty.ndim != 1):
            raise ValueError(
                "awm_update: inconsistent shapes (see kernels.api)"
            )
        numpy_backend.check_awm_args(store, start, n)
        try:
            ids, vals, ip, ys, es, fb, sg, svv = (
                view(batch.indices), view(batch.values), view(indptr),
                view(batch.labels), view(etas), view(flat), view(signs),
                view(sv),
            )
        except ValueError:
            ids, vals, ip, ys, es, fb, sg, svv = copied_views(
                batch.indices, batch.values, indptr, batch.labels, etas,
                flat, signs, sv,
            )
        written = []
        for name, arr in (("key_flat", key_flat), ("key_signs", key_signs),
                          ("table_flat", table_flat),
                          ("margins_out", margins_out), ("dirty", dirty)):
            try:
                written.append(view(arr, require_writable=True))
            except ValueError as exc:
                raise _layout_error(name, exc) from None
        kf, ks, table, margins, marks = written
        live = store._n
        cells = _probe_cells(live)
        blocks = _min_blocks(live)
        log = ws.array("awm_log", 3 * nnz, np.int64)
        scales = new("double[3]", [state[0], state[1], store._scale])
        io = new("int64_t[3]", [0, 0, store._min_slot])
        status = c_awm(
            table, table_flat.shape[0], ids, vals, ip, ys, es, n, start,
            fb, sg, svv, depth, nnz, kf, ks,
            view(store._keys, require_writable=True),
            view(store._raw, require_writable=True), live, capacity,
            lam, sqrt_s, l1, loss_id, loss_param, scales, io,
            margins, marks, dirty.shape[0],
            view(ws.array("awm_probe", 2 * cells, np.int64),
                 require_writable=True), 2 * cells,
            view(ws.array("awm_slots", nnz, np.int64),
                 require_writable=True),
            view(ws.array("awm_members", nnz, np.int64),
                 require_writable=True),
            view(ws.array("awm_tail", nnz, np.int64), require_writable=True),
            view(ws.array("awm_cand", nnz), require_writable=True), nnz,
            view(ws.array("awm_row", depth), require_writable=True), depth,
            view(ws.array("awm_block", blocks, np.int64),
                 require_writable=True), blocks,
            view(log, require_writable=True), log.shape[0],
        )
        # Partial state first: a raising status still leaves the
        # completed examples applied.
        state[0], state[1] = scales[0], scales[1]
        progress[0] += io[0]
        progress[1] += io[1]
        count = io[1]
        store.apply_admissions(log[:3 * count].reshape(count, 3), io[2],
                               scales[2])
        if status & 15 == 1:
            # The range check the numpy body runs names the bucket.
            numpy_backend.check_awm_buckets(
                table_flat.shape[0], flat[:, indptr[start]:indptr[n]],
                key_flat,
            )
        if status:
            _raise_status(status, None, 0, n, loss_id, loss_param)

    def read_chunk_views(*arrays):
        try:
            return [view(a) for a in arrays]
        except ValueError:
            return copied_views(*arrays)

    def chunk_delta(table_flat, base_flat, chunk_ids, alpha, drift, out):
        check_chunk_buffers(
            table_flat, chunk_ids, out, ("base_flat", "out"), base_flat
        )
        table, ids = read_chunk_views(table_flat, chunk_ids)
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
            table_flat, chunk_ids, data, ("table_flat",), rows_name="data"
        )
        ids, rows = read_chunk_views(chunk_ids, data)
        size, k = table_flat.shape[0], chunk_ids.shape[0]
        status = c_add(
            view(table_flat, require_writable=True), size, ids, k, rows,
            data.size, scale,
        )
        if status:
            _raise_status(status, None, size, k)

    def chunk_gather(table_flat, chunk_ids, out):
        check_chunk_buffers(table_flat, chunk_ids, out, ("out",))
        table, ids = read_chunk_views(table_flat, chunk_ids)
        size, k = table_flat.shape[0], chunk_ids.shape[0]
        status = c_gather(
            table, size, ids, k, view(out, require_writable=True), out.size
        )
        if status:
            _raise_status(status, None, size, k)

    def chunk_scatter(table_flat, base_flat, chunk_ids, data):
        check_chunk_buffers(
            table_flat, chunk_ids, data, ("table_flat", "base_flat"),
            base_flat, rows_name="data",
        )
        ids, rows = read_chunk_views(chunk_ids, data)
        size, k = table_flat.shape[0], chunk_ids.shape[0]
        status = c_scatter(
            view(table_flat, require_writable=True), size,
            view(base_flat, require_writable=True), base_flat.shape[0],
            ids, k, rows, data.size,
        )
        if status:
            _raise_status(status, None, size, k)

    def hash_rows(hasher, keys, buckets_out, signs_out):
        family = hasher.family
        check_rows_buffers(family.depth, keys, buckets_out, signs_out)
        n = keys.shape[0]
        if n:
            packed = family.packed
            c_hash(
                view(packed), KIND_CODES[family.kind],
                packed.shape[0] // family.depth, family.depth, family.width,
                view(np.ascontiguousarray(keys)), n,
                view(buckets_out, require_writable=True),
                view(signs_out, require_writable=True),
            )
            hasher.count_misses(n)

    return KernelBackend("c", functions={
        "fused_update": fused_update,
        "fused_predict": fused_predict,
        "fused_query": fused_query,
        "heap_maintain": heap_maintain,
        "awm_update": awm_update,
        "chunk_delta": chunk_delta,
        "chunk_add": chunk_add,
        "chunk_gather": chunk_gather,
        "chunk_scatter": chunk_scatter,
        "hash_rows": hash_rows,
    })
