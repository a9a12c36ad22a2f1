"""O(dirty) delta codec for parameter-server synchronisation.

The chunked dirty bitmap that makes snapshot publication O(dirty)
(PR 8) doubles as a *wire format*: everything a worker learned since
its last sync lives in the chunks its bitmap names, so a push ships
``(chunk id, 256 buckets)`` pairs instead of the whole table.  This
module is the codec — the pure encode/decode/apply functions between a
live :class:`~repro.core.sketch_table.ScaledSketchTable` and the two
message types crossing the driver/worker boundary:

* :class:`PushDelta` (worker -> driver): the worker's *scaled-space*
  contribution ``U`` on its dirty chunks, the decay product ``delta``
  it applied since its last sync, the top-K promotion log, and the
  example count.  The driver applies ``G <- delta * G + U`` — scale
  times raw-table chunk adds, never a full-table pass.
* :class:`PullDelta` (driver -> worker): the merged table's *raw bits*
  on the chunks that changed since this worker's last pull, plus the
  driver's scale.  Applying a pull makes the worker a bit-exact replica
  of the driver (raw bits equal everywhere by induction — both sides
  track which chunks changed — and the scale is copied).

Why the decomposition is O(dirty)
---------------------------------
A worker's scaled state factors as ``W = delta * P + U`` where ``P`` is
the state it pulled, ``delta`` the decay product it applied since, and
``U`` the decayed sum of its local gradient updates.  Decays move only
the lazy scale; gradient scatters land in dirty-marked chunks — so
``U`` is supported entirely on the dirty set, and outside it
``W = delta * P`` exactly.  Shipping ``(delta, U on dirty chunks)``
loses nothing.

``U`` is computed against a *base*: the worker's raw table copy at the
last sync point (:class:`SyncPoint`).  On a fold-free window the decay
product is the exact scale ratio ``alpha_now / alpha_ref`` and
``delta * alpha_ref == alpha_now`` up to one rounding, so
``U = alpha_now * (raw_now - base_raw)`` on the dirty chunks; with
``lambda == 0`` every factor is exactly 1.0 and the identity is
bit-exact — the regime in which the s=0 loop reproduces the
single-stream table bit-for-bit (``tests/test_ps.py``).  A renorm fold
inside the window marks every chunk dirty, so ``U`` then covers the
whole table and the recovered state is exact regardless of the decay
product's rounding (the log-space fold accounting is
:meth:`~repro.core.sketch_table.ScaledSketchTable.log_virtual_scale`).

Kernels and validation
----------------------
Every chunk move runs in the model's kernel backend, one call per
message side: a push is encoded by ``chunk_delta`` (each dirty chunk's
``U`` written and the sync base advanced in one pass) and applied by
``chunk_add``; a pull is encoded by ``chunk_gather`` and applied by
``chunk_scatter``, which writes each pulled row into the worker's table
and its sync base in one pass, so :func:`apply_pull` re-anchors the
worker's :class:`SyncPoint` itself.  Under the compiled ``c`` backend
each is one loop over the shipped chunks (vectorized arithmetic on full
chunks, ``memcpy`` for the copies); under ``numpy`` the push kernels are
gathers (``np.take``), the arithmetic and fancy-index scatters, and the
pull kernels one ``np.take`` and two fancy-index assignments.  Both backends
produce the same bytes, so messages do not depend on the backend.  The
compiled loops run without the GIL, which is safe because they touch
only the live tables, sync base and message rows of the thread running
the codec; serving readers read published snapshots, never a live
table.

:func:`apply_push` and :func:`apply_pull` check the whole message first
— geometry, chunk ids (1-d int64, strictly increasing within
``[0, n_chunks)``), chunk rows (float64, ``(k, 256)``), a finite
positive decay or scale, and the header: a push's worker id, round id
and example count, a pull's example clock, all non-negative integers,
and a pull's fold log finite — and raise ``ValueError`` with the model
untouched.  The parameter server also checks the worker id against its
worker count (:func:`check_push_header`) before its dedup ledger reads
the round id.
"""

from __future__ import annotations

import math
import numbers
import zlib

import numpy as np

from repro.kernels import CHUNK, numpy_backend

__all__ = [
    "PayloadCorruptionError",
    "PushDelta",
    "PullDelta",
    "SyncPoint",
    "encode_push",
    "apply_push",
    "encode_pull",
    "apply_pull",
    "check_push_header",
    "full_table_bytes",
    "payload_crc",
]

#: Fixed per-message overhead we account for on the wire: the decay
#: product, the example count, worker/round ids, the chunk count, and
#: the CRC32 checksum word (8 bytes each).  Honest but immaterial next
#: to the chunk payload.
_HEADER_BYTES = 6 * 8


class PayloadCorruptionError(ValueError):
    """A wire payload failed structural or checksum validation.

    Raised by ``from_payload`` *before* any state is touched: a
    corrupted delta is rejected at the receiver boundary and the sender
    retransmits its pristine copy — it is never partially applied.
    """


def payload_crc(fields) -> int:
    """CRC32 over a wire tuple's fields, in order.

    Arrays contribute their dtype, shape, and raw bytes (so a
    truncation, a reordering, or a single flipped bit all change the
    digest); scalars contribute their exact ``repr`` (round-trip exact
    for Python ints and floats).
    """
    crc = 0
    for f in fields:
        if isinstance(f, np.ndarray):
            a = np.ascontiguousarray(f)
            crc = zlib.crc32(repr((a.dtype.str, a.shape)).encode(), crc)
            crc = zlib.crc32(a.tobytes(), crc)
        else:
            crc = zlib.crc32(repr(f).encode(), crc)
    return crc


def _decode_checked(cls, payload):
    """Shared ``from_payload`` body: arity check + CRC verify, every
    failure mode funnelled into :class:`PayloadCorruptionError`."""
    try:
        n = len(payload)
    except TypeError as exc:
        raise PayloadCorruptionError(
            f"malformed {cls.__name__} payload: not a sequence ({exc})"
        ) from exc
    if n != len(cls.__slots__) + 1:
        raise PayloadCorruptionError(
            f"malformed {cls.__name__} payload: {n} fields, expected "
            f"{len(cls.__slots__) + 1} (incl. checksum)"
        )
    fields, crc = payload[:-1], payload[-1]
    try:
        expect = payload_crc(fields)
    except Exception as exc:
        raise PayloadCorruptionError(
            f"malformed {cls.__name__} payload: {exc!r}"
        ) from exc
    if crc != expect:
        raise PayloadCorruptionError(
            f"{cls.__name__} checksum mismatch: payload carries "
            f"{crc!r}, contents hash to {expect}"
        )
    return cls(*fields)


def full_table_bytes(model) -> int:
    """The bytes a *full-state* sync of ``model``'s table would ship —
    the denominator of the headline delta-bytes ratio."""
    return 8 * model.size


class SyncPoint:
    """Worker-side record of the state at the last push or pull.

    ``base_raw`` is a flat copy of the model's raw table bits,
    ``scale`` / ``fold_log`` the lazy scale and fold accumulator at the
    same instant.  :func:`encode_push` diffs the live model against
    this record and then advances it in place, and :func:`apply_pull`
    re-anchors it on the pulled chunks (both O(message): only the
    shipped chunks are re-copied).
    """

    __slots__ = ("base_raw", "scale", "fold_log")

    def __init__(self, model):
        self.base_raw = model._table_flat.copy()
        self.scale = model._scale
        self.fold_log = model._fold_log


class PushDelta:
    """One worker -> driver sync message (see the module docstring)."""

    __slots__ = (
        "worker_id", "round_id", "decay", "n_examples",
        "chunk_ids", "chunks", "promo_keys", "n_chunks",
    )

    def __init__(self, worker_id, round_id, decay, n_examples,
                 chunk_ids, chunks, promo_keys, n_chunks):
        self.worker_id = worker_id
        self.round_id = round_id
        self.decay = decay
        self.n_examples = n_examples
        self.chunk_ids = chunk_ids
        self.chunks = chunks
        self.promo_keys = promo_keys
        self.n_chunks = n_chunks

    @property
    def nbytes(self) -> int:
        """Wire bytes of this message (the headline numerator)."""
        return (
            _HEADER_BYTES
            + self.chunk_ids.nbytes
            + self.chunks.nbytes
            + self.promo_keys.nbytes
        )

    def to_payload(self) -> tuple:
        """A plain picklable tuple (process-boundary transport), CRC32
        appended so the receiver can reject in-flight corruption."""
        fields = (
            self.worker_id, self.round_id, self.decay, self.n_examples,
            self.chunk_ids, self.chunks, self.promo_keys, self.n_chunks,
        )
        return fields + (payload_crc(fields),)

    @classmethod
    def from_payload(cls, payload: tuple) -> "PushDelta":
        """Decode and verify; raises :class:`PayloadCorruptionError`
        on any structural damage or checksum mismatch."""
        return _decode_checked(cls, payload)


class PullDelta:
    """One driver -> worker sync message: raw chunk bits + scale."""

    __slots__ = (
        "chunk_ids", "chunks", "scale", "fold_log", "t", "n_chunks",
    )

    def __init__(self, chunk_ids, chunks, scale, fold_log, t, n_chunks):
        self.chunk_ids = chunk_ids
        self.chunks = chunks
        self.scale = scale
        self.fold_log = fold_log
        self.t = t
        self.n_chunks = n_chunks

    @property
    def nbytes(self) -> int:
        return _HEADER_BYTES + self.chunk_ids.nbytes + self.chunks.nbytes

    def to_payload(self) -> tuple:
        fields = (
            self.chunk_ids, self.chunks, self.scale, self.fold_log,
            self.t, self.n_chunks,
        )
        return fields + (payload_crc(fields),)

    @classmethod
    def from_payload(cls, payload: tuple) -> "PullDelta":
        """Decode and verify; raises :class:`PayloadCorruptionError`
        on any structural damage or checksum mismatch."""
        return _decode_checked(cls, payload)


def _check_message(model, chunk_ids, chunks, n_chunks: int,
                   factor_name: str, factor) -> None:
    """Every field an apply reads, checked before it writes anything."""
    if n_chunks != model._n_chunks():
        raise ValueError(
            f"delta geometry mismatch: message carries {n_chunks} "
            f"chunks, model has {model._n_chunks()} — different width/"
            f"depth or chunk size"
        )
    numpy_backend.check_chunk_ids(chunk_ids, n_chunks)
    numpy_backend.check_chunk_rows(chunks, chunk_ids.shape[0])
    try:
        ok = math.isfinite(factor) and factor > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(
            f"{factor_name} must be a finite number > 0, got {factor!r}"
        )


def _check_count(name: str, value) -> None:
    """A header id or count: a non-negative integer."""
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}"
        )


def check_push_header(delta: "PushDelta", n_workers: int | None = None
                      ) -> None:
    """Raise ``ValueError`` unless the push's worker id (below
    ``n_workers`` when given), round id and example count are
    non-negative integers."""
    _check_count("push worker_id", delta.worker_id)
    if n_workers is not None and delta.worker_id >= n_workers:
        raise ValueError(
            f"push worker_id must be in [0, {n_workers}), "
            f"got {delta.worker_id!r}"
        )
    _check_count("push round_id", delta.round_id)
    _check_count("push n_examples", delta.n_examples)


def encode_push(
    model,
    sync: SyncPoint,
    *,
    promo_keys=(),
    n_examples: int = 0,
    worker_id: int = 0,
    round_id: int = 0,
) -> PushDelta:
    """Encode the worker's contribution since ``sync`` and advance it.

    Consumes the model's dirty set (cleared, exactly like
    ``snapshot_incremental``) and moves ``sync`` to the current state —
    the next push diffs against *now*.  The encoded ``U`` satisfies
    ``alpha_now * raw_now == decay * (sync.scale * sync.base_raw) + U``
    on every chunk: exactly on clean chunks (raw bits untouched, so
    both sides are the same decayed value), and by construction on the
    shipped dirty chunks.
    """
    dirty = model._dirty
    if dirty is None:
        raise TypeError("cannot encode a push from a read-only snapshot")
    chunk_ids = np.flatnonzero(dirty)
    alpha_now = model._scale
    if model._fold_log == sync.fold_log:
        # Fold-free window: the decay product is the exact scale ratio.
        decay = alpha_now / sync.scale
    else:
        # A renorm fold reset the scale mid-window; recover the product
        # from the virtual log-scale.  Every chunk is dirty after a
        # fold, so U carries the full state and the (approximate) decay
        # only weights other workers' interleaved contributions — see
        # log_virtual_scale's docstring.
        decay = math.exp(
            model.log_virtual_scale()
            - (math.log(sync.scale) + sync.fold_log)
        )
    # U = alpha_now * raw_now - (decay * alpha_ref) * base_raw.  On a
    # fold-free window decay * alpha_ref is alpha_now up to one
    # rounding (exactly alpha_now when lambda == 0: every factor is
    # 1.0, and the kernel computes raw_now - base_raw), which is what
    # makes the data-linear loop bit-exact.  The same pass advances the
    # sync point: base := current state on the shipped chunks.  Clean
    # chunks' raw bits are untouched since the last sync, so that is
    # O(dirty), like the message itself.
    drift = decay * sync.scale
    chunks = np.empty((chunk_ids.size, CHUNK), dtype=np.float64)
    model.kernels.chunk_delta(
        model._table_flat, sync.base_raw, chunk_ids, alpha_now, drift,
        chunks,
    )
    sync.scale = alpha_now
    sync.fold_log = model._fold_log
    dirty[:] = False
    return PushDelta(
        worker_id=worker_id,
        round_id=round_id,
        decay=float(decay),
        n_examples=int(n_examples),
        chunk_ids=chunk_ids,
        chunks=chunks,
        promo_keys=np.asarray(promo_keys, dtype=np.int64),
        n_chunks=int(dirty.shape[0]),
    )


def apply_push(model, delta: PushDelta) -> bool:
    """Apply one push to the driver's global model.

    ``G <- delta.decay * G + U``: the decay multiplies the lazy scale
    (folding into the raw table only on underflow, like any decay), and
    ``U`` accumulates into the raw bits of the named chunks — which are
    marked dirty, keeping the driver's own snapshot publications
    O(dirty).  Returns ``True`` if the decay triggered a renorm fold
    (the caller must then widen every worker's pull set to the whole
    table — the fold rewrote all raw bits).

    The top-K promotion log is *not* folded here: re-estimating the
    logged keys needs the model's recovery machinery and belongs to the
    driver loop (:meth:`repro.parallel.ps.ParameterServer.apply_push`).
    A malformed message (see the module docstring) raises
    ``ValueError`` before anything changes.
    """
    check_push_header(delta)
    _check_message(model, delta.chunk_ids, delta.chunks, delta.n_chunks,
                   "push decay", delta.decay)
    fold_log_before = model._fold_log
    if delta.decay != 1.0:
        model._decay_scale(delta.decay)
    model.add_scaled_chunks(delta.chunk_ids, delta.chunks)
    model.t += delta.n_examples
    return model._fold_log != fold_log_before


def encode_pull(model, chunk_ids: np.ndarray) -> PullDelta:
    """Encode the driver chunks a worker needs to become a replica.

    Ships *raw bits* plus the scale (not scaled values): raw bits are
    stable under decay, so the worker-side copy reproduces the driver's
    representation exactly and later deltas stay O(dirty) on both
    sides.
    """
    return PullDelta(
        chunk_ids=chunk_ids,
        chunks=model.gather_chunks(chunk_ids),
        scale=model._scale,
        fold_log=model._fold_log,
        t=int(model.t),
        n_chunks=int(model._n_chunks()),
    )


def apply_pull(model, pull: PullDelta, sync: SyncPoint) -> None:
    """Overwrite the worker's state with the pulled driver state and
    re-anchor its sync point.

    Raw bits of the named chunks are assigned verbatim, to the live
    table and to ``sync.base_raw`` in one pass, and the scale / fold
    accumulator / example clock copied (the scale and fold accumulator
    into ``sync`` too), making the worker's scaled state a **bit-exact
    replica** of the driver's at encode time — the un-shipped chunks
    already agreed by the changed-chunk-tracking induction
    (``tests/test_ps.py`` asserts the full-table equality).  When the
    worker's raw bits equal its sync base at entry (its updates are
    pushed), they still do after the pull.

    The caller owns the bookkeeping that follows: clearing the dirty
    set (the pulled state *is* the new sync base) and re-estimating its
    top-K heap against the merged table.  A malformed message (see the
    module docstring) raises ``ValueError`` before anything changes.
    """
    _check_message(model, pull.chunk_ids, pull.chunks, pull.n_chunks,
                   "pull scale", pull.scale)
    _check_count("pull t", pull.t)
    try:
        finite = math.isfinite(pull.fold_log)
    except TypeError:
        finite = False
    if not finite:
        raise ValueError(
            f"pull fold_log must be finite, got {pull.fold_log!r}"
        )
    model.scatter_chunks(pull.chunk_ids, pull.chunks, sync.base_raw)
    model._scale = sync.scale = pull.scale
    model._fold_log = sync.fold_log = pull.fold_log
    model.t = pull.t
