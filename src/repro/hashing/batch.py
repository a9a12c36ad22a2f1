"""Batched hashing: ``family.all_rows`` through the owner's kernel backend.

Every sketch update and served read evaluates one (bucket, sign) hash
per sketch row per key.  :class:`BatchHasher` is the one entry point the
trainers and readers hash through: :meth:`BatchHasher.rows_into` runs
the ``hash_rows`` kernel of the backend its owner resolved (the model,
or the serving snapshot manager for the reader hasher), which writes
``family.all_rows(keys)`` into caller-provided arrays bit for bit.

* Under ``c`` the kernel evaluates the family in C over its packed
  tables (:attr:`HashFamily.packed <repro.hashing.family.HashFamily>`)
  and the hasher is stateless: no memo is ever built, and every key
  position counts as a miss.
* The numpy body is the memo below, which exists only there.  Across
  consecutive batches the hot keys repeat, so it remembers each key's
  ``depth`` rows of (bucket, sign) and serves repeats with a few
  whole-array gathers.  A hasher built without a backend uses it too.

The memo:

* **Layout.**  ``2**17`` entries in ``2**15`` sets of four ways.  Key
  ``k`` lives in set ``k & (2**15 - 1)``: stream ids are dense in
  ``[0, d)``, so the low bits spread them evenly (a d = 47k stream puts
  at most two keys in any set).  Each way holds the key as its tag plus
  the key's rows.  With ``2**14`` sets the serving reader's ~17k-key
  working set on the url stream overfilled 51 sets and nearly every
  coalesced read batch paid a miss; ``2**15`` sets leave 2.  (Eight
  ways over ``2**13`` sets fix that too, but double the tag work of
  every hit.)
* **Lookup.**  One gather reads the four tags of every key's set and
  one comparison marks the way that holds the key (at most one does: a
  key is stored only after it missed).  The matching way becomes the
  entry's column in four integer operations, and two more gathers write
  the rows straight into the caller's arrays: ten NumPy calls for 10
  keys or 25,000, and no allocation on a hit.
* **Miss.**  The missing positions are deduplicated and hashed once per
  distinct key with ``family.all_rows``.  New entries fill their set's
  ways round-robin, so a hit writes nothing.

An empty way's tag belongs to another set (``set ^ 1``), so no key ever
matches it — negative keys and keys near the int64 maximum included.
Hash functions are pure and every hit is tag-checked, so the memo cannot
change a single bucket or sign: it is exactly ``family.all_rows``
evaluated faster (property-tested in ``tests/test_batch_hashing.py``;
the ``c`` body against both in ``tests/test_kernel_backends.py``).  One
thread uses each hasher.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.family import HashFamily
from repro.telemetry.registry import MetricsRegistry

WAYS = 4
SET_BITS = 15
_SETS = 1 << SET_BITS
_SET_MASK = _SETS - 1
#: A position's match flags are one little-endian int64 whose byte ``w``
#: is 1 when way ``w`` holds the key (bytes 4-7 stay 0, and at most one
#: byte is set).  Multiplying by this constant moves ``w`` into the top
#: byte.
_WAY_MAGIC = 0x0001020300000000
#: Most keys one lookup pass handles (the scratch costs 56 bytes a key).
_CHUNK = 1 << 15
#: Dtypes of ``hash_rows``' (keys, buckets_out, signs_out).
_ROWS_DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64))


def check_rows_buffers(
    depth: int,
    keys: np.ndarray,
    buckets_out: np.ndarray,
    signs_out: np.ndarray,
) -> None:
    """Raise unless ``hash_rows`` may write ``keys``' rows into the
    outputs: ``keys`` a 1-d int64 array, the outputs writable C-contiguous
    ``(depth, len(keys))`` int64 / float64 arrays.  Both kernel bodies
    run it before writing anything."""
    dtypes = (keys.dtype, buckets_out.dtype, signs_out.dtype)
    if dtypes != _ROWS_DTYPES:
        raise TypeError(f"hash_rows dtypes must be {_ROWS_DTYPES}, "
                        f"got {dtypes}")
    if keys.ndim != 1:
        raise ValueError(f"hash_rows keys must be 1-d, got {keys.shape}")
    shape = (depth, keys.shape[0])
    if buckets_out.shape != shape or signs_out.shape != shape:
        raise ValueError(
            f"hash_rows outputs must have shape {shape}, got "
            f"{buckets_out.shape} and {signs_out.shape}"
        )
    for name, out in (("buckets_out", buckets_out), ("signs_out", signs_out)):
        if not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError(f"{name} must be a writable C-contiguous array")


class BatchHasher:
    """The trainers' and readers' entry to :meth:`HashFamily.all_rows`.

    Parameters
    ----------
    family:
        The hash family to evaluate.
    backend:
        The :class:`~repro.kernels.api.KernelBackend` whose ``hash_rows``
        kernel evaluates the family: the owner's resolved backend.
        ``None`` runs the numpy body, the memo, directly.  Never
        pickled: owners pass theirs again when they are loaded.
    registry:
        A :class:`~repro.telemetry.MetricsRegistry` to publish the
        hit/miss/eviction counters into (a private registry is created
        when omitted, so the counters always exist).  The legacy
        :attr:`hits` / :attr:`misses` / :attr:`evictions` ints are
        preserved as read-only views over those counters.
    metrics_prefix:
        Instrument name prefix inside ``registry`` (lets the serving
        layer distinguish the shared reader hasher from trainer-side
        ones).
    """

    def __init__(
        self,
        family: HashFamily,
        *,
        backend=None,
        registry: MetricsRegistry | None = None,
        metrics_prefix: str = "hasher",
    ):
        self.family = family
        self.backend = backend
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics_prefix = metrics_prefix
        #: Diagnostics: key positions served from / missing in the memo
        #: (under ``c``, every position is a miss), and valid entries
        #: overwritten by new ones — registry counters (the legacy int
        #: attributes live on as the properties below).
        self._m_hits = self.registry.counter(f"{metrics_prefix}.hits")
        self._m_misses = self.registry.counter(f"{metrics_prefix}.misses")
        self._m_evictions = self.registry.counter(
            f"{metrics_prefix}.evictions"
        )
        # Grow-only lookup scratch; never escapes this object.
        self._scratch = 0
        self._tags = None
        self._size = 0

    # ------------------------------------------------------------------
    # Pickling: the memo is derived from the (picklable) hash family, so
    # snapshots carry only the family and restart cold — results are
    # unchanged (hashes are pure), and the payload stays small for
    # spawn-based worker processes.  The backend is per-process: the
    # owner resolves its own on load and passes it in again.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"family": self.family}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["family"])

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (the memo's arrays are kept for reuse)."""
        if self._tags is not None:
            self._tags[:] = np.arange(_SETS) ^ 1  # empty: another set's key
            self._next_way[:] = 0
        self._size = 0

    def _allocate(self) -> None:
        """Build the memo; this waits for the first lookup, because every
        model and snapshot shell owns a hasher and most never hash a
        batch."""
        depth = self.family.depth
        # Way-major: way ``w`` of set ``s`` is column ``w * _SETS + s``.
        self._tags = np.empty((WAYS, _SETS), dtype=np.int64)
        self._buckets = np.zeros((depth, WAYS * _SETS), dtype=np.int64)
        self._signs = np.zeros((depth, WAYS * _SETS), dtype=np.float64)
        self._next_way = np.zeros(_SETS, dtype=np.uint8)
        self.clear()

    def _grow_scratch(self, n: int) -> None:
        cap = min(max(n, 2 * self._scratch), _CHUNK)
        self._set_scratch = np.empty(cap, dtype=np.intp)
        self._slot_scratch = np.empty(cap, dtype=np.intp)
        self._tag_scratch = np.empty(WAYS * cap, dtype=np.int64)
        # One int64 of match flags per position, and per way the 1-D
        # view of the byte the comparison fills (the rest stay 0).  A
        # 1-D strided output needs no buffer, where one (WAYS, n) view
        # made numpy allocate an iteration buffer on every lookup.
        self._flag_scratch = np.zeros(cap, dtype=np.dtype("<i8"))
        flag_bytes = self._flag_scratch.view(np.bool_)
        self._match_scratch = [flag_bytes[w::8] for w in range(WAYS)]
        self._scratch = cap

    def __len__(self) -> int:
        return self._size

    # -- legacy counter views (deprecated: read the registry instead) --
    @property
    def hits(self) -> int:
        """Deprecated view of the ``<prefix>.hits`` registry counter."""
        return self._m_hits.value

    @property
    def misses(self) -> int:
        """Deprecated view of the ``<prefix>.misses`` registry counter."""
        return self._m_misses.value

    @property
    def evictions(self) -> int:
        """Deprecated view of the ``<prefix>.evictions`` counter."""
        return self._m_evictions.value

    @property
    def hit_rate(self) -> float:
        """Fraction of key positions served from the memo (0.0 before
        any lookup, and always under ``c``, which has no memo).  A key
        repeated within one batch counts once per position, so the rate
        reads as the share of hash evaluations the memo saved before
        per-batch deduplication."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    @property
    def backend_name(self) -> str:
        """Name of the backend whose ``hash_rows`` this hasher runs
        (``"numpy"``, the memo, when it was built without one)."""
        return "numpy" if self.backend is None else self.backend.name

    def count_misses(self, n: int) -> None:
        """Count ``n`` key positions hashed without the memo."""
        self._m_misses.inc(n)

    # ------------------------------------------------------------------
    def memo_rows(
        self,
        keys: np.ndarray,
        buckets_out: np.ndarray,
        signs_out: np.ndarray,
    ) -> None:
        """The numpy body of the ``hash_rows`` kernel: check the
        buffers, then serve ``keys`` from the memo (built on the first
        nonempty lookup), counting hits and misses."""
        check_rows_buffers(self.family.depth, keys, buckets_out, signs_out)
        if keys.size:
            self._lookup(keys, buckets_out, signs_out)

    def _lookup(
        self,
        keys: np.ndarray,
        buckets_out: np.ndarray,
        signs_out: np.ndarray,
    ) -> None:
        """Write ``all_rows(keys)`` into the ``(depth, n)`` outputs.

        Works through at most :data:`_CHUNK` keys at a time, which
        bounds the scratch: a held-out evaluation can pass half a
        million keys in one call.
        """
        if self._tags is None:
            self._allocate()
        for lo in range(0, keys.size, _CHUNK):
            hi = lo + _CHUNK
            self._lookup_chunk(
                keys[lo:hi], buckets_out[:, lo:hi], signs_out[:, lo:hi]
            )

    def _lookup_chunk(
        self,
        keys: np.ndarray,
        buckets_out: np.ndarray,
        signs_out: np.ndarray,
    ) -> None:
        n = keys.size
        if self._scratch < n:
            self._grow_scratch(n)
        sets = self._set_scratch[:n]
        slot = self._slot_scratch[:n]
        way_tags = self._tag_scratch[: WAYS * n].reshape(WAYS, n)
        flags = self._flag_scratch[:n]
        np.bitwise_and(keys, _SET_MASK, out=sets)
        # mode="clip" (indices are in range anyway) keeps take from
        # buffering its output.
        self._tags.take(sets, axis=1, out=way_tags, mode="clip")
        for w, match in enumerate(self._match_scratch):
            np.equal(way_tags[w], keys, out=match[:n])
        n_hit = int(np.count_nonzero(flags))
        # slot = way * _SETS + set; a miss reads way 0 and is rewritten.
        np.multiply(flags, _WAY_MAGIC, out=slot)
        np.right_shift(slot, 56 - SET_BITS, out=slot)
        np.bitwise_and(slot, (WAYS - 1) << SET_BITS, out=slot)
        np.add(slot, sets, out=slot)
        self._buckets.take(slot, axis=1, out=buckets_out, mode="clip")
        self._signs.take(slot, axis=1, out=signs_out, mode="clip")
        if n_hit == n:
            self._m_hits.inc(n)
            return
        miss = np.flatnonzero(flags == 0)
        uniq, inv = np.unique(keys[miss], return_inverse=True)
        ubuckets, usigns = self.family.all_rows(uniq)
        # Row by row: 1-d fancy indexing is far cheaper than 2-d.
        for j in range(self.family.depth):
            buckets_out[j, miss] = ubuckets[j].take(inv)
            signs_out[j, miss] = usigns[j].take(inv)
        self._fill(uniq, ubuckets, usigns)
        with self.registry.locked():
            self._m_hits.inc(n_hit)
            self._m_misses.inc(n - n_hit)

    def _fill(
        self, keys: np.ndarray, buckets: np.ndarray, signs: np.ndarray
    ) -> None:
        """Store distinct, absent keys with their rows.

        Each set hands its new keys the next ways round-robin, in key
        order; when more than :data:`WAYS` keys of one set arrive
        together, only the last :data:`WAYS` of them stay.
        """
        sets = keys & _SET_MASK
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        # Sorted by set: each set's new keys form one run.
        start = np.searchsorted(sets, sets)
        count = np.searchsorted(sets, sets, side="right") - start
        rank = np.arange(sets.size) - start
        first = self._next_way[sets]
        self._next_way[sets] = (first + count) % WAYS
        keep = rank >= count - WAYS
        slot = ((first + rank) % WAYS * _SETS + sets)[keep]
        order = order[keep]
        tags = self._tags.reshape(-1)
        # A way is in use when its tag belongs to its set (slot's low bits).
        in_use = ((tags[slot] ^ slot) & _SET_MASK) == 0
        evicted = int(np.count_nonzero(in_use))
        tags[slot] = keys[order]
        for j in range(self.family.depth):
            self._buckets[j, slot] = buckets[j].take(order)
            self._signs[j, slot] = signs[j].take(order)
        self._size += slot.size - evicted
        self._m_evictions.inc(evicted)

    # ------------------------------------------------------------------
    def _hash_rows(
        self,
        keys: np.ndarray,
        buckets_out: np.ndarray,
        signs_out: np.ndarray,
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if self.backend is None:
            self.memo_rows(keys, buckets_out, signs_out)
        else:
            self.backend.hash_rows(self, keys, buckets_out, signs_out)

    def rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Buckets and signs for every row, identical to ``all_rows``.

        Returns
        -------
        (buckets, signs):
            Arrays of shape ``(depth, len(keys))`` — bit-for-bit equal to
            ``family.all_rows(keys)``: one C evaluation per position
            under ``c``, one hash evaluation per *new distinct* key
            under the numpy memo.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        depth = self.family.depth
        buckets = np.empty((depth, keys.size), dtype=np.int64)
        signs = np.empty((depth, keys.size), dtype=np.float64)
        self._hash_rows(keys, buckets, signs)
        return buckets, signs

    def rows_into(
        self,
        keys: np.ndarray,
        buckets_out: np.ndarray,
        signs_out: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rows`, written into caller-provided arrays.

        ``buckets_out`` / ``signs_out`` must be writable C-contiguous
        ``(depth, len(keys))`` int64 / float64 arrays (checked before
        anything is written) — the zero-allocation front-end of the
        fused ``fit_batch`` paths.  The results are bit-identical to
        :meth:`rows`.
        """
        self._hash_rows(keys, buckets_out, signs_out)
        return buckets_out, signs_out
