"""An array-backed top-K store ordered by the magnitude of stored values.

:class:`TopKStore` is the NumPy replacement for the original
pure-Python indexed binary heap (retained verbatim as
:class:`repro.heap.reference.ReferenceTopKHeap`, the executable
specification the fuzz suite checks this class against).  It keeps the
same visible semantics — a bounded map of ``(key, value)`` pairs that
admits, rejects or evicts by a caller-chosen priority (``abs`` by
default) — but stores everything in contiguous slot arrays:

* ``_keys`` / ``_raw``: preallocated ``(capacity,)`` arrays; live
  entries occupy slots ``[0, len)`` in insertion order, and a key's slot
  never moves while it stays a member (only removal compacts).
* a ``key -> slot`` dict for O(1) scalar membership and lookup, plus a
  lazily rebuilt *sorted-key snapshot* that serves the vectorized
  membership path (:meth:`contains_many` / :meth:`member_slots` /
  :meth:`get_many`) via one ``searchsorted`` per query batch.
* a lazily tracked *min slot* instead of a heap ordering: scalar
  mutations patch or invalidate the cached argmin in O(1); a stale
  minimum is recomputed with one vectorized ``argmin`` over the live
  slots.  Every operation the heap did in O(log K) sift steps of
  interpreted Python is now O(1) plus an occasional O(K) NumPy scan.
* a uniform multiplicative ``scale`` maintained separately from the raw
  values, so the per-example L2 decay of every stored value is O(1)
  (positive scaling preserves the priority ordering); the scale is
  folded into the raw values when it underflows toward zero.

Batched mutation goes through :meth:`push_many`, which pre-screens
candidates against the current admission threshold (sound because the
threshold is non-decreasing while the store is full and no member is
re-pushed) and falls back to sequential admits for the survivors, so
admission/eviction decisions are exactly those of pushing one at a time.

Admission-tie semantics (pinned)
--------------------------------
``push`` on a *full* store with a candidate whose priority is exactly
equal to the current minimum **rejects the candidate** — ties never
evict an incumbent.  The reference heap implied this via its ``<=``
comparison; the store documents and tests it as a contract, because the
AWM-Sketch's promote-or-fold step and the merge re-promotion path both
depend on rejections being deterministic.

Tie-breaking among *stored* entries is deterministic but unspecified
beyond "a true minimum": where several entries share the minimum
priority, :meth:`min_entry` / :meth:`pop_min` pick the first minimal
raw value in slot order (the reference heap's pick depends on its
internal sift history instead, which is the one place the two
implementations may legitimately differ).

The ``priority`` callable must be vectorizable — applied elementwise to
a float64 array it must return the array of priorities.  ``abs`` and
the module-level :func:`identity` / :func:`negate` helpers (used by the
reservoir and truncation consumers; module-level so stores pickle) all
qualify.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

import numpy as np

from repro.kernels.numpy_backend import screen_abs_gt

_RENORM_THRESHOLD = 1e-150


def identity(v):
    """Priority = the value itself (keep the largest values)."""
    return v


def negate(v):
    """Priority = the negated value (keep the *smallest* values)."""
    return -v


class TopKStore:
    """Bounded array-backed map of ``(key, value)`` pairs kept top-K by
    priority.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  Must be >= 1.  Slot arrays are
        preallocated at this size.
    priority:
        Function of the true value that defines the ordering.  Defaults
        to ``abs``.  Must work elementwise on float64 arrays (``abs``,
        :func:`identity` and :func:`negate` do); module-level callables
        keep the store picklable.

    Notes
    -----
    * ``value(key)`` returns the *true* value (scale applied).
    * :meth:`decay` multiplies all values by a constant in O(1).
    * When full, :meth:`push` either rejects the candidate (if its
      priority does not beat the current minimum — **ties reject**, see
      the module docstring) or evicts and returns the minimum entry.
    * :attr:`version` counts membership changes (admissions, evictions,
      removals, clears — not value updates), letting batched callers
      cache membership masks across many queries and invalidate them
      precisely.
    """

    def __init__(
        self,
        capacity: int,
        priority: Callable[[float], float] = abs,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._priority = priority
        self._scale = 1.0
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._raw = np.zeros(capacity, dtype=np.float64)
        self._scratch = np.empty(capacity, dtype=np.float64)
        self._n = 0
        self._pos: dict[int, int] = {}
        #: Cached slot of the minimum-priority entry; -1 = stale.
        self._min_slot = -1
        #: Sorted snapshot of the live keys + matching slots (lazily
        #: rebuilt after membership changes; serves searchsorted-based
        #: vectorized membership).
        self._sorted_keys: np.ndarray | None = None
        self._sorted_slots: np.ndarray | None = None
        #: Membership-change counter (see class docstring).
        self.version = 0
        #: Debug-only owning-thread witness: the last thread that ran a
        #: batched mutation (see :meth:`push_many`).  ``snapshot_view``
        #: asserts against it — an off-thread publish would read the
        #: slot arrays mid-mutation.
        self._writer_thread: int | None = None
        #: Promotion log (``None`` = disabled): admitted keys appended
        #: on every membership-*adding* mutation, drained by the
        #: parameter-server push codec (see :meth:`enable_promo_log`).
        self._promo_log: list[int] | None = None

    # ------------------------------------------------------------------
    # Pickling (spawn-safe shard transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship only the live prefix of the slot arrays; the position
        map, min-slot and sorted-key caches are all derivable and
        rebuilt on load (the same discipline as
        ``ScaledSketchTable.__getstate__`` dropping ``_table_flat``).
        Older pickles also carry a ``backend`` key, which is ignored."""
        return {
            "capacity": self.capacity,
            "priority": self._priority,
            "scale": self._scale,
            "keys": self._keys[: self._n].copy(),
            "raw": self._raw[: self._n].copy(),
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._priority = state["priority"]
        self._scale = state["scale"]
        keys = state["keys"]
        n = int(keys.size)
        self._keys = np.zeros(self.capacity, dtype=np.int64)
        self._raw = np.zeros(self.capacity, dtype=np.float64)
        self._scratch = np.empty(self.capacity, dtype=np.float64)
        self._keys[:n] = keys
        self._raw[:n] = state["raw"]
        self._n = n
        self._pos = {int(k): i for i, k in enumerate(keys.tolist())}
        self._min_slot = -1
        self._sorted_keys = None
        self._sorted_slots = None
        self.version = 0
        self._writer_thread = None
        self._promo_log = None

    def snapshot_view(self) -> "TopKStore":
        """A read-only consistent copy for concurrent serving.

        The lazy scale is folded into the copied raw values (the fold
        *is* the copy — one vectorized multiply over the live prefix),
        so the snapshot's true values are bit-identical to the live
        store's at publish time: ``raw * scale`` is computed either way,
        and a later re-multiply by the snapshot's scale of 1.0 is an
        exact identity.  Only the live prefix is copied; the publisher
        (the training thread) keeps mutating the original while readers
        hold the snapshot.

        Snapshots are **read-only by contract**: their slot arrays are
        sized to the live prefix, so mutating methods (``push``,
        ``decay``, ...) are out of contract.  Lazily built caches
        (``_min_slot``, ``_sorted_keys``) may still materialize on first
        read — single-reader or externally serialized use only, the same
        single-threaded discipline as every other model structure.

        **Trainer-thread-only**: this method reads ``_keys`` / ``_raw``
        / ``_n`` without synchronization, so calling it from a thread
        other than the one mutating the store (mid-``push_many``, a
        half-applied ``replace_min``) can observe torn state — a key
        written but its value not yet, a compaction in flight.  The
        debug-gated assert below catches off-thread publishes cheaply;
        ``python -O`` removes it entirely.
        """
        if __debug__:
            owner = self._writer_thread
            assert owner is None or owner == threading.get_ident(), (
                "snapshot_view must run on the store's writer (trainer) "
                "thread; an off-thread call can read slot arrays "
                "mid-push_many"
            )
        snap = TopKStore.__new__(TopKStore)
        n = self._n
        snap.capacity = self.capacity
        snap._priority = self._priority
        snap._scale = 1.0
        snap._keys = self._keys[:n].copy()
        snap._raw = self._raw[:n] * self._scale
        snap._scratch = np.empty(n, dtype=np.float64)
        snap._n = n
        snap._pos = {
            int(k): i for i, k in enumerate(snap._keys.tolist())
        }
        snap._min_slot = -1
        snap._sorted_keys = None
        snap._sorted_slots = None
        snap.version = 0
        snap._writer_thread = None
        snap._promo_log = None
        return snap

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, key: int) -> bool:
        return key in self._pos

    def has_any(self, keys: list[int]) -> bool:
        """Whether any of ``keys`` is currently stored (scalar-path
        helper; batched callers use :meth:`contains_many`)."""
        pos = self._pos
        for key in keys:
            if key in pos:
                return True
        return False

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys[: self._n].tolist())

    @property
    def is_full(self) -> bool:
        """Whether the store holds ``capacity`` entries."""
        return self._n >= self.capacity

    @property
    def scale(self) -> float:
        """The current global multiplicative scale."""
        return self._scale

    # ------------------------------------------------------------------
    # Internal caches
    # ------------------------------------------------------------------
    def _vprio(self, values: np.ndarray) -> np.ndarray:
        """Priorities of an array of true values."""
        return np.asarray(self._priority(values))

    def _min(self) -> int:
        """The (recomputed if stale) slot of the minimum-priority entry.

        The rescan ranks raw values: the positive scale preserves the
        priority ordering (the same contract :meth:`decay` relies on),
        so a raw-space argmin is a true-priority argmin — no scale
        multiply, and for the default ``abs`` priority the scan runs
        through a preallocated scratch buffer.
        """
        ms = self._min_slot
        if ms < 0:
            n = self._n
            if n == 0:
                raise IndexError("min of empty store")
            if self._priority is abs:
                buf = self._scratch[:n]
                np.abs(self._raw[:n], out=buf)
                ms = int(buf.argmin())
            else:
                ms = int(self._vprio(self._raw[:n]).argmin())
            self._min_slot = ms
        return ms

    def _touch_value(self, slot: int) -> None:
        """Patch the min cache after ``_raw[slot]`` changed in place.

        Comparisons run in raw space (the ordering the rescan uses —
        scale-invariant per the :meth:`decay` contract) and break exact
        ties by slot order, so a warm cache always names the same entry
        a cold ``argmin`` rescan would: cached vs rescanned stores never
        diverge on which tied minimum they evict.
        """
        ms = self._min_slot
        if ms < 0:
            return
        if slot == ms:
            # The minimum may have grown; a full rescan is needed.
            self._min_slot = -1
            return
        p_new = self._priority(float(self._raw[slot]))
        p_min = self._priority(float(self._raw[ms]))
        if p_new < p_min or (p_new == p_min and slot < ms):
            self._min_slot = slot

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted live keys, slots in that order), rebuilt lazily."""
        if self._sorted_keys is None:
            n = self._n
            order = np.argsort(self._keys[:n], kind="stable")
            self._sorted_keys = self._keys[:n][order]
            self._sorted_slots = order.astype(np.intp)
        return self._sorted_keys, self._sorted_slots

    def _membership_changed(self) -> None:
        self._sorted_keys = None
        self._sorted_slots = None
        self.version += 1

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def value(self, key: int) -> float:
        """True (scaled) value stored for ``key``.

        Raises
        ------
        KeyError
            If ``key`` is not in the store.
        """
        return float(self._raw[self._pos[key]]) * self._scale

    def get(self, key: int, default: float = 0.0) -> float:
        """True value for ``key``, or ``default`` if absent."""
        slot = self._pos.get(key)
        if slot is None:
            return default
        return float(self._raw[slot]) * self._scale

    def min_entry(self) -> tuple[int, float]:
        """The (key, true value) pair with minimum priority
        (deterministic slot-order pick among exact ties).

        Raises
        ------
        IndexError
            If the store is empty.
        """
        ms = self._min()
        return int(self._keys[ms]), float(self._raw[ms]) * self._scale

    def min_priority(self) -> float:
        """Priority of the minimum entry — the admission threshold a
        full store applies to non-member candidates."""
        ms = self._min()
        return self._priority(float(self._raw[ms]) * self._scale)

    def items(self) -> list[tuple[int, float]]:
        """All (key, true value) pairs in slot (insertion) order."""
        n = self._n
        return list(
            zip(self._keys[:n].tolist(), (self._raw[:n] * self._scale).tolist())
        )

    def top(self, n: int | None = None) -> list[tuple[int, float]]:
        """The ``n`` highest-priority (key, true value) pairs, descending.

        With ``n=None`` returns all entries sorted by descending
        priority (stable: ties keep slot order).  One vectorized argsort
        instead of a Python comparison sort.
        """
        count = self._n
        values = self._raw[:count] * self._scale
        order = np.argsort(-self._vprio(values), kind="stable")
        if n is not None:
            order = order[:n]
        keys = self._keys[:count][order]
        return list(zip(keys.tolist(), values[order].tolist()))

    # ------------------------------------------------------------------
    # Vectorized membership / lookup
    # ------------------------------------------------------------------
    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``keys`` are currently stored.

        One ``searchsorted`` against the sorted-key snapshot — the
        vectorized replacement for a Python membership probe per key.
        """
        keys = np.asarray(keys)
        if self._n == 0:
            return np.zeros(keys.shape, dtype=bool)
        sorted_keys, _ = self._sorted()
        pos = np.searchsorted(sorted_keys, keys)
        pos[pos == sorted_keys.size] = 0
        return sorted_keys[pos] == keys

    def member_slots(self, keys: np.ndarray) -> np.ndarray:
        """Slot index per key, or -1 for keys not stored.

        The returned slots stay valid until the next membership change
        (value updates never move entries), so batched callers can hold
        them across a whole mini-batch and index ``raw`` values
        repeatedly; pair with :attr:`version` to invalidate.
        """
        keys = np.asarray(keys)
        if self._n == 0:
            return np.full(keys.shape, -1, dtype=np.intp)
        sorted_keys, sorted_slots = self._sorted()
        pos = np.searchsorted(sorted_keys, keys)
        pos[pos == sorted_keys.size] = 0
        found = sorted_keys[pos] == keys
        slots = np.where(found, sorted_slots[pos], -1)
        return slots

    def get_many(self, keys: np.ndarray, default: float = 0.0) -> np.ndarray:
        """True values for ``keys`` (``default`` where absent), vectorized."""
        slots = self.member_slots(keys)
        out = self._raw[np.maximum(slots, 0)] * self._scale
        if default == 0.0:
            out[slots < 0] = 0.0
        else:
            out = np.where(slots >= 0, out, default)
        return out

    def values_at(self, slots: np.ndarray) -> np.ndarray:
        """True values at known-member ``slots`` (from
        :meth:`member_slots`); no membership re-checking."""
        return self._raw[slots] * self._scale

    def slot_of(self, key: int) -> int:
        """Slot currently holding ``key``, or -1 if absent."""
        return self._pos.get(key, -1)

    def slot_map(self) -> dict[int, int]:
        """The live ``key -> slot`` map itself, not a copy.

        Read-only by contract.  Every admission, eviction and removal
        updates it in place, so a batched caller can fetch it once per
        batch and probe it per example with no cache to patch.
        """
        return self._pos

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def decay(self, factor: float) -> None:
        """Multiply every stored value by ``factor`` in O(1).

        ``factor`` must be positive (ordering by priority is preserved
        only under positive scaling).  Raw values are folded back in
        when the scale underflows toward zero; folding multiplies every
        raw value by the same constant, so the cached minimum stays a
        minimum.
        """
        if factor <= 0.0:
            raise ValueError(f"decay factor must be positive, got {factor}")
        self._scale *= factor
        if self._scale < _RENORM_THRESHOLD:
            self._renormalize()

    def _renormalize(self) -> None:
        """Fold the scale into the raw values to avoid underflow."""
        self._raw[: self._n] *= self._scale
        self._scale = 1.0

    def push(self, key: int, value: float) -> tuple[int, float] | None:
        """Insert or update ``key`` with true value ``value``.

        Returns
        -------
        The evicted (key, true value) pair if an insertion into a full
        store displaced the minimum entry; ``None`` otherwise.  If the
        store is full, ``key`` is absent and ``value``'s priority is
        **less than or equal to** the current minimum, the pair
        ``(key, value)`` itself is returned as "evicted" — i.e. it was
        not admitted.  Equality deterministically rejects: a candidate
        that merely *ties* the admission threshold never evicts an
        incumbent (see the module docstring).
        """
        scale = self._scale
        raw = value / scale
        slot = self._pos.get(key)
        if slot is not None:
            self._raw[slot] = raw
            self._touch_value(slot)
            return None
        n = self._n
        if n < self.capacity:
            self._keys[n] = key
            self._raw[n] = raw
            self._pos[key] = n
            self._n = n + 1
            if self._promo_log is not None:
                self._promo_log.append(key)
            ms = self._min_slot
            # Raw-space compare, ties keep the (earlier) cached slot —
            # exactly what a cold rescan's first-minimum pick does.
            if ms >= 0 and self._priority(raw) < self._priority(
                float(self._raw[ms])
            ):
                self._min_slot = n
            self._membership_changed()
            return None
        # Full: compare priorities on true values; ties reject.
        if self._priority(value) <= self.min_priority():
            return (key, value)
        ms = self._min()
        evicted = (int(self._keys[ms]), float(self._raw[ms]) * scale)
        del self._pos[evicted[0]]
        self._keys[ms] = key
        self._raw[ms] = raw
        self._pos[key] = ms
        self._min_slot = -1
        self._membership_changed()
        if self._promo_log is not None:
            self._promo_log.append(key)
        return evicted

    def push_many(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Push (key, value) pairs sequentially; returns how many ended
        up stored after their own push (members updated in place count).

        Decision-equivalent to calling :meth:`push` in order.  When the
        store is full and the remaining candidates are distinct
        non-members, the admission threshold can only rise as pushes
        proceed, so candidates at or below the *current* threshold are
        rejected in one vectorized screen and only the survivors take
        the sequential path.  Mixed batches (members present, duplicate
        keys) fall back to plain sequential pushes, where the screen
        would not be sound.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if __debug__:
            # Witness for snapshot_view's owning-thread assert: reads
            # of the slot arrays are only consistent from this thread.
            self._writer_thread = threading.get_ident()
        admitted = 0
        i = 0
        n = int(keys.size)
        key_list = keys.tolist()
        value_list = values.tolist()
        # Free slots cannot be screened: every candidate is admitted.
        while i < n and not self.is_full:
            if self.push(key_list[i], value_list[i]) is None:
                admitted += 1
            i += 1
        if i >= n:
            return admitted
        rest_keys = keys[i:]
        rest_values = values[i:]
        member = self.contains_many(rest_keys)
        if member.any() or np.unique(rest_keys).size != rest_keys.size:
            survivors = range(rest_keys.size)
        elif self._priority is abs:
            # The screen computes |value| > threshold directly —
            # identical decisions to the generic priority path below.
            threshold = self.min_priority()
            survivors = screen_abs_gt(rest_values, threshold).tolist()
        else:
            prios = self._vprio(rest_values)
            survivors = np.flatnonzero(prios > self.min_priority()).tolist()
        for j in survivors:
            key = key_list[i + j]
            rejected = self.push(key, value_list[i + j])
            if rejected is None or rejected[0] != key:
                admitted += 1
        return admitted

    # ------------------------------------------------------------------
    # Promotion log + delta fold (parameter-server sync)
    # ------------------------------------------------------------------
    def enable_promo_log(self) -> None:
        """Start recording admitted keys (idempotent).

        Every membership-*adding* mutation (a :meth:`push` into a free
        slot, an evicting :meth:`push`, a :meth:`replace_min`) appends
        the admitted key; in-place value updates are not membership
        events and are not logged.  A store logging from construction
        therefore has every current member covered by the log — the
        invariant the parameter-server push codec relies on: shipping
        the drained log names every feature the worker's table could
        rank highly, and the driver re-estimates them against the
        *merged* table (logged values would be stale; keys are what
        matters).  Costs one ``is not None`` check per admission.
        """
        if self._promo_log is None:
            self._promo_log = []

    def drain_promo_log(self) -> list[int]:
        """Return and clear the admitted keys logged since the last
        drain (raises if the log was never enabled)."""
        log = self._promo_log
        if log is None:
            raise RuntimeError(
                "promo log not enabled; call enable_promo_log() first"
            )
        self._promo_log = []
        return log

    def fold_delta(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Fold another store's promotion log into this store.

        ``keys`` are the candidate feature ids a worker's log named and
        ``values`` their estimates against the *receiving* side's
        table; duplicates collapse first (one re-estimate produces one
        value per key, so any ordering tie-break is moot) and the
        survivors replay this store's own admission rule via
        :meth:`push_many` — sorted for determinism, exactly like the
        merge-time re-promotion path.  Returns the number admitted.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.size == 0:
            return 0
        uniq, first = np.unique(keys, return_index=True)
        return self.push_many(uniq, values[first])

    def replace_min(self, key: int, value: float) -> tuple[int, float]:
        """Evict the minimum entry and insert ``key`` in its slot.

        Visible-state equivalent of ``pop_min()`` followed by
        ``push(key, value)`` (on a full store whose minimum loses), but
        done as one slot overwrite — no other entry moves, so slot
        handles held by batched callers stay valid.  Returns the evicted
        (key, true value) pair.

        Raises
        ------
        IndexError
            If the store is empty.
        """
        ms = self._min()
        evicted = (int(self._keys[ms]), float(self._raw[ms]) * self._scale)
        del self._pos[evicted[0]]
        self._keys[ms] = key
        self._raw[ms] = value / self._scale
        self._pos[key] = ms
        self._min_slot = -1
        self._membership_changed()
        if self._promo_log is not None:
            self._promo_log.append(key)
        return evicted

    def add_delta(self, key: int, delta: float) -> None:
        """Add ``delta`` to the true value of an existing ``key``.

        Raises
        ------
        KeyError
            If ``key`` is not present.
        """
        slot = self._pos[key]
        self._raw[slot] += delta / self._scale
        self._touch_value(slot)

    def add_many(self, slots: np.ndarray, deltas: np.ndarray) -> None:
        """Add true-value ``deltas`` at known-member ``slots``.

        The vectorized counterpart of per-key :meth:`add_delta` calls:
        each slot receives ``delta / scale`` with identical arithmetic,
        and duplicate slots accumulate in element order (``np.add.at``),
        matching a sequential loop bit-for-bit.
        """
        if slots.size == 0:
            return
        scale = self._scale
        np.add.at(self._raw, slots, deltas if scale == 1.0 else deltas / scale)
        # Any touched slot can sink below (or be) the cached minimum;
        # a lazy rescan is cheaper than per-call patch logic here.
        self._min_slot = -1

    def set_many(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Overwrite true values at known-member ``slots``, vectorized.

        Equivalent to per-key member-updating :meth:`push` calls: each
        slot's raw value becomes ``value / scale``.  Duplicate slots
        resolve to the last write, like a sequential loop: the last
        occurrence is picked explicitly (``np.maximum.at`` over
        positions), since NumPy leaves which of several repeated
        fancy-assignment indices wins unspecified.
        """
        if slots.size == 0:
            return
        last = np.full(self.capacity, -1, dtype=np.intp)
        np.maximum.at(last, slots, np.arange(slots.size))
        written = np.flatnonzero(last >= 0)
        values = values[last[written]]
        scale = self._scale
        self._raw[written] = values if scale == 1.0 else values / scale
        # Any touched slot can sink below (or be) the cached minimum;
        # a lazy rescan is cheaper than per-call patch logic here.
        self._min_slot = -1

    def pop_min(self) -> tuple[int, float]:
        """Remove and return the minimum-priority (key, true value) pair
        (deterministic slot-order pick among exact ties)."""
        ms = self._min()
        out = (int(self._keys[ms]), float(self._raw[ms]) * self._scale)
        self._remove_slot(ms)
        return out

    def remove(self, key: int) -> float:
        """Remove ``key`` and return its true value.

        Raises
        ------
        KeyError
            If ``key`` is not present.
        """
        slot = self._pos[key]
        value = float(self._raw[slot]) * self._scale
        self._remove_slot(slot)
        return value

    def _remove_slot(self, slot: int) -> None:
        """Free a slot by moving the last live entry into it."""
        last = self._n - 1
        del self._pos[int(self._keys[slot])]
        if slot != last:
            self._keys[slot] = self._keys[last]
            self._raw[slot] = self._raw[last]
            self._pos[int(self._keys[slot])] = slot
        self._n = last
        # The moved entry (or the removal of the cached min itself)
        # invalidates the cached argmin unless it provably survives.
        if self._min_slot in (slot, last):
            self._min_slot = -1
        self._membership_changed()

    def clear(self) -> None:
        """Remove all entries and reset the scale."""
        self._n = 0
        self._pos.clear()
        self._scale = 1.0
        self._min_slot = -1
        self._membership_changed()

    # ------------------------------------------------------------------
    # Introspection / testing helpers
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert slot-array / position-map / cache consistency.

        Intended for tests; raises AssertionError on violation.
        """
        n = self._n
        assert 0 <= n <= self.capacity
        assert len(self._pos) == n
        for key, slot in self._pos.items():
            assert 0 <= slot < n
            assert int(self._keys[slot]) == key
        if self._min_slot >= 0:
            assert self._min_slot < n
            prios = self._vprio(self._raw[:n] * self._scale)
            assert prios[self._min_slot] <= prios.min() + 1e-12, (
                f"cached min slot {self._min_slot} "
                f"({prios[self._min_slot]}) is not minimal ({prios.min()})"
            )
        if self._sorted_keys is not None:
            assert self._sorted_keys.size == n
            assert np.array_equal(
                self._sorted_keys, np.sort(self._keys[:n])
            )
            assert np.array_equal(
                self._keys[:n][self._sorted_slots], self._sorted_keys
            )


class BatchSlotCache:
    """Store slots for every index position of one CSR mini-batch.

    The batched WM heap maintain consults store membership for every
    example; doing that per example costs a vectorized probe per
    example, but membership only changes on (relatively rare)
    admissions and evictions.  This cache answers membership for the
    whole batch with *one* :meth:`TopKStore.member_slots` call and then
    tracks membership events incrementally: an admitted or evicted key's
    occurrences inside the batch are located by binary search in a
    presorted copy of the batch's index array and patched in place.

    Slot handles stay valid because the store never moves a surviving
    entry's slot (evicting promotions go through
    :meth:`TopKStore.replace_min`); :attr:`TopKStore.version` guards
    against unlogged membership changes — on mismatch the caller
    rebuilds.

    With a :class:`~repro.kernels.workspace.KernelWorkspace` (``ws``)
    the three batch-lifetime arrays — the slots, the argsort order and
    the sorted index copy — live in grow-only arenas instead of fresh
    allocations, so steady-state batches build their membership cache
    allocation-free (same contract as every other workspace buffer:
    the views are only valid until the next same-name request, i.e.
    until the next batch's cache is built).
    """

    __slots__ = ("store", "slots", "version", "_order", "_sorted_indices")

    def __init__(
        self,
        store: TopKStore,
        indices: np.ndarray,
        reuse: "BatchSlotCache | None" = None,
        ws=None,
    ):
        self.store = store
        n = indices.size
        if reuse is not None and reuse._sorted_indices.size == n:
            # Rebuild for the same batch: the (expensive) argsort of the
            # batch's index array depends only on the batch, not on the
            # store, so a stale cache donates it.
            self._order = reuse._order
            self._sorted_indices = reuse._sorted_indices
        elif ws is not None:
            order = ws.array("bsc_order", n, np.intp)
            order[:] = np.argsort(indices)
            self._order = order
            sorted_indices = ws.array("bsc_sorted", n, np.int64)
            np.take(indices, order, out=sorted_indices)
            self._sorted_indices = sorted_indices
        else:
            self._order = np.argsort(indices)
            self._sorted_indices = indices[self._order]
        # Fill slots from the store side: only the <= capacity stored
        # keys can occur as members, so locate each stored key's run in
        # the sorted batch instead of probing every batch position.
        if ws is not None:
            self.slots = ws.array("bsc_slots", n, np.intp)
            self.slots.fill(-1)
        else:
            self.slots = np.full(indices.shape, -1, dtype=np.intp)
        keys = store._keys[: store._n]
        lo = np.searchsorted(self._sorted_indices, keys)
        hi = np.searchsorted(self._sorted_indices, keys, side="right")
        for slot in np.flatnonzero(hi > lo).tolist():
            self.slots[self._order[lo[slot] : hi[slot]]] = slot
        self.version = store.version

    @property
    def stale(self) -> bool:
        """Whether the store changed membership without :meth:`apply`."""
        return self.version != self.store.version

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Slots for batch index positions ``[lo, hi)`` (a view)."""
        return self.slots[lo:hi]

    def apply(self, admitted: int, evicted: int | None) -> None:
        """Patch the cache after one admission (and optional eviction).

        Each logged event corresponds to exactly one membership change
        in the store (an append or a :meth:`TopKStore.replace_min`), so
        the expected version advances by one; any store mutation that
        bypassed the log still shows up as :attr:`stale`.
        """
        if evicted is not None:
            self._patch(evicted, -1)
        self._patch(admitted, self.store.slot_of(admitted))
        self.version += 1

    def _patch(self, key: int, slot: int) -> None:
        lo, hi = np.searchsorted(self._sorted_indices, (key, key + 1))
        if hi > lo:
            self.slots[self._order[lo:hi]] = slot


#: Backwards-compatible alias: every consumer that imported the binary
#: heap now gets the array-backed store (same visible semantics; the
#: original implementation lives on as
#: :class:`repro.heap.reference.ReferenceTopKHeap`).
TopKHeap = TopKStore
