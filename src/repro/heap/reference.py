"""The retained reference top-K heap: an indexed binary min-heap.

This is the original pure-Python implementation of the bounded top-K
map, kept verbatim as the *executable specification* for the
array-backed :class:`~repro.heap.topk.TopKStore` that replaced it on
every hot path.  The property/fuzz suite
(``tests/test_store_vs_reference.py``) drives both structures with
identical operation sequences and asserts identical visible state —
admission, rejection, eviction, decay and underflow renormalization
must all agree.  Do not "optimize" this file; its value is being the
simple, obviously-correct semantics.

The heap stores ``(key, value)`` pairs and orders them by a caller-chosen
priority — by default ``abs(value)``, which is what the active set of the
AWM-Sketch needs ("a min-heap ordered by the absolute value of the
estimated weights", Section 5.2).  A position map gives O(1) membership
and value lookup; sift-up/sift-down give O(log K) updates.

A uniform multiplicative ``scale`` is maintained separately from the raw
stored values so that multiplying *every* value by ``(1 - eta * lambda)``
— the weight-decay step applied on each observed example — costs O(1)
instead of O(K).  Because scaling by a positive constant preserves the
magnitude ordering, heap invariants are untouched.
"""

from __future__ import annotations

from typing import Callable, Iterator

_RENORM_THRESHOLD = 1e-150


class ReferenceTopKHeap:
    """Bounded min-heap over ``(key, value)`` pairs ordered by priority.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  Must be >= 1.
    priority:
        Function of the (unscaled-internal, i.e. true) value that defines
        the heap order.  Defaults to ``abs``.

    Notes
    -----
    * ``value(key)`` returns the *true* value (scale applied).
    * :meth:`decay` multiplies all values by a constant in O(1).
    * When full, :meth:`push` either rejects the candidate (if its
      priority does not beat the current minimum) or evicts and returns
      the minimum entry.
    """

    def __init__(self, capacity: int, priority: Callable[[float], float] = abs):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._priority = priority
        self._scale = 1.0
        # Parallel arrays forming the heap: keys and *raw* values
        # (true value = raw * scale).
        self._keys: list[int] = []
        self._raw: list[float] = []
        self._pos: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._pos

    def __iter__(self) -> Iterator[int]:
        return iter(list(self._keys))

    @property
    def is_full(self) -> bool:
        """Whether the heap holds ``capacity`` entries."""
        return len(self._keys) >= self.capacity

    @property
    def scale(self) -> float:
        """The current global multiplicative scale."""
        return self._scale

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def value(self, key: int) -> float:
        """True (scaled) value stored for ``key``.

        Raises
        ------
        KeyError
            If ``key`` is not in the heap.
        """
        return self._raw[self._pos[key]] * self._scale

    def get(self, key: int, default: float = 0.0) -> float:
        """True value for ``key``, or ``default`` if absent."""
        idx = self._pos.get(key)
        if idx is None:
            return default
        return self._raw[idx] * self._scale

    def min_entry(self) -> tuple[int, float]:
        """The (key, true value) pair with minimum priority.

        Raises
        ------
        IndexError
            If the heap is empty.
        """
        if not self._keys:
            raise IndexError("min_entry on empty heap")
        return self._keys[0], self._raw[0] * self._scale

    def min_priority(self) -> float:
        """Priority of the minimum entry (``inf`` when empty is an error)."""
        if not self._keys:
            raise IndexError("min_priority on empty heap")
        return self._priority(self._raw[0] * self._scale)

    def items(self) -> list[tuple[int, float]]:
        """All (key, true value) pairs in arbitrary heap order."""
        return [(k, v * self._scale) for k, v in zip(self._keys, self._raw)]

    def top(self, n: int | None = None) -> list[tuple[int, float]]:
        """The ``n`` highest-priority (key, true value) pairs, descending.

        With ``n=None`` returns all entries sorted by descending priority.
        """
        entries = self.items()
        entries.sort(key=lambda kv: self._priority(kv[1]), reverse=True)
        if n is None:
            return entries
        return entries[:n]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def decay(self, factor: float) -> None:
        """Multiply every stored value by ``factor`` in O(1).

        ``factor`` must be positive (ordering by ``abs`` is preserved only
        under positive scaling).  Raw values are folded back in when the
        scale underflows toward zero.
        """
        if factor <= 0.0:
            raise ValueError(f"decay factor must be positive, got {factor}")
        self._scale *= factor
        if self._scale < _RENORM_THRESHOLD:
            self._renormalize()

    def _renormalize(self) -> None:
        """Fold the scale into the raw values to avoid underflow."""
        s = self._scale
        self._raw = [v * s for v in self._raw]
        self._scale = 1.0

    def push(self, key: int, value: float) -> tuple[int, float] | None:
        """Insert or update ``key`` with true value ``value``.

        Returns
        -------
        The evicted (key, true value) pair if an insertion into a full
        heap displaced the minimum entry; ``None`` otherwise.  If the heap
        is full and ``value``'s priority is not greater than the current
        minimum (and ``key`` is absent), the pair ``(key, value)`` itself
        is returned as "evicted" (i.e. it was not admitted).
        """
        raw = value / self._scale
        idx = self._pos.get(key)
        if idx is not None:
            self._raw[idx] = raw
            self._sift_up(self._sift_down(idx))
            return None
        if not self.is_full:
            self._append(key, raw)
            return None
        # Full: compare priorities on true values.  Only a strictly
        # greater priority admits (ties and NaN reject).
        if not self._priority(value) > self.min_priority():
            return (key, value)
        evicted = self._replace_min(key, raw)
        return evicted

    def add_delta(self, key: int, delta: float) -> None:
        """Add ``delta`` to the true value of an existing ``key``.

        Raises
        ------
        KeyError
            If ``key`` is not present.
        """
        idx = self._pos[key]
        self._raw[idx] += delta / self._scale
        self._sift_up(self._sift_down(idx))

    def pop_min(self) -> tuple[int, float]:
        """Remove and return the minimum-priority (key, true value) pair."""
        if not self._keys:
            raise IndexError("pop_min on empty heap")
        out = (self._keys[0], self._raw[0] * self._scale)
        self._remove_at(0)
        return out

    def remove(self, key: int) -> float:
        """Remove ``key`` and return its true value.

        Raises
        ------
        KeyError
            If ``key`` is not present.
        """
        idx = self._pos[key]
        value = self._raw[idx] * self._scale
        self._remove_at(idx)
        return value

    def clear(self) -> None:
        """Remove all entries and reset the scale."""
        self._keys.clear()
        self._raw.clear()
        self._pos.clear()
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Heap internals
    # ------------------------------------------------------------------
    def _prio_at(self, idx: int) -> float:
        return self._priority(self._raw[idx] * self._scale)

    def _append(self, key: int, raw: float) -> None:
        self._keys.append(key)
        self._raw.append(raw)
        self._pos[key] = len(self._keys) - 1
        self._sift_up(len(self._keys) - 1)

    def _replace_min(self, key: int, raw: float) -> tuple[int, float]:
        evicted = (self._keys[0], self._raw[0] * self._scale)
        del self._pos[self._keys[0]]
        self._keys[0] = key
        self._raw[0] = raw
        self._pos[key] = 0
        self._sift_down(0)
        return evicted

    def _remove_at(self, idx: int) -> None:
        last = len(self._keys) - 1
        del self._pos[self._keys[idx]]
        if idx != last:
            self._keys[idx] = self._keys[last]
            self._raw[idx] = self._raw[last]
            self._pos[self._keys[idx]] = idx
        self._keys.pop()
        self._raw.pop()
        if idx < len(self._keys):
            self._sift_up(self._sift_down(idx))

    def _swap(self, i: int, j: int) -> None:
        self._keys[i], self._keys[j] = self._keys[j], self._keys[i]
        self._raw[i], self._raw[j] = self._raw[j], self._raw[i]
        self._pos[self._keys[i]] = i
        self._pos[self._keys[j]] = j

    def _sift_up(self, idx: int) -> int:
        # Hot path: locals + inlined priority (identical arithmetic to
        # ``_prio_at``; this only removes Python call frames).
        raw = self._raw
        scale = self._scale
        prio = self._priority
        while idx > 0:
            parent = (idx - 1) // 2
            if prio(raw[idx] * scale) < prio(raw[parent] * scale):
                self._swap(idx, parent)
                idx = parent
            else:
                break
        return idx

    def _sift_down(self, idx: int) -> int:
        raw = self._raw
        scale = self._scale
        prio = self._priority
        n = len(self._keys)
        while True:
            left = 2 * idx + 1
            right = left + 1
            smallest = idx
            p_small = prio(raw[smallest] * scale)
            if left < n:
                p_left = prio(raw[left] * scale)
                if p_left < p_small:
                    smallest = left
                    p_small = p_left
            if right < n and prio(raw[right] * scale) < p_small:
                smallest = right
            if smallest == idx:
                return idx
            self._swap(idx, smallest)
            idx = smallest

    # ------------------------------------------------------------------
    # Introspection / testing helpers
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the heap property and position-map consistency.

        Intended for tests; raises AssertionError on violation.
        """
        n = len(self._keys)
        assert len(self._raw) == n
        assert len(self._pos) == n
        for key, idx in self._pos.items():
            assert self._keys[idx] == key
        for idx in range(1, n):
            parent = (idx - 1) // 2
            assert self._prio_at(parent) <= self._prio_at(idx) + 1e-12, (
                f"heap violated at {idx}: parent {self._prio_at(parent)} > "
                f"child {self._prio_at(idx)}"
            )
