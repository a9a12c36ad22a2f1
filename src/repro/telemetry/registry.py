"""Metrics substrate: counters, gauges, log-scale histograms, one lock.

Every hot layer (kernels, serving, load generation) records into a
:class:`MetricsRegistry`.  Three design rules keep it honest:

* **One mutex per registry.**  Every mutation and every read of every
  instrument takes the registry's single re-entrant lock.  That makes
  increments race-free under free-threaded readers *and* makes
  :meth:`MetricsRegistry.snapshot` a **consistent cut**: a snapshot can
  never pair a new histogram bucket with a stale counter, because
  nothing mutates while it is taken.  The lock is cheap — the serving
  paths take it once per *batch* (flush/publish), never per element.
* **Snapshots are plain JSON-able dicts** with sum-merge semantics.
  Two registries (e.g. per-worker trainers from ``repro.parallel``)
  merge by adding counters and bucket counts — exactly how sketch
  tables merge — so :func:`merge_snapshots` is associative and
  commutative over integer-valued instruments, and merging per-worker
  telemetry in any order yields the identical snapshot.
* **Histograms are fixed log-scale buckets**, recorded in bulk through
  :meth:`Histogram.record_many` (one ``np.searchsorted`` +
  ``np.bincount`` per batch of observations) or one at a time through
  :meth:`Histogram.record` (a plain-Python bisect, for the per-flush
  and per-publish timings), so long open-loop load runs hold
  O(buckets) memory instead of one float per request.

Instruments may be created standalone (no registry) for private use —
they then carry their own lock.
"""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
]


def instrument_key(name: str, labels: tuple[tuple[str, object], ...]) -> str:
    """Flat snapshot key: ``name`` or ``name{k=v,...}`` (sorted labels)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _labels_tuple(labels: dict) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared base: identity (name + labels) and the protecting lock."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name, labels=(), lock=None):
        self.name = name
        self.labels = tuple(labels)
        self._lock = lock if lock is not None else threading.RLock()

    @property
    def key(self) -> str:
        return instrument_key(self.name, self.labels)


class Counter(_Instrument):
    """Monotone additive count (int or float increments)."""

    __slots__ = ("_value",)

    def __init__(self, name, labels=(), lock=None):
        super().__init__(name, labels, lock)
        self._value = 0

    def inc(self, n=1):
        with self._lock:
            self._value += n

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A level (queue depth, cache size): set / inc / dec.

    Gauges merge by *summing* — per-worker levels (pending requests,
    cached keys) add across shards.
    """

    __slots__ = ("_value",)

    def __init__(self, name, labels=(), lock=None):
        super().__init__(name, labels, lock)
        self._value = 0

    def set(self, v):
        with self._lock:
            self._value = v

    def inc(self, n=1):
        with self._lock:
            self._value += n

    def dec(self, n=1):
        with self._lock:
            self._value -= n

    @property
    def value(self):
        with self._lock:
            return self._value


#: Batches up to this long are recorded value by value in Python, which
#: beats the vectorized pass below about 8 values (a flush's queue waits).
_FEW = 8


def _edges(lo: float, hi: float, buckets_per_decade: int) -> np.ndarray:
    """Log-scale bucket edges ``lo * 10**(i / bpd)`` covering [lo, hi)."""
    n = int(math.ceil(round(math.log10(hi / lo) * buckets_per_decade, 9)))
    return lo * np.power(10.0, np.arange(n + 1) / buckets_per_decade)


class Histogram(_Instrument):
    """Fixed-bucket log-scale histogram over positive observations.

    ``counts[0]`` is the underflow bucket (observations below ``lo``,
    including zero/negative), ``counts[-1]`` the overflow bucket
    (observations at or above ``hi``); interior bucket ``i`` covers the
    half-open interval ``[edges[i-1], edges[i])`` — an observation
    exactly on an edge lands in the bucket that *starts* there.
    Percentiles interpolate linearly within a bucket and are clamped to
    the exactly-tracked ``[min_value, max_value]``, so ``percentile(100)
    == max_value`` regardless of bucket width.
    """

    __slots__ = (
        "lo", "hi", "buckets_per_decade",
        "_edges", "_edge_list", "_counts", "_count", "_sum", "_min",
        "_max",
    )

    def __init__(
        self,
        name,
        labels=(),
        lock=None,
        *,
        lo: float = 1e-7,
        hi: float = 1e3,
        buckets_per_decade: int = 6,
    ):
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        super().__init__(name, labels, lock)
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        self._edges = _edges(self.lo, self.hi, self.buckets_per_decade)
        self._edge_list = self._edges.tolist()
        self._counts = np.zeros(self._edges.size + 1, dtype=np.int64)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one observation: :meth:`record_many` of ``[value]``,
        in plain Python (a bisect over the edges finds the bucket
        ``np.searchsorted(..., side="right")`` finds)."""
        with self._lock:
            self._record(float(value))

    def _record(self, value: float) -> None:
        # The caller holds the lock.
        self._counts[bisect.bisect_right(self._edge_list, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values) -> None:
        """Record a whole batch of observations: one vectorized pass, or
        a :meth:`record` per value for a list or tuple of at most
        ``_FEW`` (the sum then accumulates value by value)."""
        if isinstance(values, (list, tuple)) and len(values) <= _FEW:
            with self._lock:
                for value in values:
                    self._record(float(value))
            return
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        idx = np.searchsorted(self._edges, values, side="right")
        binned = np.bincount(idx, minlength=self._counts.size)
        vmin = float(values.min())
        vmax = float(values.max())
        vsum = float(values.sum())
        with self._lock:
            self._counts += binned
            self._count += values.size
            self._sum += vsum
            if vmin < self._min:
                self._min = vmin
            if vmax > self._max:
                self._max = vmax

    # -- reading --------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min_value(self) -> float | None:
        with self._lock:
            return None if self._count == 0 else self._min

    @property
    def max_value(self) -> float | None:
        with self._lock:
            return None if self._count == 0 else self._max

    def percentile(self, q: float) -> float:
        with self._lock:
            return _hist_percentile(
                self._counts, self._edges, self._count, self._min,
                self._max, q,
            )

    def snapshot(self) -> dict:
        """A consistent, JSON-able, sum-mergeable view (see module doc)."""
        with self._lock:
            empty = self._count == 0
            return {
                "type": "histogram",
                "lo": self.lo,
                "hi": self.hi,
                "buckets_per_decade": self.buckets_per_decade,
                "count": self._count,
                "sum": self._sum,
                "min": None if empty else self._min,
                "max": None if empty else self._max,
                "counts": self._counts.tolist(),
                "p50": self.percentile(50.0),
                "p90": self.percentile(90.0),
                "p99": self.percentile(99.0),
            }


def _hist_percentile(counts, edges, total, vmin, vmax, q) -> float:
    if total == 0:
        return float("nan")
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    target = max(q / 100.0 * total, 1e-12)
    cum = np.cumsum(counts)
    b = int(np.searchsorted(cum, target, side="left"))
    before = 0 if b == 0 else int(cum[b - 1])
    in_bucket = int(counts[b])
    # Bucket bounds; the open-ended under/overflow buckets borrow the
    # exactly-tracked extremes.
    lo_b = vmin if b == 0 else float(edges[b - 1])
    hi_b = vmax if b >= edges.size else float(edges[b])
    frac = (target - before) / in_bucket if in_bucket else 1.0
    value = lo_b + frac * (hi_b - lo_b)
    return float(min(max(value, vmin), vmax))


def _percentile_from_snapshot(snap: dict, q: float) -> float:
    edges = _edges(snap["lo"], snap["hi"], snap["buckets_per_decade"])
    vmin = snap["min"] if snap["min"] is not None else math.inf
    vmax = snap["max"] if snap["max"] is not None else -math.inf
    return _hist_percentile(
        np.asarray(snap["counts"], dtype=np.int64), edges, snap["count"],
        vmin, vmax, q,
    )


class MetricsRegistry:
    """Get-or-create instrument registry with consistent snapshots.

    All instruments created through a registry share its single
    re-entrant lock; :meth:`locked` exposes it so composite reads (a
    server's ``stats()``) can pin one consistent cut across many
    instruments.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._instruments: dict[tuple, _Instrument] = {}

    # -- creation -------------------------------------------------------
    def _get_or_create(self, cls, name, labels, **params):
        key = (name, _labels_tuple(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, key[1], lock=self._lock, **params)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"instrument {instrument_key(name, key[1])!r} already "
                    f"registered as {type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        lo: float = 1e-7,
        hi: float = 1e3,
        buckets_per_decade: int = 6,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels,
            lo=lo, hi=hi, buckets_per_decade=buckets_per_decade,
        )

    # -- consistent reads ----------------------------------------------
    def locked(self):
        """The registry mutex as a context manager (re-entrant): hold it
        to read several instruments as one consistent cut."""
        return self._lock

    def snapshot(self) -> dict:
        """One consistent cut of every instrument (JSON-able)."""
        with self._lock:
            counters = {}
            gauges = {}
            histograms = {}
            for inst in self._instruments.values():
                if isinstance(inst, Counter):
                    counters[inst.key] = inst._value
                elif isinstance(inst, Gauge):
                    gauges[inst.key] = inst._value
                else:
                    histograms[inst.key] = inst.snapshot()
            return {
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }

    def delta(self, prev: dict) -> dict:
        """Snapshot now minus a previous snapshot's additive state.

        Counters and histogram counts subtract; gauges are levels, so
        the current value is reported as-is; histogram min/max cannot be
        un-merged and keep their current values.
        """
        now = self.snapshot()
        for key, value in (prev.get("counters") or {}).items():
            if key in now["counters"]:
                now["counters"][key] -= value
        for key, snap in (prev.get("histograms") or {}).items():
            h = now["histograms"].get(key)
            if h is None:
                continue
            h["count"] -= snap["count"]
            h["sum"] -= snap["sum"]
            h["counts"] = [
                a - b for a, b in zip(h["counts"], snap["counts"])
            ]
            for q, key_q in ((50.0, "p50"), (90.0, "p90"), (99.0, "p99")):
                h[key_q] = _percentile_from_snapshot(h, q)
        return now

    # -- merging --------------------------------------------------------
    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this registry's live
        instruments (sum-merge; creates missing instruments)."""
        with self._lock:
            for key, value in (snap.get("counters") or {}).items():
                name, labels = _parse_key(key)
                self._get_or_create(Counter, name, labels)._value += value
            for key, value in (snap.get("gauges") or {}).items():
                name, labels = _parse_key(key)
                self._get_or_create(Gauge, name, labels)._value += value
            for key, h in (snap.get("histograms") or {}).items():
                name, labels = _parse_key(key)
                inst = self._get_or_create(
                    Histogram, name, labels,
                    lo=h["lo"], hi=h["hi"],
                    buckets_per_decade=h["buckets_per_decade"],
                )
                if (inst.lo, inst.hi, inst.buckets_per_decade) != (
                    h["lo"], h["hi"], h["buckets_per_decade"]
                ):
                    raise ValueError(
                        f"histogram {key!r}: incompatible bucket layout"
                    )
                inst._counts += np.asarray(h["counts"], dtype=np.int64)
                inst._count += h["count"]
                inst._sum += h["sum"]
                if h["min"] is not None and h["min"] < inst._min:
                    inst._min = h["min"]
                if h["max"] is not None and h["max"] > inst._max:
                    inst._max = h["max"]

    def merge(self, other: "MetricsRegistry") -> None:
        """Sum-merge another registry into this one (via its snapshot,
        so the read side is itself a consistent cut)."""
        self.merge_snapshot(other.snapshot())


def _parse_key(key: str) -> tuple[str, dict]:
    """Invert :func:`instrument_key` (label values parse as str/int)."""
    if not key.endswith("}"):
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels = {}
    for part in inner.split(","):
        k, _, v = part.partition("=")
        labels[k] = int(v) if v.lstrip("-").isdigit() else v
    return name, labels


def merge_snapshots(*snaps: dict) -> dict:
    """Sum-merge snapshots (associative + commutative for integer-valued
    instruments — the per-worker merge used by ``repro.parallel``)."""
    out = MetricsRegistry()
    for snap in snaps:
        out.merge_snapshot(snap)
    merged = out.snapshot()
    return merged
