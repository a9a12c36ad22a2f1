"""The common interface of all memory-budgeted streaming classifiers.

Every method in the paper's evaluation — WM-Sketch, AWM-Sketch, the
truncation baselines, the frequent-feature baselines, feature hashing and
the unconstrained reference — implements :class:`StreamingClassifier`:

* ``update(example)`` — one online-gradient step on a labelled example;
* ``predict_margin(example)`` — the current model's raw score ``w . x``;
* ``estimate_weights(indices)`` — point estimates of individual weights
  of the (conceptual) uncompressed model;
* ``top_weights(k)`` — the k heaviest (feature, weight) estimates;
* ``memory_cost_bytes`` — the method's footprint under the paper's cost
  model (Section 7.1: 4 bytes per feature identifier, feature weight,
  or auxiliary value).

:func:`run_stream` drives a classifier over a stream with
progressive-validation error accounting (predict-then-update, Blum et
al. 1999), which is exactly the "online classification error rate" of
Section 7.3.

Batched streaming
-----------------
``fit_batch`` / ``predict_batch`` / ``fit_stream`` form the batched
engine: a classifier consumes :class:`~repro.data.batch.SparseBatch`
windows instead of one example at a time, which lets vectorized
implementations hash and gather whole batches at once.  The contract is
*sequential equivalence*: ``fit_batch`` must leave the classifier in the
same state as updating on the batch's examples in order, and must return
the pre-update margins (what ``predict_margin`` would have said just
before each example's own update) so progressive validation comes for
free.  The defaults here implement that contract by plain iteration;
hot classifiers override ``fit_batch`` with vectorized kernels.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample
from repro.telemetry.hooks import hooks as _hooks

#: Bytes charged per feature identifier, weight, or auxiliary value
#: (Section 7.1's memory cost model).
CELL_BYTES = 4


class StreamingClassifier(ABC):
    """Abstract base for online linear classifiers over sparse streams."""

    #: Number of updates performed so far.
    t: int = 0

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    @abstractmethod
    def predict_margin(self, x: SparseExample) -> float:
        """The raw score ``w . x`` of the current model."""

    @abstractmethod
    def update(self, x: SparseExample) -> None:
        """One online learning step on a labelled example."""

    @abstractmethod
    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        """Point estimates of the given features' weights."""

    @abstractmethod
    def top_weights(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` heaviest (feature id, estimated weight) pairs,
        sorted by descending magnitude."""

    @property
    @abstractmethod
    def memory_cost_bytes(self) -> int:
        """Footprint under the 4-bytes-per-cell cost model."""

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    def predict(self, x: SparseExample) -> int:
        """The predicted label sign(w . x) in {-1, +1}.

        Ties (margin exactly 0) resolve to +1, matching the paper's
        ``sign`` convention (+1 for non-negative inner product).
        """
        return 1 if self.predict_margin(x) >= 0.0 else -1

    def estimate_weight(self, index: int) -> float:
        """Point estimate of a single feature's weight."""
        return float(
            self.estimate_weights(np.asarray([index], dtype=np.int64))[0]
        )

    def fit(
        self,
        stream: Iterable[SparseExample],
        batch_size: int | None = None,
    ) -> "StreamingClassifier":
        """Consume a stream (single pass) without error accounting.

        With ``batch_size`` set, the stream is chunked into
        :class:`~repro.data.batch.SparseBatch` windows and driven through
        :meth:`fit_batch` — same final state, fewer Python-level
        per-example round trips for classifiers with vectorized kernels.
        """
        if batch_size is None:
            for example in stream:
                self.update(example)
        else:
            for batch in iter_batches(stream, batch_size):
                self.fit_batch(batch)
        return self

    # ------------------------------------------------------------------
    # Batched streaming engine
    # ------------------------------------------------------------------
    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Margins ``w . x`` for every example of a batch (read-only).

        The default delegates to :meth:`predict_margin` per example;
        vectorized classifiers override it.
        """
        margins = np.empty(len(batch), dtype=np.float64)
        for i, ex in enumerate(batch):
            margins[i] = self.predict_margin(ex)
        return margins

    def fit_batch(self, batch: SparseBatch) -> np.ndarray:
        """Update on every example of a batch, in stream order.

        Returns
        -------
        numpy.ndarray
            The *pre-update* margin of each example — the prediction the
            model would have made immediately before that example's own
            update, exactly as in predict-then-update driving.

        The default implementation iterates; it is the reference
        semantics that every vectorized override must reproduce (state
        and margins alike).
        """
        margins = np.empty(len(batch), dtype=np.float64)
        for i, ex in enumerate(batch):
            margins[i] = self.predict_margin(ex)
            self.update(ex)
        return margins

    def fit_stream(
        self,
        stream: Iterable[SparseExample],
        batch_size: int = 256,
        tracker: "OnlineErrorTracker | None" = None,
    ) -> "OnlineErrorTracker":
        """Batched predict-then-update pass with progressive validation.

        The batched analogue of :func:`run_stream`: the stream is chunked
        into batches, each batch is consumed by :meth:`fit_batch`, and
        the returned pre-update margins feed the error tracker — so the
        progressive-validation error equals the per-example path's.
        """
        if tracker is None:
            tracker = OnlineErrorTracker()
        for batch in iter_batches(stream, batch_size):
            if _hooks.on_batch_end:
                t0 = time.perf_counter()
                margins = self.fit_batch(batch)
                _hooks.batch_end(self, len(batch), time.perf_counter() - t0)
            else:
                margins = self.fit_batch(batch)
            for m, y in zip(margins.tolist(), batch.labels.tolist()):
                tracker.record(1 if m >= 0.0 else -1, y)
        return tracker


@dataclass
class OnlineErrorTracker:
    """Progressive-validation error accounting.

    Records, for each observed example, whether the prediction made
    *before* the model update was correct; the online error rate is the
    cumulative mistake count over iterations (Section 7.3).
    """

    mistakes: int = 0
    n: int = 0
    #: Cumulative error after each step (recorded at ``checkpoint_every``
    #: intervals as (t, error) pairs for learning-curve plots).
    curve: list[tuple[int, float]] = field(default_factory=list)
    checkpoint_every: int = 1000

    def record(self, predicted: int, actual: int) -> None:
        """Record one prediction/label pair."""
        self.n += 1
        if predicted != actual:
            self.mistakes += 1
        if self.checkpoint_every and self.n % self.checkpoint_every == 0:
            self.curve.append((self.n, self.error_rate))

    @property
    def error_rate(self) -> float:
        """Cumulative mistakes / examples seen (0.0 before any example)."""
        if self.n == 0:
            return 0.0
        return self.mistakes / self.n


def run_stream(
    classifier: StreamingClassifier,
    stream: Iterable[SparseExample],
    tracker: OnlineErrorTracker | None = None,
) -> OnlineErrorTracker:
    """Drive ``classifier`` over ``stream`` with predict-then-update.

    Returns the (possibly caller-provided) tracker holding the online
    error rate.
    """
    if tracker is None:
        tracker = OnlineErrorTracker()
    for example in stream:
        prediction = classifier.predict(example)
        tracker.record(prediction, example.label)
        classifier.update(example)
    return tracker
