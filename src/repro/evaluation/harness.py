"""Experiment drivers shared by the benchmark suite (Figs. 3-7).

The harness fixes the experimental protocol of Section 7.1:

* every method sees the *same* single pass over the same example
  sequence;
* methods are configured to fit a common byte budget via the Section 7.1
  cost model (:mod:`repro.core.config`);
* the recovery reference ``w*`` is the memory-unconstrained online
  logistic regression trained on the identical sequence;
* recovery quality is RelErr over a grid of K; classification quality is
  progressive-validation error; runtime is wall-clock for the full pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.awm_sketch import AWMSketch
from repro.core.config import (
    count_min_frequent_sizes,
    default_awm_config,
    default_wm_config,
    feature_hashing_width,
    probabilistic_truncation_capacity,
    space_saving_capacity,
    truncation_capacity,
)
from repro.core.wm_sketch import WMSketch
from repro.data.sparse import SparseExample
from repro.evaluation.metrics import relative_error
from repro.learning.base import OnlineErrorTracker, StreamingClassifier
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.frequent import CountMinFrequent, SpaceSavingFrequent
from repro.learning.ogd import UncompressedClassifier
from repro.learning.truncation import ProbabilisticTruncation, SimpleTruncation

#: Canonical short names used in the paper's figures.
METHOD_NAMES = ("Trun", "PTrun", "SS", "CM", "Hash", "WM", "AWM")


def make_budgeted_methods(
    budget_bytes: int,
    lambda_: float = 1e-6,
    learning_rate: float = 0.1,
    seed: int = 0,
    include: Sequence[str] = ("Trun", "PTrun", "SS", "Hash", "WM", "AWM"),
) -> dict[str, StreamingClassifier]:
    """Instantiate every requested method configured for one byte budget.

    The returned classifiers all satisfy
    ``clf.memory_cost_bytes <= budget_bytes``.
    """
    methods: dict[str, StreamingClassifier] = {}
    common = dict(lambda_=lambda_, learning_rate=learning_rate)
    for name in include:
        if name == "Trun":
            methods[name] = SimpleTruncation(
                truncation_capacity(budget_bytes), **common
            )
        elif name == "PTrun":
            methods[name] = ProbabilisticTruncation(
                probabilistic_truncation_capacity(budget_bytes),
                seed=seed,
                **common,
            )
        elif name == "SS":
            methods[name] = SpaceSavingFrequent(
                space_saving_capacity(budget_bytes), **common
            )
        elif name == "CM":
            heap, width, depth = count_min_frequent_sizes(budget_bytes)
            methods[name] = CountMinFrequent(
                heap, width, depth, seed=seed, **common
            )
        elif name == "Hash":
            methods[name] = FeatureHashing(
                feature_hashing_width(budget_bytes), seed=seed, **common
            )
        elif name == "WM":
            cfg = default_wm_config(budget_bytes)
            methods[name] = WMSketch(
                cfg.width,
                cfg.depth,
                heap_capacity=cfg.heap_capacity,
                seed=seed,
                **common,
            )
        elif name == "AWM":
            cfg = default_awm_config(budget_bytes)
            methods[name] = AWMSketch(
                cfg.width,
                cfg.depth,
                heap_capacity=cfg.heap_capacity,
                seed=seed,
                **common,
            )
        else:
            raise ValueError(f"unknown method name {name!r}")
    for name, clf in methods.items():
        if clf.memory_cost_bytes > budget_bytes:
            raise AssertionError(
                f"{name} exceeds budget: {clf.memory_cost_bytes} > {budget_bytes}"
            )
    return methods


@dataclass
class MethodResult:
    """Everything measured for one method on one run."""

    name: str
    rel_err: dict[int, float] = field(default_factory=dict)
    error_rate: float = float("nan")
    runtime_s: float = float("nan")
    memory_bytes: int = 0

    def normalized_runtime(self, baseline_s: float) -> float:
        """Runtime as a multiple of the unconstrained baseline's."""
        if baseline_s <= 0:
            raise ValueError("baseline runtime must be positive")
        return self.runtime_s / baseline_s


class RecoveryExperiment:
    """Run budgeted methods + the unconstrained reference on one stream.

    Parameters
    ----------
    examples:
        Materialized example sequence (all methods must see the identical
        order, so the stream is realized once up front).
    d:
        Feature dimension (for the dense reference).
    lambda_, learning_rate:
        Shared optimizer settings (the paper tunes lambda per dataset and
        shares eta0 = 0.1).
    ks:
        The K grid for RelErr curves (the paper plots K <= 128).
    batch_size:
        If set, every method (and the reference) is driven through the
        batched streaming engine (``fit_stream``) with this mini-batch
        size instead of the per-example predict-then-update loop.  The
        batched kernels replay the per-example sequence exactly, so
        results are identical — only the wall-clock changes.
    """

    def __init__(
        self,
        examples: Iterable[SparseExample],
        d: int,
        lambda_: float = 1e-6,
        learning_rate: float = 0.1,
        ks: Sequence[int] = (8, 16, 32, 64, 128),
        batch_size: int | None = None,
    ):
        self.examples = list(examples)
        if not self.examples:
            raise ValueError("empty example stream")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.d = d
        self.lambda_ = lambda_
        self.learning_rate = learning_rate
        self.ks = tuple(ks)
        self.batch_size = batch_size
        self._observed: np.ndarray | None = None
        self._reference: UncompressedClassifier | None = None
        self._reference_runtime: float = float("nan")

    def _drive(
        self, clf: StreamingClassifier, tracker: OnlineErrorTracker
    ) -> None:
        """One predict-then-update pass over the shared stream."""
        if self.batch_size is None:
            for ex in self.examples:
                prediction = clf.predict(ex)
                tracker.record(prediction, ex.label)
                clf.update(ex)
        else:
            clf.fit_stream(
                self.examples, batch_size=self.batch_size, tracker=tracker
            )

    # ------------------------------------------------------------------
    @property
    def observed_features(self) -> np.ndarray:
        """All feature ids occurring in the stream (candidate set for
        methods that store no identifiers)."""
        if self._observed is None:
            seen: set[int] = set()
            for ex in self.examples:
                seen.update(ex.indices.tolist())
            self._observed = np.fromiter(seen, dtype=np.int64, count=len(seen))
        return self._observed

    def reference(self) -> UncompressedClassifier:
        """Train (once) and return the unconstrained reference model."""
        if self._reference is None:
            clf = UncompressedClassifier(
                self.d,
                lambda_=self.lambda_,
                learning_rate=self.learning_rate,
                track_top=128,
            )
            tracker = OnlineErrorTracker(checkpoint_every=0)
            start = time.perf_counter()
            self._drive(clf, tracker)
            self._reference_runtime = time.perf_counter() - start
            self._reference_error = tracker.error_rate
            self._reference = clf
        return self._reference

    def reference_result(self) -> MethodResult:
        """The unconstrained model's own result row (the "LR" line)."""
        clf = self.reference()
        w_star = clf.dense_weights()
        result = MethodResult(
            name="LR",
            error_rate=self._reference_error,
            runtime_s=self._reference_runtime,
            memory_bytes=clf.memory_cost_bytes,
        )
        for k in self.ks:
            result.rel_err[k] = relative_error(clf.top_weights(k), w_star, k)
        return result

    # ------------------------------------------------------------------
    def _top_weights(
        self, clf: StreamingClassifier, k: int
    ) -> list[tuple[int, float]]:
        """Top-k from the method, via candidates when ids are not stored
        (a heap-less WM-Sketch, feature hashing included)."""
        if isinstance(clf, WMSketch) and clf.heap is None:
            return clf.top_weights_from_candidates(self.observed_features, k)
        return clf.top_weights(k)

    def run_method(self, name: str, clf: StreamingClassifier) -> MethodResult:
        """Single pass + metrics for one method."""
        tracker = OnlineErrorTracker(checkpoint_every=0)
        start = time.perf_counter()
        self._drive(clf, tracker)
        runtime = time.perf_counter() - start
        w_star = self.reference().dense_weights()
        result = MethodResult(
            name=name,
            error_rate=tracker.error_rate,
            runtime_s=runtime,
            memory_bytes=clf.memory_cost_bytes,
        )
        for k in self.ks:
            result.rel_err[k] = relative_error(
                self._top_weights(clf, k), w_star, k
            )
        return result

    def run_budget(
        self,
        budget_bytes: int,
        seed: int = 0,
        include: Sequence[str] = ("Trun", "PTrun", "SS", "Hash", "WM", "AWM"),
    ) -> dict[str, MethodResult]:
        """Run every budgeted method at one budget; returns name->result."""
        methods = make_budgeted_methods(
            budget_bytes,
            lambda_=self.lambda_,
            learning_rate=self.learning_rate,
            seed=seed,
            include=include,
        )
        return {
            name: self.run_method(name, clf) for name, clf in methods.items()
        }

    def run_factory(
        self, name: str, factory: Callable[[], StreamingClassifier]
    ) -> MethodResult:
        """Run a custom (e.g. swept-configuration) method."""
        return self.run_method(name, factory())
