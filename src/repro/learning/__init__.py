"""Online-learning substrate and all memory-budgeted baselines.

This package contains everything about *learning* that is not the
WM/AWM-Sketch itself:

* :mod:`~repro.learning.losses` — margin losses (logistic, smoothed
  hinge, hinge, squared) with the smoothness/Lipschitz constants the
  theory needs.
* :mod:`~repro.learning.schedules` — learning-rate schedules for online
  gradient descent.
* :mod:`~repro.learning.base` — the :class:`StreamingClassifier`
  interface every method implements (update / margin / weight estimates /
  top-K / memory cost), plus progressive-validation driving.
* :mod:`~repro.learning.ogd` — the memory-*unconstrained* logistic
  regression reference (the ``LR`` line in the paper's figures).
* :mod:`~repro.learning.feature_hashing` — the hashing-trick baseline, a
  depth-1 heap-less WM-Sketch.
* :mod:`~repro.learning.truncation` — Simple Truncation (Algorithm 3)
  and Probabilistic Truncation (Algorithm 4).
* :mod:`~repro.learning.frequent` — Space Saving Frequent and Count-Min
  Frequent feature selectors.
* :mod:`~repro.learning.adagrad` — per-feature (AdaGrad) learning-rate
  extensions.

``feature_hashing`` and ``adagrad`` build on :mod:`repro.core`, which
imports this package, so neither is imported here: the top-level
:mod:`repro` package imports them from their modules.
"""

from repro.learning.base import StreamingClassifier, OnlineErrorTracker, run_stream
from repro.learning.frequent import CountMinFrequent, SpaceSavingFrequent
from repro.learning.losses import (
    HingeLoss,
    Loss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)
from repro.learning.ogd import UncompressedClassifier
from repro.learning.schedules import (
    ConstantSchedule,
    InverseSchedule,
    InverseSqrtSchedule,
    Schedule,
)
from repro.learning.truncation import ProbabilisticTruncation, SimpleTruncation

__all__ = [
    "StreamingClassifier",
    "OnlineErrorTracker",
    "run_stream",
    "Loss",
    "LogisticLoss",
    "SmoothedHingeLoss",
    "HingeLoss",
    "SquaredLoss",
    "Schedule",
    "ConstantSchedule",
    "InverseSqrtSchedule",
    "InverseSchedule",
    "UncompressedClassifier",
    "SimpleTruncation",
    "ProbabilisticTruncation",
    "SpaceSavingFrequent",
    "CountMinFrequent",
]
