"""Margin-based convex losses for binary linear classification.

Every loss is a function of the margin ``tau = y * (w . x)`` (Section 4,
Eq. 1).  Besides the value and derivative, each loss exposes the two
constants the theoretical analysis depends on:

* ``smoothness`` — the beta in beta-strong smoothness w.r.t. ``|.|``
  (Theorems 1-2 require finite beta; the plain hinge has beta = inf and
  is provided for completeness / ablations only).
* ``lipschitz`` — the H bounding ``|loss'(tau)|`` (Theorem 2).

The derivative convention matches Algorithm 1: ``dloss(tau)`` returns
``d loss / d tau``, so the gradient of ``loss(y z^T R x)`` w.r.t. ``z``
is ``y * dloss(y z^T R x) * R x``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class Loss(ABC):
    """A differentiable (a.e.) convex margin loss."""

    #: Strong-smoothness constant beta (inf if not smooth).
    smoothness: float = math.inf
    #: Lipschitz constant H of the derivative's magnitude.
    lipschitz: float = math.inf
    #: Integer id the fused update kernels use to select the derivative
    #: formula inside a single backend call (see
    #: :mod:`repro.kernels.api`).  ``None`` marks a loss the kernels do
    #: not know — models then train it through the per-example spec
    #: (:meth:`repro.learning.base.StreamingClassifier.fit_batch`), so
    #: custom losses keep working unchanged.
    kernel_id: int | None = None
    #: Scalar parameter forwarded to the fused kernels alongside
    #: :attr:`kernel_id` (only the smoothed hinge uses it, for gamma).
    kernel_param: float = 0.0

    @abstractmethod
    def value(self, tau: float) -> float:
        """The loss at margin ``tau``."""

    @abstractmethod
    def dloss(self, tau: float) -> float:
        """The derivative d loss / d tau at ``tau``."""

    def predict_probability(self, margin: float) -> float:
        """P(y = +1 | margin), when the loss has a probabilistic reading.

        Only the logistic loss overrides this; other losses raise.
        """
        raise NotImplementedError(f"{type(self).__name__} is not probabilistic")


class LogisticLoss(Loss):
    """loss(tau) = log(1 + exp(-tau)) — logistic regression.

    beta = 1 (the paper notes beta = 1 for the logistic loss; the second
    derivative is at most 1/4, so any beta >= 1/4 works — we report the
    paper's constant), H = 1.
    """

    smoothness = 1.0
    lipschitz = 1.0
    kernel_id = 0

    def value(self, tau: float) -> float:
        # log(1 + e^-tau), stable for both signs of tau.
        if tau >= 0:
            return math.log1p(math.exp(-tau))
        return -tau + math.log1p(math.exp(tau))

    def dloss(self, tau: float) -> float:
        # -sigmoid(-tau) = -1 / (1 + e^tau)
        if tau >= 0:
            e = math.exp(-tau)
            return -e / (1.0 + e)
        return -1.0 / (1.0 + math.exp(tau))

    def predict_probability(self, margin: float) -> float:
        """The logistic link: P(y=+1 | margin) = sigmoid(margin)."""
        if margin >= 0:
            return 1.0 / (1.0 + math.exp(-margin))
        e = math.exp(margin)
        return e / (1.0 + e)


class SmoothedHingeLoss(Loss):
    """Quadratically-smoothed hinge loss (close relative of linear SVM).

    ::

        loss(tau) = 0                      if tau >= 1
                  = (1 - tau)^2 / (2 g)    if 1 - g <= tau < 1
                  = 1 - tau - g / 2        if tau < 1 - g

    with smoothing parameter ``g`` (gamma).  beta = 1/g, H = 1.  At
    ``g = 1`` this is the standard smooth hinge with beta = 1, matching
    the paper's "smoothed versions of the hinge loss ... beta = 1".
    """

    kernel_id = 1

    def __init__(self, gamma: float = 1.0):
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = gamma
        self.smoothness = 1.0 / gamma
        self.lipschitz = 1.0
        self.kernel_param = gamma

    def value(self, tau: float) -> float:
        if tau >= 1.0:
            return 0.0
        if tau >= 1.0 - self.gamma:
            return (1.0 - tau) ** 2 / (2.0 * self.gamma)
        return 1.0 - tau - self.gamma / 2.0

    def dloss(self, tau: float) -> float:
        if tau >= 1.0:
            return 0.0
        if tau >= 1.0 - self.gamma:
            return (tau - 1.0) / self.gamma
        return -1.0


class HingeLoss(Loss):
    """loss(tau) = max(0, 1 - tau) — not smooth (beta = inf).

    Included for ablations; the recovery theory does not cover it, and
    the subgradient at the kink is taken to be -1.
    """

    smoothness = math.inf
    lipschitz = 1.0
    kernel_id = 2

    def value(self, tau: float) -> float:
        return max(0.0, 1.0 - tau)

    def dloss(self, tau: float) -> float:
        return -1.0 if tau <= 1.0 else 0.0


class SquaredLoss(Loss):
    """loss(tau) = (1 - tau)^2 / 2 — least-squares classification.

    beta = 1, but the derivative is unbounded (H = inf), so Theorem 2's
    online bound does not apply without clipping.
    """

    smoothness = 1.0
    lipschitz = math.inf
    kernel_id = 3

    def value(self, tau: float) -> float:
        return 0.5 * (1.0 - tau) ** 2

    def dloss(self, tau: float) -> float:
        return tau - 1.0
