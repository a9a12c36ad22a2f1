"""The feature-hashing ("hashing trick") baseline.

Shi et al. 2009 / Weinberger et al. 2009: train on features hashed into a
fixed-size table with random signs (the signs make the inner product an
unbiased estimate of the original).  This is the ``Hash`` line in
Figs. 3-7.

Feature hashing stores *no* feature identifiers, so its entire budget
goes to weights — but colliding features can never be disambiguated,
which is why its recovery error is poor (Fig. 3) even though its
classification accuracy is strong.

At depth 1 the WM-Sketch's Algorithm 1 *is* the hashing trick: the
projection is one signed hash (``sqrt(s) = 1``) and the median over one
row is that row.  :class:`FeatureHashing` is therefore a depth-1
:class:`~repro.core.wm_sketch.WMSketch` without the passive heap, and
inherits every path of it: the lazily scaled table, the fused batch
kernels, serving snapshots with O(dirty) publishes, merging and
parameter-server delta sync.  Weight estimates read the feature's one
signed cell; :meth:`top_weights` raises (there are no identifiers to
rank), so recovery goes through :meth:`top_weights_from_candidates`.
"""

from __future__ import annotations

from repro.core.wm_sketch import WMSketch
from repro.learning.losses import Loss
from repro.learning.schedules import Schedule


class FeatureHashing(WMSketch):
    """Signed feature hashing into a single weight table.

    Parameters
    ----------
    width:
        Hash-table size in weights (all of the memory budget).
    loss, lambda_, learning_rate:
        As for every learner (Eq. 1 objective, lazy L2 decay).
    seed:
        Hash-function seed.
    backend:
        Kernel-backend override for the compiled loops (see
        :class:`~repro.core.wm_sketch.WMSketch`).
    """

    def __init__(
        self,
        width: int,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        backend: str | None = None,
    ):
        super().__init__(
            width,
            1,
            loss=loss,
            lambda_=lambda_,
            learning_rate=learning_rate,
            seed=seed,
            heap_capacity=0,
            backend=backend,
        )
