"""Seeded, vectorised input generation for the end-to-end benchmark.

The training streams keep the generative model of
:class:`repro.data.synthetic.SyntheticStream` (Zipf feature
frequencies, binary values, logistic labels with label noise), but
draw whole blocks of examples at once from the stream's public
``id_probs`` and ``true_weights``: one precomputed CDF plus
``searchsorted`` per block, instead of one O(d) ``rng.choice`` per
example.  Examples come out as :class:`repro.data.batch.SparseBatch`
blocks in CSR layout.

Read requests use :func:`repro.serving.loadgen.build_requests` (60%
query, 30% predict, 10% top_k; Zipf keys, Pareto sizes).  The program
under test receives only what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import SparseBatch
from repro.data.datasets import rcv1_like, url_like
from repro.serving.loadgen import build_requests

#: Stream shapes: rcv1 at the paper's dimension (d = 47,200) and url at
#: d = 646,000 (a fifth of the paper's 3.23M features).  The generative
#: model (feature frequencies, true weights) is part of the workload and
#: fixed; the run seed draws the examples and requests from it.
SHAPES = {
    "rcv1": lambda: rcv1_like(scale=1.0, seed=0).stream,
    "url": lambda: url_like(scale=0.2, seed=0).stream,
}


class StreamSampler:
    """Vectorised sampler over one synthetic stream's generative model."""

    def __init__(self, shape: str):
        self.stream = SHAPES[shape]()
        cdf = np.cumsum(self.stream.id_probs)
        self._cdf = cdf / cdf[-1]
        self.d = self.stream.d

    def draw(self, n: int, rng: np.random.Generator) -> SparseBatch:
        """``n`` examples as one CSR block (distinct ids per example)."""
        s = self.stream
        nnz = 1 + rng.poisson(max(s.avg_nnz - 1.0, 0.0), size=n)
        np.minimum(nnz, self.d, out=nnz)
        # Sorted uniforms make the CDF lookup cache-friendly; shuffling
        # the looked-up ids afterwards restores iid draws.
        u = np.sort(rng.random(int(nnz.sum())))
        ids = rng.permutation(np.searchsorted(self._cdf, u, side="right"))
        np.minimum(ids, self.d - 1, out=ids)
        # Dedup within each example: one sort of (row, id) keys.
        keys = np.sort(np.repeat(np.arange(n, dtype=np.int64), nnz)
                       * self.d + ids)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows, ids = np.divmod(keys, self.d)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        margins = np.add.reduceat(s.true_weights[ids], indptr[:-1]) + s.bias
        p_pos = 1.0 / (1.0 + np.exp(-np.clip(margins, -500, 500)))
        labels = np.where(rng.random(n) < p_pos, 1, -1)
        if s.label_noise > 0:
            flip = rng.random(n) < s.label_noise
            labels[flip] = -labels[flip]
        return SparseBatch(indptr, ids, np.ones(ids.size), labels)


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per (workload seed, purpose)."""
    tag = int.from_bytes(purpose.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def make_requests(n: int, key_space: int, examples: SparseBatch,
                  seed: int) -> list:
    """``n`` read requests in the ``build_requests`` mix."""
    rows = list(examples)
    return build_requests(n, key_space=key_space, examples=rows, seed=seed)


def poisson_schedule(n: int, rate: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the start) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))
