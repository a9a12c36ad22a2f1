"""k-wise independent polynomial hashing over a Mersenne prime.

Carter & Wegman (1977) universal hashing: a degree-(k-1) polynomial with
random coefficients over GF(p), p = 2**61 - 1, is exactly k-wise
independent.  The theoretical analysis of the WM-Sketch assumes
O(log(d/delta))-wise independence; this class provides it for users who
want the guarantees verbatim (the default tabulation hash trades that for
speed, per Appendix B).

Evaluation is exact: the vectorized path runs Horner's rule over an
``object``-dtype array of Python ints, one NumPy pass per coefficient
(the degree is small), and the scalar path runs the same reduction
steps on plain ints.  There is no fixed-width (e.g. 128-bit limb) path.
"""

from __future__ import annotations

import numpy as np

MERSENNE_61 = (1 << 61) - 1


def _mod_mersenne61(x: np.ndarray) -> np.ndarray:
    """Reduce object-dtype integers modulo 2**61 - 1 (fast Mersenne trick)."""
    x = (x & MERSENNE_61) + (x >> 61)
    return np.where(x >= MERSENNE_61, x - MERSENNE_61, x)


def _mod_mersenne61_int(x: int) -> int:
    """Scalar (exact Python-int) twin of :func:`_mod_mersenne61`.

    Must perform the *same* reduction steps so scalar and vectorized
    evaluations of one polynomial agree bit-for-bit.
    """
    x = (x & MERSENNE_61) + (x >> 61)
    return x - MERSENNE_61 if x >= MERSENNE_61 else x


class PolynomialHash:
    """A k-wise independent hash function family member.

    Parameters
    ----------
    independence:
        The k in k-wise independence; the polynomial has this many random
        coefficients.  Must be >= 2.
    seed:
        Seed for drawing the coefficients.
    """

    def __init__(
        self,
        independence: int = 4,
        seed: int | np.random.SeedSequence = 0,
    ):
        if independence < 2:
            raise ValueError(f"independence must be >= 2, got {independence}")
        self.independence = independence
        if isinstance(seed, np.random.SeedSequence):
            seq = seed
        else:
            seq = np.random.SeedSequence(seed)
        self.seed_sequence = seq
        rng = np.random.Generator(np.random.PCG64(seq))
        coeffs = rng.integers(0, MERSENNE_61, size=independence, dtype=np.int64)
        # The leading coefficient must be nonzero for full independence.
        while coeffs[-1] == 0:
            coeffs[-1] = rng.integers(1, MERSENNE_61, dtype=np.int64)
        self._coeffs = [int(c) for c in coeffs]

    # ------------------------------------------------------------------
    # Pickling: fully determined by (independence, seed); the coefficient
    # draw (including the nonzero-leading-coefficient retry loop) is
    # deterministic given the seed sequence, so rebuilt instances compute
    # the identical polynomial.  Spawn-safe for worker processes.  Older
    # pickles also carry a ``backend`` key, which is ignored.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"independence": self.independence, "seed": self.seed_sequence}

    def __setstate__(self, state: dict) -> None:
        self.__init__(independence=state["independence"], seed=state["seed"])

    def hash(self, keys: np.ndarray | int) -> np.ndarray:
        """Hash keys to uniform values in ``[0, 2**61 - 1)``.

        Evaluates the random polynomial at each key by Horner's rule with
        exact arithmetic (object dtype), then reduces mod 2**61 - 1.
        """
        k = np.asarray(keys)
        if k.ndim == 0:
            # 0-d inputs must not take the array path: NumPy collapses
            # 0-d object results to int64 scalars mid-Horner, which
            # silently overflows and yields a *different* hash than the
            # vectorized evaluation of the same key.
            return np.asarray(self.hash_one(int(k)), dtype=object)
        x = _mod_mersenne61(np.asarray(k, dtype=np.uint64).astype(object))
        acc = np.full(k.shape, self._coeffs[-1], dtype=object)
        for c in reversed(self._coeffs[:-1]):
            acc = _mod_mersenne61(acc * x + c)
        return acc

    def hash_one(self, key: int) -> int:
        """Scalar fast path; bit-identical to the vectorized :meth:`hash`."""
        x = _mod_mersenne61_int(int(key))
        acc = self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = _mod_mersenne61_int(acc * x + c)
        return acc

    def bucket(self, keys: np.ndarray | int, n_buckets: int) -> np.ndarray:
        """Hash keys into ``[0, n_buckets)``."""
        return (self.hash(keys) % n_buckets).astype(np.int64)

    def sign(self, keys: np.ndarray | int) -> np.ndarray:
        """Hash keys to signs in {-1.0, +1.0} using the hash parity."""
        bit = (self.hash(keys) & 1).astype(np.int64)
        return (2 * bit - 1).astype(np.float64)
