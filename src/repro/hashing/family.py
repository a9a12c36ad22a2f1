"""Row-indexed hash families: the interface the sketches consume.

A Count-Sketch of depth ``s`` needs, for each row ``j``, a bucket hash
``h_j : [d] -> [width]`` and a sign hash ``sigma_j : [d] -> {-1, +1}``,
drawn independently across rows.  :class:`HashFamily` bundles ``s``
independently-seeded hash functions behind a two-method interface and is
shared by the Count-Sketch, Count-Min Sketch (signs unused), WM-Sketch,
AWM-Sketch and feature hashing.

For speed, each row evaluates a *single* underlying hash per key and
derives the bucket from the low bits and the sign from a high bit — the
classic implementation trick (one tabulation evaluation yields 64
uniform bits; disjoint bit ranges are independent for any fixed key and
inherit the family's 3-wise independence across keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.hashing.tabulation import TabulationHash
from repro.hashing.universal import PolynomialHash

#: Bit used for the sign when deriving it from the main hash value.
#: Tabulation hashes fill all 64 bits; polynomial hashes over the
#: Mersenne prime 2**61 - 1 only fill 61, so we use bit 45 which is
#: uniform for both.
_SIGN_BIT = 45


@dataclass
class SignedBuckets:
    """The (bucket, sign) pair for a batch of keys in one sketch row."""

    buckets: np.ndarray  # int64, values in [0, width)
    signs: np.ndarray  # float64, values in {-1.0, +1.0}


class HashFamily:
    """``depth`` independent (bucket, sign) hash pairs.

    Parameters
    ----------
    width:
        Number of buckets per row.
    depth:
        Number of rows (independent hashes).
    seed:
        Root seed; per-row hashes are derived via
        :class:`numpy.random.SeedSequence` spawning, so distinct rows are
        statistically independent and the whole family is reproducible.
    kind:
        ``"tabulation"`` (default; 3-wise independent, fast) or
        ``"polynomial"`` (k-wise independent, slower).
    independence:
        For ``kind="polynomial"``, the k in k-wise independence.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int = 0,
        kind: Literal["tabulation", "polynomial"] = "tabulation",
        independence: int = 4,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.kind = kind
        self.independence = independence
        root = np.random.SeedSequence(seed)
        children = root.spawn(depth)
        if kind == "tabulation":
            self._hashes = [TabulationHash(children[j]) for j in range(depth)]
        elif kind == "polynomial":
            self._hashes = [
                PolynomialHash(independence=independence, seed=children[j])
                for j in range(depth)
            ]
        else:
            raise ValueError(f"unknown hash kind: {kind!r}")
        self._pow2 = width & (width - 1) == 0

    # ------------------------------------------------------------------
    # Pickling: the whole family is derived deterministically from its
    # constructor parameters (per-row hashes come from SeedSequence
    # spawning of the root seed), so worker processes rebuild identical
    # hash functions from a ~100-byte payload.  Older pickles also carry
    # a ``backend`` key, which is ignored.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "kind": self.kind,
            "independence": self.independence,
        }

    def __setstate__(self, state: dict) -> None:
        state.pop("backend", None)
        self.__init__(**state)

    # ------------------------------------------------------------------
    # Single-evaluation core
    # ------------------------------------------------------------------
    def _raw(self, keys: np.ndarray | int, row: int) -> np.ndarray:
        h = self._hashes[row].hash(keys)
        return np.asarray(h, dtype=np.uint64)

    def _derive(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bucket, sign) pairs of raw hash values: the bucket from the
        low bits (a mask at a power-of-two width, else a modulo), the
        sign from bit ``_SIGN_BIT`` mapped to {-1.0, +1.0}."""
        flat = np.atleast_1d(h)
        if self._pow2:
            buckets = (flat & np.uint64(self.width - 1)).astype(np.int64)
        else:
            buckets = (flat % np.uint64(self.width)).astype(np.int64)
        bit = ((flat >> np.uint64(_SIGN_BIT)) & np.uint64(1)).astype(np.int64)
        signs = (2 * bit - 1).astype(np.float64)
        return buckets.reshape(h.shape), signs.reshape(h.shape)

    # ------------------------------------------------------------------
    # Scalar fast path
    # ------------------------------------------------------------------
    def bucket_sign_one(self, key: int, row: int) -> tuple[int, float]:
        """(bucket, sign) for a single key with no NumPy overhead.

        Both hash kinds provide a ``hash_one`` scalar evaluation that is
        bit-identical to their vectorized path (the scalar hot path of
        the 1-sparse applications depends on that agreement).
        """
        h = self._hashes[row]
        if hasattr(h, "hash_one"):
            raw = h.hash_one(key)
        else:
            raw = int(np.asarray(h.hash(key)))
        if self._pow2:
            bucket = raw & (self.width - 1)
        else:
            bucket = raw % self.width
        sign = 1.0 if (raw >> _SIGN_BIT) & 1 else -1.0
        return bucket, sign

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def buckets(self, keys: np.ndarray | int, row: int) -> np.ndarray:
        """Bucket indices in ``[0, width)`` for ``keys`` in ``row``."""
        return self._derive(self._raw(keys, row))[0]

    def signs(self, keys: np.ndarray | int, row: int) -> np.ndarray:
        """Random signs in {-1.0, +1.0} for ``keys`` in ``row``."""
        return self._derive(self._raw(keys, row))[1]

    def signed_buckets(self, keys: np.ndarray | int, row: int) -> SignedBuckets:
        """Both derived hashes for one row from a single evaluation."""
        buckets, signs = self._derive(self._raw(keys, row))
        return SignedBuckets(buckets, signs)

    def all_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Buckets and signs for every row at once.

        Returns
        -------
        (buckets, signs):
            Two arrays of shape ``(depth, len(keys))``.
        """
        keys = np.atleast_1d(np.asarray(keys))
        buckets = np.empty((self.depth, keys.size), dtype=np.int64)
        signs = np.empty((self.depth, keys.size), dtype=np.float64)
        for j in range(self.depth):
            buckets[j], signs[j] = self._derive(self._raw(keys, j))
        return buckets, signs
