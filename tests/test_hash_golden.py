"""Golden digests of every bucket and sign bit the hash families emit.

A checkpoint or pickle stores a hash family as its seed, never as its
tables, so a restored model answers correctly only while the same seed
keeps producing the same buckets and signs.  These digests pin that
mapping: the SHA-256 of the (bucket, sign) bytes both hash kinds
produce, at a power-of-two and a non-power-of-two width, depth 3 and
two seeds, over boundary keys plus 1,000 pseudo-random ones.  The
vectorized path (``HashFamily.all_rows``), the scalar one
(``bucket_sign_one``) and the ``hash_rows`` kernel of every available
backend (the numpy memo, cold and warm, and the compiled loop) must all
reproduce the recorded digest.

The digests were recorded with the code as of commit 5317a45.  A change
that moves any of them breaks every saved model; it is never a
refactor.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from conftest import c_backend_param

from repro import kernels
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily

#: Keys at the byte, 32-bit, Mersenne-prime and int64 boundaries.
BOUNDARY_KEYS = [0, 1, 255, 256, 2**32 - 1, 2**32, 2**61 - 2, 2**61 - 1,
                 2**62, 2**63 - 1]


def _splitmix64(seed: int, n: int) -> list[int]:
    """``n`` 63-bit keys from SplitMix64: plain integer arithmetic, so
    the key set never depends on a NumPy version."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) >> 1)
    return out


KEYS = np.array(BOUNDARY_KEYS + _splitmix64(20_240_611, 1_000),
                dtype=np.int64)

#: (kind, width, seed) -> SHA-256 of the buckets' little-endian int64
#: bytes followed by the signs' little-endian float64 bytes, both laid
#: out (depth, len(KEYS)).
GOLDEN = {
    ("tabulation", 1024, 0):
        "96ffbce25c7c2b9e7ba706e4a295b3e0cf7fa49f73b6f11fcecc20baf5a9560e",
    ("tabulation", 1024, 7):
        "46ea557d968be3e82004789520c72b48450782665531411371da867e13161d98",
    ("tabulation", 1000, 0):
        "b1b99ace8299e2cce6d72d0d63908976da794250675fc74def87e2b98b168830",
    ("tabulation", 1000, 7):
        "cd7846720ab1bc7e2230ab7031201acecd5d6ce8ff579bd1526c4f59959c90af",
    ("polynomial", 1024, 0):
        "dd44ca3ff7f4c537a1da1fffb0232dcb1b6c339b603dd342a4a18a6add84ed86",
    ("polynomial", 1024, 7):
        "29fd03c1889c2dab0e002b35379e1b9ee97ad72a7ec09dc00956014b159ecfe3",
    ("polynomial", 1000, 0):
        "3cf784c42f97a48fb60892afa7cc5ffd8ad4c161cc30ed68b984111d2667602a",
    ("polynomial", 1000, 7):
        "ee3cfcffcc2eaac53eb72a5768970df9ec6a653f023688ccc61c90b501ef0d42",
}


def _digest(buckets: np.ndarray, signs: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(buckets, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(signs, dtype="<f8").tobytes())
    return h.hexdigest()


def _scalar_rows(family: HashFamily) -> tuple[np.ndarray, np.ndarray]:
    buckets = np.empty((family.depth, KEYS.size), dtype=np.int64)
    signs = np.empty((family.depth, KEYS.size), dtype=np.float64)
    for row in range(family.depth):
        for i, key in enumerate(KEYS.tolist()):
            buckets[row, i], signs[row, i] = family.bucket_sign_one(key, row)
    return buckets, signs


@pytest.mark.parametrize("kind, width, seed", sorted(GOLDEN))
class TestGoldenDigests:
    def test_all_rows(self, kind, width, seed):
        family = HashFamily(width, 3, seed=seed, kind=kind)
        buckets, signs = family.all_rows(KEYS)
        assert _digest(buckets, signs) == GOLDEN[kind, width, seed]

    def test_bucket_sign_one(self, kind, width, seed):
        family = HashFamily(width, 3, seed=seed, kind=kind)
        assert _digest(*_scalar_rows(family)) == GOLDEN[kind, width, seed]

    @pytest.mark.parametrize("backend", ["numpy", c_backend_param()])
    def test_hash_rows_reproduces_digest(self, kind, width, seed, backend):
        kb = kernels.get_backend(backend)
        family = HashFamily(width, 3, seed=seed, kind=kind)
        hasher = BatchHasher(family, backend=kb)
        buckets = np.empty((3, KEYS.size), dtype=np.int64)
        signs = np.empty((3, KEYS.size), dtype=np.float64)
        for _ in range(2):  # a cold and a warm numpy memo
            kb.hash_rows(hasher, KEYS, buckets, signs)
            assert _digest(buckets, signs) == GOLDEN[kind, width, seed]
