"""Tests for k-wise independent polynomial hashing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.universal import MERSENNE_61, PolynomialHash, _mod_mersenne61


class TestModMersenne:
    def test_small_values_unchanged(self):
        x = np.array([0, 1, 2, MERSENNE_61 - 1], dtype=object)
        assert np.array_equal(_mod_mersenne61(x), x)

    def test_reduces_large_values(self):
        x = np.array([MERSENNE_61, MERSENNE_61 + 5, 2 * MERSENNE_61 + 3], dtype=object)
        out = _mod_mersenne61(x)
        expected = np.array([v % MERSENNE_61 for v in x.tolist()], dtype=object)
        assert np.array_equal(out, expected)

    def test_matches_python_mod_randomly(self):
        rng = np.random.default_rng(0)
        vals = [int(rng.integers(0, 2**62)) for _ in range(100)]
        x = np.array(vals, dtype=object)
        out = _mod_mersenne61(_mod_mersenne61(x))  # may need two rounds
        assert all(o == v % MERSENNE_61 for o, v in zip(out.tolist(), vals))


class TestPolynomialHash:
    def test_rejects_low_independence(self):
        with pytest.raises(ValueError):
            PolynomialHash(independence=1)

    def test_deterministic(self):
        keys = np.arange(100)
        a = PolynomialHash(independence=4, seed=3).hash(keys)
        b = PolynomialHash(independence=4, seed=3).hash(keys)
        assert np.array_equal(a, b)

    def test_range(self):
        h = PolynomialHash(independence=4, seed=1)
        out = h.hash(np.arange(1000))
        assert all(0 <= int(v) < MERSENNE_61 for v in out.tolist())

    def test_buckets_in_range(self):
        h = PolynomialHash(seed=2)
        buckets = h.bucket(np.arange(1000), 37)
        assert buckets.min() >= 0 and buckets.max() < 37

    def test_signs_pm_one(self):
        h = PolynomialHash(seed=4)
        signs = h.sign(np.arange(2000))
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        assert abs(signs.mean()) < 0.1

    def test_uniformity(self):
        h = PolynomialHash(independence=4, seed=5)
        buckets = h.bucket(np.arange(20_000), 16)
        counts = np.bincount(buckets, minlength=16)
        assert counts.min() > 0.85 * 20_000 / 16
        assert counts.max() < 1.15 * 20_000 / 16

    def test_pairwise_collision_rate(self):
        """Collision probability of pairs ~ 1/m for a universal family."""
        h = PolynomialHash(independence=2, seed=6)
        m = 128
        b = h.bucket(np.arange(3_000), m)
        # Compare consecutive pairs (independent enough for a smoke test).
        collisions = float(np.mean(b[:-1] == b[1:]))
        assert collisions < 3.0 / m


class TestScalarVectorAgreement:
    def test_hash_one_matches_vector_hash(self):
        """Regression: 0-d / scalar evaluation used to fall out of
        object dtype mid-Horner, overflow int64, and return a different
        hash than the vectorized path for the same key."""
        h = PolynomialHash(independence=4, seed=11)
        keys = np.array([0, 1, 42, 1234567, 2**40 + 3, 2**62], dtype=np.uint64)
        vector = h.hash(keys)
        for k, expected in zip(keys.tolist(), vector.tolist()):
            assert h.hash_one(int(k)) == int(expected)
            assert int(h.hash(int(k))) == int(expected)

    def test_family_bucket_sign_one_matches_all_rows(self):
        from repro.hashing.family import HashFamily

        fam = HashFamily(256, 3, seed=5, kind="polynomial")
        keys = np.array([7, 1234567, 2**55], dtype=np.int64)
        buckets, signs = fam.all_rows(keys)
        for j in range(3):
            for i, k in enumerate(keys.tolist()):
                b, s = fam.bucket_sign_one(int(k), j)
                assert b == buckets[j, i]
                assert s == signs[j, i]

    @pytest.mark.parametrize("kind", ["tabulation", "polynomial"])
    def test_bucket_sign_one_matches_all_rows_for_negative_and_extreme_keys(
        self, kind
    ):
        """Both paths read a key as a uint64: a negative key is its
        two's complement (the polynomial scalar path used to reduce the
        signed int)."""
        from repro.hashing.family import HashFamily

        fam = HashFamily(1000, 3, seed=3, kind=kind)
        keys = np.array([-1, -2, -3, -(2**61) - 1, -(2**63), -(2**63) + 1,
                         2**63 - 1, 0, 2**61 - 1, 2**61, 2**62],
                        dtype=np.int64)
        buckets, signs = fam.all_rows(keys)
        for j in range(3):
            for i, k in enumerate(keys.tolist()):
                assert fam.bucket_sign_one(k, j) == (buckets[j, i],
                                                     signs[j, i])

    def test_negative_key_regression(self):
        from repro.hashing.family import HashFamily

        fam = HashFamily(1000, 2, seed=3, kind="polynomial")
        assert fam.bucket_sign_one(-1, 0) == (159, -1.0)
        h = PolynomialHash(independence=4, seed=11)
        assert h.hash_one(-1) == h.hash_one(2**64 - 1)
        assert h.hash_one(-1) == int(h.hash(np.array([-1]))[0])

