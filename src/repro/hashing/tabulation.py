"""Vectorized tabulation hashing.

Tabulation hashing (Zobrist hashing) splits a w-bit key into bytes and
XORs together per-byte lookup tables of random 64-bit values.  It is
exactly 3-wise independent, and Appendix B of the paper notes that this
suffices in practice for the WM-Sketch despite the analysis nominally
requiring O(log(d/delta))-wise independence.

The vectorized evaluation gathers all per-byte table entries with one
fancy-indexing operation and no per-key Python work.
"""

from __future__ import annotations

import numpy as np


class TabulationHash:
    """A single tabulation hash function over integer keys.

    Parameters
    ----------
    seed:
        Seed (or :class:`numpy.random.SeedSequence`) for drawing the random
        byte tables.  Two instances with the same seed compute identical
        hash functions.
    key_bits:
        Number of key bits to consume (32 or 64).  Feature identifiers in
        this package are at most 2**63 - 1, so 64 covers everything; 32
        halves the table memory when ids are known to be small.
    """

    def __init__(
        self,
        seed: int | np.random.SeedSequence = 0,
        key_bits: int = 64,
    ):
        if key_bits not in (32, 64):
            raise ValueError(f"key_bits must be 32 or 64, got {key_bits}")
        self.key_bits = key_bits
        self.n_bytes = key_bits // 8
        if isinstance(seed, np.random.SeedSequence):
            seq = seed
        else:
            seq = np.random.SeedSequence(seed)
        self.seed_sequence = seq
        rng = np.random.Generator(np.random.PCG64(seq))
        # One 256-entry table of random 64-bit words per key byte.
        self._tables = rng.integers(
            0, 2**64, size=(self.n_bytes, 256), dtype=np.uint64
        )
        # Flattened layout for the single-gather fast path: byte b of a
        # key indexes ``_flat[256 * b + byte]``.
        self._flat = self._tables.ravel()
        self._offsets = (np.arange(self.n_bytes, dtype=np.intp) * 256).reshape(
            1, -1
        )
        # Pure-Python table copy for the scalar fast path (plain list
        # indexing beats NumPy scalar indexing by ~5x for single keys).
        self._tables_py = [row.tolist() for row in self._tables]

    # ------------------------------------------------------------------
    # Pickling: the function is fully determined by (seed, key_bits), so
    # snapshots carry the seed and rebuild the byte tables on load — a
    # few hundred bytes on the wire instead of the 8 KB+ of tables, and
    # trivially spawn-safe for worker processes.  Older pickles also
    # carry a ``backend`` key, which is ignored.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"seed": self.seed_sequence, "key_bits": self.key_bits}

    def __setstate__(self, state: dict) -> None:
        self.__init__(seed=state["seed"], key_bits=state["key_bits"])

    def hash_one(self, key: int) -> int:
        """Scalar fast path: hash a single non-negative integer key.

        Equivalent to ``int(self.hash(np.uint64(key))[()])`` but avoids
        all NumPy per-call overhead; used by the 1-sparse update paths.
        """
        out = 0
        k = int(key)
        for table in self._tables_py:
            out ^= table[k & 0xFF]
            k >>= 8
        return out

    def hash(self, keys: np.ndarray | int) -> np.ndarray:
        """Hash keys to uniform 64-bit values.

        Parameters
        ----------
        keys:
            Integer scalar or array of non-negative keys.

        Returns
        -------
        numpy.ndarray
            ``uint64`` array of the same shape as ``keys``.
        """
        k = np.asarray(keys, dtype=np.uint64)
        shape = k.shape
        flat = np.ascontiguousarray(k).reshape(-1)
        if np.little_endian:
            # Reinterpret each 8-byte key as its byte decomposition
            # (little-endian: byte b == (key >> 8b) & 0xFF), then gather
            # all per-byte table entries in a single fancy-index and
            # XOR-reduce — O(1) NumPy calls independent of n_bytes.
            key_bytes = flat.view(np.uint8).reshape(-1, 8)[:, : self.n_bytes]
        else:  # pragma: no cover - big-endian fallback
            shifts = (8 * np.arange(self.n_bytes, dtype=np.uint64)).reshape(
                1, -1
            )
            key_bytes = (
                (flat.reshape(-1, 1) >> shifts) & np.uint64(0xFF)
            ).astype(np.uint8)
        idx = key_bytes.astype(np.intp) + self._offsets
        out = np.bitwise_xor.reduce(self._flat[idx], axis=1)
        return out.reshape(shape)

    def bucket(self, keys: np.ndarray | int, n_buckets: int) -> np.ndarray:
        """Hash keys into ``[0, n_buckets)``.

        Uses a bitmask when ``n_buckets`` is a power of two (all sketch
        widths in the paper's experiments are), and a modulo otherwise.
        """
        h = self.hash(keys)
        if n_buckets & (n_buckets - 1) == 0:
            return (h & np.uint64(n_buckets - 1)).astype(np.int64)
        return (h % np.uint64(n_buckets)).astype(np.int64)

    def sign(self, keys: np.ndarray | int) -> np.ndarray:
        """Hash keys to random signs in {-1.0, +1.0}.

        Uses the top bit of the 64-bit hash, which is independent of the
        low bits used by :meth:`bucket` only in the 3-wise tabulation
        sense; sketches that need jointly independent (bucket, sign) pairs
        should use two differently-seeded instances (see
        :class:`repro.hashing.family.HashFamily`).
        """
        h = self.hash(keys)
        bit = (h >> np.uint64(63)).astype(np.int64)
        return (2 * bit - 1).astype(np.float64)
