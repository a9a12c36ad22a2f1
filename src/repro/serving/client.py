"""Client-side helpers: typed calls plus the read log the checker replays.

:class:`ServingClient` wraps a :class:`~repro.serving.server.SketchServer`
with convenience methods and, when ``record=True``, logs every read as
a :class:`ReadRecord` — ``(op, payload, result, snapshot version)``.
Those per-client logs are the observable history that
:func:`~repro.serving.checker.check_snapshot_consistency` validates
against a sequential re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample

__all__ = ["ReadRecord", "ServingClient"]


@dataclass
class ReadRecord:
    """One completed read, as the client observed it."""

    op: str
    payload: Any
    result: Any
    version: int


@dataclass
class ServingClient:
    """Issue reads against a server; optionally record them for checking.

    ``serial=True`` routes every read through the server's
    serial-scalar baseline instead of the coalescer — same API, same
    snapshot discipline, no batching.
    """

    server: Any
    record: bool = False
    serial: bool = False
    timeout: float = 30.0
    records: list[ReadRecord] = field(default_factory=list)

    def _call(self, op: str, payload):
        if self.serial:
            result, version = self.server.serial_request(op, payload)
        else:
            result, version = self.server.request(op, payload, self.timeout)
        if self.record:
            self.records.append(ReadRecord(op, payload, result, version))
        return result, version

    # ------------------------------------------------------------------
    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Margins for every row of ``batch``."""
        return self._call("predict", batch)[0]

    def predict(self, indices, values) -> float:
        """Margin for a single sparse example."""
        batch = SparseBatch.from_examples(
            [
                SparseExample(
                    np.asarray(indices, dtype=np.int64),
                    np.asarray(values, dtype=np.float64),
                    1,
                )
            ]
        )
        return float(self._call("predict", batch)[0][0])

    def query(self, keys) -> np.ndarray:
        """Estimated weights for ``keys`` (integers: a key of another
        dtype is rejected by the server's admission check, never
        truncated here)."""
        return self._call("query", np.atleast_1d(np.asarray(keys)))[0]

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """Top-k (feature, weight) pairs; ``k`` is passed as given."""
        return self._call("top_k", k)[0]
