"""Array-backed top-K store for tracking the heaviest items.

Both the WM-Sketch (passively) and the AWM-Sketch (as its active set)
track the K heaviest model weights alongside the sketch, exactly as
heavy-hitters sketches pair a Count-Sketch with a heap of the most
frequent items (Charikar et al. 2002).
:class:`~repro.heap.topk.TopKStore` keeps the bounded map in contiguous
NumPy slot arrays — O(1) insert / update / evict against a lazily
tracked minimum, vectorized membership masks and batched admission
screens for the mini-batch kernels, and a uniform *scale* factor so the
lazy L2-regularization trick (Section 5.1) applies to stored entries in
O(1).  The original indexed binary min-heap survives as
:class:`~repro.heap.reference.ReferenceTopKHeap`, the executable
specification the store is fuzzed against.
"""

from repro.heap.reference import ReferenceTopKHeap
from repro.heap.topk import BatchSlotCache, TopKStore, identity, negate

__all__ = [
    "TopKStore",
    "ReferenceTopKHeap",
    "BatchSlotCache",
    "identity",
    "negate",
]
