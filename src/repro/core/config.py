"""Memory-budget cost model and configuration enumeration.

Section 7.1's cost model charges **4 bytes** per feature identifier,
feature weight, or auxiliary value.  Under it:

=======================  =========================================
Method                   Cells used
=======================  =========================================
WM-Sketch                width * depth + 2 * |S|   (heap id+weight)
AWM-Sketch               width * depth + 2 * |S|
Feature hashing          width
Simple Truncation        2 * K                      (id + weight)
Probabilistic Trunc.     3 * K                      (+ reservoir key)
Space Saving Frequent    3 * K                      (+ count)
Count-Min Frequent       width * depth + 3 * K
Uncompressed LR          d + 2 * 128                (dense + heap)
=======================  =========================================

For each byte budget the paper evaluates "a range of configurations
compatible with that space constraint" and reports the best; the
``enumerate_*`` functions below generate exactly those search spaces
(widths restricted to powers of two, as in Table 2), and
``default_awm_config`` implements the configuration the paper found
uniformly best for classification: half the budget to the active set,
the rest to a depth-1 sketch (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.learning.base import CELL_BYTES

#: The memory budgets evaluated throughout Section 7, in bytes.
PAPER_BUDGETS_KB = (2, 4, 8, 16, 32)


def budget_cells(budget_bytes: int) -> int:
    """Number of 4-byte cells available within ``budget_bytes``."""
    if budget_bytes < CELL_BYTES:
        raise ValueError(f"budget {budget_bytes}B is below one cell")
    return budget_bytes // CELL_BYTES


def _powers_of_two(max_value: int, min_value: int = 1) -> list[int]:
    """All powers of two in [min_value, max_value]."""
    out = []
    p = 1
    while p <= max_value:
        if p >= min_value:
            out.append(p)
        p *= 2
    return out


@dataclass(frozen=True)
class SketchConfig:
    """A (heap, width, depth) configuration for WM/AWM sketches."""

    heap_capacity: int
    width: int
    depth: int

    @property
    def cells(self) -> int:
        """Total cells consumed under the cost model."""
        return self.width * self.depth + 2 * self.heap_capacity

    @property
    def bytes(self) -> int:
        """Total bytes consumed under the cost model."""
        return CELL_BYTES * self.cells

    def fits(self, budget_bytes: int) -> bool:
        """Whether this configuration fits in ``budget_bytes``."""
        return self.bytes <= budget_bytes


def enumerate_sketch_configs(
    budget_bytes: int,
    min_heap: int = 64,
    min_width: int = 64,
    max_depth: int = 32,
) -> list[SketchConfig]:
    """All power-of-two (heap, width) x depth configs within a budget.

    Mirrors the paper's per-budget configuration sweep: heap capacities
    and widths over powers of two, depth filling the remaining cells up
    to ``max_depth``.
    """
    cells = budget_cells(budget_bytes)
    configs = []
    for heap in _powers_of_two(cells // 2, min_heap):
        remaining = cells - 2 * heap
        if remaining < min_width:
            continue
        for width in _powers_of_two(remaining, min_width):
            depth = min(remaining // width, max_depth)
            if depth < 1:
                continue
            configs.append(SketchConfig(heap, width, depth))
    return configs


def default_awm_config(budget_bytes: int) -> SketchConfig:
    """The paper's uniformly-best AWM layout: half the budget to the
    active set, the remainder to a depth-1 sketch (Section 7.3).

    Heap capacity and width are rounded down to powers of two (matching
    Table 2's AWM rows, e.g. 8 KB -> |S|=512, width=1024, depth=1).
    """
    cells = budget_cells(budget_bytes)
    heap = _largest_power_of_two(cells // 4)
    width = _largest_power_of_two(cells - 2 * heap)
    return SketchConfig(heap_capacity=heap, width=width, depth=1)


def default_wm_config(budget_bytes: int, depth_hint: int = 4) -> SketchConfig:
    """A WM layout in the spirit of Table 2's WM rows: a small fixed heap
    (|S| = 128) with the remaining cells split width x depth, width a
    power of two near 128-256 and depth growing with the budget."""
    cells = budget_cells(budget_bytes)
    heap = min(128, _largest_power_of_two(max(cells // 4, 1)))
    remaining = cells - 2 * heap
    if remaining < 2:
        raise ValueError(f"budget {budget_bytes}B too small for a WM sketch")
    width = min(256, _largest_power_of_two(remaining))
    depth = max(1, min(remaining // width, 32))
    return SketchConfig(heap_capacity=heap, width=width, depth=depth)


def _largest_power_of_two(n: int) -> int:
    if n < 1:
        raise ValueError(f"no power of two <= {n}")
    return 1 << (n.bit_length() - 1)


# ----------------------------------------------------------------------
# Baseline capacity calculators (cells -> per-method sizes)
# ----------------------------------------------------------------------
def truncation_capacity(budget_bytes: int) -> int:
    """Simple Truncation slots: 2 cells (id + weight) each."""
    return max(1, budget_cells(budget_bytes) // 2)

def probabilistic_truncation_capacity(budget_bytes: int) -> int:
    """Probabilistic Truncation slots: 3 cells (id + weight + key) each."""
    return max(1, budget_cells(budget_bytes) // 3)


def space_saving_capacity(budget_bytes: int) -> int:
    """Space Saving Frequent slots: 3 cells (id + count + weight) each."""
    return max(1, budget_cells(budget_bytes) // 3)


def feature_hashing_width(budget_bytes: int, power_of_two: bool = True) -> int:
    """Feature hashing table size: every cell is a weight."""
    cells = budget_cells(budget_bytes)
    return _largest_power_of_two(cells) if power_of_two else cells


def count_min_frequent_sizes(
    budget_bytes: int, heap_fraction: float = 0.25, depth: int = 2
) -> tuple[int, int, int]:
    """(heap_capacity, width, depth) for Count-Min Frequent.

    ``heap_fraction`` of the cells go to the 3-cell heap slots; the rest
    form the CM table (width a power of two).
    """
    cells = budget_cells(budget_bytes)
    heap = max(1, int(cells * heap_fraction) // 3)
    remaining = cells - 3 * heap
    width = _largest_power_of_two(max(remaining // depth, 1))
    return heap, width, depth
