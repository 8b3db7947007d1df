"""Tree-based Pseudo-LRU — what shipping hardware actually implements.

True LRU needs ``log2(ways!)`` bits per set; hardware BTBs use a binary
decision tree with one bit per internal node (``ways - 1`` bits).  On an
access, the bits along the path to the touched way are flipped to point
*away* from it; the victim is found by following the bits.  PLRU
approximates LRU closely at low cost and is included both as a realistic
baseline and as the recency fallback in hardware-oriented ablations.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["TreePLRUPolicy"]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU over a power-of-two number of ways."""

    name = "plru"

    def bind(self, num_sets: int, num_ways: int) -> None:
        if not _is_power_of_two(num_ways):
            raise ValueError(
                f"tree PLRU requires a power-of-two way count, got "
                f"{num_ways}")
        super().bind(num_sets, num_ways)

    def _allocate(self) -> None:
        # ways - 1 internal nodes per set, stored heap-style: node 0 is the
        # root; children of node i are 2i+1 and 2i+2.  A bit value of 0
        # points left, 1 points right; the victim path follows the bits.
        self._bits: List[List[int]] = self._grid(0, self.num_ways - 1)

    # ------------------------------------------------------------------
    def _touch(self, set_idx: int, way: int) -> None:
        """Flip the path bits to point away from ``way``."""
        bits = self._bits[set_idx]
        node = 0
        # Walk from the root to the leaf; at each level decide by the
        # corresponding bit of the way index (MSB first).
        span = self.num_ways
        low = 0
        while span > 1:
            half = span // 2
            go_right = way >= low + half
            bits[node] = 0 if go_right else 1     # point away
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low += half
            span = half

    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._touch(set_idx, way)

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._touch(set_idx, way)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        bits = self._bits[set_idx]
        node = 0
        low = 0
        span = self.num_ways
        while span > 1:
            half = span // 2
            go_right = bits[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low += half
            span = half
        return low

    # ------------------------------------------------------------------
    @property
    def state_bits_per_set(self) -> int:
        """Hardware cost: one bit per internal tree node."""
        return self.num_ways - 1
