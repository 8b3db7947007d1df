"""Instruction-side cache hierarchy (L1I → L2 → LLC → memory).

Only the instruction stream flows through this model; the replacement
experiments never touch data accesses, and modeling the shared L2/LLC as
instruction-only is conservative and uniform across policies.  The hierarchy
reports the paper's Fig. 3 metric, L2 instruction MPKI (instruction lines
that miss in both L1I and L2, per kilo-instruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.btb.replacement.base import RELEASED, new_grid, release_grids
from repro.frontend.params import FrontendParams

__all__ = ["CacheModel", "InstructionHierarchy"]


class CacheModel:
    """A set-associative cache of line addresses with LRU replacement."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64):
        if size_bytes < ways * line_bytes:
            raise ValueError("cache smaller than one set")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        # Per-set list of line numbers in MRU→LRU order (empty rows from
        # the storage free list; see :meth:`release`).
        self._sets: List[List[int]] = new_grid(self.num_sets, 0, None)
        self.accesses = 0
        self.misses = 0

    def release(self) -> None:
        """Empty the set rows and hand them to the storage free list
        (:func:`~repro.btb.replacement.base.release_grids`); only the
        cache's owner may call this, and any later access raises."""
        rows, self._sets = self._sets, RELEASED
        for row in rows:
            row.clear()
        release_grids(rows)

    def access_line(self, line: int) -> bool:
        """Access a line number; returns True on hit, filling on miss."""
        self.accesses += 1
        s = self._sets[line % self.num_sets]
        try:
            s.remove(line)
        except ValueError:
            self.misses += 1
            if len(s) >= self.ways:
                s.pop()
            s.insert(0, line)
            return False
        s.insert(0, line)
        return True

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class _Latencies:
    l2: float
    llc: float
    memory: float


class InstructionHierarchy:
    """Three-level instruction cache stack returning per-line fill latency."""

    def __init__(self, params: FrontendParams, perfect: bool = False):
        self.params = params
        self.perfect = perfect
        self.l1i = CacheModel(params.l1i_bytes, params.l1i_ways,
                              params.line_bytes)
        self.l2 = CacheModel(params.l2_bytes, params.l2_ways,
                             params.line_bytes)
        self.llc = CacheModel(params.llc_bytes, params.llc_ways,
                              params.line_bytes)
        self._lat = _Latencies(params.l2_latency, params.llc_latency,
                               params.memory_latency)
        self._line_shift = params.line_bytes.bit_length() - 1

    def release(self) -> None:
        """:meth:`CacheModel.release` for every level."""
        for level in (self.l1i, self.l2, self.llc):
            level.release()

    def fetch_line_latency(self, address: int) -> float:
        """Latency (beyond the pipelined L1I hit) to fetch the line holding
        ``address``; 0 when it hits in L1I or the hierarchy is perfect."""
        if self.perfect:
            return 0.0
        line = address >> self._line_shift
        if self.l1i.access_line(line):
            return 0.0
        if self.l2.access_line(line):
            return self._lat.l2
        if self.llc.access_line(line):
            return self._lat.llc
        return self._lat.memory

    def fetch_block_latency(self, start: int, n_instructions: int,
                            instruction_bytes: int = 4) -> float:
        """Total fill latency for a basic block's lines (critical path:
        lines fetch sequentially on the demand path)."""
        if self.perfect:
            return 0.0
        end = start + n_instructions * instruction_bytes
        first_line = start >> self._line_shift
        last_line = (end - 1) >> self._line_shift
        total = 0.0
        for line in range(first_line, last_line + 1):
            total += self.fetch_line_latency(line << self._line_shift)
        return total

    def l2_instruction_mpki(self, num_instructions: int) -> float:
        """Fig. 3's metric: instruction lines missing both L1I and L2, per
        kilo-instruction."""
        if num_instructions <= 0:
            return 0.0
        return 1000.0 * self.l2.misses / num_instructions
