"""Partial-tag (compressed) BTB — the §5 related-work storage trade.

Real BTBs rarely store full tags: a partial tag shrinks every entry, buying
more entries for the same budget, at the cost of *aliasing* — two branches
whose partial tags collide in a set are indistinguishable, so a lookup can
return a **false hit** with the wrong target.  The frontend fetches down
the wrong path and pays an execute-time redirect, exactly like a wrong
indirect target.

The paper lists BTB compression as orthogonal to Thermometer ("can be
combined ... to further improve storage efficiency"); this module makes
that claim testable: :class:`PartialTagBTB` works with every replacement
policy, and :func:`iso_storage_compressed_config` computes how many extra
entries a tag width buys under the
:class:`~repro.btb.storage.BTBEntryLayout` budget model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.btb.btb import BTB
from repro.btb.config import BTBConfig
from repro.btb.replacement.base import ReplacementPolicy
from repro.btb.storage import BTBEntryLayout, DEFAULT_ENTRY_LAYOUT

__all__ = ["PartialTagBTB", "iso_storage_compressed_config"]


class PartialTagBTB(BTB):
    """A BTB whose tags are hashed down to ``tag_bits`` bits.

    The model stores the full pc internally (the policy hooks and analysis
    still see true identities) but *matches* on the partial tag, so false
    hits occur exactly as in hardware.  :attr:`false_hits` counts them and
    :attr:`last_hit_was_false` flags the most recent access — the frontend
    simulator charges a wrong-path redirect when it is set.
    """

    def __init__(self, config: BTBConfig,
                 policy: Optional[ReplacementPolicy] = None,
                 tag_bits: int = 12):
        if tag_bits < 1:
            raise ValueError("tag_bits must be >= 1")
        super().__init__(config, policy)
        self.tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self.false_hits = 0
        self.last_hit_was_false = False

    # ------------------------------------------------------------------
    def partial_tag(self, pc: int) -> int:
        """Hash the pc's upper bits (the set index consumes the low ones)."""
        word = pc >> 2
        folded = word // max(1, self.config.num_sets)
        return (folded ^ (folded >> self.tag_bits)) & self._tag_mask

    def access(self, pc: int, target: int = 0, index: int = 0) -> bool:
        cfg = self.config
        s = cfg.set_index(pc)
        tags_row = self._tags[s]
        self.stats.accesses += 1
        self.last_hit_was_false = False
        wanted = self.partial_tag(pc)
        for way, stored in enumerate(tags_row):
            if stored == _INVALID_PC:
                continue
            if cfg.set_index(stored) == s and \
                    self.partial_tag(stored) == wanted:
                self.stats.hits += 1
                if stored != pc:
                    # Aliased entry: the hardware believes it hit, serves
                    # the wrong target, and re-learns this branch's target
                    # into the aliased entry (tag unchanged — they are
                    # indistinguishable).  The pc → way directory tracks
                    # the true identity takeover.
                    self.false_hits += 1
                    self.last_hit_was_false = True
                    tags_row[way] = pc
                    directory = self._dir[s]
                    del directory[stored]
                    directory[pc] = way
                elif self._targets[s][way] != target:
                    self.stats.target_mismatches += 1
                self._reused[s][way] = True
                self._targets[s][way] = target
                self.policy.on_hit(s, way, pc, index)
                if self._observers:
                    for observer in self._observers:
                        observer.on_hit(self, s, way, pc, target, index)
                return True
        self.stats.misses += 1
        self._insert(s, pc, target, index)
        return False

    @property
    def false_hit_rate(self) -> float:
        """False hits as a fraction of all reported hits."""
        if self.stats.hits == 0:
            return 0.0
        return self.false_hits / self.stats.hits


_INVALID_PC = -1


def iso_storage_compressed_config(
        baseline: BTBConfig,
        tag_bits: int,
        layout: BTBEntryLayout = DEFAULT_ENTRY_LAYOUT,
        hint_bits: int = 0) -> BTBConfig:
    """The geometry affordable at ``baseline``'s storage budget when tags
    shrink to ``tag_bits`` (and optionally ``hint_bits`` are added).

    E.g. the default 75-bit entry with a 16→12-bit tag fits ~6% more
    entries in the same budget.
    """
    if tag_bits < 1:
        raise ValueError("tag_bits must be >= 1")
    budget = baseline.entries * layout.bits
    compressed = BTBEntryLayout(
        tag_bits=tag_bits, target_bits=layout.target_bits,
        branch_type_bits=layout.branch_type_bits,
        replacement_bits=layout.replacement_bits,
        hint_bits=layout.hint_bits + hint_bits)
    entries = budget // compressed.bits
    entries = max(baseline.ways,
                  (entries // baseline.ways) * baseline.ways)
    return replace(baseline, entries=entries)
