"""Core branch-trace data model.

A trace is the dynamic stream of *branch* instructions executed by a program,
in program order, as Intel PT would deliver it (§3.1 of the paper).  Each
record carries the branch pc, its kind, whether it was taken, its (resolved)
target, and the number of instructions in the basic block it terminates.

:class:`BranchTrace` stores the stream as parallel numpy arrays so that
multi-hundred-thousand-record traces stay cheap to hold and slice, while
iteration yields plain :class:`BranchRecord` tuples for readability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["BranchKind", "BranchRecord", "BranchTrace", "INSTRUCTION_BYTES"]

#: Architectural instruction size used when laying out code addresses.  A
#: fixed 4-byte encoding (as on AArch64) keeps address arithmetic simple and
#: matches how the synthetic workloads assign pcs.
INSTRUCTION_BYTES = 4


class BranchKind(enum.IntEnum):
    """Branch instruction categories.

    The distinction matters in three places: only conditional branches train
    the direction predictor, indirect branches consult the IBTB, and
    calls/returns interact with the return address stack.
    """

    COND_DIRECT = 0
    UNCOND_DIRECT = 1
    CALL_DIRECT = 2
    RETURN = 3
    UNCOND_INDIRECT = 4
    CALL_INDIRECT = 5

    @property
    def is_conditional(self) -> bool:
        return self is BranchKind.COND_DIRECT

    @property
    def is_indirect(self) -> bool:
        return self in (BranchKind.UNCOND_INDIRECT, BranchKind.CALL_INDIRECT,
                        BranchKind.RETURN)

    @property
    def is_call(self) -> bool:
        return self in (BranchKind.CALL_DIRECT, BranchKind.CALL_INDIRECT)

    @property
    def is_return(self) -> bool:
        return self is BranchKind.RETURN

    @property
    def is_unconditional(self) -> bool:
        return self is not BranchKind.COND_DIRECT


class BranchRecord(NamedTuple):
    """One dynamically executed branch instruction."""

    pc: int
    target: int
    kind: BranchKind
    taken: bool
    #: Number of instructions in the basic block this branch terminates,
    #: including the branch itself.  Summing ``ilen`` over the trace yields
    #: the dynamic instruction count.
    ilen: int

    @property
    def fallthrough(self) -> int:
        """Address of the instruction following this branch."""
        return self.pc + INSTRUCTION_BYTES


@dataclass
class BranchTrace:
    """A dynamic branch stream backed by parallel numpy arrays.

    Invariants (checked by :meth:`validate`):

    * all arrays share one length;
    * unconditional branches are always taken;
    * ``ilen`` is at least 1 everywhere;
    * pcs and targets are non-negative.
    """

    pcs: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    taken: np.ndarray
    ilens: np.ndarray
    name: str = "trace"
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[BranchRecord],
                     name: str = "trace") -> "BranchTrace":
        """Build a trace from an iterable of :class:`BranchRecord`."""
        records = list(records)
        pcs = np.fromiter((r.pc for r in records), dtype=np.int64,
                          count=len(records))
        targets = np.fromiter((r.target for r in records), dtype=np.int64,
                              count=len(records))
        kinds = np.fromiter((int(r.kind) for r in records), dtype=np.uint8,
                            count=len(records))
        taken = np.fromiter((r.taken for r in records), dtype=np.bool_,
                            count=len(records))
        ilens = np.fromiter((r.ilen for r in records), dtype=np.int32,
                            count=len(records))
        return cls(pcs=pcs, targets=targets, kinds=kinds, taken=taken,
                   ilens=ilens, name=name)

    @classmethod
    def empty(cls, name: str = "trace") -> "BranchTrace":
        return cls(pcs=np.empty(0, np.int64), targets=np.empty(0, np.int64),
                   kinds=np.empty(0, np.uint8), taken=np.empty(0, np.bool_),
                   ilens=np.empty(0, np.int32), name=name)

    def __post_init__(self) -> None:
        self.pcs = np.asarray(self.pcs, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        self.kinds = np.asarray(self.kinds, dtype=np.uint8)
        self.taken = np.asarray(self.taken, dtype=np.bool_)
        self.ilens = np.asarray(self.ilens, dtype=np.int32)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[BranchRecord]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BranchTrace(
                pcs=self.pcs[index], targets=self.targets[index],
                kinds=self.kinds[index], taken=self.taken[index],
                ilens=self.ilens[index], name=self.name,
                metadata=dict(self.metadata))
        i = int(index)
        return BranchRecord(
            pc=int(self.pcs[i]), target=int(self.targets[i]),
            kind=BranchKind(int(self.kinds[i])), taken=bool(self.taken[i]),
            ilen=int(self.ilens[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchTrace):
            return NotImplemented
        return (np.array_equal(self.pcs, other.pcs)
                and np.array_equal(self.targets, other.targets)
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.taken, other.taken)
                and np.array_equal(self.ilens, other.ilens))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def num_instructions(self) -> int:
        """Total dynamic instruction count represented by the trace."""
        return int(self.ilens.sum())

    def taken_view(self) -> "BranchTrace":
        """The sub-stream of taken branches — the BTB access stream.

        Only taken branches require a BTB-supplied target (§2 of the paper),
        so every BTB policy in this library consumes the taken view.
        """
        mask = self.taken
        return BranchTrace(
            pcs=self.pcs[mask], targets=self.targets[mask],
            kinds=self.kinds[mask], taken=self.taken[mask],
            ilens=self.ilens[mask], name=self.name,
            metadata=dict(self.metadata))

    def unique_pcs(self) -> np.ndarray:
        return np.unique(self.pcs)

    def unique_taken_pcs(self) -> np.ndarray:
        return np.unique(self.pcs[self.taken])

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(traces: Sequence["BranchTrace"],
                    name: str = "concat") -> "BranchTrace":
        if not traces:
            return BranchTrace.empty(name)
        return BranchTrace(
            pcs=np.concatenate([t.pcs for t in traces]),
            targets=np.concatenate([t.targets for t in traces]),
            kinds=np.concatenate([t.kinds for t in traces]),
            taken=np.concatenate([t.taken for t in traces]),
            ilens=np.concatenate([t.ilens for t in traces]),
            name=name)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if any trace invariant is violated."""
        n = len(self.pcs)
        for label, arr in (("targets", self.targets), ("kinds", self.kinds),
                           ("taken", self.taken), ("ilens", self.ilens)):
            if len(arr) != n:
                raise ValueError(
                    f"array length mismatch: pcs has {n} records, "
                    f"{label} has {len(arr)}")
        if n == 0:
            return
        if (self.ilens < 1).any():
            raise ValueError("ilen must be >= 1 for every record")
        if (self.pcs < 0).any() or (self.targets < 0).any():
            raise ValueError("pcs and targets must be non-negative")
        if self.kinds.max(initial=0) > max(BranchKind):
            raise ValueError("unknown branch kind value in trace")
        uncond = self.kinds != int(BranchKind.COND_DIRECT)
        if (~self.taken[uncond]).any():
            raise ValueError("unconditional branches must be taken")

    def __repr__(self) -> str:
        return (f"BranchTrace(name={self.name!r}, records={len(self)}, "
                f"instructions={self.num_instructions})")
