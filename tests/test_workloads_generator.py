"""Unit tests for the synthetic workload generator."""

import dataclasses

import pytest

from repro.trace.record import BranchKind
from repro.workloads.generator import (LayoutParams, MixParams,
                                       SyntheticWorkload, WorkloadSpec)


def make_workload(**layout_kw):
    spec = WorkloadSpec(
        name="gen-test",
        layout=LayoutParams(n_hot_loops=8, hot_loop_branches=(4, 6),
                            n_warm_funcs=6, n_cold_branches=50,
                            **layout_kw),
        mix=MixParams(active_loops=4, core_loops=2, phase_len=500,
                      p_call=0.3, p_cold_burst=0.1, cold_burst_len=(3, 8)),
        default_length=3000)
    return SyntheticWorkload(spec)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        w = make_workload()
        assert w.generate(seed=7) == w.generate(seed=7)

    def test_different_seed_different_trace(self):
        w = make_workload()
        assert w.generate(seed=1) != w.generate(seed=2)

    def test_different_inputs_differ_dynamically(self):
        w = make_workload()
        assert w.generate(input_id=0) != w.generate(input_id=1)

    def test_layout_stable_across_instances(self):
        pcs_a = {b.pc for b in make_workload().static_branches}
        pcs_b = {b.pc for b in make_workload().static_branches}
        assert pcs_a == pcs_b


class TestTraceShape:
    def test_requested_length(self):
        trace = make_workload().generate(length=1234)
        assert len(trace) == 1234

    def test_zero_length(self):
        assert len(make_workload().generate(length=0)) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            make_workload().generate(length=-1)

    @pytest.mark.parametrize("field", ("block_len", "warm_func_branches",
                                       "hot_loop_branches"))
    def test_empty_draw_range_rejected(self, field):
        # Draws bypass randint's own check, which would raise here.
        spec = make_workload().spec
        spec = dataclasses.replace(spec, layout=dataclasses.replace(
            spec.layout, **{field: (5, 3)}))
        with pytest.raises(ValueError, match="empty range"):
            SyntheticWorkload(spec).generate(length=100)

    def test_trace_validates(self):
        make_workload().generate().validate()

    def test_metadata_recorded(self):
        trace = make_workload().generate(input_id=2, seed=5)
        assert trace.metadata["workload"] == "gen-test"
        assert trace.metadata["input_id"] == 2
        assert trace.metadata["seed"] == 5

    def test_contains_expected_kinds(self):
        trace = make_workload().generate(length=5000)
        kinds = {BranchKind(int(k)) for k in trace.kinds}
        assert BranchKind.COND_DIRECT in kinds
        assert BranchKind.UNCOND_DIRECT in kinds    # cold chain
        assert BranchKind.CALL_DIRECT in kinds
        assert BranchKind.RETURN in kinds


class TestStaticStructure:
    def test_static_pcs_unique(self):
        branches = make_workload().static_branches
        pcs = [b.pc for b in branches]
        assert len(pcs) == len(set(pcs))

    def test_dynamic_pcs_only_from_layout(self):
        w = make_workload()
        static = {b.pc for b in w.static_branches}
        trace = w.generate(length=4000)
        assert set(int(p) for p in trace.pcs) <= static

    def test_cross_input_pcs_shared(self):
        """Different inputs exercise the same binary (Fig. 13 premise)."""
        w = make_workload()
        pcs0 = set(int(p) for p in w.generate(input_id=0).pcs)
        pcs1 = set(int(p) for p in w.generate(input_id=1).pcs)
        overlap = len(pcs0 & pcs1) / max(1, len(pcs0 | pcs1))
        assert overlap > 0.5

    def test_trip_counts_descend_with_rank(self):
        w = make_workload()
        loops = w._lay.loops
        assert loops[0].trips[1] >= loops[-1].trips[1]
        assert loops[-1].trips == (1, 2)

    def test_indirect_branches_have_fanout(self):
        w = make_workload(indirect_loop_fraction=1.0)
        indirect = [b for b in w.static_branches
                    if b.kind is BranchKind.UNCOND_INDIRECT]
        assert indirect
        assert all(len(b.targets) >= 2 for b in indirect)


class TestHotColdStructure:
    def test_hot_branches_dominate_dynamic_execution(self):
        """Zipf-weighted loop selection concentrates execution (Fig. 7
        premise)."""
        trace = make_workload().generate(length=6000)
        from collections import Counter
        counts = Counter(int(p) for p in trace.pcs)
        total = sum(counts.values())
        top_half = sum(c for _, c in
                       counts.most_common(len(counts) // 2))
        assert top_half / total > 0.75

    def test_scaled_spec(self):
        spec = make_workload().spec
        assert spec.scaled(0.5).default_length == spec.default_length // 2
        assert spec.scaled(0.0).default_length == 1


class TestDegenerateLayouts:
    def test_no_loops_emits_cold_chain(self):
        spec = WorkloadSpec(
            name="coldonly",
            layout=LayoutParams(n_hot_loops=0, n_warm_funcs=0,
                                n_cold_branches=30),
            mix=MixParams(active_loops=0, core_loops=0),
            default_length=100)
        trace = SyntheticWorkload(spec).generate()
        assert len(trace) == 100

    def test_nothing_to_emit_raises(self):
        spec = WorkloadSpec(
            name="empty",
            layout=LayoutParams(n_hot_loops=0, n_warm_funcs=0,
                                n_cold_branches=0),
            mix=MixParams(active_loops=0, core_loops=0),
            default_length=10)
        with pytest.raises(ValueError, match="nothing to emit"):
            SyntheticWorkload(spec).generate()
