"""Unit tests for the Hawkeye policy and its OPTgen component."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.btb.btb import BTB
from repro.btb.config import BTBConfig
from repro.btb.kernels import _optgen_access
from repro.btb.replacement.hawkeye import HawkeyePolicy, _OptGen


class TestOptGen:
    def test_compulsory_access_is_none(self):
        gen = _OptGen(ways=2)
        assert gen.access(0x4) is None

    def test_short_reuse_in_capacity_hits(self):
        gen = _OptGen(ways=2)
        gen.access(0x4)
        gen.access(0x8)
        assert gen.access(0x4) is True

    def test_over_capacity_interval_misses(self):
        gen = _OptGen(ways=1, window_factor=8)
        gen.access(0x4)
        # Two other blocks whose intervals saturate the single way.
        gen.access(0x8)
        gen.access(0xC)
        gen.access(0x8)            # occupies [1, 3]
        assert gen.access(0x4) is False

    def test_reuse_beyond_window_is_compulsory(self):
        gen = _OptGen(ways=1, window_factor=2)   # window = 2
        gen.access(0x4)
        gen.access(0x8)
        gen.access(0xC)
        assert gen.access(0x4) is None

    def test_capacity_respected(self):
        """With 2 ways, three interleaved streams can't all hit."""
        gen = _OptGen(ways=2)
        for pc in (0x4, 0x8, 0xC):
            gen.access(pc)
        verdicts = [gen.access(pc) for pc in (0x4, 0x8, 0xC)]
        assert verdicts.count(True) == 2
        assert verdicts.count(False) == 1


class TestHawkeyePolicy:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            HawkeyePolicy(predictor_bits=2)
        with pytest.raises(ValueError):
            HawkeyePolicy(sample_every=0)

    def test_initially_weakly_friendly(self):
        policy = HawkeyePolicy()
        policy.bind(8, 2)
        assert policy._predict_friendly(0x40)

    def test_training_flips_prediction(self):
        policy = HawkeyePolicy()
        policy.bind(8, 2)
        for _ in range(5):
            policy._train(0x40, friendly=False)
        assert not policy._predict_friendly(0x40)
        for _ in range(8):
            policy._train(0x40, friendly=True)
        assert policy._predict_friendly(0x40)

    def test_averse_entry_evicted_first(self):
        policy = HawkeyePolicy(sample_every=1)
        btb = BTB(BTBConfig(entries=2, ways=2), policy)
        btb.access(0x4, 0, 0)
        btb.access(0x8, 0, 1)
        # Force way 1 averse.
        policy._rrpv[0][1] = 7
        btb.access(0xC, 0, 2)
        assert not btb.contains(0x8)
        assert btb.contains(0x4)

    def test_sampled_sets_only(self):
        policy = HawkeyePolicy(sample_every=4)
        policy.bind(8, 2)
        assert set(policy._optgen) == {0, 4}

    def test_friendly_learning_on_reuse_pattern(self):
        """A tight reuse loop in a sampled set trains friendliness."""
        policy = HawkeyePolicy(sample_every=1)
        btb = BTB(BTBConfig(entries=4, ways=4), policy)
        for _ in range(20):
            btb.access(0x4, 0, 0)
            btb.access(0x8, 0, 0)
        idx = policy._predictor_index(0x4)
        assert policy._counters[idx] >= 4

    def test_detrains_on_dead_friendly_eviction(self):
        policy = HawkeyePolicy(sample_every=10_000)  # no OPTgen noise
        btb = BTB(BTBConfig(entries=2, ways=2), policy)
        idx = policy._predictor_index(0x4)
        before = policy._counters[idx]
        btb.access(0x4, 0, 0)      # friendly fill, never reused
        btb.access(0x8, 0, 1)
        policy._rrpv[0][0] = 7     # make 0x4 the victim
        btb.access(0xC, 0, 2)
        assert policy._counters[idx] < before


class TestKernelOptGen:
    """The Hawkeye kernel's slice-based OPTgen against ``_OptGen.access``
    (the oracle), on two generators fed the same accesses."""

    @staticmethod
    def _replay(pcs, ways, window_factor):
        oracle = _OptGen(ways=ways, window_factor=window_factor)
        kernel = _OptGen(ways=ways, window_factor=window_factor)
        for pc in pcs:
            assert _optgen_access(kernel, pc) is oracle.access(pc), pc
            assert (kernel.time, kernel.last_time, kernel._occ) \
                == (oracle.time, oracle.last_time, oracle._occ)
        return oracle

    def test_interval_that_wraps_the_window(self):
        # window 8: pc 1 at t=6, reused at t=10 -> slots 6, 7, 0, 1.
        pcs = [2, 3, 4, 5, 2, 3, 1, 4, 5, 3, 1]
        gen = self._replay(pcs, ways=2, window_factor=4)
        assert gen.window == 8 and gen.last_time[1] == 10

    @pytest.mark.parametrize("start", [0, 3, 7])
    def test_reuse_at_window_minus_one(self, start):
        """``t - t0 == window - 1`` is the longest interval OPTgen
        judges; from ``start`` > 0 it also wraps the window."""
        window = 8
        between = [100 + i for i in range(window - 2)]
        pcs = [200 + i for i in range(start)] + [1] + between + [1]
        gen = self._replay(pcs, ways=2, window_factor=4)
        assert gen.window == window
        assert gen.last_time[1] - start == window - 1

    def test_saturated_wrapped_interval_misses(self):
        # One way, window 8: pc 7's reuse takes slot 7, inside pc 1's
        # wrapped interval (slots 6, 7, 0), so pc 1 misses and no slot
        # is incremented.
        pcs = [9] * 6 + [1, 7, 7]
        gen = self._replay(pcs, ways=1, window_factor=8)
        occ = list(gen._occ)
        assert _optgen_access(gen, 1) is False
        assert gen._occ == occ[:1] + [0] + occ[2:]

    @settings(max_examples=150, deadline=None)
    @given(pcs=st.lists(st.integers(0, 9), max_size=120),
           ways=st.integers(1, 3), window_factor=st.integers(1, 4))
    def test_property_matches_oracle(self, pcs, ways, window_factor):
        self._replay(pcs, ways, window_factor)
