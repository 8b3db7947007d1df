"""Ablation benchmarks for Thermometer's design choices (DESIGN.md §5).

Each ablation isolates one ingredient of Algorithm 1 on the same workload:

* tie-break: LRU (transient signal) vs static (holistic only);
* bypass: on vs off;
* quantizer: empirical thresholds vs equal-population bins (§3.3's naive
  alternative);
* default category for unprofiled branches.

Two more compare Thermometer with its alternatives on another workload:

* policy zoo — every implemented policy;
* online vs offline Thermometer — the value of the OPT profile.
"""

from repro.btb.btb import BTB, run_btb
from repro.btb.replacement.thermometer import ThermometerPolicy
from repro.core.hints import ThresholdQuantizer, UniformQuantizer
from repro.harness.reporting import format_table

APP = "cassandra"
#: The workload of the policy-zoo and online-vs-offline comparisons.
ZOO_APP = "kafka"


def _misses(harness, policy):
    btb = BTB(harness.config.btb_config, policy)
    return run_btb(harness.trace(APP), btb).misses


def test_ablation_tiebreak_and_bypass(benchmark, harness):
    hints = harness.hints(APP)

    def run():
        rows = []
        for label, kwargs in [
            ("full (lru + bypass)", {}),
            ("static tiebreak", {"tiebreak": "static"}),
            ("no bypass", {"bypass_enabled": False}),
            ("static, no bypass", {"tiebreak": "static",
                                   "bypass_enabled": False}),
        ]:
            policy = ThermometerPolicy(hints, default_category=1, **kwargs)
            rows.append([label, _misses(harness, policy)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["variant", "misses"], rows))
    misses = {label: m for label, m in rows}
    lru_baseline = harness.run_misses(harness.trace(APP), "lru").misses
    # Every variant must still beat plain LRU — temperature is the main
    # signal; tie-break and bypass are refinements.
    assert all(m < lru_baseline for m in misses.values())


def test_ablation_quantizer(benchmark, harness):
    temps = harness.temperatures(APP)

    def run():
        rows = []
        for label, quantizer in [
            ("thresholds 50/80 (paper)", ThresholdQuantizer((50.0, 80.0))),
            ("thresholds 30/60", ThresholdQuantizer((30.0, 60.0))),
            ("uniform 3 bins (naive)", UniformQuantizer(3)),
            ("uniform 4 bins", UniformQuantizer(4)),
        ]:
            hints = quantizer.quantize(temps, default_category=1)
            policy = ThermometerPolicy(hints, default_category=1)
            rows.append([label, _misses(harness, policy)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["quantizer", "misses"], rows))
    lru_baseline = harness.run_misses(harness.trace(APP), "lru").misses
    assert all(m < lru_baseline for _, m in rows)


def test_ablation_default_category(benchmark, harness):
    """What happens to a *cross-input* profile as the unprofiled-branch
    default changes — the paper-silent choice DESIGN.md §5 calls out."""
    train_hints = harness.hints(APP, input_id=1)
    test_trace = harness.trace(APP, input_id=0)

    def run():
        rows = []
        for default in (0, 1, 2):
            policy = ThermometerPolicy(train_hints,
                                       default_category=default)
            btb = BTB(harness.config.btb_config, policy)
            rows.append([f"default={default} "
                         + ("(cold)", "(warm)", "(hot)")[default],
                         run_btb(test_trace, btb).misses])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["unprofiled default", "misses"], rows))
    misses = [m for _, m in rows]
    lru = harness.run_misses(test_trace, "lru").misses
    # Whatever the default, a cross-input profile must keep beating LRU —
    # the failure mode this ablation guards against is the cold-default
    # permanently bypassing unprofiled branches and collapsing below it.
    assert max(misses) < lru
    # And the choice of default must stay a second-order effect.
    assert max(misses) - min(misses) < 0.15 * lru


def test_policy_zoo(benchmark, harness):
    trace = harness.trace(ZOO_APP)
    hints = harness.hints(ZOO_APP)

    def run():
        rows = []
        for name in ("lru", "plru", "fifo", "random", "srrip", "brrip",
                     "dip", "ship", "ghrp", "hawkeye",
                     "thermometer-online"):
            stats = harness.run_misses(trace, name)
            rows.append([name, stats.misses])
        rows.append(["thermometer",
                     harness.run_misses(trace, "thermometer",
                                        hints=hints).misses])
        rows.append(["opt", harness.run_misses(trace, "opt").misses])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(["policy", "misses"],
                       sorted(rows, key=lambda r: r[1], reverse=True)))
    misses = dict(rows)
    assert misses["opt"] == min(misses.values())
    assert misses["thermometer"] < min(
        v for k, v in misses.items() if k not in ("thermometer", "opt"))


def test_online_vs_offline_thermometer(benchmark, harness):
    trace = harness.trace(ZOO_APP)
    hints = harness.hints(ZOO_APP)

    def run():
        online = harness.run_misses(trace, "thermometer-online").misses
        offline = harness.run_misses(trace, "thermometer",
                                     hints=hints).misses
        lru = harness.run_misses(trace, "lru").misses
        return lru, online, offline

    lru, online, offline = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nlru={lru} online={online} offline={offline}")
    # The offline profile buys a clear margin over in-hardware estimation.
    assert offline < online <= lru * 1.02
