"""Tests for the sensitivity sweeps."""

import pytest

from repro.sim import Runner
from repro.sim.sweeps import bandwidth_sweep, core_sweep, llc_sweep


@pytest.fixture(scope="module")
def runner():
    return Runner(scale=65536)


class TestBandwidthSweep:
    def test_regimes(self, runner):
        """Scarce bandwidth: both schemes are bandwidth-bound, so the
        advantage equals the traffic ratio.  Abundant bandwidth: both
        hit their compute floors, so the advantage saturates at the
        offload ratio and more bandwidth buys nothing further."""
        rows = bandwidth_sweep(runner, "pr", "ukl",
                               factors=(0.5, 2.0, 4.0),
                               schemes=("push", "phi+spzip"))
        scarce, mid, abundant = (row["phi+spzip"] for row in rows)
        assert scarce < mid            # traffic-ratio-limited regime
        assert abundant <= mid * 1.05  # compute-floor saturation

    def test_baseline_always_one(self, runner):
        rows = bandwidth_sweep(runner, "dc", "arb",
                               factors=(1.0,),
                               schemes=("push", "phi"))
        assert rows[0]["push"] == pytest.approx(1.0)


class TestLlcSweep:
    def test_bigger_llc_helps_push(self, runner):
        """More capacity -> fewer destination scatter misses."""
        rows = llc_sweep(runner, "pr", "web",
                         factors=(0.25, 2.0), schemes=("push",
                                                       "phi+spzip"))
        small = rows[0]["phi+spzip"]  # SpZip advantage over Push
        big = rows[1]["phi+spzip"]
        # When Push stops missing, SpZip's relative edge narrows.
        assert big <= small * 1.1

    def test_llc_bytes_reported(self, runner):
        rows = llc_sweep(runner, "dc", "arb", factors=(0.5,),
                         schemes=("push",))
        assert rows[0]["llc_bytes"] > 0


class TestCoreSweep:
    def test_core_bound_scheme_scales_then_saturates(self, runner):
        rows = core_sweep(runner, "pr", "ukl", counts=(4, 32),
                          scheme="push")
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[1]["speedup"] >= 1.0

    def test_memory_bound_scheme_stops_scaling(self, runner):
        rows = core_sweep(runner, "pr", "ukl", counts=(4, 64),
                          scheme="phi+spzip")
        # Bandwidth-bound: 16x the cores buys far less than 16x.
        assert rows[1]["speedup"] < 8.0


class TestOracleParity:
    """Sweep rows equal the frozen monolithic path's, exactly — CMH
    cells included (they price from the stage artifacts' ratios and
    Push replays, the oracle from an in-place replay)."""

    @pytest.fixture(scope="class")
    def oracle(self):
        from tests.oracles.monolithic import OracleRunner
        return OracleRunner(scale=65536)

    def test_bandwidth_sweep(self, runner, oracle):
        from tests.oracles import monolithic
        for app, dataset, prep in (("pr", "ukl", "none"),
                                   ("bfs", "arb", "dfs")):
            kwargs = dict(factors=(0.5, 1.0, 3.0),
                          schemes=("push", "push+cmh", "ub+cmh",
                                   "phi+spzip"))
            assert bandwidth_sweep(runner, app, dataset, prep,
                                   **kwargs) == \
                monolithic.bandwidth_sweep(oracle, app, dataset, prep,
                                           **kwargs)

    def test_llc_sweep(self, runner, oracle):
        from tests.oracles import monolithic
        kwargs = dict(factors=(0.25, 1.0, 2.0),
                      schemes=("push", "push+cmh", "phi+spzip"))
        assert llc_sweep(runner, "cc", "web", "none", **kwargs) == \
            monolithic.llc_sweep(oracle, "cc", "web", "none", **kwargs)

    @pytest.mark.parametrize("scheme", ["push", "push+cmh", "phi+spzip"])
    def test_core_sweep(self, runner, oracle, scheme):
        from tests.oracles import monolithic
        assert core_sweep(runner, "prd", "twi", "none", counts=(4, 16, 64),
                          scheme=scheme) == \
            monolithic.core_sweep(oracle, "prd", "twi", "none",
                                  counts=(4, 16, 64), scheme=scheme)
