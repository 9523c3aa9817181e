"""Staged parity: the stage-graph pipeline reproduces the frozen
monolithic pricing path bit for bit.

Every (app x scheme x preprocessing) cell — plus the Fig 19/20
ablations and a seeded random sample over scales and datasets — is
priced both through the frozen monolithic oracle
(``tests/oracles/monolithic.py``: workload → profile → simulate in one
pass) and through :class:`~repro.stages.StagePricer` (stream-gen →
cache-replay → compress → timing, content-addressed).  ``RunMetrics``
equality is exact (dataclass ``==``, no tolerance): the refactor moved
code across stage boundaries, it must not move numbers.  The
:class:`~repro.sim.Runner` facade's profiles and per-input configs are
pinned to the oracle's too.
"""

import random

import pytest

from repro.sim import Runner
from repro.stages import StagePricer
from tests.oracles.monolithic import OracleRunner

TEST_SCALE = 16384

APPS = ("pr", "prd", "cc", "re", "dc", "bfs", "sp")
SCHEMES = ("push", "push+spzip", "ub", "ub+spzip", "phi", "phi+spzip",
           "pull", "pull+spzip", "push+cmh", "ub+cmh")
ALL_PARTS = ("adjacency", "updates", "vertex")


@pytest.fixture(scope="module")
def runner():
    return OracleRunner(scale=TEST_SCALE)


@pytest.fixture(scope="module")
def pricer():
    return StagePricer(scale=TEST_SCALE)


def _cases(scheme):
    """Ablation kwargs to sweep for one scheme (Fig 19/20 variants)."""
    cases = [{}]
    if scheme.endswith("+spzip"):
        cases += [{"parts": frozenset({part})} for part in ALL_PARTS]
        cases += [{"parts": frozenset()}, {"decoupled_only": True}]
    return cases


@pytest.mark.parametrize("preprocessing", ["none", "dfs"])
@pytest.mark.parametrize("app", APPS)
def test_staged_matches_monolithic(runner, pricer, app, preprocessing):
    dataset = "nlp" if app == "sp" else "ukl"
    for scheme in SCHEMES:
        for kwargs in _cases(scheme):
            mono = runner.run(app, scheme, dataset, preprocessing,
                              **kwargs)
            staged = pricer.price(app, scheme, dataset, preprocessing,
                                  **kwargs)
            assert staged == mono, (app, scheme, preprocessing, kwargs)


def test_randomized_cells_match():
    """Seeded random sample across scales, datasets, and schemes.

    Catches identity-dependent divergence the fixed sweep cannot — a
    stage that accidentally keys on the wrong config slice shows up
    here as a cross-cell collision or a numeric mismatch.
    """
    rng = random.Random(0xC0FFEE)
    runners = {}
    pricers = {}
    for _ in range(12):
        scale = rng.choice((4096, 8192))
        app = rng.choice(APPS)
        dataset = "nlp" if app == "sp" else rng.choice(
            ("ukl", "twi", "web", "arb"))
        preprocessing = rng.choice(("none", "dfs", "degree"))
        scheme = rng.choice(SCHEMES)
        if scale not in runners:
            runners[scale] = OracleRunner(scale=scale)
            pricers[scale] = StagePricer(scale=scale)
        mono = runners[scale].run(app, scheme, dataset, preprocessing)
        staged = pricers[scale].price(app, scheme, dataset,
                                     preprocessing)
        assert staged == mono, (scale, app, scheme, dataset,
                                preprocessing)


@pytest.mark.parametrize("preprocessing", ["none", "dfs"])
@pytest.mark.parametrize("app", APPS)
def test_runner_facade_matches_oracle(runner, app, preprocessing):
    """``Runner.profiles``/``config_for`` read the pricer's bundle and
    equal the monolithic profiler's output and sizing exactly."""
    dataset = "nlp" if app == "sp" else "ukl"
    facade = Runner(scale=TEST_SCALE)
    workload = runner.workload(app, dataset, preprocessing)
    assert facade.profiles(app, dataset, preprocessing) == \
        runner.profiles(app, dataset, preprocessing)
    cfg = runner.config_for(workload)
    assert facade.config_for(workload) == cfg
    assert facade.pricer.bundle(app, dataset, preprocessing).cfg == cfg
