"""Golden ``RunMetrics`` snapshot: the report's numbers must not move.

``tests/golden/runmetrics_65536.json`` holds every planned report cell
(``experiment_requests(sorted(EXPERIMENTS))``) priced at scale 65536,
plus the rows of the experiments that read profiles directly (the
``sorting`` table and fig18's ``adj_compression`` column), and a
SHA-256 digest over all of it.  The test re-prices through
:class:`~repro.sim.Runner` and compares exactly: no tolerance, floats
round-trip through JSON bit for bit.

A change that is *meant* to move a priced number regenerates the file::

    PYTHONPATH=src python -m tests.test_golden_metrics --write

and must say why in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

GOLDEN_SCALE = 65536
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           f"runmetrics_{GOLDEN_SCALE}.json")


def _cell(request, metrics):
    return [request.describe(), metrics.app, metrics.scheme,
            metrics.dataset, metrics.preprocessing, metrics.cycles,
            metrics.compute_cycles, metrics.memory_cycles,
            metrics.traffic, metrics.extras]


def _digest(body):
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(runner):
    """Every planned report cell plus the profile-reading rows."""
    from repro.harness.experiments import (
        EXPERIMENTS,
        fig18_preprocessing,
        sorting_optimization,
    )
    from repro.jobs.model import params_to_kwargs
    from repro.jobs.plan import experiment_requests

    cells = []
    for request in experiment_requests(sorted(EXPERIMENTS)):
        metrics = runner.run(request.app, request.scheme,
                             request.dataset, request.preprocessing,
                             **params_to_kwargs(request.params))
        cells.append(_cell(request, metrics))
    body = {
        "scale": runner.scale,
        "cells": cells,
        "sorting": sorting_optimization(runner).rows,
        "fig18_adj_compression": {
            row["preprocessing"]: row["adj_compression"]
            for row in fig18_preprocessing(runner).rows
            if "adj_compression" in row},
    }
    return {"digest": _digest(body), **body}


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    from repro.sim import Runner
    return snapshot(Runner(scale=GOLDEN_SCALE))


def test_golden_file_is_self_consistent():
    golden = _load()
    body = {k: v for k, v in golden.items() if k != "digest"}
    assert _digest(body) == golden["digest"]
    assert len(golden["cells"]) == 772


def test_report_cells_match_golden(current):
    golden = _load()
    assert len(current["cells"]) == len(golden["cells"])
    for got, want in zip(current["cells"], golden["cells"]):
        assert got == want, got[0]


def test_profile_rows_match_golden(current):
    golden = _load()
    assert current["sorting"] == golden["sorting"]
    assert current["fig18_adj_compression"] \
        == golden["fig18_adj_compression"]


def test_digest_matches_golden(current):
    assert current["digest"] == _load()["digest"]


def main(argv):
    if argv != ["--write"]:
        print(__doc__)
        return 2
    from repro.sim import Runner
    data = snapshot(Runner(scale=GOLDEN_SCALE))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(data['cells'])} cells, "
          f"digest {data['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
