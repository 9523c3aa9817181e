"""Tests for the system configuration (paper Table II)."""

import pytest

from repro.config import (
    SystemConfig,
    default_system,
    model_system,
)


class TestTable2Defaults:
    def test_core_count_and_frequency(self):
        system = default_system()
        assert system.num_cores == 16
        assert system.freq_ghz == 3.5

    def test_cache_sizes(self):
        system = default_system()
        assert system.l1d.size_bytes == 32 * 1024
        assert system.l2.size_bytes == 256 * 1024
        assert system.llc.size_bytes == 32 * 1024 * 1024

    def test_llc_uses_drrip(self):
        assert default_system().llc.replacement == "drrip"

    def test_memory_bandwidth(self):
        system = default_system()
        assert system.memory.total_gb_per_sec == pytest.approx(51.2)
        assert system.bytes_per_cycle == pytest.approx(51.2 / 3.5)

    def test_mesh_is_4x4(self):
        noc = default_system().noc
        assert noc.mesh_width * noc.mesh_height == 16

    def test_spzip_defaults(self):
        spzip = default_system().spzip
        assert spzip.scratchpad_bytes == 2048
        assert spzip.max_contexts == 16
        assert spzip.au_outstanding_lines == 8


class TestScaling:
    def test_scaled_preserves_geometry(self):
        system = model_system(1024)
        assert system.llc.ways == 16
        assert system.llc.line_bytes == 64
        assert system.llc.size_bytes < 32 * 1024 * 1024
        assert system.scale == 1024

    def test_scaled_respects_floors(self):
        system = model_system(10 ** 9)
        assert system.l1d.size_bytes >= system.l1d.ways * 64
        assert system.llc.num_sets >= 1

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig().scaled(0)

    def test_scaled_keeps_timing_constants(self):
        system = model_system(1024)
        assert system.freq_ghz == 3.5
        assert system.memory.total_gb_per_sec == pytest.approx(51.2)


class TestOneDefaultScale:
    def test_model_system_matches_runner_default(self):
        """One DEFAULT_SCALE: the co-scaled system and the runner's
        default system (and its 4096-scaled datasets) agree."""
        from repro.sim import Runner
        assert model_system() == Runner().system

    def test_dataset_and_cli_defaults_are_the_config_constant(self):
        from repro import DEFAULT_SCALE
        from repro.cli import build_parser
        from repro.graph import datasets
        assert DEFAULT_SCALE == datasets.DEFAULT_SCALE == 4096
        parser = build_parser()
        for argv in (["experiment", "fig07"], ["report"],
                     ["simulate", "--app", "bfs", "--scheme", "push",
                      "--dataset", "ukl"]):
            assert parser.parse_args(argv).scale == DEFAULT_SCALE
