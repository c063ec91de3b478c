"""Coverage for the remaining seams: error hierarchy, renderers, and the
electrical-vs-abstract energy reconciliation."""

from __future__ import annotations

import pytest

from repro.errors import (
    ApproximationError,
    ConfigurationError,
    CrossbarError,
    DeviceError,
    QoSError,
    ReproError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigurationError, DeviceError, CrossbarError,
         ApproximationError, WorkloadError, QoSError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_one_catch_covers_the_library(self):
        from repro.core.config import APIMConfig

        try:
            APIMConfig(cycle_time=-1)
        except ReproError as caught:
            assert isinstance(caught, ConfigurationError)
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")


class TestRendererDetails:
    def test_figure5_render_marks_crossover(self):
        from repro.analysis.experiments import run_figure5
        from repro.analysis.tables import render_figure5
        from repro.units import GIB, MIB
        from repro.workloads import workload_by_name

        result = run_figure5(
            workloads=[workload_by_name("Robert")],
            sizes=(32 * MIB, GIB),
            tile_elements=1 << 9,
        )
        text = render_figure5(result)
        assert "crossover" in text
        assert "1 GiB point" in text

    def test_table1_render_contains_every_level(self):
        from repro.analysis.experiments import run_table1
        from repro.analysis.tables import render_table1
        from repro.workloads import workload_by_name

        result = run_table1(
            workloads=[workload_by_name("Robert")],
            levels=(0, 8, 32),
            tile_elements=1 << 9,
        )
        text = render_table1(result)
        for label in ("0 bits", "8 bits", "32 bits", "Robert"):
            assert label in text

    def test_figure4_gap_inf_when_last_stage_exact(self):
        from repro.analysis.experiments import Figure4Point, Figure4Result

        exact_only = Figure4Result(
            first_stage=(Figure4Point(8, 0.5, 1e-12, 1e-6),),
            last_stage=(Figure4Point(8, 0.0, 1e-12, 1e-6),),
            samples=10,
        )
        assert exact_only.error_gap_at_edp(1e-18) == float("inf")


class TestEnergyReconciliation:
    def test_structural_electrical_energy_below_abstract_pricing(self):
        """The abstract e_nor constant must upper-bound the device-level
        Joule integral: the constant folds in driver/periphery overheads
        the electrical model deliberately excludes."""
        from repro.core.config import default_config
        from repro.crossbar.structural_multiplier import StructuralMultiplier

        config = default_config()
        mult = StructuralMultiplier(8, rows=220)
        _, cost = mult.multiply(181, 203)
        electrical = sum(
            engine.electrical_energy for engine in mult.fabric.engines
        )
        abstract_nor_energy = cost.nor_ops * config.e_nor
        assert 0 < electrical < abstract_nor_energy

    def test_electrical_energy_scales_with_work(self):
        from repro.crossbar.structural_multiplier import StructuralMultiplier

        small = StructuralMultiplier(4, rows=120)
        large = StructuralMultiplier(12, rows=320)
        small.multiply(13, 11)
        large.multiply(4001, 3999)
        e_small = sum(e.electrical_energy for e in small.fabric.engines)
        e_large = sum(e.electrical_energy for e in large.fabric.engines)
        assert e_large > e_small


class TestStridedTraceHelper:
    def test_read_then_write_pattern(self):
        from repro.workloads.base import Workload

        (addrs, writes), = Workload._strided_trace(
            base=64, offsets=[-1, 0, 1], elements=4, element_bytes=4
        )
        # Per element: three reads then one write.
        assert addrs.size == 16
        assert writes.tolist() == [False, False, False, True] * 4
        assert addrs[:4].tolist() == [60, 64, 68, 64 + (1 << 30)]
        assert (addrs >= 0).all()
