"""Micro-scale smoke runs of the table runners.

The full paper-shaped runs live in benchmarks/; here each runner executes
at a deliberately tiny scale (1-layer models, one or two sentences, few
bisection steps) so its code path — training cache, radius protocol,
printing, result structure — is covered by the fast test suite.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.harness import ExperimentScale, RadiusReport
from repro.experiments.tables import (_FAST_VS_BAF, _radius_table,
                                      run_table4, run_table5, run_table6,
                                      run_table9, run_table10, run_table12,
                                      run_table13, run_table14, run_figure4)


@pytest.fixture(scope="module")
def micro_scale():
    return ExperimentScale(embed_dim=8, n_heads=2, hidden_dim=8,
                           max_len=16, n_train=80, n_test=20, epochs=4,
                           n_sentences=1, n_positions=1,
                           search_iterations=3, noise_symbol_cap=48,
                           precise_symbol_cap=32, baf_depth=10, seed=2)


class TestFastVsBafEngine:
    def test_single_layer_row(self, micro_scale, capsys):
        result = _radius_table("micro", micro_scale, (1,), ("l2",),
                               _FAST_VS_BAF, cell="ratio")
        rows = result["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["deept"].radii and row["crown"].radii
        assert row["deept"].seconds > 0
        printed = capsys.readouterr().out
        assert "micro" in printed and "M=1" in printed


class TestRatioColumn:
    """Ratio and change cells never divide by a zero radius."""

    def test_ratio_column_values_and_cells(self):
        from repro.experiments.tables import ratio_column
        assert ratio_column(0.5, 0.25) == (2.0, "    2.00")
        value, cell = ratio_column(0.5, 0.0)
        assert value == math.inf and cell.strip() == "∞"
        value, cell = ratio_column(0.0, 0.0)
        assert math.isnan(value) and cell.strip() == "—"
        value, cell = ratio_column(0.3, 0.2, change=True)
        assert value == pytest.approx(50.0) and cell == "+50.00 %"
        assert ratio_column(0.3, 0.0, change=True)[1].strip() == "∞"
        assert ratio_column(0.0, 0.0, change=True)[1].strip() == "—"

    def test_table_row_prints_infinity_when_baseline_certifies_nothing(
            self, micro_scale, capsys, monkeypatch):
        from repro.experiments import tables
        from repro.experiments.harness import RadiusReport

        def deept(*args, **kwargs):
            return RadiusReport(name="DeepT-Fast", radii=[0.0725])

        def crown(*args, **kwargs):
            return RadiusReport(name="CROWN-BaF", radii=[0.0])

        monkeypatch.setattr(tables, "radius_report_deept", deept)
        monkeypatch.setattr(tables, "radius_report_crown", crown)
        result = _radius_table("zero baseline", micro_scale, (1,),
                               ("l2",), _FAST_VS_BAF, cell="ratio")
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.rstrip().endswith("∞"), row
        assert "72500000000" not in row
        assert result["rows"][0]["ratio"] == math.inf


class TestAblationRunners:
    def test_table6_micro(self, micro_scale):
        result = run_table6(scale=micro_scale, layers=(1,))
        assert len(result["rows"]) == 2  # l1 and l2
        for row in result["rows"]:
            assert np.isfinite(row["change_percent"])

    def test_table13_micro(self, micro_scale):
        result = run_table13(scale=micro_scale, layers=(1,))
        for row in result["rows"]:
            assert row["with_refinement"].avg_radius >= 0
            assert np.isfinite(row["change_percent"])

    def test_table14_micro(self, micro_scale):
        result = run_table14(scale=micro_scale, layers=(1,))
        row = result["rows"][0]
        assert row["combined"].radii
        assert row["backward"].radii


class TestSentenceCount:
    """Every radius table runs the scale's sentence count.

    Tables 4, 5, 12 and 14 used to take one sentence whatever the scale
    said.
    """

    @staticmethod
    def row_reports(row):
        """Every radius report of a row, keyed or listed."""
        values = list(row.values()) + list(row.get("reports", ()))
        return [value for value in values
                if isinstance(value, RadiusReport)]

    @pytest.mark.parametrize("runner", [run_table4, run_table5, run_table6,
                                        run_table12, run_table13,
                                        run_table14],
                             ids=["4", "5", "6", "12", "13", "14"])
    def test_reports_hold_every_sentence(self, micro_scale, runner):
        scale = replace(micro_scale, n_sentences=2)
        result = runner(scale=scale, layers=(1,))
        for row in result["rows"]:
            reports = self.row_reports(row)
            assert reports
            for report in reports:
                assert len(report.radii) == 2 * scale.n_positions, \
                    report.name


class TestStandaloneRunners:
    def test_table10_micro(self):
        result = run_table10(n_images=1, node_limit=150)
        assert result["rows"][0]["zonotope_radius"] >= 0
        assert result["rows"][0]["complete_radius"] >= 0

    def test_figure4_structure(self):
        result = run_figure4(n_samples=100)
        assert result["points"].shape == (100, 2)
