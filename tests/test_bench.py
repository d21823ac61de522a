"""Tests for the benchmark harness and its report formats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from rom2l.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    QRecord,
    _mean,
    emit_report,
    format_report,
    load_report,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from rom2l.errors import DimensionError
from rom2l.rom import RomWorkspace
from rom2l.solvers import NewtonConfig


def tiny_config(**overrides) -> ExperimentConfig:
    """Three-parameter sweep sized for the coarse test basis."""
    defaults = dict(
        q_start=-1.0,
        q_end=1.0,
        q_step=1.0,
        triples=((4, 8, 8),),
        guesses=("avg",),
        reps=1,
        h=0.25,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_report(coarse_basis):
    return run_experiment(tiny_config(), basis=coarse_basis)


class TestConfigValidation:
    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny_config(reps=0)

    def test_unknown_guess_kind(self):
        with pytest.raises(ValueError):
            tiny_config(guesses=("nope",))

    def test_empty_guesses(self):
        with pytest.raises(ValueError):
            tiny_config(guesses=())

    def test_coarse_dimension_above_correction(self):
        with pytest.raises(DimensionError):
            tiny_config(triples=((5, 4, 4),))

    def test_degenerate_triple_allowed(self):
        cfg = tiny_config(triples=((8, 8, 8),))
        assert cfg.triples == ((8, 8, 8),)

    def test_bad_q_step(self):
        with pytest.raises(ValueError):
            tiny_config(q_step=0.0)

    def test_q_values(self):
        np.testing.assert_allclose(
            tiny_config().q_values(), [-1.0, 0.0, 1.0], atol=1e-12
        )


class TestRunExperiment:
    def test_report_shape(self, tiny_report):
        assert len(tiny_report.rows) == 1
        row = tiny_report.rows[0]
        assert (row.r, row.r1, row.r2, row.guess) == (4, 8, 8, "avg")
        assert len(row.records) == 3
        assert row.n_failures == 0
        assert math.isfinite(row.err_1l) and math.isfinite(row.err_2l)
        assert row.time_1l_s > 0 and row.time_2l_s > 0
        assert row.error_ratio == pytest.approx(row.err_2l / row.err_1l)
        assert row.speedup == pytest.approx(row.time_1l_s / row.time_2l_s)

    def test_metadata_provenance(self, tiny_report, coarse_basis):
        md = tiny_report.metadata
        assert md["n_q"] == 3
        assert md["basis_rank"] == coarse_basis.rank
        assert md["reps"] == 1
        assert md["clock"] == "time.perf_counter"
        assert md["numpy"] == np.__version__

    def test_metadata_carries_the_basis_fingerprint(self, tiny_report, coarse_basis):
        ws = RomWorkspace(coarse_basis, 8, 1.0)
        assert tiny_report.metadata["basis"] == ws.fingerprint

    def test_row_averages_match_records(self, tiny_report):
        row = tiny_report.rows[0]
        assert row.err_1l == pytest.approx(
            math.fsum(rec.err_1l for rec in row.records) / len(row.records),
            rel=1e-15,
        )

    def test_degenerate_triple_matches_one_level(self, coarse_basis):
        # With r == R1 == R2 the correction is one extra Newton step from
        # an already-converged iterate, so both models report the same
        # error up to the stopping tolerance.
        cfg = tiny_config(
            q_start=0.3, q_end=0.3, triples=((8, 8, 8),), guesses=("avg",)
        )
        report = run_experiment(cfg, basis=coarse_basis)
        row = report.rows[0]
        assert len(row.records) == 1
        assert row.err_2l == pytest.approx(row.err_1l, rel=1e-6)

    def test_triple_beyond_basis_rank(self, coarse_basis):
        cfg = tiny_config(triples=((4, coarse_basis.rank + 1, 8),))
        with pytest.raises(DimensionError):
            run_experiment(cfg, basis=coarse_basis)

    def test_failures_are_counted_not_raised(self, coarse_basis):
        cfg = tiny_config(
            guesses=("ug",), newton=NewtonConfig(max_iter=1)
        )
        report = run_experiment(cfg, basis=coarse_basis)
        row = report.rows[0]
        assert row.n_failures == 3
        assert all(rec.failed_1l for rec in row.records)
        assert math.isnan(row.err_1l)
        assert math.isnan(row.speedup)
        assert all(math.isnan(rec.time_1l_s) for rec in row.records)


class TestMean:
    def test_empty_is_nan(self):
        assert math.isnan(_mean([]))

    def test_exact_summation_is_order_independent(self):
        values = [1e16, 1.0, -1e16, 1.0, 1e-8, 3.0]
        permuted = [values[i] for i in (3, 0, 4, 1, 5, 2)]
        assert _mean(values) == _mean(permuted)
        assert _mean(values) == pytest.approx((2.0 + 1e-8 + 3.0) / 6)


class TestReportFormats:
    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ExperimentReport(rows=(), metadata={}), path, "csv")
        content = path.read_text()
        assert content == ",".join(CSV_COLUMNS) + "\n"

    def test_markdown_table_shape(self, tiny_report, tmp_path):
        path = tmp_path / "report.md"
        emit_report(tiny_report, path, "markdown")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + len(tiny_report.rows)
        assert all(line.startswith("|") and line.endswith("|") for line in lines)
        assert lines[0] == "| " + " | ".join(CSV_COLUMNS) + " |"

    def test_format_report_matches_emitted_file(self, tiny_report, tmp_path):
        path = tmp_path / "report.md"
        emit_report(tiny_report, path, "markdown")
        assert format_report(tiny_report, "markdown") == path.read_text()

    def test_unknown_format(self, tiny_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(tiny_report, tmp_path / "x.bin", "xml")
        assert not (tmp_path / "x.bin").exists()
        with pytest.raises(ValueError, match="xml"):
            format_report(tiny_report, "xml")

    def test_format_report_json_round_trips(self, tiny_report):
        text = format_report(tiny_report, "json")
        assert report_from_dict(json.loads(text)) == tiny_report

    def test_json_round_trip_is_exact(self, tiny_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(tiny_report, path, "json")
        loaded = load_report(path)
        assert loaded == tiny_report  # float-exact, incl. records

    def test_report_dict_format_tag(self, tiny_report):
        data = report_to_dict(tiny_report)
        assert data["format"] == "rom2l-report"
        assert data["version"] == 1
        with pytest.raises(ValueError):
            report_from_dict({"format": "other"})

    def test_row_and_record_fields_survive(self, tiny_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(tiny_report, path, "json")
        loaded = load_report(path)
        rec0 = loaded.rows[0].records[0]
        assert isinstance(rec0, QRecord)
        assert isinstance(loaded.rows[0], ExperimentRow)
        assert rec0.q == tiny_report.rows[0].records[0].q
