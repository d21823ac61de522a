"""Tests for the benchmark harness and its report formats."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from rom2l import rom
from rom2l.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    QRecord,
    _exact_split,
    _l2_error,
    _mean,
    emit_report,
    format_report,
    load_report,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from rom2l.errors import DimensionError
from rom2l.fem import FeFunction, l2_norm
from rom2l.manufactured import BurgersProblem, exact_u, forcing_f, with_parameter
from rom2l.pod import lift, reconstruction_error
from rom2l.solvers import NewtonConfig, one_level_solve


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
    @pytest.mark.parametrize("reps", [0, 1.5], ids=["zero", "fraction"])
    def test_reps_must_be_positive(self, reps):
        with pytest.raises(ValueError):
            tiny_config(reps=reps)

    def test_unknown_guess_kind(self):
        with pytest.raises(ValueError):
            tiny_config(guesses=("nope",))

    def test_empty_guesses(self):
        with pytest.raises(ValueError):
            tiny_config(guesses=())

    def test_coarse_dimension_above_correction(self):
        with pytest.raises(DimensionError):
            tiny_config(triples=((5, 4, 4),))

    @pytest.mark.parametrize(
        "triple", [(4.5, 8, 8), (4, 8.0, 8), (4, 8, 8.0), (4, 8, None)]
    )
    def test_non_integral_dimension(self, triple):
        with pytest.raises(DimensionError):
            tiny_config(triples=(triple,))

    def test_numpy_integer_dimensions_are_accepted(self):
        triple = tuple(np.int64(v) for v in (4, 8, 8))
        assert tiny_config(triples=(triple,)).triples == ((4, 8, 8),)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", math.nan), ("alpha", math.inf), ("beta", -math.inf)],
    )
    def test_non_finite_boundary_value_is_refused(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            tiny_config(problem=BurgersProblem(**{field: value}))

    @pytest.mark.parametrize("field", ["q_step", "h"])
    def test_nan_size_is_refused(self, field):
        with pytest.raises(ValueError):
            tiny_config(**{field: math.nan})

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

    def test_metadata_carries_every_config_field(self, tiny_report):
        loaded = report_from_dict(json.loads(format_report(tiny_report, "json")))
        config = json.loads(json.dumps(asdict(tiny_config())))
        for f in fields(ExperimentConfig):
            assert tiny_report.metadata[f.name] == config[f.name]
            assert loaded.metadata[f.name] == config[f.name]

    def test_metadata_carries_the_basis_fingerprint(self, tiny_report, coarse_basis):
        assert tiny_report.metadata["basis"] == coarse_basis.fingerprint

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

    def test_forcing_is_sampled_once_per_q(self, coarse_basis, monkeypatch):
        # The workspace remembers only the last problem it served, so the
        # sweep must run every solve at one q before it moves on.
        sampled = []

        def counted(prob, x):
            sampled.append(prob.q)
            return forcing_f(prob, x)

        monkeypatch.setattr(rom, "forcing_f", counted)
        cfg = tiny_config(
            q_start=-2.0,
            q_end=2.0,
            q_step=0.5,
            triples=((4, 8, 8), (6, 10, 10), (5, 12, 9)),
            guesses=("ug", "avg"),
        )
        run_experiment(cfg, basis=coarse_basis)
        np.testing.assert_array_equal(sampled, cfg.q_values())

    def test_err_proj_is_the_projection_error(self, tiny_report, coarse_basis):
        mesh = coarse_basis.mesh
        row = tiny_report.rows[0]
        for rec in row.records:
            prob = with_parameter(coarse_basis.problem, rec.q)
            u = FeFunction(mesh=mesh, coeffs=exact_u(prob, mesh.nodes))
            expected = reconstruction_error(coarse_basis, u, row.r1)
            assert rec.err_proj == pytest.approx(expected, rel=1e-10)
            # The projection is the best approximation in the L2 norm.
            assert rec.err_proj <= rec.err_1l

    def test_triples_in_one_sweep_match_separate_sweeps(self, coarse_basis):
        # The sweep runs q outermost; only the order of the work may
        # change, not any record.
        triples = ((4, 8, 8), (6, 10, 10), (5, 12, 9))
        cfg = tiny_config(q_start=-2.0, q_end=2.0, q_step=0.5, guesses=("ug", "avg"))
        joint = run_experiment(replace(cfg, triples=triples), basis=coarse_basis)
        alone = [
            row
            for t in triples
            for row in run_experiment(
                replace(cfg, triples=(t,)), basis=coarse_basis
            ).rows
        ]
        assert [(r.r, r.r1, r.r2, r.guess) for r in joint.rows] == [
            (r.r, r.r1, r.r2, r.guess) for r in alone
        ]
        for row, ref in zip(joint.rows, alone):
            assert len(row.records) == len(ref.records) == 9
            for rec, want in zip(row.records, ref.records):
                assert (rec.q, rec.iters_1l, rec.iters_2l_stage1) == (
                    want.q, want.iters_1l, want.iters_2l_stage1
                )
                assert (rec.failed_1l, rec.failed_2l) == (
                    want.failed_1l, want.failed_2l
                )
                for name in ("err_1l", "err_2l", "err_proj"):
                    assert getattr(rec, name) == pytest.approx(
                        getattr(want, name), rel=1e-10
                    )


def _answers(report) -> np.ndarray:
    """Every record of a report without its wall times, one row per
    record: q, Newton counts, failure flags and errors."""
    return np.array(
        [
            (rec.q, rec.iters_1l, rec.iters_2l_stage1, rec.failed_1l,
             rec.failed_2l, rec.err_1l, rec.err_2l, rec.err_proj)
            for row in report.rows
            for rec in row.records
        ],
        dtype=float,
    )


class TestWorkspaceReuse:
    def test_repeated_calls_on_one_basis_assemble_once(
        self, coarse_basis, workspace_builds
    ):
        cfg = tiny_config()
        run_experiment(cfg, basis=coarse_basis)
        run_experiment(cfg, basis=coarse_basis)
        assert workspace_builds == [(coarse_basis, 8, cfg.problem.nu)]

    def test_reused_workspace_gives_the_same_answers(self, coarse_basis):
        # max_iter=6 makes some "ug" solves fail and others not.
        cfg = tiny_config(
            q_start=-2.0,
            q_end=2.0,
            q_step=0.5,
            triples=((4, 8, 8), (6, 10, 10)),
            guesses=("ug", "avg"),
            newton=NewtonConfig(max_iter=6),
        )
        first = _answers(run_experiment(cfg, basis=coarse_basis))
        second = _answers(run_experiment(cfg, basis=coarse_basis))
        rom.shared_workspace.cache_clear()
        fresh = _answers(run_experiment(cfg, basis=coarse_basis))
        assert 0 < first[:, 3].sum() < len(first)  # failed_1l on some records
        np.testing.assert_array_equal(second, first)
        np.testing.assert_array_equal(fresh, first)

    @pytest.mark.parametrize("key", ["r_max", "nu", "basis"])
    def test_another_key_assembles_anew(self, coarse_basis, workspace_builds, key):
        first = tiny_config()
        run_experiment(first, basis=coarse_basis)
        cfg, basis = first, coarse_basis
        if key == "r_max":
            cfg = replace(cfg, triples=((4, 8, 9),))
        elif key == "nu":
            cfg = replace(cfg, problem=BurgersProblem(nu=2.0))
        else:
            basis = replace(coarse_basis)  # the same arrays in another object
        run_experiment(cfg, basis=basis)
        r_max = max(max(t[1:]) for t in cfg.triples)
        assert workspace_builds[1:] == [(basis, r_max, cfg.problem.nu)]
        # Only the last workspace is kept, so the first key assembles again.
        run_experiment(first, basis=coarse_basis)
        assert len(workspace_builds) == 3


class TestReducedCoordinateErrors:
    @pytest.mark.parametrize("q", [-2.7, 0.3, 1.25, 3.6])
    def test_matches_the_norm_of_the_lifted_difference(self, coarse_basis, q):
        prob = with_parameter(coarse_basis.problem, q)
        mesh = coarse_basis.mesh
        exact = exact_u(prob, mesh.nodes)
        split = _exact_split(coarse_basis, prob, coarse_basis.rank)
        for R in (3, 8, 13, coarse_basis.rank):
            a = one_level_solve(coarse_basis, R, prob, "avg").coeffs
            diff = lift(coarse_basis, a).coeffs - exact
            expected = l2_norm(FeFunction(mesh=mesh, coeffs=diff))
            assert _l2_error(a, *split) == pytest.approx(expected, rel=1e-10)


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

    def test_json_is_strict_and_reads_null_back_as_nan(self, coarse_basis):
        # Every solve fails, so errors, times and ratios are NaN; strict
        # JSON has no token for them.
        cfg = tiny_config(guesses=("ug",), newton=NewtonConfig(max_iter=1))
        report = run_experiment(cfg, basis=coarse_basis)
        text = format_report(report, "json")

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        data = json.loads(text, parse_constant=refuse)
        assert data["rows"][0]["err_1l"] is None
        loaded = report_from_dict(data)
        assert math.isnan(loaded.rows[0].err_1l)
        assert all(math.isnan(rec.time_1l_s) for rec in loaded.rows[0].records)
        assert format_report(loaded, "json") == text

    def test_one_dict_loads_twice(self, tiny_report):
        data = report_to_dict(tiny_report)
        assert report_from_dict(data) == tiny_report
        assert report_from_dict(data) == tiny_report

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

    def test_reports_without_err_proj_still_load(self, tiny_report):
        data = report_to_dict(tiny_report)
        for row in data["rows"]:
            for rec in row["records"]:
                del rec["err_proj"]
        loaded = report_from_dict(data)
        assert all(math.isnan(rec.err_proj) for rec in loaded.rows[0].records)

    def test_row_and_record_fields_survive(self, tiny_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(tiny_report, path, "json")
        loaded = load_report(path)
        rec0 = loaded.rows[0].records[0]
        assert isinstance(rec0, QRecord)
        assert isinstance(loaded.rows[0], ExperimentRow)
        assert rec0.q == tiny_report.rows[0].records[0].q
