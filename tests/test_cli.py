"""End-to-end tests of the command line interface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from rom2l.bench import CSV_COLUMNS, ExperimentConfig, load_report
from rom2l.cli import _build_parser, _offline_config, cli_main
from rom2l.pod import save_basis

# Flags that keep every subcommand fast: a 32-element mesh and a
# 17-point snapshot grid (retained rank 16).
COARSE = ["--h", "0.25", "--q-step", "0.5"]
# A three-point evaluation sweep for the experiment subcommands.
SWEEP = ["--q-start", "-1", "--q-end", "1", "--q-step", "1", "--reps", "1"]


@pytest.fixture(scope="module")
def basis_file(coarse_basis, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "basis.txt"
    save_basis(coarse_basis, path)
    return str(path)


class TestUsageErrors:
    def test_no_command(self):
        assert cli_main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert cli_main(["-h"]) == 0
        out = capsys.readouterr().out
        for name in ("offline", "exp1", "exp2", "validate"):
            assert name in out

    @pytest.mark.parametrize(
        "argv, message",
        [(["exp1", "--pairs", "25:16"], "pair '25:16': need r < R (r >= R given)"),
         (["exp2", "--triples", "25:16:16"],
          "triple '25:16:16': need r < R2 (r >= R2 given)")],
        ids=["exp1", "exp2"],
    )
    def test_rejects_inverted_dims(self, basis_file, argv, message, capsys):
        rc = cli_main([*argv, "--basis", basis_file])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_exp2_rejects_two_part_triple(self, basis_file, capsys):
        rc = cli_main(["exp2", "--triples", "2:6", "--basis", basis_file])
        assert rc == 2
        assert "colon-separated" in capsys.readouterr().err

    def test_exp2_rejects_non_integer(self, basis_file):
        assert cli_main(["exp2", "--triples", "a:b:c", "--basis", basis_file]) == 2

    def test_unknown_guess_kind(self, basis_file):
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "zz", "--basis", basis_file]
        )
        assert rc == 2

    def test_missing_basis_file_is_reported(self, tmp_path, capsys):
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--basis", str(tmp_path / "nope.txt")]
            + COARSE
            + SWEEP
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem",
        [["--a", "-2", "--b", "2"], ["--alpha", "3"]],
        ids=["interval", "alpha"],
    )
    def test_basis_of_another_problem_is_refused(self, basis_file, problem, capsys):
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", basis_file]
            + COARSE
            + SWEEP
            + problem
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(["offline", "--h", "-1", "--out", "unused.txt"], "must be positive"),
         (["exp1", "--pairs", "4:8", "--q-step", "0"], "must be positive"),
         (["exp1", "--pairs", "4:8", "--reps", "0"], "must be at least 1"),
         (["offline", "--q-start", "4", "--q-end", "-4", "--out", "unused.txt"],
          "has no values"),
         (["exp1", "--pairs", "4:8", "--q-start", "4", "--q-end", "-4"],
          "has no values"),
         (["offline", "--rank-tol", "1.5", *COARSE, "--out", "unused.txt"],
          "must lie in (0, 1)"),
         (["validate", "--rank-tol", "1.5", *COARSE], "must lie in (0, 1)"),
         (["offline", "--alpha", "nan", *COARSE, "--out", "unused.txt"],
          "must be finite"),
         (["exp1", "--pairs", "4:8", "--beta", "inf", *COARSE], "must be finite"),
         (["exp1", "--pairs", "4:8", "--q-end", "inf"], "must be finite"),
         (["exp1", "--pairs", "4:8", *COARSE, "--nu", "inf", "--reps", "1"],
          "must be positive and finite"),
         (["validate", *COARSE, "--nu", "inf"],
          "must be positive and finite")],
        ids=["offline-h", "exp1-q-step", "exp1-reps", "offline-q-range",
             "exp1-q-range", "offline-rank-tol", "validate-rank-tol",
             "offline-alpha-nan", "exp1-beta-inf", "exp1-q-end-inf",
             "exp1-nu-inf", "validate-nu-inf"],
    )
    def test_invalid_configuration_is_reported(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "error: invalid configuration:" in err
        assert message in err

    @pytest.mark.parametrize(
        "edit",
        [None, ('"inner_product": "mass"', '"inner_product": "euclidean"')],
        ids=["junk", "euclidean-tag"],
    )
    def test_unreadable_basis_is_reported(self, basis_file, edit, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        if edit is None:
            path.write_text("1.0,2.0\n3.0,4.0\n")
        else:
            with open(basis_file, encoding="utf-8") as fh:
                path.write_text(fh.read().replace(*edit, 1))
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", str(path)]
            + COARSE
            + SWEEP
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestOffline:
    def test_builds_and_saves_a_basis(self, tmp_path, capsys):
        out = tmp_path / "basis.txt"
        rc = cli_main(["offline", *COARSE, "--out", str(out)])
        assert rc == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "retained rank: 16" in stdout
        assert "snapshots: 17" in stdout


class TestExperiments:
    def test_exp1_with_saved_basis(self, basis_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", basis_file,
             "--out", str(out)]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("avg,4,8,8,")
        stdout = capsys.readouterr().out
        assert f"report written to {out}" in stdout
        assert "| avg | 4 | 8 | 8 |" in stdout

    def test_exp1_prints_markdown_without_out(self, basis_file, capsys):
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", basis_file]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header, separator, one data row
        assert lines[0].startswith("| guess |")

    def test_exp2_triple(self, basis_file, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = cli_main(
            ["exp2", "--triples", "2:6:8", "--guess", "avg", "--basis", basis_file,
             "--out", str(out)]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        assert "| avg | 2 | 6 | 8 |" in out.read_text()

    def test_format_override(self, basis_file, tmp_path):
        out = tmp_path / "report.data"
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", basis_file,
             "--out", str(out), "--format", "json"]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        report = load_report(out)
        assert report.rows[0].guess == "avg"
        assert report.metadata["basis_rank"] == 16

    def test_upper_case_extension_picks_the_format(self, basis_file, tmp_path):
        out = tmp_path / "r.JSON"
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "--guess", "avg", "--basis", basis_file,
             "--out", str(out)]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        assert load_report(out).rows[0].guess == "avg"

    def test_multiple_pairs_make_multiple_rows(self, basis_file, capsys):
        rc = cli_main(
            ["exp1", "--pairs", "4:8", "6:10", "--guess", "avg",
             "--basis", basis_file]
            + COARSE
            + SWEEP
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header, separator, two data rows


class TestValidate:
    def test_all_checks_pass_on_the_coarse_setup(self, capsys):
        rc = cli_main(["validate", *COARSE])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_with_saved_basis(self, basis_file, capsys):
        rc = cli_main(["validate", *COARSE, "--basis", basis_file])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "8/8 checks passed" in out

    def test_basis_without_elements_is_reported(self, basis_file, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        with open(basis_file, encoding="utf-8") as fh:
            path.write_text(fh.read().replace('"n_elems": 32', '"n_elems": 0', 1))
        rc = cli_main(["validate", *COARSE, "--basis", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_basis_without_modes_is_reported(self, basis_file, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        with open(basis_file, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        header = header.replace('"rank": 16', '"rank": 0')
        path.write_text("\n".join([header, *(row.split(",")[0] for row in rows)]))
        rc = cli_main(["validate", *COARSE, "--basis", str(path)])
        assert rc == 1
        assert "rank 0" in capsys.readouterr().err

    def test_default_flags_are_the_reference_configuration(self):
        # validate checks the POD rank only when its flags give
        # ExperimentConfig(); flag defaults that drift from the config's
        # would drop that row silently.
        args = _build_parser().parse_args(["validate"])
        assert _offline_config(args) == ExperimentConfig()

    def test_rank_check_only_on_the_reference_configuration(self, capsys):
        # The default grid and h with another cutoff retain more than
        # the reference rank; that is not a failure of the rank check.
        rc = cli_main(["validate", "--rank-tol", "1e-10"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "POD rank" not in out
        assert "8/8 checks passed" in out


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rom2l", "-h"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "offline" in proc.stdout
