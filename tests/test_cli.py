"""End-to-end tests of the command line interface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from rom2l.bench import CSV_COLUMNS, load_report
from rom2l.cli import cli_main
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

    def test_exp1_rejects_inverted_pair(self, basis_file, capsys):
        rc = cli_main(["exp1", "--pairs", "25:16", "--basis", basis_file])
        assert rc == 2
        assert "need r < R" in capsys.readouterr().err

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
        "argv",
        [["offline", "--h", "-1", "--out", "unused.txt"],
         ["exp1", "--pairs", "4:8", "--q-step", "0"]],
        ids=["offline-h", "exp1-q-step"],
    )
    def test_invalid_configuration_is_reported(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 1
        assert "must be positive" in capsys.readouterr().err


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

    def test_rank_check_only_on_the_reference_configuration(self, capsys):
        # The default grid and h with another cutoff retain more than
        # 30 modes; that is not a failure of the reference rank check.
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
