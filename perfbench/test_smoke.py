"""Smoke test of the benchmark on a coarse configuration (h = 0.25, q step 0.5).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric of ``BENCHMARK.json`` prints with its unit,
that the tail percentiles report their sample counts, that the traced
run's self-time arithmetic holds and that the coverage check catches a
span that never fires. It takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_program()

import rom2l  # noqa: E402
from rom2l import manufactured, solvers  # noqa: E402
from tracing import CoverageError, LayerStats, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {
    "paper-ug": ("t1l_p50_us", "t1l_p99_us", "t2l_p50_us", "t2l_p99_us",
                 "err_1l_l2", "err_2l_l2", "speedup"),
    "fresh-avg": ("t1l_p50_us", "t1l_p99_us", "t2l_p50_us", "t2l_p99_us",
                  "err_1l_l2", "err_2l_l2"),
    "exp1-sweep": ("sweep_qps", "err_1l_l2", "err_2l_l2"),
    "fom": ("fom_p50_ms", "fom_p90_ms", "err_fom_l2"),
}


def run_coarse(capsys, name, trace, seconds=1.5):
    argv = ["--workload", name, "--seed", "3", "--seconds", str(seconds),
            "--trace", str(trace)]
    code = run.main(argv, config=workloads.COARSE)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(capsys, name, trace):
    code, text, result = run_coarse(capsys, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    named = {line.split()[0]: line for line in text}
    for metric in ("setup_s", "fail_frac") + NAMED[name]:
        assert metric in named, metric
        assert len(named[metric].split()) >= 3, named[metric]  # value and unit
    for metric in ("t1l_p99_us", "t2l_p99_us", "fom_p90_ms"):
        if metric in named:
            assert "(n=" in named[metric] and " beyond" in named[metric], named[metric]
            if not trace:  # the traced run's untraced half is too short for p99
                assert " beyond)" in named[metric], named[metric]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_forcing_cache_hits_on_grid_and_misses_off_grid(capsys):
    ratios = {}
    for name in ("paper-ug", "fresh-avg"):
        _, _, result = run_coarse(capsys, name, 1, seconds=0.6)
        ratios[name] = result["metrics"]["rom.forcing_values.hit_ratio"]["value"]
    assert ratios == {"paper-ug": 1.0, "fresh-avg": 0.0}


def test_self_time_arithmetic():
    res = workloads.run_workload("paper-ug", 4, 0.4, True, workloads.COARSE)
    stats = res.stats
    spans = stats.spans
    assert spans and min(stats.self_ns) >= 0
    child_total = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])
            child_total[parent] += end - start
    for i, (_, start, end, _, _) in enumerate(spans):
        assert stats.self_ns[i] == end - start - child_total[i]
    # Self times under a root span add up to the root's duration.
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    total_self = sum(stats.self_ns)
    assert total_self == sum(spans[i][2] - spans[i][1] for i in roots)


def test_coverage_check_catches_a_span_that_never_fires():
    cfg = workloads.COARSE
    prob = manufactured.with_parameter(cfg.problem, 0.25)
    original = solvers.one_level_solve
    tracer = Tracer()
    with tracer:
        tracer.install(rom2l)
        wl = workloads.PaperUg(cfg, tracer)
        wl.setup(once=True)
        wl.solve_1l(prob)
    assert solvers.one_level_solve is original
    stats = LayerStats(tracer)
    stats.check_coverage(["solvers.one_level_solve", "solvers.newton_solve",
                          "rom.residual", "rom.forcing_values",
                          "manufactured.forcing_f"])
    assert "manufactured.exact_d2u" not in stats.names  # inside the forcing leaf
    with pytest.raises(CoverageError, match="solvers.fom_solve"):
        stats.check_coverage(["rom.residual", "solvers.fom_solve"])


def test_empty_directory_run_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
