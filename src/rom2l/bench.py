"""Benchmark harness comparing one-level and two-level reduced solves.

One experiment sweeps the bump center ``q`` over a grid and, for each
``(r, R1, R2)`` triple and starting-guess kind, measures

* the L2 error of the one-level solve at dimension ``R1`` and of the
  two-level solve (coarse dimension ``r``, correction dimension ``R2``)
  against the exact manufactured solution, averaged over the sweep, and
* the average wall time of both solves, each timed over ``reps``
  repetitions after one untimed run per parameter value: the solve
  that measured its error.

Timing covers the online stage only: per-parameter load-vector assembly
plus the solves. The parameter-independent operators are precomputed in
a shared :class:`~rom2l.rom.RomWorkspace`, and the forcing samples at
the quadrature points are primed by the error-pass solve, since the forcing
is problem data rather than work the solver should be charged for. Both
models are timed through the identical code path, so the comparison is
symmetric.

Error averages use exact summation, so they do not depend on the order
of the parameter grid. Parameter values where either model fails to
converge are excluded from both error and timing averages (and counted
in ``n_failures``), keeping the comparison fair.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fem
from .errors import (
    DimensionError,
    NoConvergence,
    SingularJacobian,
    SingularLinearSystem,
)
from .fem import FeFunction
from .manufactured import BurgersProblem, exact_u, with_parameter
from .pod import (
    DEFAULT_RANK_TOL,
    PodBasis,
    compute_pod,
    generate_snapshots,
    lift,
    parameter_grid,
)
from .rom import RomWorkspace
from .solvers import (
    GUESS_KINDS,
    NewtonConfig,
    one_level_solve,
    two_level_solve,
)

__all__ = [
    "ExperimentConfig",
    "QRecord",
    "ExperimentRow",
    "ExperimentReport",
    "build_basis",
    "run_experiment",
    "emit_report",
    "report_to_dict",
    "report_from_dict",
    "load_report",
]

logger = logging.getLogger(__name__)

CSV_COLUMNS = (
    "guess",
    "r",
    "R1",
    "R2",
    "err_2L",
    "time_2L_s",
    "err_1L",
    "time_1L_s",
    "error_ratio",
    "speedup",
    "n_failures",
)

_SOLVE_FAILURES = (NoConvergence, SingularJacobian, SingularLinearSystem)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run.

    Attributes:
        problem: problem template; its ``q`` is ignored, the grid below
            supplies the parameter values.
        q_start, q_end, q_step: inclusive parameter grid for both the
            snapshot set and the evaluation sweep.
        triples: dimension triples ``(r, R1, R2)``; the one-level model
            runs at ``R1``, the two-level model at ``(r, R2)``. For a
            head-to-head pair comparison use ``R1 == R2``. ``r == R2``
            is degenerate but allowed for testing.
        guesses: starting-guess kinds to run, a subset of
            ``("ug", "ig", "avg")``.
        reps: timed repetitions per parameter value.
        h: element size of the snapshot mesh.
        rank_tol: relative singular value cutoff for the POD.
        inner_product: POD inner product, ``"mass"`` or ``"euclidean"``.
        newton: Newton stopping rules for every solve.
    """

    problem: BurgersProblem = BurgersProblem()
    q_start: float = -4.0
    q_end: float = 4.0
    q_step: float = 0.01
    triples: tuple = ((12, 23, 23),)
    guesses: tuple = GUESS_KINDS
    reps: int = 100
    h: float = 1.0 / 200.0
    rank_tol: float = DEFAULT_RANK_TOL
    inner_product: str = "mass"
    newton: NewtonConfig = NewtonConfig()

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if self.q_step <= 0:
            raise ValueError(f"q_step must be positive, got {self.q_step}")
        if self.h <= 0:
            raise ValueError(f"element size must be positive, got {self.h}")
        if not self.guesses:
            raise ValueError("need at least one starting-guess kind")
        for g in self.guesses:
            if g not in GUESS_KINDS:
                raise ValueError(f"unknown guess kind {g!r}")
        if not self.triples:
            raise ValueError("need at least one (r, R1, R2) triple")
        for t in self.triples:
            r, r1, r2 = (int(v) for v in t)
            if not (1 <= r <= r2 and 1 <= r1):
                raise DimensionError(f"bad dimension triple {t}: need 1 <= r <= R2")

    def q_values(self) -> np.ndarray:
        return parameter_grid(self.q_start, self.q_end, self.q_step)


@dataclass(frozen=True)
class QRecord:
    """Per-parameter measurements for one (triple, guess) combination."""

    q: float
    err_1l: float
    err_2l: float
    iters_1l: int
    iters_2l_stage1: int
    time_1l_s: float
    time_2l_s: float
    failed_1l: bool
    failed_2l: bool


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated results for one (triple, guess) combination."""

    guess: str
    r: int
    r1: int
    r2: int
    err_2l: float
    time_2l_s: float
    err_1l: float
    time_1l_s: float
    error_ratio: float
    speedup: float
    n_failures: int
    records: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class ExperimentReport:
    """All rows of one experiment plus provenance metadata."""

    rows: tuple
    metadata: dict


def build_basis(cfg: ExperimentConfig) -> PodBasis:
    """Offline stage: snapshots and POD for a configuration."""
    mesh = fem.build_mesh(cfg.problem.a, cfg.problem.b, cfg.h)
    snaps = generate_snapshots(cfg.problem, cfg.q_values(), mesh)
    basis = compute_pod(snaps, cfg.inner_product, cfg.rank_tol)
    logger.info(
        "offline stage: %d snapshots on %d nodes, retained rank %d",
        snaps.n_snapshots,
        mesh.n_nodes,
        basis.rank,
    )
    return basis


def _mean(values) -> float:
    vals = list(values)
    if not vals:
        return math.nan
    return math.fsum(vals) / len(vals)


def _measure(ws, basis, triple, guess, prob_q, cfg) -> QRecord:
    """Errors of both solves at one parameter value and, when neither
    fails, their average wall times.

    The error solves are the untimed run before timing: they prime the
    forcing cache for the same ``q``.
    """
    r, r1, r2 = triple
    mesh = basis.mesh
    exact = exact_u(prob_q, mesh.nodes)
    err_1l = err_2l = t_1l = t_2l = math.nan
    iters_1l = iters_2l = -1
    failed_1l = failed_2l = False
    try:
        out1 = one_level_solve(basis, r1, prob_q, guess, cfg.newton, ws)
        diff = lift(basis, out1.coeffs).coeffs - exact
        err_1l = fem.l2_norm(FeFunction(mesh=mesh, coeffs=diff))
        iters_1l = out1.iterations
    except _SOLVE_FAILURES:
        failed_1l = True
    try:
        stage1, stage2 = two_level_solve(basis, r, r2, prob_q, guess, cfg.newton, ws)
        diff = lift(basis, stage2.coeffs).coeffs - exact
        err_2l = fem.l2_norm(FeFunction(mesh=mesh, coeffs=diff))
        iters_2l = stage1.iterations
    except _SOLVE_FAILURES:
        failed_2l = True
    if not (failed_1l or failed_2l):
        t_1l, t_2l = _time_pair(ws, basis, triple, guess, prob_q, cfg)
    return QRecord(
        q=float(prob_q.q),
        err_1l=err_1l,
        err_2l=err_2l,
        iters_1l=iters_1l,
        iters_2l_stage1=iters_2l,
        time_1l_s=t_1l,
        time_2l_s=t_2l,
        failed_1l=failed_1l,
        failed_2l=failed_2l,
    )


def _time_pair(ws, basis, triple, guess, prob_q, cfg):
    """Average wall times of both solves over ``cfg.reps`` repetitions."""
    r, r1, r2 = triple
    newton = cfg.newton
    t0 = time.perf_counter()
    for _ in range(cfg.reps):
        one_level_solve(basis, r1, prob_q, guess, newton, ws)
    t1 = time.perf_counter()
    for _ in range(cfg.reps):
        two_level_solve(basis, r, r2, prob_q, guess, newton, ws)
    t2 = time.perf_counter()
    return (t1 - t0) / cfg.reps, (t2 - t1) / cfg.reps


def run_experiment(cfg: ExperimentConfig, basis: PodBasis | None = None) -> ExperimentReport:
    """Run the full benchmark described by ``cfg``.

    Args:
        cfg: the experiment description.
        basis: optional precomputed POD basis; built from ``cfg`` when
            omitted.

    Returns:
        An :class:`ExperimentReport`; :func:`emit_report` writes it.

    Raises:
        DimensionError: if a triple exceeds the basis rank.
    """
    if basis is None:
        basis = build_basis(cfg)
    for t in cfg.triples:
        if max(t[1], t[2]) > basis.rank:
            raise DimensionError(
                f"triple {t} exceeds the basis rank {basis.rank}"
            )
    q_values = cfg.q_values()
    r_max = max(max(t[1], t[2]) for t in cfg.triples)
    ws = RomWorkspace(basis, r_max, cfg.problem.nu)
    rows = []
    for triple in cfg.triples:
        triple = tuple(int(v) for v in triple)
        for guess in cfg.guesses:
            records = tuple(
                _measure(ws, basis, triple, guess, with_parameter(cfg.problem, q), cfg)
                for q in q_values
            )
            ok = [rec for rec in records if not (rec.failed_1l or rec.failed_2l)]
            err_1l = _mean(rec.err_1l for rec in ok)
            err_2l = _mean(rec.err_2l for rec in ok)
            t_1l = _mean(rec.time_1l_s for rec in ok)
            t_2l = _mean(rec.time_2l_s for rec in ok)
            rows.append(
                ExperimentRow(
                    guess=guess,
                    r=triple[0],
                    r1=triple[1],
                    r2=triple[2],
                    err_2l=err_2l,
                    time_2l_s=t_2l,
                    err_1l=err_1l,
                    time_1l_s=t_1l,
                    error_ratio=err_2l / err_1l if err_1l else math.nan,
                    speedup=t_1l / t_2l if t_2l else math.nan,
                    n_failures=len(records) - len(ok),
                    records=records,
                )
            )
            logger.info(
                "triple (%d, %d, %d) guess %s: error ratio %.4f, speedup %.3f, "
                "%d failures",
                *triple,
                guess,
                rows[-1].error_ratio,
                rows[-1].speedup,
                rows[-1].n_failures,
            )

    metadata = {
        "problem": asdict(cfg.problem),
        "q_start": cfg.q_start,
        "q_end": cfg.q_end,
        "q_step": cfg.q_step,
        "n_q": int(q_values.size),
        "triples": [list(t) for t in cfg.triples],
        "guesses": list(cfg.guesses),
        "reps": cfg.reps,
        "h": cfg.h,
        "rank_tol": cfg.rank_tol,
        "inner_product": cfg.inner_product,
        "newton": asdict(cfg.newton),
        "basis_rank": basis.rank,
        "basis": ws.fingerprint,
        "clock": "time.perf_counter",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def _format_for_path(path) -> str:
    s = str(path).lower()
    if s.endswith(".json"):
        return "json"
    if s.endswith(".md") or s.endswith(".markdown"):
        return "markdown"
    return "csv"


def _row_cells(row: ExperimentRow) -> list:
    return [
        row.guess,
        row.r,
        row.r1,
        row.r2,
        f"{row.err_2l:.6e}",
        f"{row.time_2l_s:.6e}",
        f"{row.err_1l:.6e}",
        f"{row.time_1l_s:.6e}",
        f"{row.error_ratio:.4f}",
        f"{row.speedup:.3f}",
        row.n_failures,
    ]


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready dictionary with every row and per-parameter record."""
    return {
        "format": "rom2l-report",
        "version": 1,
        "metadata": report.metadata,
        "rows": [asdict(row) | {"records": [asdict(r) for r in row.records]}
                 for row in report.rows],
    }


def report_from_dict(data: dict) -> ExperimentReport:
    """Inverse of :func:`report_to_dict`."""
    if data.get("format") != "rom2l-report":
        raise ValueError("not a benchmark report dictionary")
    rows = []
    for rd in data["rows"]:
        records = tuple(QRecord(**r) for r in rd.pop("records", []))
        rows.append(ExperimentRow(records=records, **rd))
    return ExperimentReport(rows=tuple(rows), metadata=data["metadata"])


def format_report(report: ExperimentReport, fmt: str = "markdown") -> str:
    """Render a report as ``csv``, ``markdown`` or ``json`` text.

    Raises:
        ValueError: for any other format name.
    """
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=1) + "\n"
    if fmt == "csv":
        stream = io.StringIO()
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_row_cells(row) for row in report.rows)
        return stream.getvalue()
    if fmt == "markdown":
        rows = [CSV_COLUMNS] + [_row_cells(row) for row in report.rows]
        lines = ["| " + " | ".join(map(str, cells)) + " |" for cells in rows]
        lines.insert(1, "|" + "|".join(["---"] * len(CSV_COLUMNS)) + "|")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: ExperimentReport, path, fmt: str | None = None) -> None:
    """Write a report to ``path`` as ``csv``, ``markdown``, or ``json``.

    Without ``fmt`` the extension of ``path`` picks the format, ignoring
    case: ``.json``, ``.md`` or ``.markdown``, anything else means CSV.
    """
    text = format_report(report, fmt or _format_for_path(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_report(path) -> ExperimentReport:
    """Read back a report written in JSON format."""
    with open(path, "r", encoding="utf-8") as fh:
        return report_from_dict(json.load(fh))
