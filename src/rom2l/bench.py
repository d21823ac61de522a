"""Benchmark harness comparing one-level and two-level reduced solves.

One experiment sweeps the bump center ``q`` over a grid and, for each
``(r, R1, R2)`` triple and starting-guess kind, measures

* the L2 error of the one-level solve at dimension ``R1`` and of the
  two-level solve (coarse dimension ``r``, correction dimension ``R2``)
  against the nodal interpolant ``I_h u_q`` of the exact manufactured
  solution, averaged over the sweep, and
* the average wall time of both solves, each timed over ``reps``
  repetitions after one untimed run per parameter value: the solve
  that measured its error.

The sweep runs ``q`` outermost, then the triples, then the guesses, so
each ``q`` samples its forcing once and every solve at that ``q`` finds
its load vector remembered in the workspace, which holds only the last
problem it served. Rows and records come out in the order of the
triples and guesses, each with its records in grid order.

Errors are taken in reduced coordinates. Once per ``q`` the harness
projects ``u = I_h u_q`` onto the leading ``r_max`` modes, ``p``, and
measures the L2 norm ``e`` of the remainder ``u - lift(p)``. The modes
are orthonormal in the mass inner product and the remainder is
orthogonal to them, so a reduced solution ``a`` of dimension ``R`` has
error ``sqrt(|a - p[:R]|^2 + |p[R:]|^2 + e^2)``: a sum of non-negative
terms, without cancellation, at O(R) cost per solve. The same split
gives the POD projection error of ``u`` at ``R1``.

Timing covers the online stage only: the operator views and the
solves. The parameter-independent operators are precomputed in one
:class:`~rom2l.rom.RomWorkspace` at the largest dimension of the triples,
which :func:`~rom2l.rom.shared_workspace` keeps, so calls with the same
basis object, that dimension and the same viscosity assemble it once.
The load vector of each ``q`` is primed by the error-pass solve, since
the forcing is problem data rather than work the solver should be
charged for. Both models are timed through the identical code path, so
the comparison is symmetric.

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
from .errors import DimensionError, NoConvergence, SingularJacobian, check_dimension
from .fem import FeFunction
from .manufactured import BurgersProblem, exact_u, with_parameter
from .pod import (
    DEFAULT_RANK_TOL,
    PodBasis,
    compute_pod,
    generate_snapshots,
    lift,
    parameter_grid,
    project,
)
from .rom import shared_workspace
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

_SOLVE_FAILURES = (NoConvergence, SingularJacobian)


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
        rank_tol: relative singular value cutoff for the mass-orthonormal
            POD, in (0, 1).
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
    newton: NewtonConfig = NewtonConfig()

    def __post_init__(self):
        if not isinstance(self.reps, (int, np.integer)) or self.reps < 1:
            raise ValueError(f"reps must be at least 1 and integral, got {self.reps!r}")
        alpha, beta = self.problem.alpha, self.problem.beta
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"boundary values must be finite, got {alpha} and {beta}")
        if self.q_values().size == 0:
            raise ValueError(
                f"parameter grid from {self.q_start} to {self.q_end} has no values"
            )
        if not self.h > 0:
            raise ValueError(f"element size must be positive, got {self.h}")
        if not 0 < self.rank_tol < 1:
            raise ValueError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")
        if not self.guesses:
            raise ValueError("need at least one starting-guess kind")
        for g in self.guesses:
            if g not in GUESS_KINDS:
                raise ValueError(f"unknown guess kind {g!r}")
        if not self.triples:
            raise ValueError("need at least one (r, R1, R2) triple")
        for t in self.triples:
            r, r1, r2 = t
            check_dimension(r1, 1, math.inf, f"triple {t}: R1")
            check_dimension(r2, 1, math.inf, f"triple {t}: R2")
            check_dimension(r, 1, r2, f"triple {t}: r")

    def q_values(self) -> np.ndarray:
        return parameter_grid(self.q_start, self.q_end, self.q_step)


@dataclass(frozen=True)
class QRecord:
    """Per-parameter measurements for one (triple, guess) combination.

    ``err_proj`` is the L2 error of the POD projection of ``I_h u_q``
    onto the leading ``R1`` modes, the floor under ``err_1l``; reports
    written without it load with NaN.
    """

    q: float
    err_1l: float
    err_2l: float
    iters_1l: int
    iters_2l_stage1: int
    time_1l_s: float
    time_2l_s: float
    failed_1l: bool
    failed_2l: bool
    err_proj: float = math.nan


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
    basis = compute_pod(snaps, cfg.rank_tol)
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


def _exact_split(basis, prob_q, r_max) -> tuple[np.ndarray, float]:
    """``I_h u_q`` split against the leading ``r_max`` modes: its
    coefficients ``p`` there and the L2 norm of the remainder
    ``I_h u_q - lift(p)``, which is mass-orthogonal to those modes."""
    mesh = basis.mesh
    u = FeFunction(mesh=mesh, coeffs=exact_u(prob_q, mesh.nodes))
    p = project(basis, u, r_max)
    remainder = u.coeffs - lift(basis, p).coeffs
    return p, fem.l2_norm(FeFunction(mesh=mesh, coeffs=remainder))


def _l2_error(a: np.ndarray, p: np.ndarray, rest: float) -> float:
    """L2 error of ``lift(a)`` against ``I_h u_q`` from the split
    ``(p, rest)`` of ``I_h u_q``, for ``a`` of any dimension up to
    ``p.size``."""
    head, tail = a - p[: a.size], p[a.size :]
    return math.sqrt(head @ head + tail @ tail + rest * rest)


def _measure(ws, basis, triple, guess, prob_q, split, cfg) -> QRecord:
    """Errors of both solves at one parameter value and, when neither
    fails, their average wall times.

    The error solves are the untimed run before timing: they leave the
    load vector of the same ``q`` in the workspace. Every error comes
    from ``split``, the pair :func:`_exact_split` returns for ``prob_q``.
    """
    r, r1, r2 = triple
    p, rest = split
    err_1l = err_2l = t_1l = t_2l = math.nan
    iters_1l = iters_2l = -1
    failed_1l = failed_2l = False
    try:
        out1 = one_level_solve(basis, r1, prob_q, guess, cfg.newton, ws)
        err_1l = _l2_error(out1.coeffs, p, rest)
        iters_1l = out1.iterations
    except _SOLVE_FAILURES:
        failed_1l = True
    try:
        stage1, stage2 = two_level_solve(basis, r, r2, prob_q, guess, cfg.newton, ws)
        err_2l = _l2_error(stage2.coeffs, p, rest)
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
        err_proj=_l2_error(p[:r1], p, rest),
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


def _row(triple, guess, records) -> ExperimentRow:
    """Aggregate one (triple, guess) combination's records."""
    ok = [rec for rec in records if not (rec.failed_1l or rec.failed_2l)]
    err_1l = _mean(rec.err_1l for rec in ok)
    err_2l = _mean(rec.err_2l for rec in ok)
    t_1l = _mean(rec.time_1l_s for rec in ok)
    t_2l = _mean(rec.time_2l_s for rec in ok)
    row = ExperimentRow(
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
    logger.info(
        "triple (%d, %d, %d) guess %s: error ratio %.4f, speedup %.3f, "
        "%d failures",
        *triple,
        guess,
        row.error_ratio,
        row.speedup,
        row.n_failures,
    )
    return row


def run_experiment(cfg: ExperimentConfig, basis: PodBasis | None = None) -> ExperimentReport:
    """Run the full benchmark described by ``cfg``.

    Args:
        cfg: the experiment description.
        basis: optional precomputed POD basis; built from ``cfg`` when
            omitted. Pass the same basis object to repeated calls: the
            workspace of its operators is then assembled once and reused
            while the largest dimension of the triples and the viscosity
            stay the same.

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
    ws = shared_workspace(basis, r_max, cfg.problem.nu)
    combos = [(tuple(int(v) for v in t), g) for t in cfg.triples for g in cfg.guesses]
    records = [[] for _ in combos]
    for q in q_values:
        prob_q = with_parameter(cfg.problem, q)
        split = _exact_split(basis, prob_q, r_max)
        for (triple, guess), recs in zip(combos, records):
            recs.append(_measure(ws, basis, triple, guess, prob_q, split, cfg))
    rows = [
        _row(triple, guess, tuple(recs))
        for (triple, guess), recs in zip(combos, records)
    ]
    # Lists, not tuples, so the metadata equals its JSON round trip.
    metadata = asdict(cfg) | {
        "triples": [list(t) for t in cfg.triples],
        "guesses": list(cfg.guesses),
        "n_q": int(q_values.size),
        "basis_rank": basis.rank,
        "basis": basis.fingerprint,
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


def _null_for_nonfinite(value):
    """``value`` with every NaN or infinite float, at any depth, as None,
    which JSON writes as ``null``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_for_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_for_nonfinite(v) for v in value]
    return value


def _nan_for_null(fields: dict) -> dict:
    return {k: math.nan if v is None else v for k, v in fields.items()}


def report_from_dict(data: dict) -> ExperimentReport:
    """Inverse of :func:`report_to_dict`; a row or record field that JSON
    holds as ``null`` is read as NaN."""
    if data.get("format") != "rom2l-report":
        raise ValueError("not a benchmark report dictionary")
    rows = []
    for rd in data["rows"]:
        records = tuple(QRecord(**_nan_for_null(r)) for r in rd["records"])
        rows.append(ExperimentRow(**{**_nan_for_null(rd), "records": records}))
    return ExperimentReport(rows=tuple(rows), metadata=data["metadata"])


def format_report(report: ExperimentReport, fmt: str = "markdown") -> str:
    """Render a report as ``csv``, ``markdown`` or ``json`` text.

    JSON is strict (RFC 8259): a NaN or infinite float, such as the
    error of a failed solve, is written as ``null``.

    Raises:
        ValueError: for any other format name.
    """
    if fmt == "json":
        data = _null_for_nonfinite(report_to_dict(report))
        return json.dumps(data, indent=1, allow_nan=False) + "\n"
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
