"""Command line interface.

Four subcommands:

* ``offline``: build a POD basis from the manufactured solution family
  and save it to a file.
* ``exp1``: head-to-head comparison of the one-level model at dimension
  R against the two-level model (r, R) for one or more ``r:R`` pairs.
* ``exp2``: comparison with a larger correction dimension, for one or
  more ``r:R1:R2`` triples.
* ``validate``: run the built-in property checks (full-order solver
  convergence study, POD orthonormality and rank, algebraic identities),
  measured by :mod:`rom2l.checks` as in the acceptance suite.

Exit codes: 0 success, 1 solver failures, failed validation checks or an
``error: ...`` message, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import checks, rom
from .bench import (
    ExperimentConfig,
    build_basis,
    emit_report,
    format_report,
    run_experiment,
)
from .errors import RomError
from .manufactured import BurgersProblem, with_parameter
from .pod import DEFAULT_RANK_TOL, load_basis, save_basis
from .solvers import GUESS_KINDS

__all__ = ["cli_main", "script_entry"]

logger = logging.getLogger(__name__)


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("problem and offline stage")
    group.add_argument("--a", type=float, default=-4.0, help="left endpoint")
    group.add_argument("--b", type=float, default=4.0, help="right endpoint")
    group.add_argument("--alpha", type=float, default=1.0, help="left boundary value")
    group.add_argument("--beta", type=float, default=-1.0, help="right boundary value")
    group.add_argument("--nu", type=float, default=1.0, help="viscosity")
    group.add_argument("--k", type=int, default=1, help="sine half-waves")
    group.add_argument("--sigma", type=float, default=0.5, help="envelope width")
    group.add_argument("--h", type=float, default=1.0 / 200.0, help="element size")
    group.add_argument("--q-start", type=float, default=-4.0, help="first bump center")
    group.add_argument("--q-end", type=float, default=4.0, help="last bump center")
    group.add_argument("--q-step", type=float, default=0.01, help="bump center spacing")
    group.add_argument(
        "--rank-tol",
        type=float,
        default=DEFAULT_RANK_TOL,
        help="relative singular value cutoff",
    )


def _problem_from(args) -> BurgersProblem:
    return BurgersProblem(
        a=args.a,
        b=args.b,
        alpha=args.alpha,
        beta=args.beta,
        nu=args.nu,
        k=args.k,
        sigma=args.sigma,
    )


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--guess",
        nargs="+",
        choices=GUESS_KINDS,
        default=list(GUESS_KINDS),
        help="starting-guess kinds to run",
    )
    parser.add_argument(
        "--reps", type=int, default=100, help="timed repetitions per parameter value"
    )
    parser.add_argument(
        "--basis", default=None, help="load a saved basis instead of recomputing"
    )
    parser.add_argument("--out", default=None, help="report file to write")
    parser.add_argument(
        "--format",
        choices=("csv", "markdown", "json"),
        default=None,
        help="report format (default: inferred from --out extension, else csv)",
    )


def _parse_dims(text: str, n_parts: int, parser: argparse.ArgumentParser):
    parts = text.split(":")
    if len(parts) != n_parts:
        parser.error(f"expected {n_parts} colon-separated integers, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        parser.error(f"non-integer dimension in {text!r}")
    if any(d < 1 for d in dims):
        parser.error(f"dimensions must be positive in {text!r}")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rom2l",
        description=(
            "One- and two-level reduced order models of the steady viscous "
            "Burgers equation, with a benchmark harness."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="build and save a POD basis")
    _add_problem_args(p_off)
    p_off.add_argument("--out", required=True, help="basis file to write")

    p_e1 = sub.add_parser(
        "exp1", help="compare 1L at R with 2L (r, R) for r:R pairs"
    )
    _add_problem_args(p_e1)
    p_e1.add_argument(
        "--pairs", nargs="+", required=True, metavar="r:R", help="dimension pairs"
    )
    _add_experiment_args(p_e1)

    p_e2 = sub.add_parser(
        "exp2", help="compare 1L at R1 with 2L (r, R2) for r:R1:R2 triples"
    )
    _add_problem_args(p_e2)
    p_e2.add_argument(
        "--triples",
        nargs="+",
        required=True,
        metavar="r:R1:R2",
        help="dimension triples",
    )
    _add_experiment_args(p_e2)

    p_val = sub.add_parser("validate", help="run the built-in property checks")
    _add_problem_args(p_val)
    p_val.add_argument(
        "--basis", default=None, help="check a saved basis instead of recomputing"
    )
    return parser


def _offline_config(args, **experiment) -> ExperimentConfig:
    """The problem and offline-stage flags as a configuration; the
    experiment fields are the defaults unless given as keywords."""
    try:
        return ExperimentConfig(
            problem=_problem_from(args),
            q_start=args.q_start,
            q_end=args.q_end,
            q_step=args.q_step,
            h=args.h,
            rank_tol=args.rank_tol,
            **experiment,
        )
    except ValueError as exc:
        raise RomError(f"invalid configuration: {exc}") from exc


def _cmd_offline(args) -> int:
    basis = build_basis(_offline_config(args))
    save_basis(basis, args.out)
    svals = basis.singular_values
    print(
        f"snapshots: {basis.q_values.size} on {basis.mesh.n_nodes} nodes; "
        f"retained rank: {basis.rank}"
    )
    print(
        f"singular values: largest {svals[0]:.6e}, "
        f"smallest retained {svals[basis.rank - 1]:.6e}"
    )
    print(f"basis written to {args.out}")
    return 0


def _experiment_config(args, triples) -> ExperimentConfig:
    return _offline_config(
        args, triples=tuple(triples), guesses=tuple(args.guess), reps=args.reps
    )


def _run_and_report(args, cfg: ExperimentConfig) -> int:
    basis = load_basis(args.basis) if args.basis else None
    report = run_experiment(cfg, basis=basis)
    if args.out:
        emit_report(report, args.out, args.format)
        print(f"report written to {args.out}")
    print(format_report(report, "markdown"), end="")
    failures = sum(row.n_failures for row in report.rows)
    if failures:
        print(f"warning: {failures} solver failures recorded", file=sys.stderr)
        return 1
    return 0


def _cmd_exp1(args, parser) -> int:
    triples = []
    for pair in args.pairs:
        r, big_r = _parse_dims(pair, 2, parser)
        if r >= big_r:
            parser.error(f"pair {pair!r}: need r < R (r >= R given)")
        triples.append((r, big_r, big_r))
    return _run_and_report(args, _experiment_config(args, triples))


def _cmd_exp2(args, parser) -> int:
    triples = []
    for text in args.triples:
        r, r1, r2 = _parse_dims(text, 3, parser)
        if r >= r2:
            parser.error(f"triple {text!r}: need r < R2 (r >= R2 given)")
        triples.append((r, r1, r2))
    return _run_and_report(args, _experiment_config(args, triples))


def _check(name: str, ok: bool, detail: str, results: list) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def _cmd_validate(args) -> int:
    results: list[bool] = []
    cfg = _offline_config(args)
    prob = cfg.problem
    rng = np.random.default_rng(20240817)

    orders, finest = checks.fom_convergence(prob)
    _check(
        "full-order convergence",
        min(orders) >= 2.7,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 2.7)",
        results,
    )
    _check(
        "full-order accuracy",
        finest <= 1e-6,
        f"L2 error {finest:.3e} at h=1/200 (need <= 1e-6)",
        results,
    )

    basis = load_basis(args.basis) if args.basis else build_basis(cfg)
    if not args.basis and cfg == ExperimentConfig():
        _check(
            "POD rank",
            basis.rank == 30,
            f"retained rank {basis.rank} (expected 30)",
            results,
        )
    defect = checks.orthonormality_defect(basis)
    _check(
        "POD orthonormality",
        defect <= 1e-10,
        f"max |Phi^T M Phi - I| {defect:.2e} in the mass inner product, "
        f"rank {basis.rank}",
        results,
    )

    parts, split = checks.convection_defects(basis.mesh, rng)
    _check(
        "integration-by-parts identity",
        parts <= 1e-12,
        f"max relative defect {parts:.2e} over 100 draws",
        results,
    )
    _check(
        "trilinear splitting identity",
        split <= 1e-12,
        f"max relative defect {split:.2e} over 100 draws",
        results,
    )

    r_small, r_big = (min(8, basis.rank), basis.rank) if basis.rank < 25 else (18, 25)
    prob_q = with_parameter(prob, 0.37)
    ops = rom.RomWorkspace(basis, r_big, prob.nu).operators(prob_q, r_big)
    telescoping = checks.telescoping_defect(ops, rng.standard_normal(r_small))
    _check(
        "correction telescoping identity",
        telescoping <= 1e-12,
        f"relative defect {telescoping:.2e}",
        results,
    )
    # A workspace of its own at r_small, so that the check can fail.
    small = rom.RomWorkspace(basis, r_small, prob.nu).operators(prob_q, r_small)
    nest = checks.nesting_defect(small, ops)
    _check(
        "nested operator blocks",
        nest <= 1e-13,
        f"relative defect {nest:.2e}",
        results,
    )
    fp, coarse_iterations = checks.degenerate_fixed_point(basis, r_big, prob_q)
    _check(
        "degenerate fixed point",
        fp <= 1e-8,
        f"relative distance {fp:.2e} (stage-1 iterations {coarse_iterations})",
        results,
    )

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def cli_main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "offline":
            return _cmd_offline(args)
        if args.command == "exp1":
            return _cmd_exp1(args, parser)
        if args.command == "exp2":
            return _cmd_exp2(args, parser)
        return _cmd_validate(args)
    except SystemExit as exc:  # parser.error inside subcommand handling
        return int(exc.code) if exc.code is not None else 0
    except (RomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script_entry() -> None:
    """Console-script wrapper around :func:`cli_main`."""
    raise SystemExit(cli_main())
