"""Command line interface.

Four subcommands:

* ``offline``: build a POD basis from the manufactured solution family
  and save it to a file.
* ``exp1``: head-to-head comparison of the one-level model at dimension
  R against the two-level model (r, R) for one or more ``r:R`` pairs.
* ``exp2``: comparison with a larger correction dimension, for one or
  more ``r:R1:R2`` triples.
* ``validate``: print one PASS/FAIL line per property check of
  :func:`rom2l.checks.run_checks`, where the checks and their bounds live.

``exp1`` and ``exp2`` share one handler: a pair ``r:R`` is the triple
``r:R:R``, and both refuse a spec unless ``r < R2``, its last part. The
one-level model is the two-level model without its correction; both run
through one routine of :mod:`rom2l.solvers`.

Exit codes: 0 success, 1 solver failures, failed validation checks or an
``error: ...`` message, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import checks
from .bench import (
    ExperimentConfig,
    build_basis,
    emit_report,
    format_report,
    run_experiment,
)
from .errors import RomError
from .manufactured import BurgersProblem
from .pod import DEFAULT_RANK_TOL, load_basis, save_basis
from .solvers import GUESS_KINDS

__all__ = ["cli_main", "script_entry"]

# The problem flags, named after the BurgersProblem fields they set.
_PROBLEM_FLAGS = ("a", "b", "alpha", "beta", "nu", "k", "sigma")
# The experiment subcommands: the name of one dimension spec, its form,
# whose last part is the correction dimension, and the subcommand help.
_EXPERIMENTS = {
    "exp1": ("pair", "r:R", "compare 1L at R with 2L (r, R) for r:R pairs"),
    "exp2": (
        "triple", "r:R1:R2", "compare 1L at R1 with 2L (r, R2) for r:R1:R2 triples"
    ),
}


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

    for command, (noun, form, help_text) in _EXPERIMENTS.items():
        p_exp = sub.add_parser(command, help=help_text)
        _add_problem_args(p_exp)
        p_exp.add_argument(
            f"--{noun}s", dest="specs", nargs="+", required=True, metavar=form,
            help=f"dimension {noun}s",
        )
        _add_experiment_args(p_exp)

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
            problem=BurgersProblem(**{f: getattr(args, f) for f in _PROBLEM_FLAGS}),
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


def _cmd_experiment(args, parser) -> int:
    noun, form, _ = _EXPERIMENTS[args.command]
    names = form.split(":")
    big = names[-1]
    triples = []
    for text in args.specs:
        d = _parse_dims(text, len(names), parser)
        if d[0] >= d[-1]:
            parser.error(f"{noun} {text!r}: need r < {big} (r >= {big} given)")
        triples.append((d[0], d[1], d[-1]))
    cfg = _offline_config(
        args, triples=tuple(triples), guesses=tuple(args.guess), reps=args.reps
    )
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


def _cmd_validate(args) -> int:
    cfg = _offline_config(args)
    basis = load_basis(args.basis) if args.basis else build_basis(cfg)
    reference = not args.basis and cfg == ExperimentConfig()
    results = checks.run_checks(
        cfg.problem, basis, checks.REFERENCE_RANK if reference else None
    )
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cli_main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command == "offline":
            return _cmd_offline(args)
        if args.command in _EXPERIMENTS:
            return _cmd_experiment(args, parser)
        return _cmd_validate(args)
    except SystemExit as exc:  # -h, usage errors and parser.error in handlers
        return int(exc.code) if exc.code is not None else 0
    except (RomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script_entry() -> None:
    """Console-script wrapper around :func:`cli_main`."""
    raise SystemExit(cli_main())
