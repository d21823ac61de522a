"""Run one rom2l benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-ug --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another in the
same process. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The lines before it give the
named per-model metrics with their units and sample counts, and the
provenance.

The program under test is imported from ``src/`` of the same checkout;
without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("paper-ug", "fresh-avg", "exp1-sweep", "fom")


def pin_threads() -> None:
    """One BLAS/OpenMP thread and no harness thread pool; call before NumPy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ROM2L_THREADS", None)


def import_program():
    """Import the ``workloads`` module against this checkout's ``src/rom2l``."""
    if not (SRC / "rom2l" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rom2l package under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import rom2l
    import workloads

    if Path(rom2l.__file__).resolve().parent != (SRC / "rom2l").resolve():
        raise ImportError(f"rom2l was imported from {rom2l.__file__}, not {SRC}")
    return workloads


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def metrics_json(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None, config=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = config or workloads.Config()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace), cfg)
        print("\n".join(res.lines), flush=True)
        results[name] = res
    if len(results) == 1:
        metrics = metrics_json(res.metrics)
    else:
        metrics = {f"{name}/{k}": v for name, r in results.items()
                   for k, v in metrics_json(r.metrics).items()}
    out = {
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
