"""Write ``reference.json``: the L2 error of every answer the workloads can check.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Errors are computed the way the workloads compute them, on the default
configuration: the one- and two-level solves of ``paper-ug`` and
``fresh-avg`` over their parameter tables, the harness's own error pass
over the full 801-point grid for the ``exp1-sweep`` pairs, and the
full-order solve on the same grid. A run fails when one of its answers
is further from its reference than ``atol + rtol * reference``.
Regenerate the file only when a change is meant to alter the answers,
and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run

TOLERANCE = {"atol": 1e-10, "rtol": 1e-6}


def main() -> int:
    run.pin_threads()
    wl_mod = run.import_program()
    from rom2l import bench, solvers

    cfg = wl_mod.Config()
    paper = wl_mod.PaperUg(cfg, wl_mod.Tracer())
    paper.setup(once=True)
    fresh = wl_mod.FreshAvg(cfg, wl_mod.Tracer())
    fresh.basis, fresh.ws, fresh.mesh = paper.basis, paper.ws, paper.mesh
    grid, table = cfg.grid(), cfg.fresh_table()
    errors = {"grid": {}, "fresh": {}}

    def reduced(wl, qs, into):
        k1, k2 = wl.keys()
        into[k1], into[k2] = [], []
        for q in qs:
            prob = wl.with_q(q)
            into[k1].append(wl_mod.l2_error(wl.basis, wl.mesh, prob, wl.solve_1l(prob).coeffs))
            into[k2].append(wl_mod.l2_error(wl.basis, wl.mesh, prob, wl.solve_2l(prob).coeffs))

    reduced(paper, grid, errors["grid"])
    reduced(fresh, table, errors["fresh"])

    report = bench.run_experiment(
        cfg.experiment(
            triples=tuple((r, R, R) for r, R in cfg.sweep_pairs),
            guesses=("avg",),
            reps=1,
        ),
        paper.basis,
    )
    for row in report.rows:
        if row.n_failures or len(row.records) != grid.size:
            raise RuntimeError(f"reference sweep row {row.r}:{row.r2} is incomplete")
        errors["grid"][wl_mod.model_key("1L", (row.r1,), row.guess)] = [
            rec.err_1l for rec in row.records]
        errors["grid"][wl_mod.model_key("2L", (row.r, row.r2), row.guess)] = [
            rec.err_2l for rec in row.records]

    errors["grid"]["fom"] = [
        wl_mod.l2_error(None, paper.mesh, paper.with_q(q),
                        solvers.fom_solve(paper.mesh, paper.with_q(q)).coeffs)
        for q in grid
    ]
    for tab in errors.values():
        for key, vals in tab.items():
            tab[key] = [float(f"{v:.12g}") for v in vals]

    out = {
        "about": "L2 errors against exact_u; see make_reference.py",
        "tolerance": TOLERANCE,
        "basis_sha256": wl_mod.basis_digest(paper.basis),
        "grid": {"start": float(grid[0]), "step": cfg.q_step, "n": int(grid.size)},
        "fresh_points": wl_mod.FRESH_POINTS,
        "provenance": wl_mod.provenance(seed=None),
        "errors": errors,
    }
    path = wl_mod.HERE / cfg.reference
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
