"""The four rom2l benchmark workloads, their checks and their metrics.

Every workload is a closed loop: one caller, one process, one BLAS
thread, and the next call starts when the previous one has returned.
Inputs come from the seed only. The loop calls public functions of
``rom2l.bench``, ``rom2l.solvers``, ``rom2l.rom``, ``rom2l.pod``,
``rom2l.fem`` and ``rom2l.manufactured``; every answer is checked
afterwards, outside the timed region, against the manufactured exact
solution and against the reference errors in ``reference.json``.

A *unit* is what the gated latency and rate metrics count: one parameter
value answered by every model the workload compares. On ``paper-ug``
and ``fresh-avg`` that is a one-level plus a two-level solve, on
``exp1-sweep`` one ``(q, pair)`` record of the harness, on ``fom`` one
full-order solve. See README.md for why.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import rom2l
from rom2l import bench, fem, manufactured, pod, rom, solvers
from rom2l.errors import RomError

from tracing import SETUP, UNTIMED, LayerStats, Tracer

HERE = Path(__file__).resolve().parent
SPANS_DIR = HERE.parent / ".bench_spans"  # traced runs write their spans here
MIN_BEYOND = 10  # samples a tail percentile must have beyond it
GATED_TAIL = 90  # percentile of the gated latency metric, p90_us
MIN_UNITS = 120  # units a timed run collects, so p90 has >= 10 beyond
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
MESH_BUILDS = 20000  # mesh builds per fom set-up, timed as one block
PAPER_REPS = 4  # timed 1L/2L pairs per parameter value on paper-ug
FRESH_POINTS = 1024  # off-grid parameter values of fresh-avg


@dataclass(frozen=True)
class Config:
    """Problem sizes of one benchmark configuration.

    The default is the paper's reference configuration; the smoke test
    uses a coarse one.
    """

    h: float = 1.0 / 200.0
    q_step: float = 0.01  # snapshot grid, also the reference grid
    r_max: int = 30
    paper: tuple = (12, 23)  # (r, R), alternating "ug" start
    fresh: tuple = (18, 25)  # (r, R), mean "avg" start
    sweep_pairs: tuple = ((12, 23), (18, 25), (20, 27))
    sweep_q_step: float = 0.8  # a multiple of q_step
    reference: str | None = "reference.json"

    @property
    def problem(self) -> manufactured.BurgersProblem:
        return manufactured.BurgersProblem()

    def grid(self) -> np.ndarray:
        p = self.problem
        return pod.parameter_grid(p.a, p.b, self.q_step)

    def fresh_table(self) -> np.ndarray:
        """Off-grid parameter values, one in the middle of each of
        ``FRESH_POINTS`` equal cells of the interval.

        With 1024 cells on [-4, 4] the cell centres sit at odd multiples
        of 1/256 from the left end, never on the 0.01 snapshot grid.
        """
        p = self.problem
        k = np.arange(FRESH_POINTS)
        return p.a + (p.b - p.a) * (k + 0.5) / FRESH_POINTS

    def experiment(self, **kw) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(**({"h": self.h, "q_step": self.q_step} | kw))


COARSE = Config(
    h=0.25,
    q_step=0.5,
    r_max=12,
    paper=(4, 8),
    fresh=(6, 10),
    sweep_pairs=((4, 8), (6, 10), (6, 12)),
    sweep_q_step=2.0,
    reference=None,
)


def model_key(kind: str, dims, guess: str) -> str:
    return f"{kind}:{':'.join(str(d) for d in dims)}:{guess}"


def basis_digest(basis: pod.PodBasis) -> str:
    """SHA-256 of the snapshot mean and mode bytes, stable across runs."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(basis.mean.coeffs).tobytes())
    h.update(np.ascontiguousarray(basis.modes).tobytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "ROM2L_THREADS": os.environ.get("ROM2L_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rom2l": rom2l.__version__,
    }


def l2_error(basis, mesh, prob, coeffs) -> float:
    """L2 error against ``exact_u`` of reduced (``basis`` given) or FE coefficients."""
    u = pod.lift(basis, coeffs).coeffs if basis is not None else coeffs
    diff = u - manufactured.exact_u(prob, mesh.nodes)
    return fem.l2_norm(fem.FeFunction(mesh=mesh, coeffs=diff))


def load_reference(cfg: Config) -> dict | None:
    if cfg.reference is None:
        return None
    with open(HERE / cfg.reference, encoding="utf-8") as fh:
        return json.load(fh)


def permutations(rng, n: int, gap: int = 0):
    """Endless stream of indices: one seeded permutation of ``range(n)`` after another.

    No index comes back within ``gap`` draws, also where two permutations
    meet; needs ``2 * gap <= n``.
    """
    last: set = set()
    while True:
        perm = rng.permutation(n).tolist()
        while last.intersection(perm[:gap]):
            perm = rng.permutation(n).tolist()
        yield from perm
        last = set(perm[n - gap:]) if gap else set()


@dataclass
class Pass:
    """Everything one pass over a workload's inputs measured."""

    samples: dict = field(default_factory=dict)  # kind -> list of ns
    units: list = field(default_factory=list)  # unit latencies, ns
    measured_ns: int = 0  # time the rate is taken over
    timed_ops: int = 0  # operations the per-layer metrics divide by
    answers: list = field(default_factory=list)  # (key, table, idx, coeffs | error)
    failures: Counter = field(default_factory=Counter)
    steps: int = 0
    wall_ns: int = 0
    warmup: bool = False  # a warm-up pass times nothing as an operation

    def add(self, kind: str, ns: int) -> None:
        self.samples.setdefault(kind, []).append(ns)


class Workload:
    """Base class: set-up, a step over one input, and the input stream."""

    name = ""
    coverage: tuple = ()

    def __init__(self, cfg: Config, tracer: Tracer):
        self.cfg = cfg
        self.prob = cfg.problem
        self.tracer = tracer
        self.grid = cfg.grid()
        self.basis = None
        self.ws = None
        self.mesh = None

    # -- set-up -----------------------------------------------------------
    def setup(self, once: bool = False) -> float:
        """Offline stage, repeated; returns the median seconds."""
        times = []
        for _ in range(1 if once else SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            self.basis = bench.build_basis(self.cfg.experiment())
            self.ws = rom.RomWorkspace(self.basis, self.cfg.r_max, self.prob.nu)
            times.append(time.perf_counter_ns() - t0)
        self.mesh = self.basis.mesh
        return statistics.median(times) / 1e9

    # -- timed calls ------------------------------------------------------
    def timed(self, run: Pass, fn, *args):
        """Call ``fn`` as one timed operation; returns ``(ns, result)``.

        A ``RomError`` is counted as a failure and gives ``(None, None)``;
        any other exception propagates.
        """
        run.timed_ops += 1
        self.tracer.op = UNTIMED if run.warmup else run.timed_ops
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
            ns = time.perf_counter_ns() - t0
        except RomError as exc:
            run.failures[type(exc).__name__] += 1
            return None, None
        finally:
            self.tracer.op = UNTIMED
        return ns, result

    def untimed(self, run: Pass, fn, *args):
        try:
            return fn(*args)
        except RomError as exc:
            run.failures[type(exc).__name__] += 1
            return None

    def with_q(self, q: float):
        return manufactured.with_parameter(self.prob, q)

    # -- subclasses ---------------------------------------------------------
    def inputs(self, rng):
        raise NotImplementedError

    def step(self, run: Pass, item) -> None:
        raise NotImplementedError

    def speedup_base(self, run: Pass):
        """``(mean 1L us, mean 2L us)`` of the pass, or ``None``."""
        if "1L" not in run.samples:
            return None
        return (np.mean(run.samples["1L"]) / 1e3, np.mean(run.samples["2L"]) / 1e3)


class _ReducedPair(Workload):
    """Shared step of the two online workloads: a timed 1L and a timed 2L call."""

    dims: tuple = ()
    guess = ""
    coverage = (
        "bench.build_basis", "pod.generate_snapshots", "pod.compute_pod",
        "rom.RomWorkspace", "fem.eval_at_quadrature",
        "solvers.one_level_solve", "solvers.two_level_solve",
        "solvers.newton_solve", "rom.residual", "rom.jacobian",
        "rom.operators", "rom.forcing_values", "rom.two_level_matrix_rhs",
    )

    def keys(self):
        r, R = self.dims
        return model_key("1L", (R,), self.guess), model_key("2L", (r, R), self.guess)

    def solve_1l(self, prob):
        return solvers.one_level_solve(
            self.basis, self.dims[1], prob, self.guess, None, self.ws)

    def solve_2l(self, prob):
        return solvers.two_level_solve(
            self.basis, self.dims[0], self.dims[1], prob, self.guess, None, self.ws)[1]

    def timed_pair(self, run: Pass, table, i1, i2, p1, p2) -> None:
        k1, k2 = self.keys()
        t1, out1 = self.timed(run, self.solve_1l, p1)
        t2, out2 = self.timed(run, self.solve_2l, p2)
        if out1 is not None:
            run.add("1L", t1)
            run.answers.append((k1, table, i1, out1.coeffs))
        if out2 is not None:
            run.add("2L", t2)
            run.answers.append((k2, table, i2, out2.coeffs))
        if out1 is not None and out2 is not None:
            run.units.append(t1 + t2)
            run.measured_ns += t1 + t2


class PaperUg(_ReducedPair):
    """Criterion-7 setting: on-grid ``q``, cached forcing, poor start."""

    name = "paper-ug"
    guess = "ug"

    def __init__(self, cfg, tracer):
        super().__init__(cfg, tracer)
        self.dims = cfg.paper

    def inputs(self, rng):
        return permutations(rng, self.grid.size)

    def step(self, run: Pass, idx) -> None:
        prob = self.with_q(self.grid[idx])
        k1, k2 = self.keys()
        for key, solve in ((k1, self.solve_1l), (k2, self.solve_2l)):
            out = self.untimed(run, solve, prob)  # warm-up: fills the forcing cache
            if out is not None:
                run.answers.append((key, "grid", idx, out.coeffs))
        for _ in range(PAPER_REPS):
            self.timed_pair(run, "grid", idx, idx, prob, prob)


class FreshAvg(_ReducedPair):
    """Every timed call gets a parameter value the forcing cache has not seen."""

    name = "fresh-avg"
    guess = "avg"
    coverage = _ReducedPair.coverage + ("manufactured.forcing_f",)

    def __init__(self, cfg, tracer):
        super().__init__(cfg, tracer)
        self.dims = cfg.fresh
        self.table = cfg.fresh_table()

    def inputs(self, rng):
        # The gap is wider than the workspace's forcing cache (8 entries),
        # so no timed call finds its parameter value there.
        stream = permutations(rng, self.table.size, gap=16)
        while True:
            yield next(stream), next(stream)

    def step(self, run: Pass, item) -> None:
        i1, i2 = item
        self.timed_pair(run, "fresh", i1, i2,
                        self.with_q(self.table[i1]), self.with_q(self.table[i2]))


class Exp1Sweep(Workload):
    """One ``bench.run_experiment`` call per step, on a seeded sub-grid."""

    name = "exp1-sweep"
    coverage = (
        "bench.build_basis", "pod.generate_snapshots", "pod.compute_pod",
        "rom.RomWorkspace", "fem.eval_at_quadrature",
        "bench.run_experiment", "solvers.one_level_solve",
        "solvers.two_level_solve", "manufactured.exact_u", "pod.lift",
        "fem.l2_norm",
    )

    def inputs(self, rng):
        cells = round(self.cfg.sweep_q_step / self.cfg.q_step)
        while True:
            yield int(rng.integers(cells))

    def step(self, run: Pass, offset) -> None:
        cfg = self.cfg
        ecfg = cfg.experiment(
            q_start=self.grid[offset],
            q_end=self.prob.b,
            q_step=cfg.sweep_q_step,
            triples=tuple((r, R, R) for r, R in cfg.sweep_pairs),
            guesses=("avg",),
            reps=1,
        )
        run.timed_ops += 1
        self.tracer.op = UNTIMED if run.warmup else run.timed_ops
        t0 = time.perf_counter_ns()
        try:
            report = bench.run_experiment(ecfg, self.basis)
            ns = time.perf_counter_ns() - t0
        finally:
            self.tracer.op = UNTIMED
        records = sum(len(row.records) for row in report.rows)
        run.measured_ns += ns
        run.units.append(ns / records)
        for row in report.rows:
            k1 = model_key("1L", (row.r1,), row.guess)
            k2 = model_key("2L", (row.r, row.r2), row.guess)
            for rec in row.records:
                idx = int(round((rec.q - self.grid[0]) / cfg.q_step))
                if abs(self.grid[idx] - rec.q) > 1e-9:
                    raise RuntimeError(f"sweep parameter {rec.q} is off the grid")
                run.failures["failed_1l"] += rec.failed_1l
                run.failures["failed_2l"] += rec.failed_2l
                if not rec.failed_1l:
                    run.answers.append((k1, "grid", idx, rec.err_1l))
                if not rec.failed_2l:
                    run.answers.append((k2, "grid", idx, rec.err_2l))
                if not (rec.failed_1l or rec.failed_2l):
                    run.add("1L", round(rec.time_1l_s * 1e9))
                    run.add("2L", round(rec.time_2l_s * 1e9))
        # Per-layer metrics are per (q, pair): the records this call returned.
        run.timed_ops += records - 1


class Fom(Workload):
    """Full-order Newton solves on seeded grid parameter values."""

    name = "fom"
    coverage = ("fem.build_mesh", "solvers.fom_solve", "fem.element_connectivity",
                "fem.quadrature_points", "manufactured.forcing_f")

    def setup(self, once: bool = False) -> float:
        """Mesh build only; the median over set-ups of the per-build time.

        One build takes microseconds, so each set-up times a block of
        builds that lasts about 0.3 s, long enough to average over the
        machine's slow spells.
        """
        builds = 1 if once else MESH_BUILDS
        times = []
        for _ in range(1 if once else SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            for _ in range(builds):
                self.mesh = fem.build_mesh(self.prob.a, self.prob.b, self.cfg.h)
            times.append((time.perf_counter_ns() - t0) / builds)
        return statistics.median(times) / 1e9

    def inputs(self, rng):
        return permutations(rng, self.grid.size)

    def step(self, run: Pass, idx) -> None:
        ns, u = self.timed(run, solvers.fom_solve, self.mesh, self.with_q(self.grid[idx]))
        if u is not None:
            run.add("fom", ns)
            run.units.append(ns)
            run.measured_ns += ns
            run.answers.append(("fom", "grid", idx, u.coeffs))


CLASSES = {cls.name: cls for cls in (PaperUg, FreshAvg, Exp1Sweep, Fom)}


def drive(wl: Workload, rng, seconds: float | None = None, steps: int | None = None,
          min_units: int = 0) -> Pass:
    """One warm-up step, then steps until ``seconds`` pass or ``steps`` are done.

    A timed run goes on past ``seconds`` until it has ``min_units`` units,
    but never past three times ``seconds``.
    """
    inputs = wl.inputs(rng)
    warm = Pass(warmup=True)
    wl.step(warm, next(inputs))
    run = Pass(answers=warm.answers, failures=warm.failures)
    t0 = time.perf_counter_ns()
    deadline = None if seconds is None else t0 + int(seconds * 1e9)
    for item in inputs:
        if steps is not None and run.steps >= steps:
            break
        if deadline is not None:
            now = time.perf_counter_ns()
            if now >= deadline and (len(run.units) >= min_units
                                    or now >= t0 + 3 * (deadline - t0)):
                break
        wl.step(run, item)
        run.steps += 1
    run.wall_ns = time.perf_counter_ns() - t0
    return run


# -- checks -----------------------------------------------------------------

@dataclass
class Verdict:
    attempted: int
    failed: int
    checked: int
    drifted: int
    worst_drift: str
    errors: dict  # key -> list of L2 errors

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.drifted == 0 and self.checked > 0


def check(wl: Workload, runs, reference: dict | None) -> Verdict:
    """Compute every answer's L2 error and compare it with the reference."""
    tol = reference["tolerance"] if reference else None
    errors: dict = {}
    memo: dict = {}
    drifted, worst, worst_msg = 0, -1.0, ""
    failed = sum(sum(r.failures.values()) for r in runs)
    answers = [a for r in runs for a in r.answers]
    table_q = {"grid": wl.grid, "fresh": getattr(wl, "table", None)}
    for key, table, idx, payload in answers:
        if isinstance(payload, float):
            err = payload
        else:
            seen = memo.get((key, table, idx))
            if seen is not None and np.array_equal(seen[0], payload):
                err = seen[1]
            else:
                basis = None if key == "fom" else wl.basis
                err = l2_error(basis, wl.mesh, wl.with_q(table_q[table][idx]), payload)
                memo[key, table, idx] = (payload, err)
        errors.setdefault(key, []).append(err)
        if not math.isfinite(err):
            drifted += 1
            continue
        if tol is not None:
            ref = reference["errors"][table][key][idx]
            gap = abs(err - ref)
            if gap > tol["atol"] + tol["rtol"] * ref:
                drifted += 1
                if gap > worst:
                    worst = gap
                    worst_msg = f"{key} at {table}[{idx}]: {err:.12e} vs {ref:.12e}"
    return Verdict(
        attempted=len(answers) + failed,
        failed=failed,
        checked=len(answers),
        drifted=drifted,
        worst_drift=worst_msg,
        errors=errors,
    )


# -- metrics ----------------------------------------------------------------

def tail(samples_ns, pct):
    """``(value_us, n, beyond)`` of the ``pct`` percentile of ``samples_ns``."""
    x = np.asarray(samples_ns, dtype=float)
    value = float(np.percentile(x, pct))
    return value / 1e3, x.size, int(np.sum(x > value))


def end_to_end(wl: Workload, run: Pass, setup_s: float) -> dict:
    """The gated metrics: set-up time and the p90 of unit latency."""
    value, n, beyond = tail(run.units, GATED_TAIL)
    if beyond < MIN_BEYOND:
        raise RuntimeError(
            f"{wl.name}: p{GATED_TAIL} has {beyond} of {n} samples beyond it, "
            f"need {MIN_BEYOND}; lengthen the run"
        )
    return {"setup_s": (setup_s, "s"), "p90_us": (value, "us")}


def tail_lines(name: str, samples_ns, pct: int, unit: str = "us") -> list:
    """Median and ``pct`` percentile lines of one sample set, with counts."""
    scale = 1e3 if unit == "ms" else 1.0
    p50, n, _ = tail(samples_ns, 50)
    pv, _, beyond = tail(samples_ns, pct)
    warn = "" if beyond >= MIN_BEYOND else f"; fewer than {MIN_BEYOND} beyond, too short"
    rows = ((f"{name}_p50_{unit}", p50, f"(n={n})"),
            (f"{name}_p{pct}_{unit}", pv, f"(n={n}, {beyond} beyond{warn})"))
    return [f"{label:<18} {v / scale:.4f} {unit} {note}" for label, v, note in rows]


def report_lines(wl: Workload, run: Pass, setup_s: float, verdict: Verdict) -> list:
    """The named per-model metrics that apply to this workload, with units and counts."""
    lines = [f"setup_s            {setup_s:.6f} s"]
    s = run.samples
    if wl.name in ("paper-ug", "fresh-avg"):
        lines += tail_lines("t1l", s["1L"], 99) + tail_lines("t2l", s["2L"], 99)
    if wl.name == "exp1-sweep":
        pairs = run.timed_ops
        lines.append(f"sweep_qps          {pairs / (run.measured_ns / 1e9):.3f} (q, pair)/s "
                     f"(n={pairs} in {len(run.units)} run_experiment calls)")
    if wl.name == "fom":
        lines += tail_lines("fom", s["fom"], 90, "ms")
    frac = verdict.failed / verdict.attempted
    lines.append(f"fail_frac          {frac:g} ratio ({verdict.failed}/{verdict.attempted})")
    errs = verdict.errors
    if wl.name == "fom":
        lines.append(f"err_fom_l2         {max(errs['fom']):.6e} L2 (max of {len(errs['fom'])})")
    else:
        for kind in ("1L", "2L"):
            vals = [e for k, v in errs.items() if k.startswith(kind + ":") for e in v]
            lines.append(f"err_{kind.lower()}_l2          {np.mean(vals):.6e} L2 "
                         f"(mean of {len(vals)})")
    p50, n, _ = tail(run.units, 50)
    p90, _, beyond = tail(run.units, GATED_TAIL)
    lines.append(f"unit               p50 {p50:.3f} us, p90 {p90:.3f} us "
                 f"(n={n}, {beyond} beyond)")
    base = wl.speedup_base(run)
    if base is not None:
        lines.append(f"speedup            {base[0] / base[1]:.4f} ratio "
                     f"(mean 1L {base[0]:.3f} us / mean 2L {base[1]:.3f} us)")
    return lines


def per_layer(wl: Workload, stats: LayerStats, traced: Pass, untraced: Pass,
              verdict: Verdict) -> dict:
    """Per-layer metrics of one traced pass, per timed operation unless in seconds."""
    ops = traced.timed_ops
    out = {}
    for name in ("pod.generate_snapshots", "pod.compute_pod", "rom.RomWorkspace",
                 "fem.eval_at_quadrature"):
        out[name + ".self_s"] = (stats.setup_self_s(name), "s")
    for name in ("manufactured.forcing_f", "rom.residual", "rom.jacobian", "fem.l2_norm"):
        out[name + ".calls"] = (stats.timed_calls(name) / ops, "count")
    for name in ("manufactured.forcing_f", "manufactured.exact_u", "rom.operators",
                 "rom.residual", "rom.jacobian", "rom.two_level_matrix_rhs",
                 "solvers.newton_solve", "solvers.one_level_solve",
                 "solvers.two_level_solve", "solvers.fom_solve", "fem.l2_norm",
                 "bench.run_experiment"):
        out[name + ".self_us"] = (stats.timed_self_us(name) / ops, "us")
    out["rom.forcing_values.hit_ratio"] = (stats.forcing_hit_ratio(), "ratio")
    out["solvers.newton_solve.iters"] = (stats.newton_iters(), "count")
    out["solvers.fom_solve.evals"] = (stats.fom_evals(), "count")
    base = wl.speedup_base(untraced)
    t1, t2 = base if base is not None else (0.0, 0.0)
    out["bench.t1l_mean_us"] = (t1, "us")
    out["bench.t2l_mean_us"] = (t2, "us")
    out["bench.speedup"] = (t1 / t2 if t2 else 0.0, "ratio")
    e1 = [e for k, v in verdict.errors.items() if k.startswith("1L:") for e in v]
    e2 = [e for k, v in verdict.errors.items() if k.startswith("2L:") for e in v]
    out["bench.error_ratio"] = (np.mean(e2) / np.mean(e1) if e1 else 0.0, "ratio")
    out["trace.overhead"] = (traced.wall_ns / untraced.wall_ns - 1.0, "ratio")
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    lines: list
    stats: LayerStats | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cfg: Config = Config()) -> Result:
    """Set up, measure and check one workload.

    With ``trace`` off the pass runs for ``seconds`` and gives the gated
    end-to-end metrics. With it on, an untraced pass runs for half the
    time, then the tracer is installed, the set-up runs once more and the
    same inputs are replayed for the same number of steps; the ratio of
    the two passes' wall times is the tracing overhead.
    """
    reference = load_reference(cfg)
    cls = CLASSES[name]
    wl = cls(cfg, Tracer())
    setup_s = wl.setup()
    lines = [f"workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}"]
    prov = provenance(seed)
    if wl.basis is not None:
        prov["basis_sha256"] = basis_digest(wl.basis)
        if reference is not None:
            prov["basis_matches_reference"] = prov["basis_sha256"] == reference["basis_sha256"]
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    if not trace:
        run = drive(wl, np.random.default_rng(seed), seconds=seconds, min_units=MIN_UNITS)
        verdict = check(wl, [run], reference)
        metrics = end_to_end(wl, run, setup_s)
        lines += report_lines(wl, run, setup_s, verdict)
        stats = None
    else:
        untraced = drive(wl, np.random.default_rng(seed), seconds=seconds / 2)
        tracer = Tracer()
        traced_wl = cls(cfg, tracer)
        with tracer:
            tracer.install(rom2l)
            tracer.op = SETUP
            traced_wl.setup(once=True)
            tracer.op = UNTIMED
            traced = drive(traced_wl, np.random.default_rng(seed), steps=untraced.steps)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{name}-seed{seed}.csv.gz"
        tracer.write(spans_path)
        lines.append(f"spans              {len(tracer.spans)} written to {spans_path}")
        verdict = check(traced_wl, [untraced, traced], reference)
        stats = LayerStats(tracer)
        stats.check_nesting()
        stats.check_coverage(cls.coverage)
        metrics = per_layer(traced_wl, stats, traced, untraced, verdict)
        lines += report_lines(wl, untraced, setup_s, verdict)
    lines.append(f"checked            {verdict.checked} answers, {verdict.drifted} "
                 f"off the reference{': worst ' + verdict.worst_drift if verdict.drifted else ''}")
    return Result(verdict.correct, verdict.attempted, verdict.failed, metrics, lines, stats)
