"""One- and two-level POD-Galerkin reduced order models of steady Burgers.

The package is organized in layers:

* :mod:`rom2l.fem`: quadratic finite elements on a uniform 1D mesh:
  element assembly and its condensed solve, the L2 norm and the
  convection form.
* :mod:`rom2l.manufactured`: the closed-form solution family
  (``exact_u``) and its forcing (``forcing_f``).
* :mod:`rom2l.pod`: snapshot generation and the POD basis.
* :mod:`rom2l.rom`: Galerkin-reduced operators.
* :mod:`rom2l.solvers`: Newton solvers (reduced and full-order) and the
  two-level correction step.
* :mod:`rom2l.bench`: error/timing benchmark harness.
* :mod:`rom2l.checks`: property checks shared by ``rom2l validate`` and
  the acceptance suite.
* :mod:`rom2l.cli`: command line interface.
"""

from .errors import (
    BadBasisFile,
    DegenerateSnapshots,
    DimensionError,
    InvalidMesh,
    MeshMismatch,
    NoConvergence,
    RomError,
    SingularJacobian,
    WorkspaceMismatch,
)
from .fem import (
    FeFunction,
    Mesh1D,
    build_mesh,
    element_matrices,
    interior_band,
    interior_load,
    l2_norm,
    solve_interior,
    trilinear_b,
)
from .manufactured import (
    BurgersProblem,
    exact_u,
    forcing_f,
    with_parameter,
)
from .pod import (
    DEFAULT_RANK_TOL,
    PodBasis,
    SnapshotSet,
    compute_pod,
    generate_snapshots,
    lift,
    load_basis,
    parameter_grid,
    project,
    reconstruction_error,
    save_basis,
)
from .rom import (
    RomOperators,
    RomWorkspace,
    jacobian,
    residual,
    two_level_matrix_rhs,
)
from .solvers import (
    NewtonConfig,
    SolveOutcome,
    fom_solve,
    make_guess,
    newton_solve,
    one_level_solve,
    two_level_solve,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    QRecord,
    build_basis,
    emit_report,
    load_report,
    run_experiment,
)
from .cli import cli_main

__version__ = "0.1.0"
