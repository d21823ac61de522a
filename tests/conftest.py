"""Shared fixtures: a coarse configuration for fast unit tests and the
full benchmark configuration for the acceptance suite."""

from __future__ import annotations

import numpy as np
import pytest

from rom2l import (
    BurgersProblem,
    ExperimentConfig,
    build_mesh,
    compute_pod,
    fem,
    generate_snapshots,
    parameter_grid,
    rom,
)
from rom2l.bench import build_basis


@pytest.fixture(autouse=True)
def fresh_shared_workspace():
    """Each test starts with an empty workspace memo, so no count of
    assemblies or forcing samples depends on the tests run before it."""
    rom.shared_workspace.cache_clear()


@pytest.fixture()
def workspace_builds(monkeypatch):
    """List that records ``(basis, r_max, nu)`` of every
    :class:`rom.RomWorkspace` assembled while the test runs."""
    built = []
    init = rom.RomWorkspace.__init__

    def spy(self, basis, r_max, nu):
        built.append((basis, r_max, nu))
        init(self, basis, r_max, nu)

    monkeypatch.setattr(rom.RomWorkspace, "__init__", spy)
    return built


@pytest.fixture(scope="session")
def default_problem():
    return BurgersProblem()


@pytest.fixture(scope="session")
def coarse_mesh():
    return build_mesh(-4.0, 4.0, 0.25)


@pytest.fixture(scope="session")
def coarse_basis(default_problem, coarse_mesh):
    """Small basis (65 nodes, 17 snapshots) for fast unit tests."""
    q_values = parameter_grid(-4.0, 4.0, 0.5)
    snaps = generate_snapshots(default_problem, q_values, coarse_mesh)
    return compute_pod(snaps)


@pytest.fixture(scope="session")
def reference_config():
    """The full benchmark configuration (801 snapshots, 3201 nodes)."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def reference_basis(reference_config):
    return build_basis(reference_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250819)


@pytest.fixture(scope="session")
def band_to_dense():
    """Expander of a ``(5, n)`` band in the layout of :func:`fem.interior_band`,
    where ``band[2 + i - j, j]`` holds entry ``(i, j)``, to its dense matrix."""

    def expand(band):
        n = band.shape[1]
        dense = np.zeros((n, n))
        for d in range(-2, 3):  # d = i - j
            j = np.arange(max(0, -d), min(n, n - d))
            dense[j + d, j] = band[2 + d, j]
        return dense

    return expand


@pytest.fixture(scope="session")
def elements_to_dense():
    """Assembler of element matrices in the layout of
    :func:`fem.element_matrices`, ``mats[3 * l + m, e]`` the entry of
    element ``e`` (global nodes ``2e .. 2e + 2``) at local row ``l`` and
    column ``m``, into the dense matrix on the interior nodes."""

    def assemble(mats):
        n_elems = mats.shape[1]
        dense = np.zeros((2 * n_elems + 1, 2 * n_elems + 1))
        for e in range(n_elems):
            dense[2 * e:2 * e + 3, 2 * e:2 * e + 3] += mats[:, e].reshape(3, 3)
        return dense[1:-1, 1:-1]

    return assemble


@pytest.fixture(scope="session")
def convection_tensor():
    """Assembler of the convection tensor ``B[i, j, k] = (phi_j * phi_k', phi_i)``
    of a basis's first ``r`` modes, one full slab per ``i``, built from
    :func:`fem.eval_at_quadrature` without the workspace under test."""

    def assemble(basis, r):
        vals, ders = fem.eval_at_quadrature(basis.mesh, basis.modes[:, :r])
        _, wq = fem.quadrature_points(basis.mesh)
        return np.stack(
            [(vals * (wq * vals[:, i])[:, None]).T @ ders for i in range(r)]
        )

    return assemble
