"""Tests for snapshot generation and the POD basis."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from rom2l.checks import ORTHONORMALITY_MAX, orthonormality_defect
from rom2l.errors import BadBasisFile, DegenerateSnapshots, DimensionError
from rom2l.fem import FeFunction, interior_band, l2_norm
from rom2l.manufactured import exact_u, with_parameter
from rom2l.pod import (
    SnapshotSet,
    _mass_band,
    compute_pod,
    generate_snapshots,
    lift,
    load_basis,
    parameter_grid,
    project,
    reconstruction_error,
    save_basis,
)


class TestParameterGrid:
    def test_inclusive_endpoints(self):
        grid = parameter_grid(-4.0, 4.0, 0.01)
        assert grid.size == 801
        assert grid[0] == -4.0
        assert grid[-1] == pytest.approx(4.0, abs=1e-12)

    def test_endpoint_not_on_grid(self):
        grid = parameter_grid(0.0, 1.0, 0.3)
        np.testing.assert_allclose(grid, [0.0, 0.3, 0.6, 0.9])

    def test_rejects_bad_step(self):
        for start, stop, step in [
            (0.0, 1.0, 0.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
            (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (math.nan, 1.0, 0.1),
        ]:
            with pytest.raises(ValueError):
                parameter_grid(start, stop, step)


class TestSnapshots:
    def test_columns_sample_the_solution_family(self, default_problem, coarse_mesh):
        q_values = parameter_grid(-4.0, 4.0, 0.5)
        snaps = generate_snapshots(default_problem, q_values, coarse_mesh)
        assert snaps.matrix.shape == (coarse_mesh.n_nodes, 17)
        assert snaps.n_snapshots == 17
        np.testing.assert_array_equal(snaps.q_values, q_values)
        for j in (0, 8, 16):
            expected = exact_u(
                with_parameter(default_problem, q_values[j]), coarse_mesh.nodes
            )
            np.testing.assert_array_equal(snaps.matrix[:, j], expected)

    def test_shared_boundary_rows(self, default_problem, coarse_mesh):
        snaps = generate_snapshots(
            default_problem, parameter_grid(-4.0, 4.0, 1.0), coarse_mesh
        )
        np.testing.assert_allclose(snaps.matrix[0, :], 1.0, atol=1e-14)
        np.testing.assert_allclose(snaps.matrix[-1, :], -1.0, atol=1e-14)

    def test_single_snapshot_is_degenerate_for_pod(
        self, default_problem, coarse_mesh
    ):
        snaps = generate_snapshots(default_problem, np.array([0.0]), coarse_mesh)
        assert snaps.n_snapshots == 1
        with pytest.raises(DegenerateSnapshots):
            compute_pod(snaps)


    def test_non_finite_snapshots_are_refused(self, default_problem, coarse_mesh):
        grid = parameter_grid(-4.0, 4.0, 0.5)
        snaps = generate_snapshots(replace(default_problem, alpha=np.nan), grid, coarse_mesh)
        with pytest.raises(DegenerateSnapshots, match="non-finite"):
            compute_pod(snaps)
        snaps = generate_snapshots(default_problem, grid, coarse_mesh)
        snaps.matrix[5, 3] = np.inf
        with pytest.raises(DegenerateSnapshots, match="non-finite"):
            compute_pod(snaps)


class TestComputePod:
    def test_known_rank_is_recovered(self, coarse_mesh, rng):
        # Synthetic snapshots of exact rank 3 around a nonzero mean.
        n = coarse_mesh.n_nodes
        directions = np.linalg.qr(rng.standard_normal((n - 2, 3)))[0]
        weights = rng.standard_normal((3, 20))
        matrix = np.full((n, 20), 0.7)
        matrix[1:-1, :] += directions @ weights
        snaps = SnapshotSet(
            mesh=coarse_mesh, q_values=np.arange(20.0), matrix=matrix
        )
        assert compute_pod(snaps, rank_tol=1e-10).rank == 3

    def test_orthonormality(self, coarse_basis):
        assert orthonormality_defect(coarse_basis) < ORTHONORMALITY_MAX

    def test_orthonormality_defect_sees_a_scaled_mode(self, coarse_basis):
        modes = coarse_basis.modes.copy()
        modes[:, 3] *= 1.01
        scaled = replace(coarse_basis, modes=modes)
        assert orthonormality_defect(scaled) == pytest.approx(1.01**2 - 1, rel=1e-6)

    @pytest.mark.parametrize("array", ["modes", "mean"])
    def test_basis_arrays_are_read_only(self, coarse_basis, array):
        # Fresh copies, so a failure cannot corrupt the shared fixture.
        basis = replace(
            coarse_basis,
            modes=coarse_basis.modes.copy(),
            mean=FeFunction(coarse_basis.mesh, coarse_basis.mean.coeffs.copy()),
        )
        values = basis.modes if array == "modes" else basis.mean.coeffs
        with pytest.raises(ValueError, match="read-only"):
            values[1:3] = 0.0

    def test_a_derived_basis_has_its_own_fingerprint(self, coarse_basis):
        tag = coarse_basis.fingerprint
        assert coarse_basis.fingerprint is tag  # hashed once
        modes = coarse_basis.modes.copy()
        modes[:, 0] *= -1.0
        flipped = replace(coarse_basis, modes=modes)
        assert flipped.fingerprint != tag
        assert coarse_basis.fingerprint == tag

    def test_modes_vanish_at_the_boundary(self, coarse_basis):
        assert np.all(coarse_basis.modes[0, :] == 0.0)
        assert np.all(coarse_basis.modes[-1, :] == 0.0)
        # The mean carries the boundary data instead.
        assert coarse_basis.mean.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert coarse_basis.mean.coeffs[-1] == pytest.approx(-1.0, abs=1e-14)

    def test_singular_values_sorted_and_positive(self, coarse_basis):
        sv = coarse_basis.singular_values
        assert np.all(np.diff(sv) <= 0.0)
        assert sv[coarse_basis.rank - 1] > 0.0

    def test_tighter_tolerance_keeps_more_modes(
        self, default_problem, coarse_mesh
    ):
        snaps = generate_snapshots(
            default_problem, parameter_grid(-4.0, 4.0, 0.5), coarse_mesh
        )
        loose = compute_pod(snaps, rank_tol=1e-2)
        tight = compute_pod(snaps, rank_tol=1e-9)
        assert loose.rank < tight.rank
        # Nested bases: shared leading modes are identical.
        np.testing.assert_array_equal(
            loose.modes, tight.modes[:, : loose.rank]
        )

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-3, 1.0, 2.0])
    def test_rank_tolerance_outside_the_unit_interval(
        self, default_problem, coarse_mesh, rank_tol
    ):
        # From 1 up no singular value passes the cutoff, which would
        # leave a rank-0 basis.
        snaps = generate_snapshots(
            default_problem, parameter_grid(-4.0, 4.0, 1.0), coarse_mesh
        )
        with pytest.raises(ValueError, match="rank_tol"):
            compute_pod(snaps, rank_tol=rank_tol)


class TestProjectAndLift:
    def test_round_trip(self, coarse_basis, rng):
        a = rng.standard_normal(5)
        recovered = project(coarse_basis, lift(coarse_basis, a), 5)
        np.testing.assert_allclose(recovered, a, atol=1e-10)

    def test_projection_gram_matches_singular_values(
        self, default_problem, coarse_basis, coarse_mesh
    ):
        # Stacking the rank-r projections of all snapshots gives
        # diag(sigma) V^T, so the outer product recovers the squared
        # singular values.
        r = 4
        q_values = parameter_grid(-4.0, 4.0, 0.5)
        coeffs = np.column_stack(
            [
                project(
                    coarse_basis,
                    FeFunction(
                        mesh=coarse_mesh,
                        coeffs=exact_u(
                            with_parameter(default_problem, q), coarse_mesh.nodes
                        ),
                    ),
                    r,
                )
                for q in q_values
            ]
        )
        gram = coeffs @ coeffs.T
        expected = np.diag(coarse_basis.singular_values[:r] ** 2)
        np.testing.assert_allclose(
            gram, expected, atol=1e-8 * coarse_basis.singular_values[0] ** 2
        )

    def test_energy_identity(self, default_problem, coarse_basis, coarse_mesh):
        # Total squared reconstruction error at rank r equals the sum of
        # the squared discarded singular values.
        r = 6
        sv = coarse_basis.singular_values
        total = 0.0
        for q in parameter_grid(-4.0, 4.0, 0.5):
            u = FeFunction(
                mesh=coarse_mesh,
                coeffs=exact_u(with_parameter(default_problem, q), coarse_mesh.nodes),
            )
            total += reconstruction_error(coarse_basis, u, r) ** 2
        expected = float(np.sum(sv[r:] ** 2))
        assert total == pytest.approx(expected, rel=1e-8)

    def test_mass_band_is_built_once_per_mesh(self, coarse_mesh):
        band = _mass_band(coarse_mesh)
        assert _mass_band(coarse_mesh) is band
        assert not band.flags.writeable
        np.testing.assert_array_equal(band, interior_band(coarse_mesh, vv=1.0))

    def test_lift_constant_term(self, coarse_basis):
        u = lift(coarse_basis, np.zeros(3))
        np.testing.assert_array_equal(u.coeffs, coarse_basis.mean.coeffs)

    def test_dimension_checks(self, coarse_basis, coarse_mesh):
        u = FeFunction(mesh=coarse_mesh, coeffs=np.zeros(coarse_mesh.n_nodes))
        with pytest.raises(DimensionError):
            project(coarse_basis, u, 0)
        with pytest.raises(DimensionError):
            project(coarse_basis, u, coarse_basis.rank + 1)
        with pytest.raises(DimensionError):
            lift(coarse_basis, np.zeros((2, 2)))
        for r in (2.5, 3.0, "3"):
            with pytest.raises(DimensionError):
                project(coarse_basis, u, r)
        assert project(coarse_basis, u, np.int64(3)).shape == (3,)

    def test_full_rank_reconstruction_of_member_snapshots(
        self, default_problem, coarse_basis, coarse_mesh
    ):
        u = FeFunction(
            mesh=coarse_mesh,
            coeffs=exact_u(with_parameter(default_problem, -1.5), coarse_mesh.nodes),
        )
        err = reconstruction_error(coarse_basis, u, coarse_basis.rank)
        assert err / l2_norm(u) < 1e-6


class TestSaveLoad:
    def test_round_trip_is_exact(self, coarse_basis, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(coarse_basis, path)
        loaded = load_basis(path)
        np.testing.assert_array_equal(loaded.modes, coarse_basis.modes)
        np.testing.assert_array_equal(loaded.mean.coeffs, coarse_basis.mean.coeffs)
        np.testing.assert_array_equal(
            loaded.singular_values, coarse_basis.singular_values
        )
        np.testing.assert_array_equal(loaded.q_values, coarse_basis.q_values)
        assert loaded.mesh.n_nodes == coarse_basis.mesh.n_nodes
        assert loaded.mesh.h == coarse_basis.mesh.h
        assert loaded.problem == coarse_basis.problem

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            load_basis(path)

    @pytest.mark.parametrize(
        "edit",
        [
            ('"inner_product": "mass"', '"inner_product": "euclidean"'),
            ('"format": "rom2l-basis"', '"format": "other"'),
            ('"rank": 16', '"rank": 15'),
            ("\n", "\nnot-a-number,"),
            ('"n_elems": 32', '"n_elems": 0'),
            ('"n_elems": 32', '"n_elems": -2'),
            ('"n_elems": 32', '"n_elems": 32.5'),
            ('"a": -4.0', '"a": 4.0'),
        ],
        ids=["euclidean-tag", "format", "shape", "matrix", "no-elements",
             "negative-elements", "fractional-elements", "empty-interval"],
    )
    def test_refusals_are_typed(self, coarse_basis, tmp_path, edit):
        # Modes written as Euclidean-orthonormal would project with the
        # wrong inner product and give wrong coefficients silently.
        path = tmp_path / "basis.txt"
        save_basis(coarse_basis, path)
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1], 1))
        with pytest.raises(BadBasisFile):
            load_basis(path)

    def test_rank_zero_is_refused(self, coarse_basis, tmp_path):
        # A header and table that agree on no modes at all.
        path = tmp_path / "basis.txt"
        save_basis(coarse_basis, path)
        header, *rows = path.read_text().splitlines()
        assert '"rank": 16' in header
        rows = [row.split(",")[0] for row in rows]
        path.write_text("\n".join([header.replace('"rank": 16', '"rank": 0'), *rows]))
        with pytest.raises(BadBasisFile, match="rank 0"):
            load_basis(path)

    @pytest.mark.parametrize(
        "text",
        [
            "# not json\n1.0\n",
            "# [1, 2]\n1.0\n",
            '# {"format": "rom2l-basis", "inner_product": "mass"}\n1.0\n',
        ],
        ids=["bad-json", "not-an-object", "no-mesh"],
    )
    def test_unreadable_headers_are_typed(self, tmp_path, text):
        path = tmp_path / "junk.txt"
        path.write_text(text)
        with pytest.raises(BadBasisFile):
            load_basis(path)
