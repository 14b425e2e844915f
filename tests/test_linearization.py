import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasestab
from phasestab.actuator import build_actuator
from phasestab.cli import build_materials
from phasestab.linearization import F_second_parts, PhysicalParams, assemble_plant
from phasestab.spectral import ScalarField, SpectralBasis
from phasestab.stationary import stationary_constant

from oracles import eigenvectors

from phasebench.workloads import config_for


@pytest.fixture
def basis():
    return SpectralBasis(L=1.0, M=64)


@pytest.fixture
def default_plant(basis):
    params = PhysicalParams(nu=0.1, l0=1.0, gamma0=1.0)
    state = stationary_constant(0, basis=basis)
    return assemble_plant(params, state)


def interleaved(matrix, M):
    perm = np.empty(2 * M, dtype=int)
    perm[0::2] = np.arange(M)
    perm[1::2] = M + np.arange(M)
    return matrix[np.ix_(perm, perm)]


class TestPhysicalParams:
    def test_alpha0_defining_identity(self):
        p = PhysicalParams(nu=0.1, l0=2.0, gamma0=0.5)
        assert abs(p.gamma0 / p.alpha0 - p.alpha0 * p.l0) < 1e-14
        assert p.l == pytest.approx(p.gamma0 * p.l0, rel=1e-15)

    @given(
        l0=st.floats(0.1, 10.0),
        gamma0=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_alpha0_identity_property(self, l0, gamma0):
        p = PhysicalParams(nu=1.0, l0=l0, gamma0=gamma0)
        assert abs(p.gamma0 / p.alpha0 - p.alpha0 * p.l0) < 1e-13

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PhysicalParams(nu=-0.1)
        with pytest.raises(ValueError):
            PhysicalParams(l0=0.0)


class TestLinearizationData:
    def test_mean_F_second_at_zero(self, basis):
        phi = ScalarField.constant(basis, 0.0)
        assert F_second_parts(phi)[0] == pytest.approx(-1.0, abs=1e-14)

    def test_mean_F_second_at_one(self, basis):
        phi = ScalarField.constant(basis, 1.0)
        assert F_second_parts(phi)[0] == pytest.approx(2.0, rel=1e-14)

    def test_mean_F_second_cosine(self, basis):
        phi = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        assert F_second_parts(phi)[0] == pytest.approx(0.5, rel=1e-10)

    def test_g_vanishes_for_constant(self, basis):
        phi = ScalarField.constant(basis, 0.7)
        assert np.abs(F_second_parts(phi)[1].coeffs).max() < 1e-14

    @pytest.mark.parametrize("M", [2, 3, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_g_exactly_zero_for_constant_states(self, M, L):
        basis = SpectralBasis(L=L, M=M)
        for which in (-1, 0, 1):
            state = stationary_constant(which, basis=basis)
            assert np.all(F_second_parts(state.phi_inf)[1].coeffs == 0.0)

    def test_g_cosine_identity(self, basis):
        phi = ScalarField.from_values(basis, np.cos(np.pi * basis.nodes))
        g = F_second_parts(phi)[1]
        expected = 1.5 * np.cos(2 * np.pi * basis.nodes)
        assert np.abs(g.values - expected).max() < 1e-10

    def test_g_is_mean_free(self, basis):
        rng = np.random.default_rng(0)
        phi = ScalarField(basis, rng.standard_normal(basis.M) * np.exp(-0.3 * np.arange(basis.M)))
        assert abs(F_second_parts(phi)[1].mean) < 1e-12


class TestAssembledPlant:
    def test_mode_zero_block_is_zero(self, default_plant):
        assert np.abs(default_plant.A_blocks[0]).max() == 0.0

    def test_blocks_symmetric(self, default_plant):
        blocks = default_plant.A_blocks
        assert np.abs(blocks[:, 0, 1] - blocks[:, 1, 0]).max() < 1e-14

    def test_default_unstable_count(self, default_plant):
        # two conserved zeros at k=0 plus the single negative branch at k=1
        assert default_plant.N_unstable == 3
        assert default_plant.eigenvalues[0] < 0
        assert default_plant.eigenvalues[1] == 0.0
        assert default_plant.eigenvalues[2] == 0.0
        assert default_plant.eigenvalues[3] > 0

    def test_determinant_criterion_matches_count(self, default_plant):
        # block has a negative eigenvalue iff nu*kappa < gamma^2 - F_l
        plant = default_plant
        kap = plant.basis.kappa[1:]
        negatives = int(
            np.sum(plant.params.nu * kap < plant.params.gamma**2 - plant.F_l)
        )
        assert plant.N_unstable == 2 + negatives

    def test_closed_form_matches_dense_eigensolver(self, default_plant):
        M = default_plant.basis.M
        dense = np.sort(
            np.linalg.eigvalsh(interleaved(default_plant.operator_matrix(), M))
        )
        diff = np.abs(dense - default_plant.eigenvalues)
        scaled = diff / np.maximum(1.0, np.abs(default_plant.eigenvalues))
        assert scaled.max() <= 1e-9

    @pytest.mark.parametrize(
        "nu,l0,gamma0,phi_branch",
        [(0.1, 1.0, 1.0, 0), (1.7, 2.0, 0.3, 1), (0.05, 0.5, 2.0, -1)],
    )
    def test_dense_oracle_various_params(self, basis, nu, l0, gamma0, phi_branch):
        params = PhysicalParams(nu=nu, l0=l0, gamma0=gamma0)
        state = stationary_constant(phi_branch, basis=basis)
        plant = assemble_plant(params, state)
        dense = np.sort(np.linalg.eigvalsh(interleaved(plant.operator_matrix(), basis.M)))
        scaled = np.abs(dense - plant.eigenvalues) / np.maximum(
            1.0, np.abs(plant.eigenvalues)
        )
        assert scaled.max() <= 1e-9

    def test_eigenvector_gram_identity(self, default_plant):
        V = eigenvectors(default_plant)
        gram = V.T @ V
        assert np.abs(gram - np.eye(V.shape[0])).max() <= 1e-10

    def test_spectral_reconstruction(self, default_plant):
        V, lam = eigenvectors(default_plant), default_plant.eigenvalues
        recon = (V * lam) @ V.T
        A = default_plant.operator_matrix()
        assert np.abs(recon - A).max() <= 1e-9 * max(1.0, np.abs(A).max())

    def test_self_adjointness_random_pairs(self, default_plant):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.standard_normal(2 * default_plant.M)
            v = rng.standard_normal(2 * default_plant.M)
            left = default_plant.operator_matrix() @ u @ v
            right = u @ default_plant.operator_matrix() @ v
            scale = max(1.0, abs(left))
            assert abs(left - right) <= 1e-10 * scale

    def test_gershgorin_lower_bound(self, default_plant):
        blocks = default_plant.A_blocks
        bound = np.min(
            [
                blocks[:, 0, 0] - np.abs(blocks[:, 0, 1]),
                blocks[:, 1, 1] - np.abs(blocks[:, 1, 0]),
            ]
        )
        assert default_plant.eigenvalues[0] >= bound - 1e-12
        assert np.isfinite(default_plant.eigenvalues[0])
        assert default_plant.N_unstable < 2 * default_plant.M

    def test_zero_eigenvalue_multiplicity_two(self, default_plant):
        zeros = np.sum(np.abs(default_plant.eigenvalues) <= 1e-10)
        assert zeros == 2

    def test_huge_nu_only_mean_modes(self, basis):
        params = PhysicalParams(nu=100.0, l0=1.0, gamma0=1.0)
        state = stationary_constant(0, basis=basis)
        plant = assemble_plant(params, state)
        assert plant.N_unstable == 2
        # positive-definiteness of every k >= 1 block via the determinant test
        blocks = plant.A_blocks[1:]
        dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] ** 2
        assert np.all(dets > 0)
        assert np.all(blocks[:, 0, 0] + blocks[:, 1, 1] > 0)

    def test_third_zero_eigenvalue_warns(self, basis):
        # at nu = 1/pi^2 mode 1's block of phi_inf = 0 is singular: a third
        # zero joins the conserved-mean pair, and the split is ill-posed
        params = PhysicalParams(nu=0.10132118364233778, l0=1.0, gamma0=1.0)
        with pytest.warns(UserWarning, match="found 3"):
            plant = assemble_plant(params, stationary_constant(0, basis=basis))
        assert plant.N_unstable == 3


class TestUnstableSubspace:
    def test_returns_nonpositive_pairs(self, default_plant):
        act = build_actuator(default_plant)
        lam, vecs = act.lambdas, act.modes
        assert len(lam) == 3
        assert np.all(lam <= 1e-10)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_eigen_residual(self, default_plant):
        act = build_actuator(default_plant)
        lam, vecs = act.lambdas, act.modes
        for i in range(len(lam)):
            res = default_plant.operator_matrix() @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.abs(res).max() < 1e-10

    def test_split_named_only_in_linearization(self):
        # which modes count as unstable is decided once: every other module
        # reads the actuator's lambdas/modes instead of recounting
        for path in sorted(Path(phasestab.__file__).parent.glob("*.py")):
            if path.name == "linearization.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                assert name != "ZERO_EIGENVALUE_TOL", path.name


class TestClosedFormConventions:
    @given(
        nu=st.floats(0.005, 2.0),
        l0=st.floats(0.1, 10.0),
        gamma0=st.floats(0.1, 10.0),
        M=st.integers(2, 128),
        which=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:expected exactly the two conserved-mean zeros")
    def test_eigenpairs_match_eigh_with_fixed_signs_and_order(self, nu, l0, gamma0, M, which):
        # the sign convention and the order of the mean modes decide the
        # actuator's modes, and with them the columns of D and K
        basis = SpectralBasis(L=1.0, M=M)
        params = PhysicalParams(nu=nu, l0=l0, gamma0=gamma0)
        plant = assemble_plant(params, stationary_constant(which, basis=basis))
        lam, V = plant.eigenvalues, eigenvectors(plant)
        cols = np.arange(2 * M)

        # every column lives on one block k, and every block has two columns;
        # the first of them is the block's smaller root (branch 0)
        support = np.abs(V[:M]) + np.abs(V[M:])
        assert np.all(np.count_nonzero(support, axis=0) == 1)
        k = np.argmax(support, axis=0)
        assert np.array_equal(np.bincount(k, minlength=M), np.full(M, 2))
        branch = np.ones(2 * M, dtype=int)
        branch[np.unique(k, return_index=True)[1]] = 0
        assert np.array_equal(np.lexsort((branch, k, lam)), cols)

        # against LAPACK per block, up to the sign of each eigenvector
        ref_lam, ref_vec = np.linalg.eigh(plant.A_blocks)
        scale = np.maximum(1.0, np.abs(plant.A_blocks).max(axis=(1, 2)))[k]
        assert np.all(np.abs(lam - ref_lam[k, branch]) <= 1e-12 * scale)
        v = np.stack([V[k, cols], V[M + k, cols]], axis=1)
        u = ref_vec[k, :, branch]
        off = np.minimum(np.linalg.norm(v - u, axis=1), np.linalg.norm(v + u, axis=1))
        assert off.max() <= 1e-8

        # dominant component positive, y on a tie
        dominant = np.where(np.abs(v[:, 0]) >= np.abs(v[:, 1]), v[:, 0], v[:, 1])
        assert np.all(dominant > 0)

        # the two k = 0 mean modes lie on the axes, y directly before z
        y_mode = cols[(k == 0) & (branch == 0)][0]
        z_mode = cols[(k == 0) & (branch == 1)][0]
        assert lam[y_mode] == lam[z_mode] == 0.0
        assert (V[0, y_mode], V[M, y_mode]) == (1.0, 0.0)
        assert (V[0, z_mode], V[M, z_mode]) == (0.0, 1.0)
        assert z_mode == y_mode + 1


def _dense_eigenvectors(plant):
    """V as assemble_plant once stored it, densely: the closed-form block
    eigenpairs sorted by (lambda, k, branch), signs fixed per column."""
    M, blocks = plant.M, plant.A_blocks
    a, b, c = blocks[1:, 0, 0], blocks[1:, 0, 1], blocks[1:, 1, 1]
    half_tr = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    big = np.where(half_tr >= 0, half_tr + rad, half_tr - rad)
    other = (a * c - b * b) / big
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    ct, st = np.cos(theta), np.sin(theta)
    lam = np.concatenate([[0.0], np.minimum(big, other), [0.0], np.maximum(big, other)])
    vy = np.concatenate([[1.0], -st, [0.0], ct])
    vz = np.concatenate([[0.0], ct, [1.0], st])
    branch, k = np.divmod(np.arange(2 * M), M)
    order = np.lexsort((branch, k, lam))
    k, vy, vz = k[order], vy[order], vz[order]
    flip = np.where(np.abs(vy) >= np.abs(vz), vy < 0, vz < 0)
    vectors = np.zeros((2 * M, 2 * M))
    vectors[k, np.arange(2 * M)] = np.where(flip, -vy, vy)
    vectors[M + k, np.arange(2 * M)] = np.where(flip, -vz, vz)
    return vectors


def _assert_pattern_holds(plant):
    """The per-mode indices and rotations rebuild the dense closed-form eigenvectors bit for bit.

    So every nonzero of V lies in its mode's two columns, those columns are
    a permutation of range(2M), and no field of the plant holds (2M)^2 entries.
    """
    M, pos = plant.M, plant.eig_pos
    assert pos.shape == (M, 2) and plant.eig_rot.shape == (2, M, 2)
    assert np.array_equal(np.sort(pos, axis=None), np.arange(2 * M))
    assert eigenvectors(plant).tobytes() == _dense_eigenvectors(plant).tobytes()
    for f in dataclasses.fields(plant):
        value = getattr(plant, f.name)
        assert not isinstance(value, np.ndarray) or value.size < (2 * M) ** 2, f.name


class TestEigenvectorPattern:
    @pytest.mark.parametrize("M", [4, 64, 256])
    @pytest.mark.parametrize("L", [1.0, 2.5])
    @pytest.mark.parametrize("which", [-1, 0, 1])
    def test_constant_states(self, M, L, which):
        basis = SpectralBasis(L=L, M=M)
        plant = assemble_plant(PhysicalParams(), stationary_constant(which, basis=basis))
        _assert_pattern_holds(plant)

    def test_minimize_state(self):
        # the rho_ensemble workload's state, from stationary.mode = minimize
        _assert_pattern_holds(build_materials(config_for("rho_ensemble", 0)).plant)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_eigenbasis_maps_match_dense_V(self, default_plant, shape):
        # each entry is a sum of at most two products, so the maps agree
        # with the dense products to rounding and invert each other
        V = eigenvectors(default_plant)
        X = np.random.default_rng(5).standard_normal((len(V),) + shape)
        tol = 4 * np.finfo(float).eps * np.abs(X).max()
        to, back = default_plant.to_eigenbasis(X), default_plant.from_eigenbasis(X)
        assert to.shape == back.shape == X.shape
        assert np.abs(to - V.T @ X).max() <= tol
        assert np.abs(back - V @ X).max() <= tol
        assert np.abs(default_plant.from_eigenbasis(to) - X).max() <= tol
