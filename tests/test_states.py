"""Core state algebra: construction, overlap, Schmidt coefficients, density matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_duality import (
    DensityMatrix,
    TwoPathState,
    concurrence_pure,
    default_scenarios,
    estimate_vdc_from_rho,
    overlap,
    pure_state_fidelity,
    random_two_path_state,
    schmidt_decompose,
    state_vector,
    to_density_matrix,
    wootters_concurrence,
)
from photon_duality import _kernels
from photon_duality.states import PSD_ATOL

HALF = math.sqrt(0.5)


def balanced_state(phi_b=(0, 1)):
    return TwoPathState(HALF, HALF, [1, 0], phi_b)


class TestConstruction:
    def test_internal_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="phi_b norm is 1.414"):
            TwoPathState(HALF, HALF, [1, 0], [1.0, 1.0])

    def test_internal_state_rejects_tiny_norm_violation(self):
        # 1e-9 is the hard validation limit; 1e-6 off must be rejected.
        with pytest.raises(ValueError, match="phi_a norm"):
            TwoPathState(HALF, HALF, [1.0 + 1e-6, 0.0], [0, 1])

    def test_internal_state_requires_dim_two_or_more(self):
        with pytest.raises(ValueError, match="phi_a needs dimension"):
            TwoPathState(1.0, 0.0, [1.0], [1.0])

    def test_two_path_state_requires_normalized_amplitudes(self):
        with pytest.raises(ValueError, match=r"\|c_a\|"):
            TwoPathState(1.0, 1.0, [1, 0], [0, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="phi_b norm"):
            TwoPathState(HALF, HALF, [1, 0], [bad, 0.0])
        with pytest.raises(ValueError, match=r"\|c_a\|"):
            TwoPathState(bad, HALF, [1, 0], [0, 1])

    @pytest.mark.parametrize("field", ["c_a", "c_b", "phi_a", "phi_b"])
    def test_oversized_integer_names_the_field(self, field):
        fields = {"c_a": 1.0, "c_b": 0.0, "phi_a": [1, 0], "phi_b": [0, 1]}
        fields[field] = 10**400 if field.startswith("c_") else [0, 10**400]
        with pytest.raises(ValueError, match=f"^{field}: number too large"):
            TwoPathState(**fields)

    @pytest.mark.parametrize("field", ["c_a", "c_b", "phi_a", "phi_b"])
    @pytest.mark.parametrize(
        "bad", ["1", b"1", True, False, np.True_, None, {}], ids=repr
    )
    def test_non_number_names_the_field(self, field, bad):
        # complex('1') and np.array([True], complex) would build a state;
        # complex(None) and complex({}) would raise TypeError.
        fields = {"c_a": 1.0, "c_b": 0.0, "phi_a": [1, 0], "phi_b": [0, 1]}
        fields[field] = bad if field.startswith("c_") else [bad, 0]
        with pytest.raises(ValueError, match=f"^{field}: .* is not a number"):
            TwoPathState(**fields)

    @pytest.mark.parametrize("arm", ["phi_a", "phi_b"])
    @pytest.mark.parametrize(
        "bad",
        ["ab", np.array(["1", "0"]), np.array([True, False]), [[1, 0], [1]]],
        ids=["str", "str-array", "bool-array", "ragged"],
    )
    def test_non_numeric_arm_names_the_field(self, arm, bad):
        fields = {"c_a": 1.0, "c_b": 0.0, "phi_a": [1, 0], "phi_b": [0, 1]}
        fields[arm] = bad
        with pytest.raises(ValueError, match=f"^{arm}: .* is not a number"):
            TwoPathState(**fields)

    def test_two_path_state_requires_matching_dims(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            TwoPathState(1.0, 0.0, [1, 0], [0, 1, 0])

    def test_degenerate_amplitude_is_legal(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [0, 1])
        assert overlap(s) == 0

    def test_amplitudes_are_read_only(self):
        s = balanced_state()
        with pytest.raises(ValueError):
            s.phi_a[0] = 2.0


class TestOverlap:
    def test_identical_states(self):
        s = TwoPathState(HALF, HALF, [1, 0], [1, 0])
        assert overlap(s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert overlap(balanced_state()) == pytest.approx(0.0, abs=1e-12)

    def test_partial_overlap(self):
        s = balanced_state(phi_b=(HALF, HALF))
        assert overlap(s) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_conjugate_linearity(self):
        # Swapping the arms conjugates gamma.
        a = [HALF, HALF * 1j]
        b = [1, 0]
        swapped = overlap(TwoPathState(HALF, HALF, b, a))
        assert overlap(TwoPathState(HALF, HALF, a, b)) == pytest.approx(np.conj(swapped))

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            s = random_two_path_state(rng, dim=int(rng.integers(2, 6)))
            assert abs(overlap(s)) <= 1 + 1e-12


class TestSchmidt:
    def test_product_state(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [0, 1])
        assert schmidt_decompose(s) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_maximally_entangled(self):
        assert schmidt_decompose(balanced_state()) == pytest.approx((HALF, HALF), abs=1e-12)

    def test_partial_overlap_coefficients(self):
        # SVD of [[1/sqrt2, 0], [1/2, 1/2]]: cos/sin of pi/8.
        lambda1, lambda2 = schmidt_decompose(balanced_state(phi_b=(HALF, HALF)))
        assert lambda1 == pytest.approx(0.9238795325112867, abs=1e-9)
        assert lambda2 == pytest.approx(0.3826834323650898, abs=1e-9)
        # Cross-check: lambda1*lambda2 = |c_a c_b| sqrt(1 - |gamma|^2).
        assert lambda1 * lambda2 == pytest.approx(0.5 * math.sqrt(1 - 0.5), abs=1e-12)

    def test_weights_on_unit_circle(self):
        # The two coefficients are pinned by their sum of squares and their
        # product |c_a c_b| sqrt(1 - |gamma|^2), in every dimension.
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = random_two_path_state(rng, dim=int(rng.integers(2, 5)))
            lams = schmidt_decompose(s)
            assert all(type(x) is float for x in lams)
            lambda1, lambda2 = lams
            assert lambda1**2 + lambda2**2 == pytest.approx(1.0, abs=1e-10)
            assert lambda1 >= lambda2 >= 0.0
            product = abs(s.c_a * s.c_b) * math.sqrt(max(0.0, 1.0 - abs(overlap(s)) ** 2))
            assert lambda1 * lambda2 == pytest.approx(product, abs=1e-10)


class TestConcurrencePure:
    def test_product(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [0, 1])
        assert concurrence_pure(schmidt_decompose(s)) == 0.0

    def test_maximal(self):
        assert concurrence_pure(schmidt_decompose(balanced_state())) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_partial(self):
        lams = schmidt_decompose(balanced_state(phi_b=(HALF, HALF)))
        assert concurrence_pure(lams) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_clipped_into_unit_interval(self):
        assert concurrence_pure((HALF + 1e-9, HALF + 1e-9)) == 1.0
        assert concurrence_pure((1.0, -1e-17)) == 0.0


class TestDensityMatrix:
    def test_single_path_projector(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [1, 0])
        rho = to_density_matrix(s)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_purity_one(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho = to_density_matrix(random_two_path_state(rng, dim=int(rng.integers(2, 5))))
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_near_unit_state_is_renormalized(self):
        # |c_b|^2 = 1 + 8e-10 is a valid state, but a trace that far off 1
        # fails the density matrix's own check unless divided out.
        rho = to_density_matrix(TwoPathState(0.0, 1.0000000004, [1, 0], [0, 1]))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)

    def test_unit_state_keeps_its_bits(self):
        # Off 1 by ulps, <psi|psi> is left undivided, so seeded draws from
        # rho stay as they were.
        for sc in default_scenarios():
            psi = state_vector(sc.state)
            assert np.array_equal(to_density_matrix(sc.state).matrix, np.outer(psi, psi.conj()))

    def test_bell_like_entries(self):
        rho = to_density_matrix(balanced_state())
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalues_by_default(self):
        mat = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError, match="physical"):
            DensityMatrix(mat)

    def test_positivity_is_decided_once(self, monkeypatch):
        # Construction checks positivity; reading the triple off the state
        # (Wootters concurrence included) does not check it again.
        calls = []
        eigvalsh = _kernels._eigvalsh

        def counting(mat):
            calls.append(1)
            return eigvalsh(mat)

        monkeypatch.setattr(_kernels, "_eigvalsh", counting)
        estimate_vdc_from_rho(to_density_matrix(balanced_state()))
        assert len(calls) == 1


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def random_rho(rng, rank):
    """Random 4 x 4 density matrix of the given rank: G G^H / Tr(G G^H)
    with G a complex Gaussian 4 x rank matrix."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestMixedStates:
    """Every physical two-qubit state lies inside the unit sphere,
    V^2 + D^2 + C^2 <= 1 (Jakob & Bergou, PRA 76, 052107, 2007), and no
    non-physical matrix becomes a ``DensityMatrix``."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_physical_states_stay_inside_the_sphere(self, seed, rank):
        rho = DensityMatrix(random_rho(np.random.default_rng(seed), rank))
        residual = estimate_vdc_from_rho(rho).residual
        assert residual <= 1e-12
        if rank == 1:  # a pure state lies on the sphere
            assert abs(residual) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.sampled_from([0.5, 2.0, 1e3, 1e6]),
    )
    def test_positivity_tolerance_is_the_boundary(self, seed, depth):
        # One eigenvalue at -depth * PSD_ATOL, the rest positive, unit trace.
        rng = np.random.default_rng(seed)
        evals = rng.uniform(0.1, 1.0, size=4)
        evals[0] = -depth * PSD_ATOL
        evals[1:] *= (1.0 - evals[0]) / evals[1:].sum()
        u = random_unitary(rng, 4)
        mat = (u * evals) @ u.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        if depth < 1.0:
            assert DensityMatrix(mat).matrix.shape == (4, 4)
        else:
            with pytest.raises(ValueError, match="not physical"):
                DensityMatrix(mat)


def marginal(rho, keep):
    """Reduced matrix of the path (2 x 2) or of the internal tag (d x d),
    read off the path-major layout."""
    d = rho.matrix.shape[0] // 2
    blocks = rho.matrix.reshape(2, d, 2, d)
    return np.einsum("aibi->ab" if keep == "path" else "aiaj->ij", blocks)


class TestPartialTrace:
    def test_single_path_state_path_marginal(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [1, 0])
        reduced = marginal(to_density_matrix(s), "path")
        np.testing.assert_allclose(reduced, np.diag([1.0, 0.0]), atol=1e-12)

    def test_marked_state_path_marginal_is_diagonal(self):
        # Orthogonal internal tags erase path coherence in the marginal.
        s = TwoPathState(math.sqrt(0.7), math.sqrt(0.3), [1, 0], [0, 1])
        reduced = marginal(to_density_matrix(s), "path")
        np.testing.assert_allclose(reduced, np.diag([0.7, 0.3]), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        for keep in ("path", "internal"):
            rho = to_density_matrix(random_two_path_state(rng, dim=3))
            assert np.trace(marginal(rho, keep)).real == pytest.approx(1.0, abs=1e-12)

    def test_bell_like_gives_maximally_mixed_path(self):
        reduced = marginal(to_density_matrix(balanced_state()), "path")
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_reduced_matrices_are_physical(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            rho = to_density_matrix(random_two_path_state(rng, dim=int(rng.integers(2, 5))))
            for keep in ("path", "internal"):
                red = marginal(rho, keep)
                assert np.max(np.abs(red - red.conj().T)) < 1e-12
                assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(red)[0] >= -1e-8


class TestWoottersConcurrence:
    def test_bell_projector(self):
        assert wootters_concurrence(to_density_matrix(balanced_state())) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_state(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [0, 1])
        assert wootters_concurrence(to_density_matrix(s)) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_schmidt_route_on_random_states(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            s = random_two_path_state(rng)
            via_schmidt = concurrence_pure(schmidt_decompose(s))
            via_wootters = wootters_concurrence(to_density_matrix(s))
            assert abs(via_schmidt - via_wootters) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_states(self, p):
        # p |Bell><Bell| + (1 - p) I/4 has C = max(0, (3p - 1) / 2), which
        # needs all four spin-flip roots; local unitaries leave C unchanged.
        bell = to_density_matrix(balanced_state()).matrix
        rng = np.random.default_rng(17)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        mat = u @ (p * bell + (1 - p) * np.eye(4) / 4) @ u.conj().T
        rho = DensityMatrix(0.5 * (mat + mat.conj().T))
        assert wootters_concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)

    def test_rejects_higher_dimension(self):
        rho = to_density_matrix(random_two_path_state(np.random.default_rng(0), dim=3))
        with pytest.raises(ValueError, match="4 x 4"):
            wootters_concurrence(rho)


class TestGlobalPhaseInvariance:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-math.pi, math.pi))
    def test_derived_quantities_unchanged(self, seed, theta):
        rng = np.random.default_rng(seed)
        s = random_two_path_state(rng)
        phase = complex(math.cos(theta), math.sin(theta))
        rotated = TwoPathState(phase * s.c_a, phase * s.c_b, s.phi_a, s.phi_b)
        assert abs(overlap(rotated)) == pytest.approx(abs(overlap(s)), abs=1e-12)
        assert schmidt_decompose(rotated) == pytest.approx(schmidt_decompose(s), abs=1e-12)
        assert wootters_concurrence(to_density_matrix(rotated)) == pytest.approx(
            wootters_concurrence(to_density_matrix(s)), abs=1e-9
        )


class TestFidelity:
    def test_self_fidelity(self):
        s = balanced_state()
        assert pure_state_fidelity(to_density_matrix(s), s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fidelity(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [1, 0])
        t = TwoPathState(0.0, 1.0, [1, 0], [1, 0])
        assert pure_state_fidelity(to_density_matrix(s), t) == pytest.approx(0.0, abs=1e-12)

    def test_state_vector_layout_is_path_major(self):
        s = TwoPathState(0.0, 1.0, [1, 0], [0, 1])
        np.testing.assert_allclose(state_vector(s), [0, 0, 0, 1], atol=1e-15)
