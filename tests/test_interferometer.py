"""Fringe model, visibility fitting, arm-local unitaries."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_duality import (
    FringeFit,
    FringeScan,
    TwoPathState,
    detection_probabilities,
    distinguishability,
    fit_fringe,
    fringe_scan,
    overlap,
    phase_grid,
    random_two_path_state,
    sample_fringe_scan,
    visibility,
)
from photon_duality import interferometer

HALF = math.sqrt(0.5)


def state_with_overlap(c_a, c_b, g):
    return TwoPathState(c_a, c_b, [1, 0], (g, math.sqrt(1 - g * g)))


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_probabilities(s, phases):
    """``detection_probabilities`` as first written, rebuilding e^{i phi} per call."""
    phases = np.asarray(phases, dtype=np.float64)
    amps = (
        np.exp(1j * phases)[:, None] * s.c_a * s.phi_a[None, :]
        + s.c_b * s.phi_b[None, :]
    )
    p = 0.5 * np.sum(np.abs(amps) ** 2, axis=1)
    return np.clip(p, 0.0, 1.0)


def reference_fit(scan):
    """``fit_fringe`` as first written, rebuilding the design per call."""
    design = np.column_stack(
        [np.ones_like(scan.phases), np.cos(scan.phases), np.sin(scan.phases)]
    )
    coef, *_ = np.linalg.lstsq(design, scan.probabilities, rcond=None)
    a0, bc, bs = (float(c) for c in coef)
    residuals = scan.probabilities - design @ coef
    return FringeFit(
        v_hat=min(1.0, max(0.0, math.hypot(bc, bs) / a0)),
        theta0_hat=math.atan2(-bs, bc),
        rmse=float(np.sqrt(np.mean(residuals**2))),
    )


def assert_fit_matches_lstsq(scan):
    """``fit_fringe`` agrees with the ``lstsq`` reference to roundoff."""
    fit, ref = fit_fringe(scan), reference_fit(scan)
    assert abs(fit.v_hat - ref.v_hat) <= 1e-12
    assert abs(fit.rmse - ref.rmse) <= 1e-12
    if ref.v_hat >= 1e-3:
        delta = (fit.theta0_hat - ref.theta0_hat + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) <= 1e-9


def sample_grids():
    """Uniform, shifted and non-uniform increasing grids, each long enough to fit."""
    steps = np.random.default_rng(40).uniform(0.5, 1.5, 47)
    uneven = np.concatenate([[0.0], np.cumsum(steps)]) * (6.0 / steps.sum())
    return {
        "uniform-16": phase_grid(16),
        "uniform-64": phase_grid(64),
        "shifted": phase_grid(64) + 0.3,
        "uneven": uneven,
    }


def rotation(beta):
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, -s], [s, c]])


def rotate_arm(s, u, arm):
    """The state with unitary ``u`` applied to arm ``"A"``'s or ``"B"``'s internal tag."""
    phi_a, phi_b = s.phi_a, s.phi_b
    if arm == "A":
        phi_a = u @ phi_a
    else:
        phi_b = u @ phi_b
    return TwoPathState(s.c_a, s.c_b, phi_a, phi_b)


class TestDetectionProbability:
    def test_full_constructive_interference(self):
        s = state_with_overlap(HALF, HALF, 1.0)  # V = 1, theta0 = 0
        assert detection_probabilities(s, [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_fringe_without_overlap(self):
        s = state_with_overlap(HALF, HALF, 0.0)
        for phi in np.linspace(0, 2 * math.pi, 7):
            assert detection_probabilities(s, [phi])[0] == pytest.approx(0.5, abs=1e-12)

    def test_partial_state_at_zero_phase(self):
        s = state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5)
        assert detection_probabilities(s, [0.0])[0] == pytest.approx(0.729128784747792, abs=1e-9)

    def test_port_complementarity(self):
        rng = np.random.default_rng(30)
        grid = phase_grid(16)
        for _ in range(200):
            s = random_two_path_state(rng, dim=int(rng.integers(2, 5)))
            p1 = detection_probabilities(s, grid)
            # The "-" port: the arm-B amplitude enters with the opposite sign.
            amps = np.exp(1j * grid)[:, None] * s.c_a * s.phi_a - s.c_b * s.phi_b
            p2 = 0.5 * np.sum(np.abs(amps) ** 2, axis=1)
            np.testing.assert_allclose(p1 + p2, 1.0, atol=1e-12)

    def test_matches_fringe_form(self):
        rng = np.random.default_rng(31)
        grid = phase_grid(32)
        for _ in range(100):
            s = random_two_path_state(rng)
            v = visibility(s)
            theta0 = np.angle(s.c_a * np.conj(s.c_b) * np.conj(overlap(s)))
            expected = 0.5 * (1 + v * np.cos(grid + theta0))
            np.testing.assert_allclose(detection_probabilities(s, grid), expected, atol=1e-12)


class TestFringeScan:
    def test_exact_scan_defaults(self):
        scan = fringe_scan(state_with_overlap(HALF, HALF, 0.5))
        assert scan.phases.size == 64
        assert not scan.noisy and scan.shots_per_point == 0

    def test_fringe_mean_is_half(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            scan = fringe_scan(random_two_path_state(rng))
            assert np.mean(scan.probabilities) == pytest.approx(0.5, abs=1e-10)

    def test_validation(self):
        grid = phase_grid(16)
        with pytest.raises(ValueError, match="at least 8"):
            FringeScan(grid[:4], np.full(4, 0.5), shots_per_point=0)
        with pytest.raises(ValueError, match="increasing"):
            FringeScan(grid[::-1], np.full(16, 0.5), shots_per_point=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FringeScan(grid, np.full(16, 1.5), shots_per_point=0)
        with pytest.raises(ValueError, match=">= 0"):
            FringeScan(grid, np.full(16, 0.5), shots_per_point=-1)

    @pytest.mark.parametrize("shots", [2.5, 1000.0, math.nan, True, "3"])
    def test_shots_per_point_must_be_an_int(self, shots):
        with pytest.raises(ValueError, match="shots_per_point must be an integer >= 0"):
            FringeScan(phase_grid(16), np.full(16, 0.5), shots_per_point=shots)

    @pytest.mark.parametrize("shots", [1.9, 1000.0, math.nan, True, 0])
    def test_sampled_shots_must_be_a_positive_int(self, shots):
        # numpy truncates a float n: 1.9 once drew binomial(1, p) and divided by 1.9.
        s = state_with_overlap(HALF, HALF, 0.5)
        with pytest.raises(ValueError, match="shots_per_point must be an integer >= 1"):
            sample_fringe_scan(s, shots, np.random.default_rng(5))

    def test_numpy_integer_shots_accepted(self):
        s = state_with_overlap(HALF, HALF, 0.5)
        a = sample_fringe_scan(s, np.int64(1000), np.random.default_rng(5))
        b = sample_fringe_scan(s, 1000, np.random.default_rng(5))
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.shots_per_point == 1000

    def test_sampled_scan_is_seed_deterministic(self):
        s = state_with_overlap(HALF, HALF, 0.5)
        a = sample_fringe_scan(s, 1000, np.random.default_rng(5))
        b = sample_fringe_scan(s, 1000, np.random.default_rng(5))
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.noisy and a.shots_per_point == 1000


class TestScanContract:
    """A scan holds its grid's shared read-only phases, checked once per
    grid, and a read-only copy of the caller's probabilities."""

    def test_default_scan_holds_the_shared_grid(self):
        assert fringe_scan(state_with_overlap(HALF, HALF, 0.5)).phases is phase_grid()

    def test_scan_of_a_copied_grid(self):
        grid, probs = phase_grid(16).copy(), np.full(16, 0.5)
        scan = FringeScan(grid, probs, shots_per_point=0)
        assert np.array_equal(scan.phases, grid) and scan.phases is not grid
        assert not scan.phases.flags.writeable and grid.flags.writeable
        assert fringe_scan(state_with_overlap(HALF, HALF, 0.5), grid).phases is scan.phases
        assert not scan.probabilities.flags.writeable and probs.flags.writeable
        assert not np.shares_memory(scan.probabilities, probs)
        probs[0] = 0.25
        assert scan.probabilities[0] == 0.5

    def test_order_is_checked_once_per_grid(self):
        grid = phase_grid(16) + 0.2
        FringeScan(grid, np.full(16, 0.5), shots_per_point=0)
        misses = interferometer._grid.cache_info().misses
        FringeScan(grid, np.full(16, 0.25), shots_per_point=0)
        assert interferometer._grid.cache_info().misses == misses

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_probabilities_rejected(self, bad):
        probs = np.full(16, 0.5)
        probs[3] = bad
        with pytest.raises(ValueError, match="^scan contains non-finite values$"):
            FringeScan(phase_grid(16), probs, shots_per_point=0)

    @pytest.mark.parametrize(
        "order", [[1, 0, *range(2, 16)], [0, 0, *range(2, 16)]], ids=["swapped", "repeated"]
    )
    def test_phases_must_increase(self, order):
        with pytest.raises(ValueError, match="^phases must be strictly increasing$"):
            FringeScan(phase_grid(16)[order], np.full(16, 0.5), shots_per_point=0)

    def test_empty_grid_rejected(self):
        # An empty grid's SVD once met a bare IndexError reading sv[-1].
        s = state_with_overlap(HALF, HALF, 0.5)
        for call in (detection_probabilities, fringe_scan):
            with pytest.raises(ValueError, match="^phases must hold at least one point$"):
                call(s, [])

    def test_unordered_grid_still_evaluates(self):
        # The order is a scan's condition only; one-point grids are evaluated
        # in TestDetectionProbability.
        s, phases = random_two_path_state(np.random.default_rng(45), dim=3), [2.0, 1.0, 2.0]
        assert np.array_equal(detection_probabilities(s, phases), reference_probabilities(s, phases))

    def test_near_unit_norm_state_stays_a_probability(self):
        # |c_a|^2 + |c_b|^2 = 1 + 8e-10 is unit within NORM_ATOL; at full
        # constructive interference the raw sum is 1 + 8e-10.
        c = math.sqrt(0.5) * (1 + 4e-10)
        s = TwoPathState(c, c, [1, 0], [1, 0])
        p = detection_probabilities(s, phase_grid(16))
        assert p.max() == 1.0 and np.array_equal(p, reference_probabilities(s, phase_grid(16)))
        assert fringe_scan(s).probabilities[0] == 1.0


class TestPhaseGrid:
    @pytest.mark.parametrize("n", [64.0, 16.5, math.nan, True, "64", None])
    def test_point_count_must_be_an_int(self, n):
        # 64.0 == 64 and both hash alike, so a cache keyed by n would hand back
        # the 64-point grid if the type were not checked first.
        with pytest.raises(ValueError, match="n must be an integer >= 8"):
            phase_grid(n)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer >= 8"):
            phase_grid(7)

    @pytest.mark.parametrize(
        "extra", [1, 2**31 - interferometer.MAX_PHASE_POINTS], ids=["max+1", "2**31"]
    )
    def test_too_many_points_rejected_before_any_allocation(self, extra):
        n = interferometer.MAX_PHASE_POINTS + extra
        built = interferometer._uniform_grid.cache_info().misses
        with pytest.raises(ValueError, match=f"^n must be at most {n - extra}, got {n}$"):
            phase_grid(n)
        assert interferometer._uniform_grid.cache_info().misses == built

    def test_grid_is_shared_and_read_only(self):
        grid = phase_grid(16)
        assert phase_grid(16) is grid and phase_grid(np.int64(16)) is grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0
        fields = interferometer._grid(grid.tobytes())
        arrays = [a for a in fields if isinstance(a, np.ndarray)]
        assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)
        np.testing.assert_array_equal(grid, np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))

    def test_cache_is_bounded(self):
        s = state_with_overlap(HALF, HALF, 0.5)
        for n in range(8, 40):
            fit_fringe(fringe_scan(s, phase_grid(n) + 0.1))
        for cached in (interferometer._grid, interferometer._uniform_grid):
            info = cached.cache_info()
            assert info.maxsize is not None and info.maxsize <= 8
            assert info.currsize <= info.maxsize

    def test_non_1d_phases_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            detection_probabilities(state_with_overlap(HALF, HALF, 0.5), 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["all", "one"])
    @pytest.mark.parametrize(
        "scan",
        [
            detection_probabilities,
            fringe_scan,
            lambda s, phases: sample_fringe_scan(s, 100, np.random.default_rng(0), phases=phases),
            lambda s, phases: FringeScan(phases, np.full(phases.size, 0.5), shots_per_point=0),
        ],
        ids=["detection_probabilities", "fringe_scan", "sample_fringe_scan", "FringeScan"],
    )
    def test_non_finite_phases_rejected_before_any_arithmetic(self, scan, where, bad):
        # No RuntimeWarning may escape: the grid is checked before exp, cos,
        # sin and the fit design's SVD see it.
        phases = np.full(8, bad) if where == "all" else phase_grid(8) + [0, 0, 0, bad, 0, 0, 0, 0]
        for _ in range(2):  # a miss each time: the failing grid is never cached
            misses = interferometer._grid.cache_info().misses
            with pytest.raises(ValueError, match=f"^phases must be finite, got {bad}$"):
                scan(state_with_overlap(HALF, HALF, 0.5), phases)
            assert interferometer._grid.cache_info().misses == misses + 1


class TestCachedConstantsBitIdentical:
    """Cached grid constants change no bit of a probability or a sampled count,
    and the cached pseudo-inverse fits as ``lstsq`` does, to roundoff."""

    @pytest.mark.parametrize("grid_name", sorted(sample_grids()))
    def test_exact_scans(self, grid_name):
        grid = sample_grids()[grid_name]
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                s = random_two_path_state(rng, dim=dim)
                p = detection_probabilities(s, grid)
                assert np.array_equal(p, reference_probabilities(s, grid))
                scan = fringe_scan(s, grid)
                assert np.array_equal(scan.probabilities, p)
                assert_fit_matches_lstsq(scan)

    @pytest.mark.parametrize("grid_name", sorted(sample_grids()))
    def test_sampled_scans(self, grid_name):
        grid = sample_grids()[grid_name]
        rng = np.random.default_rng(42)
        for dim in (2, 3, 4, 5):
            for seed in range(5):
                s = random_two_path_state(rng, dim=dim)
                scan = sample_fringe_scan(s, 1000, np.random.default_rng(seed), phases=grid)
                counts = np.random.default_rng(seed).binomial(1000, reference_probabilities(s, grid))
                assert np.array_equal(scan.probabilities, counts / 1000.0)
                assert_fit_matches_lstsq(scan)

    def test_list_phases(self):
        s = random_two_path_state(np.random.default_rng(43), dim=3)
        phases = [0.0, 0.5, 2.0]
        assert np.array_equal(detection_probabilities(s, phases), reference_probabilities(s, phases))


class TestPseudoInverseFit:
    def test_pseudo_inverse_is_read_only(self):
        solve = interferometer._grid(phase_grid(64).tobytes()).solve
        assert solve.shape == (3, 64)
        with pytest.raises(ValueError, match="read-only"):
            solve[0, 0] = 1.0

    def test_clustered_grid_fits_as_lstsq(self):
        # 7 phases 1e-6 apart plus one at 5.6: cond(design) ~ 3e6. Normal
        # equations (D^T D)^-1 D^T p square that and miss by ~1e-3 in v_hat.
        clustered = np.concatenate([np.arange(7) * 1e-6, [5.6]])
        rng = np.random.default_rng(44)
        for dim in (2, 3, 4, 5):
            for _ in range(25):
                scan = fringe_scan(random_two_path_state(rng, dim=dim), clustered)
                fit, ref = fit_fringe(scan), reference_fit(scan)
                assert abs(fit.v_hat - ref.v_hat) <= 1e-9
                assert abs(fit.rmse - ref.rmse) <= 1e-9

    @pytest.mark.parametrize(
        "phases",
        [
            2 * math.pi * np.arange(8),
            math.pi * np.arange(8),
            np.array([0.0, 1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 2 * math.pi, 2 * math.pi + 1e-9]),
        ],
        ids=["all-2pi-apart", "pi-apart", "two-clusters"],
    )
    @pytest.mark.parametrize("g", [0.0, 0.96])
    def test_grid_that_determines_no_fringe_rejected(self, phases, g):
        # Each grid passes FringeScan's checks and the span check; its
        # design's smallest singular value is < 1e-16 of its largest.
        scan = fringe_scan(state_with_overlap(0.6, 0.8, g), phases)
        with pytest.raises(ValueError, match="does not determine a fringe"):
            fit_fringe(scan)

    def test_clustered_but_determined_grid_accepted(self):
        phases = np.concatenate([np.arange(7) * 1e-7, [5.6]])
        fit = fit_fringe(fringe_scan(TwoPathState(0.6, 0.8, [1, 0], [0, 1]), phases))
        assert fit.v_hat < 1e-6 and fit.rmse < 1e-6


_MAGNITUDES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
# Phase factors; the exact ones keep |gamma| = 1 exact.
_UNIT_PHASES = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j]),
    st.floats(-math.pi, math.pi).map(lambda x: cmath.exp(1j * x)),
)


@st.composite
def tagged_states(draw):
    """States of d = 2..5 whose |gamma| and path amplitudes may be exactly 0 or 1."""
    dim = draw(st.integers(2, 5))
    i, j = draw(st.permutations(range(dim)))[:2]
    g, a = draw(_MAGNITUDES), draw(st.floats(0.0, 1.0))
    phi_a = np.zeros(dim, dtype=complex)
    phi_a[i] = 1.0
    phi_b = np.zeros(dim, dtype=complex)
    phi_b[i] = g * draw(_UNIT_PHASES)  # gamma = <phi_a|phi_b>
    phi_b[j] = math.sqrt(1.0 - g * g)
    c_a = a * draw(_UNIT_PHASES)
    c_b = math.sqrt(1.0 - a * a) * draw(_UNIT_PHASES)
    return TwoPathState(c_a, c_b, phi_a, phi_b)


class TestExactFitProperties:
    @settings(max_examples=300, deadline=None)
    @given(s=tagged_states(), n=st.sampled_from([8, 13, 64, 200]))
    @example(s=state_with_overlap(HALF, HALF, 1.0), n=64)
    @example(s=state_with_overlap(HALF, HALF, 0.0), n=64)
    @example(s=TwoPathState(HALF, -HALF, np.eye(5)[4], 1j * np.eye(5)[4]), n=8)
    def test_exact_fit_recovers_v_and_theta0(self, s, n):
        fit = fit_fringe(fringe_scan(s, phase_grid(n)))
        v = visibility(s)
        assert abs(fit.v_hat - v) < 1e-9
        if v >= 1e-3:
            theta0 = cmath.phase(s.c_a * s.c_b.conjugate() * overlap(s).conjugate())
            delta = (fit.theta0_hat - theta0 + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-8


class TestVisibilityExtraction:
    def test_full_visibility(self):
        v_hat, *_ = fit_fringe(fringe_scan(state_with_overlap(HALF, HALF, 1.0)))
        assert v_hat == pytest.approx(1.0, abs=1e-9)

    def test_zero_visibility(self):
        v_hat, *_ = fit_fringe(fringe_scan(state_with_overlap(HALF, HALF, 0.0)))
        assert v_hat == pytest.approx(0.0, abs=1e-9)

    def test_partial_visibility(self):
        scan = fringe_scan(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5))
        v_hat, theta0_hat, *_ = fit_fringe(scan)
        assert v_hat == pytest.approx(0.458257569495584, abs=1e-9)
        assert theta0_hat == pytest.approx(0.0, abs=1e-9)

    def test_consistency_over_random_states(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            s = random_two_path_state(rng)
            v_hat, *_ = fit_fringe(fringe_scan(s))
            assert abs(v_hat - visibility(s)) < 1e-9

    def test_phase_origin_invariance(self):
        # Same data relabeled phi -> phi + c: theta0 absorbs the shift, V doesn't.
        s = state_with_overlap(math.sqrt(0.6), math.sqrt(0.4), 0.7)
        base_scan = fringe_scan(s)
        base = fit_fringe(base_scan)
        shift = 1.234
        relabeled = FringeScan(
            base_scan.phases + shift, base_scan.probabilities, shots_per_point=0
        )
        shifted = fit_fringe(relabeled)
        assert shifted.v_hat == pytest.approx(base.v_hat, abs=1e-9)
        assert shifted.theta0_hat == pytest.approx(base.theta0_hat - shift, abs=1e-9)

    def test_recovered_phase_origin(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            s = random_two_path_state(rng)
            if visibility(s) < 1e-3:
                continue
            _, theta0_hat, *_ = fit_fringe(fringe_scan(s))
            theta0 = float(np.angle(s.c_a * np.conj(s.c_b) * np.conj(overlap(s))))
            delta = (theta0_hat - theta0 + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-8

    def test_insufficient_span_rejected(self):
        grid = np.linspace(0, math.pi, 16)  # only half a period
        scan = FringeScan(grid, np.full(16, 0.5), shots_per_point=0)
        with pytest.raises(ValueError, match="span"):
            fit_fringe(scan)

    def test_degenerate_scan_rejected(self):
        scan = FringeScan(phase_grid(16), np.zeros(16), shots_per_point=0)
        with pytest.raises(ValueError, match="degenerate"):
            fit_fringe(scan)

    def test_noisy_scan_recovers_visibility(self):
        s = state_with_overlap(HALF, HALF, 0.6)
        scan = sample_fringe_scan(s, 100_000, np.random.default_rng(6))
        v_hat, *_ = fit_fringe(scan)
        assert abs(v_hat - visibility(s)) < 0.02
        assert fit_fringe(scan).rmse < 0.01


class TestArmUnitary:
    """A unitary on one arm's internal tag moves gamma but not the path."""

    def test_aligning_rotation_gives_unit_overlap(self):
        s = state_with_overlap(HALF, HALF, 0.0)  # phi_b = (0, 1)
        rotated = rotate_arm(s, rotation(-math.pi / 2), "B")
        assert abs(overlap(rotated)) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_angle_sets_overlap(self):
        # Rotating one of two aligned tags by beta gives |gamma| = |cos beta|.
        s = state_with_overlap(HALF, HALF, 1.0)
        for beta in (0.0, math.pi / 3, 1.1, math.pi / 2, 2.5):
            rotated = rotate_arm(s, rotation(beta), "B")
            assert abs(overlap(rotated)) == pytest.approx(abs(math.cos(beta)), abs=1e-12)

    def test_distinguishability_invariant(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            s = random_two_path_state(rng)
            rotated = rotate_arm(s, random_unitary(rng), rng.choice(["A", "B"]))
            assert distinguishability(rotated) == pytest.approx(
                distinguishability(s), abs=1e-12
            )
