"""Closed-form V, D, C and the three-way identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_duality import (
    TwoPathState,
    concurrence_pure,
    distinguishability,
    entanglement,
    random_two_path_state,
    schmidt_decompose,
    vdc_triple,
    visibility,
)
from photon_duality.metrics import _clip01

HALF = math.sqrt(0.5)


def state_with_overlap(c_a, c_b, g):
    """phi_a = (1,0), phi_b chosen so <phi_a|phi_b> = g (real g)."""
    phi_b = (g, math.sqrt(1.0 - g * g))
    return TwoPathState(c_a, c_b, [1, 0], phi_b)


class TestVisibility:
    def test_one_path_only(self):
        assert visibility(state_with_overlap(1.0, 0.0, 0.3)) == 0.0

    def test_balanced_identical_internals(self):
        assert visibility(state_with_overlap(HALF, HALF, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_partial(self):
        v = visibility(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5))
        assert v == pytest.approx(0.458257569495584, abs=1e-12)
        assert v * v == pytest.approx(0.21, abs=1e-12)


class TestDistinguishability:
    def test_balanced(self):
        assert distinguishability(state_with_overlap(HALF, HALF, 0.5)) == 0.0

    def test_one_path(self):
        assert distinguishability(state_with_overlap(1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_partial(self):
        d = distinguishability(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5))
        assert d == pytest.approx(0.4, abs=1e-12)

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            s = random_two_path_state(rng)
            p_a, p_b = abs(s.c_a) ** 2, abs(s.c_b) ** 2
            assert distinguishability(s) == pytest.approx(abs(p_a - p_b), abs=1e-12)


class TestEntanglement:
    def test_separable_when_overlap_is_one(self):
        assert entanglement(state_with_overlap(HALF, HALF, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximal(self):
        assert entanglement(state_with_overlap(HALF, HALF, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_partial(self):
        c = entanglement(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5))
        assert c == pytest.approx(0.7937253933193772, abs=1e-12)
        assert c * c == pytest.approx(0.63, abs=1e-12)

    def test_agrees_with_schmidt_route(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            s = random_two_path_state(rng, dim=int(rng.integers(2, 5)))
            assert abs(entanglement(s) - concurrence_pure(schmidt_decompose(s))) < 1e-9


class TestClip01:
    @pytest.mark.parametrize("x, expected", [(-1e-17, 0.0), (0.3, 0.3), (1.0 + 1e-15, 1.0)])
    def test_shaves_overshoot(self, x, expected):
        assert _clip01(x) == expected

    def test_nan_stays_nan(self):
        # max(0.0, nan) is 0.0: a NaN measure must not come out as a bound.
        assert math.isnan(_clip01(math.nan))


class TestTriple:
    def test_extreme_point_is_exact(self):
        t = vdc_triple(state_with_overlap(HALF, HALF, 0.0))
        assert t.as_tuple() == (0.0, 0.0, 1.0)
        assert t.residual == 0.0

    def test_one_path(self):
        t = vdc_triple(state_with_overlap(1.0, 0.0, 0.7))
        assert t.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert t.residual == pytest.approx(0.0, abs=1e-12)

    def test_partial(self):
        t = vdc_triple(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 0.5))
        assert t.as_tuple() == pytest.approx(
            (0.458257569495584, 0.4, 0.7937253933193772), abs=1e-9
        )
        assert abs(t.residual) < 1e-12
        assert t.gamma == pytest.approx(0.5, abs=1e-12)


class TestIdentity:
    def test_residual_over_many_random_states(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(10_000):
            s = random_two_path_state(rng, dim=int(rng.integers(2, 6)))
            worst = max(worst, abs(vdc_triple(s).residual))
        assert worst < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_residual_property(self, seed):
        s = random_two_path_state(np.random.default_rng(seed))
        assert abs(vdc_triple(s).residual) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_range_property(self, seed):
        t = vdc_triple(random_two_path_state(np.random.default_rng(seed)))
        for value in t.as_tuple():
            assert 0.0 <= value <= 1.0


class TestMonotoneExclusivity:
    def test_tuning_family(self):
        # Fixed amplitudes, |gamma| swept: V grows with |gamma|, C shrinks,
        # D never moves.
        grid = np.linspace(0.0, 1.0, 21)
        c_a, c_b = math.sqrt(0.6), math.sqrt(0.4)
        vs = [visibility(state_with_overlap(c_a, c_b, g)) for g in grid]
        cs = [entanglement(state_with_overlap(c_a, c_b, g)) for g in grid]
        ds = [distinguishability(state_with_overlap(c_a, c_b, g)) for g in grid]
        assert all(b > a for a, b in zip(vs, vs[1:]))
        assert all(b < a for a, b in zip(cs, cs[1:]))
        assert all(d == pytest.approx(ds[0], abs=1e-12) for d in ds)


class TestTwoTermInequality:
    def test_holds_for_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            t = vdc_triple(random_two_path_state(rng))
            assert t.visibility**2 + t.distinguishability**2 <= 1.0 + 1e-12

    def test_equality_iff_no_entanglement(self):
        saturated = vdc_triple(state_with_overlap(math.sqrt(0.7), math.sqrt(0.3), 1.0))
        assert saturated.concurrence == pytest.approx(0.0, abs=1e-12)
        assert saturated.visibility**2 + saturated.distinguishability**2 == pytest.approx(
            1.0, abs=1e-12
        )
        slack = vdc_triple(state_with_overlap(HALF, HALF, 0.5))
        assert slack.concurrence > 0.1
        assert slack.visibility**2 + slack.distinguishability**2 < 1.0 - 1e-3
