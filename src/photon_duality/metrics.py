"""Closed-form duality measures of a two-path state.

Visibility V = 2|c_a c_b gamma| (waveness), distinguishability
D = sqrt(1 - 4|c_a c_b|^2) = ||c_a|^2 - |c_b|^2| (particleness) and
concurrence C = 2|c_a c_b| sqrt(1 - |gamma|^2) (path/internal
self-entanglement) satisfy V^2 + D^2 + C^2 = 1 for every pure state; the
signed deviation from 1 is carried along as ``residual`` so estimators can
be judged against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import TwoPathState, overlap


@dataclass(frozen=True)
class DualityTriple:
    """A (V, D, C) triple plus the overlap it came from.

    ``residual`` is V^2 + D^2 + C^2 - 1, reported signed and unclamped; it is
    ~0 for analytic pure-state triples and a diagnostic for estimated ones.
    """

    visibility: float
    distinguishability: float
    concurrence: float
    gamma: complex

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.visibility, self.distinguishability, self.concurrence)

    @property
    def residual(self) -> float:
        v, d, c = self.as_tuple()
        return v * v + d * d + c * c - 1.0


def _clip01(x: float) -> float:
    # Measures are mathematically in [0, 1]; shave off float overshoot only.
    # NaN stays NaN (max(0.0, nan) is 0.0), so finiteness checks still see it.
    return x if math.isnan(x) else min(1.0, max(0.0, x))


def _visibility(s: TwoPathState, g: float) -> float:
    return _clip01(2.0 * abs(s.c_a) * abs(s.c_b) * g)


def _entanglement(s: TwoPathState, g: float) -> float:
    return _clip01(2.0 * abs(s.c_a) * abs(s.c_b) * math.sqrt(max(0.0, 1.0 - g * g)))


def visibility(s: TwoPathState) -> float:
    """Fringe contrast 2|c_a c_b gamma|."""
    return _visibility(s, abs(overlap(s)))


def distinguishability(s: TwoPathState) -> float:
    """Which-way information sqrt(1 - 4|c_a c_b|^2), equal to |p_a - p_b|."""
    return _clip01(math.sqrt(max(0.0, 1.0 - 4.0 * (abs(s.c_a) * abs(s.c_b)) ** 2)))


def entanglement(s: TwoPathState) -> float:
    """Path/internal concurrence 2|c_a c_b| sqrt(1 - |gamma|^2).

    Agrees with the Schmidt-coefficient concurrence of the same state.
    """
    return _entanglement(s, abs(overlap(s)))


def vdc_triple(s: TwoPathState) -> DualityTriple:
    """All three measures of one state, with the identity residual; the
    overlap is taken once and passed to the formulas that need |gamma|."""
    gamma = overlap(s)
    g = abs(gamma)
    return DualityTriple(_visibility(s, g), distinguishability(s), _entanglement(s, g), gamma)
