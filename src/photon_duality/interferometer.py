"""Mach-Zehnder model: fringes and visibility fitting.

The recombiner is an ideal lossless 50/50 splitter.  With relative arm phase
``phi`` applied to arm A, the detection probability at the "+" port, the one
modelled here, is

    p(phi) = 0.5 * || e^{i phi} c_a |phi_a>  +  c_b |phi_b> ||^2
           = 0.5 * (1 + V cos(phi + theta0)),   theta0 = arg(c_a conj(c_b) conj(gamma))

and the "-" port carries 1 - p.  Only relative phases are physically
meaningful.  Phases are plain floats in radians throughout (reduced mod 2*pi
for reporting only, never on storage).

Visibility is extracted from a scan by linear least squares on the basis
{1, cos phi, sin phi}, which solves the model form exactly and degrades
gracefully under shot noise.  Arm blocking needs no model here: blocking
one arm leaves the other arm's path probability |c|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import TwoPathState

DEFAULT_PHASE_POINTS = 64
MIN_PHASE_POINTS = 8
# A scenario's scan stops here: 2**20 points of d = 2 amplitudes take 32 MiB.
MAX_PHASE_POINTS = 2**20
# A scan must cover at least this fraction of a full period to be fittable.
MIN_SPAN = 2.0 * math.pi * 7.0 / 8.0


def phase_grid(n: int = DEFAULT_PHASE_POINTS) -> np.ndarray:
    """Uniform grid of n phases on [0, 2*pi), endpoint excluded."""
    if n < MIN_PHASE_POINTS:
        raise ValueError(f"need at least {MIN_PHASE_POINTS} phase points, got {n}")
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Detection probability sampled (or evaluated exactly) over a phase grid.

    ``shots_per_point`` is 0 for exact scans and >= 1 for Monte Carlo ones.
    """

    phases: np.ndarray
    probabilities: np.ndarray
    shots_per_point: int

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64)
        probs = np.array(self.probabilities, dtype=np.float64)
        if phases.ndim != 1 or phases.shape != probs.shape:
            raise ValueError("phases and probabilities must be matching 1-D arrays")
        if phases.size < MIN_PHASE_POINTS:
            raise ValueError(f"a scan needs at least {MIN_PHASE_POINTS} points, got {phases.size}")
        if not np.all(np.isfinite(phases)) or not np.all(np.isfinite(probs)):
            raise ValueError("scan contains non-finite values")
        if np.any(np.diff(phases) <= 0.0):
            raise ValueError("phases must be strictly increasing")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.shots_per_point < 0:
            raise ValueError("shots_per_point must be >= 0")
        phases.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "probabilities", probs)

    @property
    def noisy(self) -> bool:
        """True for a Monte Carlo scan."""
        return self.shots_per_point > 0


def detection_probabilities(s: TwoPathState, phases: np.ndarray) -> np.ndarray:
    """Exact "+"-port detection probabilities over a grid."""
    phases = np.asarray(phases, dtype=np.float64)
    amps = (
        np.exp(1j * phases)[:, None] * s.c_a * s.phi_a[None, :]
        + s.c_b * s.phi_b[None, :]
    )
    p = 0.5 * np.sum(np.abs(amps) ** 2, axis=1)
    return np.clip(p, 0.0, 1.0)


def fringe_scan(s: TwoPathState, phases: np.ndarray | None = None) -> FringeScan:
    """Exact (noise-free) fringe scan; defaults to 64 uniform points on [0, 2*pi)."""
    if phases is None:
        phases = phase_grid()
    return FringeScan(
        phases=phases,
        probabilities=detection_probabilities(s, phases),
        shots_per_point=0,
    )


def sample_fringe_scan(
    s: TwoPathState,
    shots_per_point: int,
    rng: np.random.Generator,
    phases: np.ndarray | None = None,
) -> FringeScan:
    """Monte Carlo fringe scan: binomial counts at each phase point."""
    if shots_per_point < 1:
        raise ValueError(f"shots_per_point must be >= 1, got {shots_per_point}")
    if phases is None:
        phases = phase_grid()
    p = detection_probabilities(s, np.asarray(phases, dtype=np.float64))
    counts = rng.binomial(shots_per_point, p)
    return FringeScan(
        phases=phases,
        probabilities=counts / float(shots_per_point),
        shots_per_point=int(shots_per_point),
    )


class FringeFit(NamedTuple):
    v_hat: float
    theta0_hat: float
    rmse: float


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares fit of p(phi) = A + B cos(phi + theta) to a scan.

    Returns the clamped contrast ``v_hat = B/A`` in [0, 1] along with the
    fitted phase origin and the fit RMSE.  Raises on scans that cannot carry
    a fringe (insufficient span, offset ~ 0).
    """
    span = float(scan.phases[-1] - scan.phases[0])
    if span < MIN_SPAN:
        raise ValueError(
            f"scan spans {span:.4f} rad; need >= {MIN_SPAN:.4f} to fit a fringe"
        )
    design = np.column_stack(
        [np.ones_like(scan.phases), np.cos(scan.phases), np.sin(scan.phases)]
    )
    coef, *_ = np.linalg.lstsq(design, scan.probabilities, rcond=None)
    a0, bc, bs = (float(c) for c in coef)
    if not all(math.isfinite(c) for c in (a0, bc, bs)) or abs(a0) < 1e-9:
        raise ValueError("degenerate scan: fitted offset is ~0, no fringe to extract")
    amplitude = math.hypot(bc, bs)
    theta0 = math.atan2(-bs, bc)
    residuals = scan.probabilities - design @ coef
    rmse = float(np.sqrt(np.mean(residuals**2)))
    v_hat = min(1.0, max(0.0, amplitude / a0))
    return FringeFit(v_hat=v_hat, theta0_hat=theta0, rmse=rmse)
