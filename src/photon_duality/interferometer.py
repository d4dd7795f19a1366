"""Mach-Zehnder model: fringes and visibility fitting.

The recombiner is an ideal lossless 50/50 splitter.  With relative arm phase
``phi`` applied to arm A, the detection probability at the "+" port, the one
modelled here, is

    p(phi) = 0.5 * || e^{i phi} c_a |phi_a>  +  c_b |phi_b> ||^2
           = 0.5 * (1 + V cos(phi + theta0)),   theta0 = arg(c_a conj(c_b) conj(gamma))

and the "-" port carries 1 - p.  Only relative phases are physically
meaningful.  Phases are plain floats in radians throughout (reduced mod 2*pi
for reporting only, never on storage).

Visibility is extracted from a scan by least squares on the basis
{1, cos phi, sin phi}, which solves the model form exactly and degrades
gracefully under shot noise: one product with the pseudo-inverse of the
grid's design.  Arm blocking needs no model here: blocking one arm leaves
the other arm's path probability |c|^2.

Each phase grid's constants (the grid, e^{i phi}, the fit design and its
pseudo-inverse, ~72 B a point) are built and its order is checked once, in a
small read-only cache keyed by the grid's bytes; every scan of a grid holds
the grid's one shared phase array, which ``phase_grid(n)`` returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import TwoPathState, _check_count

DEFAULT_PHASE_POINTS = 64
MIN_PHASE_POINTS = 8
# A scenario's scan stops here: 2**20 points of d = 2 amplitudes take 32 MiB.
MAX_PHASE_POINTS = 2**20
# A scan must cover at least this fraction of a full period to be fittable.
MIN_SPAN = 2.0 * math.pi * 7.0 / 8.0
# Grids whose constants are kept, at ~72 B a point (72 MiB at MAX_PHASE_POINTS).
_GRIDS_KEPT = 4


class _Grid(NamedTuple):
    phases: np.ndarray
    factors: np.ndarray  # e^{i phi}
    design: np.ndarray  # columns 1, cos phi, sin phi
    solve: np.ndarray | None  # pseudo-inverse of design; None if it is rank-deficient
    increasing: bool  # every phase above the one before it


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _grid(key: bytes) -> _Grid:
    """Read-only constants of the float64 grid whose bytes are ``key``."""
    phases = np.frombuffer(key, dtype=np.float64)
    if not phases.size:  # before the SVD, which has no smallest singular value to read
        raise ValueError("phases must hold at least one point")
    if not np.isfinite(phases).all():  # before anything is computed from them
        raise ValueError(f"phases must be finite, got {float(phases[~np.isfinite(phases)][0])}")
    factors = np.exp(1j * phases)
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    solve = None  # unless lstsq's cutoff keeps every singular value
    if sv[-1] > max(phases.size, 3) * np.finfo(np.float64).eps * sv[0]:
        solve = vt.T @ ((1.0 / sv)[:, None] * u.T)
        solve.setflags(write=False)
    factors.setflags(write=False)
    design.setflags(write=False)
    return _Grid(phases, factors, design, solve, bool((phases[1:] > phases[:-1]).all()))


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _uniform_grid(n: int) -> bytes:
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False).tobytes()


def phase_grid(n: int = DEFAULT_PHASE_POINTS) -> np.ndarray:
    """Uniform grid of n phases on [0, 2*pi), endpoint excluded; n is an int
    in [``MIN_PHASE_POINTS``, ``MAX_PHASE_POINTS``].

    Every call with the same n returns one shared, read-only array, the
    phases that scans of the grid hold.
    """
    n = _check_count(n, "n", MIN_PHASE_POINTS)
    if n > MAX_PHASE_POINTS:  # before anything is allocated
        raise ValueError(f"n must be at most {MAX_PHASE_POINTS}, got {n}")
    return _grid(_uniform_grid(n)).phases


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Detection probability sampled (or evaluated exactly) over a phase grid.

    ``phases`` is the grid's shared read-only array, whose strict increase
    is checked once per grid; ``probabilities`` is a read-only copy.
    ``shots_per_point`` is an int: 0 for exact scans, >= 1 for Monte Carlo ones.
    """

    phases: np.ndarray
    probabilities: np.ndarray
    shots_per_point: int

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        probs = np.array(self.probabilities, dtype=np.float64)
        if phases.ndim != 1 or phases.shape != probs.shape:
            raise ValueError("phases and probabilities must be matching 1-D arrays")
        if phases.size < MIN_PHASE_POINTS:
            raise ValueError(f"a scan needs at least {MIN_PHASE_POINTS} points, got {phases.size}")
        lo, hi = probs.min(), probs.max()  # NaN carries through both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("scan contains non-finite values")
        grid = _grid(phases.tobytes())  # raises on non-finite phases
        if not grid.increasing:
            raise ValueError("phases must be strictly increasing")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        _check_count(self.shots_per_point, "shots_per_point", 0)
        probs.setflags(write=False)
        object.__setattr__(self, "phases", grid.phases)
        object.__setattr__(self, "probabilities", probs)

    @property
    def noisy(self) -> bool:
        """True for a Monte Carlo scan."""
        return self.shots_per_point > 0


def detection_probabilities(s: TwoPathState, phases: np.ndarray) -> np.ndarray:
    """Exact "+"-port detection probabilities over a 1-D grid."""
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 1:
        raise ValueError(f"phases must be a 1-D array, got shape {phases.shape}")
    factors = _grid(phases.tobytes()).factors
    amps = factors[:, None] * s.c_a * s.phi_a + s.c_b * s.phi_b
    # >= 0 as a sum of squares; a state unit within NORM_ATOL can reach 1 + 8e-10.
    return np.minimum(0.5 * (np.abs(amps) ** 2).sum(axis=1), 1.0)


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
    shots_per_point = _check_count(shots_per_point, "shots_per_point", 1)
    if phases is None:
        phases = phase_grid()
    counts = rng.binomial(shots_per_point, detection_probabilities(s, phases))
    return FringeScan(
        phases=phases,
        probabilities=counts / float(shots_per_point),
        shots_per_point=shots_per_point,
    )


class FringeFit(NamedTuple):
    v_hat: float
    theta0_hat: float
    rmse: float


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares fit of p(phi) = A + B cos(phi + theta) to a scan.

    Returns the clamped contrast ``v_hat = B/A`` in [0, 1] along with the
    fitted phase origin and the fit RMSE.  Raises ``ValueError`` on scans
    that cannot carry a fringe (insufficient span, offset ~ 0) and on grids
    that do not determine one (a rank-deficient design, e.g. every phase
    equal mod 2*pi).
    """
    span = float(scan.phases[-1] - scan.phases[0])
    if span < MIN_SPAN:
        raise ValueError(
            f"scan spans {span:.4f} rad; need >= {MIN_SPAN:.4f} to fit a fringe"
        )
    grid = _grid(scan.phases.tobytes())
    if grid.solve is None:
        raise ValueError("phase grid does not determine a fringe: its fit design is rank-deficient")
    coef = grid.solve @ scan.probabilities
    a0, bc, bs = (float(c) for c in coef)
    if not all(math.isfinite(c) for c in (a0, bc, bs)) or abs(a0) < 1e-9:
        raise ValueError("degenerate scan: fitted offset is ~0, no fringe to extract")
    amplitude = math.hypot(bc, bs)
    theta0 = math.atan2(-bs, bc)
    r = scan.probabilities - grid.design @ coef
    rmse = math.sqrt(float(np.add.reduce(r * r)) / r.size)  # np.mean's pairwise sum
    v_hat = min(1.0, max(0.0, amplitude / a0))
    return FringeFit(v_hat=v_hat, theta0_hat=theta0, rmse=rmse)
