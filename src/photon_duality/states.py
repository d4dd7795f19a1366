"""Two-path single-photon state algebra.

A photon split over two interferometer arms A and B is described by a pair of
path amplitudes (c_a, c_b) with |c_a|^2 + |c_b|^2 = 1, each arm tagging the
photon with a normalized internal state (polarization, ...) of a common
dimension d >= 2:

    |state> = c_a |A> (x) |phi_a>  +  c_b |B> (x) |phi_b>

This module owns construction and validation of such states (each arm's
internal state is held as a read-only complex128 unit vector), the internal
overlap gamma = <phi_a|phi_b>, Schmidt coefficients of the path/internal
bipartition, density matrices, and two-qubit concurrence.

Tensor convention (fixed throughout the package): path-major ordering. A
joint vector index is path*d + internal, so arm A occupies the first d
entries of a 2d vector and the top-left d x d block of a density matrix.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels

# Constructors reject inputs beyond this; no silent renormalization.
NORM_ATOL = 1e-9
# Consistency of derived quantities (Hermiticity, traces).
MATRIX_ATOL = 1e-10
# Eigenvalue slack below zero that still counts as a physical density matrix.
PSD_ATOL = 1e-8
# No unit vector has a real or imaginary part above this.  Constructors check
# it before squaring anything, so a huge part is rejected, not overflowed.
_MAX_PART = 1.0 + NORM_ATOL


def _require_number(value, name: str) -> None:
    # ``complex()`` and numpy would parse '1' and read True as 1, and fail on
    # None with a TypeError that does not name the field.
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ValueError(f"{name}: {type(value).__name__} is not a number")


def _check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``; a bool, float or NaN raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _unit_vector(values, name: str) -> np.ndarray:
    """Arm ``name`` as a read-only complex128 unit vector of dimension >= 2."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iufc"):
        for x in np.asarray(values, dtype=object).reshape(-1):
            _require_number(x, name)
    try:
        arr = np.array(values, dtype=np.complex128)
    except OverflowError:
        raise ValueError(f"{name}: number too large for a float") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D amplitude vector, got shape {arr.shape}")
    if not np.all(np.abs(arr.view(np.float64)) <= _MAX_PART):  # also rejects NaN and inf
        raise ValueError(f"{name} norm cannot be 1: a part is not finite or exceeds 1")
    if arr.size < 2:
        raise ValueError(f"{name} needs dimension >= 2, got {arr.size}")
    norm = float(np.linalg.norm(arr))
    if not (abs(norm - 1.0) <= NORM_ATOL):  # also rejects NaN
        raise ValueError(f"{name} norm is {norm!r}, expected 1 within {NORM_ATOL}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TwoPathState:
    """Pure state of one photon over two paths with internal tags.

    ``c_a`` and ``c_b`` are the path amplitudes, normalized so that
    |c_a|^2 + |c_b|^2 = 1 (within ``NORM_ATOL``); ``phi_a`` and ``phi_b`` are
    the internal states carried along each arm, held as read-only complex128
    unit vectors (norm 1 within ``NORM_ATOL``) of one dimension d >= 2.
    Every amplitude must be a number: str, bytes, bool, None and other
    non-numbers are rejected.
    Either amplitude may be zero; the internal states are kept regardless, so
    the overlap stays well defined.  Equality compares all four fields; the
    state is not hashable.
    """

    c_a: complex
    c_b: complex
    phi_a: np.ndarray
    phi_b: np.ndarray

    def __post_init__(self):
        for name in ("c_a", "c_b"):
            _require_number(getattr(self, name), name)
            try:
                object.__setattr__(self, name, complex(getattr(self, name)))
            except OverflowError:
                raise ValueError(f"{name}: number too large for a float") from None
        for arm in ("phi_a", "phi_b"):
            object.__setattr__(self, arm, _unit_vector(getattr(self, arm), arm))
        parts = (self.c_a.real, self.c_a.imag, self.c_b.real, self.c_b.imag)
        if not all(abs(x) <= _MAX_PART for x in parts):  # also rejects NaN and inf
            raise ValueError(
                f"|c_a|^2 + |c_b|^2 cannot be 1 with c_a = {self.c_a!r}, c_b = {self.c_b!r}"
            )
        total = abs(self.c_a) ** 2 + abs(self.c_b) ** 2
        if not (abs(total - 1.0) <= NORM_ATOL):
            raise ValueError(
                f"|c_a|^2 + |c_b|^2 = {total!r}, expected 1 within {NORM_ATOL}"
            )
        if self.phi_a.size != self.phi_b.size:
            raise ValueError(
                f"internal dimensions differ: {self.phi_a.size} vs {self.phi_b.size}"
            )

    def __eq__(self, other):
        if not isinstance(other, TwoPathState):
            return NotImplemented
        return (
            (self.c_a, self.c_b) == (other.c_a, other.c_b)
            and np.array_equal(self.phi_a, other.phi_a)
            and np.array_equal(self.phi_b, other.phi_b)
        )

    @property
    def dim(self) -> int:
        """Internal dimension d shared by both arms."""
        return self.phi_a.size


def overlap(s: TwoPathState) -> complex:
    """Partial correlation gamma = <phi_a|phi_b> between the two arms' tags.

    |gamma| = 1 means the arms are unmarked (full fringe capability);
    |gamma| = 0 means the internal state fully marks the path.
    """
    return complex(np.vdot(s.phi_a, s.phi_b))


def coefficient_matrix(s: TwoPathState) -> np.ndarray:
    """2 x d matrix M with row A = c_a * phi_a and row B = c_b * phi_b.

    Flattening M row-major gives the joint state vector in the path-major
    tensor basis.
    """
    return np.concatenate((s.c_a * s.phi_a, s.c_b * s.phi_b)).reshape(2, -1)


def state_vector(s: TwoPathState) -> np.ndarray:
    """Joint 2d state vector in the path-major basis."""
    return coefficient_matrix(s).reshape(-1)


def schmidt_decompose(s: TwoPathState) -> tuple[float, float]:
    """Schmidt coefficients (lambda1 >= lambda2): singular values of the 2 x d
    coefficient matrix."""
    lambda1, lambda2 = np.linalg.svd(coefficient_matrix(s), compute_uv=False)
    return float(lambda1), float(lambda2)


def concurrence_pure(lams: tuple[float, float]) -> float:
    """Pure-state concurrence 2*lambda1*lambda2, clipped into [0, 1]."""
    lambda1, lambda2 = lams
    return min(1.0, max(0.0, 2.0 * lambda1 * lambda2))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2d x 2d physical density matrix in the path-major basis.

    Construction enforces Hermiticity, unit trace and positivity
    (eigenvalues >= -PSD_ATOL, one eigensolve), so every instance is a
    physical state and nothing downstream checks again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if n < 4 or n % 2 != 0:
            raise ValueError(f"expected a 2d x 2d matrix with d >= 2, got {n} x {n}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("density matrix contains non-finite entries")
        herm_err = np.abs(mat - mat.conj().T).max()
        if herm_err > MATRIX_ATOL:
            raise ValueError(f"density matrix not Hermitian (max deviation {herm_err:.3e})")
        trace = mat.trace()
        trace_err = abs(trace.real - 1.0) + abs(trace.imag)
        if trace_err > MATRIX_ATOL:
            raise ValueError(f"density matrix trace deviates from 1 by {trace_err:.3e}")
        if float(_kernels._eigvalsh(mat)[0]) < -PSD_ATOL:
            raise ValueError(f"density matrix has eigenvalues below -{PSD_ATOL} (not physical)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def to_density_matrix(s: TwoPathState) -> DensityMatrix:
    """Rank-1 projector onto the state in the path (x) internal basis, divided
    by <psi|psi> where that is off 1 by more than ``MATRIX_ATOL`` (a state is
    unit only within ``NORM_ATOL``); bit-for-bit |psi><psi| otherwise."""
    psi = state_vector(s)
    mat, norm = psi[:, None] * psi.conj(), np.vdot(psi, psi).real
    return DensityMatrix(mat / norm if abs(norm - 1.0) > MATRIX_ATOL else mat)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence from the spin-flip spectrum.

    C = max(0, sqrt(e1) - sqrt(e2) - sqrt(e3) - sqrt(e4)) with e_i the
    descending eigenvalues of rho * (Y(x)Y) conj(rho) (Y(x)Y).  Defined for
    d = 2 only.  Roundoff negatives in the spectrum (within ``PSD_ATOL``,
    the most a ``DensityMatrix`` admits) are clamped to zero.

    The sqrt(e_i) are evaluated as singular values of A^dag (Y(x)Y) conj(A)
    with rho = A A^dag, which is the same spectrum without the precision
    loss of squaring: near-zero roots come out at ~1e-16 instead of ~1e-8.
    """
    if rho.matrix.shape[0] != 4:
        raise ValueError(
            f"Wootters concurrence needs a 4 x 4 matrix (d = 2), got {rho.matrix.shape}"
        )
    evals, vecs = _kernels._eigh(rho.matrix)
    factor = vecs * np.sqrt(np.maximum(evals, 0.0))
    roots = np.linalg.svd(factor.conj().T @ _YY @ factor.conj(), compute_uv=False)
    return min(1.0, max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3])))


def pure_state_fidelity(rho: DensityMatrix, s: TwoPathState) -> float:
    """Fidelity <psi|rho|psi> of a density matrix against a known pure state."""
    psi = state_vector(s)
    return float(np.vdot(psi, rho.matrix @ psi).real)


def random_two_path_state(rng: np.random.Generator, dim: int = 2) -> TwoPathState:
    """Haar-random internal states with uniformly random path amplitudes."""

    def unit(n: int) -> np.ndarray:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    c = unit(2)
    return TwoPathState(c[0], c[1], unit(dim), unit(dim))
