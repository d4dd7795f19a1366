"""Joint Pauli tomography of the path (x) polarization two-qubit state.

Measurement model: both qubits are measured projectively in Pauli eigenbases.
A setting is a pair of operators (path_op, internal_op) from {I, X, Y, Z};
the 15 settings other than (I, I) are informationally complete.  Each shot
yields a joint eigenvalue outcome in {+1, -1}^2, sampled from the exact
four-outcome distribution of the commuting pair's eigenprojectors.  For an
identity operator the -1 outcomes carry zero projectors, so their
probability is exactly zero and the empirical expectation reduces to the
marginal of the other qubit.

Counts are held one way: a read-only (4,) array per setting, ordered as
``OUTCOMES``.

Reconstruction is maximum likelihood: reweighted sandwich updates R rho R
on a factor of the state, accelerated by SQUAREM extrapolation, with one
projected-gradient step per cycle that sets vanishing eigenvalues to zero,
starting at the maximally mixed state and stopping once its total
log-likelihood shortfall is certified below ``tol`` nats, so the estimate is
always physical.  The inner loop lives in ``_kernels``.

All 64 outcome projectors (16 settings x 4 outcomes) form one read-only
stack, built on first use and shared by the outcome table and the MLE loop,
which reads the 60 rows of the nontrivial settings.  The outcome table is
one contraction of that stack with rho: the (16, 4) outcome distributions
of all settings, from which both count sampling and ``exact_record`` read
their rows.

One ``sample_counts`` call draws a whole record set, one multinomial per
nontrivial setting from that setting's own seed, so counts are reproducible
bit-for-bit from their seeds; a record built by ``exact_record`` instead
carries the infinite-shot limit (outcome probabilities as fractional counts
with shots = 1) for noise-free checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels
from .metrics import DualityTriple
from .scenarios import DEFAULT_SHOTS
from .seeding import make_rng
from .states import DensityMatrix, _check_count, wootters_concurrence

PAULI: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in PAULI.values():
    _m.setflags(write=False)

OUTCOMES: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class MeasurementSetting:
    """One joint Pauli measurement: path qubit op (x) internal qubit op."""

    path_op: str
    internal_op: str

    def __post_init__(self):
        for op in (self.path_op, self.internal_op):
            if op not in PAULI:
                raise ValueError(f"operator must be one of I, X, Y, Z, got {op!r}")

    @property
    def is_trivial(self) -> bool:
        return self.path_op == "I" and self.internal_op == "I"

    def outcome_projectors(self) -> list[np.ndarray]:
        """4 x 4 joint eigenprojectors, ordered as ``OUTCOMES``.

        For an identity factor the +1 projector is the full identity and the
        -1 projector is zero.
        """

        def single(op: str, sign: int) -> np.ndarray:
            if op == "I":
                return PAULI["I"] if sign == 1 else np.zeros((2, 2), dtype=np.complex128)
            return 0.5 * (PAULI["I"] + sign * PAULI[op])

        return [
            np.kron(single(self.path_op, s), single(self.internal_op, t))
            for s, t in OUTCOMES
        ]

    def label(self) -> str:
        return f"{self.path_op}{self.internal_op}"


ALL_SETTINGS: tuple[MeasurementSetting, ...] = tuple(
    MeasurementSetting(p, i) for p in "IXYZ" for i in "IXYZ"
)
# (I, I) comes first in ``ALL_SETTINGS``, so dropping the first setting (its
# four rows of the projector stack, its row of the outcome table) leaves the
# nontrivial settings in their order.
NONTRIVIAL_SETTINGS: tuple[MeasurementSetting, ...] = ALL_SETTINGS[1:]


@cache
def _projector_stack() -> np.ndarray:
    """(64, 4, 4) outcome projectors of ``ALL_SETTINGS``, ordered as ``OUTCOMES``."""
    stack = np.array([proj for m in ALL_SETTINGS for proj in m.outcome_projectors()])
    stack.setflags(write=False)
    return stack


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.matrix.shape[0] != 4:
        raise ValueError(
            f"tomography supports d = 2 only (4 x 4 matrices), got {rho.matrix.shape}"
        )


def _outcome_table(rho: DensityMatrix) -> np.ndarray:
    """(16, 4) exact outcome distributions of ``ALL_SETTINGS``, rows ordered as
    ``OUTCOMES``."""
    _require_two_qubits(rho)
    p = np.einsum("kab,ba->k", _projector_stack(), rho.matrix).real
    p = np.clip(p, 0.0, None).reshape(len(ALL_SETTINGS), len(OUTCOMES))  # ~-1e-8 PSD dust
    return p / p.sum(axis=1, keepdims=True)


def outcome_probabilities(rho: DensityMatrix, m: MeasurementSetting) -> np.ndarray:
    """Exact joint-outcome distribution, ordered as ``OUTCOMES``."""
    return _outcome_table(rho)[ALL_SETTINGS.index(m)]


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Outcome counts for one measurement setting.

    ``counts`` is a read-only (4,) array ordered as ``OUTCOMES``.  Sampled
    records carry integer counts summing to ``shots``.  Records from
    ``exact_record`` carry the outcome probabilities themselves as fractional
    counts with shots = 1 (the infinite-shot idealization).
    """

    setting: MeasurementSetting
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        _check_count(self.shots, "shots", 1)
        counts = np.array(self.counts)
        if counts.shape != (len(OUTCOMES),) or counts.dtype.kind not in "iuf":
            raise ValueError(f"counts must be a numeric ({len(OUTCOMES)},) array in OUTCOMES order")
        total = float(counts.sum(dtype=np.float64))
        if not math.isfinite(total):  # a NaN or an infinite count
            raise ValueError("counts must be finite")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if abs(total - self.shots) > 1e-9 * max(1.0, self.shots):
            raise ValueError(f"counts sum to {total}, expected shots = {self.shots}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def sample_counts(rho: DensityMatrix, shots: int, seeds) -> list[CountRecord]:
    """One record per setting of ``NONTRIVIAL_SETTINGS``: setting k is a
    multinomial draw of ``shots`` from its exact outcome distribution, made
    by the generator of ``seeds[k]``; seed-deterministic."""
    shots = _check_count(shots, "shots", 1)
    if len(seeds) != len(NONTRIVIAL_SETTINGS):
        raise ValueError(f"need one seed per nontrivial setting (15), got {len(seeds)}")
    table = _outcome_table(rho)[1:]
    return [
        CountRecord(m, make_rng(seed).multinomial(shots, p), shots=shots)
        for m, seed, p in zip(NONTRIVIAL_SETTINGS, seeds, table)
    ]


def exact_record(rho: DensityMatrix, m: MeasurementSetting) -> CountRecord:
    """Infinite-shot record: fractional counts equal to the exact distribution."""
    if m.is_trivial:
        raise ValueError("the (I, I) setting is trivially 1 and is never recorded")
    return CountRecord(setting=m, counts=outcome_probabilities(rho, m), shots=1)


@dataclass(frozen=True)
class TomographyResult:
    """A maximum-likelihood state and what the run can vouch for.

    ``gap`` is the certified log-likelihood shortfall of ``rho_hat`` per
    count (times the total count N it is in nats), and ``converged`` is
    ``gap < tol / N``, with N as ``mle_reconstruct`` reads it.
    """

    rho_hat: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool
    gap: float


def _collect(records) -> list[CountRecord]:
    """Validate and order a record set: exactly the 15 nontrivial settings."""
    by_setting: dict[MeasurementSetting, CountRecord] = {}
    for rec in records:
        if rec.setting in by_setting:
            raise ValueError(f"duplicate records for setting {rec.setting.label()}")
        by_setting[rec.setting] = rec
    missing = [m.label() for m in NONTRIVIAL_SETTINGS if m not in by_setting]
    extra = [m.label() for m in by_setting if m.is_trivial]
    if missing or extra:
        raise ValueError(
            f"need exactly the 15 nontrivial settings; missing {missing}, extra {extra}"
        )
    return [by_setting[m] for m in NONTRIVIAL_SETTINGS]


def _measurement_arrays(ordered: list[CountRecord]):
    """Per-outcome projectors (shared stack rows), counts, and counts over the
    mean shots per setting, of the 15 nontrivial settings in ``_collect``
    order.

    One divisor for every setting keeps the kernel's R proportional to the
    gradient of sum_k counts_k log p_k, the likelihood it accepts steps by,
    also when settings have uneven shots.  With equal shots it is each
    setting's own shots, so the scaled counts are its frequencies exactly.
    """
    counts = np.stack([rec.counts for rec in ordered]).astype(np.float64)
    mean_shots = sum(rec.shots for rec in ordered) / len(ordered)
    return _projector_stack()[4:], counts.reshape(-1), counts.reshape(-1) / mean_shots


# Records with fractional counts (``exact_record``) hold probabilities, not
# samples, so they have no shot noise to scale the stop to.  They read ``tol``
# at the default scenarios' shots, which at the default ``tol`` is a
# shortfall of 1e-8 per count.
_EXACT_RECORD_TOTAL = len(NONTRIVIAL_SETTINGS) * DEFAULT_SHOTS


def mle_reconstruct(records, max_iter: int = 2000, tol: float = 0.015) -> TomographyResult:
    """Maximum-likelihood reconstruction (always physical).

    Iterates the reweighted-sandwich fixed point from the maximally mixed
    state on a factor t of rho = t t^H, so every iterate is positive
    semidefinite, accepting only likelihood-non-decreasing steps (full step
    when it improves, diluted otherwise) and extrapolating every two steps
    (SQUAREM, each cycle opened by a projected-gradient step; see ``_kernels``).
    ``iterations`` counts applications of the update map, extrapolated and
    projected ones included; ``max_iter`` bounds it and must be an integer
    >= 0 (a bool, float, NaN or inf raises ``ValueError``).

    ``tol`` is the certified total log-likelihood shortfall in nats at which
    the run stops (Glancy, Knill & Girard, New J. Phys. 14, 095017, 2012).
    A shortfall of delta nats moves each estimate by at most sqrt(2 delta)
    of its standard error, 0.17 sigma at the default 0.015.  The kernel
    certifies the shortfall per count, ``gap`` = (lambda_max(G) - Tr(G rho))
    / N with G the likelihood's gradient and N the total count (the sum of
    the records' shots), so the run stops, and ``converged`` holds, once
    ``gap < tol / N``: 1e-8 at 1e5 shots per setting.  Records with a
    fractional count are exact, with no shot noise to scale to, and stop at
    ``gap < tol / 1.5e6`` whatever their shots.  ``gap`` stays per count.
    ``tol = 0.0`` runs the whole budget; a negative or non-finite ``tol``
    raises ``ValueError``.  Non-convergence is reported, never raised.

    This unit replaces a per-count ``tol`` (default 1e-8), an API break: a
    per-count value passed here gives a stop N times tighter.
    """
    _check_count(max_iter, "max_iter", 0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number of nats >= 0, got {tol!r}")
    ordered = _collect(records)
    projs, counts, freqs = _measurement_arrays(ordered)
    exact = not np.array_equal(counts, np.rint(counts))
    total = _EXACT_RECORD_TOTAL if exact else sum(rec.shots for rec in ordered)
    rho_mat, iterations, ll, gap, converged = _kernels.mle_loop(
        projs, counts, freqs, max_iter, tol / total
    )
    return TomographyResult(
        rho_hat=DensityMatrix(rho_mat),
        iterations=iterations,
        log_likelihood=ll,
        converged=converged,
        gap=gap,
    )


def estimate_vdc_from_rho(rho_hat: DensityMatrix) -> DualityTriple:
    """Read the duality triple off a reconstructed two-qubit density matrix.

    D = |Tr rho_AA - Tr rho_BB| (path populations), V = 2 |Tr rho_AB| (the
    internal trace of the off-diagonal path block), C = Wootters concurrence.
    ``gamma`` is the effective overlap conj(Tr rho_AB) / sqrt(p_a * p_b)
    (zero when a path is empty); it matches |gamma| of a pure source but its
    phase also absorbs the path-amplitude phases.  The residual is reported
    as-is: nothing forces a reconstructed state onto the unit sphere.
    """
    _require_two_qubits(rho_hat)
    mat = rho_hat.matrix
    p_a = float(np.trace(mat[:2, :2]).real)
    p_b = float(np.trace(mat[2:, 2:]).real)
    cross = complex(np.trace(mat[:2, 2:]))
    v = min(1.0, 2.0 * abs(cross))
    d = min(1.0, abs(p_a - p_b))
    c = wootters_concurrence(rho_hat)
    gamma = cross.conjugate() / np.sqrt(p_a * p_b) if p_a * p_b > 1e-12 else 0j
    return DualityTriple(
        visibility=v,
        distinguishability=d,
        concurrence=c,
        gamma=gamma,
    )
