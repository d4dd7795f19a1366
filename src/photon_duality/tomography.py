"""Joint Pauli tomography of the path (x) polarization two-qubit state.

Measurement model: both qubits are measured projectively in Pauli eigenbases.
A setting is a pair of operators (path_op, internal_op) from {I, X, Y, Z};
the 15 settings other than (I, I) are informationally complete.  Each shot
yields a joint eigenvalue outcome in {+1, -1}^2, sampled from the exact
four-outcome distribution of the commuting pair's eigenprojectors.  For an
identity operator the -1 outcomes carry zero projectors, so their
probability is exactly zero, the empirical expectation reduces to the
marginal of the other qubit, and a record set with counts there is rejected.

Counts are held one way: a ``RecordSet``, one read-only (15, 4) array in
``NONTRIVIAL_SETTINGS`` x ``OUTCOMES`` order with each setting's shots.

Reconstruction is maximum likelihood, always physical, from the projected
linear-inversion state to a certified log-likelihood shortfall below ``tol``
nats; the inner loop lives in ``_kernels``.

The 60 outcome projectors of the nontrivial settings (15 settings x 4
outcomes) form one read-only stack, built on first use and shared by the
outcome table and the MLE loop, which for its start also reads their
pseudo-inverse, built once.  The outcome table is one contraction of that
stack with rho: the (15, 4) outcome distributions, from which both count
sampling and ``exact_record`` read their rows.

One ``sample_counts`` call draws a whole record set, row k one multinomial
from setting k's own generator, so counts are reproducible bit-for-bit from
their seeds.  A list of per-setting ``CountRecord``s, as ``exact_record``
builds, is read into a record set, which is where its counts are checked; an
exact record carries the expected counts of a ``DEFAULT_SHOTS`` run.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .metrics import DualityTriple
from .scenarios import DEFAULT_SHOTS
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


NONTRIVIAL_SETTINGS: tuple[MeasurementSetting, ...] = tuple(
    MeasurementSetting(p, i) for p in "IXYZ" for i in "IXYZ" if p + i != "II"
)


@cache
def _projector_stack() -> np.ndarray:
    """(60, 4, 4) outcome projectors of ``NONTRIVIAL_SETTINGS``, ordered as ``OUTCOMES``."""
    stack = np.array([proj for m in NONTRIVIAL_SETTINGS for proj in m.outcome_projectors()])
    stack.setflags(write=False)
    return stack


@cache
def _zero_projectors() -> np.ndarray:
    """(15, 4) mask of the outcomes whose projector is zero, ordered as ``_outcome_table``'s."""
    mask = ~_projector_stack().any(axis=(1, 2)).reshape(len(NONTRIVIAL_SETTINGS), len(OUTCOMES))
    mask.setflags(write=False)
    return mask


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.matrix.shape[0] != 4:
        raise ValueError(
            f"tomography supports d = 2 only (4 x 4 matrices), got {rho.matrix.shape}"
        )


def _outcome_table(rho: DensityMatrix) -> np.ndarray:
    """(15, 4) exact outcome distributions of ``NONTRIVIAL_SETTINGS``, rows
    ordered as ``OUTCOMES``."""
    _require_two_qubits(rho)
    p = np.einsum("kab,ba->k", _projector_stack(), rho.matrix).real
    p = np.clip(p, 0.0, None).reshape(len(NONTRIVIAL_SETTINGS), len(OUTCOMES))  # ~-1e-8 PSD dust
    return p / p.sum(axis=1, keepdims=True)


def _shape(x) -> tuple[int, ...] | None:
    """``np.shape(x)``, or None where ``x`` is ragged."""
    try:
        return np.shape(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        return None


class CountRecord(NamedTuple):
    """Outcome counts for one measurement setting, ordered as ``OUTCOMES``,
    and the ``shots`` they sum to; checked when read into a ``RecordSet``."""

    setting: MeasurementSetting
    counts: np.ndarray
    shots: int


@dataclass(frozen=True, eq=False)
class RecordSet:
    """The counts of one tomography run, validated once: ``counts`` is a
    read-only (15, 4) array, row k the setting ``NONTRIVIAL_SETTINGS[k]`` and
    columns ordered as ``OUTCOMES``, and ``shots`` holds each setting's shots,
    which its row sums to.  Counts are finite and non-negative; they need not
    be integers.  No state produces an outcome whose projector is zero (the
    -1 outcomes of an identity factor, 12 slots), so a nonzero count there
    raises."""

    counts: np.ndarray
    shots: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.shots, Iterable):
            raise ValueError(f"shots must hold each nontrivial setting's shots, got {self.shots!r}")
        shots = tuple(_check_count(s, "shots", 1) for s in self.shots)
        if len(shots) != len(NONTRIVIAL_SETTINGS):
            raise ValueError(f"need the shots of each nontrivial setting (15), got {len(shots)}")
        shape = (len(NONTRIVIAL_SETTINGS), len(OUTCOMES))
        counts = np.array(self.counts) if _shape(self.counts) == shape else None  # not ragged
        if counts is None or counts.dtype.kind not in "iuf":
            raise ValueError(f"counts must be a numeric {shape} array in OUTCOMES order")
        totals = counts.sum(axis=1, dtype=np.float64)
        if not np.all(np.isfinite(totals)):  # a NaN or an infinite count
            raise ValueError("counts must be finite")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        k, j = np.nonzero(_zero_projectors() & (counts != 0))
        if k.size:
            m, o = NONTRIVIAL_SETTINGS[k[0]].label(), OUTCOMES[j[0]]
            raise ValueError(f"setting {m} has counts in outcome {o}, whose projector is zero")
        expected = np.array(shots, dtype=np.float64)
        off = np.flatnonzero(np.abs(totals - expected) > 1e-9 * expected)
        if off.size:
            k = off[0]
            raise ValueError(
                f"counts of setting {NONTRIVIAL_SETTINGS[k].label()} sum to {totals[k]}, "
                f"expected shots = {shots[k]}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

    @property
    def frequencies(self) -> np.ndarray:
        """Counts over the mean shots per setting: one divisor for all keeps
        the kernel's R proportional to the likelihood's gradient under
        uneven shots; with equal shots these are the frequencies exactly."""
        return self.counts / (sum(self.shots) / len(self.shots))


def sample_counts(rho: DensityMatrix, shots: int, rngs) -> RecordSet:
    """The record set of ``NONTRIVIAL_SETTINGS``: row k is a multinomial draw
    of ``shots`` from setting k's exact outcome distribution, made by
    ``rngs[k]``, a list or tuple of 15 numpy Generators; seed-deterministic."""
    shots = _check_count(shots, "shots", 1)
    listed = isinstance(rngs, (list, tuple)) and len(rngs) == len(NONTRIVIAL_SETTINGS)
    if not listed or not all(isinstance(rng, np.random.Generator) for rng in rngs):
        raise ValueError(f"rngs must hold one generator per nontrivial setting (15), got {rngs!r:.80}")
    table = _outcome_table(rho)
    # Drawn over the outcomes of nonzero p only: numpy's sequential binomials
    # can leave a remainder in a trailing p = 0 (824 at 2^63 - 1 shots).
    ok = table > 0.0
    draws = [rng.multinomial(shots, p[m]) for rng, p, m in zip(rngs, table, ok)]
    counts = np.zeros(table.shape, dtype=np.int64)
    counts[ok] = np.concatenate(draws)
    return RecordSet(counts, (shots,) * len(NONTRIVIAL_SETTINGS))


def exact_record(rho: DensityMatrix, m: MeasurementSetting) -> CountRecord:
    """Shot-noise-free record: the expected counts of a ``DEFAULT_SHOTS`` run,
    ``DEFAULT_SHOTS`` times setting ``m``'s exact outcome distribution."""
    if m not in NONTRIVIAL_SETTINGS:
        raise ValueError("the (I, I) setting is trivially 1 and is never recorded")
    p = _outcome_table(rho)[NONTRIVIAL_SETTINGS.index(m)]
    return CountRecord(m, DEFAULT_SHOTS * p, DEFAULT_SHOTS)


@dataclass(frozen=True)
class TomographyResult:
    """A maximum-likelihood state and what the run can vouch for.

    ``gap`` is the certified log-likelihood shortfall of ``rho_hat`` per
    count (times the total count N it is in nats), a gradient or dual bound,
    and ``converged`` is ``gap < tol / N`` where the kernel can resolve that
    stop.
    """

    rho_hat: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool
    gap: float


def _collect(records) -> RecordSet:
    """``records`` as a ``RecordSet``; an iterable of ``CountRecord``s must
    hold exactly the 15 nontrivial settings.  That adapter stays while the
    benchmark's exact-record workload passes ``exact_record`` lists
    (ROADMAP item 1)."""
    if isinstance(records, RecordSet):
        return records
    by_setting: dict[MeasurementSetting, CountRecord] = {}
    for rec in records if isinstance(records, Iterable) else [records]:
        if not (isinstance(rec, CountRecord) and isinstance(rec.setting, MeasurementSetting)):
            raise ValueError(f"records must be a RecordSet or CountRecords, got {rec!r}")
        if rec.setting in by_setting:
            raise ValueError(f"duplicate records for setting {rec.setting.label()}")
        if _shape(rec.counts) != (len(OUTCOMES),):
            raise ValueError(f"counts of setting {rec.setting.label()} must have shape (4,)")
        by_setting[rec.setting] = rec
    missing = [m.label() for m in NONTRIVIAL_SETTINGS if m not in by_setting]
    extra = [m.label() for m in by_setting if m not in NONTRIVIAL_SETTINGS]
    if missing or extra:
        raise ValueError(
            f"need exactly the 15 nontrivial settings; missing {missing}, extra {extra}"
        )
    ordered = [by_setting[m] for m in NONTRIVIAL_SETTINGS]
    return RecordSet(np.stack([rec.counts for rec in ordered]), tuple(rec.shots for rec in ordered))


@cache
def _model() -> tuple[np.ndarray, ...]:
    """The kernel's read-only ``design`` of the 60 nontrivial outcome rows."""
    return _kernels.design(_projector_stack())


def mle_reconstruct(records, max_iter: int = 2000, tol: float = 0.015) -> TomographyResult:
    """Maximum-likelihood reconstruction (always physical).

    ``records`` is a ``RecordSet`` or the 15 ``CountRecord``s of the
    nontrivial settings in any order.  ``_kernels.mle_loop`` iterates on a
    factor t of rho = t t^H from the projected linear-inversion state, so
    every iterate is positive semidefinite (SQUAREM cycles, each opened by a
    projected-gradient step); the result rests on its certificate, ``gap``.
    ``iterations`` counts applications of the update map, extrapolated and
    projected ones included; ``max_iter`` bounds it and must be an integer
    >= 0 (a bool, float, NaN or inf raises ``ValueError``).

    ``tol`` is the certified total log-likelihood shortfall in nats at which
    the run stops (Glancy, Knill & Girard, New J. Phys. 14, 095017, 2012).
    A shortfall of delta nats moves each estimate by at most sqrt(2 delta)
    of its standard error, 0.17 sigma at the default 0.015.  The kernel
    certifies the shortfall per count, ``gap``: (lambda_max(G) - Tr(G rho))
    / N with G the likelihood's gradient and N the total count (the sum of
    the records' shots), or a lower Lagrange-dual bound once that is within
    ``_kernels.DUAL_GATE`` (1e3) times the stop.  The run stops, and
    ``converged`` holds, once ``gap < tol / N``: 1e-8 at 1e5 shots per
    setting, which ``exact_record``'s expected counts carry too.  ``gap``
    stays per count.  A stop ``tol / N`` below ~3.6e-15 (N above ~4e12 at
    the default) is finer than the kernel's certificate resolves, so the
    run stops there but never reports ``converged``.
    ``tol = 0.0`` runs the whole budget; a ``tol`` that is not a finite real
    >= 0 raises ``ValueError``.  Non-convergence is reported, never raised.
    """
    _check_count(max_iter, "max_iter", 0)
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < float("inf")):
        raise ValueError(f"tol must be a finite number of nats >= 0, got {tol!r}")
    rs = _collect(records)
    rho_mat, iterations, ll, gap, converged = _kernels.mle_loop(
        _model(), rs.counts.reshape(-1), rs.frequencies.reshape(-1), max_iter, tol / sum(rs.shots)
    )
    return TomographyResult(DensityMatrix(rho_mat), iterations, ll, converged, gap)


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
