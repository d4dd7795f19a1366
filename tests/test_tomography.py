"""Pauli sampling, MLE reconstruction, triple extraction."""

import functools
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_states import random_rho

from photon_duality import (
    CountRecord,
    DensityMatrix,
    MeasurementSetting,
    RecordSet,
    TwoPathState,
    derive_seed,
    estimate_vdc_from_rho,
    exact_record,
    mle_reconstruct,
    pure_state_fidelity,
    random_two_path_state,
    sample_counts,
    to_density_matrix,
    vdc_triple,
)
from photon_duality import _kernels
from photon_duality._kernels import _ULP_SLACK, P_FLOOR
from photon_duality.pipeline import STAGE_TOMOGRAPHY
from photon_duality.scenarios import DEFAULT_SHOTS, MAX_SHOTS, default_scenarios, reseed
from photon_duality.seeding import make_rng
from photon_duality.tomography import (
    NONTRIVIAL_SETTINGS,
    OUTCOMES,
    PAULI,
    _collect,
    _model,
    _outcome_table,
)

HALF = math.sqrt(0.5)
TRIVIAL = MeasurementSetting("I", "I")
MIXED = DensityMatrix(np.eye(4, dtype=complex) / 4)
# Eigenvalue s * t of sigma_path (x) sigma_internal on each outcome.
SIGNS = np.array([s * t for s, t in OUTCOMES], dtype=np.float64)
# (15, 4): the outcomes some state produces.  An identity factor has no -1
# outcome, so 12 slots are out: 2 in each of IX, IY, IZ, XI, YI and ZI.
POSSIBLE = np.array(
    [[(m.path_op != "I" or s > 0) and (m.internal_op != "I" or t > 0) for s, t in OUTCOMES]
     for m in NONTRIVIAL_SETTINGS]
)
IMPOSSIBLE = [
    (m.label(), o) for m, row in zip(NONTRIVIAL_SETTINGS, POSSIBLE)
    for o, ok in zip(OUTCOMES, row) if not ok
]


def pauli_operator(m):
    return np.kron(PAULI[m.path_op], PAULI[m.internal_op])


def outcome_row(rho, m):
    """Setting ``m``'s exact outcome distribution: its row of the outcome table."""
    return _outcome_table(rho)[NONTRIVIAL_SETTINGS.index(m)]


def expectation(rec):
    """Empirical <sigma_path (x) sigma_internal> of one record."""
    return float(rec.counts @ SIGNS) / rec.shots


def bell_like_state():
    return TwoPathState(HALF, HALF, [1, 0], [0, 1])


# The oracle's dilution retreats by halving eps from 0.5 down to this.
EPS_MIN = 1e-8


# Test-only oracle: the diluted R rho R iteration in the einsum form that the
# GEMV kernel replaced, kept verbatim (no factor form, no extrapolation),
# with the arrays it was fed (projectors rebuilt per setting, masked
# log-likelihood).  Unlike the kernel, it still falls back to a diluted step
# (I + eps R) rho (I + eps R) when the full one lowers the likelihood.
def _mle_loop_numpy(projs, counts, freqs, rho0, max_iter, tol):
    eye = np.eye(rho0.shape[0], dtype=np.complex128)
    mask = counts > 0.0

    def probs(rho):
        return np.maximum(np.einsum("kab,ba->k", projs, rho).real, P_FLOOR)

    def loglik(p):
        return float(np.sum(counts[mask] * np.log(p[mask])))

    def sandwich(op, rho):
        cand = op @ rho @ op
        cand = 0.5 * (cand + cand.conj().T)
        return cand / np.trace(cand).real

    rho = rho0.copy()
    p = probs(rho)
    ll = loglik(p)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        slack = _ULP_SLACK * (1.0 + abs(ll))
        reweight = np.einsum("k,kab->ab", freqs / p, projs)
        cand = sandwich(reweight, rho)
        p_cand = probs(cand)
        ll_cand = loglik(p_cand)
        if ll_cand < ll - slack:
            eps = 0.5
            improved = False
            while eps >= EPS_MIN:
                cand = sandwich(eye + eps * reweight, rho)
                p_cand = probs(cand)
                ll_cand = loglik(p_cand)
                if ll_cand >= ll - slack:
                    improved = True
                    break
                eps *= 0.5
            if not improved:
                converged = True  # no admissible step improves: gain is below tol
                break
        gain = max(ll_cand - ll, 0.0)
        rho, p, ll = cand, p_cand, ll_cand
        if gain < tol:
            converged = True
            break
    return rho, iterations, ll, converged


def oracle_arrays(records):
    """Projectors, counts and frequencies stacked setting by setting."""
    rs = _collect(records)
    projs, counts, freqs = [], [], []
    for m, row, shots in zip(NONTRIVIAL_SETTINGS, rs.counts, rs.shots):
        projs.extend(m.outcome_projectors())
        counts.extend(row)
        freqs.extend(row / shots)
    return (
        np.array(projs, dtype=np.complex128),
        np.array(counts, dtype=np.float64),
        np.array(freqs, dtype=np.float64),
    )


def total_shots(records):
    return sum(_collect(records).shots)


def simplex_projection(v):
    """Euclidean projection of ``v`` onto the unit simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = max(i for i in range(len(u)) if u[i] - (css[i] - 1.0) / (i + 1) > 0.0)
    return np.maximum(v - (css[j] - 1.0) / (j + 1), 0.0)


def independent_start(records):
    """The kernel's starting state, computed apart from it: the complex
    least-squares solution of Tr(P_k rho) = f_k over the stacked per-setting
    projectors (f = counts over the mean shots per setting), its Hermitian
    part with the eigenvalues projected onto the unit simplex, and 1e-4 of
    I / 4 mixed in."""
    projs, counts, _ = oracle_arrays(records)
    freqs = counts / (total_shots(records) / 15)
    # Tr(P rho) = sum_ab conj(P_ab) rho_ab for Hermitian P.
    sol = np.linalg.lstsq(projs.conj().reshape(60, 16), freqs.astype(complex), rcond=None)[0]
    ls = sol.reshape(4, 4)
    w, vecs = np.linalg.eigh(0.5 * (ls + ls.conj().T))
    lam = (1.0 - 1e-4) * simplex_projection(w) + 1e-4 / 4
    return (vecs * lam) @ vecs.conj().T


def oracle_reconstruct(records, max_iter=2000, tol=1e-10, rho0=None):
    """(rho, iterations, log-likelihood, converged) from the oracle loop,
    started at ``rho0`` (default I / 4)."""
    if rho0 is None:
        rho0 = 0.25 * np.eye(4, dtype=np.complex128)
    return _mle_loop_numpy(*oracle_arrays(records), rho0, max_iter, tol)


# Certified shortfall in nats below which the oracle's state is taken as the
# optimum.  The oracle's gain stop alone can leave it far short: on
# default-skew-g0.00 it stops after ~28k steps 1.6e-4 nats from the optimum,
# 2.2e-6 (max entry) from a state certified within 1.3e-8 nats.
ORACLE_SHORTFALL = 1e-5


@functools.cache
def oracle_optimum(index):
    """(rho, log-likelihood) of the oracle on ``oracle_input(index)``, run to
    its gain stop and then on, 10 000 steps at a time, until ``certified_gap``
    puts it within ``ORACLE_SHORTFALL`` nats of the optimum; computed once
    per input."""
    recs = oracle_input(index)
    total = total_shots(recs)
    rho, _, ll, converged = oracle_reconstruct(recs, max_iter=40_000)
    assert converged
    for _ in range(20):
        if certified_gap(rho, recs) * total < ORACLE_SHORTFALL:
            return rho, ll
        rho, _, ll, _ = _mle_loop_numpy(*oracle_arrays(recs), rho, 10_000, 0.0)
    raise AssertionError(f"the oracle did not certify oracle_input({index})")


def certified_gap(rho_mat, records):
    """(lambda_max(G) - Tr(G rho)) / N, with G = sum_k (counts_k / p_k) P_k
    the log-likelihood's gradient and N the total count."""
    projs, counts, _ = oracle_arrays(records)
    p = np.maximum(np.einsum("kab,ba->k", projs, rho_mat).real, P_FLOOR)
    grad = np.einsum("k,kab->ab", counts / p, projs)
    return (np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho_mat).real) / counts.sum()


def sampled_records(rho, shots, master_seed):
    return sample_counts(rho, shots, [derive_seed(master_seed, k) for k in range(15)])


def sampled_row(rho, m, shots, seed):
    """The (4,) counts of setting ``m`` drawn from ``seed``."""
    return sample_counts(rho, shots, [seed] * 15).counts[NONTRIVIAL_SETTINGS.index(m)]


ORACLE_INPUT_IDS = [sc.name for sc in default_scenarios()] + ["bell-like"]


def oracle_input(index):
    """Records of the 7 seed-42 defaults as the pipeline samples them (index
    0-6), or of the Bell-like state at 50 000 shots (index 7)."""
    if index == 7:
        return sampled_records(to_density_matrix(bell_like_state()), 50_000, 13)
    sc = reseed(default_scenarios(), 42)[index]
    rho_true = to_density_matrix(sc.state)
    seeds = [derive_seed(sc.seed, STAGE_TOMOGRAPHY, k) for k in range(15)]
    return sample_counts(rho_true, sc.shots, seeds)


class TestSettings:
    def test_fifteen_settings_in_path_major_order(self):
        # Row k of every record set, and so the seed it is drawn from, is
        # this order's k-th setting.
        labels = [m.label() for m in NONTRIVIAL_SETTINGS]
        assert labels == [p + i for p in "IXYZ" for i in "IXYZ"][1:]
        assert TRIVIAL not in NONTRIVIAL_SETTINGS

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="I, X, Y, Z"):
            MeasurementSetting("Q", "I")

    def test_projectors_resolve_identity(self):
        for m in (TRIVIAL, *NONTRIVIAL_SETTINGS):
            total = sum(m.outcome_projectors())
            np.testing.assert_allclose(total, np.eye(4), atol=1e-14)

    def test_projectors_reproduce_operator(self):
        # Identity factors included: their -1 projectors are zero, so the
        # sign-weighted sum still rebuilds sigma_path (x) sigma_internal.
        for m in (TRIVIAL, *NONTRIVIAL_SETTINGS):
            rebuilt = sum(
                s * t * proj for (s, t), proj in zip(OUTCOMES, m.outcome_projectors())
            )
            np.testing.assert_allclose(rebuilt, pauli_operator(m), atol=1e-14)

    def test_exactly_the_twelve_impossible_outcomes_have_zero_projectors(self):
        zero = [[not proj.any() for proj in m.outcome_projectors()] for m in NONTRIVIAL_SETTINGS]
        assert np.array_equal(zero, ~POSSIBLE) and len(IMPOSSIBLE) == 12


class TestPauliExpectation:
    """A Pauli expectation is the sign-weighted outcome distribution."""

    def test_table_has_a_row_per_nontrivial_setting(self):
        rho = to_density_matrix(bell_like_state())
        assert _outcome_table(rho).shape == (15, 4)

    def test_bell_like_stabilizer(self):
        # Direct-trace oracle for <X (x) X> on the maximally entangled state.
        rho = to_density_matrix(bell_like_state())
        oracle = np.trace(rho.matrix @ np.kron(PAULI["X"], PAULI["X"])).real
        assert oracle == pytest.approx(1.0, abs=1e-12)
        p = outcome_row(rho, MeasurementSetting("X", "X"))
        assert p @ SIGNS == pytest.approx(1.0, abs=1e-12)

    def test_path_population_difference(self):
        s = TwoPathState(math.sqrt(0.7), math.sqrt(0.3), [1, 0], [1, 0])
        p = outcome_row(to_density_matrix(s), MeasurementSetting("Z", "I"))
        assert p @ SIGNS == pytest.approx(0.4, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            rho = to_density_matrix(random_two_path_state(rng))
            for m in NONTRIVIAL_SETTINGS:
                e = outcome_row(rho, m) @ SIGNS
                assert abs(e) <= 1 + 1e-10
                assert e == pytest.approx(np.trace(rho.matrix @ pauli_operator(m)).real, abs=1e-12)

    def test_rejects_higher_dimension(self):
        rho = to_density_matrix(random_two_path_state(np.random.default_rng(1), dim=3))
        with pytest.raises(ValueError, match="d = 2"):
            _outcome_table(rho)


# sha256 over the little-endian int64 counts of the 7 seed-42 defaults' record
# sets (``oracle_input(0..6)``), then the 14 ``sweep`` record sets
# (``sweep_input(d, shots)``, d-major, 4000 before 16000 shots).
SEEDED_DRAWS_SHA256 = "c4e84fad6992e55130f012cc9242351f38e0b335c1c784b71ba4101c129d6883"


class TestSampleCounts:
    def test_seeded_draws_are_pinned(self):
        # Every count the pipeline draws for these runs, each setting from
        # derive_seed(scenario seed, STAGE_TOMOGRAPHY, k): an edit to the
        # outcome table or to sampling that moves one draw moves the hash.
        record_sets = [oracle_input(i) for i in range(7)]
        record_sets += [sweep_input(d, shots) for d in range(7) for shots in (4000, 16000)]
        digest = hashlib.sha256()
        for rs in record_sets:
            digest.update(np.ascontiguousarray(rs.counts, dtype="<i8").tobytes())
        assert digest.hexdigest() == SEEDED_DRAWS_SHA256

    def test_single_shot_lands_once(self):
        counts = sampled_row(MIXED, MeasurementSetting("X", "Z"), shots=1, seed=3)
        assert sorted(counts.tolist()) == [0, 0, 0, 1]

    def test_eigenstate_concentrates(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [1, 0])
        counts = sampled_row(to_density_matrix(s), MeasurementSetting("Z", "Z"), 5000, seed=4)
        assert counts[OUTCOMES.index((1, 1))] == 5000

    def test_identity_side_outcomes_never_fire(self):
        counts = sampled_row(MIXED, MeasurementSetting("Z", "I"), 5000, seed=5)
        assert counts[OUTCOMES.index((1, -1))] == 0
        assert counts[OUTCOMES.index((-1, -1))] == 0

    def test_no_count_lands_where_p_is_zero_at_max_shots(self):
        # Drawn over all four outcomes, numpy's sequential binomials left 824
        # of 2^63 - 1 shots in IZ's (-1, -1), whose projector is zero.
        sc = next(sc for sc in reseed(default_scenarios(), 42) if sc.name == "default-arc-g0.92")
        rho = to_density_matrix(sc.state)
        seeds = [derive_seed(sc.seed, STAGE_TOMOGRAPHY, k) for k in range(15)]
        counts = sample_counts(rho, MAX_SHOTS, seeds).counts
        assert not counts[_outcome_table(rho) == 0.0].any()
        assert np.all(counts.sum(axis=1) == MAX_SHOTS)

    def test_empirical_expectation_near_exact(self):
        rho = to_density_matrix(random_two_path_state(np.random.default_rng(41)))
        shots = 100_000
        for m, counts in zip(NONTRIVIAL_SETTINGS, sampled_records(rho, shots, 7).counts):
            exact = np.trace(rho.matrix @ pauli_operator(m)).real
            assert abs(float(counts @ SIGNS) / shots - exact) <= 5 / math.sqrt(shots)

    def test_bit_exact_reproducibility(self):
        rho = to_density_matrix(bell_like_state())
        a = sampled_row(rho, MeasurementSetting("X", "Y"), 10_000, seed=99)
        b = sampled_row(rho, MeasurementSetting("X", "Y"), 10_000, seed=99)
        assert np.array_equal(a, b)

    def test_counts_are_integers_summing_to_shots(self):
        counts = sampled_row(MIXED, MeasurementSetting("Y", "Y"), 777, seed=6)
        assert counts.shape == (4,) and counts.dtype == np.int64
        assert counts.sum() == 777
        assert not counts.flags.writeable

    @pytest.mark.parametrize("shots", [1, 4000, 100_000])
    def test_one_draw_per_setting_from_its_own_seed(self, shots):
        # Setting k's counts are exactly the multinomial draw of seeds[k]'s
        # generator from that setting's own 4-row contraction.
        rng = np.random.default_rng(shots)
        stack = np.array([p for m in NONTRIVIAL_SETTINGS for p in m.outcome_projectors()])
        for i in range(20):
            rho = to_density_matrix(random_two_path_state(rng))
            seeds = [derive_seed(shots, i, k) for k in range(15)]
            records = sample_counts(rho, shots, seeds)
            assert records.counts.shape == (15, 4)
            table = _outcome_table(rho)
            for k, m in enumerate(NONTRIVIAL_SETTINGS):
                p = np.einsum("kab,ba->k", stack[4 * k : 4 * k + 4], rho.matrix).real
                p = np.clip(p, 0.0, None)
                p = p / p.sum()
                assert np.array_equal(table[k], p)
                assert np.array_equal(exact_record(rho, m).counts, DEFAULT_SHOTS * table[k])
                expected = make_rng(seeds[k]).multinomial(shots, p)
                assert np.array_equal(records.counts[k], expected)
                assert records.shots[k] == shots

    def test_maximally_mixed_expectations_small(self):
        for counts in sampled_records(MIXED, 100_000, 9).counts:
            assert abs(float(counts @ SIGNS) / 100_000) < 5 / math.sqrt(100_000)

    @pytest.mark.parametrize(
        "seeds",
        [list(range(14)), None, 7, iter(range(15)), [[1], [1, 2]], [[1], [1, 2], *range(13)]],
        ids=["14", "none", "int", "iterator", "ragged", "ragged-15"],
    )
    def test_one_seed_per_setting_required(self, seeds):
        # None, an int or an iterator once raised TypeError from len(), and a
        # ragged list numpy's bare "inhomogeneous shape" ValueError.
        with pytest.raises(ValueError, match="seeds must hold one seed per nontrivial setting"):
            sample_counts(MIXED, 100, seeds)

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be in"):
            sample_counts(MIXED, 100, [0] * 14 + [2**64])

    @pytest.mark.parametrize("shots", [1.9, 100.0, math.nan, True, "100", 0, -5])
    def test_shots_must_be_a_positive_int(self, shots):
        # numpy truncates a float n, so 1.9 once drew one shot per setting.
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            sample_counts(MIXED, shots, list(range(15)))

    @pytest.mark.parametrize("shots", [1.5, 100.0, math.nan, True, 0])
    def test_count_record_shots_must_be_a_positive_int(self, shots):
        # A record is checked where it is read: in the record set it joins.
        recs = list(map(CountRecord, NONTRIVIAL_SETTINGS, valid_counts(), (100,) * 15))
        recs[3] = CountRecord(recs[3].setting, np.array([1.0, 0.0, 0.0, 0.0]) * shots, shots)
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            mle_reconstruct(recs)

    def test_numpy_integer_shots_accepted(self):
        records = sample_counts(MIXED, np.int64(100), list(range(15)))
        assert records.shots == (100,) * 15

    def test_exact_record_is_the_expected_counts_at_default_shots(self):
        rho = to_density_matrix(bell_like_state())
        m = MeasurementSetting("X", "X")
        rec = exact_record(rho, m)
        assert rec.setting == m and rec.shots == DEFAULT_SHOTS
        assert np.array_equal(rec.counts, DEFAULT_SHOTS * outcome_row(rho, m))
        assert rec.counts.dtype == np.float64
        assert expectation(rec) == pytest.approx(1.0, abs=1e-12)

    def test_exact_record_rejects_the_trivial_setting(self):
        rho = to_density_matrix(bell_like_state())
        with pytest.raises(ValueError, match=r"the \(I, I\) setting is trivially 1"):
            exact_record(rho, MeasurementSetting("I", "I"))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([math.nan, 50, 25, 25], "finite"),
            ([math.inf, 50, 25, 25], "finite"),
            ([-1, 51, 25, 25], "non-negative"),
            ([50, 25, 25], r"setting XZ must have shape \(4,\)"),
            ([50, 25, 25, 1], "setting XZ sum to 101"),
        ],
        ids=["nan", "inf", "negative", "three-outcomes", "wrong-sum"],
    )
    def test_count_record_rejects_bad_counts(self, counts, message):
        # A NaN count once passed (NaN < 0 and |NaN - shots| > tol are both
        # false) and crashed the MLE's eigensolver downstream; three outcomes
        # once met numpy's bare "same shape" error, naming no setting.
        recs = list(map(CountRecord, NONTRIVIAL_SETTINGS, valid_counts(), (100,) * 15))
        k = NONTRIVIAL_SETTINGS.index(MeasurementSetting("X", "Z"))
        recs[k] = CountRecord(recs[k].setting, np.array(counts, dtype=float), 100)
        with pytest.raises(ValueError, match=message):
            mle_reconstruct(recs)

    def test_ragged_counts_rejected(self):
        # numpy's bare "inhomogeneous shape" error once named no setting.
        recs = list(map(CountRecord, NONTRIVIAL_SETTINGS, valid_counts(), (100,) * 15))
        k = NONTRIVIAL_SETTINGS.index(MeasurementSetting("X", "Z"))
        recs[k] = CountRecord(recs[k].setting, [[1], [1, 2]], 1)
        with pytest.raises(ValueError, match=r"^counts of setting XZ must have shape \(4,\)$"):
            mle_reconstruct(recs)


def valid_counts():
    """100 shots a setting, none in a slot that no state produces."""
    counts = np.where(POSSIBLE, [50, 25, 25, 0], 0)
    counts[:, 0] += 100 - counts.sum(axis=1)
    return counts


class TestRecordSet:
    """One validated (15, 4) count array; a list of ``CountRecord``s is only
    an adapter onto it."""

    @pytest.mark.parametrize(
        "counts, message",
        [
            (valid_counts()[:14], r"\(15, 4\) array"),
            (valid_counts()[:, :3], r"\(15, 4\) array"),
            (valid_counts().astype(complex), "numeric"),
            (valid_counts().astype(bool), "numeric"),
            (np.where(np.eye(15, 4, dtype=bool), math.nan, valid_counts()), "finite"),
            (np.where(np.eye(15, 4, dtype=bool), math.inf, valid_counts()), "finite"),
            (valid_counts() + [[0, 1, 0, -1]], "non-negative"),
            (valid_counts() + np.eye(15, 4, -5, dtype=int), "setting XY sum to 101"),
        ],
        ids=["rows", "columns", "complex", "bool", "nan", "inf", "negative", "wrong-sum"],
    )
    def test_rejects_bad_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            RecordSet(counts, (100,) * 15)

    @pytest.mark.parametrize("bad", [True, 100.0, math.nan, 0])
    def test_rejects_bad_shots(self, bad):
        shots = (100,) * 7 + (bad,) + (100,) * 7
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            RecordSet(valid_counts(), shots)

    @pytest.mark.parametrize("shots", [100, None, 100.0])
    def test_rejects_shots_that_are_not_a_sequence(self, shots):
        # An int once raised TypeError: 'int' object is not iterable.
        with pytest.raises(ValueError, match="shots must hold each nontrivial setting's shots"):
            RecordSet(valid_counts(), shots)

    @pytest.mark.parametrize(
        "records",
        [[1, 2, 3], None, 42, "records", [CountRecord("XY", np.ones(4), 4)]],
        ids=["ints", "none", "int", "str", "str-setting"],
    )
    def test_rejects_records_of_the_wrong_type(self, records):
        # A list of ints, or a record whose setting is a label, once raised
        # AttributeError, and None TypeError.
        with pytest.raises(ValueError, match="records must be a RecordSet or CountRecords"):
            mle_reconstruct(records)

    @pytest.mark.parametrize("label, outcome", IMPOSSIBLE, ids=[f"{m}{o}" for m, o in IMPOSSIBLE])
    def test_rejects_a_count_that_no_state_produces(self, label, outcome):
        # Such counts once reached the MLE, which certified a log-likelihood
        # that only the probability floor made finite.
        k = [m.label() for m in NONTRIVIAL_SETTINGS].index(label)
        counts = valid_counts().astype(float)
        counts[k, OUTCOMES.index(outcome)] = 0.0
        RecordSet(counts, (100,) * 15)  # a zero there is accepted
        counts[k, 0] -= 0.5
        counts[k, OUTCOMES.index(outcome)] = 0.5
        message = re.escape(f"setting {label} has counts in outcome {outcome}, whose projector is zero")
        with pytest.raises(ValueError, match=message):
            RecordSet(counts, (100,) * 15)

    def test_needs_the_shots_of_each_setting(self):
        with pytest.raises(ValueError, match="shots of each nontrivial setting"):
            RecordSet(valid_counts(), (100,) * 14)

    def test_counts_are_a_read_only_copy(self):
        counts = valid_counts()
        rs = RecordSet(counts, (100,) * 15)
        counts[0, 0] = 0
        assert rs.counts[0, 0] == valid_counts()[0, 0]
        assert not rs.counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rs.counts[0, 0] = 1

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_list_and_record_set_give_identical_results(self, exact):
        rho = to_density_matrix(random_two_path_state(np.random.default_rng(47)))
        if exact:
            recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
        else:
            rs = sampled_records(rho, 4000, 17)
            recs = list(map(CountRecord, NONTRIVIAL_SETTINGS, rs.counts, rs.shots))
        as_set = _collect(recs[::-1])  # the adapter orders the list
        a, b = mle_reconstruct(recs[::-1]), mle_reconstruct(as_set)
        assert np.array_equal(a.rho_hat.matrix, b.rho_hat.matrix)
        assert (a.iterations, a.log_likelihood, a.converged, a.gap) == (
            b.iterations, b.log_likelihood, b.converged, b.gap
        )

    def test_adapter_rejects_the_trivial_setting(self):
        rho = to_density_matrix(bell_like_state())
        recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
        trivial = CountRecord(MeasurementSetting("I", "I"), np.array([1.0, 0, 0, 0]), 1)
        with pytest.raises(ValueError, match=r"extra \['II'\]"):
            mle_reconstruct(recs + [trivial])


class TestMLE:
    def test_missing_setting_rejected(self):
        rho = to_density_matrix(bell_like_state())
        recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS[:-1]]
        with pytest.raises(ValueError, match="missing"):
            mle_reconstruct(recs)

    def test_duplicate_setting_rejected(self):
        rho = to_density_matrix(bell_like_state())
        recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
        with pytest.raises(ValueError, match="duplicate"):
            mle_reconstruct(recs + [recs[0]])

    def test_exact_records_fixed_point_near_truth(self):
        s = random_two_path_state(np.random.default_rng(43))
        rho = to_density_matrix(s)
        recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
        result = mle_reconstruct(recs, max_iter=30_000, tol=0.0)
        assert pure_state_fidelity(result.rho_hat, s) >= 1 - 1e-6

    def test_sampled_pure_state(self):
        s = random_two_path_state(np.random.default_rng(44))
        result = mle_reconstruct(sampled_records(to_density_matrix(s), 100_000, 10))
        assert pure_state_fidelity(result.rho_hat, s) >= 0.98

    def test_maximally_mixed_eigenvalues(self):
        result = mle_reconstruct(sampled_records(MIXED, 100_000, 11))
        eigs = np.linalg.eigvalsh(result.rho_hat.matrix)
        assert np.all(np.abs(eigs - 0.25) < 0.05)

    def test_output_is_physical(self):
        rng = np.random.default_rng(45)
        for master in range(5):
            rho = to_density_matrix(random_two_path_state(rng))
            result = mle_reconstruct(sampled_records(rho, 2_000, master))
            eigs = np.linalg.eigvalsh(result.rho_hat.matrix)
            assert eigs[0] >= -1e-10
            assert np.trace(result.rho_hat.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_likelihood_monotone_in_iteration_budget(self):
        # An observed property of this input, not a guarantee: no step of
        # the kernel is required to raise the likelihood (what a run vouches
        # for is its certificate), but here the likelihood after k map
        # applications never drops as k grows (beyond float resolution).
        recs = sampled_records(to_density_matrix(bell_like_state()), 20_000, 12)
        lls = [
            mle_reconstruct(recs, max_iter=k, tol=0.0).log_likelihood
            for k in (1, 2, 5, 10, 20, 50, 100, 200)
        ]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9 * (1 + abs(a))

    def test_kernel_matches_oracle_at_fixed_iteration_count(self):
        # Both sides reach the Bell-like optimum well within 500 steps, so
        # equal step counts must agree to roundoff.
        recs = sampled_records(to_density_matrix(bell_like_state()), 50_000, 13)
        result = mle_reconstruct(recs, max_iter=500, tol=0.0)
        rho, iterations, ll, _ = oracle_reconstruct(recs, max_iter=500, tol=0.0)
        assert result.iterations == iterations == 500
        assert np.max(np.abs(result.rho_hat.matrix - rho)) < 1e-10
        assert result.log_likelihood == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_plain_steps_match_oracle(self, max_iter):
        # A budget too small for one extrapolation cycle runs the plain
        # R rho R steps, which must follow the oracle's path to roundoff
        # from the same start.
        rho_true = to_density_matrix(random_two_path_state(np.random.default_rng(48)))
        recs = sampled_records(rho_true, 20_000, 14)
        result = mle_reconstruct(recs, max_iter=max_iter, tol=0.0)
        rho, iterations, ll, _ = oracle_reconstruct(
            recs, max_iter=max_iter, tol=0.0, rho0=independent_start(recs)
        )
        assert result.iterations == iterations == max_iter
        assert np.max(np.abs(result.rho_hat.matrix - rho)) < 1e-10
        assert result.log_likelihood == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("max_iter, steps", [(1, 0), (2, 0), (3, 0), (4, 1), (7, 1), (8, 2)])
    def test_projected_steps_need_four_applications_left(self, max_iter, steps, monkeypatch):
        # Each cycle with four applications left opens with a projected step
        # (an eigh each, after the start's one); budgets of at most 3 keep
        # the plain path.
        calls = []
        eigh = np.linalg.eigh

        def spy(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        recs = sampled_records(to_density_matrix(bell_like_state()), 20_000, 12)
        result = mle_reconstruct(recs, max_iter=max_iter, tol=0.0)
        assert (result.iterations, len(calls)) == (max_iter, 1 + steps)

    def test_zero_budget_returns_the_start(self):
        recs = sampled_records(to_density_matrix(bell_like_state()), 20_000, 12)
        result = mle_reconstruct(recs, max_iter=0, tol=0.0)
        assert result.iterations == 0
        assert np.max(np.abs(result.rho_hat.matrix - independent_start(recs))) < 1e-10

    def test_start_on_exact_records_is_the_truth(self):
        # Linear inversion of exact records returns the pure truth, which
        # the projection keeps; only the 1e-4 mix of I / 4 moves it.
        rng = np.random.default_rng(49)
        for _ in range(50):
            rho = to_density_matrix(random_two_path_state(rng))
            recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
            start = mle_reconstruct(recs, max_iter=0).rho_hat.matrix
            assert np.max(np.abs(start - rho.matrix)) < 2e-4

    @pytest.mark.parametrize("index", range(8), ids=ORACLE_INPUT_IDS)
    def test_kernel_matches_oracle_with_gain_stopping(self, index):
        # The accelerated solver takes another path than the oracle, so it is
        # held to the optimum the oracle reaches when run to a certified
        # shortfall, and to the oracle's result at the default budget: no
        # lower likelihood, no more iterations.  The stop is a shortfall of
        # 1e-14 per count, ~50 ulps of the log-likelihood.  Every input but
        # default-arc-g0.71 certifies within the default budget; that one
        # certifies within twice it, and its rho_hat is held to the
        # reference all the same.
        recs = oracle_input(index)
        tol = 1e-14 * total_shots(recs)
        result = mle_reconstruct(recs, tol=tol)
        _, budget_iterations, budget_ll, _ = oracle_reconstruct(recs)
        rho, ll = oracle_optimum(index)
        assert result.log_likelihood == pytest.approx(ll, rel=1e-9)
        assert np.max(np.abs(result.rho_hat.matrix - rho)) < 1e-6
        if ORACLE_INPUT_IDS[index] == "default-arc-g0.71":
            assert mle_reconstruct(recs, max_iter=4000, tol=tol).converged
        else:
            assert result.converged
        assert result.log_likelihood >= budget_ll - _ULP_SLACK * (1.0 + abs(budget_ll))
        assert result.iterations <= budget_iterations

    @pytest.mark.parametrize("index", range(8), ids=ORACLE_INPUT_IDS)
    def test_certificate_bounds_oracle_optimum(self, index):
        # At the default tol every input certifies, and the certified
        # shortfall per count, never above the gradient bound, bounds the gap
        # to the optimum the oracle reaches when run to a certified shortfall.
        recs = oracle_input(index)
        result = mle_reconstruct(recs)
        assert result.converged and result.gap < 1e-8
        assert result.gap <= certified_gap(result.rho_hat.matrix, recs) * (1.0 + 1e-6) + 1e-12
        _, ll = oracle_optimum(index)
        total = total_shots(recs)
        assert ll - result.log_likelihood <= result.gap * total + _ULP_SLACK * (1.0 + abs(ll))

    @pytest.mark.parametrize("index", range(8), ids=ORACLE_INPUT_IDS)
    def test_no_returned_state_strands_a_favoured_direction(self, index):
        # A direction the projected step zeroes stays zero under every other
        # step, so the kernel must not zero one the likelihood's gradient
        # favours: at every budget, the gradient G restricted to the null
        # space of rho_hat has no eigenvalue above Tr(G rho_hat).
        recs = oracle_input(index)
        projs, counts, _ = oracle_arrays(recs)
        for max_iter in range(4, 41):
            mat = mle_reconstruct(recs, max_iter=max_iter, tol=0.0).rho_hat.matrix
            w, vecs = np.linalg.eigh(mat)
            null = vecs[:, w < 1e-12]
            if null.shape[1] == 0:
                continue
            p = np.maximum(np.einsum("kab,ba->k", projs, mat).real, P_FLOOR)
            grad = np.einsum("k,kab->ab", counts / p, projs)
            excess = np.linalg.eigvalsh(null.conj().T @ grad @ null)[-1] - np.trace(grad @ mat).real
            assert excess <= 1e-9 * counts.sum(), (max_iter, excess)

    def test_kernel_converges_on_oracle_inputs(self):
        # default-skew-g0.00 included: the oracle needs ~28k iterations to
        # converge on it.
        converged = [mle_reconstruct(oracle_input(i)).converged for i in range(8)]
        assert sum(converged) == 8

    def test_uneven_shots_reach_the_certified_optimum(self):
        # Settings with 100x different shots: the reweighting must follow
        # the gradient of sum_k counts_k log p_k, or the iteration freezes
        # short of the optimum that the likelihood acceptance targets.
        rho = to_density_matrix(random_two_path_state(np.random.default_rng(5)))
        seeds = [100 + k for k in range(15)]
        low, high = sample_counts(rho, 500, seeds), sample_counts(rho, 50_000, seeds)
        odd = np.arange(15) % 2 == 1
        recs = RecordSet(
            np.where(odd[:, None], low.counts, high.counts),
            tuple(500 if k % 2 else 50_000 for k in range(15)),
        )
        result = mle_reconstruct(recs, max_iter=10_000)
        total = total_shots(recs)
        assert result.converged and result.gap * total < 0.015
        assert result.gap <= certified_gap(result.rho_hat.matrix, recs) * (1.0 + 1e-6)
        assert mle_reconstruct(recs, max_iter=100, tol=0.0).iterations == 100


def kernel_run(records, max_iter, tol):
    """``_kernels.mle_loop`` on a record set at the per-count threshold
    ``tol``, as it ran before the stop was read in nats."""
    rs = _collect(records)
    return _kernels.mle_loop(
        _model(), rs.counts.reshape(-1), rs.frequencies.reshape(-1), max_iter, tol
    )


def exact_records(seed):
    rho = to_density_matrix(random_two_path_state(np.random.default_rng(seed)))
    return [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]


class TestCertifiedStop:
    """``tol`` is a total shortfall in nats; the kernel stops per count."""

    @pytest.fixture()
    def thresholds(self, monkeypatch):
        # The per-count thresholds ``mle_reconstruct`` hands the kernel.
        seen = []
        loop = _kernels.mle_loop

        def spy(projs, counts, freqs, max_iter, tol):
            seen.append(tol)
            return loop(projs, counts, freqs, max_iter, tol)

        monkeypatch.setattr(_kernels, "mle_loop", spy)
        return seen

    def test_default_tol_is_1e8_per_count_at_the_defaults_shots(self, thresholds):
        recs = oracle_input(0)
        assert total_shots(recs) == 1_500_000
        mle_reconstruct(recs)
        assert thresholds == [1e-8]

    @pytest.mark.parametrize("kind", ["one-shot", "fractional"])
    def test_every_record_set_stops_at_tol_over_its_shots(self, kind, thresholds):
        # Fractional counts once read tol at the defaults' 1.5e6 counts,
        # whatever their shots; no record set is told apart by its counts.
        rho = to_density_matrix(bell_like_state())
        if kind == "one-shot":
            recs = sampled_records(rho, 1, 3)
        else:
            recs = RecordSet(_outcome_table(rho), (1,) * 15)
        mle_reconstruct(recs, max_iter=3)
        assert thresholds == [0.015 / 15]

    def test_small_samples_certify_in_fewer_applications(self):
        # At 4000 shots per setting a per-count 1e-8 certifies 6e-4 nats;
        # 0.015 nats is reached sooner on the same path.
        looser = tighter = 0
        for sc in reseed(default_scenarios(), 42):
            rho_true = to_density_matrix(sc.state)
            seeds = [derive_seed(sc.seed, STAGE_TOMOGRAPHY, k) for k in range(15)]
            recs = sample_counts(rho_true, 4000, seeds)
            result = mle_reconstruct(recs)
            _, iterations, _, _, converged = kernel_run(recs, 2000, 1e-8)
            assert converged
            assert result.converged and result.gap * 15 * 4000 < 0.015
            assert result.iterations <= iterations
            looser += result.iterations
            tighter += iterations
        assert looser < tighter

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_exact_records_stop_as_before(self, seed):
        recs = exact_records(seed)
        result = mle_reconstruct(recs)
        rho, iterations, ll, gap, converged = kernel_run(recs, 2000, 1e-8)
        assert np.array_equal(result.rho_hat.matrix, rho)
        assert (result.iterations, result.log_likelihood, result.gap, result.converged) == (
            iterations, ll, gap, converged
        )

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_zero_tol_runs_the_whole_budget(self, exact):
        rho = to_density_matrix(bell_like_state())
        recs = exact_records(46) if exact else sampled_records(rho, 4000, 15)
        result = mle_reconstruct(recs, max_iter=60, tol=0.0)
        assert result.iterations == 60 and not result.converged

    @pytest.mark.parametrize("scale, converged", [(2.0, True), (0.5, False)])
    def test_converged_only_where_the_stop_is_resolvable(self, scale, converged):
        # A per-count stop below _ULP_SLACK is finer than the certificate
        # lambda_max(R) / Tr(R rho) - 1 resolves, so a gap that reads below
        # it has met roundoff, not the stop: the kernel stops but does not
        # report converged.  ``converged`` is a bool, not numpy's, so that
        # the JSON report can hold it.
        recs = sampled_records(to_density_matrix(bell_like_state()), MAX_SHOTS, 18)
        *_, gap, ok = kernel_run(recs, 2000, scale * _ULP_SLACK)
        assert gap < scale * _ULP_SLACK
        assert type(ok) is bool and ok == converged

    def test_max_shots_never_certifies(self):
        # N = 15 (2^63 - 1): tol / N ~ 1.1e-22.  The kernel still stops
        # where its gap reads below that.
        recs = sampled_records(to_density_matrix(bell_like_state()), MAX_SHOTS, 18)
        result = mle_reconstruct(recs)
        assert not result.converged
        assert result.gap < 0.015 / total_shots(recs) and result.iterations < 2000

    @pytest.mark.parametrize(
        "tol", [-1e-8, -1.0, math.nan, math.inf, -math.inf, None, "0.1", True, 1e-3j]
    )
    def test_tol_outside_the_nats_range_is_rejected(self, tol):
        # None and "0.1" once raised TypeError, and True ran as 1 nat.
        recs = sampled_records(to_density_matrix(bell_like_state()), 4000, 16)
        with pytest.raises(ValueError, match="tol"):
            mle_reconstruct(recs, tol=tol)

    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, -1, 2.5, True])
    def test_max_iter_outside_the_integers_is_rejected(self, max_iter, monkeypatch):
        # NaN and inf never end the plain steps, so the kernel must not start.
        def kernel_started(*args):
            raise AssertionError("mle_loop ran")

        monkeypatch.setattr(_kernels, "mle_loop", kernel_started)
        recs = sampled_records(to_density_matrix(bell_like_state()), 4000, 16)
        with pytest.raises(ValueError, match="max_iter"):
            mle_reconstruct(recs, max_iter=max_iter, tol=0.0)


class TestMLEProperties:
    """What every run promises, on random record sets: a physical state, a
    ``gap`` no looser than the returned state's gradient bound, a truthful
    ``converged`` and a budget that holds."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        shots=st.integers(1, 100_000),
        exact=st.booleans(),
        max_iter=st.integers(0, 2000),
    )
    def test_physical_certified_and_within_budget(self, seed, rank, shots, exact, max_iter):
        rho = DensityMatrix(random_rho(np.random.default_rng(seed), rank))
        if exact:
            recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
            total = len(NONTRIVIAL_SETTINGS) * DEFAULT_SHOTS
        else:
            recs = sampled_records(rho, shots, seed)
            total = len(NONTRIVIAL_SETTINGS) * shots
        result = mle_reconstruct(recs, max_iter=max_iter)
        mat = result.rho_hat.matrix
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-10)
        assert result.iterations <= max_iter
        assert result.gap <= certified_gap(mat, recs) * (1.0 + 1e-6) + 1e-12
        if result.converged:
            assert result.gap * total <= 0.015 * (1.0 + 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["one-outcome", "one-shot", "uneven"]),
        max_iter=st.integers(0, 2000),
    )
    def test_degenerate_records(self, seed, kind, max_iter):
        # Records far from any linear-inversion state: all counts of each
        # setting in one outcome its projectors allow, one shot per
        # setting, or shots that differ per setting.
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_rho(rng, int(rng.integers(1, 5))))
        if kind == "one-shot":
            recs = sampled_records(rho, 1, seed)
        else:
            if kind == "one-outcome":
                shots = np.full(15, int(rng.integers(1, 100_000)))
            else:
                shots = rng.integers(1, 100_000, size=15)
            counts = np.zeros((15, 4), dtype=np.int64)
            for k, m in enumerate(NONTRIVIAL_SETTINGS):
                p = outcome_row(rho, m)
                if kind == "one-outcome":
                    counts[k, rng.choice(np.flatnonzero(p > 0.0))] = shots[k]
                else:
                    counts[k] = rng.multinomial(shots[k], p)
            recs = RecordSet(counts, tuple(int(n) for n in shots))
        start = mle_reconstruct(recs, max_iter=0, tol=0.0).rho_hat.matrix
        assert np.all(np.isfinite(start)) and np.linalg.eigvalsh(start)[0] >= -1e-10
        result = mle_reconstruct(recs, max_iter=max_iter)
        mat = result.rho_hat.matrix
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-10)
        assert result.iterations <= max_iter
        assert result.gap <= certified_gap(mat, recs) * (1.0 + 1e-6) + 1e-12
        if result.converged:
            assert result.gap * total_shots(recs) <= 0.015 * (1.0 + 1e-6)


def dual_bound(w, records):
    """lambda_max(sum_k w_k P_k) + sum_{n_k > 0} n_k log(n_k / w_k) - N, an
    upper bound on the log-likelihood for every w >= 0 that is positive
    wherever n_k is (weak Lagrange duality, from log x <= x - 1)."""
    projs, counts, _ = oracle_arrays(records)
    seen = counts > 0.0
    top = np.linalg.eigvalsh(np.einsum("k,kab->ab", w, projs))[-1]
    return top + float(counts[seen] @ np.log(counts[seen] / w[seen])) - counts.sum()


def sweep_input(d, shots):
    """Default d's record set at ``shots`` on the criterion-7 grid point of
    master 7000 + d: scenario seed ``derive_seed(7000 + d, d)``, setting k's
    counts from ``derive_seed(seed, STAGE_TOMOGRAPHY, k)``."""
    seed = derive_seed(7000 + d, d)
    rho = to_density_matrix(default_scenarios()[d].state)
    return sample_counts(rho, shots, [derive_seed(seed, STAGE_TOMOGRAPHY, k) for k in range(15)])


def sparse_records(seed):
    """A record set at 1-1000 shots a setting, each setting's counts drawn
    over its possible outcomes from a Dirichlet(0.1) distribution: mostly no
    state's, with many zero counts."""
    rng = np.random.default_rng([2026, seed])
    shots = int(rng.integers(1, 1001))
    counts = np.zeros((15, 4), dtype=np.int64)
    for row, ok in zip(counts, POSSIBLE):
        row[ok] = rng.multinomial(shots, rng.dirichlet(np.full(ok.sum(), 0.1)))
    return RecordSet(counts, (shots,) * 15)


# The seeds below 3000 on which a full R rho R step lowered the likelihood,
# where the kernel once fell back to a diluted step (none at Dirichlet(1)).
SPARSE_SEEDS = [376, 655, 660, 790, 973, 1203, 1282, 1311, 1646, 1797, 1890, 2312, 2355, 2468]


class TestDualCertificate:
    """``gap`` may come from the Lagrange-dual bound; it must still bound the
    shortfall to the optimum."""

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 3.0),
        scale=st.floats(0.1, 10.0),
    )
    def test_dual_bound_is_never_below_the_optimum(self, index, seed, spread, scale):
        recs = oracle_input(index)
        projs, counts, _ = oracle_arrays(recs)
        rho, ll = oracle_optimum(index)
        p = np.maximum(np.einsum("kab,ba->k", projs, rho).real, P_FLOOR)
        z = np.random.default_rng(seed).standard_normal(len(counts))
        w = scale * np.maximum(counts, 1.0) / p * np.exp(spread * z)
        assert dual_bound(w, recs) >= ll - _ULP_SLACK * (1.0 + abs(ll))

    @pytest.mark.parametrize("index", range(8), ids=ORACLE_INPUT_IDS)
    def test_at_n_over_p_it_is_the_gradient_bound(self, index):
        # w = n / p is the gradient's own weights: the bound there exceeds
        # ll(rho) by lambda_max(G) - N, the gradient bound in nats.
        recs = oracle_input(index)
        projs, counts, _ = oracle_arrays(recs)
        rho = mle_reconstruct(recs, max_iter=12, tol=0.0).rho_hat.matrix
        p = np.maximum(np.einsum("kab,ba->k", projs, rho).real, P_FLOOR)
        ll = float(counts[counts > 0] @ np.log(p[counts > 0]))
        total = counts.sum()
        excess = dual_bound(counts / p, recs) - ll
        assert excess == pytest.approx(certified_gap(rho, recs) * total, rel=1e-8, abs=1e-9 * total)

    def test_gap_bounds_the_shortfall_at_every_budget(self):
        # On the 8 oracle inputs, at the default tol and at 100x it (where
        # the dual bound is tried earlier), every returned gap bounds the
        # shortfall to the oracle's optimum; some gaps must come from the
        # dual bound, or this checks only the gradient bound.
        from_dual = 0
        for index in range(8):
            recs = oracle_input(index)
            total = total_shots(recs)
            _, ll = oracle_optimum(index)
            for tol in (0.015, 1.5):
                for max_iter in range(4, 41):
                    result = mle_reconstruct(recs, max_iter=max_iter, tol=tol)
                    shortfall = ll - result.log_likelihood
                    slack = _ULP_SLACK * (1.0 + abs(ll))
                    assert shortfall <= result.gap * total + slack, (index, tol, max_iter)
                    gradient = certified_gap(result.rho_hat.matrix, recs)
                    from_dual += result.gap < gradient * (1.0 - 1e-6)
        assert from_dual > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_full_rank_optima_within_the_bound(self, seed):
        # White-noise mixed truths (0.8 pure + 0.2 I / 4) at 4000 shots have
        # interior optima, where the dual bound is tight: it must still be
        # at least the shortfall to a 2000-application run at tol = 0.
        pure = to_density_matrix(random_two_path_state(np.random.default_rng(4000 + seed)))
        rho = DensityMatrix(0.8 * pure.matrix + 0.05 * np.eye(4))
        recs = sampled_records(rho, 4000, seed)
        result = mle_reconstruct(recs)
        ll = mle_reconstruct(recs, max_iter=2000, tol=0.0).log_likelihood
        assert result.converged
        assert result.gap < certified_gap(result.rho_hat.matrix, recs) * (1.0 - 1e-6)
        slack = _ULP_SLACK * (1.0 + abs(ll))
        assert ll - result.log_likelihood <= result.gap * total_shots(recs) + slack

    @pytest.mark.parametrize("seed", SPARSE_SEEDS)
    def test_steps_that_lower_the_likelihood_still_certify(self, seed):
        # The kernel takes every plain step as it comes; the certificate
        # alone vouches for the result.  It must still bound the shortfall
        # to a 600-application run at tol = 0 that is itself certified.
        recs = sparse_records(seed)
        total = total_shots(recs)
        result = mle_reconstruct(recs)
        ref = mle_reconstruct(recs, max_iter=600, tol=0.0)
        assert result.converged
        assert certified_gap(ref.rho_hat.matrix, recs) * total < ORACLE_SHORTFALL
        slack = _ULP_SLACK * (1.0 + abs(ref.log_likelihood))
        assert ref.log_likelihood - result.log_likelihood <= result.gap * total + slack

    @pytest.mark.parametrize("seed", [30, 54, 195])
    def test_a_singular_dual_system_falls_back_to_the_gradient_bound(self, seed):
        # All counts of each setting in one outcome, as in
        # test_degenerate_records: on these seeds the 16 x 16 system of the
        # dual point is singular, and the run goes on with the gradient bound.
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_rho(rng, int(rng.integers(1, 5))))
        shots = int(rng.integers(1, 100_000))
        counts = np.zeros((15, 4), dtype=np.int64)
        for k, m in enumerate(NONTRIVIAL_SETTINGS):
            counts[k, rng.choice(np.flatnonzero(outcome_row(rho, m) > 0.0))] = shots
        recs = RecordSet(counts, (shots,) * 15)
        result = mle_reconstruct(recs, max_iter=int(rng.integers(0, 2000)))
        assert np.linalg.eigvalsh(result.rho_hat.matrix)[0] >= -1e-10
        assert result.gap <= certified_gap(result.rho_hat.matrix, recs) * (1.0 + 1e-6) + 1e-12

    @pytest.mark.parametrize("shots", [4000, 16000])
    @pytest.mark.parametrize("d", range(7))
    def test_sweep_inputs_certify_and_run_long(self, d, shots):
        # Each certifies at the default stop, within the shortfall to a
        # 5000-application run at tol = 0.  Such runs used to fail on two of
        # these inputs: eta doubled on every kept projected step, passed
        # 2^53, and the simplex shift found no index.
        recs = sweep_input(d, shots)
        result = mle_reconstruct(recs)
        lls = []
        for max_iter in (2000, 5000):
            long = mle_reconstruct(recs, max_iter=max_iter, tol=0.0)
            assert long.iterations == max_iter and not long.converged
            assert np.linalg.eigvalsh(long.rho_hat.matrix)[0] >= -1e-10
            lls.append(long.log_likelihood)
        slack = _ULP_SLACK * (1.0 + abs(lls[1]))
        assert lls[1] >= lls[0] - slack
        assert result.converged
        assert lls[1] - result.log_likelihood <= result.gap * total_shots(recs) + slack


def simplex_eigh_sorted(a):
    """``_kernels._simplex_eigh`` as a sort-based numpy formula."""
    w, vecs = np.linalg.eigh(a)
    u = w[::-1]
    css = np.cumsum(u) - 1.0
    k = np.flatnonzero(u * np.arange(1, len(w) + 1) > css)[-1]
    return np.maximum(w - css[k] / (k + 1), 0.0), vecs


class TestSimplexThreshold:
    def test_matches_the_sorted_formula_bit_for_bit(self):
        rng = np.random.default_rng(50)
        for i in range(2000):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = (z + z.conj().T) * 10.0 ** rng.uniform(-3, 6)
            if i % 4 == 0:  # repeated eigenvalues
                w, vecs = np.linalg.eigh(a)
                a = (vecs * np.round(w)) @ vecs.conj().T
            lam, vecs = _kernels._simplex_eigh(a)
            ref_lam, ref_vecs = simplex_eigh_sorted(a)
            assert np.array_equal(lam, ref_lam) and np.array_equal(vecs, ref_vecs)
            assert lam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_a_scale_past_2_53_still_finds_a_shift(self):
        # The sorted formula finds no index there; the kernel's eta cap
        # keeps the loop far from such scales.
        a = np.diag([3e16, 1e16, 0.0, -1e16]).astype(complex)
        with pytest.raises(IndexError):
            simplex_eigh_sorted(a)
        lam, _ = _kernels._simplex_eigh(a)
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0.0)


class TestEstimateFromRho:
    def test_extreme_point(self):
        triple = estimate_vdc_from_rho(to_density_matrix(bell_like_state()))
        assert triple.as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=1e-10)

    def test_single_path_product_state(self):
        s = TwoPathState(1.0, 0.0, [1, 0], [1, 0])
        triple = estimate_vdc_from_rho(to_density_matrix(s))
        assert triple.as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("c_a, c_b", [(0.0, 1.0), (1.0, 0.0)])
    def test_empty_path_takes_the_gamma_fallback(self, c_a, c_b):
        s = TwoPathState(c_a, c_b, [1, 0], [math.sqrt(0.5), math.sqrt(0.5)])
        triple = estimate_vdc_from_rho(to_density_matrix(s))
        assert triple.visibility == 0.0 and triple.distinguishability == 1.0
        assert triple.gamma == 0j
        values = (*triple.as_tuple(), triple.residual, triple.gamma.real, triple.gamma.imag)
        assert all(math.isfinite(x) for x in values)

    def test_partial_state(self):
        s = TwoPathState(
            math.sqrt(0.7), math.sqrt(0.3), [1, 0], [0.5, math.sqrt(0.75)]
        )
        triple = estimate_vdc_from_rho(to_density_matrix(s))
        assert triple.as_tuple() == pytest.approx(
            (0.458257569495584, 0.4, 0.7937253933193772), abs=1e-9
        )

    def test_consistency_with_closed_form(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            s = random_two_path_state(rng)
            direct = vdc_triple(s)
            via_rho = estimate_vdc_from_rho(to_density_matrix(s))
            assert via_rho.visibility == pytest.approx(direct.visibility, abs=1e-9)
            assert via_rho.distinguishability == pytest.approx(
                direct.distinguishability, abs=1e-9
            )
            assert via_rho.concurrence == pytest.approx(direct.concurrence, abs=1e-9)
            assert abs(via_rho.gamma) == pytest.approx(abs(direct.gamma), abs=1e-9)

    def test_mixed_state_residual_reported_not_asserted(self):
        triple = estimate_vdc_from_rho(MIXED)
        assert triple.as_tuple() == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert triple.residual == pytest.approx(-1.0, abs=1e-12)
