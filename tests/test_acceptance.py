"""Acceptance suite: eight exit criteria, one test (and one printed line) each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion alongside pytest's own verdicts.  Every tolerance is pinned
here; nothing is deferred to later calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from photon_duality import (
    TwoPathState,
    concurrence_pure,
    default_scenarios,
    derive_seed,
    entanglement,
    fit_fringe,
    fringe_scan,
    mle_reconstruct,
    pure_state_fidelity,
    random_two_path_state,
    run_pipeline,
    sample_counts,
    sample_fringe_scan,
    schmidt_decompose,
    to_density_matrix,
    vdc_triple,
    visibility,
    wootters_concurrence,
)
from photon_duality.scenarios import override_shots, reseed
from photon_duality.seeding import make_rng
from photon_duality.tomography import NONTRIVIAL_SETTINGS

HALF = math.sqrt(0.5)


def check(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def tomography_records(state, shots, master_seed):
    seeds = [derive_seed(master_seed, k) for k in range(len(NONTRIVIAL_SETTINGS))]
    return sample_counts(to_density_matrix(state), shots, seeds)


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    # Run the MLE once (projector stack, first-call costs) before anything is timed.
    state = random_two_path_state(np.random.default_rng(0))
    mle_reconstruct(tomography_records(state, 1000, 0), max_iter=5, tol=0.0)


def test_criterion_1_identity_property():
    rng = np.random.default_rng(20_250_810)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        s = random_two_path_state(rng, dim=int(rng.integers(2, 6)))
        worst = max(worst, abs(vdc_triple(s).residual))
    elapsed = time.perf_counter() - start
    check(
        1,
        "identity residual over 1e4 random states",
        worst < 1e-10 and elapsed < 5.0,
        f"max |residual| = {worst:.3e}, runtime = {elapsed:.2f}s",
    )


def test_criterion_2_extreme_point():
    extreme = TwoPathState(HALF, HALF, [1, 0], [0, 1])
    analytic = vdc_triple(extreme)
    exact = analytic.as_tuple() == (0.0, 0.0, 1.0) and analytic.residual == 0.0

    scenario = [sc for sc in default_scenarios() if sc.name == "default-arc-g0.00"][0]
    scenario = reseed([scenario], 42)[0]
    assert scenario.shots == 100_000
    report = run_pipeline(scenario)
    errors = [abs(e - t) for e, t in zip(report.estimated.as_tuple(), (0.0, 0.0, 1.0))]
    check(
        2,
        "extreme point (V, D, C) = (0, 0, 1)",
        exact and max(errors) <= 0.03,
        f"analytic exact = {exact}, estimated errors = {[f'{e:.4f}' for e in errors]}",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(333)
    worst = 0.0
    for _ in range(1000):
        s = random_two_path_state(rng)
        closed = entanglement(s)
        schmidt = concurrence_pure(schmidt_decompose(s))
        wootters = wootters_concurrence(to_density_matrix(s))
        worst = max(
            worst,
            abs(closed - schmidt),
            abs(closed - wootters),
            abs(schmidt - wootters),
        )
    check(
        3,
        "three concurrence routes agree pairwise",
        worst < 1e-9,
        f"max pairwise deviation = {worst:.3e}",
    )


def test_criterion_4_mutual_exclusivity_violation_demo():
    # Balanced amplitudes, overlap magnitude falling 0.92 -> 0.71 -> 0.38.
    family = [sc for sc in default_scenarios() if sc.name in
              ("default-arc-g0.92", "default-arc-g0.71", "default-arc-g0.38")]
    family = sorted(family, key=lambda sc: sc.name, reverse=True)
    triples = [vdc_triple(sc.state) for sc in family]
    vs = [t.visibility for t in triples]
    ds = [t.distinguishability for t in triples]
    cs = [t.concurrence for t in triples]
    analytic_ok = (
        all(b < a for a, b in zip(vs, vs[1:]))
        and all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))
        and all(b > a for a, b in zip(cs, cs[1:]))
        and all(t.visibility**2 + t.distinguishability**2 <= 1 + 1e-12 for t in triples)
    )
    # The same trend survives the simulated experiment (D stays noise-level).
    reports = [run_pipeline(sc) for sc in reseed(family, 4242)]
    est = [r.estimated.as_tuple() for r in reports]
    estimated_ok = (
        est[0][0] > est[1][0] > est[2][0]
        and est[0][2] < est[1][2] < est[2][2]
        and all(point[1] <= 0.02 for point in est)
    )
    check(
        4,
        "V and D fall together while C rises (V^2 + D^2 <= 1 throughout)",
        analytic_ok and estimated_ok,
        f"analytic V = {[f'{v:.3f}' for v in vs]}, C = {[f'{c:.3f}' for c in cs]}",
    )


def test_criterion_5_fringe_fidelity():
    rng = np.random.default_rng(555)
    worst_exact = 0.0
    for _ in range(1000):
        s = random_two_path_state(rng)
        v_hat, *_ = fit_fringe(fringe_scan(s))
        worst_exact = max(worst_exact, abs(v_hat - visibility(s)))

    worst_noisy = 0.0
    for i, sc in enumerate(default_scenarios()):
        state = sc.state
        scan = sample_fringe_scan(state, 100_000, make_rng(derive_seed(55, i)))
        v_hat, *_ = fit_fringe(scan)
        worst_noisy = max(worst_noisy, abs(v_hat - visibility(state)))
    check(
        5,
        "fitted visibility matches closed form",
        worst_exact < 1e-9 and worst_noisy <= 0.02,
        f"exact-scan error = {worst_exact:.3e}, noisy-scan error = {worst_noisy:.4f}",
    )


def test_criterion_6_tomography_fidelity():
    state = random_two_path_state(np.random.default_rng(666))
    rho = to_density_matrix(state)

    from photon_duality.tomography import exact_record

    exact_recs = [exact_record(rho, m) for m in NONTRIVIAL_SETTINGS]
    start = time.perf_counter()
    exact_result = mle_reconstruct(exact_recs, max_iter=30_000, tol=0.0)
    exact_time = time.perf_counter() - start
    exact_fid = pure_state_fidelity(exact_result.rho_hat, state)

    start = time.perf_counter()
    sampled_result = mle_reconstruct(tomography_records(state, 100_000, 66))
    sampled_time = time.perf_counter() - start
    sampled_fid = pure_state_fidelity(sampled_result.rho_hat, state)
    c_err = abs(wootters_concurrence(sampled_result.rho_hat) - entanglement(state))

    # Both reconstructions are held to the 10 s bound.  Toward this pure
    # (boundary) optimum plain R rho R ascent converges only as O(1/t) and
    # needs ~1e6 steps for the fidelity bound; with SQUAREM extrapolation
    # 3e4 map applications reach it in ~1 s on 2 vCPUs.
    ok = (
        exact_fid >= 1 - 1e-6
        and exact_time < 10.0
        and sampled_fid >= 0.98
        and c_err <= 0.05
        and sampled_time < 10.0
    )
    check(
        6,
        "MLE reconstruction fidelity",
        ok,
        f"exact fid = {exact_fid:.9f} ({exact_time:.1f}s), "
        f"sampled fid = {sampled_fid:.4f} ({sampled_time:.1f}s), C error = {c_err:.4f}",
    )


def test_criterion_7_scaling_law():
    # Quadrupling shots must halve each component's error (x1.7 - x2.3),
    # measured as the median over seeds of the mean absolute error across
    # the seven default scenarios.
    shots_lo, seeds = 4000, range(25)
    defaults = default_scenarios()
    medians = {}
    for shots in (shots_lo, 4 * shots_lo):
        per_seed = []
        for seed in seeds:
            scenarios = override_shots(reseed(defaults, 7000 + seed), shots)
            errors = np.zeros(3)
            for sc in scenarios:
                report = run_pipeline(sc)
                truth = np.array(report.analytic.as_tuple())
                errors += np.abs(np.array(report.estimated.as_tuple()) - truth)
            per_seed.append(errors / len(scenarios))
        medians[shots] = np.median(np.array(per_seed), axis=0)
    ratios = medians[shots_lo] / medians[4 * shots_lo]
    ok = bool(np.all((ratios >= 1.7) & (ratios <= 2.3)))
    check(
        7,
        "component errors halve when shots quadruple",
        ok,
        "ratios (V, D, C) = " + str([f"{r:.2f}" for r in ratios]),
    )


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "photon_duality.cli",
                "experiment",
                "--defaults",
                "--seed",
                "42",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    check(
        8,
        "repeated seeded runs are byte-identical",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes each",
    )
