"""End-to-end experiment pipeline and report emission.

For each scenario the pipeline runs the full simulated experiment:

  1. analytic triple straight from the source state,
  2. Monte Carlo fringe scan (``shots`` per phase point) -> fitted V,
  3. arm blocking (``shots`` per arm) -> |p_a - p_b| estimate of D,
  4. 15-setting Pauli tomography (``shots`` per setting) -> MLE state -> C,

and assembles a report carrying both the measured-style triple
(fringe V, blocking D, tomographic C) and the all-tomographic triple read
off the reconstructed state.  Sub-seeds for the three stages (and for every
tomography setting) are derived from the scenario seed, so scenarios and
stages are independent, reorderable, and bit-reproducible.

Reports serialize to CSV (fixed column set, 12 significant digits) or JSON
(field names mirror ``RunReport``).  Estimated components are clamped into
[0, 1] only when projected onto the unit sphere, never in the report itself.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .interferometer import block_arm, fit_fringe, phase_grid, sample_fringe_scan
from .metrics import DualityTriple, vdc_triple
from .scenarios import Scenario
from .seeding import derive_seed, make_rng
from .states import PathLabel, pure_state_fidelity, to_density_matrix
from .tomography import NONTRIVIAL_SETTINGS, estimate_vdc_from_rho, mle_reconstruct, sample_counts

# Stage tags mixed into the scenario seed; fixed, or reproducibility breaks.
STAGE_FRINGE = 0
STAGE_BLOCKING = 1
STAGE_TOMOGRAPHY = 2

CSV_COLUMNS = (
    "name",
    "V_analytic",
    "D_analytic",
    "C_analytic",
    "V_est",
    "D_est",
    "C_est",
    "residual_analytic",
    "residual_est",
    "fidelity",
    "seed",
)


@dataclass(frozen=True)
class RunReport:
    """Everything one scenario run produced."""

    name: str
    seed: int
    shots: int
    phase_points: int
    analytic: DualityTriple
    estimated: DualityTriple
    tomographic: DualityTriple
    sphere_point: tuple[float, float, float]
    fit_rmse: float
    mle_iterations: int
    mle_converged: bool
    fidelity: float

    def __post_init__(self):
        numerics = [
            *self.analytic.as_tuple(),
            self.analytic.residual,
            *self.estimated.as_tuple(),
            self.estimated.residual,
            *self.tomographic.as_tuple(),
            self.tomographic.residual,
            *self.sphere_point,
            self.fit_rmse,
            self.fidelity,
        ]
        if not np.all(np.isfinite(numerics)):
            raise ValueError(f"report for {self.name!r} contains non-finite values")


def run_pipeline(sc: Scenario) -> RunReport:
    """Simulate the full experiment for one scenario."""
    state = sc.to_state()
    if state.dim != 2:
        raise ValueError(f"scenario {sc.name!r}: pipeline tomography needs d = 2")
    analytic = vdc_triple(state)
    rho_true = to_density_matrix(state)

    # Fringe scan -> visibility.
    fringe_rng = make_rng(derive_seed(sc.seed, STAGE_FRINGE))
    scan = sample_fringe_scan(state, sc.shots, fringe_rng, phases=phase_grid(sc.phase_points))
    fit = fit_fringe(scan)

    # Arm blocking -> distinguishability.  Blocking A leaves arm B's photons.
    p_b_hat = _surviving_fraction(block_arm(state, PathLabel.A), sc.shots, sc.seed, 0)
    p_a_hat = _surviving_fraction(block_arm(state, PathLabel.B), sc.shots, sc.seed, 1)
    d_est = abs(p_a_hat - p_b_hat)

    # Tomography -> concurrence (plus the all-tomographic triple).
    records = [
        sample_counts(rho_true, m, sc.shots, derive_seed(sc.seed, STAGE_TOMOGRAPHY, k))
        for k, m in enumerate(NONTRIVIAL_SETTINGS)
    ]
    tomo = mle_reconstruct(records)
    tomographic = estimate_vdc_from_rho(tomo.rho_hat)

    v, d, c = fit.v_hat, d_est, tomographic.concurrence
    estimated = DualityTriple(
        visibility=v,
        distinguishability=d,
        concurrence=c,
        gamma=tomographic.gamma,
        residual=v * v + d * d + c * c - 1.0,
    )
    return RunReport(
        name=sc.name,
        seed=sc.seed,
        shots=sc.shots,
        phase_points=sc.phase_points,
        analytic=analytic,
        estimated=estimated,
        tomographic=tomographic,
        sphere_point=_clamp_point(estimated.as_tuple()),
        fit_rmse=fit.rmse,
        mle_iterations=tomo.iterations,
        mle_converged=tomo.converged,
        fidelity=pure_state_fidelity(tomo.rho_hat, state),
    )


def _surviving_fraction(p: float, shots: int, seed: int, arm_index: int) -> float:
    rng = make_rng(derive_seed(seed, STAGE_BLOCKING, arm_index))
    return float(rng.binomial(shots, p)) / shots


def _clamp_point(point) -> tuple[float, float, float]:
    x, y, z = (min(1.0, max(0.0, float(v))) for v in point)
    return (x, y, z)


def sphere_points(reports, analytic: bool = False) -> list[tuple[float, float, float]]:
    """(V, D, C) coordinates in the first octant, one per report.

    Estimated points (default) are clamped into [0, 1]; analytic points are
    exact and sit on the unit sphere.
    """
    if analytic:
        return [r.analytic.as_tuple() for r in reports]
    return [_clamp_point(r.estimated.as_tuple()) for r in reports]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_rows(reports) -> list[list[str]]:
    rows = [list(CSV_COLUMNS)]
    for r in reports:
        rows.append(
            [
                r.name,
                _fmt(r.analytic.visibility),
                _fmt(r.analytic.distinguishability),
                _fmt(r.analytic.concurrence),
                _fmt(r.estimated.visibility),
                _fmt(r.estimated.distinguishability),
                _fmt(r.estimated.concurrence),
                _fmt(r.analytic.residual),
                _fmt(r.estimated.residual),
                _fmt(r.fidelity),
                str(r.seed),
            ]
        )
    return rows


def _triple_to_dict(t: DualityTriple) -> dict:
    return {
        "visibility": t.visibility,
        "distinguishability": t.distinguishability,
        "concurrence": t.concurrence,
        "gamma": [t.gamma.real, t.gamma.imag],
        "residual": t.residual,
    }


def report_to_dict(r: RunReport) -> dict:
    return {
        "name": r.name,
        "seed": r.seed,
        "shots": r.shots,
        "phase_points": r.phase_points,
        "analytic": _triple_to_dict(r.analytic),
        "estimated": _triple_to_dict(r.estimated),
        "tomographic": _triple_to_dict(r.tomographic),
        "sphere_point": list(r.sphere_point),
        "fit_rmse": r.fit_rmse,
        "mle_iterations": r.mle_iterations,
        "mle_converged": r.mle_converged,
        "fidelity": r.fidelity,
    }


def render_report(reports, fmt: str = "csv") -> str:
    """Serialize reports to a CSV or JSON string."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to emit: no reports")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(_csv_rows(reports))
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_report(reports, fmt: str = "csv", out=None) -> None:
    """Write serialized reports to a path, or to stdout when ``out`` is None."""
    text = render_report(reports, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
