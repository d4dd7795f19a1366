"""End-to-end experiment pipeline and report emission.

For each scenario the pipeline runs the full simulated experiment:

  1. analytic triple straight from the source state,
  2. Monte Carlo fringe scan (``shots`` per phase point) -> fitted V,
  3. arm blocking (``shots`` per arm) -> |p_a - p_b| estimate of D,
  4. 15-setting Pauli tomography (``shots`` per setting) -> MLE state -> C,

and assembles a report carrying both the measured-style triple
(fringe V, blocking D, tomographic C) and the all-tomographic triple read
off the reconstructed state.  The streams of the three stages (the fringe
scan, each blocked arm and every tomography setting) are derived from the
scenario seed in one ``stream_rngs`` call, so scenarios and stages are
independent, reorderable, and bit-reproducible.

This module is also the one output path of every CLI command: a command
hands ``emit_table`` its CSV columns, its rows and its JSON records, and
gets CSV (floats at 12 significant digits) or JSON back on stdout or in a
file; JSON is written in batches of encoder pieces, never as one string.  An
output file is rewritten in place and cut to the written length, not
truncated on open, and is left empty if writing fails.
Reports use the fixed ``CSV_COLUMNS``; their JSON field names mirror
``RunReport``.  Estimated components are clamped into [0, 1] only when
projected onto the unit sphere, never in the report itself.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .interferometer import FringeScan, fit_fringe, phase_grid, sample_fringe_scan
from .metrics import DualityTriple, _clip01, vdc_triple
from .scenarios import Scenario
from .seeding import stream_rngs
from .states import pure_state_fidelity, to_density_matrix
from .tomography import NONTRIVIAL_SETTINGS, estimate_vdc_from_rho, mle_reconstruct, sample_counts

# Stage tags mixed into the scenario seed; fixed, or reproducibility breaks.
STAGE_FRINGE = 0
STAGE_BLOCKING = 1
STAGE_TOMOGRAPHY = 2
# A scenario's streams: its fringe scan, blocking arm A, then B, and each tomography setting.
_STREAM_KEYS = ((STAGE_FRINGE,), (STAGE_BLOCKING, 0), (STAGE_BLOCKING, 1))
_STREAM_KEYS += tuple((STAGE_TOMOGRAPHY, k) for k in range(len(NONTRIVIAL_SETTINGS)))

# JSON pieces joined into one write: long tables stream, short ones write once.
_WRITE_BATCH = 4096

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
    fit_rmse: float
    mle_iterations: int
    mle_converged: bool
    mle_gap: float
    fidelity: float

    def __post_init__(self):
        numerics = [
            *self.analytic.as_tuple(),
            self.analytic.residual,
            *self.estimated.as_tuple(),
            self.estimated.residual,
            *self.tomographic.as_tuple(),
            self.tomographic.residual,
            self.fit_rmse,
            self.mle_gap,
            self.fidelity,
        ]
        if not np.all(np.isfinite(numerics)):
            raise ValueError(f"report for {self.name!r} contains non-finite values")

    @property
    def sphere_point(self) -> tuple[float, float, float]:
        """The estimated triple, each component clamped into [0, 1]."""
        return _clamp_point(self.estimated.as_tuple())


def run_pipeline(sc: Scenario) -> RunReport:
    """Simulate the full experiment for one scenario."""
    state = sc.state
    if state.dim != 2:
        raise ValueError(f"scenario {sc.name!r}: pipeline tomography needs d = 2")
    analytic = vdc_triple(state)
    rho_true = to_density_matrix(state)
    fringe_rng, block_a, block_b, *setting_rngs = stream_rngs(sc.seed, _STREAM_KEYS)

    # Fringe scan -> visibility.
    scan = sample_fringe_scan(state, sc.shots, fringe_rng, phases=phase_grid(sc.phase_points))
    fit = fit_fringe(scan)

    # Arm blocking -> distinguishability.  Blocking A leaves arm B's photons.
    # |c|^2 may pass 1 by up to NORM_ATOL, which binomial rejects.
    p_b_hat = float(block_a.binomial(sc.shots, min(abs(state.c_b) ** 2, 1.0))) / sc.shots
    p_a_hat = float(block_b.binomial(sc.shots, min(abs(state.c_a) ** 2, 1.0))) / sc.shots
    d_est = abs(p_a_hat - p_b_hat)

    # Tomography -> concurrence (plus the all-tomographic triple).
    tomo = mle_reconstruct(sample_counts(rho_true, sc.shots, setting_rngs))
    tomographic = estimate_vdc_from_rho(tomo.rho_hat)

    estimated = DualityTriple(
        visibility=fit.v_hat,
        distinguishability=d_est,
        concurrence=tomographic.concurrence,
        gamma=tomographic.gamma,
    )
    return RunReport(
        name=sc.name,
        seed=sc.seed,
        shots=sc.shots,
        phase_points=sc.phase_points,
        analytic=analytic,
        estimated=estimated,
        tomographic=tomographic,
        fit_rmse=fit.rmse,
        mle_iterations=tomo.iterations,
        mle_converged=tomo.converged,
        mle_gap=tomo.gap,
        fidelity=pure_state_fidelity(tomo.rho_hat, state),
    )


def sample_fringe(sc: Scenario) -> FringeScan:
    """The scenario's seeded Monte Carlo fringe scan (``shots`` per phase point)."""
    (rng,) = stream_rngs(sc.seed, [(STAGE_FRINGE,)])
    return sample_fringe_scan(sc.state, sc.shots, rng, phases=phase_grid(sc.phase_points))


def _clamp_point(point) -> tuple[float, float, float]:
    x, y, z = (_clip01(float(v)) for v in point)
    return (x, y, z)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _report_row(r: RunReport) -> list:
    return [
        r.name,
        *r.analytic.as_tuple(),
        *r.estimated.as_tuple(),
        r.analytic.residual,
        r.estimated.residual,
        r.fidelity,
        r.seed,
    ]


def triple_to_dict(t: DualityTriple) -> dict:
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
        "analytic": triple_to_dict(r.analytic),
        "estimated": triple_to_dict(r.estimated),
        "tomographic": triple_to_dict(r.tomographic),
        "sphere_point": list(r.sphere_point),
        "fit_rmse": r.fit_rmse,
        "mle_iterations": r.mle_iterations,
        "mle_converged": r.mle_converged,
        "mle_gap": r.mle_gap,
        "fidelity": r.fidelity,
    }


def _pieces(columns, rows, records, fmt):
    """CSV of ``rows`` under ``columns`` (floats at 12 significant digits), or
    JSON of ``records``, as an iterable of strings.  ``fmt`` is checked first
    and only the chosen one is read, so either may be a generator."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
        return [buf.getvalue()]
    if fmt == "json":
        return itertools.chain(json.JSONEncoder(indent=2).iterencode(list(records)), ["\n"])
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _write(pieces, out) -> None:
    """Write ``pieces`` in batches, so a long JSON document is never one string.

    A file is rewritten in place and then cut to the written length, because
    truncating a file just written can wait on its writeback.  If writing
    fails, the file is left empty, never a new head on an old tail.
    """
    if out is None:
        return _write_batches(pieces, sys.stdout)
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    try:
        # ``fd`` outlives ``fh``: a failed write's buffer is flushed before the file is emptied.
        with open(fd, "w", newline="", closefd=False) as fh:
            _write_batches(pieces, fh)
            if regular:
                fh.truncate()
    except BaseException:
        if regular:
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def _write_batches(pieces, fh) -> None:
    pieces = iter(pieces)
    for first in pieces:
        fh.write(first + "".join(itertools.islice(pieces, _WRITE_BATCH - 1)))


def emit_table(columns, rows, records, fmt: str, out) -> None:
    """Write ``_pieces``' CSV or JSON to a path, or to stdout when ``out`` is None."""
    _write(_pieces(columns, rows, records, fmt), out)


def _report_pieces(reports, fmt: str):
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to emit: no reports")
    return _pieces(CSV_COLUMNS, map(_report_row, reports), map(report_to_dict, reports), fmt)


def render_report(reports, fmt: str = "csv") -> str:
    """Serialize reports to a CSV or JSON string."""
    return "".join(_report_pieces(reports, fmt))


def emit_report(reports, fmt: str = "csv", out=None) -> None:
    """Write serialized reports to a path, or to stdout when ``out`` is None."""
    _write(_report_pieces(reports, fmt), out)
