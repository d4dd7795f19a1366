"""Byte-stable CLI output.

The files under ``tests/golden/`` pin the exact bytes of the outputs that
depend only on closed-form math, ``linspace`` phase grids and integer counts
divided by shots.  ``experiment`` and simulated ``sphere`` carry MLE results
whose last bits follow the BLAS summation order, so their bytes are not
pinned; instead every CSV cell must be the 12-significant-digit rendering of
the matching JSON value.
"""

import json
from pathlib import Path

import pytest

from photon_duality.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = GOLDEN / "three_defaults.json"

CASES = {
    "compute_defaults": ["compute", "--defaults"],
    "sphere_defaults_analytic": ["sphere", "--defaults", "--analytic"],
    "fringes_seed3": ["fringes", "--config", str(CONFIG), "--seed", "3"],
}


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, fmt, capsys):
    expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
    assert _stdout(capsys, [*CASES[case], "--format", fmt]).encode() == expected


def test_exact_fringes_match_golden_csv(capsys):
    # The unsampled fringe path: the shared grid and its exact probabilities.
    expected = (GOLDEN / "fringes_exact.csv").read_bytes()
    assert _stdout(capsys, ["fringes", "--config", str(CONFIG), "--shots", "0"]).encode() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_matches_golden_bytes(fmt, tmp_path, capsys):
    out = tmp_path / f"triples.{fmt}"
    assert _stdout(capsys, [*CASES["compute_defaults"], "--format", fmt, "--out", str(out)]) == ""
    assert out.read_bytes() == (GOLDEN / f"compute_defaults.{fmt}").read_bytes()


def _csv_and_json(capsys, argv):
    lines = _stdout(capsys, [*argv, "--format", "csv"]).split("\n")
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:], json.loads(_stdout(capsys, [*argv, "--format", "json"]))


def _fmt(v) -> str:
    return f"{v:.12g}"


def test_experiment_csv_renders_json_values(capsys):
    header, rows, records = _csv_and_json(capsys, ["experiment", "--config", str(CONFIG), "--seed", "8"])
    assert header == [
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
    ]
    assert len(rows) == len(records) == 3
    for row, rec in zip(rows, records):
        a, e = rec["analytic"], rec["estimated"]
        assert row == [
            rec["name"],
            _fmt(a["visibility"]),
            _fmt(a["distinguishability"]),
            _fmt(a["concurrence"]),
            _fmt(e["visibility"]),
            _fmt(e["distinguishability"]),
            _fmt(e["concurrence"]),
            _fmt(a["residual"]),
            _fmt(e["residual"]),
            _fmt(rec["fidelity"]),
            str(rec["seed"]),
        ]


def test_simulated_sphere_csv_renders_json_values(capsys):
    header, rows, records = _csv_and_json(capsys, ["sphere", "--config", str(CONFIG), "--seed", "8"])
    assert header == ["name", "x", "y", "z"]
    assert len(rows) == len(records) == 3
    for row, rec in zip(rows, records):
        assert list(rec) == ["name", "point"]
        assert row == [rec["name"], *map(_fmt, rec["point"])]
