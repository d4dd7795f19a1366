"""CLI surface: subcommands, flags, output formats, exit codes."""

import contextlib
import errno
import functools
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_duality import pipeline, scenario_to_dict, tomography
from photon_duality.cli import build_parser, main
from photon_duality.interferometer import MAX_PHASE_POINTS
from photon_duality.scenarios import _FIELDS, default_scenarios, override_shots


@pytest.fixture()
def config_path(tmp_path):
    entries = [scenario_to_dict(sc) for sc in override_shots(default_scenarios()[:2], 2000)]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries))
    return path


def run_cli(*argv):
    return main(list(argv))


class TestParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_cached_parser_carries_no_state(self, config_path, capsys):
        commands = [
            ("sphere", "--defaults", "--analytic"),
            ("sphere", "--config", str(config_path), "--seed", "5"),
            ("compute", "--defaults"),
        ]
        build_parser.cache_clear()
        in_sequence = []
        for argv in commands:
            assert run_cli(*argv) == 0
            in_sequence.append(capsys.readouterr())
        for argv, seen in zip(commands, in_sequence):
            build_parser.cache_clear()
            assert run_cli(*argv) == 0
            assert capsys.readouterr() == seen


class TestCompute:
    def test_defaults_csv(self, capsys):
        assert run_cli("compute", "--defaults") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,V,D,C,residual"
        assert len(lines) == 8

    @pytest.mark.parametrize("shots", [100, 2**63 - 1], ids=["min", "max"])
    def test_shots_at_the_limits_change_nothing(self, shots, capsys):
        # compute is closed-form: a shot budget at either end is accepted
        # and ignored.
        assert run_cli("compute", "--defaults") == 0
        expected = capsys.readouterr().out
        assert run_cli("compute", "--defaults", "--shots", str(shots)) == 0
        assert capsys.readouterr() == (expected, "")

    def test_config_json(self, config_path, capsys):
        assert run_cli("compute", "--config", str(config_path), "--format", "json") == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 2
        assert {"name", "visibility", "distinguishability", "concurrence", "gamma", "residual"} <= set(
            parsed[0]
        )

    def test_out_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "triples.csv"
        assert run_cli("compute", "--config", str(config_path), "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("name,V,D,C,residual")


class TestOutFile:
    """``--out`` rewrites an existing file in place and cuts it to length."""

    def report(self, config_path, fmt, capsys):
        assert run_cli("experiment", "--config", str(config_path), "--format", fmt) == 0
        return capsys.readouterr().out.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [-100, 0, 5000], ids=["shorter", "same", "longer"])
    def test_existing_file_holds_the_stdout_bytes(self, config_path, tmp_path, capsys, fmt, extra):
        expected = self.report(config_path, fmt, capsys)
        out = tmp_path / "report"
        out.write_bytes(b"x" * (len(expected) + extra))
        assert run_cli("experiment", "--config", str(config_path), "--format", fmt, "--out", str(out)) == 0
        assert out.read_bytes() == expected

    def test_existing_file_keeps_its_inode_and_mode(self, config_path, tmp_path):
        out = tmp_path / "triples.csv"
        out.write_text("stale\n" * 1000)
        out.chmod(0o640)
        before = out.stat()
        assert run_cli("compute", "--config", str(config_path), "--out", str(out)) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert out.read_text().startswith("name,V,D,C,residual")

    def test_dev_null(self, config_path, capsys):
        assert run_cli("experiment", "--config", str(config_path), "--out", os.devnull) == 0
        assert capsys.readouterr() == ("", "")

    def test_failed_write_leaves_an_empty_file(self, config_path, tmp_path, monkeypatch, capsys):
        report_pieces = pipeline._report_pieces

        def pieces_then_full_disk(reports, fmt):
            yield from report_pieces(reports, fmt)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pipeline, "_WRITE_BATCH", 2)
        monkeypatch.setattr(pipeline, "_report_pieces", pieces_then_full_disk)
        out = tmp_path / "report.json"
        out.write_text("[" + " " * 10_000 + "]\n")
        argv = ["experiment", "--config", str(config_path), "--format", "json", "--out", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")
        assert out.read_bytes() == b""


class TestFringes:
    def test_exact_dump(self, config_path, capsys):
        assert run_cli("fringes", "--config", str(config_path), "--shots", "0") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,phi,p"
        assert len(lines) == 1 + 2 * 64

    def test_noisy_json(self, config_path, capsys):
        code = run_cli(
            "fringes", "--config", str(config_path), "--format", "json", "--seed", "3"
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed[0]["noisy"] is True
        assert parsed[0]["shots_per_point"] == 2000
        assert len(parsed[0]["points"]) == 64


class TestExperiment:
    def test_csv_output(self, config_path, capsys):
        assert run_cli("experiment", "--config", str(config_path), "--seed", "5") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("name,V_analytic,")
        assert len(lines) == 3

    def test_seed_makes_runs_identical(self, config_path, capsys):
        run_cli("experiment", "--config", str(config_path), "--seed", "5")
        first = capsys.readouterr().out
        run_cli("experiment", "--config", str(config_path), "--seed", "5")
        second = capsys.readouterr().out
        assert first == second

    def test_largest_seed_end_to_end(self, capsys):
        argv = ("experiment", "--defaults", "--seed", str(2**64 - 1))
        assert run_cli(*argv) == 0
        first = capsys.readouterr()
        assert first.err == "" and len(first.out.strip().split("\n")) == 8
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == first.out

    def test_min_shots_end_to_end(self, capsys):
        argv = ("experiment", "--defaults", "--seed", "42", "--shots", "100", "--format", "json")
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert captured.err == "" and len(reports) == 7
        assert all(r["mle_converged"] for r in reports)

    def test_different_seeds_differ(self, config_path, capsys):
        run_cli("experiment", "--config", str(config_path), "--seed", "5")
        first = capsys.readouterr().out
        run_cli("experiment", "--config", str(config_path), "--seed", "6")
        second = capsys.readouterr().out
        assert first != second


class TestConvergenceWarning:
    @pytest.fixture()
    def tiny_budget(self, monkeypatch):
        # Three iterations leave every reconstruction unconverged.
        monkeypatch.setattr(
            pipeline, "mle_reconstruct", functools.partial(tomography.mle_reconstruct, max_iter=3)
        )

    @pytest.mark.parametrize("command", ["experiment", "sphere"])
    def test_one_line_per_unconverged_scenario(self, command, config_path, tiny_budget, capsys):
        assert run_cli(command, "--config", str(config_path), "--seed", "5") == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: {name}: MLE did not converge in 3 iterations"
            for name in ("default-arc-g1.00", "default-arc-g0.92")
        ]
        assert len(captured.out.strip().split("\n")) == 3

    def test_json_stdout_stays_parseable(self, config_path, tiny_budget, capsys):
        run_cli("experiment", "--config", str(config_path), "--seed", "5", "--format", "json")
        parsed = json.loads(capsys.readouterr().out)
        assert [r["mle_converged"] for r in parsed] == [False, False]

    def test_max_shots_warns_once_per_scenario(self, capsys):
        # 0.015 nats over N ~ 1.4e20 counts is below what the certificate
        # resolves, so no scenario is reported as converged.
        argv = ("experiment", "--defaults", "--seed", "42", "--shots", str(2**63 - 1))
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 8
        names = [sc.name for sc in default_scenarios()]
        assert [line.split(": ")[1] for line in captured.err.splitlines()] == names

    def test_converged_runs_stay_quiet(self, config_path, capsys):
        for source in (("--config", str(config_path), "--seed", "5"), ("--defaults", "--seed", "42")):
            assert run_cli("experiment", *source) == 0
            assert capsys.readouterr().err == ""

    def test_json_converged_iff_gap_below_tol(self, config_path, monkeypatch, capsys):
        # The default budget certifies every seed-42 default; a budget of
        # three map applications (one SQUAREM cycle, too few for a projected
        # step) certifies neither scenario of the config.  Each report is
        # held to its own per-count threshold, 0.015 nats over its 15 * shots
        # counts.
        assert run_cli("experiment", "--defaults", "--seed", "42", "--format", "json") == 0
        reports = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(
            pipeline, "mle_reconstruct", functools.partial(tomography.mle_reconstruct, max_iter=3)
        )
        assert run_cli("experiment", "--config", str(config_path), "--format", "json") == 0
        reports += json.loads(capsys.readouterr().out)
        assert [r["mle_converged"] for r in reports] == [True] * 7 + [False] * 2
        for r in reports:
            assert r["mle_converged"] == (r["mle_gap"] < 0.015 / (15 * r["shots"]))


class TestNearUnitNorm:
    # |c_b|^2 = 1 + 8e-10 passes the state's NORM_ATOL (1e-9) but not the
    # density matrix's trace check (1e-10), and the arm-blocking draw must
    # not see a probability above 1.
    @pytest.mark.parametrize("command", ["compute", "experiment", "sphere"])
    def test_runs_end_to_end(self, command, tmp_path, capsys):
        entry = {"name": "near-unit", "c_a": 0, "c_b": 1.0000000004, "phi_a": [1, 0],
                 "phi_b": [0, 1], "shots": 1000, "phase_points": 64, "seed": 1}
        path = tmp_path / "near.json"
        path.write_text(json.dumps([entry]))
        assert run_cli(command, "--config", str(path), "--format", "json") == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(json.loads(captured.out)) == 1


class TestSphere:
    def test_analytic_points(self, capsys):
        assert run_cli("sphere", "--defaults", "--analytic") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,x,y,z"
        assert len(lines) == 8
        for line in lines[1:]:
            x, y, z = (float(v) for v in line.split(",")[1:])
            assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-10)

    def test_estimated_points_json(self, config_path, capsys):
        code = run_cli(
            "sphere", "--config", str(config_path), "--format", "json", "--seed", "8"
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        for entry in parsed:
            assert all(0.0 <= v <= 1.0 for v in entry["point"])


class TestErrorHandling:
    def test_no_scenario_source(self, capsys):
        assert run_cli("compute") == 1
        assert "no scenarios" in capsys.readouterr().err

    def test_both_sources(self, config_path, capsys):
        assert run_cli("compute", "--defaults", "--config", str(config_path)) == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("compute", "--config", str(tmp_path / "nope.json")) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert run_cli("compute", "--config", str(bad)) == 1
        assert "empty" in capsys.readouterr().err

    def test_non_finite_amplitude(self, tmp_path, capsys):
        entry = scenario_to_dict(default_scenarios()[0])
        entry["c_a"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps([entry]))
        assert run_cli("compute", "--config", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN" in captured.err

    def test_boolean_amplitude(self, tmp_path, capsys):
        entry = scenario_to_dict(default_scenarios()[0])
        entry.update(c_a=True, c_b=False, phi_a=[True, 0])
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps([entry]))
        assert run_cli("compute", "--config", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "c_a" in captured.err

    def test_bad_shots_override(self, config_path, capsys):
        assert run_cli("experiment", "--config", str(config_path), "--shots", "10") == 1
        assert "--shots" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_shots_beyond_int64(self, source, tmp_path, capsys):
        if source == "flag":
            argv = ["--defaults", "--shots", str(10**20)]
        else:
            entry = scenario_to_dict(default_scenarios()[0])
            entry["shots"] = 10**20
            path = tmp_path / "huge.json"
            path.write_text(json.dumps([entry]))
            argv = ["--config", str(path)]
        assert run_cli("experiment", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "shots must be <=" in captured.err and "Traceback" not in captured.err

    def test_unwritable_output(self, config_path, tmp_path, capsys):
        missing_dir = tmp_path / "does" / "not" / "exist" / "out.csv"
        code = run_cli("compute", "--config", str(config_path), "--out", str(missing_dir))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--defaults", "--seed", "1.5"],
            ["compute", "--defaults", "--no-such-flag"],
            ["--defaults"],
            [],
        ],
        ids=["float-seed", "unknown-flag", "no-subcommand", "no-arguments"],
    )
    def test_usage_error_exits_2(self, argv, capsys):
        # argparse's own usage errors share exit code 2 with I/O errors.
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: photon-duality")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c_a", 1e200),
            ("c_a", [0, 1e200]),
            ("c_a", 1e308),
            ("c_a", 10**400),
            ("c_a", [0, -(10**400)]),
            ("phi_a", [1e200, 0]),
            ("phi_b", [0, [1e308, 1e308]]),
            ("phase_points", MAX_PHASE_POINTS + 1),
            ("phase_points", 10**15),
        ],
        ids=[
            "c_a-1e200",
            "c_a-im-1e200",
            "c_a-1e308",
            "c_a-int-1e400",
            "c_a-im-int-1e400",
            "phi_a-1e200",
            "phi_b-pair-1e308",
            "phase_points-max+1",
            "phase_points-1e15",
        ],
    )
    def test_oversized_number_is_one_error_line(self, field, value, tmp_path, capsys):
        # Each once escaped as an OverflowError, a RuntimeWarning or (for
        # phase_points, under fringes or experiment) a failed allocation.
        entry = scenario_to_dict(default_scenarios()[0])
        entry[field] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps([entry]))
        assert run_cli("compute", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scenario entry 0 ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("arm", ["phi_a", "phi_b"])
    def test_non_unit_arm_is_named(self, arm, tmp_path, capsys):
        entry = scenario_to_dict(default_scenarios()[0])
        entry[arm] = [1, 1]
        path = tmp_path / "arm.json"
        path.write_text(json.dumps([entry]))
        assert run_cli("compute", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario entry 0 ('default-arc-g1.00'): invalid state: "
            f"{arm} norm is 1.4142135623730951, expected 1 within 1e-09\n"
        )


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, min_size=2, max_size=2)), min_size=2, max_size=2),
)


class TestMalformedScenarioProperty:
    """Every malformed scenario entry exits 1 with one error line, never 0 silently
    and never with a traceback (``compute`` only: nothing is sampled)."""

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
    @example(field="c_a", value=10**400)
    @example(field="c_a", value=-(10**400))
    @example(field="phi_b", value=[0, 10**400])
    @example(field="shots", value=10**400)
    @example(field="phase_points", value=-(10**400))
    def test_one_field_replaced(self, tmp_path_factory, field, value):
        entry = scenario_to_dict(default_scenarios()[0])
        entry[field] = value
        path = tmp_path_factory.getbasetemp() / "one_field_replaced.json"
        path.write_text(json.dumps([entry]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("compute", "--config", str(path))
        if code == 0:
            assert err.getvalue() == "" and out.getvalue().startswith("name,V,D,C,residual")
        else:
            assert code == 1 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
