"""Scenario loading, the end-to-end pipeline, report emission, sphere points."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_duality import (
    Scenario,
    ScenarioError,
    TwoPathState,
    default_scenarios,
    emit_report,
    load_scenarios,
    render_report,
    run_pipeline,
    scenario_to_dict,
    vdc_triple,
)
from photon_duality.interferometer import MAX_PHASE_POINTS, MIN_PHASE_POINTS
from photon_duality.pipeline import (
    _WRITE_BATCH,
    CSV_COLUMNS,
    STAGE_BLOCKING,
    _clamp_point,
    _write,
    emit_table,
    render_table,
)
from photon_duality.scenarios import MAX_SHOTS, MIN_SHOTS, override_shots, reseed
from photon_duality.seeding import check_seed, derive_seed, make_rng

HALF = math.sqrt(0.5)

# Scenario's integer fields and the closed range each takes.
INTEGER_FIELDS = {
    "shots": (MIN_SHOTS, MAX_SHOTS),
    "phase_points": (MIN_PHASE_POINTS, MAX_PHASE_POINTS),
    "seed": (0, 2**64 - 1),
}
NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def numpy_integers(draw):
    dtype = np.dtype(draw(st.sampled_from(NUMPY_INTEGERS)))
    info = np.iinfo(dtype)
    return dtype.type(draw(st.integers(int(info.min), int(info.max))))


def make_scenario(**overrides):
    base = dict(
        name="test",
        state=TwoPathState(HALF, HALF, (1, 0), (0, 1)),
        shots=2000,
        phase_points=32,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


def write_config(tmp_path, entries):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries))
    return path


class TestScenarioValidation:
    def test_shots_floor(self):
        with pytest.raises(ScenarioError, match="shots"):
            make_scenario(shots=50)

    def test_phase_points_floor(self):
        with pytest.raises(ScenarioError, match="phase_points"):
            make_scenario(phase_points=4)

    def test_phase_points_ceiling(self):
        # Checked before anything is allocated for the scan.
        make_scenario(phase_points=MAX_PHASE_POINTS)
        with pytest.raises(ScenarioError, match="phase_points"):
            make_scenario(phase_points=MAX_PHASE_POINTS + 1)

    def test_state_invariants_enforced(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        entry["c_a"] = [1.0, 0.0]
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match=r"entry 0 \('test'\): invalid state: \|c_a\|"):
            load_scenarios(path)

    @pytest.mark.parametrize(
        "state",
        [None, (HALF, HALF, (1, 0), (0, 1)), {"c_a": HALF}],
        ids=["none", "tuple", "dict"],
    )
    def test_state_must_be_a_two_path_state(self, state):
        with pytest.raises(ScenarioError, match="state must be a TwoPathState"):
            make_scenario(state=state)

    def test_seed_range(self):
        with pytest.raises(ScenarioError, match="seed"):
            make_scenario(seed=-1)

    @settings(max_examples=80, deadline=None)
    @given(
        field=st.sampled_from(sorted(INTEGER_FIELDS)),
        value=st.one_of(st.floats(), st.booleans(), st.integers(0, 2**64).map(float)),
    )
    @example(field="seed", value=1.5)
    @example(field="seed", value=True)
    @example(field="shots", value=1000.5)
    @example(field="phase_points", value=64.5)
    @example(field="phase_points", value=math.nan)
    def test_non_integer_field_is_named(self, field, value):
        # A float seed once ran the streams of its integer part.
        with pytest.raises(ScenarioError, match=f"^{field} must be an integer"):
            make_scenario(**{field: value})

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(sorted(INTEGER_FIELDS)), value=numpy_integers())
    @example(field="seed", value=np.uint64(2**64 - 1))
    @example(field="shots", value=np.uint64(MAX_SHOTS + 1))
    @example(field="phase_points", value=np.int32(MAX_PHASE_POINTS))
    def test_numpy_integer_field_is_held_as_int(self, field, value):
        low, high = INTEGER_FIELDS[field]
        if low <= int(value) <= high:
            held = getattr(make_scenario(**{field: value}), field)
            assert type(held) is int and held == int(value)
        else:
            with pytest.raises(ScenarioError, match=f"^{field} must be"):
                make_scenario(**{field: value})

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, math.nan, "1", None])
    def test_check_seed_rejects_non_integers(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)])
    def test_check_seed_returns_an_int(self, seed):
        held = check_seed(seed)
        assert type(held) is int and held == int(seed)


class TestLoadScenarios:
    def test_round_trip(self, tmp_path):
        original = [make_scenario(), make_scenario(name="other", seed=9)]
        path = write_config(tmp_path, [scenario_to_dict(sc) for sc in original])
        assert load_scenarios(path) == original

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"name": "x",]')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenarios(path)

    def test_missing_field_named(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        del entry["phi_b"]
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match="phi_b"):
            load_scenarios(path)

    def test_non_normalized_amplitudes_named(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        entry["c_a"] = [1.0, 0.0]
        entry["c_b"] = [1.0, 0.0]
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match=r"entry 0.*invalid state"):
            load_scenarios(path)

    def test_shots_beyond_int64_rejected(self, tmp_path):
        # numpy's samplers take shot counts only up to 2**63 - 1.
        entry = scenario_to_dict(make_scenario())
        entry["shots"] = 2**63
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match="shots must be <="):
            load_scenarios(path)
        make_scenario(shots=2**63 - 1)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, tmp_path, constant):
        entry = scenario_to_dict(make_scenario())
        entry["c_a"] = float(constant)
        path = write_config(tmp_path, [entry])
        assert constant in path.read_text()
        with pytest.raises(ScenarioError, match=f"non-finite number {constant}"):
            load_scenarios(path)

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"c_a": True, "c_b": False}, "c_a"),
            ({"c_a": [True, 0], "c_b": [0, False]}, "c_a"),
            ({"phi_a": [True, 0]}, "phi_a"),
        ],
        ids=["bare", "pair", "vector"],
    )
    def test_boolean_amplitude_rejected(self, tmp_path, update, field):
        # Read as 1 and 0, each of these would be a valid state.
        entry = scenario_to_dict(make_scenario())
        entry.update(update)
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match=f"field '{field}'"):
            load_scenarios(path)

    def test_duplicate_names_rejected(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        path = write_config(tmp_path, [entry, entry])
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenarios(path)

    def test_empty_list_rejected(self, tmp_path):
        path = write_config(tmp_path, [])
        with pytest.raises(ScenarioError, match="empty"):
            load_scenarios(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text('{"scenarios": []}')
        with pytest.raises(ScenarioError, match="array"):
            load_scenarios(path)

    def test_bare_real_accepted_for_complex(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        entry["c_a"] = HALF
        entry["c_b"] = HALF
        path = write_config(tmp_path, [entry])
        assert load_scenarios(path)[0].state.c_a == complex(HALF)

    def test_unknown_field_rejected(self, tmp_path):
        entry = scenario_to_dict(make_scenario())
        entry["gamma"] = 0.5
        path = write_config(tmp_path, [entry])
        with pytest.raises(ScenarioError, match="unknown"):
            load_scenarios(path)


class TestDefaults:
    def test_seven_scenarios(self):
        defaults = default_scenarios()
        assert len(defaults) == 7
        assert len({sc.name for sc in defaults}) == 7
        assert all(sc.name.startswith("default-") for sc in defaults)

    def test_analytic_points_on_unit_sphere(self):
        for sc in default_scenarios():
            t = vdc_triple(sc.state)
            radius_sq = sum(x * x for x in t.as_tuple())
            assert radius_sq == pytest.approx(1.0, abs=1e-12)

    def test_contains_extreme_point_and_both_poles(self):
        triples = {
            sc.name: vdc_triple(sc.state).as_tuple() for sc in default_scenarios()
        }
        assert triples["default-arc-g0.00"] == pytest.approx((0, 0, 1), abs=1e-12)
        assert triples["default-arc-g1.00"] == pytest.approx((1, 0, 0), abs=1e-12)

    def test_arc_family_monotone(self):
        # Decreasing overlap along the arc family: V falls, D stays 0, C rises.
        arc = [sc for sc in default_scenarios() if "arc" in sc.name]
        triples = [vdc_triple(sc.state) for sc in arc]
        vs = [t.visibility for t in triples]
        cs = [t.concurrence for t in triples]
        ds = [t.distinguishability for t in triples]
        assert all(b < a for a, b in zip(vs, vs[1:]))
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert all(d == pytest.approx(0.0, abs=1e-12) for d in ds)

    def test_reseed_and_override(self):
        defaults = default_scenarios()
        reseeded = reseed(defaults, 42)
        assert [sc.name for sc in reseeded] == [sc.name for sc in defaults]
        assert all(a.seed != b.seed for a, b in zip(defaults, reseeded))
        assert reseed(defaults, 42) == reseeded
        assert all(sc.shots == 5000 for sc in override_shots(defaults, 5000))


class TestPipeline:
    def test_report_structure_and_determinism(self):
        sc = make_scenario(shots=2000)
        a = run_pipeline(sc)
        b = run_pipeline(sc)
        assert a == b  # same seed, bit-identical report
        assert a.name == "test"
        assert a.analytic.as_tuple() == (0.0, 0.0, 1.0)
        assert 0 <= a.estimated.visibility <= 1.05
        assert a.mle_iterations > 0
        assert 0.9 <= a.fidelity <= 1.0

    def test_extreme_point_estimates(self):
        report = run_pipeline(make_scenario(shots=20_000, phase_points=64))
        v, d, c = report.estimated.as_tuple()
        assert v < 0.05 and d < 0.05 and c > 0.9
        assert abs(report.estimated.residual) < 0.1

    def test_separable_scenario_low_concurrence(self):
        separable = TwoPathState(HALF, HALF, (1, 0), (1, 0))
        sc = make_scenario(name="separable", state=separable, shots=20_000)
        report = run_pipeline(sc)
        assert report.estimated.concurrence <= 0.05

    def test_all_defaults_near_unit_radius_at_full_shots(self):
        # Seed-pinned end-to-end identity check at the spec's shot budget.
        for sc in reseed(default_scenarios(), 20_250):
            report = run_pipeline(sc)
            radius_sq = sum(x * x for x in report.estimated.as_tuple())
            assert abs(radius_sq - 1.0) <= 0.05, (sc.name, radius_sq)

    def test_rejects_higher_dimension(self):
        sc = make_scenario(state=TwoPathState(HALF, HALF, (HALF, HALF * 1j, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="d = 2"):
            run_pipeline(sc)

    def test_blocking_draws_pin_each_arm_to_its_stream(self):
        # Blocking A (stream 0) leaves p_b, blocking B (stream 1) leaves p_a.
        # D is symmetric under an arm swap, and numpy draws binomial(n, p) as
        # n - binomial(n, 1 - p), so for most states a swap does not even
        # move D_est; this state and seed are picked so that it does.
        c_a, c_b = math.sqrt(0.3) * 1j, math.sqrt(0.7)
        sc = make_scenario(state=TwoPathState(c_a, c_b, (1, 0), (0, 1)))

        def fraction(k, p):
            return make_rng(derive_seed(sc.seed, STAGE_BLOCKING, k)).binomial(sc.shots, p) / sc.shots

        expected = abs(fraction(1, abs(c_a) ** 2) - fraction(0, abs(c_b) ** 2))
        assert abs(fraction(0, abs(c_a) ** 2) - fraction(1, abs(c_b) ** 2)) != expected
        assert run_pipeline(sc).estimated.distinguishability == expected


@pytest.fixture(scope="module")
def reports():
    return [run_pipeline(sc) for sc in override_shots(default_scenarios()[:2], 2000)]


class TestEmission:
    def test_csv_shape(self, reports):
        text = render_report(reports, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(reports) + 1

    def test_csv_significant_digits(self, reports):
        row = render_report(reports, "csv").strip().split("\n")[1].split(",")
        fidelity = row[CSV_COLUMNS.index("fidelity")]
        assert len(fidelity.replace(".", "").replace("-", "").lstrip("0")) <= 12
        assert float(fidelity) == pytest.approx(reports[0].fidelity, rel=1e-11)

    def test_json_round_trip(self, reports):
        parsed = json.loads(render_report(reports, "json"))
        assert [r["name"] for r in parsed] == [r.name for r in reports]
        first = parsed[0]
        assert first["analytic"]["visibility"] == reports[0].analytic.visibility
        assert first["mle_iterations"] == reports[0].mle_iterations

    def test_unknown_format_rejected(self, reports):
        with pytest.raises(ValueError, match="format"):
            render_report(reports, "yaml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_report_writes_the_rendered_bytes(self, reports, fmt, tmp_path, capsys):
        text = render_report(reports, fmt)
        emit_report(reports, fmt, tmp_path / "out")
        assert (tmp_path / "out").read_bytes() == text.encode()
        emit_report(reports, fmt)
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_table_streams_a_long_table_unchanged(self, fmt, tmp_path):
        # Each record is several JSON pieces, so this table spans many batches.
        rows = [[f"p{k}", k / 7.0, k] for k in range(_WRITE_BATCH)]
        records = [{"name": f"p{k}", "points": [[k / 7.0, 0.5]]} for k in range(_WRITE_BATCH)]
        text = render_table(["name", "x", "k"], rows, records, fmt)
        if fmt == "json":
            assert text == json.dumps(records, indent=2) + "\n"
        emit_table(["name", "x", "k"], iter(rows), iter(records), fmt, tmp_path / "out")
        assert (tmp_path / "out").read_bytes() == text.encode()

    def test_pieces_that_raise_mid_write_leave_the_file_empty(self, tmp_path):
        # A failed rewrite must not leave a new head on the old tail, which
        # could read as a whole table.
        out = tmp_path / "out"
        out.write_text("stale\n" * (4 * _WRITE_BATCH))
        heads = []

        def pieces():
            yield from ["fresh\n"] * (2 * _WRITE_BATCH)
            heads.append(out.read_bytes()[:6])
            raise RuntimeError("pieces ran dry")

        with pytest.raises(RuntimeError, match="pieces ran dry"):
            _write(pieces(), out)
        assert heads == [b"fresh\n"] and out.read_bytes() == b""

    def test_unknown_format_rejected_before_the_file_is_opened(self, reports, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_table(["name"], [], [], "yaml", tmp_path / "table")
        with pytest.raises(ValueError, match="format"):
            emit_report(reports, "yaml", tmp_path / "report")
        assert not any(tmp_path.iterdir())

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            render_report([], "csv")

    def test_sphere_points(self, reports):
        for r in reports:
            x, y, z = r.sphere_point
            assert 0.0 <= min(x, y, z) and max(x, y, z) <= 1.0
            assert r.sphere_point == tuple(min(1.0, max(0.0, v)) for v in r.estimated.as_tuple())

    def test_nan_estimate_reaches_the_finiteness_check(self, reports):
        # Clamping once turned a NaN component into 0.0, a plausible point.
        point = _clamp_point((math.nan, 0.5, 1.5))
        assert math.isnan(point[0]) and point[1:] == (0.5, 1.0)
        nan_visibility = dataclasses.replace(reports[0].estimated, visibility=math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(reports[0], estimated=nan_visibility)
