"""Scenario definitions: named experiment configurations.

A scenario pins down one source state, held as its validated
``TwoPathState`` (path amplitudes plus the two polarization states), the
Monte Carlo budget, and the master seed.  Scenario files are plain JSON: a
top-level array of objects with the fields ``name``, ``c_a``, ``c_b``,
``phi_a``, ``phi_b``, ``shots``, ``phase_points`` and ``seed``.  Complex
numbers are written as [re, im] pairs (a bare number is accepted as purely
real, JSON ``true``/``false`` are not); ``phi_a``/``phi_b`` are 2-vectors of
such pairs.

The built-in default set holds seven constructed states: five balanced ones
whose overlap magnitude steps through {0, 0.38, 0.71, 0.92, 1} (the zero-
distinguishability arc from the all-entanglement pole to the all-visibility
pole, containing the balanced/orthogonal extreme point), plus two unbalanced
ones (p_a = 0.85, overlap 0 and 1) off that arc.  They are illustrative
stand-ins, not measured values, and are named "default-*" to say so.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .interferometer import DEFAULT_PHASE_POINTS, MAX_PHASE_POINTS, MIN_PHASE_POINTS
from .seeding import check_seed, derive_seed
from .states import TwoPathState, _check_count

MIN_SHOTS = 100
# numpy's binomial and multinomial samplers take counts up to int64.
MAX_SHOTS = 2**63 - 1

DEFAULT_SHOTS = 100_000
DEFAULT_MASTER_SEED = 1234

# Overlap magnitudes of the balanced defaults, descending order = the
# "both V and D shrink while C grows" family.
ARC_OVERLAPS = (1.0, 0.92, 0.71, 0.38, 0.0)
SKEW_P_A = 0.85
SKEW_OVERLAPS = (0.0, 1.0)


class ScenarioError(ValueError):
    """A scenario file or entry failed validation."""


@dataclass(frozen=True)
class Scenario:
    name: str
    state: TwoPathState
    shots: int
    phase_points: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise ScenarioError("name must be a non-empty string")
        if not isinstance(self.state, TwoPathState):
            raise ScenarioError(f"state must be a TwoPathState, got {type(self.state).__name__}")
        try:
            shots = _check_count(self.shots, "shots", MIN_SHOTS)
            phase_points = _check_count(self.phase_points, "phase_points", MIN_PHASE_POINTS)
            seed = check_seed(self.seed)
        except ValueError as err:
            raise ScenarioError(str(err)) from None
        if shots > MAX_SHOTS:
            raise ScenarioError(f"shots must be <= {MAX_SHOTS}, got {shots}")
        if phase_points > MAX_PHASE_POINTS:
            raise ScenarioError(
                f"phase_points must be in [{MIN_PHASE_POINTS}, {MAX_PHASE_POINTS}], "
                f"got {phase_points}"
            )
        # Numpy integers are held as ints, so reports stay JSON-serializable.
        for field, value in (("shots", shots), ("phase_points", phase_points), ("seed", seed)):
            object.__setattr__(self, field, value)


def _is_real(value) -> bool:
    # bool is an int subclass, but JSON true/false are not amplitudes.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, where: str) -> complex:
    try:
        if _is_real(value):
            return complex(value)
        if isinstance(value, (list, tuple)) and len(value) == 2 and all(_is_real(x) for x in value):
            return complex(value[0], value[1])
    except OverflowError:
        raise ScenarioError(f"{where}: number too large for a float") from None
    raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _as_complex_pair(value, where: str) -> tuple[complex, complex]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: expected a 2-vector, got {value!r}")
    return (_as_complex(value[0], f"{where}[0]"), _as_complex(value[1], f"{where}[1]"))


_FIELDS = ("name", "c_a", "c_b", "phi_a", "phi_b", "shots", "phase_points", "seed")


def _parse_scenario(obj, index: int) -> Scenario:
    where = f"scenario entry {index}"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [f for f in _FIELDS if f not in obj]
    if missing:
        raise ScenarioError(f"{where}: missing fields {missing}")
    unknown = [f for f in obj if f not in _FIELDS]
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {unknown}")
    name = obj["name"]
    where = f"scenario entry {index} ({name!r})"
    c_a = _as_complex(obj["c_a"], f"{where}: field 'c_a'")
    c_b = _as_complex(obj["c_b"], f"{where}: field 'c_b'")
    phi_a = _as_complex_pair(obj["phi_a"], f"{where}: field 'phi_a'")
    phi_b = _as_complex_pair(obj["phi_b"], f"{where}: field 'phi_b'")
    try:
        state = TwoPathState(c_a, c_b, phi_a, phi_b)
    except ValueError as err:
        raise ScenarioError(f"{where}: invalid state: {err}") from None
    try:
        return Scenario(name, state, obj["shots"], obj["phase_points"], obj["seed"])
    except ScenarioError as err:
        raise ScenarioError(f"{where}: {err}") from None


def load_scenarios(path) -> list[Scenario]:
    """Parse and validate a scenario file (JSON array of scenario objects).

    ``NaN`` and ``Infinity``, which Python's JSON parser accepts but JSON does
    not define, are rejected.
    """
    path = Path(path)
    text = path.read_text()

    def reject_constant(name: str):
        raise ScenarioError(f"{path}: non-finite number {name} is not allowed")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(data, list):
        raise ScenarioError(f"{path}: top level must be an array of scenarios")
    if not data:
        raise ScenarioError(f"{path}: scenario list is empty")
    scenarios = [_parse_scenario(obj, i) for i, obj in enumerate(data)]
    seen: set[str] = set()
    for sc in scenarios:
        if sc.name in seen:
            raise ScenarioError(f"duplicate scenario name {sc.name!r}")
        seen.add(sc.name)
    return scenarios


def scenario_to_dict(sc: Scenario) -> dict:
    """Inverse of ``_parse_scenario``; useful for writing scenario files."""
    pair = lambda z: [float(z.real), float(z.imag)]
    s = sc.state
    return {
        "name": sc.name,
        "c_a": pair(s.c_a),
        "c_b": pair(s.c_b),
        "phi_a": [pair(z) for z in s.phi_a],
        "phi_b": [pair(z) for z in s.phi_b],
        "shots": sc.shots,
        "phase_points": sc.phase_points,
        "seed": sc.seed,
    }


def _overlap_pair(g: float) -> tuple[float, float]:
    """phi_b with <phi_a|phi_b> = g against phi_a = (1, 0)."""
    return (g, math.sqrt(max(0.0, 1.0 - g * g)))


def default_scenarios() -> list[Scenario]:
    """The seven constructed default scenarios (see module docstring)."""
    half = math.sqrt(0.5)
    specs = [(f"default-arc-g{g:.2f}", half, half, g) for g in ARC_OVERLAPS]
    specs += [
        (f"default-skew-g{g:.2f}", math.sqrt(SKEW_P_A), math.sqrt(1.0 - SKEW_P_A), g)
        for g in SKEW_OVERLAPS
    ]
    return [
        Scenario(
            name=name,
            state=TwoPathState(c_a, c_b, (1.0, 0.0), _overlap_pair(g)),
            shots=DEFAULT_SHOTS,
            phase_points=DEFAULT_PHASE_POINTS,
            seed=derive_seed(DEFAULT_MASTER_SEED, i),
        )
        for i, (name, c_a, c_b, g) in enumerate(specs)
    ]


def reseed(scenarios: list[Scenario], master_seed: int) -> list[Scenario]:
    """Replace every scenario seed with one derived from a single master seed."""
    master_seed = check_seed(master_seed)
    return [
        replace(sc, seed=derive_seed(master_seed, i)) for i, sc in enumerate(scenarios)
    ]


def override_shots(scenarios: list[Scenario], shots: int) -> list[Scenario]:
    return [replace(sc, shots=shots) for sc in scenarios]
