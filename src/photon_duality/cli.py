"""Command-line interface.

Subcommands:
  compute     analytic (V, D, C) triples only, no simulation
  fringes     fringe-scan data dump (exact with --shots 0, else Monte Carlo)
  experiment  full pipeline: fringe fit + arm blocking + tomography
  sphere      unit-sphere points (V, D, C) per scenario

Scenarios come from --config FILE (JSON array) or --defaults (the seven
built-in states).  --seed reseeds every scenario from one master seed,
--shots overrides the per-scenario budget.  Output goes to --out or stdout
as --format csv|json; each command only builds its rows and records, and
``pipeline`` renders and writes them.  Exit codes: 0 success, 1 validation
error, 2 I/O or usage error (argparse's own errors, e.g. ``--seed 1.5``).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .interferometer import fringe_scan, phase_grid
from .metrics import vdc_triple
from .pipeline import emit_report, emit_table, run_pipeline, sample_fringe, triple_to_dict
from .scenarios import (
    MIN_SHOTS,
    ScenarioError,
    default_scenarios,
    load_scenarios,
    override_shots,
    reseed,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` parses every ``argv`` on it."""
    parser = argparse.ArgumentParser(
        prog="photon-duality",
        description="Two-path single-photon duality simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compute", "analytic triples only"),
        ("fringes", "dump fringe scans"),
        ("experiment", "run the full simulated experiment"),
        ("sphere", "emit unit-sphere points"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="scenario file (JSON array)")
        p.add_argument("--defaults", action="store_true", help="use the built-in scenarios")
        p.add_argument("--shots", type=int, default=None, help="override shots per scenario")
        p.add_argument("--seed", type=int, default=None, help="master seed overriding scenario seeds")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="FILE", default=None, help="output path (default stdout)")
        if name == "sphere":
            p.add_argument(
                "--analytic",
                action="store_true",
                help="emit exact analytic points instead of simulating",
            )
    return parser


def _load(args) -> list:
    if args.defaults and args.config:
        raise ScenarioError("pass either --config or --defaults, not both")
    if args.defaults:
        scenarios = default_scenarios()
    elif args.config:
        scenarios = load_scenarios(args.config)
    else:
        raise ScenarioError("no scenarios: pass --config FILE or --defaults")
    if args.seed is not None:
        scenarios = reseed(scenarios, args.seed)
    allow_zero_shots = args.command == "fringes"
    if args.shots is not None and not (allow_zero_shots and args.shots == 0):
        if args.shots < MIN_SHOTS:
            raise ScenarioError(f"--shots must be >= {MIN_SHOTS}, got {args.shots}")
        scenarios = override_shots(scenarios, args.shots)
    return scenarios


def _cmd_compute(args, scenarios) -> None:
    triples = [(sc.name, vdc_triple(sc.state)) for sc in scenarios]
    emit_table(
        ["name", "V", "D", "C", "residual"],
        ([name, *t.as_tuple(), t.residual] for name, t in triples),
        ({"name": name, **triple_to_dict(t)} for name, t in triples),
        args.format,
        args.out,
    )


def _cmd_fringes(args, scenarios) -> None:
    if args.shots == 0:
        scans = [
            (sc.name, fringe_scan(sc.state, phase_grid(sc.phase_points))) for sc in scenarios
        ]
    else:
        scans = [(sc.name, sample_fringe(sc)) for sc in scenarios]
    emit_table(
        ["name", "phi", "p"],
        ([name, phi, p] for name, scan in scans for phi, p in zip(scan.phases, scan.probabilities)),
        (
            {
                "name": name,
                "noisy": scan.noisy,
                "shots_per_point": scan.shots_per_point,
                "points": [[float(phi), float(p)] for phi, p in zip(scan.phases, scan.probabilities)],
            }
            for name, scan in scans
        ),
        args.format,
        args.out,
    )


def _run(scenarios) -> list:
    """Run the pipeline per scenario; warn on stderr of each unconverged MLE."""
    reports = [run_pipeline(sc) for sc in scenarios]
    for r in reports:
        if not r.mle_converged:
            print(
                f"warning: {r.name}: MLE did not converge in {r.mle_iterations} iterations",
                file=sys.stderr,
            )
    return reports


def _cmd_experiment(args, scenarios) -> None:
    emit_report(_run(scenarios), fmt=args.format, out=args.out)


def _cmd_sphere(args, scenarios) -> None:
    if args.analytic:
        points = [(sc.name, vdc_triple(sc.state).as_tuple()) for sc in scenarios]
    else:
        points = [(r.name, r.sphere_point) for r in _run(scenarios)]
    emit_table(
        ["name", "x", "y", "z"],
        ([name, *point] for name, point in points),
        ({"name": name, "point": list(point)} for name, point in points),
        args.format,
        args.out,
    )


_COMMANDS = {
    "compute": _cmd_compute,
    "fringes": _cmd_fringes,
    "experiment": _cmd_experiment,
    "sphere": _cmd_sphere,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenarios = _load(args)
        _COMMANDS[args.command](args, scenarios)
    except (ScenarioError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
