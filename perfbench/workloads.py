"""The four benchmark workloads: inputs, one timed operation, and its check.

Each workload is a closed loop with one client.  ``setup`` makes the inputs
from the workload seed and warms up; it may be called several times.
``op(k, spans)`` is the timed operation on input ``k``; it goes through the
public API or the ``photon-duality`` CLI only (``spans`` is the file a traced
child writes its spans to, or None).  ``check(k, out)`` raises
``CheckFailed`` when the output is wrong; it runs outside the timed region.
Tolerances are the acceptance suite's.

The harness depends only on names the library keeps: ``cli.main``,
``default_scenarios``, ``scenario_to_dict``, ``derive_seed``,
``random_two_path_state``, ``exact_record``, ``mle_reconstruct`` and the
analytic functions of criteria 1, 3 and 5.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# `photon-duality experiment` CSV schema, pinned byte-for-byte.
CSV_COLUMNS = [
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
N_DEFAULTS = 7
COMPONENTS = ("visibility", "distinguishability", "concurrence")

RESIDUAL_TOL = 1e-10  # criterion 1
ROUTE_TOL = 1e-9  # criteria 3 and 5
EST_TOL = 0.05  # criterion 6's concurrence bound; criterion 7 grid's worst is 0.029
EXACT_INFIDELITY_TOL = 0.02  # criterion 6's sampled-fidelity floor
PSD_TOL = 1e-8
TRACE_TOL = 1e-10

# State dimensions in one analytic op, one state each.
ANALYTIC_DIMS = (2, 3, 4, 5)

# `--seed` values of the cli-defaults workload; 42 is criterion 8's.
CLI_SEEDS = tuple(range(42, 58))

# The criterion-7 grid: 25 master seeds x 7 defaults x {4000, 16000} shots.
# The sweep workload runs default d under master 7000 + d.
SWEEP_MASTERS = tuple(range(7000, 7025))
SWEEP_SHOTS = (4000, 16000)

# The console script `photon-duality`, spelled out so no install is needed.
CLI_ENTRY = "import sys; from photon_duality.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def child_env(src: Path) -> dict:
    """Environment for a child interpreter that imports the library from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    name = ""
    units = "ops"  # what ops_per_s counts
    units_per_op = 1
    in_child = False  # the op runs in a child process, so peak RSS is the child's

    def __init__(self, pd, work: Path, seed: int, toy: bool = False):
        self.pd = pd
        self.work = work
        self.seed = seed
        self.toy = toy
        # Accuracy figures, printed with the end-to-end metrics.
        self.est_errors: list[float] = []
        self.mle_results = 0
        self.mle_unconverged = 0
        self.infidelities: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int, spans: Path | None):
        raise NotImplementedError

    def check(self, k: int, out) -> None:
        raise NotImplementedError

    def n_inputs(self) -> int:
        """Number of distinct inputs; op k runs input k mod n_inputs()."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; raises CheckFailed."""

    def bytes_out(self, out) -> int:
        return 0

    def accuracy(self) -> dict:
        figures = {}
        if self.mle_results:
            figures["mle_unconverged_frac"] = (self.mle_unconverged / self.mle_results, "frac")
        if self.est_errors:
            figures["est_err_mean"] = (float(np.mean(self.est_errors)), "1")
        if self.infidelities:
            figures["exact_infidelity_max"] = (max(self.infidelities), "1")
        return figures

    def _count_mle(self, converged: bool) -> None:
        self.mle_results += 1
        self.mle_unconverged += not converged


def check_csv_report(text: str) -> list[list[float]]:
    """Rows of an `experiment` CSV as floats, after the schema and accuracy checks."""
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == CSV_COLUMNS, f"CSV header is {rows[:1]}, expected {CSV_COLUMNS}")
    body = rows[1:]
    require(len(body) == N_DEFAULTS, f"CSV has {len(body)} rows, expected {N_DEFAULTS}")
    values = []
    for row in body:
        require(len(row) == len(CSV_COLUMNS), f"CSV row {row[:1]} has {len(row)} fields")
        try:
            nums = [float(x) for x in row[1:10]]
        except ValueError:
            raise CheckFailed(f"CSV row {row[0]!r} has a non-numeric field") from None
        require(_finite(*nums), f"CSV row {row[0]!r} has a non-finite value")
        require(abs(nums[6]) <= RESIDUAL_TOL, f"{row[0]}: |residual_analytic| = {abs(nums[6]):.3e}")
        for k in range(3):
            err = abs(nums[3 + k] - nums[k])
            require(err <= EST_TOL, f"{row[0]}: {CSV_COLUMNS[4 + k]} off by {err:.4f}")
        values.append(nums)
    return values


class CliDefaults(Workload):
    """`photon-duality experiment --defaults --seed S --out F` as a child process.

    S cycles through CLI_SEEDS in an order shuffled by the workload seed.  An
    op's cost depends on S (how many MLEs converge early), so a fixed set that
    one run covers about twice keeps runs comparable.  A seed met again must
    give byte-identical CSV (criterion 8).
    """

    name = "cli-defaults"
    in_child = True

    def setup(self) -> None:
        pool = CLI_SEEDS[:2] if self.toy else CLI_SEEDS
        self.seeds = np.random.default_rng([self.seed, 1]).permutation(pool).tolist()
        self.env = child_env(Path(self.pd.__file__).resolve().parent.parent)
        self.seen: dict[int, bytes] = {}  # first CSV per seed

    def n_inputs(self) -> int:
        return len(self.seeds)

    def op(self, k: int, spans: Path | None):
        seed = self.seeds[k % len(self.seeds)]
        out = self.work / "defaults.csv"
        args = ["experiment", "--defaults", "--seed", str(seed), "--out", str(out)]
        if spans is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("trace_child.py")), str(spans), *args]
        proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150)
        return seed, proc.returncode, proc.stderr, out

    def check(self, k: int, out) -> None:
        seed, code, stderr, path = out
        require(code == 0, f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}")
        data = path.read_bytes()
        if seed in self.seen:
            require(data == self.seen[seed], f"seed {seed}: repeated run is not byte-identical")
        rows = check_csv_report(data.decode())
        if seed not in self.seen:
            self.seen[seed] = data
            self.est_errors.extend(abs(r[3 + c] - r[c]) for r in rows for c in range(3))

    def bytes_out(self, out) -> int:
        return out[3].stat().st_size

    def finish(self) -> None:
        """Re-run one checked seed (42 when the run reached it) in-process as
        JSON: it must carry the same numbers as the child's CSV, and it gives
        the MLE convergence figures."""
        if not self.seen:
            return
        seed = CLI_SEEDS[0] if CLI_SEEDS[0] in self.seen else next(iter(self.seen))
        data = self.seen[seed]
        out = self.work / "defaults-check.json"
        argv = ["experiment", "--defaults", "--seed", str(seed), "--format", "json", "--out", str(out)]
        require(self.pd.cli.main(argv) == 0, "in-process JSON run failed")
        reports = json.loads(out.read_text())
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        require(len(reports) == len(rows), "JSON and CSV disagree on the number of scenarios")
        for rep, row in zip(reports, rows):
            fields = [rep["analytic"][c] for c in COMPONENTS] + [rep["estimated"][c] for c in COMPONENTS]
            require(
                [f"{x:.12g}" for x in fields] == row[1:7] and rep["name"] == row[0],
                f"{row[0]}: JSON and CSV values differ",
            )
            self._count_mle(rep["mle_converged"])


class Sweep(Workload):
    """In-process `cli.main(["experiment", "--config", F, "--format", "json", ...])`.

    Seven files, one per default d: d at 4000 and at 16000 shots, reseeded
    by criterion-7 master 7000 + d, so the seven hold 14 points of the
    criterion-7 grid.  Op k runs file k mod 7, in an order the workload seed
    shuffles.  A file is about a tenth of a second of work and every file
    comes back dozens of times in a run, so each has its fastest run timed
    at full host speed (see ``run.end_to_end``).  A file met again must give
    byte-identical JSON.
    """

    name = "sweep"
    units = "scenarios (half at 4000, half at 16000 shots)"
    units_per_op = len(SWEEP_SHOTS)

    def setup(self) -> None:
        pd = self.pd
        defaults = pd.default_scenarios()[: 2 if self.toy else N_DEFAULTS]
        self.files = []
        for d in np.random.default_rng([self.seed, 2]).permutation(len(defaults)).tolist():
            sc = defaults[d]
            entries = []
            for shots in SWEEP_SHOTS:
                entry = pd.scenario_to_dict(sc)
                entry.update(name=f"{sc.name}-n{shots}", shots=shots, seed=pd.derive_seed(SWEEP_MASTERS[d], d))
                entries.append(entry)
            path = self.work / f"sweep-{d}.json"
            path.write_text(json.dumps(entries))
            self.files.append(path)
        self.seen: dict[int, bytes] = {}
        # Warm-up: every file once through the same entry point.
        for path in self.files:
            self.pd.cli.main(["experiment", "--config", str(path), "--format", "json", "--out", str(self.work / "sweep-out.json")])

    def n_inputs(self) -> int:
        return len(self.files)

    def op(self, k: int, spans: Path | None):
        out = self.work / "sweep-out.json"
        f = k % len(self.files)
        code = self.pd.cli.main(["experiment", "--config", str(self.files[f]), "--format", "json", "--out", str(out)])
        return f, code, out

    def check(self, k: int, out) -> None:
        f, code, path = out
        require(code == 0, f"exit code {code}")
        data = path.read_bytes()
        first = f not in self.seen
        if not first:
            require(data == self.seen[f], f"{self.files[f].name}: repeated run is not byte-identical")
        reports = json.loads(data)
        require(len(reports) == self.units_per_op, f"{len(reports)} reports, expected {self.units_per_op}")
        errors = []
        for rep in reports:
            for c in COMPONENTS:
                est, exact = rep["estimated"][c], rep["analytic"][c]
                require(_finite(est, exact, rep["estimated"]["residual"]), f"{rep['name']}: non-finite {c}")
                errors.append(abs(est - exact))
                require(errors[-1] <= EST_TOL, f"{rep['name']}: {c} off by {errors[-1]:.4f}")
        if first:  # count each grid point once
            self.seen[f] = data
            self.est_errors.extend(errors)
            for rep in reports:
                self._count_mle(rep["mle_converged"])

    def bytes_out(self, out) -> int:
        return out[2].stat().st_size


class ExactMle(Workload):
    """`mle_reconstruct` on the exact (infinite-shot) records of one seeded
    random pure state, every op the same state.

    Nearly every state needs the whole iteration budget, but a few in a
    hundred stop early (some after a third of it).  With one state per run
    every op is the same work, so the fastest op is not simply the state that
    happened to stop earliest, and only those few seeds read low.
    """

    name = "exact-mle"
    units = "reconstructions"

    def setup(self) -> None:
        pd = self.pd
        state = pd.random_two_path_state(np.random.default_rng([self.seed, 3]))
        rho = pd.to_density_matrix(state)
        self.psi = pd.state_vector(state)
        self.records = [pd.exact_record(rho, m) for m in pd.NONTRIVIAL_SETTINGS]
        self.max_iter = {"max_iter": 200} if self.toy else {}
        self.op(0, None)  # warm-up

    def n_inputs(self) -> int:
        return 1

    def op(self, k: int, spans: Path | None):
        return self.pd.mle_reconstruct(self.records, **self.max_iter)

    def check(self, k: int, out) -> None:
        rho = np.asarray(out.rho_hat.matrix)
        require(rho.shape == (4, 4) and np.all(np.isfinite(rho)), "rho_hat is not a finite 4 x 4 matrix")
        require(np.max(np.abs(rho - rho.conj().T)) <= TRACE_TOL, "rho_hat is not Hermitian")
        require(abs(np.trace(rho) - 1.0) <= TRACE_TOL, "rho_hat does not have unit trace")
        require(np.linalg.eigvalsh(rho)[0] >= -PSD_TOL, "rho_hat is not positive semidefinite")
        infidelity = 1.0 - float(np.vdot(self.psi, rho @ self.psi).real)
        require(-PSD_TOL <= infidelity <= EXACT_INFIDELITY_TOL, f"infidelity {infidelity:.3e}")
        self.infidelities.append(infidelity)
        self._count_mle(out.converged)


class Analytic(Workload):
    """Closed-form traffic of criteria 1, 3 and 5: no sampling, no MLE.

    One op is a bundle of four random states, one each of d = 2, 3, 4 and 5,
    so every op runs every code path once and costs about the same; the
    fastest op of a run then still covers the d = 2 concurrence routes.
    """

    name = "analytic"
    units = "states (one each of d = 2, 3, 4, 5 per op)"
    units_per_op = len(ANALYTIC_DIMS)
    POOL = 64

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        n = 16 if self.toy else self.POOL
        self.pool = [[self.pd.random_two_path_state(rng, dim=d) for d in ANALYTIC_DIMS] for _ in range(n)]
        for k in range(20):  # warm-up
            self.op(k, None)

    def n_inputs(self) -> int:
        return len(self.pool)

    def op(self, k: int, spans: Path | None):
        pd = self.pd
        outs = []
        for state in self.pool[k % len(self.pool)]:
            triple = pd.vdc_triple(state)
            fit = pd.fit_fringe(pd.fringe_scan(state))
            if state.dim != 2:
                outs.append((triple, fit, None, None))
                continue
            schmidt = pd.concurrence_pure(pd.schmidt_decompose(state))
            wootters = pd.wootters_concurrence(pd.to_density_matrix(state))
            outs.append((triple, fit, schmidt, wootters))
        return outs

    def check(self, k: int, out) -> None:
        require(len(out) == len(ANALYTIC_DIMS), f"{len(out)} results, expected {len(ANALYTIC_DIMS)}")
        for triple, fit, schmidt, wootters in out:
            require(abs(triple.residual) < RESIDUAL_TOL, f"|residual| = {abs(triple.residual):.3e}")
            v_err = abs(fit.v_hat - triple.visibility)
            require(v_err < ROUTE_TOL, f"exact-scan V off by {v_err:.3e}")
            if schmidt is not None:
                routes = (triple.concurrence, schmidt, wootters)
                spread = max(routes) - min(routes)
                require(spread < ROUTE_TOL, f"concurrence routes disagree by {spread:.3e}")


WORKLOADS = {w.name: w for w in (CliDefaults, Sweep, ExactMle, Analytic)}
