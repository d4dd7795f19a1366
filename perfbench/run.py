"""photon-duality benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): cli-defaults, sweep, exact-mle,
analytic.  The library is imported from ``src/`` next to this directory;
nothing needs installing.  Every operation's output is checked; a failed
check counts the operation as failed.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
(``END_TO_END``; median, tail and throughput are printed beside them).
With ``--trace 1`` every other operation runs under the tracer and the run
reports the per-layer metrics, including the tracing overhead (traced
against untraced median operation time).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it print every metric by name and unit,
the accuracy figures, and the machine; a copy with everything goes to
``.perfbench/results/``, and a traced run's spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, child_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# The end-to-end metrics of the JSON result, as BENCHMARK.json lists them.  The
# shared host's speed swings by up to 2x from one minute to the next, which
# moves a run's median and tail op times by far more than any bound, while the
# fastest run of a short, repeated op (the best-of-N convention of ``timeit``)
# holds still.  Median, tail and throughput are printed beside them.
END_TO_END = ("setup_s", "op_s_min", "peak_rss_mb")
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # samples a reported percentile must have beyond it


def import_library():
    if not (SRC / "photon_duality" / "__init__.py").is_file():
        raise SystemExit(f"error: photon_duality source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import photon_duality
    import photon_duality.cli

    if Path(photon_duality.__file__).resolve().parent != (SRC / "photon_duality").resolve():
        raise SystemExit(f"error: photon_duality was imported from {photon_duality.__file__}, not {SRC}")
    return photon_duality


def fresh_interpreter_s(code: str) -> float:
    """Wall time of a new interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(SRC), check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def machine(pd) -> dict:
    import importlib.util

    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "src_lines": src_lines,
        "library": pd.__version__,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of p90, or of the highest percentile the sample
    count supports when fewer than TAIL_BEYOND samples lie beyond p90."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, min(math.ceil(0.9 * n) - 1, n - TAIL_BEYOND - 1))
    return ordered[k], 100.0 * (k + 1) / n


def run_loop(wl, seconds: float, tracer, work: Path, min_ops: int = 1) -> dict:
    """Closed loop, one client: ops back to back until ``seconds`` have passed
    and at least ``min_ops`` ops have run.

    Untraced, op i runs input i.  Traced, ops 2j and 2j+1 both run input j,
    one with the tracer and one without, in alternating order, so the pair
    gives the tracing overhead on identical work.
    """
    plain, traced = array("d"), array("d")  # op seconds, kept compact: they count in peak RSS
    plain_k = array("q")  # input index of each untraced op
    ratios, errors = [], []
    failed = completed = bytes_out = 0
    pair: dict[bool, float] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k, spans = i, None
        if tracer is not None:
            k = i // 2
            if i % 2 != k % 2:
                tracer.op = i
                spans = work / f"spans-{i}.npz"
                tracer.install()
        start = time.perf_counter()
        try:
            out = wl.op(k, spans)
            error = None
        except Exception:  # an op that raises is a failed op, and the loop goes on
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if spans is not None:
            tracer.uninstall()
            if spans.is_file():
                tracer.merge(spans, i)
                spans.unlink()
        if spans is None:
            plain.append(elapsed)
            plain_k.append(k)
        else:
            traced.append(elapsed)
        if tracer is not None:
            pair[spans is not None] = elapsed
            if i % 2 == 1:
                ratios.append(pair[True] / pair[False])
        if error is None:
            try:
                wl.check(k, out)
                bytes_out += wl.bytes_out(out)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is None:
            completed += 1
        else:
            failed += 1
            errors.append(f"op {i}: {error.strip()}")
        i += 1
        if time.perf_counter() >= deadline and i >= min_ops and (tracer is None or i % 2 == 0):
            break
    try:
        wl.finish()
    except Exception:
        failed += 1
        completed -= 1
        errors.append(f"whole-run check: {traceback.format_exc(limit=3).strip()}")
    return {
        "attempted": i,
        "failed": failed,
        "completed": completed,
        "plain": plain,
        "plain_k": plain_k,
        "traced": traced,
        "ratios": ratios,
        "bytes_out": bytes_out,
        "errors": errors,
    }


def fastest_per_input(wl, res: dict) -> list[float]:
    """The fastest untraced op of each input the run met."""
    n = wl.n_inputs()
    best: dict[int, float] = {}
    for k, t in zip(res["plain_k"], res["plain"]):
        best[k % n] = min(t, best.get(k % n, math.inf))
    return list(best.values())


def end_to_end(wl, res: dict, setup_s: float) -> tuple[dict, dict]:
    times = res["plain"]
    best = fastest_per_input(wl, res)
    tail_s, tail_pct = tail(times)
    rusage = resource.RUSAGE_CHILDREN if wl.in_child else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_min": (statistics.fmean(best), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": (res["completed"] * wl.units_per_op / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_s_min": f"mean over {len(best)} inputs of each one's fastest op; {len(times)} ops",
        "op_s_tail": f"p{tail_pct:.0f} of {len(times)} samples",
        "ops_per_s": f"{wl.units} per second, {wl.units_per_op} per op",
        "setup_s": f"median of {SETUP_REPEATS} set-ups: fresh-interpreter import + inputs + warm-up",
    }
    return metrics, notes


def per_layer(wl, tracer, res: dict, import_s: float) -> dict:
    n = max(1, len(res["traced"]))
    incl, calls, layer_self, top = tracer.totals()
    kernels_s = layer_self["_kernels"]
    iterations = sum(it for it, _ in tracer.mle)
    m = {
        "cli.main_s": (incl.get("cli.main", 0.0), "s/op"),
        "cli.self_s": (layer_self["cli"], "s/op"),
        "scenarios.load_s": (incl.get("scenarios.load_scenarios", 0.0), "s/op"),
        "scenarios.load.calls": (calls.get("scenarios.load_scenarios", 0), "count/op"),
        "scenarios.self_s": (layer_self["scenarios"], "s/op"),
        "pipeline.run_pipeline.calls": (calls.get("pipeline.run_pipeline", 0), "count/op"),
        "pipeline.render_s": (tracer.outermost_s(["pipeline.emit_report", "pipeline.render_report"]), "s/op"),
        "pipeline.self_s": (layer_self["pipeline"], "s/op"),
        "interferometer.fringe_scan_s": (incl.get("interferometer.fringe_scan", 0.0), "s/op"),
        "interferometer.sample_fringe_scan_s": (incl.get("interferometer.sample_fringe_scan", 0.0), "s/op"),
        "interferometer.fit_fringe_s": (incl.get("interferometer.fit_fringe", 0.0), "s/op"),
        "interferometer.self_s": (layer_self["interferometer"], "s/op"),
        "metrics.vdc_triple_s": (incl.get("metrics.vdc_triple", 0.0), "s/op"),
        "metrics.vdc_triple.calls": (calls.get("metrics.vdc_triple", 0), "count/op"),
        "metrics.self_s": (layer_self["metrics"], "s/op"),
        "states.to_density_matrix_s": (incl.get("states.to_density_matrix", 0.0), "s/op"),
        "states.wootters_concurrence_s": (incl.get("states.wootters_concurrence", 0.0), "s/op"),
        "states.wootters_concurrence.calls": (calls.get("states.wootters_concurrence", 0), "count/op"),
        "states.self_s": (layer_self["states"], "s/op"),
        "seeding.derive_seed_s": (incl.get("seeding.derive_seed", 0.0), "s/op"),
        "seeding.derive_seed.calls": (calls.get("seeding.derive_seed", 0), "count/op"),
        "seeding.self_s": (layer_self["seeding"], "s/op"),
        "tomography.mle_reconstruct_s": (incl.get("tomography.mle_reconstruct", 0.0), "s/op"),
        "tomography.mle_setup_s": (incl.get("tomography.mle_reconstruct", 0.0) - kernels_s, "s/op"),
        "tomography.sample_counts_s": (incl.get("tomography.sample_counts", 0.0), "s/op"),
        "tomography.sample_counts.calls": (calls.get("tomography.sample_counts", 0), "count/op"),
        "tomography.estimate_vdc_s": (incl.get("tomography.estimate_vdc_from_rho", 0.0), "s/op"),
        "tomography.self_s": (layer_self["tomography"], "s/op"),
        "kernels.mle_loop_s": (kernels_s, "s/op"),
        "kernels.iterations": (iterations, "count/op"),
        "untraced.self_s": (sum(res["traced"]) - top, "s/op"),
        "trace.spans": (len(tracer.start), "count/op"),
    }
    metrics = {name: (value / n, unit) for name, (value, unit) in m.items()}
    metrics.update(
        {
            "kernels.us_per_iter": (1e6 * kernels_s / iterations if iterations else 0.0, "us"),
            "kernels.converged_frac": (sum(c for _, c in tracer.mle) / len(tracer.mle) if tracer.mle else 0.0, "frac"),
            "pipeline.bytes_out": (res["bytes_out"] / max(1, res["attempted"]), "B/op"),
            "import.self_s": (import_s, "s"),
            "trace.overhead_frac": (statistics.median(res["ratios"]) - 1.0, "frac"),
            "trace.absent": (len(tracer.absent), "count"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pd = import_library()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](pd, work, args.seed)
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = fresh_interpreter_s("import photon_duality")
            start = time.perf_counter()
            wl.setup()
            setups.append(import_s + time.perf_counter() - start)
        tracer = Tracer() if args.trace else None
        res = run_loop(wl, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = machine(pd)
    notes = {}
    if tracer is None:
        metrics, notes = end_to_end(wl, res, statistics.median(setups))
        reported = {name: metrics[name] for name in END_TO_END}
    else:
        diffs = [fresh_interpreter_s("import photon_duality") - fresh_interpreter_s("pass") for _ in range(IMPORT_REPEATS)]
        metrics = per_layer(wl, tracer, res, statistics.median(diffs))
        reported = metrics
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz")
    accuracy = wl.accuracy()
    accuracy["failed_frac"] = (res["failed"] / res["attempted"], "frac")

    print(f"photon-duality benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed ({len(res['plain'])} untraced, {len(res['traced'])} traced)")
    for name, (value, unit) in {**metrics, **accuracy}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:.6g} {unit}{note}")
    if tracer is not None and tracer.absent:
        print("absent wrap targets: " + ", ".join(tracer.absent))
    for error in res["errors"][:5]:
        print(error, file=sys.stderr)

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        **result,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "printed": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if name not in reported},
        "notes": notes,
        "accuracy": {name: {"value": v, "unit": u} for name, (v, u) in accuracy.items()},
        "machine": info,
        "absent": tracer.absent if tracer is not None else [],
    }
    (OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
