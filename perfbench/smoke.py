"""Smoke check of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload at toy size, untraced and traced, and requires every op
to pass its check.  Then feeds deliberately corrupted outputs (a CSV with a
dropped column, a CSV that differs from its same-seed twin, a sweep report
off by more than the tolerance, a non-physical MLE state) and requires each
check to trip and the op to be counted as failed.  Exits non-zero on any
failure.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, require


class Corrupting:
    """Wraps a workload so that op ``bad`` hands a corrupted output to the check."""

    def __init__(self, wl, bad: int, corrupt):
        self.wl, self.bad, self.corrupt = wl, bad, corrupt
        self.name, self.units_per_op = wl.name, wl.units_per_op

    def op(self, k, spans):
        out = self.wl.op(k, spans)
        return self.corrupt(out) if k == self.bad else out

    def __getattr__(self, attr):
        return getattr(self.wl, attr)


# Each corruption takes an op's output and returns the corrupted output.
def drop_column(out):
    path = out[3]
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[:-1]) + "\n" for line in lines))
    return out


def flip_last_digit(out):
    path = out[3]
    head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
    path.write_text(head + "\n" + last[:-1] + str((int(last[-1]) + 1) % 10) + "\n")
    return out


def shift_visibility(out):
    path = out[2]
    reports = json.loads(path.read_text())
    reports[0]["estimated"]["visibility"] += 0.2
    path.write_text(json.dumps(reports))
    return out


def double_trace(out):
    object.__setattr__(out.rho_hat, "matrix", 2.0 * out.rho_hat.matrix)
    return out


def nudge_wootters(out):
    return [(t, f, s, None if w is None else w + 1e-6) for t, f, s, w in out]


def main() -> int:
    pd = run.import_library()
    work = run.OUT / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            for traced in (False, True):
                wl = cls(pd, work, seed=7, toy=True)
                wl.setup()
                res = run.run_loop(wl, 0.0, Tracer() if traced else None, work, min_ops=2)
                require(res["failed"] == 0, f"{name} (traced={traced}): {res['errors']}")
                print(f"ok   {name:<13} traced={traced!s:<5} {res['attempted']} ops")

        corruptions = [
            ("cli-defaults", 0, drop_column, "dropped CSV column"),
            ("cli-defaults", 2, flip_last_digit, "same-seed output differs"),
            ("sweep", 0, shift_visibility, "V_est off by 0.2"),
            ("exact-mle", 0, double_trace, "rho_hat with trace 2"),
            ("analytic", 0, nudge_wootters, "concurrence routes 1e-6 apart"),
        ]
        for name, bad, corrupt, what in corruptions:
            wl = WORKLOADS[name](pd, work, seed=7, toy=True)
            wl.setup()
            res = run.run_loop(Corrupting(wl, bad, corrupt), 0.0, None, work, min_ops=bad + 2)
            tripped = res["failed"] >= 1 and any(CheckFailed.__name__ in e for e in res["errors"])
            require(tripped, f"{name}: corrupted output ({what}) was not caught: {res}")
            frac = res["failed"] / res["attempted"]
            print(f"ok   {name:<13} corrupted ({what}) caught, failed_frac = {frac:.3g}")
    except CheckFailed as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
