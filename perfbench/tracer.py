"""In-memory call tracing of the photon_duality layers, from outside them.

``Tracer.install()`` replaces every public function of each layer module, at
every module attribute of the package that a caller looks it up by, with a
wrapper that records one span per call: (name, start, end, parent span, op
id).  ``uninstall()`` puts the originals back.  The library itself knows
nothing about tracing, so the same tracer keeps working while the code under
it is rewritten: a named function that has disappeared is recorded as absent
and its metrics read zero.

Spans stay in compact arrays in memory and are written out by ``dump`` (an
``.npz`` file); ``merge`` folds in the spans a traced child process dumped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "photon_duality"
LAYERS = (
    "cli",
    "scenarios",
    "pipeline",
    "interferometer",
    "states",
    "metrics",
    "seeding",
    "tomography",
    "_kernels",
)

# Functions whose own time or call count is a per-layer metric.
NAMED = {
    "cli": ("main",),
    "scenarios": ("load_scenarios",),
    "pipeline": ("run_pipeline", "render_report", "emit_report"),
    "interferometer": ("fringe_scan", "sample_fringe_scan", "fit_fringe"),
    "metrics": ("vdc_triple",),
    "states": ("to_density_matrix", "wootters_concurrence"),
    "seeding": ("derive_seed",),
    "tomography": ("mle_reconstruct", "sample_counts", "estimate_vdc_from_rho"),
    "_kernels": ("mle_loop",),
}
# The MLE result's iteration count and convergence flag are read here.
MLE_FUNCTION = "tomography.mle_reconstruct"


def _layer_functions(layer: str) -> dict:
    """Public functions defined in one layer module ({} if the module is gone)."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
    except ModuleNotFoundError:
        return {}
    return {
        name: obj
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by span name id
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self.mle: list[tuple[int, bool]] = []  # (iterations, converged) per MLE result
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            for name, fn in _layer_functions(layer).items():
                self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        present = set(self.names)
        self.absent = sorted(
            f"{layer}.{name}"
            for layer, names in NAMED.items()
            for name in names
            if f"{layer}.{name}" not in present
        )

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        stack, start, end = self._stack, self.start, self.end
        record_mle = name == MLE_FUNCTION
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if record_mle:
                self.mle.append((int(result.iterations), bool(result.converged)))
            return result

        return traced

    def install(self) -> None:
        """Patch every package module attribute bound to a layer function."""
        if self._patches:
            return
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value, wrapper))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            mle=np.array(self.mle, dtype=np.int64).reshape(-1, 2),
            absent=np.array(self.absent, dtype=str),
        )

    def merge(self, path, op: int) -> None:
        """Append the spans a traced child dumped, as spans of operation ``op``."""
        with np.load(path) as data:
            ids = [self._intern(str(n)) for n in data["names"]]
            offset = len(self.start)
            parent = data["parent"]
            self.name_id.extend(int(ids[k]) for k in data["name_id"])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.op_id.extend([op] * len(parent))
            self.mle.extend((int(it), bool(conv)) for it, conv in data["mle"])

    def outermost_s(self, names) -> float:
        """Seconds in spans of ``names`` that are not nested in another of them."""
        ids = {self.names.index(n) for n in names if n in self.names}
        total = 0.0
        for i, nid in enumerate(self.name_id):
            if nid in ids and (self.parent[i] < 0 or self.name_id[self.parent[i]] not in ids):
                total += self.end[i] - self.start[i]
        return total

    def totals(self) -> tuple[dict, dict, dict, float]:
        """(inclusive seconds per name, calls per name, self seconds per layer,
        seconds covered by top-level spans)."""
        n = len(self.start)
        names = self.names
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(self.start, dtype=np.float64)[:n]
        nid = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        nested = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[nested], dur[nested])
        inclusive = np.bincount(nid, weights=dur, minlength=len(names))
        calls = np.bincount(nid, minlength=len(names))
        self_by_name = np.bincount(nid, weights=dur - child, minlength=len(names))
        layer_self = {layer: 0.0 for layer in LAYERS}
        for k, name in enumerate(names):
            layer_self[name.split(".", 1)[0]] += float(self_by_name[k])
        return (
            {name: float(inclusive[k]) for k, name in enumerate(names)},
            {name: int(calls[k]) for k, name in enumerate(names)},
            layer_self,
            float(dur[~nested].sum()),
        )
