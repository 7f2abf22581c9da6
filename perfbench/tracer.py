"""Spans around the public functions of each wlmf module.

``Tracer.install`` wraps every function in ``TARGETS`` at each place in the
loaded ``wlmf`` modules that holds it: module globals (the modules import
each other's functions with ``from .x import f``) and dicts held in module
globals (the experiment runner table). Nothing in the package changes on
disk. Each call records a span (id, parent span id, name, start, end) in
memory; ``dump`` writes one process's spans to a directory when a run ends.
Pool workers forked by the package inherit the wrappers and write their own
spans when they exit, so a run's directory holds one file pair per process.

``summarize`` reads a run directory back and returns, per function, the
call count and self time (span time minus the time its direct child spans
cover), plus the counters listed in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from array import array
from pathlib import Path

# The experiment runners are traced so that run_experiment's self time is
# its own merge, write, digest and manifest work.
RUNNERS = ("run_gain_bias", "run_gain_surface", "run_cnn_train")

# Layer (module) -> traced public functions. Layers are named after the
# package's modules.
TARGETS = {
    "linalg": ("hermitian_solve", "takagi", "hermitian_eig", "is_positive_definite"),
    "noise": (
        "analytic_covariances",
        "empirical_covariances",
        "sample_improper_white",
        "ma_filter",
        "sliding_windows",
    ),
    "filters": ("snr_gain", "apply_filter_sequence"),
    "impropriety": ("normalized_snr_bias", "aut_decompose", "approx_snr_gain"),
    "cnn": ("train", "forward", "backward", "predict_proba", "make_dataset"),
    "experiments": ("run_experiment", *RUNNERS),
    "cli": ("main",),
}


def _columns(x) -> int:
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


def _bytes_written(args, manifest) -> int:
    out_dir = Path(args[0].out_dir)
    names = [*manifest.digests, f"{args[0].experiment}-manifest.json"]
    return sum((out_dir / name).stat().st_size for name in names)


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# Per-call counters: name -> (counter, function of (args, result) giving an
# int to add). ``distinct`` counters collect keys instead; their ratio to the
# call count is reported as ``<name>.distinct_ratio``.
COUNTERS = {
    "linalg.hermitian_solve": ("rhs_cols", lambda args, out: _columns(args[1])),
    "noise.sliding_windows": ("windows", lambda args, out: int(out.shape[1])),
    "filters.snr_gain": ("windows", lambda args, out: _columns(args[0])),
    "experiments.run_experiment": ("bytes_written", _bytes_written),
}
DISTINCT = {
    "noise.analytic_covariances": lambda args: _digest(
        args[0].taps, args[0].rho_u, args[0].sigma2_u, args[1]
    ),
    "impropriety.aut_decompose": lambda args: _digest(
        args[0].r.tobytes(), args[0].c.tobytes()
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._reset()
        self.out_dir: Path | None = None
        # (holder, key, original): every place install() replaced a function.
        self._patched: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self._next_id = 0
        self._stack: list[int] = []
        self._ids = array("q")
        self._parents = array("q")
        self._name_ix = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._counters: dict[str, int] = {}
        self._keys: dict[str, set[str]] = {}

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        distinct = DISTINCT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._ids.append(span)
                self._parents.append(parent)
                self._name_ix.append(ix)
                self._starts.append(start)
                self._ends.append(end)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self._counters[key] = self._counters.get(key, 0) + counter[1](args, result)
            if distinct is not None:
                self._keys.setdefault(name, set()).add(distinct(args))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target wherever the loaded wlmf modules hold it.

        Returns the targets that were not found (absent from the package).
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {layer: importlib.import_module(f"wlmf.{layer}") for layer in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wlmf" or n.startswith("wlmf.")]
        missing = []
        for layer, functions in TARGETS.items():
            home = homes[layer]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    missing.append(f"{layer}.{fn_name}")
                    continue
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, original))
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapped
                                    self._patched.append((value, key, original))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return missing

    def uninstall(self) -> None:
        """Put every original function back where install() found it."""
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched = []

    def start_run(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self._reset()

    def _after_fork(self) -> None:
        # A forked pool worker starts with no open spans and writes its own
        # file pair when the multiprocessing machinery shuts it down.
        if not self._patched:
            return
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's spans of the current run to ``out_dir``."""
        stem = self.out_dir / f"spans-{os.getpid()}"
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (self._ids, self._parents, self._name_ix, self._starts, self._ends):
                column.tofile(handle)
        meta = {
            "names": self.names,
            "spans": len(self._ids),
            "counters": self._counters,
            "keys": {name: sorted(keys) for name, keys in self._keys.items()},
        }
        stem.with_suffix(".json").write_text(json.dumps(meta))


def summarize(run_dir: Path) -> dict:
    """Per-function calls, self time, inclusive time and counters of one run,
    summed over the processes whose spans are in ``run_dir``, and the number
    of those processes."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    keys: dict[str, set[str]] = {}
    meta_paths = sorted(run_dir.glob("spans-*.json"))
    for meta_path in meta_paths:
        meta = json.loads(meta_path.read_text())
        n = meta["spans"]
        columns = [array("q"), array("q"), array("l"), array("d"), array("d")]
        with open(meta_path.with_suffix(".bin"), "rb") as handle:
            for column in columns:
                column.fromfile(handle, n)
        ids, parents, name_ix, starts, ends = columns
        child_time = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child_time[parents[i]] += ends[i] - starts[i]
        names = meta["names"]
        for i in range(n):
            name = names[name_ix[i]]
            duration = ends[i] - starts[i]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[ids[i]]
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for name, values in meta["keys"].items():
            keys.setdefault(name, set()).update(values)
    return {
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
        "counters": counters,
        "distinct": {name: len(values) for name, values in keys.items()},
        "processes": len(meta_paths),
    }
