"""One benchmark process: imports wlmf from the checkout's ``src`` and runs a
workload in process. Started by ``run.py``, which reads the JSON object this
prints as its last line.

Modes:
  --setup-only  import the package, resolve the spec, report the time since
                ``--t0`` (a ``time.monotonic`` stamp taken by the parent just
                before it started this interpreter) and exit.
  --env         print the environment record and exit.
  (default)     the same set-up, then timed ``run_experiment`` calls until
                ``--seconds`` would be exceeded; every run's outputs checked.
  --trace       the same set-up, the kernel block, then two traced runs
                between two untraced ones; prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from runs import Runs
from workloads import WORKLOADS, cli_args

ROOT = Path(__file__).resolve().parent.parent

# The function each experiment's trial loop drives; a traced run that
# records none of its calls has lost spans.
DRIVER = {
    "gain-bias": "filters.snr_gain",
    "cnn-train": "cnn.predict_proba",
}
THREAD_VARIABLE_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO")


def _import_package(workload, seed: int, out_dir: Path):
    import wlmf
    from wlmf.experiments import ExperimentSpec

    if Path(wlmf.__file__).resolve().parent != ROOT / "src" / "wlmf":
        raise SystemExit(f"imported wlmf from {wlmf.__file__}, not from the checkout's src/")
    return ExperimentSpec.with_defaults(
        workload.experiment, seed=seed, workers=workload.workers, out_dir=str(out_dir)
    )


def environment(seed: int) -> dict:
    """Machine and library record; reads the thread settings, sets none."""
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    config = np.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "thread_variables": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_VARIABLE_PREFIXES)
        },
        "git_commit": commit,
        "seed": seed,
    }


def _run_once(workload, spec, workers: int | None = None) -> float:
    """One experiment run through the public entry point; returns seconds.

    ``workers`` overrides the workload's worker count (CLI workload only).
    """
    if workload.cli:
        from wlmf.cli import main

        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(cli_args(workload, spec.seed, spec.out_dir, workers))
        elapsed = time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"wlmf-run exited with status {status}")
        return elapsed
    from wlmf.experiments import run_experiment

    start = time.perf_counter()
    run_experiment(spec)
    return time.perf_counter() - start


def _runs(workload, spec) -> Runs:
    """Checked runs of the workload. With several workers, an untimed serial
    run comes first, so every timed run must reproduce its bytes."""
    runs = Runs(lambda: _run_once(workload, spec), workload.experiment, spec.seed, Path(spec.out_dir))
    if workload.workers > 1:
        runs.serial_first(lambda: _run_once(workload, spec, workers=1))
    return runs


def measure(workload, spec, seconds: float) -> dict:
    runs = _runs(workload, spec)
    runs.closed_loop(seconds)
    return runs.report()


def expected_calls(workload, spec) -> dict[str, int]:
    """Call counts the seed commit's code makes at this spec.

    One ``snr_gain`` per trial, three ``hermitian_solve`` per ``snr_gain``;
    for the CNN, one ``predict_proba`` per holdout sample per evaluation and
    one ``apply_filter_sequence`` per channel per forward pass. Later
    implementations may legitimately change these, so a mismatch is
    reported, not counted as a failure.
    """
    if workload.experiment == "gain-bias":
        trials = len(spec.rho_u) * len(spec.filter_len) * spec.trials
        return {"filters.snr_gain": trials, "linalg.hermitian_solve": 3 * trials}
    from wlmf.cnn import CnnConfig

    config = CnnConfig()
    steps = config.epochs * config.realizations_per_epoch
    predictions = steps // config.eval_every * config.holdout_size
    return {
        "cnn.predict_proba": 2 * predictions,
        "filters.apply_filter_sequence": 2 * config.channels * (steps + predictions),
        "linalg.hermitian_solve": 0,
    }


def _layer_metrics(summaries: list[dict], traced_s: list[float]) -> dict[str, dict]:
    """Per-layer metrics of the two traced runs.

    Time spent in a function is reported as a share of the traced run's wall
    time (``traced_run_s``), so a function that a workload never calls reads
    0 as a ratio rather than as a constant time.
    """
    from tracer import COUNTERS, DISTINCT, RUNNERS, TARGETS

    first = summaries[0]
    timed = [(s, t) for s, t in zip(summaries, traced_s) if t]

    def share(kind: str, *names: str) -> float:
        if not timed:
            return 0.0
        return statistics.fmean(sum(s[kind].get(n, 0.0) for n in names) / t for s, t in timed)

    metrics = {}
    for layer, functions in TARGETS.items():
        if layer == "experiments":
            continue
        for fn in functions:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
            metrics[f"{name}.self_share"] = (share("self_s", name), "ratio")
    for name, (counter, _) in COUNTERS.items():
        unit = "B" if counter == "bytes_written" else "count"
        metrics[f"{name}.{counter}"] = (first["counters"].get(f"{name}.{counter}", 0), unit)
    for name in DISTINCT:
        calls = first["calls"].get(name, 0)
        ratio = first["distinct"].get(name, 0) / calls if calls else 0.0
        metrics[f"{name}.distinct_ratio"] = (ratio, "ratio")
    train = share("total_s", "cnn.train")
    metrics["cnn.holdout_share"] = (share("total_s", "cnn.predict_proba") / train if train else 0.0, "ratio")
    metrics["experiments.run_experiment.self_share"] = (
        share("self_s", "experiments.run_experiment"),
        "ratio",
    )
    runners = (f"experiments.{fn}" for fn in RUNNERS)
    metrics["experiments.runner.self_share"] = (share("self_s", *runners), "ratio")
    metrics["traced_run_s"] = (statistics.fmean(t for _, t in timed) if timed else 0.0, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _lost_spans(workload, summaries: list[dict]) -> list[str]:
    """Structural checks of the traced runs, independent of exact counts:
    the experiment's driver function was traced, and with several workers
    the pool workers wrote spans of their own."""
    driver = DRIVER[workload.experiment]
    problems = []
    for index, summary in enumerate(summaries, start=1):
        if not summary["calls"].get(driver):
            problems.append(f"traced run {index} recorded no {driver} calls")
        if workload.workers > 1 and summary["processes"] < 2:
            problems.append(f"traced run {index} holds no spans from pool workers")
    return problems


def trace(workload, spec, trace_dir: Path) -> dict:
    """Kernel block, then runs in the order untraced, traced, traced,
    untraced (after the serial run, with several workers), so that a steady
    drift in machine speed cancels out of ``trace_overhead_s``."""
    from kernels import kernel_metrics
    from tracer import Tracer, summarize

    kernels = kernel_metrics(spec.seed)
    runs = _runs(workload, spec)
    untraced = [runs.run()]
    tracer = Tracer()
    missing = tracer.install()
    summaries, traced = [], []
    for index in (1, 2):
        run_dir = trace_dir / f"run-{index}"
        tracer.start_run(run_dir)
        traced.append(runs.run())
        tracer.dump()
        summaries.append(summarize(run_dir))
    tracer.uninstall()
    untraced.append(runs.run())
    result = runs.report()
    deterministic = all(
        summaries[0][kind] == summaries[1][kind] for kind in ("calls", "counters", "distinct")
    )
    if not deterministic:
        result["problems"].append("the two traced runs differ in call counts or counters")
    lost = _lost_spans(workload, summaries)
    result["problems"] += lost
    result["consistent"] = deterministic and not lost
    metrics = _layer_metrics(summaries, traced)
    times = untraced + traced
    overhead = statistics.fmean(traced) - statistics.fmean(untraced) if None not in times else float("nan")
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    metrics.update({k: {"value": v, "unit": "us"} for k, v in kernels.items()})
    count_report = {
        name: {"expected": want, "observed": summaries[0]["calls"].get(name, 0)}
        for name, want in expected_calls(workload, spec).items()
    }
    result.update(
        metrics=metrics,
        count_report=count_report,
        missing_targets=missing,
        untraced_run_s=untraced,
        traced_run_s=traced,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--t0", type=float, help="parent's time.monotonic() at start")
    parser.add_argument("--seconds", type=float, help="measuring time of the default mode")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--env", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.env:
        print(json.dumps(environment(args.seed)))
        return 0
    if args.workload is None or args.out_dir is None or args.t0 is None:
        parser.error("--workload, --out-dir and --t0 are required")
    if not (args.setup_only or args.trace or args.seconds):
        parser.error("--seconds is required")
    workload = WORKLOADS[args.workload]
    spec = _import_package(workload, args.seed, args.out_dir / "out")
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = trace(workload, spec, args.out_dir / "trace")
    else:
        result = measure(workload, spec, args.seconds)
        result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
