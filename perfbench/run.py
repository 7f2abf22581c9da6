"""wlmf benchmark: experiment workloads timed end to end, and a traced run
with a per-module breakdown.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload cnn-train --seed 1234 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced

``--trace 0`` prints the end-to-end metrics (setup_s, run_s, items_per_s,
peak_rss_mb); ``--trace 1`` prints the per-layer metrics of a separate traced
run. Each metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Outputs go to
``.bench_build/perfbench/<workload>/``. Nothing here sets a thread or BLAS
variable; the environment record shows the ones found. See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from runs import Runs
from workloads import DEFAULT_SEED, WORKLOADS, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def run_child(cmd: list[str], capture: bool = True) -> tuple[bytes, float, float]:
    """Run a process to its end; returns (stdout, wall seconds, peak RSS in MB).

    The peak RSS comes from ``wait4``, so it covers the process and the
    children it waited for (the package's pool workers).
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        start_new_session=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - start
    finally:
        timer.cancel()
        if capture:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:4])}... exited with status {proc.returncode}")
    return out, elapsed, usage.ru_maxrss / 1024.0


def _worker(workload: str, seed: int, out_dir: Path, *flags: str) -> tuple[dict, float, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out-dir", str(out_dir), "--t0", repr(time.monotonic()), *flags]
    out, elapsed, rss = run_child(cmd)
    return json.loads(out.decode().strip().splitlines()[-1]), elapsed, rss


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    if workload.cli:
        # Set-up of the CLI: a fresh `wlmf-run --help`, which imports the
        # same modules and exits.
        help_cmd = [sys.executable, "-m", "wlmf", "--help"]
        setup = [run_child(help_cmd, capture=False)[1] for _ in range(SETUP_SAMPLES)]
        peaks = []

        def run_once(workers: int | None = None) -> float:
            args = cli_args(workload, seed, str(out_dir / "out"), workers)
            _, elapsed, rss = run_child([sys.executable, "-m", "wlmf", *args], capture=False)
            if workers is None:
                peaks.append(rss)
            return elapsed

        runs = Runs(run_once, workload.experiment, seed, out_dir / "out")
        runs.serial_first(lambda: run_once(workers=1))
        runs.closed_loop(seconds)
        result = runs.report()
        peak = max(peaks, default=float("nan"))
    else:
        # The measuring worker is itself one fresh-interpreter set-up sample.
        setup = [
            _worker(name, seed, out_dir, "--setup-only")[0]["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result, _, peak = _worker(name, seed, out_dir, "--seconds", str(seconds))
        setup.append(result["setup_s"])
    run_s = statistics.median(result["run_s"]) if result["run_s"] else float("nan")
    n = len(result["run_s"])
    result["metrics"] = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(run_s, "s"),
        "items_per_s": _metric(result["items"] / run_s, "1/s"),
        "peak_rss_mb": _metric(peak, "MB"),
    }
    result["samples"] = {
        "setup_s": f"median of {len(setup)}" + (" wlmf-run --help" if workload.cli else ""),
        "run_s": f"median of {n}: " + " ".join(f"{t:.3f}" for t in result["run_s"]),
        "items_per_s": f"{result['items']} {workload.item_unit} per run / run_s",
        "peak_rss_mb": f"peak over {'the ' + str(n) + ' CLI runs' if workload.cli else 'the worker'}",
    }
    return result


def _layer_sample_note(name: str, unit: str) -> str:
    if name.startswith("kernel."):
        return "median of 7 timed batches"
    if unit in ("count", "B") or name.endswith(".distinct_ratio"):
        return "traced run 1 (run 2 must match)"
    return "mean of 2 traced runs"


def traced(name: str, seed: int, out_dir: Path) -> dict:
    result = _worker(name, seed, out_dir, "--trace")[0]
    result["samples"] = {k: _layer_sample_note(k, m["unit"]) for k, m in result["metrics"].items()}
    untraced = result["untraced_run_s"]
    order = [untraced[0], *result["traced_run_s"], untraced[1]]
    result["samples"]["trace_overhead_s"] = "untraced, traced, traced, untraced: " + " ".join(
        "failed" if t is None else f"{t:.3f}" for t in order
    )
    return result


def _print_result(result: dict) -> None:
    for key, metric in result["metrics"].items():
        note = result["samples"].get(key, "")
        print(f"  {key:<48} {metric['value']:>16.6g} {metric['unit']:<6} {note}")
    for name, report in result.get("count_report", {}).items():
        same = report["expected"] == report["observed"]
        print(
            f"  calls {name}: {report['observed']} (seed commit: {report['expected']}; "
            f"{'same' if same else 'differs, reported only'})"
        )
    for target in result.get("missing_targets", []):
        print(f"  not traced: {target} is not in the package")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  runs attempted {result['attempted']}, failed {result['failed']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = WORK_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result = traced(name, seed, out_dir) if trace else end_to_end(name, seed, seconds, out_dir)
    print(f"{name} (seed {seed}, {'traced' if trace else 'untraced'}):")
    _print_result(result)
    return {
        "correct": result["failed"] == 0 and result["attempted"] >= 1 and result.get("consistent", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wlmf benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wlmf" / "__init__.py").is_file():
        print(f"no wlmf package under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    try:
        env_cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed), "--env"]
        print("environment:", run_child(env_cmd)[0].decode().strip())
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {
                f"{name}/trace{int(trace)}": run_workload(name, args.seed, args.seconds, trace)
                for name in WORKLOADS
                for trace in (False, True)
            }
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
