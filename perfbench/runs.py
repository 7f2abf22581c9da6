"""Closed-loop timed runs with their output checks; standard library only."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from check import check_run, item_count, output_bytes

# So that no invocation reports a single run, even when a run is longer
# than half the measuring time.
MIN_RUNS = 2


class Runs:
    """Runs of one workload in one invocation, with their failures.

    ``run_once`` performs one experiment run and returns its wall time in
    seconds. A run counts as failed if it raises, if checking its outputs
    raises (a missing or malformed file), if ``check_run`` finds a problem,
    or if its data files differ from the first checked run's bytes.
    """

    def __init__(self, run_once, experiment: str, seed: int, out_dir: Path):
        self._run_once = run_once
        self._experiment = experiment
        self._seed = seed
        self._out_dir = out_dir
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.problems: list[str] = []
        self._first_output = None
        self._first_label = ""

    def run(self) -> float | None:
        """One timed run, checked; returns its time, or None if it raised."""
        return self._checked(self._run_once, "the first run", timed=True)

    def serial_first(self, run_serial) -> None:
        """An untimed serial (``--workers 1``) run, made before any other:
        every timed run must reproduce its bytes."""
        self._checked(run_serial, "the serial (--workers 1) run", timed=False)

    def _checked(self, run_once, label: str, timed: bool) -> float | None:
        # The first run checked sets the bytes every later run must
        # reproduce; ``label`` names it in the problem message.
        self.attempted += 1
        try:
            elapsed = run_once()
            problems = check_run(self._experiment, self._seed, self._out_dir)
            output = output_bytes(self._experiment, self._out_dir)
            if self._first_output is None:
                self.items = item_count(self._experiment, self._out_dir)
                self._first_output, self._first_label = output, label
            elif output != self._first_output:
                problems.append(f"data files differ in bytes from {self._first_label}")
        except Exception as exc:  # a raising run or check is a failed run, not a crash
            self.failed += 1
            self.problems.append(f"run {self.attempted} failed with {type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
        if timed:
            self.seconds.append(elapsed)
        return elapsed

    def closed_loop(self, seconds: float) -> None:
        """Each run starts when the previous one has ended. After ``MIN_RUNS``
        timed runs, another starts only if a median-length run still ends
        within ``seconds``."""
        start = time.monotonic()
        while True:
            self.run()
            elapsed = time.monotonic() - start
            if self.failed:
                return
            if len(self.seconds) >= MIN_RUNS and elapsed + statistics.median(self.seconds) > seconds:
                return

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
            "run_s": self.seconds,
            "items": self.items,
        }
