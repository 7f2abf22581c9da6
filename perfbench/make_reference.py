"""Write the reference outputs the benchmark's checks compare against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py 1234 7

For each seed this runs gain-bias and cnn-train at their default specs,
serially and in process, and copies the data files into
``perfbench/reference/seed-<n>/``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from check import DATA_FILES, REFERENCE_DIR
from wlmf.experiments import ExperimentSpec, run_experiment

WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench" / "make-reference"


def main(argv: list[str]) -> int:
    for seed in (int(text) for text in argv):
        for experiment in DATA_FILES:
            out_dir = WORK_DIR / f"seed-{seed}" / experiment
            run_experiment(ExperimentSpec.with_defaults(experiment, seed=seed, out_dir=str(out_dir)))
            target = REFERENCE_DIR / f"seed-{seed}"
            target.mkdir(parents=True, exist_ok=True)
            for name in DATA_FILES[experiment]:
                shutil.copyfile(out_dir / name, target / name)
            print(f"seed {seed}: {experiment} written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
