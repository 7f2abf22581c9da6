"""The benchmark's workloads: which experiment each runs, and how.

Shared by the orchestrator (``run.py``) and the in-process worker
(``worker.py``); standard library only. The reason each workload exists is
in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    # The CLI workload runs ``python -m wlmf`` as a fresh subprocess per run;
    # the other calls ``wlmf.experiments.run_experiment`` in one process.
    cli: bool
    workers: int
    item_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cnn-train",
            experiment="cnn-train",
            cli=False,
            workers=1,
            item_unit="steps",
        ),
        Workload(
            name="cli-parallel",
            experiment="gain-bias",
            cli=True,
            workers=2,
            item_unit="windows",
        ),
    )
}


def cli_args(workload: Workload, seed: int, out_dir: str, workers: int | None = None) -> list[str]:
    """Arguments of ``python -m wlmf`` (that is, ``wlmf-run``) for a CLI run;
    ``workers`` overrides the workload's worker count."""
    return [
        "--experiment",
        workload.experiment,
        "--seed",
        str(seed),
        "--workers",
        str(workload.workers if workers is None else workers),
        "--out-dir",
        out_dir,
    ]
