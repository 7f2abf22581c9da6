"""Command line front end for the experiment harness.

Usage: ``wlmf-run --experiment gain-bias [flags]`` or
``python -m wlmf --experiment ...``.

Parameters resolve in three layers: per-experiment defaults, then a flat
key-value config file (``--config``), then explicit flags. Config keys match
the long flag names (``rho-u = 0.04, 0.1``). The output directory default
can also come from the ``WLMF_OUT_DIR`` environment variable. Failures are
reported as a one-line JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import _MODES, EXPERIMENTS, ExperimentSpec, run_experiment

__all__ = ["build_parser", "load_config", "resolve_spec", "main"]

ENV_OUT_DIR = "WLMF_OUT_DIR"


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# Long flag name, which is also the config key -> converter from its text and
# help text. Flag values and config lines both arrive as text and go through
# the same converter.
_OPTIONS = {
    "experiment": (str, f"experiment to run: {', '.join(EXPERIMENTS)}"),
    "rho-u": (_float_list, "comma-separated driving-noise impropriety grid, values in [0, 1)"),
    "filter-len": (_int_list, "comma-separated filter lengths"),
    "signal-len": (
        int,
        "input sequence length (gain-bias: draws per trial; "
        "gain-surface: filler length after the matched sequence)",
    ),
    "trials": (int, "Monte Carlo trials per grid cell"),
    "seed": (int, "master seed (default 1234)"),
    "mode": (str, f"covariance source for gain-surface: {' or '.join(_MODES)} "
             "(default: empirical)"),
    "out-dir": (str, f"output directory (default: ${ENV_OUT_DIR} or current directory)"),
    "workers": (int, "parallel workers, one grid point per task (default 1)"),
    "est-len": (int, "noise record length for empirical covariance estimates (default 5000)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlmf-run",
        description=(
            "Run a matched-filter experiment (SNR-gain bias grid, gain surface, "
            "matched-filter demo, CNN training trace, or sequence designer) and "
            "write CSV/JSON outputs plus a reproducibility manifest."
        ),
    )
    for key, (_, help_text) in _OPTIONS.items():
        parser.add_argument(f"--{key}", help=help_text)
    parser.add_argument("--config", help="flat key-value config file; flags override it")
    return parser


def load_config(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge defaults, config file, and flags into a resolved spec."""
    texts = load_config(args.config) if args.config else {}
    for key in _OPTIONS:
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            texts[key] = flag_value
    params = {}
    for key, text in texts.items():
        try:
            params[key.replace("-", "_")] = _OPTIONS[key][0](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    experiment = params.pop("experiment", None)
    if experiment is None:
        raise ValueError("an experiment must be named via --experiment or the config file")
    params.setdefault("out_dir", os.environ.get(ENV_OUT_DIR, "."))
    return ExperimentSpec.with_defaults(experiment, **params)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
        manifest = run_experiment(spec)
        for name in sorted(manifest.digests):
            print(os.path.join(spec.out_dir, name))
        print(os.path.join(spec.out_dir, f"{spec.experiment}-manifest.json"))
        return 0
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
