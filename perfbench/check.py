"""Output checks behind the benchmark's ``failed`` count.

Every run's CSV/JSON outputs are compared with the references under
``reference/seed-<n>/``, which the seed commit wrote for the default seed
(1234) and for the held-out seed 7. Numeric cells must agree to a relative
tolerance of ``REL_TOL`` (absolute ``ABS_TOL`` near zero); integers and
strings, such as ``first_sustained_iteration``, must match exactly.

For a seed without references the paper's invariants are checked instead:
every value finite, every gain-bias cell >= 0, CNN probabilities in
[0, 1]. In every case the manifest digests must match the files.
``runs.py`` adds the byte-identity checks: each run of one invocation
must write the same bytes as its first, and on ``cli-parallel`` that first
run is an untimed serial (``--workers 1``) run of the same commit, because
README guarantees identical bytes at any ``--workers``.

Standard library only. ``make_reference.py`` writes ``reference/``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-7
ABS_TOL = 1e-12

DATA_FILES = {
    "gain-bias": ("gain-bias.csv",),
    "cnn-train": ("cnn-train.csv", "cnn-train-summary.json"),
}


def _manifest(experiment: str, out_dir: Path) -> dict:
    return json.loads((out_dir / f"{experiment}-manifest.json").read_text())


def output_bytes(experiment: str, out_dir: Path) -> dict[str, bytes]:
    """Data files of one run, by name; the basis of the run-to-run check."""
    return {name: (out_dir / name).read_bytes() for name in DATA_FILES[experiment]}


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode().splitlines()))


def _cell_problem(got: str, want: str) -> str | None:
    if got == want:
        return None
    try:
        g, w = float(got), float(want)
    except ValueError:
        return f"{got!r} != {want!r}"
    if "." not in want and "e" not in want.lower():
        return f"integer {got} != {want}"
    if math.isfinite(g) and math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return None
    return f"{got} != {want} (rel. tol. {REL_TOL:g})"


def _compare_csv(name: str, got: bytes, want: bytes) -> list[str]:
    got_rows, want_rows = _read_csv(got), _read_csv(want)
    if len(got_rows) != len(want_rows):
        return [f"{name}: {len(got_rows)} lines, reference has {len(want_rows)}"]
    for lineno, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        if len(g_row) != len(w_row):
            return [f"{name}:{lineno}: {len(g_row)} cells, reference has {len(w_row)}"]
        for g, w in zip(g_row, w_row):
            problem = _cell_problem(g, w)
            if problem:
                return [f"{name}:{lineno}: {problem}"]
    return []


def _compare_json(path: str, got, want) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from the reference"]
        return [p for k in sorted(want) for p in _compare_json(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list differs in length from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_json(f"{path}[{i}]", g, w)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isfinite(got) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r} (rel. tol. {REL_TOL:g})"]
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _finite(text: str) -> float | None:
    value = float(text)
    return value if math.isfinite(value) else None


def _invariants(experiment: str, spec: dict, files: dict[str, bytes]) -> list[str]:
    problems = []
    if experiment == "gain-bias":
        rows = _read_csv(files["gain-bias.csv"])[1:]
        if len(rows) != len(spec["rho_u"]) * len(spec["filter_len"]):
            problems.append(f"gain-bias.csv: {len(rows)} cells for the spec's grid")
        for row in rows:
            bias = _finite(row[2])
            if bias is None or bias < 0:
                problems.append(f"gain-bias.csv: bias {row[2]} is not finite and >= 0")
    elif experiment == "cnn-train":
        rows = _read_csv(files["cnn-train.csv"])[1:]
        modes = {}
        for row in rows:
            modes[row[1]] = modes.get(row[1], 0) + 1
            p = _finite(row[3])
            if p is None or not 0.0 <= p <= 1.0:
                problems.append(f"cnn-train.csv: probability {row[3]} outside [0, 1]")
        if set(modes) != {"sl", "wl"} or len(set(modes.values())) != 1:
            problems.append(f"cnn-train.csv: steps per mode {modes}")
        summary = json.loads(files["cnn-train-summary.json"])
        for mode in ("sl", "wl"):
            record = summary["modes"][mode]
            first = record["first_sustained_iteration"]
            if first is not None and not isinstance(first, int):
                problems.append(f"summary {mode}: first_sustained_iteration {first!r}")
            for key in ("final_holdout_mean_p1", "final_holdout_mean_p2"):
                if not (math.isfinite(record[key]) and 0.0 <= record[key] <= 1.0):
                    problems.append(f"summary {mode}: {key} = {record[key]!r}")
    return problems[:5]


def check_run(experiment: str, seed: int, out_dir: Path) -> list[str]:
    """Problems found in one run's outputs; an empty list means correct."""
    manifest = _manifest(experiment, out_dir)
    files = output_bytes(experiment, out_dir)
    problems = []
    for name, data in files.items():
        if manifest["digests"].get(name) != hashlib.sha256(data).hexdigest():
            problems.append(f"{name}: manifest digest does not match the file")
    reference = REFERENCE_DIR / f"seed-{seed}"
    if not reference.is_dir():
        return problems + _invariants(experiment, manifest["spec"], files)
    for name, data in files.items():
        want = (reference / name).read_bytes()
        if name.endswith(".csv"):
            problems += _compare_csv(name, data, want)
        else:
            problems += _compare_json(name, json.loads(data), json.loads(want))
    return problems


def item_count(experiment: str, out_dir: Path) -> int:
    """Units of work in one run, from its manifest and outputs.

    gain-bias: filter windows (trials x sum over cells of N - L + 1);
    cnn-train: SGD steps (one trace row each).
    """
    spec = _manifest(experiment, out_dir)["spec"]
    if experiment == "gain-bias":
        per_trial = sum(spec["signal_len"] - length + 1 for length in spec["filter_len"])
        return spec["trials"] * len(spec["rho_u"]) * per_trial
    return len(_read_csv((out_dir / "cnn-train.csv").read_bytes())) - 1
