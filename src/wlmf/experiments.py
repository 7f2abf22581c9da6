"""Seeded, reproducible experiment runs wired to CSV/JSON outputs.

Five experiments are provided:

``gain-bias``
    Normalized bias of the approximate SNR gain against the exact one, on a
    grid of driving-noise impropriety values and filter lengths, averaged
    over independent circular Gaussian input sequences.
``gain-surface``
    SNR gain of the widely linear filter over the strictly linear one as a
    surface over (window position, driving impropriety), with covariances
    either analytic or re-estimated from fresh noise per trial. The probe
    signal embeds a designed matched sequence whose gain minimum sits at
    driving impropriety 0.5.
``mf-demo``
    A matched filter run over an 8-sample signal containing a known feature;
    the strictly and widely linear output moduli and their peaks.
``cnn-train``
    Trains the strictly linear and widely linear convolutional classifiers
    on a shared data stream and records the per-iteration output
    probability traces plus sustained-correctness summaries.
``design-sequence``
    Runs the matched-sequence designer for one noise model and reports the
    decomposition diagnostics and the epsilon round-trip error.

Every run writes its grid outputs as CSV (floats as ``%.12e``), summaries
as JSON, and a manifest, also JSON, recording the resolved parameters, seed
derivation rule, and SHA-256 digests of the output files. One serializer
makes each file's bytes, with ``\n`` line ends on every platform; they are
written once and hashed from memory, so a digest is that of the bytes
written. Identical spec and seed give byte-identical CSV bodies,
independent of the worker count: every trial draws from its own stream
keyed by grid and trial index, and results merge in index order whichever
process computed them (a pool task is one grid point: a gain-bias (rho_u,
L) cell, or a gain-surface rho_u).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cnn import train
from .errors import DimensionMismatchError, InsufficientSamplesError, InvalidParameterError
from .errors import _as_float, _as_int
from .filters import (
    apply_filter_sequence,
    slmf_solve,
    snr_gain,
    template_to_feature,
    wlmf_solve,
)
from .impropriety import (
    aut_decompose,
    design_matched_sequence,
    impropriety_profile,
    normalized_snr_bias,
    rotated_input,
)
from .linalg import _blas_threads, _set_blas_threads
from .noise import (
    CovariancePair,
    analytic_covariances,
    demo_model,
    empirical_covariances,
    ma_filter,
    sample_improper_white,
    sliding_windows,
)
from .seeding import DERIVATION_RULE, derive_rng

__all__ = [
    "EXPERIMENTS",
    "DEFAULT_RHO_GRID",
    "DEMO_TEMPLATE",
    "DEMO_MATCHED_SEQUENCE",
    "ExperimentSpec",
    "RunManifest",
    "run_gain_bias",
    "run_gain_surface",
    "run_mf_demo",
    "run_cnn_train",
    "run_design_sequence",
    "run_experiment",
]

DEFAULT_RHO_GRID = (0.04, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

# Matched-filter demo template and the length-6 matched sequence designed so
# its rotated power-difference profile meets the gain lower-bound condition
# of the two-tap demo noise model at driving impropriety 0.5.
DEMO_TEMPLATE = np.array([-0.1 + 1j, 1.0 + 1j, -0.5 + 1j])
DEMO_MATCHED_SEQUENCE = np.array(
    [
        0.77 + 0.13j,
        0.71 + 0.25j,
        -0.91 - 0.33j,
        -0.87 - 0.07j,
        -1.65 - 0.62j,
        0.74 + 0.27j,
    ]
)

# Fixed spawn-key stream ids; cnn training derives its own streams (0..2)
# from the master seed inside train().
_STREAM_GAIN_BIAS = 10
_STREAM_GAIN_SURFACE = 11
_STREAM_SURFACE_FILLER = 12
_STREAM_MF_DEMO = 13
_STREAM_DESIGN = 14

_STREAM_NOTE = (
    f"streams: gain-bias=({_STREAM_GAIN_BIAS}, rho_index, len_index, trial); "
    f"gain-surface=({_STREAM_GAIN_SURFACE}, rho_index, trial); "
    f"surface-filler=({_STREAM_SURFACE_FILLER},); mf-demo=({_STREAM_MF_DEMO},); "
    f"design-sequence=({_STREAM_DESIGN},); cnn-train uses (0|1|2) inside train()"
)

# Covariance sources of gain-surface: exact, or estimated from a noise record.
_MODES = ("analytic", "empirical")

# Where an experiment's defaults differ from the ExperimentSpec field defaults.
_DEFAULTS = {
    "gain-bias": {
        "rho_u": DEFAULT_RHO_GRID,
        "filter_len": (4, 6, 8),
        "signal_len": 10_000,
        "trials": 5,
    },
    "gain-surface": {
        "rho_u": DEFAULT_RHO_GRID,
        "filter_len": (6,),
        "signal_len": 100,
        "trials": 200,
        "mode": "empirical",
    },
    "design-sequence": {"rho_u": (0.5,), "filter_len": (6,), "signal_len": 6},
}

# Grid keys an experiment sweeps; every other experiment reads only the first
# value, so it takes exactly one.
_SWEPT = {"gain-bias": ("rho_u", "filter_len"), "gain-surface": ("rho_u",)}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved parameters of one experiment run; a value outside its
    range raises ``InvalidParameterError``."""

    experiment: str
    rho_u: tuple[float, ...] = (0.0,)
    filter_len: tuple[int, ...] = (3,)
    signal_len: int = 8
    trials: int = 1
    seed: int = 1234
    mode: str = "analytic"
    est_len: int = 5000
    workers: int = 1
    out_dir: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}, not one of {', '.join(EXPERIMENTS)}"
            )
        for key in ("rho_u", "filter_len"):
            grid = getattr(self, key)
            if isinstance(grid, (str, bytes)) or not np.iterable(grid):
                raise InvalidParameterError(f"{key} must be a sequence of numbers, got {grid!r}")
        object.__setattr__(self, "rho_u", tuple(_as_float("rho_u", r) for r in self.rho_u))
        lengths = tuple(_as_int("filter_len", v, 1) for v in self.filter_len)
        object.__setattr__(self, "filter_len", lengths)
        for name in ("signal_len", "trials", "seed", "est_len", "workers"):
            value = _as_int(name, getattr(self, name), 0 if name == "seed" else 1)
            object.__setattr__(self, name, value)
        if not self.rho_u:
            raise InvalidParameterError("rho_u grid is empty")
        if any(not 0 <= r < 1 for r in self.rho_u):
            raise InvalidParameterError("rho_u grid values must lie in [0, 1)")
        if not self.filter_len:
            raise InvalidParameterError("filter_len grid is empty")
        for key in ("rho_u", "filter_len"):
            count = len(getattr(self, key))
            if count > 1 and key not in _SWEPT.get(self.experiment, ()):
                raise InvalidParameterError(f"{self.experiment} takes one {key} value, got {count}")
        if self.mode not in _MODES:
            raise InvalidParameterError(
                f"mode must be 'analytic' or 'empirical', got {self.mode!r}"
            )
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise InvalidParameterError(f"out_dir must be a path, got {self.out_dir!r}")
        object.__setattr__(self, "out_dir", os.fspath(self.out_dir))

    @classmethod
    def with_defaults(cls, experiment: str, **overrides) -> "ExperimentSpec":
        return cls(experiment=experiment, **{**_DEFAULTS.get(experiment, {}), **overrides})


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to the output files."""

    spec: dict
    version: str
    master_seed: int
    derivation_rule: str
    started_at: str
    finished_at: str
    digests: dict = field(default_factory=dict)


# The format of each cell type, keyed by exact type. The runners build their
# rows from ``tolist()`` columns, ``range`` indices, spec values and ``None``
# pads, so a cell of any other type (a bool, a numpy scalar) is a runner bug
# and raises ``KeyError``.
_CELL_FORMATS = {float: "%.12e".__mod__, int: str, str: str, type(None): lambda _: ""}


def _column_cells(column: tuple) -> list[str]:
    """The CSV cells of one column, each formatted by its type's rule in
    ``_CELL_FORMATS``; a column of one type maps that rule over it."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        return list(map(_CELL_FORMATS[kinds.pop()], column))
    return [_CELL_FORMATS[type(v)](v) for v in column]


# Rows per block of a CSV: only one block's cells are alive at a time.
_CSV_BLOCK_ROWS = 512


def _file_bytes(name: str, content) -> bytes:
    """The bytes of output file ``name``: ``(header, rows)`` as CSV for a
    ``.csv`` name, else a summary as sorted, indented JSON. Lines end in
    ``\n`` on every platform. The rows, which must all have the header's
    length, are written in blocks, each formatted column by column and then
    joined."""
    if not name.endswith(".csv"):
        return (json.dumps(content, indent=2, sort_keys=True) + "\n").encode()
    header, rows = content
    chunks = [",".join(header)]
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS]
        columns = [_column_cells(column) for column in zip(*block, strict=True)]
        if len(columns) != len(header):
            raise ValueError(f"{name}: rows of {len(columns)} cells under {len(header)} names")
        chunks.append("\n".join(map(",".join, zip(*columns))))
    return ("\n".join(chunks) + "\n").encode()


def _complex_pairs(values: np.ndarray) -> list:
    return np.column_stack([values.real, values.imag]).tolist()


def _map_tasks(func, tasks: list, workers: int) -> list:
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [func(t) for t in tasks]
    # Each worker holds OpenBLAS at one thread, whatever the start method: the
    # workers already share the cores, and a BLAS thread of their own would
    # only compete with them.
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
    ) as pool:
        return list(pool.map(func, tasks))


def _gain_bias_cell(task) -> float:
    """Mean normalized bias of one (rho_u, L) cell over its trials; ``task``
    is ``(spec, i_rho, i_len)``.

    The covariance pair and its AUT are built once and shared by the trials,
    so its whitening map and Takagi basis are factored once. The trials sum
    left to right in trial order; ``sum`` is avoided because Python 3.12 made
    it compensated, which would move the output bytes between interpreter
    versions.
    """
    spec, i_rho, i_len = task
    cov = analytic_covariances(demo_model(spec.rho_u[i_rho]), spec.filter_len[i_len])
    aut = aut_decompose(cov)
    total = 0.0
    for trial in range(spec.trials):
        rng = derive_rng(spec.seed, _STREAM_GAIN_BIAS, i_rho, i_len, trial)
        # Circular, unit variance per part: the scaling by 1.0 is exact.
        signal = sample_improper_white(spec.signal_len, 0.0, 2.0, rng=rng)
        total += normalized_snr_bias(signal, cov, aut)
    return total / spec.trials


def run_gain_bias(spec: ExperimentSpec) -> dict:
    if spec.signal_len < 10 * max(spec.filter_len):
        raise InsufficientSamplesError(
            "gain-bias needs signal_len >= 10 x the largest filter length"
        )
    cells = [
        (spec, i_rho, i_len)
        for i_rho in range(len(spec.rho_u))
        for i_len in range(len(spec.filter_len))
    ]
    means = _map_tasks(_gain_bias_cell, cells, spec.workers)
    rows = [
        (spec.rho_u[i_rho], spec.filter_len[i_len], mean)
        for (_, i_rho, i_len), mean in zip(cells, means)
    ]
    return {"gain-bias.csv": (("rho_u", "filter_len", "normalized_bias"), rows)}


def _surface_probe(spec: ExperimentSpec) -> np.ndarray:
    """Probe signal: the matched sequence (reversed, so the first full window
    reads it newest-first) followed by unit-power circular Gaussian filler."""
    length = spec.filter_len[0]
    if length == len(DEMO_MATCHED_SEQUENCE):
        matched = DEMO_MATCHED_SEQUENCE
    else:
        cov = analytic_covariances(demo_model(0.5), length)
        matched = design_matched_sequence(
            aut_decompose(cov), rng=derive_rng(spec.seed, _STREAM_DESIGN)
        )
    rng = derive_rng(spec.seed, _STREAM_SURFACE_FILLER)
    filler = sample_improper_white(spec.signal_len, 0.0, 1.0, rng=rng)
    return np.concatenate([matched[::-1], filler])


def _gain_surface_point(task) -> np.ndarray:
    """SNR gain along the probe ``windows`` at one rho_u; ``task`` is
    ``(spec, i_rho, windows)``. In analytic mode the gain of the exact pair,
    in empirical mode the mean over the trials of the gain of a pair
    estimated from a fresh noise record of ``est_len`` samples."""
    spec, i_rho, windows = task
    rho_u, length = spec.rho_u[i_rho], spec.filter_len[0]
    model = demo_model(rho_u)
    if spec.mode == "analytic":
        return snr_gain(windows, analytic_covariances(model, length))
    gains = []
    for trial in range(spec.trials):
        rng = derive_rng(spec.seed, _STREAM_GAIN_SURFACE, i_rho, trial)
        noise = ma_filter(sample_improper_white(spec.est_len, rho_u, rng=rng), model.taps)
        gains.append(snr_gain(windows, empirical_covariances(noise, length)))
    return np.mean(gains, axis=0)


def run_gain_surface(spec: ExperimentSpec) -> dict:
    length = spec.filter_len[0]
    windows = sliding_windows(_surface_probe(spec), length)
    positions = range(length, length + windows.shape[1])
    points = [(spec, i_rho, windows) for i_rho in range(len(spec.rho_u))]
    gains_by_rho = _map_tasks(_gain_surface_point, points, spec.workers)
    rows = [
        (n_p, rho, gain)
        for rho, gains in zip(spec.rho_u, gains_by_rho)
        for n_p, gain in zip(positions, gains.tolist())
    ]
    return {"gain-surface.csv": (("n_p", "rho_u", "snr_gain"), rows)}


def run_mf_demo(spec: ExperimentSpec) -> dict:
    template = DEMO_TEMPLATE
    length = len(template)
    n = spec.signal_len
    if n < length + 1:
        raise DimensionMismatchError("mf-demo needs signal_len >= template length + 1")
    start = n - length - 1

    rng = derive_rng(spec.seed, _STREAM_MF_DEMO)
    signal = rng.uniform(0.0, 0.3, n) + 1j * rng.uniform(0.0, 0.3, n)
    feature = template_to_feature(template)
    signal[start : start + length] = feature

    # The window that ends on the feature's last sample reads it newest-first,
    # i.e. equals the reversed feature; matching against white noise of the
    # background's power.
    probe_window = feature[::-1]
    noise_power = 2 * (0.3**2) / 3.0
    pair = CovariancePair(
        r=noise_power * np.eye(length), c=np.zeros((length, length), dtype=complex)
    )
    sl_mod = np.abs(apply_filter_sequence(signal, slmf_solve(probe_window, pair)))
    wl_mod = np.abs(apply_filter_sequence(signal, *wlmf_solve(probe_window, pair)))

    # The first L - 1 samples end no full window, so they have no output.
    pad = [None] * (length - 1)
    moduli = (pad + sl_mod.tolist(), pad + wl_mod.tolist())
    rows = list(zip(range(1, n + 1), signal.real.tolist(), signal.imag.tolist(), *moduli))
    sl_peak = int(np.argmax(sl_mod)) + length
    wl_peak = int(np.argmax(wl_mod)) + length
    summary = {
        "template": _complex_pairs(template),
        "feature": _complex_pairs(feature),
        "feature_start": start + 1,
        "sl_peak_n": sl_peak,
        "wl_peak_n": wl_peak,
        "sl_peak_modulus": float(np.max(sl_mod)),
        "wl_peak_modulus": float(np.max(wl_mod)),
        "threshold": 0.5 * float(np.max(sl_mod)),
    }
    return {
        "mf-demo.csv": (("n", "input_re", "input_im", "sl_modulus", "wl_modulus"), rows),
        "mf-demo-summary.json": summary,
    }


def run_cnn_train(spec: ExperimentSpec) -> dict:
    rows = []
    summary = {"seed": spec.seed, "modes": {}}
    results = train(spec.seed, input_len=spec.signal_len, filter_len=spec.filter_len[0])
    for mode, result in zip(("sl", "wl"), results):
        rows += [(iteration, mode, pattern, p) for iteration, pattern, p in result.trace]
        final = result.evals[-1]
        summary["modes"][mode] = {
            "first_sustained_iteration": result.first_sustained,
            "final_holdout_mean_p1": final[1],
            "final_holdout_mean_p2": final[2],
        }
    return {
        "cnn-train.csv": (("iteration", "mode", "pattern", "probability"), rows),
        "cnn-train-summary.json": summary,
    }


def run_design_sequence(spec: ExperimentSpec) -> dict:
    rho_u = spec.rho_u[0]
    length = spec.filter_len[0]
    cov = analytic_covariances(demo_model(rho_u), length)
    aut = aut_decompose(cov)
    designed = design_matched_sequence(aut, rng=derive_rng(spec.seed, _STREAM_DESIGN))
    profile = impropriety_profile(aut, rotated_input(aut, designed))
    target = 2 * profile.rho / (1 + profile.rho**2)
    roundtrip = float(np.max(np.abs(profile.epsilon - target)))
    summary = {
        "rho_u": rho_u,
        "filter_len": length,
        "lambda_r": aut.lambda_r.tolist(),
        "lambda_c": aut.lambda_c.tolist(),
        "rho": profile.rho.tolist(),
        "offdiag_residual": float(aut.offdiag_residual),
        "epsilon_target": target.tolist(),
        "epsilon_achieved": profile.epsilon.tolist(),
        "sequence": _complex_pairs(designed),
        "roundtrip_max_error": roundtrip,
    }
    return {"design-sequence.json": summary}


# Each runner returns its output files in write order: {name: (header, rows)}
# for a ``.csv`` file, {name: summary} for a ``.json`` one.
_RUNNERS = {
    "gain-bias": run_gain_bias,
    "gain-surface": run_gain_surface,
    "mf-demo": run_mf_demo,
    "cnn-train": run_cnn_train,
    "design-sequence": run_design_sequence,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(spec: ExperimentSpec) -> RunManifest:
    """Run one experiment, write its outputs and manifest, return the manifest."""
    from . import __version__

    started = datetime.now(timezone.utc).isoformat()
    with _blas_threads(1):
        files = _RUNNERS[spec.experiment](spec)

    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, content in files.items():
        data = _file_bytes(name, content)
        (out_dir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()

    manifest = RunManifest(
        spec=asdict(spec),
        version=__version__,
        master_seed=spec.seed,
        derivation_rule=f"{DERIVATION_RULE}; {_STREAM_NOTE}",
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
        digests=digests,
    )
    name = f"{spec.experiment}-manifest.json"
    (out_dir / name).write_bytes(_file_bytes(name, asdict(manifest)))
    return manifest
