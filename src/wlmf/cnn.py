"""A small complex-valued convolutional classifier, readable as a bank of
matched filters.

Architecture: a complex convolution layer (strictly linear, one tap vector
per channel, or widely linear with an extra conjugate-branch vector), a
split rectifier ``relu(Re + b_re) + 1j relu(Im + b_im)`` with per-channel
real biases, max-modulus pooling down to one complex value per channel, and
a real affine head with softmax over two classes. The convolution is
:func:`wlmf.filters.apply_filter_sequence` run with the channel taps as a
filter bank (``SlmfWeights(conv1)`` or ``WlmfWeights(conv1, conv2)``), so
each channel is a matched filter on the same newest-first windows.
The forward pass takes one signal or a batch of them; a batch is filtered in
one contraction and agrees bit for bit with its signals filtered one at a
time.

Gradients are taken with respect to the real and imaginary parts of every
complex parameter; the complex carrier ``d(Re) + 1j d(Im)`` that the
backward pass produces makes the plain SGD update one complex operation per
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceDetectedError, EmptyInputError
from .filters import SlmfWeights, WlmfWeights, apply_filter_sequence
from .noise import sliding_windows
from .seeding import as_generator, derive_rng

__all__ = [
    "PATTERN_ONE",
    "PATTERN_TWO",
    "CnnConfig",
    "CnnParams",
    "LabeledSignal",
    "TrainResult",
    "make_dataset",
    "init_params",
    "split_relu",
    "max_modulus_pool",
    "head_forward",
    "forward",
    "backward",
    "predict_proba",
    "train",
]

PATTERN_ONE = np.array([-0.5 - 1j, 1.0 - 1j, -0.5 - 1j])
PATTERN_TWO = np.array([1.0 + 1j, 1.0 + 1j, 1.0 + 1j])


@dataclass(frozen=True)
class CnnConfig:
    """Hyperparameters; ``mode`` selects the strictly or widely linear layer."""

    mode: str = "sl"
    input_len: int = 8
    channels: int = 3
    filter_len: int = 3
    learning_rate: float = 0.05
    epochs: int = 10
    realizations_per_epoch: int = 200
    eval_every: int = 10
    holdout_size: int = 100

    def __post_init__(self):
        if self.mode not in ("sl", "wl"):
            raise ValueError(f"mode must be 'sl' or 'wl', got {self.mode!r}")
        if self.input_len < self.filter_len:
            raise DimensionMismatchError("input_len must be at least filter_len")


@dataclass
class CnnParams:
    """Network parameters. ``conv2`` is None in strictly linear mode."""

    conv1: np.ndarray
    conv2: np.ndarray | None
    bias_re: np.ndarray
    bias_im: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray


@dataclass(frozen=True)
class LabeledSignal:
    """Unit-energy input signal with its one-hot target and provenance."""

    x: np.ndarray
    t: np.ndarray
    pattern: int
    start: int


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus the per-iteration and held-out training record.

    ``trace`` rows are ``(iteration, pattern, probability)``: the pre-update
    output probability of the true class for that iteration's training
    sample. ``evals`` rows are ``(iteration, mean_p1, mean_p2)`` over the
    held-out batch, grouped by pattern. ``first_sustained`` is the earliest
    evaluated iteration from which both held-out means stay above 0.9 through
    the end of training, or None.
    """

    params: CnnParams
    trace: list[tuple[int, int, float]]
    evals: list[tuple[int, float, float]]
    first_sustained: int | None


def make_dataset(
    count: int,
    rng: np.random.Generator | int | None = None,
    *,
    input_len: int = 8,
    uniform_high: float = 0.3,
    gaussian_std: float = 0.05,
) -> list[LabeledSignal]:
    """Random two-class signals: one pattern embedded at a random offset.

    Every sample of the signal carries uniform [0, uniform_high] real and
    imaginary noise; the three pattern values are added on top at a start
    position drawn uniformly from the fitting range; doubly white circular
    Gaussian noise (std per real component ``gaussian_std``) is added to the
    whole signal; the result is normalized to unit energy.
    """
    gen = as_generator(rng)
    pattern_len = len(PATTERN_ONE)
    signals = []
    for _ in range(count):
        pattern_id = int(gen.integers(2))
        pattern = PATTERN_ONE if pattern_id == 0 else PATTERN_TWO
        start = int(gen.integers(0, input_len - pattern_len + 1))
        x = gen.uniform(0.0, uniform_high, input_len) + 1j * gen.uniform(
            0.0, uniform_high, input_len
        )
        x[start : start + pattern_len] += pattern
        x += gaussian_std * (
            gen.standard_normal(input_len) + 1j * gen.standard_normal(input_len)
        )
        x /= np.linalg.norm(x)
        t = np.array([1.0, 0.0]) if pattern_id == 0 else np.array([0.0, 1.0])
        signals.append(LabeledSignal(x=x, t=t, pattern=pattern_id + 1, start=start))
    return signals


def init_params(config: CnnConfig, rng: np.random.Generator | int | None = None) -> CnnParams:
    """Draw initial parameters.

    The strictly linear taps and the head are drawn identically for both
    modes (same generator state consumption), and the widely linear mode
    starts its conjugate branch at zero, so under a shared seed the widely
    linear net initially computes exactly the strictly linear function.
    """
    gen = as_generator(rng)
    shape = (config.channels, config.filter_len)
    conv1 = 0.3 * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    head_w = 0.3 * gen.standard_normal((2, 2 * config.channels))
    conv2 = np.zeros(shape, dtype=complex) if config.mode == "wl" else None
    return CnnParams(
        conv1=conv1,
        conv2=conv2,
        bias_re=np.zeros(config.channels),
        bias_im=np.zeros(config.channels),
        head_w=head_w,
        head_b=np.zeros(2),
    )


def split_relu(y: np.ndarray, bias_re: np.ndarray, bias_im: np.ndarray) -> np.ndarray:
    """Rectify real and imaginary parts separately after adding real biases."""
    re = np.maximum(y.real + bias_re[:, None], 0.0)
    im = np.maximum(y.imag + bias_im[:, None], 0.0)
    return re + 1j * im


def max_modulus_pool(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the largest-modulus activation per channel (first index on ties).

    Pools over the last axis, so ``a`` may carry leading batch axes.
    """
    if a.size == 0:
        raise EmptyInputError("max_modulus_pool needs a nonempty sequence")
    idx = np.argmax(np.abs(a), axis=-1)
    pooled = np.take_along_axis(a, idx[..., None], axis=-1)[..., 0]
    return pooled, idx


def head_forward(
    pooled: np.ndarray, head_w: np.ndarray, head_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine head over interleaved real/imaginary features, then softmax.

    Works on the last axis, so ``pooled`` may carry leading batch axes.
    """
    feat = np.empty(pooled.shape[:-1] + (2 * pooled.shape[-1],))
    feat[..., 0::2] = pooled.real
    feat[..., 1::2] = pooled.imag
    # One matrix-vector product per feature vector, batched or not, so a
    # batch rounds exactly as its rows would alone.
    logits = (head_w @ feat[..., None])[..., 0] + head_b
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / np.sum(exp, axis=-1, keepdims=True)
    return feat, logits, probs


def forward(x: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Full forward pass; returns class probabilities and the layer cache.

    ``x`` is one signal (N,), giving probabilities (2,), or a batch (B, N),
    giving (B, 2).
    """
    if params.conv2 is None:
        weights = SlmfWeights(params.conv1)
    else:
        weights = WlmfWeights(params.conv1, params.conv2)
    y = apply_filter_sequence(x, weights)
    a = split_relu(y, params.bias_re, params.bias_im)
    pooled, idx = max_modulus_pool(a)
    feat, logits, probs = head_forward(pooled, params.head_w, params.head_b)
    cache = {"y": y, "a": a, "idx": idx, "feat": feat, "probs": probs}
    return probs, cache


def predict_proba(x: np.ndarray, params: CnnParams) -> np.ndarray:
    """Class probabilities of one signal (N,) -> (2,), or of a batch (B, N) -> (B, 2)."""
    probs, _ = forward(x, params)
    return probs


def backward(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, np.ndarray, dict]:
    """Cross-entropy loss, probabilities, and gradients for one sample.

    Complex parameter gradients are carriers ``dL/dRe + 1j dL/dIm``; the
    pooling layer routes the head gradient to the selected window only, and
    the split rectifier gates real and imaginary flows independently.
    """
    probs, cache = forward(x, params)
    label = int(np.argmax(t))
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[label]))

    dlogits = probs - t
    grads = {
        "head_w": np.outer(dlogits, cache["feat"]),
        "head_b": dlogits.copy(),
    }
    dfeat = params.head_w.T @ dlogits
    dpool = dfeat[0::2] + 1j * dfeat[1::2]

    channels, k = cache["a"].shape
    da = np.zeros((channels, k), dtype=complex)
    da[np.arange(channels), cache["idx"]] = dpool

    mask_re = (cache["y"].real + params.bias_re[:, None]) > 0
    mask_im = (cache["y"].imag + params.bias_im[:, None]) > 0
    s = da.real * mask_re + 1j * (da.imag * mask_im)
    grads["bias_re"] = np.sum(da.real * mask_re, axis=1)
    grads["bias_im"] = np.sum(da.imag * mask_im, axis=1)

    windows = sliding_windows(np.asarray(x, dtype=complex), params.conv1.shape[1])
    grads["conv1"] = np.conj(s) @ windows.T
    if params.conv2 is not None:
        grads["conv2"] = np.conj(s) @ windows.conj().T
    return loss, probs, grads


def _sgd_step(params: CnnParams, grads: dict, lr: float) -> None:
    params.conv1 -= lr * grads["conv1"]
    if params.conv2 is not None:
        params.conv2 -= lr * grads["conv2"]
    params.bias_re -= lr * grads["bias_re"]
    params.bias_im -= lr * grads["bias_im"]
    params.head_w -= lr * grads["head_w"]
    params.head_b -= lr * grads["head_b"]


def _holdout_means(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, float]:
    """Mean true-class probability over a held-out batch, per pattern.

    ``x`` holds the signals (B, N) and ``t`` their one-hot targets (B, 2);
    a pattern with no held-out sample reads 1.0.
    """
    if len(x) == 0:
        return 1.0, 1.0
    labels = np.argmax(t, axis=1)
    true_class = predict_proba(x, params)[np.arange(len(labels)), labels]
    mean_p1, mean_p2 = (
        float(np.mean(true_class[labels == c])) if np.any(labels == c) else 1.0 for c in (0, 1)
    )
    return mean_p1, mean_p2


def _first_sustained(evals: list[tuple[int, float, float]], threshold: float = 0.9) -> int | None:
    first = None
    for iteration, mean_p1, mean_p2 in reversed(evals):
        if mean_p1 > threshold and mean_p2 > threshold:
            first = iteration
        else:
            break
    return first


def train(config: CnnConfig, seed: int) -> TrainResult:
    """Per-sample SGD training under a seed-shared data stream.

    The training stream (fresh realizations every epoch), the held-out batch,
    and the initial parameters are all derived from ``seed`` independently of
    ``config.mode``, so strictly and widely linear runs see identical data
    and start from the same strictly linear function.

    Raises
    ------
    DivergenceDetectedError
        If the loss becomes non-finite.
    """
    total = config.epochs * config.realizations_per_epoch
    stream = make_dataset(total, derive_rng(seed, 0), input_len=config.input_len)
    holdout = make_dataset(config.holdout_size, derive_rng(seed, 2), input_len=config.input_len)
    holdout_x = np.array([sample.x for sample in holdout])
    holdout_t = np.array([sample.t for sample in holdout])
    params = init_params(config, derive_rng(seed, 1))

    trace: list[tuple[int, int, float]] = []
    evals: list[tuple[int, float, float]] = []
    for step, sample in enumerate(stream, start=1):
        loss, probs, grads = backward(sample.x, sample.t, params)
        if not np.isfinite(loss):
            raise DivergenceDetectedError(f"non-finite loss at iteration {step}")
        trace.append((step, sample.pattern, float(probs[int(np.argmax(sample.t))])))
        _sgd_step(params, grads, config.learning_rate)
        if step % config.eval_every == 0:
            mean_p1, mean_p2 = _holdout_means(holdout_x, holdout_t, params)
            evals.append((step, mean_p1, mean_p2))

    return TrainResult(
        params=params,
        trace=trace,
        evals=evals,
        first_sustained=_first_sustained(evals),
    )
