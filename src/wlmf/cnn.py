"""A small complex-valued convolutional classifier, readable as a bank of
matched filters.

Architecture: a complex convolution layer (strictly linear, one tap vector
per channel, or widely linear with an extra conjugate-branch vector), a
split rectifier ``relu(Re + b_re) + 1j relu(Im + b_im)`` with per-channel
real biases, max-modulus pooling down to one complex value per channel, and
a real affine head with softmax over two classes. The channel taps run as a
filter bank through the core of :func:`wlmf.filters.apply_filter_sequence`,
so each channel is a matched filter on the same newest-first windows; a
batch of signals is filtered in one contraction and agrees bit for bit with
its signals filtered one at a time. :func:`train` builds one window stack
for its whole training stream, and each backward pass reuses the windows of
its own forward pass for the tap gradients.

Gradients are taken with respect to the real and imaginary parts of every
complex parameter; the complex carrier ``d(Re) + 1j d(Im)`` that the
backward pass produces makes the plain SGD update one complex operation per
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceDetectedError, EmptyInputError
from .errors import InvalidParameterError
from .filters import _filter_windows
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
            raise InvalidParameterError(f"mode must be 'sl' or 'wl', got {self.mode!r}")
        for name in ("epochs", "realizations_per_epoch", "channels", "filter_len"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.eval_every <= self.epochs * self.realizations_per_epoch:
            raise InvalidParameterError(f"eval_every must be in [1, steps], got {self.eval_every}")
        if self.holdout_size < 0:
            raise InvalidParameterError(f"holdout_size must be >= 0, got {self.holdout_size}")
        if not 0 <= self.learning_rate < math.inf:
            raise InvalidParameterError(f"learning_rate {self.learning_rate} is outside [0, inf)")
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
    idx = np.abs(a).argmax(axis=-1)
    pooled = a.reshape(-1, a.shape[-1])[np.arange(idx.size), idx.ravel()].reshape(idx.shape)
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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return feat, logits, probs


def _windows(x, params: CnnParams) -> np.ndarray:
    """Newest-first windows of one signal (L, K) or of a batch (B, L, K)."""
    return sliding_windows(np.asarray(x, dtype=complex), params.conv1.shape[1])


def _forward(windows: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Forward pass on the windows of one signal or a batch of signals."""
    y = _filter_windows(windows, params.conv1, params.conv2)
    a = split_relu(y, params.bias_re, params.bias_im)
    pooled, idx = max_modulus_pool(a)
    feat, logits, probs = head_forward(pooled, params.head_w, params.head_b)
    return probs, {"y": y, "a": a, "idx": idx, "feat": feat, "probs": probs}


def forward(x: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Full forward pass on one signal (N,) or a batch (B, N); returns class
    probabilities, (2,) or (B, 2), and the layer cache."""
    return _forward(_windows(x, params), params)


def predict_proba(x: np.ndarray, params: CnnParams) -> np.ndarray:
    """Class probabilities of one signal (N,) -> (2,), or of a batch (B, N) -> (B, 2)."""
    return _forward(_windows(x, params), params)[0]


def _backward(windows: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple:
    """Backward pass on one signal's windows (L, K), which its forward pass reuses."""
    probs, cache = _forward(windows, params)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[int(t.argmax())]))

    dlogits = probs - t
    grads = {"head_w": dlogits[:, None] * cache["feat"], "head_b": dlogits}
    dfeat = params.head_w.T @ dlogits
    dpool = dfeat[0::2] + 1j * dfeat[1::2]

    a = cache["a"]
    da = np.zeros(a.shape, dtype=complex)
    da[np.arange(len(a)), cache["idx"]] = dpool

    # The rectifier passes a part exactly where its output part is positive.
    s_re = da.real * (a.real > 0)
    s_im = da.imag * (a.imag > 0)
    s = s_re + 1j * s_im
    grads["bias_re"] = s_re.sum(axis=1)
    grads["bias_im"] = s_im.sum(axis=1)

    grads["conv1"] = np.conj(s) @ windows.T
    if params.conv2 is not None:
        grads["conv2"] = np.conj(s) @ windows.conj().T
    return loss, probs, grads


def backward(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, np.ndarray, dict]:
    """Cross-entropy loss, probabilities, and gradients for one sample.

    Complex parameter gradients are carriers ``dL/dRe + 1j dL/dIm``; the
    pooling layer routes the head gradient to the selected window only, and
    the split rectifier gates real and imaginary flows independently.

    A batch ``x`` (ndim != 1) or a ``t`` not of shape (2,) raises
    ``DimensionMismatchError``.
    """
    x, t = np.asarray(x, dtype=complex), np.asarray(t)
    if x.ndim != 1 or t.shape != (2,):
        raise DimensionMismatchError(f"backward takes x (N,) and t (2,), got {x.shape}, {t.shape}")
    return _backward(_windows(x, params), t, params)


def _sgd_step(params: CnnParams, grads: dict, lr: float) -> None:
    for name, grad in grads.items():
        value = getattr(params, name)
        value -= lr * grad


def _holdout_means(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, float]:
    """Mean true-class probability over a held-out batch, per pattern.

    ``x`` holds the signals (B, N) and ``t`` their one-hot targets (B, 2);
    a pattern with no held-out sample reads 1.0.
    """
    if len(x) == 0:
        return 1.0, 1.0
    labels = np.argmax(t, axis=1)
    true_class = predict_proba(x, params)[np.arange(len(labels)), labels]
    return tuple(
        float(np.mean(true_class[labels == c])) if np.any(labels == c) else 1.0 for c in (0, 1)
    )


def _first_sustained(evals: list[tuple[int, float, float]], threshold: float = 0.9) -> int | None:
    first = None
    for iteration, mean_p1, mean_p2 in reversed(evals):
        if not (mean_p1 > threshold and mean_p2 > threshold):
            break
        first = iteration
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
    windows = _windows(np.array([sample.x for sample in stream]), params)

    trace: list[tuple[int, int, float]] = []
    evals: list[tuple[int, float, float]] = []
    for step, (sample, sample_windows) in enumerate(zip(stream, windows), start=1):
        loss, probs, grads = _backward(sample_windows, sample.t, params)
        if not math.isfinite(loss):
            raise DivergenceDetectedError(f"non-finite loss at iteration {step}")
        trace.append((step, sample.pattern, float(probs[sample.pattern - 1])))
        _sgd_step(params, grads, config.learning_rate)
        if step % config.eval_every == 0:
            evals.append((step, *_holdout_means(holdout_x, holdout_t, params)))
    return TrainResult(params, trace, evals, first_sustained=_first_sustained(evals))
