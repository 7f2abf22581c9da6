"""A small complex-valued convolutional classifier, readable as a bank of
matched filters.

Architecture: a complex convolution layer (strictly linear, one tap vector
per channel, or widely linear with an extra conjugate-branch vector), a
split rectifier ``relu(Re + b_re) + 1j relu(Im + b_im)`` with per-channel
real biases, max-modulus pooling down to one complex value per channel, and
a real affine head with softmax over two classes. The channel taps run as a
filter bank through the core of :func:`wlmf.filters.apply_filter_sequence`,
so each channel is a matched filter on the same newest-first windows: every
filter meets every window, and a batch of signals, its windows folded into
one block, is filtered in one contraction that agrees bit for bit with its
signals filtered one at a time.
:func:`train` trains the strictly and widely linear networks as the two rows
of one widely linear network, the strictly linear row keeping a zero
conjugate branch: one forward and backward pass per step, one update over
one parameter buffer, and one ``predict_proba`` call on the holdout signals
per evaluation serve both, and the stream, holdout and window stack are
drawn and built once. Each network computes, bit for bit, what it computes
alone.

Gradients are taken with respect to the real and imaginary parts of every
complex parameter; the complex carrier ``d(Re) + 1j d(Im)`` that the
backward pass produces makes the plain SGD update one complex operation per
parameter. Max-modulus pooling passes each channel's gradient through one
window, its pooled one, so the backward pass takes each channel's gradient
at that window alone, from the windows of its own forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, DivergenceDetectedError
from .errors import InvalidParameterError, _as_array, _as_int
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
    "forward",
    "backward",
    "predict_proba",
    "train",
]

PATTERN_ONE = np.array([-0.5 - 1j, 1.0 - 1j, -0.5 - 1j])
PATTERN_TWO = np.array([1.0 + 1j, 1.0 + 1j, 1.0 + 1j])
CLUTTER_HIGH = 0.3
NOISE_STD = 0.05


@dataclass(frozen=True)
class CnnConfig:
    """``mode`` selects the strictly or widely linear layer; the paper's
    training schedule is fixed on the class."""

    mode: str = "sl"
    input_len: int = 8
    filter_len: int = 3

    channels: ClassVar[int] = 3
    learning_rate: ClassVar[float] = 0.05
    epochs: ClassVar[int] = 10
    realizations_per_epoch: ClassVar[int] = 200
    eval_every: ClassVar[int] = 10
    holdout_size: ClassVar[int] = 100

    def __post_init__(self):
        if self.mode not in ("sl", "wl"):
            raise InvalidParameterError(f"mode must be 'sl' or 'wl', got {self.mode!r}")
        for name in ("input_len", "filter_len"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), 1))
        if self.input_len < max(self.filter_len, len(PATTERN_ONE)):
            raise DimensionMismatchError("input_len must cover filter_len and the 3-sample pattern")


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


def _draw_signals(
    count: int, gen: np.random.Generator, input_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signals of :func:`make_dataset` as arrays: ``x`` (count, input_len),
    class labels (count,) in {0, 1} and pattern starts (count,).

    Each sample makes six generator calls, in this order: label, start, real
    and imaginary uniform noise, real and imaginary Gaussian noise. The
    uniform draws are ``random()`` values scaled by ``CLUTTER_HIGH`` after
    the loop, which is how numpy draws ``uniform(0.0, CLUTTER_HIGH)``: ``0.0
    + CLUTTER_HIGH * random()``, the same values from the same stream. The
    pattern add, the noise add and the scaling then run once on the whole
    stack, with the values a per-sample loop computes; the row norms are
    ``np.linalg.norm``'s bit for bit: one batched ``matmul`` takes the same
    ``dot`` of each row's real and imaginary parts that it takes.
    """
    pattern_len = len(PATTERN_ONE)
    labels = np.empty(count, dtype=np.intp)
    starts = np.empty(count, dtype=np.intp)
    clutter = np.empty((2, count, input_len))
    normal = np.empty((2, count, input_len))
    for i in range(count):
        labels[i] = gen.integers(2)
        starts[i] = gen.integers(0, input_len - pattern_len + 1)
        gen.random(out=clutter[0, i])
        gen.random(out=clutter[1, i])
        gen.standard_normal(out=normal[0, i])
        gen.standard_normal(out=normal[1, i])
    clutter *= CLUTTER_HIGH
    # u_re + 1j * u_im is exactly (u_re, u_im): the clutter is never -0, and
    # every other term of that complex sum is an exact zero.
    x = np.empty((count, input_len), dtype=complex)
    x.real = clutter[0]
    x.imag = clutter[1]
    pattern_cols = starts[:, None] + np.arange(pattern_len)
    x[np.arange(count)[:, None], pattern_cols] += np.where(
        labels[:, None] == 0, PATTERN_ONE, PATTERN_TWO
    )
    # In place, with the per-sample expression's operations: a + b == b + a
    # and a * b == b * a hold exactly in IEEE arithmetic.
    noise = 1j * normal[1]
    noise += normal[0]
    noise *= NOISE_STD
    x += noise
    re, im = x.real[:, None], x.imag[:, None]
    x /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return x, labels, starts


def make_dataset(
    count: int, rng: np.random.Generator | int | None = None, *, input_len: int = 8
) -> list[LabeledSignal]:
    """Random two-class signals: one pattern embedded at a random offset.

    Every sample of the signal carries uniform [0, ``CLUTTER_HIGH`` = 0.3)
    real and imaginary clutter; the three pattern values are added on top at
    a start position drawn uniformly from the fitting range; doubly white
    circular Gaussian noise (std ``NOISE_STD`` = 0.05 per real component) is
    added to the whole signal; the result is normalized to unit energy. A
    ``count`` or ``input_len`` that is not an integer >= 0 raises
    ``InvalidParameterError``, and an ``input_len`` below 3
    ``DimensionMismatchError``.
    """
    count = _as_int("count", count, 0)
    input_len = _as_int("input_len", input_len, 0)
    if input_len < len(PATTERN_ONE):
        raise DimensionMismatchError("input_len must cover the 3-sample pattern")
    x, labels, starts = _draw_signals(count, as_generator(rng), input_len)
    targets = np.eye(2)[labels]
    return [
        LabeledSignal(x=row, t=t, pattern=label + 1, start=start)
        for row, t, label, start in zip(x, targets, labels.tolist(), starts.tolist())
    ]


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


def _split_relu(y: np.ndarray, bias_re: np.ndarray, bias_im: np.ndarray) -> np.ndarray:
    """Rectify real and imaginary parts separately after adding real biases."""
    a = np.empty(y.shape, dtype=complex)
    np.maximum(y.real + bias_re[..., None], 0.0, out=a.real)
    np.maximum(y.imag + bias_im[..., None], 0.0, out=a.imag)
    return a


def _max_modulus_pool(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the largest-modulus activation per channel (first index on ties).

    Pools over the last axis, so ``a`` may carry leading batch axes.
    """
    idx = np.abs(a).argmax(axis=-1)
    # Each pooled entry's flat index: the start of its row plus its argmax.
    pooled = a.reshape(-1)[idx + np.arange(0, a.size, a.shape[-1]).reshape(idx.shape)]
    return pooled, idx


def _head_forward(
    pooled: np.ndarray, head_w: np.ndarray, head_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine head over interleaved real/imaginary features, then softmax.

    Works on the last axis, so ``pooled`` may carry leading batch axes. Head
    parameters with a leading network axis meet the network axis of
    ``pooled``, which sits behind its batch axes. ``pooled`` is the fresh
    complex gather of :func:`_max_modulus_pool`, so its float view is contiguous.
    """
    feat = pooled.view(float)
    # One matrix-vector product per feature vector, batched or not, so a
    # batch rounds exactly as its rows would alone.
    logits = (head_w @ feat[..., None])[..., 0] + head_b
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return feat, logits, probs


def _windows(x, params: CnnParams, ndim=(1, 2)) -> np.ndarray:
    """Newest-first windows of one signal (L, K) or of a batch (B, L, K)."""
    return sliding_windows(_as_array("x", x, ndim), params.conv1.shape[-1])


def _forward(windows: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Forward pass on the windows of one signal or a batch of signals, for
    one network or for a stack of them, whose arrays carry a leading network
    axis (behind a batch's axes)."""
    y = _filter_windows(windows, params.conv1, params.conv2)
    a = _split_relu(y, params.bias_re, params.bias_im)
    pooled, idx = _max_modulus_pool(a)
    feat, logits, probs = _head_forward(pooled, params.head_w, params.head_b)
    return probs, {"y": y, "a": a, "idx": idx, "feat": feat, "probs": probs}


def forward(x: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Full forward pass on one signal (N,) or a batch (B, N); returns class
    probabilities, (2,) or (B, 2), and the layer cache."""
    return _forward(_windows(x, params), params)


def predict_proba(x: np.ndarray, params: CnnParams) -> np.ndarray:
    """Class probabilities of one signal (N,) -> (2,), or of a batch (B, N) -> (B, 2);
    a stack of networks adds its axis in front of the classes."""
    return _forward(_windows(x, params), params)[0]


def _backward(
    windows: np.ndarray, t: np.ndarray, params: CnnParams, out: dict | None = None
) -> tuple:
    """Probabilities and gradients of one signal's windows (L, K), which its
    forward pass reuses, for one network or a stack (see :func:`_forward`).

    Max-modulus pooling passes each channel's gradient through its pooled
    window alone: of the sum over windows that makes a bias or tap
    gradient, every other term is an exact zero, so the gradient is the one
    pooled term. The gradients are written into the arrays of ``out``,
    keyed by field name, when it is given.
    """
    out = {} if out is None else out
    probs, cache = _forward(windows, params)
    feat = cache["feat"]
    dlogits = np.subtract(probs, t, out=out.get("head_b"))
    grads = {
        "head_w": np.multiply(dlogits[..., None], feat[..., None, :], out=out.get("head_w")),
        "head_b": dlogits,
    }
    dfeat = (np.swapaxes(params.head_w, -1, -2) @ dlogits[..., None])[..., 0]
    # The rectifier passes a part exactly where its pooled output part is
    # positive; the features interleave real and imaginary parts.
    gate = (dfeat * (feat > 0)).view(complex)
    # + 0.0 as in the sum over windows, which is +0 where the gate is closed.
    grads["bias_re"] = np.add(gate.real, 0.0, out=out.get("bias_re"))
    grads["bias_im"] = np.add(gate.imag, 0.0, out=out.get("bias_im"))

    gate = np.conj(gate)[..., None]
    pooled_windows = windows.T[cache["idx"]]
    grads["conv1"] = np.multiply(gate, pooled_windows, out=out.get("conv1"))
    if params.conv2 is not None:
        np.conj(pooled_windows, out=pooled_windows)
        grads["conv2"] = np.multiply(gate, pooled_windows, out=out.get("conv2"))
    return probs, grads


def backward(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, np.ndarray, dict]:
    """Cross-entropy loss, probabilities, and gradients for one sample.

    Complex parameter gradients are carriers ``dL/dRe + 1j dL/dIm``; the
    pooling layer routes the head gradient to the selected window only, and
    the split rectifier gates real and imaginary flows independently.

    ``x`` (N,) and ``t`` (2,) follow the array rule of :mod:`wlmf.errors`;
    another shape raises ``DimensionMismatchError``.
    """
    t = _as_array("t", t, (1,), dtype=float)
    if t.shape != (2,):
        raise DimensionMismatchError(f"backward takes t of shape (2,), got {t.shape}")
    probs, grads = _backward(_windows(x, params, (1,)), t, params)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[int(t.argmax())]))
    return loss, probs, grads


def _flat_views(buffer: np.ndarray, like: dict) -> dict:
    """Views of a flat float ``buffer`` with the shapes and dtypes of the
    arrays of ``like``, laid end to end in its order."""
    views, start = {}, 0
    for name, array in like.items():
        stop = start + array.nbytes // buffer.itemsize
        views[name] = buffer[start:stop].view(array.dtype).reshape(array.shape)
        start = stop
    return views


def _holdout_means(
    x: np.ndarray, labels: np.ndarray, params: CnnParams
) -> list[tuple[float, float]]:
    """Mean true-class probability over held-out signals ``x`` (B, N) with
    class ``labels`` (B,), per pattern, for each network of a stack, from
    one ``predict_proba`` call whose probabilities are (B, networks, 2).
    """
    true_class = predict_proba(x, params)[np.arange(len(labels)), :, labels].T
    return [
        tuple(float(np.mean(p)) for p in (net[labels == 0], net[labels == 1]))
        for net in true_class
    ]


def _first_sustained(evals: list[tuple[int, float, float]]) -> int | None:
    first = None
    for iteration, mean_p1, mean_p2 in reversed(evals):
        if not (mean_p1 > 0.9 and mean_p2 > 0.9):
            break
        first = iteration
    return first


def train(
    seed: int, *, input_len: int = 8, filter_len: int = 3
) -> tuple[TrainResult, TrainResult]:
    """Per-sample SGD training of the strictly and widely linear networks
    under one data stream, on the :class:`CnnConfig` schedule.

    The training stream (fresh realizations every epoch), the held-out
    batch, and the initial parameters are all derived from ``seed``
    independently of the mode, so both networks see identical data and start
    from the same strictly linear function. They are the rows of one widely
    linear stack, the strictly linear row's conjugate branch held at zero;
    each step runs one forward and backward pass for both, and each
    evaluation one ``predict_proba`` call on the holdout signals. The
    stack's fields are views of one float buffer and the backward pass
    writes its gradients into views of a second, so each step's update is
    one operation over the whole buffer.
    Each network's result is, bit for bit, that of training it alone.
    Returns the strictly and the widely linear :class:`TrainResult`; their
    ``params`` are views of the stack.

    Raises
    ------
    InvalidParameterError, DimensionMismatchError
        For a seed that is not an integer >= 0, or lengths that
        :class:`CnnConfig` rejects.
    DivergenceDetectedError
        At the first step where some network's loss is not finite; the
        message names that network's mode.
    """
    configs = tuple(CnnConfig(mode, input_len, filter_len) for mode in ("sl", "wl"))
    config = configs[0]
    total = config.epochs * config.realizations_per_epoch
    stream_x, stream_labels, _ = _draw_signals(total, derive_rng(seed, 0), config.input_len)
    holdout_x, holdout_labels, _ = _draw_signals(
        config.holdout_size, derive_rng(seed, 2), config.input_len
    )
    nets = [init_params(c, derive_rng(seed, 1)) for c in configs]
    # The strictly linear network is the widely linear one with a conjugate
    # branch held at exactly +0, which leaves its responses bit-identical.
    nets[0].conv2 = np.zeros_like(nets[0].conv1)
    names = [f.name for f in fields(CnnParams)]
    stacked = {name: np.stack([getattr(net, name) for net in nets]) for name in names}
    # On a complex field the buffer's update is the complex update, bit for
    # bit: lr * (re + 1j im) is (lr * re, lr * im) up to the sign of a zero,
    # and p - (+0) == p - (-0) for every parameter p, none being -0.
    flat = np.concatenate([array.ravel().view(float) for array in stacked.values()])
    grad_flat = np.empty_like(flat)
    params = CnnParams(**_flat_views(flat, stacked))
    grads = _flat_views(grad_flat, stacked)
    views = [CnnParams(**{name: getattr(params, name)[i] for name in names}) for i in range(2)]
    views[0].conv2 = None
    windows = _windows(stream_x, params)
    targets = np.eye(2)[stream_labels]

    traces: list[list[tuple[int, int, float]]] = [[] for _ in configs]
    evals: list[list[tuple[int, float, float]]] = [[] for _ in configs]
    samples = zip(windows, targets, stream_labels.tolist())
    for step, (sample_windows, t, label) in enumerate(samples, start=1):
        probs, _ = _backward(sample_windows, t, params, out=grads)
        grads["conv2"][0] = 0.0
        p_true = probs[:, label].tolist()
        # Exactly where the loss -log(p) is not finite: p 0 or NaN.
        diverged = [c.mode for c, p in zip(configs, p_true) if not p > 0]
        if diverged:
            raise DivergenceDetectedError(
                f"non-finite loss of the {diverged[0]!r} network at iteration {step}"
            )
        for trace, p in zip(traces, p_true):
            trace.append((step, label + 1, p))
        flat -= config.learning_rate * grad_flat
        if step % config.eval_every == 0:
            means = _holdout_means(holdout_x, holdout_labels, params)
            for net_evals, net_means in zip(evals, means):
                net_evals.append((step, *net_means))
    return tuple(
        TrainResult(view, trace, net_evals, first_sustained=_first_sustained(net_evals))
        for view, trace, net_evals in zip(views, traces, evals)
    )
