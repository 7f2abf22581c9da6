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

Each pass runs through a step, :class:`_Step` or :class:`_BackwardStep`,
whose buffers are allocated once: the public calls build one per call, and
:func:`train` one for all its steps. :func:`train` trains the strictly and
widely linear networks as the two rows of one widely linear network, the
strictly linear row keeping a zero conjugate branch: one forward and
backward pass per step, one update over one parameter buffer, and one
``predict_proba`` call on the holdout signals per evaluation serve both,
and the stream, holdout and window stack are drawn and built once. Each
network computes, bit for bit, what it computes alone.

Gradients are taken with respect to the real and imaginary parts of every
complex parameter; the complex carrier ``d(Re) + 1j d(Im)`` that the
backward pass produces makes the plain SGD update one complex operation per
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, DivergenceDetectedError
from .errors import InvalidParameterError, _as_array, _as_int
from .filters import _filter_bank
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

    Each sample draws, in this order: its label, its start, real and
    imaginary uniform noise, and real and imaginary Gaussian noise. Each
    noise pair is one generator call that fills the real part and then the
    imaginary part: it draws the values one call per part would, in the
    same order, so the stream is that of six calls per sample. The
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
    # (sample, part, position): each sample's real and imaginary parts are
    # one contiguous block that one generator call fills.
    clutter = np.empty((count, 2, input_len))
    normal = np.empty((count, 2, input_len))
    for i in range(count):
        labels[i] = gen.integers(2)
        starts[i] = gen.integers(0, input_len - pattern_len + 1)
        gen.random(out=clutter[i])
        gen.standard_normal(out=normal[i])
    clutter *= CLUTTER_HIGH
    # u_re + 1j * u_im is exactly (u_re, u_im): the clutter is never -0, and
    # every other term of that complex sum is an exact zero.
    x = np.empty((count, input_len), dtype=complex)
    x.real = clutter[:, 0]
    x.imag = clutter[:, 1]
    pattern_cols = starts[:, None] + np.arange(pattern_len)
    x[np.arange(count)[:, None], pattern_cols] += np.where(
        labels[:, None] == 0, PATTERN_ONE, PATTERN_TWO
    )
    # In place, with the per-sample expression's operations: a + b == b + a
    # and a * b == b * a hold exactly in IEEE arithmetic.
    noise = 1j * normal[:, 1]
    noise += normal[:, 0]
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


@dataclass
class _Layers:
    """A network, or a stack of them behind a leading network axis, in the
    layout the step reads: ``bank`` (2, ..., C, L) holds ``conj(conv1)`` and
    ``conv2``, zero for a strictly linear network, so one contraction
    convolves both branches (see :func:`wlmf.filters._filter_bank`); ``bias``
    (..., C) interleaves the real biases as ``bias_re + 1j bias_im``."""

    bank: np.ndarray
    bias: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray


def _layers(params: CnnParams, finite: bool = True) -> _Layers:
    """``params`` in the step's layout, as new arrays but for the head.

    Every array follows the array rule of :mod:`wlmf.errors`, the biases and
    the head real ones, and is finite unless ``finite`` is False. ``conv1``
    is (C, L), or (networks, C, L) for a stack, and the others carry the
    same network axis and fit its C channels: ``conv2`` (C, L), the biases
    (C,), ``head_w`` (2, 2C) and ``head_b`` (2,); another shape raises
    ``DimensionMismatchError``."""
    conv1 = _as_array("conv1", params.conv1, (2, 3), finite)
    nets, channels = conv1.shape[:-2], conv1.shape[-2]
    bank = np.zeros((2,) + conv1.shape, dtype=complex)
    np.conj(conv1, out=bank[0])
    if params.conv2 is not None:
        bank[1] = _as_array("conv2", params.conv2, (conv1.ndim,), finite, lead=conv1.shape)
    bias = np.empty(nets + (channels,), dtype=complex)
    bias.real = _as_array("bias_re", params.bias_re, (bias.ndim,), finite, float, lead=bias.shape)
    bias.imag = _as_array("bias_im", params.bias_im, (bias.ndim,), finite, float, lead=bias.shape)
    head_w = _as_array(
        "head_w", params.head_w, (conv1.ndim,), finite, float, lead=nets + (2, 2 * channels)
    )
    head_b = _as_array("head_b", params.head_b, (bias.ndim,), finite, float, lead=nets + (2,))
    return _Layers(bank, bias, head_w, head_b)


class _Step:
    """The forward pass of ``layers`` on windows of one ``shape``, (L, K) or
    (B, L, K), through buffers allocated once, so a pass is a fixed sequence
    of numpy calls that allocates nothing. Every layer's output stays in its
    buffer until the next pass."""

    def __init__(self, layers: _Layers, shape: tuple):
        self.layers = layers
        self.bias = layers.bias[..., None]
        bank = layers.bank
        self.a = np.empty(shape[:-2] + bank.shape[1:-1] + shape[-1:], dtype=complex)
        self.a_parts = self.a.view(float)
        # A batch's contraction is faster into an array einsum lays out itself.
        self.sums = None if len(shape) > 2 else np.empty(bank.shape[:1] + self.a.shape, complex)
        channels = self.a.shape[:-1]
        self.modulus = np.empty(self.a.shape)
        self.idx = np.empty(channels, dtype=np.intp)
        # Each channel's row start in a's flat order, and then its pooled
        # entry's flat index.
        self.starts = np.arange(0, self.a.size, self.a.shape[-1]).reshape(channels)
        self.flat = np.empty(channels, dtype=np.intp)
        self.pooled = np.empty(channels, dtype=complex)
        # The pooled values are contiguous, so their float view interleaves
        # the real and imaginary features.
        self.feat = self.pooled.view(float)
        self.feat_col = self.feat[..., None]
        self.logits = np.empty(channels[:-1] + layers.head_b.shape[-1:])
        self.logits_col = self.logits[..., None]
        # Each row's largest logit, and then its sum of exponentials.
        self.column = np.empty(channels[:-1] + (1,))
        self.probs = np.empty(self.logits.shape)

    def forward(self, windows: np.ndarray) -> np.ndarray:
        """Class probabilities of ``windows``."""
        layers, a, logits, column, probs = self.layers, self.a, self.logits, self.column, self.probs
        self.y = _filter_bank(windows, layers.bank, out=self.sums)
        # Split rectifier: adding the biases ``bias_re + 1j bias_im`` is the
        # two real adds, and one maximum on the float view rectifies both
        # parts.
        np.add(self.y, self.bias, out=a)
        np.maximum(self.a_parts, 0.0, out=self.a_parts)
        # Max-modulus pooling, the first index on ties: each pooled entry's
        # flat index is its row's start plus its argmax.
        np.abs(a, out=self.modulus).argmax(axis=-1, out=self.idx)
        a.take(np.add(self.idx, self.starts, out=self.flat), out=self.pooled)
        # Affine head and softmax. One matrix-vector product per feature
        # vector, batched or not, so a batch rounds exactly as its rows would
        # alone; head parameters with a leading network axis meet the
        # network axis of the features, which sits behind a batch's axis.
        np.matmul(layers.head_w, self.feat_col, out=self.logits_col)
        np.add(logits, layers.head_b, out=logits)
        np.maximum.reduce(logits, axis=-1, keepdims=True, out=column)
        np.exp(np.subtract(logits, column, out=probs), out=probs)
        np.divide(probs, np.add.reduce(probs, axis=-1, keepdims=True, out=column), out=probs)
        return probs


class _BackwardStep(_Step):
    """A :class:`_Step` on one signal's windows (L, K) that also runs the
    backward pass, writing the gradients into ``grads``, laid out like
    ``layers`` (new buffers unless given).

    Max-modulus pooling passes each channel's gradient through its pooled
    window alone: of the sum over windows that makes a bias or tap
    gradient, every other term is an exact zero, so the gradient is the one
    pooled term. ``grads.bank[0]`` is the gradient of the bank's first
    branch, ``conj`` of the ``conv1`` gradient, so one update of the bank
    updates ``conj(conv1)``.
    """

    def __init__(self, layers: _Layers, shape: tuple, grads: _Layers | None = None):
        super().__init__(layers, shape)
        bank = layers.bank
        if grads is None:
            grads = _Layers(*map(np.empty_like, vars(layers).values()))
        self.grads = grads
        self.feat_row = self.feat[..., None, :]
        self.dlogits = self.grads.head_b[..., None]
        self.head_w_t = np.swapaxes(layers.head_w, -1, -2)
        self.dfeat = np.empty(self.feat.shape)
        self.dfeat_col = self.dfeat[..., None]
        self.passes = np.empty(self.feat.shape, dtype=bool)
        self.gate = np.empty(self.pooled.shape, dtype=complex)
        self.gate_parts = self.gate.view(float)
        self.gate_col = self.gate[..., None]
        self.tap_gate = np.empty(self.gate_col.shape, dtype=complex)
        # The pooled windows, and for the conjugate branch their conjugates.
        self.pooled_windows = np.empty(bank.shape, dtype=complex)
        self.first_grad = self.grads.bank[0]

    def backward(self, windows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Class probabilities of ``windows``, with the gradients of the
        cross-entropy against the one-hot ``t`` in :attr:`grads`."""
        probs = self.forward(windows)
        grads, dlogits = self.grads, self.dlogits
        np.subtract(probs, t, out=grads.head_b)
        np.multiply(dlogits, self.feat_row, out=grads.head_w)
        np.matmul(self.head_w_t, dlogits, out=self.dfeat_col)
        # The rectifier passes a part exactly where its pooled output part is
        # positive; the features interleave real and imaginary parts.
        np.multiply(self.dfeat, np.greater(self.feat, 0.0, out=self.passes), out=self.gate_parts)
        # + 0.0 as in the sum over windows, which is +0 where the gate is closed.
        np.add(self.gate, 0.0, out=grads.bias)
        tap_gate, pooled = np.conj(self.gate_col, out=self.tap_gate), self.pooled_windows
        windows.T.take(self.idx, axis=0, out=pooled[0])
        np.conj(pooled[0], out=pooled[1])
        np.multiply(tap_gate, pooled, out=grads.bank)
        np.conj(self.first_grad, out=self.first_grad)
        return probs


def _windows(x, layers: _Layers, ndim=(1, 2)) -> np.ndarray:
    """Newest-first windows of one signal (L, K) or of a batch (B, L, K)."""
    return sliding_windows(_as_array("x", x, ndim), layers.bank.shape[-1])


def forward(x: np.ndarray, params: CnnParams) -> tuple[np.ndarray, dict]:
    """Full forward pass on one signal (N,) or a batch (B, N); returns class
    probabilities, (2,) or (B, 2), and the layer cache. A stack of networks,
    whose arrays carry a leading network axis, adds that axis behind a
    batch's."""
    layers = _layers(params)
    windows = _windows(x, layers)
    step = _Step(layers, windows.shape)
    probs = step.forward(windows)
    return probs, {"y": step.y, "a": step.a, "idx": step.idx, "feat": step.feat, "probs": probs}


def predict_proba(x: np.ndarray, params: CnnParams) -> np.ndarray:
    """Class probabilities of one signal (N,) -> (2,), or of a batch (B, N) -> (B, 2);
    a stack of networks adds its axis in front of the classes."""
    return forward(x, params)[0]


def backward(x: np.ndarray, t: np.ndarray, params: CnnParams) -> tuple[float, np.ndarray, dict]:
    """Cross-entropy loss, probabilities, and gradients for one sample.

    Complex parameter gradients are carriers ``dL/dRe + 1j dL/dIm``; the
    pooling layer routes the head gradient to the selected window only, and
    the split rectifier gates real and imaginary flows independently.

    ``x`` (N,) and ``t`` (2,) follow the array rule of :mod:`wlmf.errors`;
    another shape raises ``DimensionMismatchError``.
    """
    t = _as_array("t", t, (1,), dtype=float, lead=(2,))
    layers = _layers(params)
    windows = _windows(x, layers, (1,))
    step = _BackwardStep(layers, windows.shape)
    probs = step.backward(windows, t)
    grads = step.grads
    named = {"head_w": grads.head_w, "head_b": grads.head_b, "bias_re": grads.bias.real,
             "bias_im": grads.bias.imag, "conv1": np.conj(grads.bank[0], out=grads.bank[0])}
    if params.conv2 is not None:
        named["conv2"] = grads.bank[1]
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[int(t.argmax())]))
    return loss, probs, named


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
    x: np.ndarray, classes: list[np.ndarray], params: CnnParams
) -> list[tuple[float, float]]:
    """Mean true-class probability over held-out signals ``x`` (B, N) whose
    ``classes`` list each class's rows, per class, for each network of a
    stack, from one ``predict_proba`` call whose probabilities are (B,
    networks, 2)."""
    probs = predict_proba(x, params)
    # Each mean sums one contiguous row and divides by its length, as
    # np.mean of that row alone does.
    means = [np.add.reduce(probs[rows, :, label].T.copy(), axis=1) / len(rows)
             for label, rows in enumerate(classes)]
    return list(zip(*(m.tolist() for m in means)))


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
    evaluation one ``predict_proba`` call on the holdout signals.

    The stack is held in the step's layout, :class:`_Layers`: the taps as
    one bank ``(branch, network, channel, L)`` of ``conj(conv1)`` and
    ``conv2``, and the biases interleaved as ``(network, channel, [re,
    im])``, all views of one float buffer. One :class:`_BackwardStep`,
    allocated before the first step, writes the gradients into views of a
    second buffer with the same layout, so a step allocates nothing and its
    update is one operation over the whole buffer; the true-class
    probabilities go into one (steps, 2) array. After the last step the
    bank's first branch is conjugated back in place, so the results'
    ``params`` are views of the stack. Each network's result is, bit for
    bit, that of training it alone. Returns the strictly and the widely
    linear :class:`TrainResult`.

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
    # The strictly linear network's layers carry a conjugate branch of
    # exactly +0, which leaves its responses bit-identical; each network's
    # layers stack on a network axis, behind the bank's branch axis. A
    # non-finite parameter is left to the divergence check of the first step.
    nets = [vars(_layers(init_params(c, derive_rng(seed, 1)), finite=False)) for c in configs]
    packed = {name: np.stack([net[name] for net in nets], axis=int(name == "bank"))
              for name in nets[0]}
    # On a complex field the buffer's update is the complex update, bit for
    # bit: lr * (re + 1j im) is (lr * re, lr * im) up to the sign of a zero,
    # and p - (+0) == p - (-0) for every parameter p, none being -0. The
    # update of conj(conv1) is likewise conj of the update of conv1.
    flat = np.concatenate([array.ravel().view(float) for array in packed.values()])
    grad_flat = np.empty_like(flat)
    update = np.empty_like(flat)
    layers = _Layers(**_flat_views(flat, packed))
    bank = layers.bank
    params = CnnParams(bank[0], bank[1], layers.bias.real, layers.bias.imag,
                       layers.head_w, layers.head_b)
    names = [f.name for f in fields(CnnParams)]
    views = [CnnParams(**{name: getattr(params, name)[i] for name in names}) for i in range(2)]
    views[0].conv2 = None
    windows = _windows(stream_x, layers)
    targets = np.eye(2)[stream_labels]
    step = _BackwardStep(layers, windows.shape[1:], _Layers(**_flat_views(grad_flat, packed)))
    held_branch = step.grads.bank[1, 0]
    classes = [np.flatnonzero(holdout_labels == label) for label in range(2)]

    p_true = np.empty((total, len(configs)))
    evals: list[list[tuple[int, float, float]]] = [[] for _ in configs]
    samples = zip(windows, targets, stream_labels.tolist(), p_true)
    for iteration, (sample_windows, t, label, p_row) in enumerate(samples, start=1):
        probs = step.backward(sample_windows, t)
        held_branch.fill(0.0)
        # Exactly where the loss -log(p) is not finite: p 0 or NaN.
        p = probs.take(label, axis=1, out=p_row).tolist()
        diverged = [c.mode for c, p_net in zip(configs, p) if not p_net > 0]
        if diverged:
            raise DivergenceDetectedError(
                f"non-finite loss of the {diverged[0]!r} network at iteration {iteration}"
            )
        np.subtract(flat, np.multiply(grad_flat, config.learning_rate, out=update), out=flat)
        if iteration % config.eval_every == 0:
            # The holdout is scored on the public parameters, conv1 itself.
            np.conj(bank[0], out=bank[0])
            means = _holdout_means(holdout_x, classes, params)
            np.conj(bank[0], out=bank[0])
            for net_evals, net_means in zip(evals, means):
                net_evals.append((iteration, *net_means))
    np.conj(bank[0], out=bank[0])
    steps, patterns = range(1, total + 1), (stream_labels + 1).tolist()
    return tuple(
        TrainResult(view, list(zip(steps, patterns, trace)), net_evals,
                    first_sustained=_first_sustained(net_evals))
        for view, trace, net_evals in zip(views, p_true.T.tolist(), evals)
    )
