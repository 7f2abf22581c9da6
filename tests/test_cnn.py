import copy
import math
from dataclasses import fields

import numpy as np
import pytest

import wlmf.cnn as cnn
from wlmf import (
    CnnConfig,
    DimensionMismatchError,
    DivergenceDetectedError,
    InvalidParameterError,
    NonFiniteInputError,
    WlmfError,
    derive_rng,
    predict_proba,
    train,
)
from wlmf.cnn import (
    _first_sustained,
    backward,
    forward,
    init_params,
    make_dataset,
)
from wlmf.filters import apply_filter_sequence
from wlmf.noise import sliding_windows

from helpers import (
    dense_backward,
    gradient_check,
    kink_free_case,
    make_dataset_per_sample,
    random_cnn_params,
)


def test_dataset_unit_energy_and_balance():
    samples = make_dataset(10_000, np.random.default_rng(70))
    ones = 0
    for sample in samples:
        assert abs(np.linalg.norm(sample.x) ** 2 - 1.0) <= 1e-10
        assert sample.pattern in (1, 2)
        assert 0 <= sample.start <= 5
        expected_t = [1.0, 0.0] if sample.pattern == 1 else [0.0, 1.0]
        assert np.array_equal(sample.t, expected_t)
        ones += sample.pattern == 1
    assert abs(ones - 5000) <= 150


def _dataset_bits(samples):
    """Every field of every sample: the signal and target bytes, and the
    pattern and start values with their types."""
    return (
        np.array([sample.x for sample in samples], dtype=complex).tobytes(),
        np.array([sample.t for sample in samples], dtype=float).tobytes(),
        [(sample.x.dtype, sample.x.shape, sample.t.dtype, sample.t.shape) for sample in samples],
        [(type(sample.pattern), sample.pattern, type(sample.start), sample.start)
         for sample in samples],
    )


@pytest.mark.parametrize("input_len", [3, 8, 12])
@pytest.mark.parametrize("count", [0, 1, 7, 2000])
def test_dataset_matches_per_sample_reference(count, input_len):
    """The batched arithmetic gives the per-sample loop's signals bit for bit
    and leaves a passed generator in the same state."""
    seed = 90 + count
    gen, reference_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng, reference_rng in ((seed, seed), (gen, reference_gen)):
        got = make_dataset(count, rng, input_len=input_len)
        want = make_dataset_per_sample(count, reference_rng, input_len=input_len)
        assert len(got) == len(want) == count
        assert _dataset_bits(got) == _dataset_bits(want)
    assert gen.integers(2**62) == reference_gen.integers(2**62)


def test_conv_wl_zero_branch_matches_sl():
    """A zero conjugate branch, and a strictly linear network's missing one,
    give the plain contraction of ``conj(conv1)`` with the windows bit for
    bit, signs of zeros included."""
    rng = np.random.default_rng(72)
    config = CnnConfig(mode="wl")
    params_wl = random_cnn_params(rng, config)
    params_wl.conv2[:] = 0.0
    params_sl = copy.deepcopy(params_wl)
    params_sl.conv2 = None
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    windows = sliding_windows(x, config.filter_len)
    want = np.einsum("cl,lk->ck", np.conj(params_wl.conv1), windows).view(float)
    for params in (params_wl, params_sl):
        got = forward(x, params)[1]["y"].view(float)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_conv_single_tap_reproduces_input():
    config = CnnConfig(mode="sl", filter_len=1)
    params = init_params(config, 0)
    params.conv1[:] = 1.0
    x = np.arange(8, dtype=complex) * (0.5 - 0.25j)
    y = forward(x, params)[1]["y"]
    assert y.shape == (CnnConfig.channels, 8)
    assert np.allclose(y, x, atol=1e-15)


@pytest.mark.parametrize("mode", ["sl", "wl"])
def test_conv_channels_are_matched_filters(mode):
    """Each channel's pre-activation is, bit for bit, ``apply_filter_sequence``
    run with that channel's taps alone, on one signal or a batch; and a bank
    on a stack of sequences equals each filter on each sequence."""
    rng = np.random.default_rng(80)
    params = random_cnn_params(rng, CnnConfig(mode=mode))
    batch = np.stack([sample.x for sample in make_dataset(20, rng)])
    y_batch = forward(batch, params)[1]["y"]
    for b, x in enumerate(batch):
        y = forward(x, params)[1]["y"]
        assert np.array_equal(y, y_batch[b])
        for c in range(params.conv1.shape[0]):
            if params.conv2 is None:
                assert np.array_equal(y[c], apply_filter_sequence(x, params.conv1[c]))
            else:
                channel = apply_filter_sequence(x, params.conv1[c], params.conv2[c])
                assert np.array_equal(y[c], channel)

    f1, f2 = random_cnn_params(rng, CnnConfig(mode="wl")).conv1, params.conv1
    stack = (rng.standard_normal((2, 3, 11)) + 1j * rng.standard_normal((2, 3, 11)))[..., ::2]
    out = apply_filter_sequence(stack, f1, f2)
    assert out.shape == (2, 3, f1.shape[0], 4)
    for index in np.ndindex(stack.shape[:-1]):
        for c in range(f1.shape[0]):
            single = apply_filter_sequence(stack[index], f1[c], f2[c])
            assert np.array_equal(out[index][c], single)


def _unit_tap_params(conv1, bias_re=None, bias_im=None, head_b=None):
    """A strictly linear network of one-tap channels ``conv1`` (C,), so that
    channel c's pre-activation is ``conj(conv1[c])`` times the input, exactly;
    with unit taps its activations ``a`` are the rectified input. Biases and
    the head bias default to zero, the head weights are zero."""
    channels = len(conv1)
    return cnn.CnnParams(
        conv1=np.asarray(conv1, dtype=complex)[:, None],
        conv2=None,
        bias_re=np.zeros(channels) if bias_re is None else np.asarray(bias_re, dtype=float),
        bias_im=np.zeros(channels) if bias_im is None else np.asarray(bias_im, dtype=float),
        head_w=np.zeros((2, 2 * channels)),
        head_b=np.zeros(2) if head_b is None else np.asarray(head_b, dtype=float),
    )


def test_split_relu_examples():
    """The rectifier adds each channel's real biases to the real and
    imaginary parts and rectifies each part alone; a rectified part is +0."""
    x = np.array([1.0 + 1.0j, -1.0 - 1.0j, -0.5 + 0.5j])
    a = forward(x, _unit_tap_params([1.0, 1.0, 1.0]))[1]["a"]
    assert np.array_equal(a, np.tile([1.0 + 1.0j, 0.0, 0.5j], (3, 1)))
    a = forward(x, _unit_tap_params([1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]))[1]["a"]
    assert np.array_equal(a[2], [2.0, 0.0, 0.5])
    zeros = a.view(float) == 0.0
    assert np.any(zeros) and not np.any(np.signbit(a.view(float))[zeros])


def test_max_modulus_pool_examples():
    """Each channel keeps its largest-modulus activation, the first index on
    ties, and the choice does not change when the activations are scaled:
    here channels 1 and 2 carry channel 0's activations times 2 and 0.5."""
    params = _unit_tap_params([1.0, 2.0, 0.5])
    for x, want_idx in (([1.0, 3.0j, 2.0], 1), (np.full(4, 2.0 + 1.0j), 0),
                        ([1.0, 3.0j, 2.0, 0.5], 1)):
        _, cache = forward(np.asarray(x, dtype=complex), params)
        assert np.array_equal(cache["idx"], [want_idx] * 3)
        pooled = cache["feat"].view(complex)
        assert np.array_equal(pooled, cache["a"][:, want_idx])
    assert np.array_equal(pooled, [3.0j, 6.0j, 1.5j])


def test_max_modulus_pool_on_a_stack():
    """A (B, C, K) batch, and a (B, networks, C, K) stack of networks on it,
    pool like np.argmax and take_along_axis row by row: the first index on
    ties, the same shapes and dtypes."""
    rng = np.random.default_rng(81)
    x = 0.3 * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    x[0] = 2.0 - 1.0j
    x[1, [1, 4]] = 5.0
    x[2, [2, 5]] = [3.0j, 3.0]
    x[3] = 0.0
    net = _unit_tap_params(np.exp(1j * np.array([0.0, 2.0, 4.0])))
    other = _unit_tap_params(np.exp(1j * np.array([1.0, 3.0, 5.0])))
    other.conv2 = 0.5j * other.conv1
    for params in (net, _stack(net, other)):
        _, cache = forward(x, params)
        a, idx, pooled = cache["a"], cache["idx"], cache["feat"].view(complex)
        rows = a.reshape(-1, a.shape[-1])
        want_idx = np.array([np.argmax(np.abs(row)) for row in rows]).reshape(a.shape[:-1])
        want = np.take_along_axis(a, want_idx[..., None], axis=-1)[..., 0]
        assert idx.shape == want_idx.shape and idx.dtype == want_idx.dtype
        assert pooled.shape == want.shape and pooled.dtype == want.dtype
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(pooled, want)
        # Channel 0 of the first network has unit taps.
        first = idx[:, 0, 0] if idx.ndim == 3 else idx[:, 0]
        assert np.array_equal(first, [0, 1, 2, 0])
        assert np.all(idx[3] == 0)


def test_head_forward_examples():
    """The head reads the pooled values as interleaved real and imaginary
    features; its softmax stays finite at logits of +-1000."""
    pooled = np.array([0.2 + 0.1j, 0.4 + 0.5j, 0.0 + 1.0j])
    # One sample, one window: each channel's activation is its conjugated tap.
    x = np.ones(1, dtype=complex)
    probs, cache = forward(x, _unit_tap_params(np.conj(pooled)))
    assert np.array_equal(cache["feat"], [0.2, 0.1, 0.4, 0.5, 0.0, 1.0])
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)
    probs = forward(x, _unit_tap_params(np.conj(pooled), head_b=[10.0, -10.0]))[0]
    assert abs(probs[0] - 1.0) <= 1e-8 and probs[1] <= 1e-8
    probs = forward(x, _unit_tap_params(np.conj(pooled), head_b=[1000.0, -1000.0]))[0]
    assert np.all(np.isfinite(probs))
    assert abs(np.sum(probs) - 1.0) <= 1e-12


def test_forward_probabilities_normalized():
    rng = np.random.default_rng(73)
    for mode in ("sl", "wl"):
        config = CnnConfig(mode=mode)
        for _ in range(20):
            params = random_cnn_params(rng, config)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            probs, _ = forward(x, params)
            assert abs(np.sum(probs) - 1.0) <= 1e-12
            assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_model_nesting_is_exact():
    rng = np.random.default_rng(74)
    params_wl = random_cnn_params(rng, CnnConfig(mode="wl"))
    params_wl.conv2[:] = 0.0
    params_sl = copy.deepcopy(params_wl)
    params_sl.conv2 = None
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    t = np.array([1.0, 0.0])
    assert np.array_equal(predict_proba(x, params_wl), predict_proba(x, params_sl))
    loss_wl, probs_wl, grads_wl = backward(x, t, params_wl)
    loss_sl, probs_sl, grads_sl = backward(x, t, params_sl)
    assert loss_wl == loss_sl
    assert np.array_equal(probs_wl, probs_sl)
    assert np.array_equal(grads_wl["conv1"], grads_sl["conv1"])
    assert np.array_equal(grads_wl["head_w"], grads_sl["head_w"])
    assert "conv2" in grads_wl and "conv2" not in grads_sl


def _stack(sl, wl):
    """The two-row stack of a strictly and a widely linear network, as
    ``train`` builds it: the strictly linear row has a zero conjugate branch."""
    rows = {**vars(sl), "conv2": np.zeros_like(sl.conv1)}
    return cnn.CnnParams(**{name: np.stack([rows[name], getattr(wl, name)]) for name in rows})


def test_batched_prediction_matches_per_sample():
    rng = np.random.default_rng(79)
    batch = np.stack([sample.x for sample in make_dataset(100, rng)])
    for mode in ("sl", "wl"):
        params = random_cnn_params(rng, CnnConfig(mode=mode))
        assert np.all(params.bias_re != 0.0) and np.all(params.bias_im != 0.0)
        assert mode == "sl" or np.all(params.conv2 != 0.0)
        probs = predict_proba(batch, params)
        assert probs.shape == (100, 2)
        for b in range(100):
            single = predict_proba(batch[b], params)
            assert single.shape == (2,)
            assert np.max(np.abs(probs[b] - single)) <= 1e-15
    params_wl = random_cnn_params(rng, CnnConfig(mode="wl"))
    params_wl.conv2[:] = 0.0
    params_sl = copy.deepcopy(params_wl)
    params_sl.conv2 = None
    assert np.array_equal(predict_proba(batch, params_wl), predict_proba(batch, params_sl))
    # Every network of a stack meets every signal of a batch, bit for bit.
    nets = [random_cnn_params(rng, CnnConfig(mode=mode)) for mode in ("sl", "wl")]
    probs = predict_proba(batch, _stack(*nets))
    assert probs.shape == (100, 2, 2)
    for b in range(100):
        for n, net in enumerate(nets):
            assert np.array_equal(probs[b, n], predict_proba(batch[b], net))


@pytest.mark.parametrize("mode", ["sl", "wl"])
def test_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(75 if mode == "sl" else 76)
    for _ in range(5):
        sample, params = kink_free_case(rng, mode)
        assert gradient_check(sample, params) <= 1e-5


def _backward_cases(filter_len, count, ties=False):
    """(kind, x, t, params) for a strictly and a widely linear network and
    their stack as ``train`` builds it, the strictly linear row with a zero
    conjugate branch. In every third case channel 1 of each network is
    rectified to all zeros. With ``ties``, in every other case channel 0
    responds only to a window's newest sample, which windows 1 and 4 share
    and which dominates: an exact modulus tie between two distinct windows."""
    rng = np.random.default_rng(84 + filter_len)
    for i in range(count):
        sl, wl = (random_cnn_params(rng, CnnConfig(mode, 8, filter_len)) for mode in ("sl", "wl"))
        x = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        if i % 3 == 0:
            for net in (sl, wl):
                net.bias_re[1] = net.bias_im[1] = -10.0
        if ties and i % 2 == 0:
            x[filter_len] = x[filter_len + 3] = 3.0 + 2.0j
            newest = np.eye(filter_len)[0]
            sl.conv1[0], wl.conv1[0], wl.conv2[0] = 0.5 * newest, 0.5 * newest, 0.1j * newest
        t = np.eye(2)[i % 2]
        yield from (("sl", x, t, sl), ("wl", x, t, wl), ("stack", x, t, _stack(sl, wl)))


def _gradients(kind, x, t, params):
    """Public ``backward``'s gradients, or for a stack those of the
    backward step ``train`` runs, named as ``backward`` names them."""
    if kind != "stack":
        return backward(x, t, params)[2]
    layers = cnn._layers(params)
    windows = cnn._windows(x, layers)
    step = cnn._BackwardStep(layers, windows.shape)
    step.backward(windows, t)
    grads = step.grads
    return {"head_w": grads.head_w, "head_b": grads.head_b, "bias_re": grads.bias.real,
            "bias_im": grads.bias.imag, "conv1": np.conj(grads.bank[0]), "conv2": grads.bank[1]}


def test_backward_is_the_dense_backward_bit_for_bit():
    """At the paper's lengths the pooled-window gradients are the dense
    formulation's bit for bit, values and signs, for strictly and widely
    linear networks and their stack, with a channel rectified to all zeros
    and with an exact modulus tie, where the first window wins. A zero tap
    gradient is compared by value only: the sign of the dense product's
    zero depends on the order its matmul kernel adds the exact zeros in."""
    ties = 0
    for kind, x, t, params in _backward_cases(3, 60, ties=True):
        got, want = _gradients(kind, x, t, params), dense_backward(x, t, params)[1]
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name].shape == value.shape and np.array_equal(got[name], value), (kind, name)
            signed = value != 0 if name in ("conv1", "conv2") else slice(None)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got[name]))[signed],
                                      np.signbit(part(value))[signed]), (kind, name)
        if x[3] == x[6]:
            ties += 1
            assert np.all(forward(x, params)[1]["idx"][..., 0] == 1)
    assert ties == 3 * 30


@pytest.mark.parametrize("filter_len", [1, 2, 4, 8])
def test_backward_is_the_dense_backward_at_other_lengths(filter_len):
    """At other lengths the dense product may run through a BLAS kernel that
    rounds its one nonzero term without a fused multiply-add, so a tap
    gradient may differ from it by the rounding of that one complex product;
    every other gradient is the dense formulation's bit for bit."""
    for kind, x, t, params in _backward_cases(filter_len, 30):
        got, want = _gradients(kind, x, t, params), dense_backward(x, t, params)[1]
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name].shape == value.shape, (kind, name)
            if name in ("conv1", "conv2"):
                bound = 8 * np.finfo(float).eps * np.abs(value)
                assert np.all(np.abs(got[name] - value) <= bound), (kind, name)
            else:
                assert np.array_equal(got[name], value), (kind, name)
                assert np.array_equal(np.signbit(got[name]), np.signbit(value)), (kind, name)


def test_saturated_head_has_vanishing_gradients():
    rng = np.random.default_rng(77)
    params = random_cnn_params(rng, CnnConfig(mode="sl"))
    params.head_w[:] = 0.0
    params.head_b[:] = [40.0, 0.0]
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    loss, probs, grads = backward(x, np.array([1.0, 0.0]), params)
    assert 0.0 <= loss <= 1e-12
    assert np.linalg.norm(grads["head_b"]) <= 1e-12
    assert np.linalg.norm(grads["head_w"]) <= 1e-12


def test_init_shares_stream_across_modes():
    sl = init_params(CnnConfig(mode="sl"), derive_rng(9, 1))
    wl = init_params(CnnConfig(mode="wl"), derive_rng(9, 1))
    assert np.array_equal(sl.conv1, wl.conv1)
    assert np.array_equal(sl.head_w, wl.head_w)
    assert sl.conv2 is None and wl.conv2.shape == wl.conv1.shape
    assert np.all(wl.conv2 == 0.0)
    rng = np.random.default_rng(78)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.array_equal(predict_proba(x, sl), predict_proba(x, wl))


@pytest.fixture(scope="module")
def trained_pair():
    """The seed and the (strictly, widely linear) results of one ``train``."""
    seed = 21
    return seed, train(seed)


def test_train_records_have_expected_shape(trained_pair):
    _, results = trained_pair
    steps = CnnConfig.epochs * CnnConfig.realizations_per_epoch
    for result in results:
        assert len(result.trace) == steps == 2000
        assert [row[0] for row in result.trace] == list(range(1, steps + 1))
        assert all(0.0 < row[2] < 1.0 for row in result.trace)
        assert [row[0] for row in result.evals] == list(range(10, steps + 1, 10))
        if result.first_sustained is not None:
            assert result.first_sustained % CnnConfig.eval_every == 0


def _stack_id(value):
    return "-".join(value) if isinstance(value, tuple) else None


@pytest.mark.parametrize("modes", [("sl",), ("wl",), ("sl", "wl")], ids=_stack_id)
def test_train_is_the_public_per_sample_path(trained_pair, modes):
    """Each network of the pair gets from ``train``, bit for bit, the trace,
    evaluations and parameters of a loop over public ``backward`` and
    ``predict_proba`` on the same streams, for that network alone."""
    seed, results = trained_pair
    assert len(results) == 2
    for mode in modes:
        result = dict(zip(("sl", "wl"), results))[mode]
        config = CnnConfig(mode=mode)
        steps = config.epochs * config.realizations_per_epoch

        stream = make_dataset(steps, derive_rng(seed, 0))
        holdout = make_dataset(config.holdout_size, derive_rng(seed, 2))
        holdout_x = np.array([sample.x for sample in holdout])
        labels = np.array([sample.pattern - 1 for sample in holdout])
        params = init_params(config, derive_rng(seed, 1))
        trace, evals = [], []
        for step, sample in enumerate(stream, start=1):
            _, probs, grads = backward(sample.x, sample.t, params)
            trace.append((step, sample.pattern, float(probs[sample.pattern - 1])))
            for name, grad in grads.items():
                value = getattr(params, name)
                value -= config.learning_rate * grad
            if step % config.eval_every == 0:
                true_class = predict_proba(holdout_x, params)[np.arange(len(labels)), labels]
                means = [float(np.mean(true_class[labels == c])) if np.any(labels == c) else 1.0
                         for c in (0, 1)]
                evals.append((step, *means))

        assert result.trace == trace, mode
        assert result.evals == evals and len(evals) == 200, mode
        for name in ("conv1", "conv2", "bias_re", "bias_im", "head_w", "head_b"):
            got, want = getattr(result.params, name), getattr(params, name)
            assert got is want is None or np.array_equal(got, want), (mode, name)


def _public_per_sample_run(seed, mode, input_len, filter_len):
    """The trace, evaluations and parameters of one network trained alone
    by a loop over public ``backward`` and ``predict_proba`` on the streams
    ``train`` draws from ``seed``."""
    config = CnnConfig(mode=mode, input_len=input_len, filter_len=filter_len)
    steps = config.epochs * config.realizations_per_epoch
    stream = make_dataset(steps, derive_rng(seed, 0), input_len=input_len)
    holdout = make_dataset(config.holdout_size, derive_rng(seed, 2), input_len=input_len)
    holdout_x = np.array([sample.x for sample in holdout])
    labels = np.array([sample.pattern - 1 for sample in holdout])
    params = init_params(config, derive_rng(seed, 1))
    trace, evals = [], []
    for step, sample in enumerate(stream, start=1):
        _, probs, grads = backward(sample.x, sample.t, params)
        trace.append((step, sample.pattern, float(probs[sample.pattern - 1])))
        for name, grad in grads.items():
            value = getattr(params, name)
            value -= config.learning_rate * grad
        if step % config.eval_every == 0:
            true_class = predict_proba(holdout_x, params)[np.arange(len(labels)), labels]
            evals.append((step, *(float(np.mean(true_class[labels == c])) for c in (0, 1))))
    return trace, evals, params


@pytest.mark.parametrize("input_len, filter_len", [(10, 4), (8, 1)])
def test_train_is_the_public_per_sample_path_at_other_shapes(input_len, filter_len):
    """At other signal and filter lengths too, each network of the pair gets
    from ``train`` the public per-sample loop's results bit for bit."""
    seed = 23
    results = train(seed, input_len=input_len, filter_len=filter_len)
    for mode, result in zip(("sl", "wl"), results):
        trace, evals, params = _public_per_sample_run(seed, mode, input_len, filter_len)
        assert result.trace == trace, mode
        assert result.evals == evals and len(evals) == 200, mode
        for name in ("conv1", "conv2", "bias_re", "bias_im", "head_w", "head_b"):
            got, want = getattr(result.params, name), getattr(params, name)
            if got is want is None:
                continue
            assert got.shape == want.shape and got.dtype == want.dtype, (mode, name)
            # The bytes, so signs of zeros count too.
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (mode, name)


def test_train_scores_the_holdout_after_the_last_step(monkeypatch):
    """After the last of its 2,000 steps, ``train`` scores the 200
    evaluations of both networks ``_SCORED_PER_CALL`` = k at a time: one
    ``predict_proba`` call of (holdout, N) signals -> (holdout, 2n, 2) per
    block of n evaluations, n = k but in a shorter last call."""
    events = []
    step_backward = cnn._BackwardStep.backward

    def counting_backward(self, windows, t):
        events.append("backward")
        return step_backward(self, windows, t)

    def counting_predict_proba(x, params):
        probs = predict_proba(x, params)
        events.append((np.shape(x), probs.shape))
        return probs

    monkeypatch.setattr(cnn._BackwardStep, "backward", counting_backward)
    monkeypatch.setattr(cnn, "predict_proba", counting_predict_proba)
    train(5)
    config = CnnConfig()
    steps = config.epochs * config.realizations_per_epoch
    evaluations = steps // config.eval_every
    per_call, batch = cnn._SCORED_PER_CALL, config.holdout_size
    assert events[:steps] == ["backward"] * steps == ["backward"] * 2000
    calls = events[steps:]
    assert len(calls) == math.ceil(evaluations / per_call)
    sizes = [min(per_call, evaluations - start) for start in range(0, evaluations, per_call)]
    assert sum(sizes) == evaluations == 200
    assert calls == [((batch, config.input_len), (batch, 2 * n, 2)) for n in sizes]


@pytest.fixture(scope="module")
def default_stack_run():
    """``train(23)`` at the default ``_SCORED_PER_CALL``."""
    return train(23)


@pytest.mark.parametrize("per_call", [1, 7, 64])
def test_train_stack_size_changes_no_bit(monkeypatch, default_stack_run, per_call):
    """The number of evaluations scored per ``predict_proba`` call changes no
    bit of the traces, evaluations or parameters: 7 leaves a call of 4
    evaluations at the end, and 64 stacks 128 networks."""
    monkeypatch.setattr(cnn, "_SCORED_PER_CALL", per_call)
    for got, want in zip(train(23), default_stack_run):
        assert got.trace == want.trace
        assert [(i, a.hex(), b.hex()) for i, a, b in got.evals] == [
            (i, a.hex(), b.hex()) for i, a, b in want.evals
        ]
        assert got.first_sustained == want.first_sustained
        for name in ("conv1", "conv2", "bias_re", "bias_im", "head_w", "head_b"):
            a, b = getattr(got.params, name), getattr(want.params, name)
            assert a is b is None or (
                a.shape == b.shape and a.dtype == b.dtype
                and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
            ), name


def _train_from_edited_params(monkeypatch, seed, edit):
    """``train`` with ``edit(config, params)`` applied to the initial
    parameters of each network."""
    draw = cnn.init_params

    def init_params_edited(config, rng):
        params = draw(config, rng)
        edit(config, params)
        return params

    monkeypatch.setattr(cnn, "init_params", init_params_edited)
    return train(seed)


def test_train_divergence_on_underflowed_true_class(monkeypatch):
    """A head bias gap that rounds the true class's probability to exactly 0
    makes the loss infinite at the first step."""
    first = make_dataset(1, derive_rng(9, 0))[0]
    label = first.pattern - 1

    def widen_gap(config, params):
        params.head_b[label], params.head_b[1 - label] = -1e4, 1e4
        assert predict_proba(first.x, params)[label] == 0.0

    with pytest.raises(DivergenceDetectedError, match="iteration 1$"):
        _train_from_edited_params(monkeypatch, 9, widen_gap)


@pytest.mark.parametrize(
    "modes, name",
    [
        (("sl",), "conv1"),
        (("wl",), "conv2"),
        (("sl",), "bias_im"),
        (("wl",), "head_w"),
        (("wl",), "bias_re"),
        (("sl", "wl"), "conv2"),
        (("sl", "wl"), "bias_re"),
    ],
    ids=_stack_id,
)
def test_train_divergence_on_nan_parameter(monkeypatch, modes, name):
    """A NaN parameter of the networks in ``modes`` that have it makes their
    loss NaN at the first step; the error names the first of them in the
    pair's (sl, wl) order.  The strictly linear network has no ``conv2``."""
    poisoned = [mode for mode in ("sl", "wl")
                if mode in modes and not (mode == "sl" and name == "conv2")]

    def poison(config, params):
        if config.mode in poisoned:
            getattr(params, name).flat[0] = np.nan

    with pytest.raises(DivergenceDetectedError,
                       match=f"'{poisoned[0]}' network at iteration 1$"):
        _train_from_edited_params(monkeypatch, 9, poison)


def test_train_reports_a_non_finite_parameter_after_the_last_step(monkeypatch):
    """A -inf real bias leaves every loss finite: the channel's rectified
    real part is 0 and passes no gradient, so the bias stays -inf. The
    holdout, scored after the last step, then raises
    ``NonFiniteInputError``. A divergence at a later step than an
    evaluation that holds the bias is raised first: with an evaluation after
    every step, a head bias gap that gives the first sample probability 1
    and the second, of the other class, 0 diverges at iteration 2."""
    first, second = make_dataset(2, derive_rng(9, 0))
    assert first.pattern != second.pattern
    steps = []
    step_backward = cnn._BackwardStep.backward

    def counting_backward(self, windows, t):
        steps.append(len(steps) + 1)
        return step_backward(self, windows, t)

    def sink_bias(config, params):
        if config.mode == "sl":
            params.bias_re[0] = -np.inf

    def sink_bias_and_gap(config, params):
        sink_bias(config, params)
        label = first.pattern - 1
        params.head_b[label], params.head_b[1 - label] = 1e4, -1e4

    monkeypatch.setattr(cnn._BackwardStep, "backward", counting_backward)
    with pytest.raises(NonFiniteInputError, match="^bias_re"):
        _train_from_edited_params(monkeypatch, 9, sink_bias)
    assert len(steps) == CnnConfig.epochs * CnnConfig.realizations_per_epoch == 2000
    monkeypatch.setattr(CnnConfig, "eval_every", 1)
    with pytest.raises(DivergenceDetectedError, match="'sl' network at iteration 2$"):
        _train_from_edited_params(monkeypatch, 9, sink_bias_and_gap)


def test_first_sustained_scan():
    assert _first_sustained([(10, 0.95, 0.95), (20, 0.5, 0.95), (30, 0.95, 0.95),
                             (40, 0.95, 0.95)]) == 30
    assert _first_sustained([(10, 0.95, 0.93), (20, 0.99, 0.96)]) == 10
    assert _first_sustained([(10, 0.95, 0.95), (20, 0.95, 0.85)]) is None
    assert _first_sustained([]) is None


def test_config_validation():
    with pytest.raises(ValueError):
        CnnConfig(mode="other")
    with pytest.raises(Exception):
        CnnConfig(input_len=2, filter_len=3)
    with pytest.raises(DimensionMismatchError, match="pattern"):
        CnnConfig(input_len=2, filter_len=2)
    config = CnnConfig(input_len=np.int64(3), filter_len=np.uint8(2))
    assert type(config.input_len) is int and type(config.filter_len) is int


def test_config_fields_and_schedule():
    """Only the mode and the lengths are fields; the schedule that
    ``train`` runs is fixed on the class."""
    assert [field.name for field in fields(CnnConfig)] == ["mode", "input_len", "filter_len"]
    config = CnnConfig()
    schedule = (config.channels, config.learning_rate, config.epochs,
                config.realizations_per_epoch, config.eval_every, config.holdout_size)
    assert schedule == (3, 0.05, 10, 200, 10, 100)
    with pytest.raises(TypeError):
        CnnConfig(epochs=2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode", "other"),
        ("filter_len", 0),
        ("input_len", 0),
        ("input_len", 8.5),
        ("input_len", True),
        ("input_len", 8.0),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(InvalidParameterError, match=field) as info:
        CnnConfig(**{field: value})
    assert isinstance(info.value, WlmfError) and isinstance(info.value, ValueError)


def test_backward_rejects_bad_shapes():
    params = init_params(CnnConfig(), 0)
    batch = np.stack([sample.x for sample in make_dataset(3, np.random.default_rng(82))])
    t = np.array([1.0, 0.0])
    for x, target in ((batch, t), (batch[0], np.array([1.0, 0.0, 0.0])),
                      (batch[0], t[None, :]), (batch[0, 0], t)):
        with pytest.raises(DimensionMismatchError):
            backward(x, target, params)


def _stacked_head_b(params):
    """A two-network stack whose head biases lack the network axis."""
    stack = cnn.CnnParams(**{name: np.stack([v, v]) for name, v in vars(params).items()})
    stack.head_b = params.head_b
    return stack


MALFORMED_PARAMS = {
    "conv1-nan": (NonFiniteInputError, lambda p: p.conv1.__setitem__((0, 0), np.nan)),
    "conv1-1d": (DimensionMismatchError, lambda p: setattr(p, "conv1", p.conv1[0])),
    "conv1-strings": (InvalidParameterError, lambda p: setattr(p, "conv1", p.conv1.astype(str))),
    "conv2-short": (DimensionMismatchError, lambda p: setattr(p, "conv2", p.conv2[:2])),
    "conv2-inf": (NonFiniteInputError, lambda p: p.conv2.__setitem__((1, 0), np.inf)),
    "bias_re-short": (DimensionMismatchError, lambda p: setattr(p, "bias_re", p.bias_re[:2])),
    "bias_im-complex": (InvalidParameterError, lambda p: setattr(p, "bias_im", p.bias_im + 1j)),
    "head_w-transposed": (DimensionMismatchError, lambda p: setattr(p, "head_w", p.head_w.T)),
    "head_w-strings": (InvalidParameterError, lambda p: setattr(p, "head_w", p.head_w.astype(str))),
    "head_b-long": (DimensionMismatchError, lambda p: setattr(p, "head_b", np.zeros(3))),
    "head_b-bool": (InvalidParameterError, lambda p: setattr(p, "head_b", np.array([True, False]))),
    "head_b-no-network-axis": (DimensionMismatchError, _stacked_head_b),
}


@pytest.mark.parametrize("call", ["predict_proba", "forward", "backward"])
@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_malformed_params_raise_typed_errors(case, call):
    """A parameter that breaks the array rule, is not finite, or does not fit
    conv1's channels and length, a stack's network axis included, ends in a
    typed error at every public CNN call: not in a numpy error or a NaN."""
    error, edit = MALFORMED_PARAMS[case]
    params = random_cnn_params(np.random.default_rng(83), CnnConfig(mode="wl"))
    params = edit(params) or params
    x = 0.3 * np.ones(8, dtype=complex)
    run = {
        "predict_proba": lambda: predict_proba(x, params),
        "forward": lambda: forward(x, params),
        "backward": lambda: backward(x, np.array([1.0, 0.0]), params),
    }[call]
    with pytest.raises(error):
        run()
