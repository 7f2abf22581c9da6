import copy
from dataclasses import fields

import numpy as np
import pytest

import wlmf.cnn as cnn
from wlmf import (
    CnnConfig,
    DimensionMismatchError,
    DivergenceDetectedError,
    InvalidParameterError,
    WlmfError,
    derive_rng,
    predict_proba,
    train,
)
from wlmf.cnn import (
    _first_sustained,
    _head_forward,
    _max_modulus_pool,
    _split_relu,
    backward,
    forward,
    init_params,
    make_dataset,
)
from wlmf.filters import apply_filter_sequence

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
    rng = np.random.default_rng(72)
    config = CnnConfig(mode="wl")
    params_wl = random_cnn_params(rng, config)
    params_wl.conv2[:] = 0.0
    params_sl = copy.deepcopy(params_wl)
    params_sl.conv2 = None
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.array_equal(forward(x, params_wl)[1]["y"], forward(x, params_sl)[1]["y"])


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


def test_split_relu_examples():
    """The biases come interleaved, ``bias_re + 1j bias_im``, one per channel."""
    out = _split_relu(np.array([[1.0 + 1.0j]]), np.zeros((1, 1), dtype=complex))
    assert out[0, 0] == 1.0 + 1.0j
    out = _split_relu(np.array([[-1.0 - 1.0j]]), np.zeros((1, 1), dtype=complex))
    assert out[0, 0] == 0.0
    out = _split_relu(np.array([[-0.5 + 0.5j]]), np.array([[1.0 - 1.0j]]))
    assert out[0, 0] == 0.5 + 0.0j


def test_max_modulus_pool_examples():
    pooled, idx = _max_modulus_pool(np.array([[1.0, 3.0j, -2.0]]))
    assert pooled[0] == 3.0j
    assert idx[0] == 1
    pooled, idx = _max_modulus_pool(np.full((1, 4), 2.0 - 1.0j))
    assert idx[0] == 0
    extended, idx_ext = _max_modulus_pool(np.array([[1.0, 3.0j, -2.0, 0.5]]))
    assert extended[0] == 3.0j and idx_ext[0] == 1
    _, idx_scaled = _max_modulus_pool(2.0 * np.array([[1.0, 3.0j, -2.0]]))
    assert np.array_equal(idx_scaled, idx_ext[:1])


def test_max_modulus_pool_on_a_stack():
    """A (B, C, K) stack pools like np.argmax and take_along_axis row by row:
    the first index on ties, the same shapes and dtypes."""
    rng = np.random.default_rng(81)
    a = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    a[0, 1] = 2.0 - 1.0j
    a[1, 0, [1, 4]] = 5.0
    a[2, 2, [2, 5]] = [3.0j, -3.0]
    a[3, 0] = 0.0
    for stack in (a, a.transpose(1, 0, 2), a[..., ::-1], a[1, 2]):
        pooled, idx = _max_modulus_pool(stack)
        rows = stack.reshape(-1, stack.shape[-1])
        want_idx = np.array([np.argmax(np.abs(row)) for row in rows]).reshape(stack.shape[:-1])
        want = np.take_along_axis(stack, want_idx[..., None], axis=-1)[..., 0]
        assert idx.shape == want_idx.shape and idx.dtype == want_idx.dtype
        assert pooled.shape == want.shape and pooled.dtype == want.dtype
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(pooled, want)
    _, idx = _max_modulus_pool(a)
    assert idx[0, 1] == 0 and idx[1, 0] == 1 and idx[2, 2] == 2 and idx[3, 0] == 0


def test_head_forward_examples():
    pooled = np.array([0.2 + 0.1j, -0.4 + 0.5j, 0.0 + 1.0j])
    feat, logits, probs = _head_forward(pooled, np.zeros((2, 6)), np.zeros(2))
    assert np.array_equal(feat, [0.2, 0.1, -0.4, 0.5, 0.0, 1.0])
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)
    _, _, probs = _head_forward(pooled, np.zeros((2, 6)), np.array([10.0, -10.0]))
    assert abs(probs[0] - 1.0) <= 1e-8 and probs[1] <= 1e-8
    _, _, probs = _head_forward(pooled, np.zeros((2, 6)), np.array([1000.0, -1000.0]))
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
    backward pass ``train`` runs."""
    if kind == "stack":
        return cnn._backward(cnn._windows(x, params), t, params)[1]
    return backward(x, t, params)[2]


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


def test_train_scores_the_holdout_once_per_evaluation(monkeypatch):
    """Each evaluation scores the whole holdout for both networks with one
    ``predict_proba`` call, (holdout, N) signals -> (holdout, 2, 2)."""
    shapes = []

    def counting_predict_proba(x, params):
        probs = predict_proba(x, params)
        shapes.append((np.shape(x), probs.shape))
        return probs

    monkeypatch.setattr(cnn, "predict_proba", counting_predict_proba)
    train(5)
    config = CnnConfig()
    steps = config.epochs * config.realizations_per_epoch
    batch = config.holdout_size
    assert len(shapes) == steps // config.eval_every == 200
    assert set(shapes) == {((batch, config.input_len), (batch, 2, 2))}


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
