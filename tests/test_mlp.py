"""Model math: initialization, forward/backward, split training, aggregation,
and stacked local training of many clients at once."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from music_sim import mlp, protocols
from music_sim.data import Shard, make_blobs
from music_sim.engine import Engine
from music_sim.errors import (EmptyInput, EmptyWidths, LengthMismatch, ShapeMismatch,
                               StaleCache)
from music_sim.protocols import FlSession, TrainingConfig, run_fl
from music_sim.radio import AccessScheme, SchemeKind
from music_sim.topology import build_topology

from conftest import blob_data, simple_radio, star_doc, star_topology


def _data(batch=8, dim=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, dim)), rng.integers(0, classes, batch)


def test_param_count_hand_value():
    # [4,8,3]: 4*8+8 + 8*3+3 = 40 + 27 = 67
    model = mlp.init_model((4, 8, 3), "ce", seed=0)
    assert model.param_count == 67
    assert model.payload_bits == 67 * 32


def test_init_glorot_bounds_and_zero_biases():
    model = mlp.init_model((20, 30, 5), "mse", seed=1)
    bound0 = np.sqrt(6.0 / (20 + 30))
    assert np.all(np.abs(model.weights[0]) <= bound0)
    assert np.ptp(model.weights[0]) > bound0  # actually spread out, not degenerate
    assert all(np.all(b == 0.0) for b in model.biases)


def test_init_is_seed_deterministic():
    a = mlp.init_model((4, 5, 3), "ce", seed=42)
    b = mlp.init_model((4, 5, 3), "ce", seed=42)
    c = mlp.init_model((4, 5, 3), "ce", seed=43)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_init_rejects_bad_widths():
    with pytest.raises(EmptyWidths):
        mlp.init_model((4,), "ce", seed=0)
    with pytest.raises(EmptyWidths):
        mlp.init_model((4, 0, 3), "ce", seed=0)
    with pytest.raises(ValueError):
        mlp.init_model((4, 3), "hinge", seed=0)


def test_forward_ce_returns_probabilities():
    model = mlp.init_model((4, 6, 3), "ce", seed=0)
    x, _ = _data()
    probs, cache = mlp.forward(model, x)
    assert probs.shape == (8, 3)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert cache.prediction is probs


def test_forward_mse_returns_linear_output():
    model = mlp.init_model((4, 6, 3), "mse", seed=0)
    x, _ = _data()
    out, _ = mlp.forward(model, x)
    # linear output layer: reproducible directly from the hidden activations
    h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
    assert np.allclose(out, h @ model.weights[1] + model.biases[1])


def test_ce_loss_matches_log_probability():
    model = mlp.init_model((4, 6, 3), "ce", seed=0)
    x, y = _data()
    probs, cache = mlp.forward(model, x)
    expected = -np.mean(np.log(probs[np.arange(8), y]))
    assert mlp.batch_loss(model, cache, y) == pytest.approx(expected, rel=1e-12)


def test_mse_loss_hand_value():
    model = mlp.init_model((2, 2), "mse", seed=0)
    model.weights[0] = np.eye(2)
    model.biases[0] = np.zeros(2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    targets = np.array([[0.0, 0.0], [0.0, 1.0]])
    _, cache = mlp.forward(model, x)
    # residuals: (1,0) and (0,0) -> 0.5 * (1) / 2 = 0.25
    assert mlp.batch_loss(model, cache, targets) == pytest.approx(0.25)


def test_backward_spot_finite_difference():
    model = mlp.init_model((4, 5, 3), "ce", seed=3)
    x, y = _data(batch=6, seed=3)
    _, cache = mlp.forward(model, x)
    grads = mlp.backward(model, cache, y)
    h = 1e-6
    for (l, i, j) in [(0, 0, 0), (0, 3, 4), (1, 2, 1)]:
        bumped = mlp.clone(model)
        bumped.weights[l][i, j] += h
        _, c_hi = mlp.forward(bumped, x)
        hi = mlp.batch_loss(bumped, c_hi, y)
        bumped.weights[l][i, j] -= 2 * h
        _, c_lo = mlp.forward(bumped, x)
        lo = mlp.batch_loss(bumped, c_lo, y)
        fd = (hi - lo) / (2 * h)
        assert grads.weights[l][i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_backward_rejects_stale_cache():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    other = mlp.clone(model)
    x, y = _data()
    _, cache = mlp.forward(model, x)
    with pytest.raises(StaleCache):
        mlp.backward(other, cache, y)


def test_split_composition_matches_monolithic():
    """Chained segment backprop reproduces the monolithic gradients exactly."""
    model = mlp.init_model((5, 7, 6, 4, 3), "ce", seed=4)
    x, y = _data(batch=9, dim=5, seed=4)
    _, full_cache = mlp.forward(model, x)
    reference = mlp.backward(model, full_cache, y)

    segments = mlp.contiguous_cuts(4, (1, 3))  # [0,1) [1,3) [3,4)
    acts, caches = x, []
    for seg in segments:
        acts, cache = mlp.split_forward(model, seg, acts)
        caches.append(cache)
    server_delta, grad = mlp.split_backward_server(model, caches[-1], y)
    total = server_delta
    for cache in reversed(caches[:-1]):
        delta, grad = mlp.split_backward_client(model, cache, grad)
        total = mlp.add_deltas(total, delta)

    for l in range(4):
        assert np.allclose(total.weights[l], reference.weights[l], atol=1e-12)
        assert np.allclose(total.biases[l], reference.biases[l], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(min_value=1, max_value=7), min_size=3, max_size=6),
       loss=st.sampled_from(mlp.LOSSES), data=st.data())
def test_filled_delta_steps_like_the_added_deltas(widths, loss, data):
    """Segments writing into one delta give the same weights, bit for bit, as
    adding their zero-padded full-model deltas, and leave no layer unset."""
    layers = len(widths) - 1
    cuts = data.draw(st.lists(st.integers(min_value=1, max_value=layers - 1),
                              min_size=1, unique=True))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    model = mlp.init_model(widths, loss, seed=seed)
    x, y = _data(batch=5, dim=widths[0], classes=widths[-1], seed=seed)
    acts, caches = x, []
    for seg in mlp.contiguous_cuts(layers, cuts):
        acts, cache = mlp.split_forward(model, seg, acts)
        caches.append(cache)

    added, grad = mlp.split_backward_server(model, caches[-1], y)
    filled = mlp.ParamDelta(widths=model.widths, weights=[None] * layers,
                            biases=[None] * layers)
    _, filled_grad = mlp.split_backward_server(model, caches[-1], y, filled)
    for cache in reversed(caches[:-1]):
        delta, grad = mlp.split_backward_client(model, cache, grad)
        added = mlp.add_deltas(added, delta)
        _, filled_grad = mlp.split_backward_client(model, cache, filled_grad, filled)

    assert all(p is not None for p in filled.weights + filled.biases)
    want = mlp.sgd_step(model, added, 0.05)
    got = mlp.sgd_step(model, filled, 0.05)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(widths=st.lists(st.integers(min_value=1, max_value=7), min_size=3, max_size=6),
       loss=st.sampled_from(mlp.LOSSES), seed=st.integers(min_value=0, max_value=2**16))
def test_split_step_equals_the_monolithic_step(widths, loss, seed):
    """For every contiguous cut set, one split step gives the weights of
    forward -> backward -> sgd_step bit for bit, and the loss before it."""
    layers = len(widths) - 1
    model = mlp.init_model(widths, loss, seed=seed)
    x, y = _data(batch=5, dim=widths[0], classes=widths[-1], seed=seed)
    _, cache = mlp.forward(model, x)
    want = mlp.sgd_step(model, mlp.backward(model, cache, y), 0.05)
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(range(1, layers), n) for n in range(1, layers)):
        got, got_loss = mlp.split_step(model, mlp.contiguous_cuts(layers, cuts), x, y, 0.05)
        assert got_loss == mlp.batch_loss(model, cache, y)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


def _split_case():
    """A model whose widths all differ, so a mis-chained segment's input
    never has the features it expects, with its cut and a batch."""
    model = mlp.init_model((5, 7, 6, 3), "ce", seed=2)
    x, y = _data(batch=6, dim=5, seed=2)
    return model, mlp.contiguous_cuts(3, (1,)), x, y


def test_split_step_refuses_a_non_positive_learning_rate():
    model, cuts, x, y = _split_case()
    for lr in (0.0, -0.1):
        with pytest.raises(ValueError):
            mlp.split_step(model, cuts, x, y, lr)


def test_split_step_refuses_segments_that_skip_or_overlap_a_layer():
    model, _, x, y = _split_case()
    skip = [mlp.CutSpec(0, 1), mlp.CutSpec(2, 3)]
    overlap = [mlp.CutSpec(0, 2), mlp.CutSpec(1, 3)]
    for segments in (skip, overlap):
        with pytest.raises(ShapeMismatch):
            mlp.split_step(model, segments, x, y, 0.05)


def test_split_step_refuses_a_bad_batch():
    model, cuts, x, y = _split_case()
    with pytest.raises(ShapeMismatch):
        mlp.split_step(model, cuts, x[:, :4], y, 0.05)
    with pytest.raises(EmptyInput):
        mlp.split_step(model, cuts, x[:0], y[:0], 0.05)


def test_split_step_refuses_a_wrong_label_count():
    model, cuts, x, y = _split_case()
    with pytest.raises(LengthMismatch):
        mlp.split_step(model, cuts, x, y[:-1], 0.05)


def test_split_step_leaves_the_input_model_untouched():
    model, cuts, x, y = _split_case()
    before = mlp.flatten_params(model).copy()
    stepped, _ = mlp.split_step(model, cuts, x, y, 0.05)
    assert np.array_equal(mlp.flatten_params(model), before)
    assert not np.array_equal(mlp.flatten_params(stepped), before)


# The loss and its gradient as two separate passes, each with its own
# softmax and the log-probabilities picked with `take_along_axis`: the
# reference the fused `mlp._loss_and_grad` is held to, bit for bit.

def _reference_loss(model, logits, targets):
    batch = logits.shape[-2]
    if model.loss == "ce":
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
        return -np.mean(picked, axis=-1)
    residual = logits - targets
    squares = residual * residual
    return 0.5 * squares.reshape(squares.shape[:-2] + (-1,)).sum(axis=-1) / batch


def _reference_output_grad(model, logits, targets):
    batch = logits.shape[-2]
    if model.loss == "ce":
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        hit = targets[..., None] == np.arange(logits.shape[-1])
        return (e / e.sum(axis=-1, keepdims=True) - hit) / batch
    return (logits - targets) / batch


@settings(max_examples=200, deadline=None)
@given(loss=st.sampled_from(mlp.LOSSES),
       lead=st.sampled_from([(), (1,), (3,)]),
       batch=st.integers(min_value=1, max_value=9),
       classes=st.integers(min_value=1, max_value=6),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
       dense_targets=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**16))
def test_loss_and_grad_equals_the_separate_passes_bit_for_bit(
        loss, lead, batch, classes, scale, dense_targets, seed):
    """Over both losses, single (B, C) and stacked (K, B, C) logits, and
    logits large enough that an unshifted exp overflows: one value per
    leading index and a gradient of the logits' shape, equal to the
    reference's bit for bit."""
    rng = np.random.default_rng(seed)
    model = mlp.init_model((2, classes), loss, seed=0)
    logits = scale * rng.standard_normal(lead + (batch, classes))
    if loss == "mse" and dense_targets:
        labels = rng.standard_normal(logits.shape)
    else:
        labels = rng.integers(0, classes, lead + (batch,))
    targets = mlp._targets_for(model, labels, logits)
    got_loss, got_grad = mlp._loss_and_grad(model, logits, targets)
    want_loss = _reference_loss(model, logits, targets)
    want_grad = _reference_output_grad(model, logits, targets)
    assert np.shape(got_loss) == np.shape(want_loss) == lead
    assert np.array_equal(got_loss, want_loss)
    assert got_grad.shape == logits.shape
    assert np.array_equal(got_grad, want_grad)


def test_split_forward_equals_monolithic_prediction():
    model = mlp.init_model((5, 7, 6, 3), "ce", seed=4)
    x, _ = _data(dim=5)
    full, _ = mlp.forward(model, x)
    a, _ = mlp.split_forward(model, mlp.CutSpec(0, 2), x)
    out, _ = mlp.split_forward(model, mlp.CutSpec(2, 3), a)
    assert np.allclose(out, full, atol=1e-15)


def test_split_backward_server_requires_final_segment():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    x, y = _data()
    _, cache = mlp.split_forward(model, mlp.CutSpec(0, 1), x)
    with pytest.raises(StaleCache):
        mlp.split_backward_server(model, cache, y)
    with pytest.raises(StaleCache):
        mlp.split_backward_client(model, _final_cache(model, x), np.zeros((8, 3)))


def _final_cache(model, x):
    _, cache = mlp.forward(model, x)
    return cache


def test_contiguous_cuts_validation():
    assert mlp.contiguous_cuts(4, (2,)) == [mlp.CutSpec(0, 2), mlp.CutSpec(2, 4)]
    with pytest.raises(ShapeMismatch):
        mlp.contiguous_cuts(4, (0,))
    with pytest.raises(ShapeMismatch):
        mlp.contiguous_cuts(4, (2, 2))


def test_sgd_step_is_functional_and_validates_lr():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    x, y = _data()
    _, cache = mlp.forward(model, x)
    grads = mlp.backward(model, cache, y)
    before = [w.copy() for w in model.weights]
    stepped = mlp.sgd_step(model, grads, 0.1)
    assert all(np.array_equal(w, b) for w, b in zip(model.weights, before))
    assert np.allclose(stepped.weights[0], model.weights[0] - 0.1 * grads.weights[0])
    with pytest.raises(ValueError):
        mlp.sgd_step(model, grads, 0.0)
    with pytest.raises(ValueError):
        mlp.sgd_step(model, grads, -0.1)


def _delta_like(model, scale, n):
    return mlp.ParamDelta(widths=model.widths,
                          weights=[np.full_like(w, scale) for w in model.weights],
                          biases=[np.full_like(b, scale) for b in model.biases],
                          sample_count=n)


def test_fed_avg_identical_deltas_exact():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    d = _delta_like(model, 0.123456789, 7)
    merged = mlp.fed_avg([d, d, d])
    assert all(np.array_equal(w, x) for w, x in zip(merged.weights, d.weights))
    assert merged.sample_count == 21


def test_fed_avg_single_delta_unchanged():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    d = _delta_like(model, -0.5, 3)
    merged = mlp.fed_avg([d])
    assert all(np.array_equal(w, x) for w, x in zip(merged.weights, d.weights))


def test_fed_avg_weighting_hand_value():
    model = mlp.init_model((2, 2), "mse", seed=0)
    a = _delta_like(model, 1.0, 1)
    b = _delta_like(model, 4.0, 3)
    merged = mlp.fed_avg([a, b])
    # (1*1 + 3*4) / 4 = 3.25
    assert np.allclose(merged.weights[0], 3.25)
    assert merged.sample_count == 4


def _sequential_fed_avg(deltas):
    """`fed_avg` as a loop over the deltas in arrival order: the order of
    additions the stacked fold must keep."""
    total = float(sum(d.sample_count for d in deltas))
    base = deltas[0]
    weights = [w.copy() for w in base.weights]
    biases = [b.copy() for b in base.biases]
    for d in deltas[1:]:
        c = d.sample_count / total
        for l in range(len(weights)):
            weights[l] += c * (d.weights[l] - base.weights[l])
            biases[l] += c * (d.biases[l] - base.biases[l])
    return weights, biases


@settings(max_examples=60, deadline=None)
@given(clients=st.integers(min_value=1, max_value=300),
       widths=st.lists(st.sampled_from([1, 1, 2, 3, 7]), min_size=2, max_size=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       arrival=st.randoms(use_true_random=False))
def test_fed_avg_equals_the_sequential_fold_bit_for_bit(clients, widths, seed, arrival):
    """Any number of deltas, in any arrival order, over layers as narrow as
    one unit: a pairwise or blocked sum (as `np.add.reduce` may do over a
    stacked axis) differs in the last bits and fails here."""
    rng = np.random.default_rng(seed)
    widths = tuple(widths)
    deltas = [mlp.ParamDelta(
        widths=widths,
        weights=[rng.standard_normal((a, b)) * 10.0 ** rng.integers(-6, 7)
                 for a, b in zip(widths, widths[1:])],
        biases=[rng.standard_normal(b) * 10.0 ** rng.integers(-6, 7) for b in widths[1:]],
        sample_count=int(rng.integers(1, 100))) for _ in range(clients)]
    arrival.shuffle(deltas)
    merged = mlp.fed_avg(deltas)
    weights, biases = _sequential_fed_avg(deltas)
    assert all(np.array_equal(a, b) for a, b in zip(merged.weights, weights))
    assert all(np.array_equal(a, b) for a, b in zip(merged.biases, biases))
    assert merged.sample_count == sum(d.sample_count for d in deltas)


def _stacked(deltas):
    """Every layer of `deltas` as one array, weights then biases."""
    return [np.stack(a) for a in zip(*(d.weights + d.biases for d in deltas))]


def test_fed_avg_stacked_refuses_what_fed_avg_refuses():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    empty = [_delta_like(model, 1.0, 0), _delta_like(model, 2.0, 0)]
    with pytest.raises(EmptyInput, match="sample counts are zero"):
        mlp.fed_avg(empty)
    with pytest.raises(EmptyInput, match="sample counts are zero"):
        mlp.fed_avg_stacked(model.widths, _stacked(empty), [0, 0])
    with pytest.raises(EmptyInput, match="nothing to aggregate"):
        mlp.fed_avg_stacked(model.widths, [], [])
    wider = _delta_like(mlp.init_model((4, 6, 3), "ce", seed=0), 1.0, 1)
    with pytest.raises(LengthMismatch):
        mlp.fed_avg([_delta_like(model, 1.0, 1), wider])
    with pytest.raises(LengthMismatch):
        mlp.fed_avg_stacked(wider.widths, _stacked(empty), [1, 1])
    with pytest.raises(LengthMismatch):  # one count more than the rows
        mlp.fed_avg_stacked(model.widths, _stacked(empty), [1, 1, 1])


def test_fed_avg_stacked_folds_a_gather_as_fed_avg_folds_its_rows():
    """Rows gathered out of order, as a round gathers its arrivals, fold
    bit for bit as `fed_avg` folds the same deltas in that order."""
    rng = np.random.default_rng(7)
    widths = (3, 7, 2)
    deltas = [mlp.ParamDelta(widths,
                             [rng.standard_normal((a, b)) for a, b in zip(widths, widths[1:])],
                             [rng.standard_normal(b) for b in widths[1:]],
                             int(rng.integers(1, 50))) for _ in range(6)]
    rows = np.array([4, 0, 5, 2])
    got = mlp.fed_avg_stacked(widths, [a[rows] for a in _stacked(deltas)],
                              [deltas[r].sample_count for r in rows])
    want = mlp.fed_avg([deltas[r] for r in rows])
    assert got.sample_count == want.sample_count
    assert all(np.array_equal(a, b) for a, b in zip(got.weights + got.biases,
                                                    want.weights + want.biases))


def test_fed_avg_and_the_fl_runner_reach_the_one_fold(monkeypatch):
    """`fed_avg` stacks its deltas into the fold the FL runner gathers its
    round's rows into: one call per aggregation, sized by its rows."""
    rows = []
    fold = mlp.fed_avg_stacked
    monkeypatch.setattr(mlp, "fed_avg_stacked",
                        lambda widths, layers, counts: rows.append(len(counts))
                        or fold(widths, layers, counts))
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    mlp.fed_avg([_delta_like(model, 1.0, 1), _delta_like(model, 2.0, 2)])
    sess = FlSession(server="ap0", clients=["ue0", "ue1", "ue2"], local_iterations=1,
                     global_rounds=2, model=mlp.init_model([8, 16, 12, 4], "ce", seed=3),
                     scheme=AccessScheme(SchemeKind.OMA_GRANT_BASED, 0.01),
                     config=TrainingConfig(lr=0.05, batch_size=16, eval_every=0),
                     data=blob_data(3))
    run_fl(sess, star_topology(3), simple_radio(), Engine(seed=0))
    assert rows == [2, 3, 3]


def test_model_delta_and_apply_roundtrip():
    a = mlp.init_model((4, 5, 3), "ce", seed=0)
    b = mlp.init_model((4, 5, 3), "ce", seed=1)
    delta = mlp.model_delta(b, a, sample_count=5)
    restored = mlp.apply_delta(a, delta)
    assert all(np.allclose(x, y, atol=1e-15)
               for x, y in zip(restored.weights, b.weights))
    assert delta.sample_count == 5


def test_flatten_unflatten_roundtrip():
    model = mlp.init_model((4, 6, 5, 3), "mse", seed=2)
    flat = mlp.flatten_params(model)
    assert flat.shape == (model.param_count,)
    rebuilt = mlp.unflatten_params(model.widths, flat, loss="mse")
    assert all(np.array_equal(x, y) for x, y in zip(rebuilt.weights, model.weights))
    assert all(np.array_equal(x, y) for x, y in zip(rebuilt.biases, model.biases))
    assert rebuilt.loss == "mse"


def test_checkpoint_roundtrip(tmp_path):
    model = mlp.init_model((4, 6, 3), "ce", seed=9)
    path = tmp_path / "model.npz"
    mlp.save_checkpoint(model, path)
    loaded = mlp.load_checkpoint(path)
    assert loaded.widths == model.widths
    assert loaded.loss == "ce"
    # stored as float32 on purpose; compare at that precision
    for x, y in zip(loaded.weights, model.weights):
        assert np.allclose(x, y, atol=1e-6)


def test_evaluate_accuracy_hand_case():
    model = mlp.init_model((2, 2), "ce", seed=0)
    model.weights[0] = np.eye(2) * 5.0
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])  # last one is wrong on purpose
    loss, acc = mlp.evaluate(model, x, labels)
    assert acc == pytest.approx(2.0 / 3.0)
    assert loss > 0


def test_one_hot():
    out = mlp.one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(out, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))


# ---------------- stacked local training ---------------- #

def _looped_sgd(model, batches, lr):
    """One client's local steps as the single-model chain runs them."""
    losses = []
    for x, labels in batches:
        _, cache = mlp.forward(model, x)
        losses.append(mlp.batch_loss(model, cache, labels))
        model = mlp.sgd_step(model, mlp.backward(model, cache, labels), lr)
    return model, losses


def _uneven_shards(clients, dim=6, classes=3, seed=0):
    """Shards of different sizes, some smaller than a batch, so the cyclic
    batches wrap at different points."""
    rng = np.random.default_rng(seed)
    shards = []
    for k in range(clients):
        n = 5 + 7 * (k % 5)
        shards.append(Shard(owner=f"ue{k}", x=rng.standard_normal((n, dim)),
                            labels=rng.integers(0, classes, n)))
    return shards


@pytest.mark.parametrize("loss", ["ce", "mse"])
@pytest.mark.parametrize("clients", [1, 3, protocols._TRAIN_GROUP + 1])
@pytest.mark.parametrize("local_steps", [1, 3])
def test_sgd_clients_matches_looped_sgd_bit_for_bit(loss, clients, local_steps):
    model = mlp.init_model((6, 9, 5, 3), loss, seed=4)
    shards = _uneven_shards(clients)
    per_client = [[shard.batch(it, 8) for it in range(local_steps)] for shard in shards]
    steps = [(np.stack([b[it][0] for b in per_client]),
              np.stack([b[it][1] for b in per_client])) for it in range(local_steps)]
    weights, biases, losses = mlp.sgd_clients(model, steps, 0.1)

    assert losses.shape == (clients, local_steps)
    for k, batches in enumerate(per_client):
        expected, expected_losses = _looped_sgd(model, batches, 0.1)
        for l in range(model.num_layers):
            assert np.array_equal(weights[l][k], expected.weights[l])
            assert np.array_equal(biases[l][k], expected.biases[l])
        assert np.array_equal(losses[k], expected_losses)


def test_sgd_clients_leaves_model_untouched_and_validates():
    model = mlp.init_model((4, 5, 3), "ce", seed=0)
    before = mlp.flatten_params(model).copy()
    x, labels = np.ones((2, 4, 4)), np.zeros((2, 4), dtype=int)
    mlp.sgd_clients(model, [(x, labels)], 0.1)
    assert np.array_equal(mlp.flatten_params(model), before)
    with pytest.raises(ValueError):
        mlp.sgd_clients(model, [(x, labels)], 0.0)
    with pytest.raises(ShapeMismatch):
        mlp.sgd_clients(model, [(x, labels), (x[:1], labels[:1])], 0.1)
    with pytest.raises(ShapeMismatch):
        mlp.sgd_clients(model, [(np.ones((2, 4, 5)), labels)], 0.1)


def test_fl_round_trains_every_client_as_its_own_loop(monkeypatch):
    """A round's first download trains all its clients in groups, each one
    bit-identical to training it alone."""
    n = protocols._TRAIN_GROUP + 1
    clients = [f"ue{i}" for i in range(n)]
    data = make_blobs(8, 4, {c: 10 + 3 * i for i, c in enumerate(clients)},
                      test_size=8, seed=2)
    sess = FlSession(server="ap0", clients=clients, local_iterations=2, global_rounds=1,
                     model=mlp.init_model([8, 16, 12, 4], "ce", seed=3),
                     scheme=AccessScheme(SchemeKind.OMA_GRANT_BASED, 0.01),
                     config=TrainingConfig(lr=0.05, batch_size=16, eval_every=0),
                     data=data)
    runner = protocols._FlRunner(sess, star_topology(n), simple_radio(), Engine(seed=0))
    sizes = []
    real = mlp.sgd_clients
    monkeypatch.setattr(mlp, "sgd_clients",
                        lambda model, steps, lr: sizes.append(len(steps[0][0]))
                        or real(model, steps, lr))
    runner._begin(0)

    def check(client, staged, model):
        shard = data.shard_of(client)
        expected, losses = _looped_sgd(model, [shard.batch(it, 16) for it in range(2)],
                                       0.05)
        delta = mlp.model_delta(expected, model, sample_count=shard.size)
        assert staged["losses"] == losses and staged["n"] == shard.size
        assert staged["delta"].sample_count == delta.sample_count
        for got, want in zip(staged["delta"].weights + staged["delta"].biases,
                             delta.weights + delta.biases):
            assert np.array_equal(got, want)

    for client in clients:
        check(client, runner._local_training(client, 0), sess.model)
    assert sizes == [protocols._TRAIN_GROUP, 1]


def _straggler_run() -> tuple[protocols.MetricsTrace, Engine]:
    """Two FL rounds closed by a 0.2 s deadline. ue0 computes too slowly to
    make either round; ue3 sits behind a 0.3 s backhaul."""
    doc = star_doc(4, second_cell=True)
    doc["nodes"]["ue"][0]["compute_rate"] = 1e5
    doc["nodes"]["ue"][3]["attached_ap"] = "ap1"
    doc["links"][2]["latency"] = 0.3  # fog0 -> ap1
    sess = FlSession(server="fog0", clients=["ue0", "ue1", "ue2", "ue3"],
                     local_iterations=2, global_rounds=2,
                     model=mlp.init_model([8, 16, 12, 4], "ce", seed=3),
                     scheme=AccessScheme(SchemeKind.OMA_GRANT_BASED, 0.01),
                     config=TrainingConfig(lr=0.05, batch_size=16, eval_every=0),
                     data=blob_data(4), round_deadline=0.2)
    eng = Engine(seed=0)
    trace = run_fl(sess, build_topology(doc), simple_radio(aps=("ap0", "ap1")), eng)
    return trace, eng


def _legs(eng, node: str, prefix: str) -> list[float]:
    return [r["time"] for r in eng.event_log
            if r["node"] == node and r["detail"].startswith(prefix)]


def test_fl_straggler_rejoining_after_deadline_keeps_final_model(monkeypatch):
    """Stragglers stop at the first leg boundary after their round closes:
    ue0 misses round 0 in its compute and rejoins round 1 when that compute
    ends; ue3's downloads land after each round closed, so it never trains.
    Each round trains its four participants in one stacked pass."""
    sizes = []
    real = mlp.sgd_clients
    monkeypatch.setattr(mlp, "sgd_clients",
                        lambda model, steps, lr: sizes.append(len(steps[0][0]))
                        or real(model, steps, lr))
    trace, eng = _straggler_run()

    assert trace.status == "completed" and len(trace.records) == 2
    assert sizes == [4, 4]
    assert _legs(eng, "ue3", "local:") == []
    assert _legs(eng, "ue0", "ul:delta") == []
    digest = hashlib.sha256(mlp.flatten_params(trace.final_model).tobytes()).hexdigest()
    assert digest == "8d4ee52956658ea4739850f932be4572069a5e8ed640600a6c2e989f9b9ba007"


def test_fl_straggler_starts_a_round_only_after_its_stale_leg_ends():
    """ue0's round-0 compute outlives round 0; its round-1 download starts
    only when that compute is done, so it never trains two rounds at once."""
    _, eng = _straggler_run()
    (local_r0,) = _legs(eng, "ue0", "local:r0")
    downloads = _legs(eng, "ue0", "dl:model")
    assert len(downloads) == 2 and downloads[1] > local_r0


def test_fl_straggler_event_log_is_byte_identical():
    """The whole straggler event log, pinned: ue3's downloads and uploads
    each cross a radio hop and the 0.3 s backhaul, so moving the point where
    a closed round stops a chain (between a path's hops, say) changes it."""
    _, eng = _straggler_run()
    digest = hashlib.sha256(json.dumps(eng.event_log, sort_keys=True).encode()).hexdigest()
    assert digest == "f36f9e7f0da9e6d7f5bcd802bd3d14b870f294b4d3f2ee2fb7ff813640861104"
