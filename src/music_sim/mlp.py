"""Plain numpy multilayer perceptron with cut-point execution.

Every run trains through one loop, `_descend`: one fused forward / loss /
backward-and-update pass per step, on one model (`split_step`, which the
split-learning protocols call) or on K clients' stacked (clients, batch,
width) arrays (`sgd_clients`, for FL). The end-to-end pass (`forward` /
`backward`), the contiguous layer segments (`split_forward` /
`split_backward_*`) and `sgd_step` are coded independently of it and of each
other; they are the reference chain whose weights the loop matches, bit for
bit, per model and per client slice.

Hidden layers use ReLU. The output layer is linear under squared error and
softmax under cross-entropy. Losses are mean-reduced over the batch:
squared error is 0.5/B * sum of squared residuals, cross-entropy is the
mean negative log-probability of the true class. In-memory math is double
precision; the 32-bit payload sizes only model what goes on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import costs
from .errors import EmptyInput, EmptyWidths, LengthMismatch, ShapeMismatch, StaleCache

LOSSES = ("ce", "mse")


@dataclass
class MlpModel:
    widths: tuple[int, ...]
    loss: str  # "ce" or "mse"
    weights: list[np.ndarray]  # weights[l] has shape (widths[l], widths[l+1])
    biases: list[np.ndarray]   # biases[l] has shape (widths[l+1],)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def payload_bits(self) -> int:
        return costs.model_bits(self.widths)


@dataclass(frozen=True)
class CutSpec:
    """Half-open range [start, end) of weight-layer indices forming one segment."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ShapeMismatch(f"bad segment bounds [{self.start}, {self.end})")

    @property
    def num_layers(self) -> int:
        return self.end - self.start


@dataclass
class ParamDelta:
    """Full-model-shaped parameter gradient or update, with aggregation weight."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    sample_count: int = 1

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class ForwardCache:
    """Intermediates one backward pass needs; tied to the exact model used."""

    model_ref: MlpModel = field(repr=False)
    segment: CutSpec
    layer_inputs: list[np.ndarray] = field(repr=False)     # activation fed to each layer
    pre_activations: list[np.ndarray] = field(repr=False)  # z of each layer
    prediction: np.ndarray | None = field(default=None, repr=False)


def init_model(widths, loss: str, seed: int) -> MlpModel:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise EmptyWidths(f"need at least input and output widths, got {widths!r}")
    if any(w < 1 for w in widths):
        raise EmptyWidths(f"layer widths must be >= 1, got {widths!r}")
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(widths=widths, loss=loss, weights=weights, biases=biases)


def clone(model: MlpModel) -> MlpModel:
    return MlpModel(widths=model.widths, loss=model.loss,
                    weights=[w.copy() for w in model.weights],
                    biases=[b.copy() for b in model.biases])


def _check_batch(x: np.ndarray, expected_dim: int):
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a (batch, features) array, got shape {x.shape}")
    if x.shape[0] == 0:
        raise EmptyInput("batch is empty")
    if x.shape[1] != expected_dim:
        raise ShapeMismatch(f"expected {expected_dim} features, got {x.shape[1]}")


# The loss math below works on the last two axes, (batch, classes), so the
# single-model passes and the stacked `sgd_clients` share it.

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _targets_for(model: MlpModel, labels: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Labels as the loss expects them: class ids (ce) or one-hot rows (mse)."""
    labels = np.asarray(labels)
    rows = logits.shape[:-1]
    if model.loss == "ce":
        ids = labels.astype(int).reshape(labels.shape[:len(rows) - 1] + (-1,))
        if ids.shape != rows:
            raise LengthMismatch(f"{ids.shape[-1]} labels for batch of {rows[-1]}")
        return ids
    if labels.shape == rows:
        return one_hot(labels.reshape(-1), model.widths[-1]).reshape(logits.shape)
    if labels.shape != logits.shape:
        raise ShapeMismatch(f"targets {labels.shape} for batch of {rows[-1]}")
    return labels


def _loss_and_grad(model: MlpModel, logits: np.ndarray,
                   targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(loss, dLoss/dlogits) of the mean-reduced loss: one loss value per
    leading index, and the gradient w.r.t. the final pre-activation."""
    batch = logits.shape[-2]
    if model.loss == "ce":
        # one softmax serves both: e / total is `_softmax` bit for bit
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=-1, keepdims=True)
        # the true class of each row, picked from the rows flattened
        at = (np.arange(targets.size), targets.reshape(-1))
        classes = logits.shape[-1]
        log_probs = (shifted.reshape(-1, classes)[at].reshape(targets.shape)
                     - np.log(total[..., 0]))
        # (p - onehot) / batch, subtracting 1 at the true class only: p - 0.0 == p
        grad = (e / total).reshape(-1, classes)
        grad[at] -= 1.0
        grad /= batch
        # sum / batch is np.mean's own arithmetic
        return -(log_probs.sum(axis=-1) / batch), grad.reshape(logits.shape)
    residual = logits - targets
    squares = residual * residual
    loss = 0.5 * squares.reshape(squares.shape[:-2] + (-1,)).sum(axis=-1) / batch
    return loss, residual / batch


def batch_loss(model: MlpModel, cache: ForwardCache, labels: np.ndarray) -> float:
    """Mean-reduced loss of the batch a forward cache came from."""
    if cache.segment.end != model.num_layers:
        raise StaleCache("loss needs a cache that reaches the output layer")
    logits = cache.pre_activations[-1]
    return float(_loss_and_grad(model, logits, _targets_for(model, labels, logits))[0])


# ---------------- monolithic pass ---------------- #

def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the whole network; returns (prediction, cache for backward).

    The prediction is class probabilities under cross-entropy and the raw
    linear output under squared error.
    """
    _check_batch(x, model.widths[0])
    last = model.num_layers - 1
    layer_inputs, pre_activations = [], []
    a = x
    for l in range(model.num_layers):
        layer_inputs.append(a)
        z = a @ model.weights[l] + model.biases[l]
        pre_activations.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
        else:
            a = _softmax(z) if model.loss == "ce" else z
    cache = ForwardCache(model_ref=model, segment=CutSpec(0, model.num_layers),
                         layer_inputs=layer_inputs, pre_activations=pre_activations,
                         prediction=a)
    return a, cache


def backward(model: MlpModel, cache: ForwardCache, labels: np.ndarray) -> ParamDelta:
    """Loss gradient for every parameter, from a full-network cache."""
    if cache.model_ref is not model:
        raise StaleCache("cache was built for a different set of parameters")
    if cache.segment.start != 0 or cache.segment.end != model.num_layers:
        raise StaleCache("cache covers a segment, not the whole network")
    last = model.num_layers - 1
    grad_w: list = [None] * model.num_layers
    grad_b: list = [None] * model.num_layers
    logits = cache.pre_activations[last]
    dz = _loss_and_grad(model, logits, _targets_for(model, labels, logits))[1]
    for l in range(last, -1, -1):
        if l < last:
            dz = da * (cache.pre_activations[l] > 0.0)
        grad_w[l] = cache.layer_inputs[l].T @ dz
        grad_b[l] = dz.sum(axis=0)
        da = dz @ model.weights[l].T
    return ParamDelta(widths=model.widths, weights=grad_w, biases=grad_b)


# ---------------- split execution ---------------- #

def split_forward(model: MlpModel, segment: CutSpec,
                  x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run only layers [segment.start, segment.end); `x` is the activation
    entering the first of those layers. The returned activation is what
    crosses the cut (or the prediction, if the segment ends the network)."""
    if segment.end > model.num_layers:
        raise ShapeMismatch(f"segment {segment} exceeds {model.num_layers} layers")
    _check_batch(x, model.widths[segment.start])
    last = model.num_layers - 1
    layer_inputs, pre_activations = [], []
    a = x
    for l in range(segment.start, segment.end):
        layer_inputs.append(a)
        z = a @ model.weights[l] + model.biases[l]
        pre_activations.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
        else:
            a = _softmax(z) if model.loss == "ce" else z
    cache = ForwardCache(model_ref=model, segment=segment,
                         layer_inputs=layer_inputs, pre_activations=pre_activations,
                         prediction=a if segment.end == model.num_layers else None)
    return a, cache


def _segment_backprop(model: MlpModel, cache: ForwardCache, dz_top: np.ndarray,
                      into: ParamDelta | None = None) -> tuple[ParamDelta, np.ndarray]:
    """Shared inner loop: from dLoss/dz of the segment's top layer down to
    dLoss/d(segment input). Writes the segment's layers into `into` and
    returns it; without `into`, returns a full-model-shaped delta with zeros
    outside the segment."""
    segment = cache.segment
    if into is None:
        inside = range(segment.start, segment.end)
        into = ParamDelta(
            widths=model.widths,
            weights=[None if l in inside else np.zeros_like(w)
                     for l, w in enumerate(model.weights)],
            biases=[None if l in inside else np.zeros_like(b)
                    for l, b in enumerate(model.biases)])
    dz = dz_top
    for offset in range(segment.num_layers - 1, -1, -1):
        l = segment.start + offset
        if offset < segment.num_layers - 1:
            dz = da * (cache.pre_activations[offset] > 0.0)
        into.weights[l] = cache.layer_inputs[offset].T @ dz
        into.biases[l] = dz.sum(axis=0)
        da = dz @ model.weights[l].T
    return into, da


def split_backward_server(model: MlpModel, server_cache: ForwardCache, labels: np.ndarray,
                          into: ParamDelta | None = None) -> tuple[ParamDelta, np.ndarray]:
    """Backward through the loss-owning (final) segment.

    Returns the segment's parameter gradients (written into `into`, or
    full-model-shaped with zeros elsewhere) and the gradient w.r.t. the
    received cut activations.
    """
    if server_cache.model_ref is not model:
        raise StaleCache("cache was built for a different set of parameters")
    if server_cache.segment.end != model.num_layers:
        raise StaleCache("the loss-owning segment must reach the output layer")
    logits = server_cache.pre_activations[-1]
    dz_top = _loss_and_grad(model, logits, _targets_for(model, labels, logits))[1]
    return _segment_backprop(model, server_cache, dz_top, into)


def split_backward_client(model: MlpModel, cache: ForwardCache, upstream_grad: np.ndarray,
                          into: ParamDelta | None = None) -> tuple[ParamDelta, np.ndarray]:
    """Backward through a non-final segment given dLoss/d(its output activation).

    Returns the segment gradients (written into `into`, as for
    `split_backward_server`) and dLoss/d(segment input) for the segment
    below (zero-size interest at the entry segment, where the input is data).
    """
    if cache.model_ref is not model:
        raise StaleCache("cache was built for a different set of parameters")
    if cache.segment.end == model.num_layers:
        raise StaleCache("final segment must backprop from labels, not upstream grads")
    # top layer of a non-final segment always feeds a ReLU
    dz_top = upstream_grad * (cache.pre_activations[-1] > 0.0)
    return _segment_backprop(model, cache, dz_top, into)


def split_step(model: MlpModel, segments: list[CutSpec], x: np.ndarray, labels: np.ndarray,
               lr: float) -> tuple[MlpModel, float]:
    """One SGD step of a model cut into `segments`, the last owning the loss.

    Returns (stepped model, batch loss before the step); the weights are the
    same, bit for bit, as forward -> backward -> sgd_step on the whole model,
    and as the segment-by-segment split_forward / split_backward_* chain.
    Contiguous segments compose into the whole network, so the step is one
    pass of the training loop `_descend` over the whole model.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr!r}")
    layers = model.num_layers
    if [*(s.start for s in segments), layers] != [0, *(s.end for s in segments)]:
        raise ShapeMismatch(f"segments {segments} do not chain layers [0, {layers})")
    _check_batch(x, model.widths[0])
    weights, biases, losses = _descend(model, model.weights, model.biases, [(x, labels)], lr)
    return MlpModel(widths=model.widths, loss=model.loss,
                    weights=weights, biases=biases), float(losses[0])


def contiguous_cuts(num_layers: int, boundaries) -> list[CutSpec]:
    """Split `num_layers` weight layers at the given interior boundaries.

    boundaries (2,) over 4 layers -> [CutSpec(0,2), CutSpec(2,4)].
    """
    interior = sorted(int(b) for b in boundaries)
    if any(not 0 < b < num_layers for b in interior):
        raise ShapeMismatch(f"cut indices {boundaries!r} out of range for {num_layers} layers")
    edges = [0, *interior, num_layers]
    if len(set(edges)) != len(edges):
        raise ShapeMismatch(f"cut indices {boundaries!r} contain duplicates")
    return [CutSpec(a, b) for a, b in zip(edges[:-1], edges[1:])]


# ---------------- updates and aggregation ---------------- #

def add_deltas(a: ParamDelta, b: ParamDelta) -> ParamDelta:
    if a.widths != b.widths:
        raise ShapeMismatch(f"delta widths differ: {a.widths} vs {b.widths}")
    return ParamDelta(widths=a.widths,
                      weights=[x + y for x, y in zip(a.weights, b.weights)],
                      biases=[x + y for x, y in zip(a.biases, b.biases)],
                      sample_count=a.sample_count + b.sample_count)


def sgd_step(model: MlpModel, grads: ParamDelta, lr: float) -> MlpModel:
    """Vanilla gradient step; returns a fresh model, inputs untouched."""
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr!r}")
    if grads.widths != model.widths:
        raise ShapeMismatch(f"gradient widths {grads.widths} vs model {model.widths}")
    return MlpModel(widths=model.widths, loss=model.loss,
                    weights=[w - lr * g for w, g in zip(model.weights, grads.weights)],
                    biases=[b - lr * g for b, g in zip(model.biases, grads.biases)])


def sgd_clients(model: MlpModel, steps, lr: float):
    """Plain SGD for K clients at once, every one starting from `model`.

    `steps` holds one (x, labels) pair per local step: x of shape (K, B, in)
    and labels of shape (K, B), or (K, B, out) targets under squared error.
    Returns (weights, biases, losses): weights[l] of shape (K, in, out),
    biases[l] of shape (K, out), and losses of shape (K, steps), each the
    batch loss before that step. Client k's slice is bit-identical to its own
    chain of forward -> batch_loss -> backward -> sgd_step: every stacked
    matmul runs the same 2-D product per client, and every reduction runs
    over the same axis in the same order.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr!r}")
    if not steps:
        raise EmptyInput("no local steps to run")
    clients = steps[0][0].shape[0]
    for x, _ in steps:
        if x.ndim != 3 or x.shape[0] != clients:
            raise ShapeMismatch(f"expected a ({clients}, batch, features) array, "
                                f"got shape {x.shape}")
        _check_batch(x[0], model.widths[0])
    weights, biases, losses = _descend(
        model, [np.broadcast_to(w, (clients,) + w.shape) for w in model.weights],
        [np.broadcast_to(b, (clients,) + b.shape) for b in model.biases], steps, lr)
    return weights, biases, np.stack(losses, axis=1)


def _descend(model: MlpModel, weights: list, biases: list, steps, lr: float):
    """The training loop: plain SGD from `weights` and `biases` over `steps`,
    (x, labels) pairs. Every array may lead with one client axis: weights[l]
    is (in, out) or (K, in, out), biases[l] (out,) or (K, out), x (B, in) or
    (K, B, in). Each step is one fused pass: one forward loop, one softmax
    for the loss and its gradient, and one backward loop that steps each
    layer as soon as its gradient is ready. Returns the stepped weights and
    biases, and each step's batch loss before the step."""
    weights, biases = list(weights), list(biases)
    last = model.num_layers - 1
    losses = []
    for x, labels in steps:
        inputs, pre_activations = [], []
        a = x
        for l in range(last + 1):
            inputs.append(a)
            z = a @ weights[l] + biases[l][..., None, :]
            pre_activations.append(z)
            if l < last:
                a = np.maximum(z, 0.0)
        loss, dz = _loss_and_grad(model, z, _targets_for(model, labels, z))
        losses.append(loss)
        for l in range(last, -1, -1):
            if l < last:
                dz = da * (pre_activations[l] > 0.0)
            if l > 0:
                da = dz @ weights[l].swapaxes(-1, -2)
            weights[l] = weights[l] - lr * (inputs[l].swapaxes(-1, -2) @ dz)
            biases[l] = biases[l] - lr * dz.sum(axis=-2)
    return weights, biases, losses


def fed_avg(deltas: list[ParamDelta]) -> ParamDelta:
    """Sample-count-weighted mean of parameter deltas: `fed_avg_stacked`."""
    if not deltas:
        raise EmptyInput("nothing to aggregate")
    widths, n_params = deltas[0].widths, deltas[0].param_count
    for d in deltas[1:]:
        if d.widths != widths or d.param_count != n_params:
            raise LengthMismatch(f"cannot average widths {d.widths} with {widths}")
    layers = zip(*(d.weights + d.biases for d in deltas))
    return fed_avg_stacked(widths, [np.stack(a) for a in layers],
                           [d.sample_count for d in deltas])


def fed_avg_stacked(widths, layers: list, counts: list[int]) -> ParamDelta:
    """`fed_avg` of n deltas stacked as rows: every weight (n, in, out), then
    every bias (n, out), row i of each being delta i's, of counts[i] samples.
    Computed as first + sum(c_i * (delta_i - first)), so identical rows come
    back unchanged; each layer's terms are one array operation, then added
    one after another in row order, as `np.add.accumulate` does, so the sum
    is bit-identical to a loop over the deltas (`np.add.reduce` may sum
    pairwise, and is not). The stacks are folded in place."""
    if not counts:
        raise EmptyInput("nothing to aggregate")
    n = len(counts)
    if [a.shape for a in layers] != ([(n, i, o) for i, o in zip(widths, widths[1:])]
                                     + [(n, o) for o in widths[1:]]):
        raise LengthMismatch(f"cannot average {n} rows of widths {tuple(widths)}")
    total = float(sum(counts))
    if total <= 0:
        raise EmptyInput("all sample counts are zero")
    shares = np.array([c / total for c in counts[1:]])

    def fold(stack: np.ndarray) -> np.ndarray:
        terms = stack[1:]
        terms -= stack[0]
        terms *= shares.reshape((-1,) + (1,) * (stack.ndim - 1))
        np.add.accumulate(stack, axis=0, out=stack)
        return stack[-1].copy()

    folded = [fold(a) for a in layers]
    return ParamDelta(widths=tuple(widths), weights=folded[:len(widths) - 1],
                      biases=folded[len(widths) - 1:], sample_count=int(total))


def model_delta(new: MlpModel, old: MlpModel, sample_count: int = 1) -> ParamDelta:
    if new.widths != old.widths:
        raise ShapeMismatch(f"model widths differ: {new.widths} vs {old.widths}")
    return ParamDelta(widths=new.widths,
                      weights=[a - b for a, b in zip(new.weights, old.weights)],
                      biases=[a - b for a, b in zip(new.biases, old.biases)],
                      sample_count=sample_count)


def apply_delta(model: MlpModel, delta: ParamDelta) -> MlpModel:
    if delta.widths != model.widths:
        raise ShapeMismatch(f"delta widths {delta.widths} vs model {model.widths}")
    return MlpModel(widths=model.widths, loss=model.loss,
                    weights=[w + d for w, d in zip(model.weights, delta.weights)],
                    biases=[b + d for b, d in zip(model.biases, delta.biases)])


# ---------------- flattening and checkpoints ---------------- #

def flatten_params(model: MlpModel) -> np.ndarray:
    parts = []
    for w, b in zip(model.weights, model.biases):
        parts.append(w.reshape(-1))
        parts.append(b)
    return np.concatenate(parts)


def unflatten_params(widths, flat: np.ndarray, loss: str = "ce") -> MlpModel:
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise EmptyWidths(f"need at least input and output widths, got {widths!r}")
    expected = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    if flat.size != expected:
        raise ShapeMismatch(f"expected {expected} parameters, got {flat.size}")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out].copy())
        pos += fan_out
    return MlpModel(widths=widths, loss=loss, weights=weights, biases=biases)


def save_checkpoint(model: MlpModel, path) -> None:
    """Shape manifest plus flat little-endian float32 parameters."""
    np.savez(path, widths=np.asarray(model.widths, dtype="<i8"),
             loss=np.asarray(model.loss),
             params=flatten_params(model).astype("<f4"))


def load_checkpoint(path) -> MlpModel:
    with np.load(path) as bundle:
        widths = tuple(int(w) for w in bundle["widths"])
        loss = str(bundle["loss"])
        flat = bundle["params"].astype(np.float64)
    return unflatten_params(widths, flat, loss=loss)


# ---------------- evaluation ---------------- #

def evaluate(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(mean loss, classification accuracy) on a held-out set."""
    _, cache = forward(model, x)
    labels = np.asarray(labels).astype(int).reshape(-1)
    value = batch_loss(model, cache, labels)
    predicted = cache.pre_activations[-1].argmax(axis=1)
    return value, float(np.mean(predicted == labels))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels).astype(int).reshape(-1)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
