"""From-scratch MLP and LSTM regressors with analytic gradients.

No autodiff: every backward pass is hand-derived and verified against
central finite differences in the test suite. Each model's parameters are
named float tensors (to_dict / from_dict), so the optimizer and checkpoint
code treat both models alike. While training, those tensors are reshaped
views of one contiguous float64 vector (optim.flatten_params) that Adam
updates in a single pass; from_dict keeps float64 views (and an LSTM's
float32 ones) without a copy. A model computes in its tensors' dtype: `train`
runs it in its class's `compute_dtype`, prediction in float64.

The parameter object is the model: `params.forward(x)` gives (predictions,
cache) and `params.backward(cache, dpred, out)` the gradients, through this
module's mlp_* / lstm_* functions. The backward pass writes each gradient
into the tensor of the same name in `out` (training passes views of one
flat gradient vector) and returns `out`; without `out` it returns fresh
tensors in to_dict order. `takes_windows` says whether a sample is
a (W, F) window (LSTM) or one (F,) row (MLP); MODELS maps kinds to classes.

A parameter object may also hold a stack of S models: every tensor then
carries the same leading axis S (`stack_shape`), and the forward pass runs
all S on the same unstacked input, giving (S, B) predictions. Row s is
bit-identical to the forward pass of model s alone; a single model is the
stack-free case of the same code. The finite-difference gradient check uses
this to evaluate every perturbed copy of a model in one call. The backward
pass and checkpoints take exactly one model.

LSTM cell (gate blocks ordered i, f, g, o inside the stacked tensors):

    z = W x_t + U h_prev + b          z splits into (z_i, z_f, z_g, z_o)
    i = sigmoid(z_i)   f = sigmoid(z_f)
    g = tanh(z_g)      o = sigmoid(z_o)
    c_t = f * c_prev + i * g
    h_t = o * tanh(c_t)

A linear head on the final hidden state produces the scalar prediction.
Hidden and cell state always start at zero, so consecutive calls on the
same window are identical (no state leaks between samples or batches).

The LSTM's tensors are time-major and batch-last: each step's four gates
are one contiguous (4H, B) block of a (T, 4H, B) tensor, and each gate one
contiguous (H, B) slab of it. Step t computes its whole block in one product
of [W | b | U], a (4H, F + 1 + H) matrix built once per call, with the
column stack [x_t; 1; h_prev] of every window, and overwrites it with the
activations (i, f, g, o); the step's h is written straight into the next
step's column stack. One tanh activates all four blocks, since
sigmoid(z) = 0.5 * tanh(z / 2) + 0.5: the i, f and o rows of the matrix are
halved (exact in binary floating point), and after the tanh those rows are
scaled by 0.5 and shifted by 0.5. The backward pass reads the same tensor
and takes every gate's slope in one expression, (k - a) * a + s: a(1 - a) on
i, f and o (k = 1, s = 0) and 1 - g^2 on g (k = 0, s = 1). Its weight
gradients come from one product after the loop, which sums
dz_t [x_t; 1; h_prev]^T over every step and window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .numerics import SeededRng, as_float
from .numerics import sigmoid  # noqa: F401  perfbench's tracer wraps it here

GATE_ORDER = ("i", "f", "g", "o")
# Distance from relu's kink at zero within which a gradient-check MLP is redrawn.
KINK_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def _check_tensors(
    tensors: dict[str, np.ndarray], shapes: dict[str, tuple], stack: tuple[int, ...]
) -> None:
    """Raise ValidationError naming the first tensor, in `shapes` order, that
    is not of its expected non-empty shape (after the `stack` axes) or holds
    non-finite values."""
    for name, shape in shapes.items():
        tensor, shape = tensors[name], stack + shape
        if tensor.shape != shape:
            raise ValidationError(f"parameter {name!r} has shape {tensor.shape}, expected {shape}")
        if tensor.size == 0:
            raise ValidationError(f"parameter {name!r} is empty")
        if not np.all(np.isfinite(tensor)):
            raise ValidationError(f"parameter {name!r} has non-finite values")


@dataclass
class MlpParams:
    """Fully-connected stack: relu hidden layers, linear scalar output."""

    takes_windows = False  # class attributes, not fields
    compute_dtype = np.float64
    weights: list[np.ndarray]  # layer l: (out_l, in_l)
    biases: list[np.ndarray]  # layer l: (out_l,)

    def __post_init__(self):
        """Layer l maps in_l = out_(l-1) inputs to out_l outputs; the last has one."""
        if not self.weights or len(self.biases) != len(self.weights):
            raise ValidationError(
                f"an MLP needs at least one layer and one bias per weight matrix, "
                f"got {len(self.weights)} weights and {len(self.biases)} biases"
            )
        last = len(self.weights) - 1
        fan_in = self.weights[0].shape[-1] if self.weights[0].ndim else 0
        shapes = {}
        for l, w in enumerate(self.weights):
            fan_out = w.shape[-2] if l < last and w.ndim > 1 else 1
            shapes[f"w{l}"], shapes[f"b{l}"] = (fan_out, fan_in), (fan_out,)
            fan_in = fan_out
        _check_tensors(self.to_dict(), shapes, self.stack_shape)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """Leading axes every tensor carries: () for one model, (S,) for S."""
        return self.weights[0].shape[:-2]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size,) + tuple(w.shape[-2] for w in self.weights)

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def row_width(self) -> int:  # floats in the widest per-sample activation row
        return max(b.shape[-1] for b in self.biases)

    @property
    def arch(self) -> dict:
        return {"layer_sizes": list(self.layer_sizes)}

    @classmethod
    def init(cls, n_features: int, config, rng: SeededRng) -> "MlpParams":
        """A fresh model for n_features inputs and config.mlp_hidden hidden layers."""
        return init_mlp((n_features, *config.mlp_hidden, 1), rng)

    @classmethod
    def draw_check_case(cls, feats: int, batch: int, rng: SeededRng):
        """(params, x, pred, cache) of a random two-hidden-layer model on a batch,
        redrawn while a pre-activation lies within KINK_MARGIN of relu's kink,
        where finite differences do not approximate the derivative."""
        while True:
            h1 = int(rng.generator.integers(1, 7))
            h2 = int(rng.generator.integers(1, 7))
            params = init_mlp((feats, h1, h2, 1), rng)
            x = rng.uniform(-1.0, 1.0, (batch, feats))
            pred, cache = params.forward(x)
            if min(np.abs(z).min() for z in cache.pre_acts) > KINK_MARGIN:
                return params, x, pred, cache

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        return mlp_forward(self, x)

    def backward(self, cache: MlpCache, dpred: np.ndarray, out=None) -> dict[str, np.ndarray]:
        return mlp_backward(self, cache, dpred, out)

    def to_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{l}"] = w
            out[f"b{l}"] = b
        return out

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray]) -> "MlpParams":
        n_layers = sum(1 for k in tensors if k.startswith("w"))
        return cls(
            [np.asarray(tensors[f"w{l}"], dtype=np.float64) for l in range(n_layers)],
            [np.asarray(tensors[f"b{l}"], dtype=np.float64) for l in range(n_layers)],
        )


@dataclass
class LstmParams:
    """Single LSTM layer plus linear regression head.

    w_x: (4H, F) input weights, w_h: (4H, H) recurrent weights, b: (4H,),
    all stacked in GATE_ORDER blocks of H rows. w_head: (H,), b_head: (1,).
    """

    takes_windows = True
    compute_dtype = np.float32
    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    w_head: np.ndarray
    b_head: np.ndarray

    def __post_init__(self):
        h = self.w_h.shape[-1] if self.w_h.ndim else 0
        f = self.w_x.shape[-1] if self.w_x.ndim else 0
        _check_tensors(self.to_dict(), {
            "w_h": (4 * h, h), "w_x": (4 * h, f), "b": (4 * h,), "w_head": (h,), "b_head": (1,),
        }, self.stack_shape)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """Leading axes every tensor carries: () for one model, (S,) for S."""
        return self.w_h.shape[:-2]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[-1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-1]

    @property
    def row_width(self) -> int:  # the gate block is the widest per-sample row
        return 4 * self.hidden_size

    @property
    def arch(self) -> dict:
        return {"hidden_size": self.hidden_size, "input_size": self.input_size}

    @classmethod
    def init(cls, n_features: int, config, rng: SeededRng) -> "LstmParams":
        """A fresh model for n_features inputs and config.lstm_hidden units."""
        return init_lstm(n_features, config.lstm_hidden, rng)

    @classmethod
    def draw_check_case(cls, feats: int, batch: int, rng: SeededRng):
        """(params, x, pred, cache) of a random model on a batch of windows.
        The cell is smooth everywhere, so no instance needs redrawing."""
        hidden = int(rng.generator.integers(1, 5))
        steps = int(rng.generator.integers(1, 6))
        params = init_lstm(feats, hidden, rng)
        x = rng.uniform(-1.0, 1.0, (batch, steps, feats))
        return params, x, *params.forward(x)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, LstmCache]:
        return lstm_forward(self, x)

    def backward(self, cache: LstmCache, dpred: np.ndarray, out=None) -> dict[str, np.ndarray]:
        return lstm_backward(self, cache, dpred, out)

    def to_dict(self) -> dict[str, np.ndarray]:
        return {
            "w_x": self.w_x,
            "w_h": self.w_h,
            "b": self.b,
            "w_head": self.w_head,
            "b_head": self.b_head,
        }

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray]) -> "LstmParams":
        return cls(*(as_float(tensors[k]) for k in ("w_x", "w_h", "b", "w_head", "b_head")))


MODELS = {"mlp": MlpParams, "lstm": LstmParams}


def init_mlp(layer_sizes: tuple[int, ...], rng: SeededRng) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ConfigError(f"need at least input and output sizes, got {layer_sizes}")
    if any(s < 1 for s in layer_sizes):
        raise ConfigError(f"layer sizes must be positive, got {layer_sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def init_lstm(input_size: int, hidden_size: int, rng: SeededRng) -> LstmParams:
    """Same uniform fan-in rule; forget-gate bias block starts at 1.0."""
    if input_size < 1 or hidden_size < 1:
        raise ConfigError(
            f"sizes must be positive, got input={input_size}, hidden={hidden_size}"
        )
    h = hidden_size
    w_x = rng.uniform(-1.0 / np.sqrt(input_size), 1.0 / np.sqrt(input_size), (4 * h, input_size))
    w_h = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (4 * h, h))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget gate: remember by default
    w_head = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (h,))
    return LstmParams(w_x, w_h, b, w_head, np.zeros(1))


# ---------------------------------------------------------------------------
# MLP forward / backward
# ---------------------------------------------------------------------------


@dataclass
class MlpCache:
    inputs: list[np.ndarray]  # input to each layer, (B, in_l)
    pre_acts: list[np.ndarray]  # z of each hidden layer, (B, out_l)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Batched forward over rows: x is (B, F), returns ((*stack, B), cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"mlp_forward expects (batch, features), got {x.shape}")
    if x.shape[1] != params.input_size:
        raise ShapeError(
            f"feature count {x.shape[1]} does not match model input {params.input_size}"
        )
    inputs, pre_acts = [], []
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        inputs.append(h)
        z = h @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
    inputs.append(h)
    out = h @ params.weights[-1].swapaxes(-1, -2)
    out += params.biases[-1][..., None, :]
    return out[..., 0], MlpCache(inputs, pre_acts)


def mlp_backward(
    params: MlpParams, cache: MlpCache, dpred: np.ndarray, out: dict | None = None
) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every weight and bias of one model, written
    into `out` (tensors of the parameters' names and shapes) or fresh tensors.

    dpred is dLoss/dPrediction per sample, shape (B,).
    """
    if params.stack_shape:
        raise ShapeError("mlp_backward takes one model, not a stack")
    if len(cache.inputs) != len(params.weights):
        raise ShapeError("cache does not match parameter stack depth")
    if cache.inputs[0].shape[1] != params.input_size:
        raise ShapeError(
            f"cache input width {cache.inputs[0].shape[1]} does not match "
            f"model input {params.input_size}"
        )
    out = {k: np.empty_like(t) for k, t in params.to_dict().items()} if out is None else out
    last = len(params.weights) - 1
    dz = np.asarray(dpred, dtype=np.float64)[:, None]  # (B, 1)
    for l in range(last, -1, -1):
        if l < last:
            dz = (dz @ params.weights[l + 1]) * (cache.pre_acts[l] > 0.0)
        np.matmul(dz.T, cache.inputs[l], out=out[f"w{l}"])
        dz.sum(axis=0, out=out[f"b{l}"])
    return out


# ---------------------------------------------------------------------------
# LSTM forward / backward (BPTT)
# ---------------------------------------------------------------------------


@dataclass
class LstmCache:
    """Everything the backward pass needs, time-major and batch-last.

    `inputs` holds, in slot t < T, the rows x_t, a row of ones and h_{t-1}
    of step t's product; slot 0's h rows are the zero initial state, and
    slot T holds only h_T (its x and ones rows are never written).
    `hiddens` is a view of the h rows. `gates` holds each step's
    activations i, f, g, o in GATE_ORDER blocks of H rows. `cells` holds the
    zero initial state in slot 0, so step t reads its previous state from
    slot t and writes its own to slot t + 1, as `hiddens` does.
    """

    inputs: np.ndarray  # (T + 1, F + 1 + H, B)
    gates: np.ndarray  # (T, 4H, B)
    cells: np.ndarray  # (T + 1, H, B)
    tanh_c: np.ndarray  # (T, H, B)
    hiddens: np.ndarray  # (T + 1, H, B), a view of inputs' h rows


def _per_gate(values: tuple[tuple[float, ...], ...], hsz: int, cols: int, dtype) -> np.ndarray:
    """One (4H, cols) array per tuple in `values`, holding its k-th value in
    the rows of gate block k.

    Full slabs rather than one broadcast column: an update of a (4H, B)
    block by a same-shaped operand runs as one contiguous pass, about 1.5
    times as fast at B = 64 as one that broadcasts a (4H, 1) column.
    """
    out = np.empty((len(values), 4, hsz, cols), dtype)
    out[...] = np.asarray(values, dtype)[:, :, None, None]
    return out.reshape(len(values), 4 * hsz, cols)


def _gate_blocks(a: np.ndarray, hsz: int) -> tuple[np.ndarray, ...]:
    """Views of the i, f, g, o row blocks of a (..., 4H, B) array."""
    return tuple(a[..., k * hsz : (k + 1) * hsz, :] for k in range(4))


def lstm_forward(params: LstmParams, x: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Unroll over a batch of windows: x is (B, T, F), returns ((*stack, B), cache).

    h_0 = c_0 = 0 for every call. Each step is one product of the weights
    [W_x | b | W_h], whose i, f and o rows are halved, with the column
    [x_t; 1; h_{t-1}] of every window, then one tanh over the whole gate
    block; every result is written in place, into buffers allocated once per
    call. The cache's tensors put the time axis first, then the stack axes,
    and the batch last: (T, *stack, ..., B). Everything runs in the
    parameters' dtype.
    """
    x = np.asarray(x, dtype=params.w_x.dtype)
    if x.ndim != 3:
        raise ShapeError(f"lstm_forward expects (batch, time, features), got {x.shape}")
    bsz, steps, feats = x.shape
    if steps < 1:
        raise ShapeError("window length must be >= 1")
    if feats != params.input_size:
        raise ShapeError(
            f"feature count {feats} does not match model input {params.input_size}"
        )
    hsz = params.hidden_size
    stack = params.stack_shape
    width = feats + 1 + hsz
    # Halving the i, f and o rows makes tanh, then `scale` and `shift`,
    # give sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 there and tanh(z) on g.
    scale, shift = _per_gate(((0.5, 0.5, 1.0, 0.5), (0.5, 0.5, 0.0, 0.5)), hsz, bsz, x.dtype)
    w_all = np.empty((*stack, 4 * hsz, width), x.dtype)
    w_all[..., :feats] = params.w_x
    w_all[..., feats] = params.b  # the weight of the row of ones
    w_all[..., feats + 1 :] = params.w_h
    w_all[..., : 2 * hsz, :] *= 0.5
    w_all[..., 3 * hsz :, :] *= 0.5

    inputs = np.empty((steps + 1, *stack, width, bsz), x.dtype)
    inputs[:steps, ..., :feats, :] = x.transpose(1, 2, 0).reshape(
        steps, *(1,) * len(stack), feats, bsz
    )
    inputs[:steps, ..., feats, :] = 1.0
    hiddens = inputs[..., feats + 1 :, :]
    hiddens[0] = 0.0
    gates = np.empty((steps, *stack, 4 * hsz, bsz), x.dtype)
    cells = np.empty((steps + 1, *stack, hsz, bsz), x.dtype)
    cells[0] = 0.0
    tanh_cells = np.empty((steps, *stack, hsz, bsz), x.dtype)
    tmp = np.empty((*stack, hsz, bsz), x.dtype)

    gi, gf, gg, go = _gate_blocks(gates, hsz)
    for t in range(steps):
        z = gates[t]
        np.matmul(w_all, inputs[t], out=z)
        np.tanh(z, out=z)
        z *= scale
        z += shift
        c = cells[t + 1]
        np.multiply(gf[t], cells[t], out=c)
        np.multiply(gi[t], gg[t], out=tmp)
        c += tmp
        np.tanh(c, out=tanh_cells[t])
        np.multiply(go[t], tanh_cells[t], out=hiddens[t + 1])

    pred = (params.w_head[..., None, :] @ hiddens[steps])[..., 0, :] + params.b_head[..., :1]
    return pred, LstmCache(inputs, gates, cells, tanh_cells, hiddens)


def lstm_backward(
    params: LstmParams, cache: LstmCache, dpred: np.ndarray, out: dict | None = None
) -> dict[str, np.ndarray]:
    """Full backpropagation through time for one model, written into `out`
    (tensors of the parameters' names and shapes) or fresh tensors."""
    if params.stack_shape:
        raise ShapeError("lstm_backward takes one model, not a stack")
    steps, hsz, bsz = cache.tanh_c.shape
    feats = cache.inputs.shape[1] - 1 - hsz
    if hsz != params.hidden_size or feats != params.input_size:
        raise ShapeError("cache shapes do not match parameters")
    dpred = np.asarray(dpred, dtype=params.w_x.dtype)
    if dpred.shape != (bsz,):
        raise ShapeError(f"dpred shape {dpred.shape} does not match batch {bsz}")

    out = {k: np.empty_like(t) for k, t in params.to_dict().items()} if out is None else out
    np.matmul(cache.hiddens[steps], dpred, out=out["w_head"])
    dpred.sum(keepdims=True, out=out["b_head"])

    dz_all = np.empty((steps, 4 * hsz, bsz), dpred.dtype)
    dh = params.w_head[:, None] * dpred[None, :]
    dc = np.zeros((hsz, bsz), dpred.dtype)
    tmp = np.empty((hsz, bsz), dpred.dtype)
    # Each gate's slope is (k - a) * a + s: a(1 - a) on i, f and o, 1 - g^2 on g.
    k, s = _per_gate(((1.0, 1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0)), hsz, bsz, dpred.dtype)
    slope = np.empty((4 * hsz, bsz), dpred.dtype)
    w_h_t = params.w_h.T
    gi, gf, gg, go = _gate_blocks(cache.gates, hsz)
    di, df, dg, do = _gate_blocks(dz_all, hsz)
    for t in range(steps - 1, -1, -1):
        tanh_c = cache.tanh_c[t]
        np.multiply(dh, tanh_c, out=do[t])
        # dc += dh * o * (1 - tanh_c^2)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dh *= go[t]
        dh *= tmp
        dc += dh
        np.multiply(dc, gg[t], out=di[t])
        np.multiply(dc, cache.cells[t], out=df[t])
        np.multiply(dc, gi[t], out=dg[t])
        a = cache.gates[t]
        np.subtract(k, a, out=slope)
        slope *= a
        slope += s
        dz = dz_all[t]
        dz *= slope
        np.matmul(w_h_t, dz, out=dh)
        dc *= gf[t]

    # Every weight's gradient in one product: the sum over t and the batch of
    # dz_t [x_t; 1; h_{t-1}]^T.
    grad = np.tensordot(dz_all, cache.inputs[:steps], axes=([0, 2], [0, 2]))
    out["w_x"][...] = grad[:, :feats]
    out["b"][...] = grad[:, feats]
    out["w_h"][...] = grad[:, feats + 1 :]
    return out


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. the predictions.

    L = (1/n) * sum((pred - target)^2); dL/dpred = (2/n) * (pred - target).
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ShapeError(
            f"prediction shape {predictions.shape} does not match targets {targets.shape}"
        )
    n = predictions.size
    if n == 0:
        raise ValidationError("mse_loss requires at least one sample")
    err = predictions - targets
    return float(np.mean(err * err)), (2.0 / n) * err
