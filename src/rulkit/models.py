"""From-scratch MLP and LSTM regressors with analytic gradients.

No autodiff: every backward pass is hand-derived and verified against
central finite differences in the test suite. Each model's parameters are
named float64 tensors (to_dict / from_dict), so the optimizer and checkpoint
code treat both models alike. While training, those tensors are reshaped
views of one contiguous vector (optim.flatten_params) that Adam updates in
a single pass; from_dict keeps float64 views as they are, without a copy.

The parameter object is the model: `params.forward(x)` gives (predictions,
cache) and `params.backward(cache, dpred)` the gradients, through this
module's mlp_* / lstm_* functions. `takes_windows` says whether a sample is
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

The forward pass keeps all four gates in one time-major (T, B, 4H) tensor:
the input projection W x_t of every step is computed in one product, and
step t overwrites its slice with the activations (i, f, g, o): one sigmoid
call activates all four blocks, then the g block is overwritten with the
tanh of its pre-activation, taken before the sigmoid. The backward pass
reads the same tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .numerics import SeededRng, sigmoid

GATE_ORDER = ("i", "f", "g", "o")


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

    takes_windows = False  # class attribute, not a field
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
    def arch(self) -> dict:
        return {"layer_sizes": list(self.layer_sizes)}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        return mlp_forward(self, x)

    def backward(self, cache: MlpCache, dpred: np.ndarray) -> dict[str, np.ndarray]:
        return mlp_backward(self, cache, dpred)

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
    def arch(self) -> dict:
        return {"hidden_size": self.hidden_size, "input_size": self.input_size}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, LstmCache]:
        return lstm_forward(self, x)

    def backward(self, cache: LstmCache, dpred: np.ndarray) -> dict[str, np.ndarray]:
        return lstm_backward(self, cache, dpred)

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
        return cls(*(np.asarray(tensors[k], dtype=np.float64) for k in
                     ("w_x", "w_h", "b", "w_head", "b_head")))


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
    params: MlpParams, cache: MlpCache, dpred: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every weight and bias of one model.

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
    grads: dict[str, np.ndarray] = {}
    last = len(params.weights) - 1
    delta = np.asarray(dpred, dtype=np.float64)[:, None]  # (B, 1)
    grads[f"w{last}"] = delta.T @ cache.inputs[last]
    grads[f"b{last}"] = delta.sum(axis=0)
    dh = delta @ params.weights[last]
    for l in range(last - 1, -1, -1):
        dz = dh * (cache.pre_acts[l] > 0.0)
        grads[f"w{l}"] = dz.T @ cache.inputs[l]
        grads[f"b{l}"] = dz.sum(axis=0)
        if l > 0:
            dh = dz @ params.weights[l]
    return grads


# ---------------------------------------------------------------------------
# LSTM forward / backward (BPTT)
# ---------------------------------------------------------------------------


@dataclass
class LstmCache:
    """Everything the backward pass needs, time-major.

    `gates` is the input-projection buffer overwritten, step by step, with
    the activations i, f, g, o in GATE_ORDER blocks of H columns. `cells`
    and `hiddens` hold the zero initial state in row 0, so step t reads its
    previous state from row t and writes its own to row t + 1.
    """

    x: np.ndarray  # (T, B, F)
    gates: np.ndarray  # (T, B, 4H)
    cells: np.ndarray  # (T + 1, B, H)
    tanh_c: np.ndarray  # (T, B, H)
    hiddens: np.ndarray  # (T + 1, B, H)

    @property
    def c(self) -> np.ndarray:
        """Cell state after each step, (T, B, H)."""
        return self.cells[1:]

    @property
    def h(self) -> np.ndarray:
        """Hidden state after each step, (T, B, H)."""
        return self.hiddens[1:]


def _gate_blocks(a: np.ndarray, hsz: int) -> tuple[np.ndarray, ...]:
    """Views of the i, f, g, o column blocks of a (..., 4H) array."""
    return tuple(a[..., k * hsz : (k + 1) * hsz] for k in range(4))


def lstm_forward(params: LstmParams, x: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Unroll over a batch of windows: x is (B, T, F), returns ((*stack, B), cache).

    h_0 = c_0 = 0 for every call. The input projection for all timesteps
    is computed in one product; the loop carries only the recurrence and
    writes every result in place, into buffers allocated once per call.
    The cache's state tensors put the time axis first, then the stack axes:
    (T, *stack, B, ...).
    """
    x = np.asarray(x, dtype=np.float64)
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
    xt = np.ascontiguousarray(x.transpose(1, 0, 2))  # (T, B, F)
    gates = (xt.reshape(steps * bsz, feats) @ params.w_x.swapaxes(-1, -2)).reshape(
        *stack, steps, bsz, 4 * hsz
    )
    k = len(stack)
    gates = gates.transpose(k, *range(k), k + 1, k + 2)  # (T, *stack, B, 4H)
    cells = np.zeros((steps + 1, *stack, bsz, hsz))
    hiddens = np.zeros((steps + 1, *stack, bsz, hsz))
    tanh_cells = np.empty((steps, *stack, bsz, hsz))

    w_h_t = params.w_h.swapaxes(-1, -2)
    b = params.b[..., None, :]
    rec = np.empty((*stack, bsz, 4 * hsz))
    tmp = np.empty((*stack, bsz, hsz))
    gi, gf, gg, go = _gate_blocks(gates, hsz)
    for t in range(steps):
        z = gates[t]  # holds x_t W^T; becomes the step's activations
        np.matmul(hiddens[t], w_h_t, out=rec)
        z += rec
        z += b
        np.tanh(gg[t], out=tmp)
        sigmoid(z, out=z)
        gg[t] = tmp
        c = cells[t + 1]
        np.multiply(gf[t], cells[t], out=c)
        np.multiply(gi[t], tmp, out=tmp)  # i * g
        c += tmp
        np.tanh(c, out=tanh_cells[t])
        np.multiply(go[t], tanh_cells[t], out=hiddens[t + 1])

    pred = (hiddens[steps] @ params.w_head[..., :, None])[..., 0] + params.b_head[..., :1]
    return pred, LstmCache(xt, gates, cells, tanh_cells, hiddens)


def lstm_backward(
    params: LstmParams, cache: LstmCache, dpred: np.ndarray
) -> dict[str, np.ndarray]:
    """Full backpropagation through time, accumulating into every tensor of one model."""
    if params.stack_shape:
        raise ShapeError("lstm_backward takes one model, not a stack")
    steps, bsz, hsz = cache.tanh_c.shape
    if hsz != params.hidden_size or cache.x.shape[2] != params.input_size:
        raise ShapeError("cache shapes do not match parameters")
    dpred = np.asarray(dpred, dtype=np.float64)
    if dpred.shape != (bsz,):
        raise ShapeError(f"dpred shape {dpred.shape} does not match batch {bsz}")

    grad_w_head = cache.hiddens[steps].T @ dpred
    grad_b_head = np.array([dpred.sum()])

    dz_all = np.empty((steps, bsz, 4 * hsz))
    dh = dpred[:, None] * params.w_head[None, :]
    dc = np.zeros((bsz, hsz))
    tmp = np.empty((bsz, hsz))
    dz_g = np.empty((bsz, hsz))
    one_minus = np.empty((bsz, 4 * hsz))
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
        # g block: dg * (1 - g^2), set aside before the fused update below
        np.multiply(gg[t], gg[t], out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dg[t], tmp, out=dz_g)
        # i, f, o blocks: (d * a) * (1 - a) over all four, then restore g
        dz = dz_all[t]
        a = cache.gates[t]
        dz *= a
        np.subtract(1.0, a, out=one_minus)
        dz *= one_minus
        dg[t] = dz_g

        np.matmul(dz, params.w_h, out=dh)
        dc *= gf[t]

    dz_flat = dz_all.reshape(steps * bsz, 4 * hsz)
    return {
        "w_x": dz_flat.T @ cache.x.reshape(steps * bsz, -1),
        "w_h": dz_flat.T @ cache.hiddens[:steps].reshape(steps * bsz, hsz),
        "b": dz_flat.sum(axis=0),
        "w_head": grad_w_head,
        "b_head": grad_b_head,
    }


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
