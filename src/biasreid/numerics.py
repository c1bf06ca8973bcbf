"""Dense-network forward/backward machinery and Adam.

Everything runs in float64. The encoder is a small fully connected net with
leaky-rectifier hidden layers and a linear output; its forward pass records a
tape from which exact reverse-mode parameter gradients are recovered.

An encoder's parameters, its gradients and its Adam moments share one
layout: a contiguous vector holding w0, b0, w1, b1, ... in turn, each weight
row-major, so the layer widths give every view and a checkpoint stores the
three vectors as they are. Adam is elementwise, so it updates all of them in
one pass, in place: the trainer that owns an encoder and its Adam state is
their only writer, so no step copies them. The hidden slope is a constant,
and Adam runs at its published defaults (Kingma & Ba 2015, arXiv 1412.6980).

Two hot-path forms are exact rewrites, not approximations. A hidden layer's
output is `np.maximum(z, HIDDEN_SLOPE * z)`, one pass with no mask: for a
slope in [0, 1], slope * z rounds to at most z when z > 0 and to at least z
when z < 0 (from the zero side, so a tiny negative z gives -0.0, as
`prelu` does), and at +-0, +-inf and NaN both forms give the same bits; so
it equals `prelu(z, HIDDEN_SLOPE)` on every float. `prelu` keeps its slope
check for the probe, whose slope is learned and may leave [0, 1]. Adam runs
the textbook expression's operations in its order, each rounding as
written, through two temporaries the size of the parameters, so no step
allocates one array per operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingError

HIDDEN_SLOPE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class EncoderParams:
    """Weights/biases of the feature mapping, one instance per branch.

    `flat` holds every parameter as w0, b0, w1, b1, ...; weights[i] (shape
    [out_i, in_i]) and biases[i] (shape [out_i]) are views into it, and
    `layers` gives the same views of any vector with that layout. All hidden
    layers use a leaky rectifier with slope `HIDDEN_SLOPE`; the final layer
    is linear. Construction copies the given arrays into a new `flat`.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ConfigError("encoder needs matching, non-empty weight/bias lists")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ConfigError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ConfigError(
                    f"layer {i}: input dim {w.shape[1]} != previous output "
                    f"{weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DataError(f"layer {i}: non-finite parameter entries")
        self.shapes = [w.shape for w in weights]
        self.flat = np.concatenate(
            [a.ravel() for pair in zip(weights, biases) for a in pair], dtype=np.float64
        )
        self.weights, self.biases = self.layers(self.flat)

    def layers(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views of a vector laid out like `flat`."""
        return layer_views(self.shapes, vec)

    @property
    def d_in(self) -> int:
        return self.shapes[0][1]

    @property
    def d_out(self) -> int:
        return self.shapes[-1][0]


def layer_views(shapes: list[tuple[int, int]], vec: np.ndarray) -> tuple[list, list]:
    """Per-layer (weights, biases) views of a vector holding w0, b0, w1, b1,
    ... for weights of `shapes` [(out, in), ...]."""
    weights, biases, start = [], [], 0
    for n_out, n_in in shapes:
        stop = start + n_out * n_in
        weights.append(vec[start:stop].reshape(n_out, n_in))
        biases.append(vec[stop : stop + n_out])
        start = stop + n_out
    return weights, biases


@dataclass
class EncodeTape:
    """Activation record from one forward pass; feeds backprop."""

    params: EncoderParams
    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def init_encoder(
    d_in: int, hidden: tuple[int, ...], d_emb: int, rng: np.random.Generator
) -> EncoderParams:
    """He-style initialization: W ~ N(0, 2/fan_in), zero biases."""
    dims = [d_in, *hidden, d_emb]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights, biases)


def prelu(x: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise x if x > 0 else slope * x.

    Only the value: `backprop` applies the derivative (1 above 0, `slope` at
    and below 0) from the tape's pre-activations.
    """
    if not np.isfinite(slope):
        raise ConfigError("prelu slope must be finite")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, slope * x)


def encode(params: EncoderParams, inputs: np.ndarray) -> tuple[np.ndarray, EncodeTape]:
    """Forward pass over a batch [n, d_in] -> embeddings [n, d_out] plus tape."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[1] != params.d_in:
        raise ConfigError(f"input width {x.shape[1]} != encoder d_in {params.d_in}")
    if not np.isfinite(x).all():
        raise DataError("non-finite input features")

    layer_inputs, preacts = [], []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        z = h @ w.T
        z += b
        preacts.append(z)
        # prelu(z, HIDDEN_SLOPE) bit for bit, since the slope is in [0, 1]
        h = np.maximum(z, HIDDEN_SLOPE * z) if i < last else z
    return h, EncodeTape(params, layer_inputs, preacts)


def backprop(tape: EncodeTape, embedding_grads: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradients of sum(embedding_grads * embeddings).

    Returns one vector laid out like the `flat` of the encoder that produced
    `tape`, each layer's gradient written into its view. A hidden layer's
    derivative is 1 where its pre-activation is > 0 and the slope elsewhere,
    at exactly 0 too; `delta * 1.0 == delta`, so passing delta through
    unscaled there is exact.
    """
    g = np.asarray(embedding_grads, dtype=np.float64)
    params = tape.params
    n_layers = len(params.weights)
    expected = (tape.layer_inputs[0].shape[0], params.d_out)
    if g.shape != expected:
        raise ConfigError(f"embedding grads shape {g.shape} != {expected}")

    grads = np.empty_like(params.flat)
    gw, gb = params.layers(grads)
    delta = g
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            delta = np.where(tape.preacts[i] > 0, delta, delta * HIDDEN_SLOPE)
        np.matmul(delta.T, tape.layer_inputs[i], out=gw[i])
        np.add.reduce(delta, axis=0, out=gb[i])
        if i > 0:
            delta = delta @ params.weights[i]
    return grads


@dataclass
class AdamState:
    """Adam's first and second moments `m` and `v`, each laid out like the
    `flat` of the encoder it updates, plus the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, params: EncoderParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, rate: float
) -> None:
    """Adam update number `step` (from 1) with bias correction and the
    default rates, in place on parameter vector `p` and moments `m`, `v`
    given gradient `g`."""
    if rate < 0:
        raise ConfigError(f"learning rate must be >= 0, got {rate}")
    if not p.shape == g.shape == m.shape == v.shape:
        raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradients")
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    # m = m * b1 + (1 - b1) * g; v = v * b2 + (1 - b2) * g * g;
    # p -= rate * (m / c1) / (sqrt(v / c2) + eps): every rounding as written
    a = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += a
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    a *= g
    v *= ADAM_BETA2
    v += a
    np.divide(m, c1, out=a)
    a *= rate
    b = np.divide(v, c2)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    p -= a


def adam_step(params: EncoderParams, grads: np.ndarray, state: AdamState, rate: float) -> None:
    """One Adam update of an encoder, in place: updates `params.flat`,
    `state.m` and `state.v` (and so every view of them) and increments
    `state.step`; an update that raises leaves all of them as they were.
    Callers that need the old values copy them first."""
    adam_update(params.flat, grads, state.m, state.v, state.step + 1, rate)
    state.step += 1

