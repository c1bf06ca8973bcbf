"""Dense-network forward/backward machinery, Adam, and a gradient checker.

Everything runs in float64. The encoder is a small fully connected net with
leaky-rectifier hidden layers and a linear output; its forward pass records a
tape from which exact reverse-mode parameter gradients are recovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, TrainingError

DEFAULT_HIDDEN_SLOPE = 0.01


@dataclass
class EncoderParams:
    """Weights/biases of the feature mapping, one instance per branch.

    weights[i] has shape [out_i, in_i]; biases[i] has shape [out_i]. All
    hidden layers use a leaky rectifier with slope `hidden_slope`; the final
    layer is linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_slope: float = DEFAULT_HIDDEN_SLOPE

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("encoder needs matching, non-empty weight/bias lists")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ConfigError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ConfigError(
                    f"layer {i}: input dim {w.shape[1]} != previous output "
                    f"{self.weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DataError(f"layer {i}: non-finite parameter entries")

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.hidden_slope,
        )

    def allclose(self, other: "EncoderParams") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights)) and all(
            np.array_equal(a, b) for a, b in zip(self.biases, other.biases)
        )


@dataclass
class ParamGrads:
    """Gradients congruent to EncoderParams."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class EncodeTape:
    """Activation record from one forward pass; feeds backprop."""

    params: EncoderParams
    layer_inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def init_encoder(
    d_in: int,
    hidden: tuple[int, ...],
    d_emb: int,
    rng: np.random.Generator,
    hidden_slope: float = DEFAULT_HIDDEN_SLOPE,
) -> EncoderParams:
    """He-style initialization: W ~ N(0, 2/fan_in), zero biases."""
    dims = [d_in, *hidden, d_emb]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights, biases, hidden_slope)


def prelu(x: np.ndarray, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise x if x > 0 else slope * x, plus the derivative.

    The derivative at exactly 0 is taken as `slope` so tests are deterministic.
    """
    if not np.isfinite(slope):
        raise ConfigError("prelu slope must be finite")
    x = np.asarray(x, dtype=np.float64)
    pos = x > 0
    y = np.where(pos, x, slope * x)
    dy = np.where(pos, 1.0, slope)
    return y, dy


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
        z = h @ w.T + b
        preacts.append(z)
        if i < last:
            h, _ = prelu(z, params.hidden_slope)
        else:
            h = z
    return h, EncodeTape(params, layer_inputs, preacts)


def backprop(tape: EncodeTape, embedding_grads: np.ndarray) -> ParamGrads:
    """Exact reverse-mode gradients of sum(embedding_grads * embeddings).

    Returns gradients with respect to every weight and bias of the encoder
    that produced `tape`.
    """
    g = np.asarray(embedding_grads, dtype=np.float64)
    params = tape.params
    n_layers = len(params.weights)
    expected = (tape.layer_inputs[0].shape[0], params.d_out)
    if g.shape != expected:
        raise ConfigError(f"embedding grads shape {g.shape} != {expected}")

    gw = [np.empty(0)] * n_layers
    gb = [np.empty(0)] * n_layers
    delta = g
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            _, dact = prelu(tape.preacts[i], params.hidden_slope)
            delta = delta * dact
        gw[i] = delta.T @ tape.layer_inputs[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i]
    return ParamGrads(gw, gb)


@dataclass
class AdamState:
    """First/second moment accumulators congruent to EncoderParams."""

    m_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_w: list[np.ndarray]
    v_b: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(
        cls, params: EncoderParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> "AdamState":
        zw = [np.zeros_like(w) for w in params.weights]
        zb = [np.zeros_like(b) for b in params.biases]
        return cls(zw, zb, [z.copy() for z in zw], [z.copy() for z in zb], 0, beta1, beta2, eps)

    def copy(self) -> "AdamState":
        return replace(
            self,
            m_w=[a.copy() for a in self.m_w],
            m_b=[a.copy() for a in self.m_b],
            v_w=[a.copy() for a in self.v_w],
            v_b=[a.copy() for a in self.v_b],
        )


def adam_update(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    step: int,
    rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam update number `step` (from 1) with bias correction, in place on
    matching lists of parameter, gradient and moment arrays."""
    if rate < 0:
        raise ConfigError(f"learning rate must be >= 0, got {rate}")
    if not len(params) == len(grads) == len(m) == len(v):
        raise ConfigError("gradient/parameter counts differ")
    if not all(np.isfinite(g).all() for g in grads):
        raise TrainingError("non-finite gradients")
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    for p, g, m_p, v_p in zip(params, grads, m, v):
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m_p *= beta1
        m_p += (1.0 - beta1) * g
        v_p *= beta2
        v_p += (1.0 - beta2) * g * g
        p -= rate * (m_p / c1) / (np.sqrt(v_p / c2) + eps)


def adam_step(
    params: EncoderParams, grads: ParamGrads, state: AdamState, rate: float
) -> tuple[EncoderParams, AdamState]:
    """One Adam update of an encoder; returns fresh (params, state)."""
    out = params.copy()
    st = state.copy()
    st.step = state.step + 1
    adam_update(
        out.weights + out.biases,
        grads.weights + grads.biases,
        st.m_w + st.m_b,
        st.v_w + st.v_b,
        st.step,
        rate,
        st.beta1,
        st.beta2,
        st.eps,
    )
    return out, st


@dataclass(frozen=True)
class Schedule:
    """Linear decay from `base` at epoch 0 to exactly 0 at `total_epochs`."""

    base: float
    total_epochs: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.total_epochs <= 0:
            raise ConfigError("schedule needs base >= 0 and total_epochs >= 1")


def schedule_rate(s: Schedule, epoch: int) -> float:
    if not 0 <= epoch <= s.total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {s.total_epochs}]")
    return s.base * (1.0 - epoch / s.total_epochs)


def finite_difference_grads(value_fn, params: EncoderParams, h: float = 1e-5) -> ParamGrads:
    """Central finite differences of a scalar function of the parameters.

    Independent of backprop: only calls `value_fn(params)`. O(#params) evals,
    so keep the encoder small when using this as a test oracle.
    """
    gw = [np.zeros_like(w) for w in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]

    def central(arrs: list[np.ndarray], out: list[np.ndarray]) -> None:
        for arr, g in zip(arrs, out):
            flat, gflat = arr.ravel(), g.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = value_fn(params)
                flat[j] = orig - h
                dn = value_fn(params)
                flat[j] = orig
                gflat[j] = (up - dn) / (2.0 * h)

    central(params.weights, gw)
    central(params.biases, gb)
    return ParamGrads(gw, gb)


def gradient_relative_error(analytic: ParamGrads, reference: ParamGrads) -> float:
    """Max over entries of |a - r| / max(1, |a|, |r|)."""
    worst = 0.0
    pairs = list(zip(analytic.weights, reference.weights))
    pairs += list(zip(analytic.biases, reference.biases))
    for a, r in pairs:
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(r)))
        worst = max(worst, float((np.abs(a - r) / denom).max(initial=0.0)))
    return worst
