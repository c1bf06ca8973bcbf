import math

import numpy as np
import pytest

from biasreid.errors import ConfigError, DataError, TrainingError
from biasreid.numerics import (
    HIDDEN_SLOPE,
    AdamState,
    EncoderParams,
    adam_step,
    backprop,
    encode,
    init_encoder,
    prelu,
)


def finite_difference_grads(value_fn, params, h=1e-5):
    """Central finite differences of a scalar function of the parameters,
    one entry of `params.flat` at a time, returned in that layout.

    Independent of backprop: only calls `value_fn(params)`. O(#params) evals,
    so keep the encoder small when using this as a test oracle.
    """
    flat = params.flat
    grads = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = value_fn(params)
        flat[j] = orig - h
        dn = value_fn(params)
        flat[j] = orig
        grads[j] = (up - dn) / (2.0 * h)
    return grads


def gradient_relative_error(analytic, reference):
    """Max over entries of |a - r| / max(1, |a|, |r|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(reference)))
    return float((np.abs(analytic - reference) / denom).max(initial=0.0))


def single_layer(w, b):
    return EncoderParams([np.asarray(w, float)], [np.asarray(b, float)])


def straight_line_forward(params, x):
    """Independent re-implementation of the forward pass with plain loops."""
    out = np.zeros((x.shape[0], params.d_out))
    for r in range(x.shape[0]):
        h = x[r]
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = np.array([float(np.dot(w[j], h)) + b[j] for j in range(w.shape[0])])
            if i < len(params.weights) - 1:
                z = np.array([v if v > 0 else 0.01 * v for v in z])
            h = z
        out[r] = h
    return out


class TestEncode:
    def test_identity_layer(self):
        p = single_layer(np.eye(2), np.zeros(2))
        emb, _ = encode(p, np.array([[1.0, 2.0]]))
        assert np.array_equal(emb, [[1.0, 2.0]])

    def test_hand_matrix(self):
        p = single_layer([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
        emb, _ = encode(p, np.array([[1.0, 1.0]]))
        assert np.array_equal(emb, [[3.0, 2.0]])

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(0)
        params = init_encoder(5, (7, 6), 4, rng)
        x = rng.normal(size=(4, 5))
        emb, _ = encode(params, x)
        np.testing.assert_allclose(emb, straight_line_forward(params, x), atol=1e-12)

    def test_hidden_outputs_are_prelu_bit_for_bit(self):
        # encode's max(z, slope * z) equals prelu only for a slope in [0, 1]
        assert 0.0 <= HIDDEN_SLOPE <= 1.0
        # 1 -> 7 -> 1: each hidden preactivation is x * w + b, so rows x = +-1
        # and +-0.5 give 0.0, +-5e-324, +-1e308 and +-inf (1e308 + 1e308). A
        # GEMM sums from +0.0, so no preactivation is -0.0; -0.0 shows as
        # an output instead, the slope times -5e-324
        w0 = np.array([[0.0], [5e-324], [-5e-324], [1e308], [-1e308], [1e308], [-1e308]])
        b0 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e308, -1e308])
        extreme = EncoderParams([w0, np.ones((1, 7))], [b0, np.zeros(1)])
        rng = np.random.default_rng(0)
        cases = [
            (extreme, np.array([[1.0], [-1.0], [0.5], [-0.5]])),
            (init_encoder(5, (7, 6), 4, rng), rng.normal(size=(9, 5))),
        ]
        tapes = []
        for params, x in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                tapes.append(encode(params, x)[1])
            for z, h in zip(tapes[-1].preacts[:-1], tapes[-1].layer_inputs[1:]):
                assert h.view(np.uint64).tolist() == prelu(z, HIDDEN_SLOPE).view(np.uint64).tolist()
        z, h = tapes[0].preacts[0], tapes[0].layer_inputs[1]
        for value in (0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf):
            assert (z.view(np.uint64) == np.float64(value).view(np.uint64)).any(), value
        assert np.signbit(h[h == 0.0]).any() and not np.signbit(h[h == 0.0]).all()

    def test_dimension_mismatch(self):
        p = single_layer(np.eye(2), np.zeros(2))
        with pytest.raises(ConfigError):
            encode(p, np.ones((1, 3)))

    def test_non_finite_input(self):
        p = single_layer(np.eye(2), np.zeros(2))
        with pytest.raises(DataError):
            encode(p, np.array([[1.0, np.nan]]))

    def test_inconsistent_layer_dims_rejected(self):
        with pytest.raises(ConfigError):
            EncoderParams([np.ones((3, 2)), np.ones((2, 4))], [np.zeros(3), np.zeros(2)])


class TestBackprop:
    def test_linear_layer_hand_chain_rule(self):
        p = single_layer(np.eye(2), np.zeros(2))
        x = np.array([[3.0, 5.0]])
        _, tape = encode(p, x)
        gw, gb = p.layers(backprop(tape, np.array([[1.0, 0.0]])))
        np.testing.assert_array_equal(gw[0], np.outer([1.0, 0.0], x[0]))
        np.testing.assert_array_equal(gb[0], [1.0, 0.0])

    def test_zero_grads_in_zero_grads_out(self):
        rng = np.random.default_rng(1)
        params = init_encoder(3, (4,), 2, rng)
        _, tape = encode(params, rng.normal(size=(5, 3)))
        g = backprop(tape, np.zeros((5, 2)))
        assert g.shape == params.flat.shape and not g.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        params = init_encoder(4, (6, 5), 3, rng)
        x = rng.normal(size=(6, 4))
        # arbitrary fixed scalar loss: weighted sum of embeddings
        w = rng.normal(size=(6, 3))

        def value(p):
            emb, _ = encode(p, x)
            return float((w * emb).sum())

        emb, tape = encode(params, x)
        analytic = backprop(tape, w)
        fd = finite_difference_grads(value, params, h=1e-5)
        assert gradient_relative_error(analytic, fd) < 1e-5

    @pytest.mark.parametrize("g", [0.25, 0.3, 1.0])
    def test_hidden_derivative_from_preacts(self, g):
        # one hidden unit between two unit weights: the hidden bias's gradient
        # is the embedding gradient g times the rectifier's derivative at the
        # pre-activation, 1 above 0 and the slope 0.01 below 0 and at exactly 0
        p = EncoderParams([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        for x, expected in ((2.0, g), (-2.0, g * 0.01), (0.0, g * 0.01)):
            _, tape = encode(p, np.array([[x]]))
            assert tape.preacts[0][0, 0] == x
            _, gb = p.layers(backprop(tape, np.full((1, 1), g)))
            assert gb[0][0] == expected

    def test_shape_mismatch(self):
        p = single_layer(np.eye(2), np.zeros(2))
        _, tape = encode(p, np.ones((1, 2)))
        with pytest.raises(ConfigError):
            backprop(tape, np.ones((2, 2)))


class TestAdam:
    def test_first_step_is_signed_rate(self):
        p = single_layer([[1.0]], [0.0])
        start = EncoderParams(p.weights, p.biases)
        g = np.array([0.5, 0.0])  # w0, b0
        st = AdamState.fresh(p)
        adam_step(p, g, st, rate=0.1)
        # first bias-corrected step is rate * g/(|g| + eps') ~= rate * sign(g)
        assert p.weights[0][0, 0] == pytest.approx(start.weights[0][0, 0] - 0.1, abs=1e-6)
        assert st.step == 1

    def test_zero_grad_fresh_state_no_move(self):
        rng = np.random.default_rng(3)
        p = init_encoder(3, (4,), 2, rng)
        start = EncoderParams(p.weights, p.biases)
        g = np.zeros_like(p.flat)
        adam_step(p, g, AdamState.fresh(p), rate=0.05)
        assert np.array_equal(p.flat, start.flat)

    def test_two_identical_grads_second_step_magnitude(self):
        p = single_layer([[2.0]], [0.0])
        g = np.array([-0.3, 0.0])
        st = AdamState.fresh(p)
        adam_step(p, g, st, rate=0.01)
        p1 = EncoderParams(p.weights, p.biases)
        adam_step(p, g, st, rate=0.01)
        # moment ratios cancel for constant gradients: step magnitude ~= rate
        assert abs(p.weights[0][0, 0] - p1.weights[0][0, 0]) == pytest.approx(0.01, rel=1e-4)
        assert p.weights[0][0, 0] > p1.weights[0][0, 0]  # moves against negative grad

    def test_non_finite_grads_abort(self):
        p = single_layer([[1.0]], [0.0])
        g = np.array([np.inf, 0.0])
        st = AdamState.fresh(p)
        with pytest.raises(TrainingError):
            adam_step(p, g, st, rate=0.1)
        assert st.step == 0 and p.weights[0][0, 0] == 1.0 and not st.m.any()

    def test_matches_straight_line_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4)
        p = init_encoder(3, (4,), 2, rng)
        start = EncoderParams(p.weights, p.biases)
        grads = [rng.normal(size=p.flat.size) * 10.0 ** rng.integers(-6, 3) for _ in range(5)]
        st = AdamState.fresh(p)
        for g in grads:
            adam_step(p, g, st, rate=0.01)
        ref_p, ref_m, ref_v = straight_line_adam(start.flat, grads, 0.01)
        assert p.flat.tolist() == ref_p and st.m.tolist() == ref_m and st.v.tolist() == ref_v

    def test_updates_in_place(self):
        p = single_layer([[1.0]], [0.5])
        flat = p.flat
        g = np.array([1.0, 1.0])
        st = AdamState.fresh(p)
        adam_step(p, g, st, rate=0.1)
        assert p.flat is flat
        assert p.weights[0][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        assert st.step == 1
        assert g.tolist() == [1.0, 1.0]


def straight_line_adam(p, grads, rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam over Python floats, one entry at a time."""
    p = [float(x) for x in p]
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    for step, g in enumerate(grads, start=1):
        c1, c2 = 1.0 - beta1**step, 1.0 - beta2**step
        for j, gj in enumerate(g):
            m[j] = m[j] * beta1 + (1.0 - beta1) * gj
            v[j] = v[j] * beta2 + (1.0 - beta2) * gj * gj
            p[j] -= rate * (m[j] / c1) / (math.sqrt(v[j] / c2) + eps)
    return p, m, v


class TestFlatLayout:
    def two_layers(self):
        w0, b0 = np.arange(6.0).reshape(3, 2), np.arange(6.0, 9.0)
        w1, b1 = np.arange(9.0, 15.0).reshape(2, 3), np.arange(15.0, 17.0)
        return EncoderParams([w0, w1], [b0, b1])

    def test_order_is_w0_b0_w1_b1(self):
        p = self.two_layers()
        np.testing.assert_array_equal(p.flat, np.arange(17.0))
        gw, gb = p.layers(-np.arange(17.0))
        np.testing.assert_array_equal(gw[1], -np.arange(9.0, 15.0).reshape(2, 3))
        np.testing.assert_array_equal(gb[0], -np.arange(6.0, 9.0))

    def test_weights_and_biases_are_views(self):
        p = self.two_layers()
        p.flat[7] = -1.0
        assert p.biases[0][1] == -1.0
        p.weights[1][0, 0] = -2.0
        assert p.flat[9] == -2.0

    def test_copy_owns_its_vector(self):
        # a snapshot is the constructor: it copies into a new `flat`
        p = self.two_layers()
        q = EncoderParams(p.weights, p.biases)
        q.flat[0] = 99.0
        assert p.weights[0][0, 0] == 0.0 and q.weights[0][0, 0] == 99.0

    def test_copy_is_bit_equal_with_views_of_its_own_flat(self):
        p = init_encoder(5, (4, 3), 2, np.random.default_rng(0))
        q = EncoderParams(p.weights, p.biases)
        assert np.array_equal(q.flat.view(np.uint64), p.flat.view(np.uint64))
        assert q.shapes == p.shapes
        assert not np.shares_memory(q.flat, p.flat)
        for qa, pa in zip(q.weights + q.biases, p.weights + p.biases):
            assert np.shares_memory(qa, q.flat) and not np.shares_memory(qa, p.flat)
            assert np.array_equal(qa, pa)
        q.flat[:] = -1.0
        assert all((a == -1.0).all() for a in q.weights + q.biases)


class TestPrelu:
    def test_definition(self):
        y = prelu(np.array([2.0, -2.0]), 0.25)
        np.testing.assert_array_equal(y, [2.0, -0.5])

    def test_slope_one_is_identity(self):
        x = np.array([-3.0, 0.0, 1.5])
        y = prelu(x, 1.0)
        np.testing.assert_array_equal(y, x)

    def test_slope_zero_is_rectifier(self):
        y = prelu(np.array([-3.0, 0.0, 3.0]), 0.0)
        np.testing.assert_array_equal(y, [0.0, 0.0, 3.0])


def test_init_encoder_deterministic():
    a = init_encoder(8, (16, 16), 4, np.random.default_rng(42))
    b = init_encoder(8, (16, 16), 4, np.random.default_rng(42))
    assert np.array_equal(a.flat, b.flat)
