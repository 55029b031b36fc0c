import ctypes
import resource
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiotrim import harness, models, nn
from audiotrim import tensor as T
from conftest import (adjoint_dot_check, concat, conv1d_padded,
                      directional_gradcheck, fft_mag2, frame, gated_composed,
                      gated_conv1d, relu_clear_trunk, sigmoid_masked,
                      slice_axis, stft_logmag_node, tabs, texp, tlog)

RNG = np.random.default_rng(1234)


class TestForwardValues:
    def test_matmul_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = T.matmul(a, eye)
        assert np.array_equal(out.data, a.data)

    def test_conv_impulse_through_dilated_taps(self):
        # unit impulse against a two-tap kernel at dilation 2 lands the
        # second response two steps later
        x = T.Tensor([[1.0, 0.0, 0.0, 0.0]])
        w = T.Tensor([[[1.0, 1.0]]])
        out = T.conv1d_dilated_causal(x, w, dilation=2)
        assert np.array_equal(out.data, [[1.0, 0.0, 1.0, 0.0]])

    def test_conv_is_causal(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((2, 3, 16)).astype(np.float32)
        x2 = x1.copy()
        x2[..., 10:] = rng.standard_normal((2, 3, 6))
        w = T.Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
        y1 = T.conv1d_dilated_causal(T.Tensor(x1), w, dilation=2).data
        y2 = T.conv1d_dilated_causal(T.Tensor(x2), w, dilation=2).data
        assert np.array_equal(y1[..., :10], y2[..., :10])

    def test_conv_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 12)).astype(np.float32)
        w = rng.standard_normal((2, 3, 4)).astype(np.float32)
        d = 3
        pad = (w.shape[2] - 1) * d
        xp = np.pad(x, ((0, 0), (pad, 0)))
        ref = np.zeros((2, 12), dtype=np.float64)
        for o in range(2):
            for t in range(12):
                for c in range(3):
                    for j in range(4):
                        ref[o, t] += w[o, c, j] * xp[c, t + j * d]
        out = T.conv1d_dilated_causal(T.Tensor(x), T.Tensor(w), dilation=d)
        assert np.allclose(out.data, ref, atol=1e-4)

    def test_frame_matches_loop(self):
        x = np.arange(20, dtype=np.float32)
        out = frame(T.Tensor(x), window=6, hop=3).data
        expected = np.stack([x[s : s + 6] for s in range(0, 15, 3)])
        assert np.array_equal(out, expected)

    def test_sum_mean_axes(self):
        x = RNG.standard_normal((3, 4, 5)).astype(np.float32)
        assert np.allclose(T.tsum(T.Tensor(x), axis=(0, 2)).data, x.sum(axis=(0, 2)), atol=1e-4)
        assert np.allclose(T.tmean(T.Tensor(x), axis=1, keepdims=True).data,
                           x.mean(axis=1, keepdims=True), atol=1e-5)

    def test_slice_and_concat_roundtrip(self):
        x = RNG.standard_normal((4, 10)).astype(np.float32)
        t = T.Tensor(x)
        left = slice_axis(t, 1, 0, 6)
        right = slice_axis(t, 1, 6, 10)
        back = concat([left, right], axis=1)
        assert np.array_equal(back.data, x)


class TestSigmoidArray:
    """The branch-free sigmoid against the boolean-mask one it replaced."""

    @staticmethod
    def _assert_same(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = T.sigmoid_array(x)
        ref = sigmoid_masked(x)
        assert got.dtype == ref.dtype == np.float32
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_special_values(self):
        fi = np.finfo(np.float32)
        sub = [fi.smallest_subnormal, 3 * fi.smallest_subnormal, fi.smallest_normal / 2]
        x = np.array([0.0, np.inf, np.nan, 88.7, 1e30, *sub], dtype=np.float32)
        self._assert_same(np.concatenate([x, -x]))

    def test_random_batch(self):
        rng = np.random.default_rng(120)
        shape = (8, 16, 1999)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 2, shape)
        self._assert_same(x.astype(np.float32))

    def test_one_division_matches_two(self):
        # the shared numerator is exactly 1 or e and the divisor is the
        # same, so each value must agree bit for bit with the form that
        # divides once per branch
        def two_divisions(x):
            e = np.exp(-np.abs(x))
            d = 1.0 + e
            return np.where(x >= 0, 1.0 / d, e / d)

        special = np.array([0.0, np.inf, np.nan, 88.0, 1e-30], dtype=np.float32)
        grid = np.random.default_rng(121).uniform(-100, 100, 10_000).astype(np.float32)
        for x in (np.concatenate([special, -special]), grid):
            got, ref = T.sigmoid_array(x), two_divisions(x)
            assert got.dtype == ref.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


class TestGatedNode:
    """The trunk oracle's gated unit as one node against two conv nodes,
    tanh, sigmoid and mul."""

    @staticmethod
    def _run(gated, x0, params, dilation, y):
        x = T.Tensor(x0, requires_grad=True)
        leaves = [T.Tensor(p, requires_grad=True) for p in params]
        out = gated(x, *leaves, dilation)
        T.tsum(T.mul(out, T.Tensor(y))).backward()
        return [out.data, x.grad] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("k,dilation,t", [(1, 1, 9), (2, 4, 9), (3, 4, 6)])
    def test_matches_composed_oracle(self, lead, k, dilation, t):
        rng = np.random.default_rng(130 + 10 * k + dilation)
        x0 = rng.standard_normal(lead + (4, t)).astype(np.float32)
        params = [rng.standard_normal(s).astype(np.float32)
                  for s in ((5, 4, k), (5,), (5, 4, k), (5,))]
        for p in params:  # a masked unit: zeroed filter and gate rows
            p[2] = 0.0
        y = rng.standard_normal(lead + (5, t)).astype(np.float32)
        got = self._run(gated_conv1d, x0, params, dilation, y)
        ref = self._run(gated_composed, x0, params, dilation, y)
        for name, a, r in zip(("out", "x", "wf", "bf", "wg", "bg"), got, ref):
            assert a.shape == r.shape, name
            scale = float(np.abs(r).max())
            assert np.abs(a - r).max() <= 1e-5 * scale, name

    def test_is_one_node_and_counts_both_layers(self, monkeypatch):
        rng = np.random.default_rng(140)
        x = T.Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        leaves = [T.Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                  for s in ((4, 3, 2), (4,), (4, 3, 2), (4,))]
        calls, conv = [], T.conv1d_dilated_causal

        def counting(x, w, *args, **kwargs):
            calls.append(w.shape)
            return conv(x, w, *args, **kwargs)

        monkeypatch.setattr(T, "conv1d_dilated_causal", counting)
        out = gated_conv1d(x, *leaves, 2)
        assert out._op == "gated" and out._parents == (x, *leaves)
        assert calls == [(8, 3, 2)]

    def test_filter_gate_mismatch(self):
        z = T.Tensor(np.zeros((4, 3, 2), dtype=np.float32))
        with pytest.raises(T.ShapeError, match="gated"):
            gated_conv1d(T.Tensor(np.zeros((1, 3, 5))), z, T.Tensor(np.zeros(4)),
                         T.Tensor(np.zeros((5, 3, 2))), T.Tensor(np.zeros(5)))


class TestShapeAndNumericFaults:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))

    def test_matmul_needs_matrices(self):
        with pytest.raises(T.ShapeError, match="2 or more dims"):
            T.matmul(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros(2)))

    def test_add_broadcast_mismatch(self):
        with pytest.raises(T.ShapeError, match="broadcast"):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))))

    def test_conv_channel_mismatch_names_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 8\)"):
            T.conv1d_dilated_causal(T.Tensor(np.zeros((2, 8))), T.Tensor(np.zeros((4, 3, 2))))

    def test_slice_out_of_bounds(self):
        with pytest.raises(T.ShapeError, match="slice"):
            slice_axis(T.Tensor(np.zeros((3, 3))), 1, 0, 5)

    def test_log_of_negative_raises(self):
        with pytest.raises(T.NumericError, match="log"):
            tlog(T.Tensor([-1.0]))

    def test_exp_overflow_raises(self):
        with pytest.raises(T.NumericError, match="exp"):
            texp(T.Tensor([1e4]))

    def test_backward_needs_scalar(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.GraphError):
            T.mul(x, x).backward()


class TestBackward:
    def test_grad_of_product_is_other_factor(self):
        a = T.Tensor([2.0, -3.0], requires_grad=True)
        b = T.Tensor([5.0, 7.0], requires_grad=True)
        T.tsum(T.mul(a, b)).backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_broadcast_grad_shapes(self):
        a = T.Tensor(np.ones((3, 1)), requires_grad=True)
        b = T.Tensor(np.ones((1, 4)), requires_grad=True)
        T.tsum(T.add(a, b)).backward()
        assert a.grad.shape == (3, 1) and np.allclose(a.grad, 4.0)
        assert b.grad.shape == (1, 4) and np.allclose(b.grad, 3.0)

    def test_repeated_backward_accumulates(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(a, a))
        loss.backward()
        first = a.grad.copy()
        loss.backward()
        assert np.allclose(a.grad, 2.0 * first)

    def test_diamond_graph_accumulates_both_paths(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.add(T.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
        T.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_no_grad_suppresses_graph(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y._parents == () and not y.requires_grad

    @pytest.mark.parametrize("name,build", [
        ("sigmoid", lambda x: T.tsum(T.sigmoid(x))),
        ("tanh", lambda x: T.tsum(T.tanh(x))),
        ("exp", lambda x: T.tsum(texp(x))),
        ("mean", lambda x: T.tmean(T.mul(x, x))),
        ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (6, 2)), T.reshape(x, (6, 2))))),
        ("div", lambda x: T.tsum(T.div(T.Tensor(np.ones((3, 4), dtype=np.float32)), T.add(T.mul(x, x), T.Tensor(1.0))))),
    ])
    def test_gradcheck_elementwise(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**31)
        x0 = rng.standard_normal((3, 4)).astype(np.float32)
        directional_gradcheck(build, x0, rng)

    def test_gradcheck_log(self):
        rng = np.random.default_rng(11)
        x0 = (rng.random((3, 4)).astype(np.float32) + 0.5)
        directional_gradcheck(lambda x: T.tsum(tlog(x)), x0, rng)

    def test_gradcheck_abs_away_from_kink(self):
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal((3, 4)).astype(np.float32)
        x0 = np.where(np.abs(x0) < 0.2, 0.5, x0).astype(np.float32)
        directional_gradcheck(lambda x: T.tsum(tabs(x)), x0, rng, eps=1e-3)

    def test_gradcheck_relu_away_from_kink(self):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((3, 4)).astype(np.float32)
        x0 = np.where(np.abs(x0) < 0.2, 0.5, x0).astype(np.float32)
        directional_gradcheck(lambda x: T.tsum(T.relu(x)), x0, rng, eps=1e-3)

    def test_gradcheck_matmul_weight(self):
        rng = np.random.default_rng(14)
        b = T.Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        x0 = rng.standard_normal((2, 4)).astype(np.float32)
        directional_gradcheck(lambda x: T.tsum(T.tanh(T.matmul(x, b))), x0, rng)

    def test_gradcheck_conv_weight_and_input(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 10)).astype(np.float32)
        w0 = rng.standard_normal((4, 3, 2)).astype(np.float32)
        directional_gradcheck(
            lambda w: T.tmean(T.tanh(T.conv1d_dilated_causal(T.Tensor(x), w, dilation=2))),
            w0, rng)
        wt = T.Tensor(w0)
        directional_gradcheck(
            lambda xin: T.tmean(T.tanh(T.conv1d_dilated_causal(xin, wt, dilation=2))),
            x, rng)

    def test_gradcheck_fft_mag2(self):
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal(32).astype(np.float32)
        directional_gradcheck(lambda x: T.tmean(fft_mag2(x)), x0, rng)

    def test_gradcheck_stft_logmag(self):
        rng = np.random.default_rng(17)
        x0 = (0.3 * rng.standard_normal(256)).astype(np.float32)
        cfg = T.SpectrogramConfig(window_sizes=(32, 64), hop_fraction=0.25)

        def build(x):
            parts = stft_logmag_node(x, cfg)
            return T.tsum(concat([T.reshape(T.tmean(p, keepdims=True), (1,)) for p in parts]))

        directional_gradcheck(build, x0, rng)


def _fused_nodes():
    """Builders of every fused node whose backward captures large buffers,
    each from inputs that require grad."""
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32),
                 requires_grad=True)
    conv = nn.make_conv("c", 3, 4, 2, rng)
    w, b = conv.params["w"], conv.params["b"]
    gru = nn.make_gru("g", 16, 5, rng)
    wave = T.Tensor(rng.standard_normal((2, 1, 16)).astype(np.float32),
                    requires_grad=True)
    trunk = relu_clear_trunk(rng, wave.data)
    return {
        "conv1d": lambda: T.conv1d_dilated_causal(x, w, 2, bias=b),
        "gated": lambda: gated_conv1d(x, w, b, w, b),
        "gru": lambda: nn.gru_scan(gru, x),
        "nll": lambda: models.nll_from_logits(
            x, conv, rng.integers(0, 4, size=(2, 16))),
        "stft_logmag": lambda: stft_logmag_node(
            T.reshape(x, (96,)), T.SpectrogramConfig(window_sizes=(32,)))[0],
        "spectral_loss": lambda: models.multiscale_spectral_loss(
            T.reshape(x, (2, 48)), [np.zeros((2, 3, 17), dtype=np.float32)],
            T.SpectrogramConfig(window_sizes=(32,))),
        "trunk": lambda: models._wavenet_trunk(trunk, wave),
    }


class TestRouting:
    """Tensor.backward alone routes what a node's backward returns."""

    @staticmethod
    def _node_returning(parents, grads, op="test_op"):
        return T._node(np.float32(1.0), parents, op, lambda g: grads)

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), ()])
    def test_wrong_gradient_shape_raises_naming_op(self, shape):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        node = self._node_returning((x,), (np.ones(shape, np.float32),))
        with pytest.raises(T.GraphError, match="test_op"):
            node.backward()

    def test_wrong_gradient_count_raises_naming_op(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        node = self._node_returning((x, x), (np.ones(2, np.float32),))
        with pytest.raises(T.GraphError, match="test_op"):
            node.backward()

    def test_none_and_grad_free_parents_are_skipped(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0, 4.0], requires_grad=True)
        const = T.Tensor([5.0, 6.0])
        # the constant's gradient has a wrong shape: it is never looked at
        node = self._node_returning(
            (a, b, const), (None, np.full(2, 3.0), np.ones(7)))
        node.backward()
        assert a.grad is None
        assert b.grad.dtype == np.float32 and np.array_equal(b.grad, [3.0, 3.0])
        assert const.grad is None

    def test_repeated_parent_sums_gradients_in_parent_order(self):
        # in float32, (1e8 - 1e8) + 1 is 1 but (1e8 + 1) - 1e8 is 0
        x = T.Tensor([1.0], requires_grad=True)
        grads = [np.float32([v]) for v in (1e8, -1e8, 1.0)]
        self._node_returning((x, x, x), grads).backward()
        assert np.array_equal(x.grad, [1.0])

    @pytest.mark.parametrize("name", sorted(_fused_nodes()))
    def test_no_grad_node_keeps_no_backward(self, name):
        build = _fused_nodes()[name]
        node = build()
        assert node._backward is not None and node._parents
        with T.no_grad():
            node = build()
        assert node._backward is None and node._parents == ()


class TestConvNode:
    """The pad-free, bias-fused conv against zero padding plus an add node."""

    @staticmethod
    def _run(conv, x0, w0, b0, dilation, y):
        x = T.Tensor(x0, requires_grad=True)
        w = T.Tensor(w0, requires_grad=True)
        b = T.Tensor(b0, requires_grad=True)
        out = conv(x, w, dilation, bias=b)
        T.tsum(T.mul(out, T.Tensor(y))).backward()
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("k,dilation,t", [
        (1, 1, 9), (2, 1, 9), (2, 4, 9), (3, 2, 9),
        (3, 4, 6),   # (k-1)*d = 8 >= t: the first tap reads nothing
        (2, 7, 7),   # (k-1)*d = t exactly
    ])
    def test_matches_padded_oracle(self, lead, k, dilation, t):
        rng = np.random.default_rng(100 + 10 * k + dilation)
        x0 = rng.standard_normal(lead + (4, t)).astype(np.float32)
        w0 = rng.standard_normal((5, 4, k)).astype(np.float32)
        b0 = rng.standard_normal(5).astype(np.float32)
        y = rng.standard_normal(lead + (5, t)).astype(np.float32)
        got = self._run(T.conv1d_dilated_causal, x0, w0, b0, dilation, y)
        ref = self._run(conv1d_padded, x0, w0, b0, dilation, y)
        for name, a, r in zip(("out", "x", "w", "bias"), got, ref):
            assert a.shape == r.shape, name
            assert np.allclose(a, r, rtol=1e-6, atol=1e-6), name

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_zero_length_signal(self, lead):
        rng = np.random.default_rng(112)
        x0 = np.zeros(lead + (4, 0), dtype=np.float32)
        w0 = rng.standard_normal((5, 4, 3)).astype(np.float32)
        b0 = rng.standard_normal(5).astype(np.float32)
        y = np.zeros(lead + (5, 0), dtype=np.float32)
        out, gx, gw, gb = self._run(T.conv1d_dilated_causal, x0, w0, b0, 2, y)
        assert out.shape == lead + (5, 0) and gx.shape == x0.shape
        assert not gw.any() and not gb.any()

    def test_unbatched_weight_grad_matches_batch_of_one(self):
        rng = np.random.default_rng(113)
        x0 = rng.standard_normal((4, 11)).astype(np.float32)
        w0 = rng.standard_normal((5, 4, 3)).astype(np.float32)
        b0 = rng.standard_normal(5).astype(np.float32)
        y = rng.standard_normal((5, 11)).astype(np.float32)
        flat = self._run(T.conv1d_dilated_causal, x0, w0, b0, 2, y)
        batch = self._run(T.conv1d_dilated_causal, x0[None], w0, b0, 2, y[None])
        assert np.allclose(flat[2], batch[2], rtol=1e-6, atol=1e-6)

    def test_bias_folds_into_one_node(self):
        rng = np.random.default_rng(110)
        x = T.Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        w = T.Tensor(rng.standard_normal((4, 3, 2)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        out = T.conv1d_dilated_causal(x, w, 2, bias=b)
        assert out._op == "conv1d" and out._parents == (x, w, b)
        bare = T.conv1d_dilated_causal(x, w, 2).data
        assert np.array_equal(out.data, bare + np.arange(4, dtype=np.float32)[:, None])

    def test_bias_shape_mismatch(self):
        with pytest.raises(T.ShapeError, match="bias"):
            T.conv1d_dilated_causal(T.Tensor(np.zeros((3, 8))), T.Tensor(np.zeros((4, 3, 2))),
                                    bias=T.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("which", ["x", "w", "bias"])
    def test_gradcheck_with_bias(self, which):
        rng = np.random.default_rng(111)
        arrays = {"x": rng.standard_normal((2, 3, 10)).astype(np.float32),
                  "w": rng.standard_normal((4, 3, 3)).astype(np.float32),
                  "bias": rng.standard_normal(4).astype(np.float32)}

        def build(t):
            args = {k: t if k == which else T.Tensor(v) for k, v in arrays.items()}
            return T.tmean(T.tanh(T.conv1d_dilated_causal(
                args["x"], args["w"], 3, bias=args["bias"])))

        directional_gradcheck(build, arrays[which], rng)


class TestLeafOnlyGrads:
    def test_interior_grads_stay_none(self):
        a = T.Tensor([2.0, -3.0], requires_grad=True)
        b = T.Tensor([5.0, 7.0], requires_grad=True)
        prod = T.mul(a, b)
        act = T.tanh(prod)
        T.tsum(act).backward()
        assert prod.grad is None and act.grad is None
        dtanh = 1.0 - np.tanh(a.data * b.data) ** 2
        assert np.allclose(a.grad, dtanh * b.data)
        assert np.allclose(b.grad, dtanh * a.data)

    def test_leaf_root_gets_its_own_grad(self):
        x = T.Tensor(3.0, requires_grad=True)
        x.backward()
        assert np.array_equal(x.grad, np.float32(1.0))


def _flow_cases():
    """(build, x0) for every op of the engine, and for the composed
    oracles; each build sends the flow of x through the op to a scalar."""
    rng = np.random.default_rng(99)

    def arr(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def const(*shape):
        return T.Tensor(arr(*shape))

    row, col, w, bias, w3 = const(1, 4), const(3, 1), const(4, 3, 2), const(4), const(2, 3, 3)
    xc, basis, mix, tw = const(2, 3, 10), arr(2, 12, 3), const(2, 12), const(2, 2, 3)
    kern, spec = const(2, 1, 3), T.SpectrogramConfig((32, 64))
    left, right = const(5, 2), const(4, 3)
    wg = const(4, 3, 2)
    head = nn.make_conv("out2", 3, 6, 1, rng)
    targets = rng.integers(0, 6, size=(2, 10))
    trunk_rng = np.random.default_rng(101)
    trunk_x0 = trunk_rng.standard_normal((2, 1, 10)).astype(np.float32)
    trunk = relu_clear_trunk(trunk_rng, trunk_x0)
    trunk_mix = T.Tensor(trunk_rng.standard_normal((2, 3, 10)).astype(np.float32))
    loss_target = T.stft_logmag(
        0.3 * np.random.default_rng(100).standard_normal((2, 128)), spec)

    def scalar(x):
        return T.reshape(T.tmean(x, keepdims=True), (1,))

    return {
        "add_sub_broadcast": (lambda x: T.tsum(T.mul(T.sub(T.add(x, row), col), x)),
                              arr(3, 4)),
        "mul_div": (lambda x: T.tsum(T.div(T.mul(x, x), T.add(T.mul(x, x), T.Tensor(1.0)))),
                    arr(3, 4)),
        "matmul_left_right": (lambda x: T.tsum(T.tanh(T.matmul(left, T.matmul(x, right)))),
                              arr(2, 4)),
        "matmul_batched": (lambda x: T.tmean(T.matmul(x, x)), arr(2, 3, 3)),
        "conv1d_bias_input": (lambda x: T.tmean(T.tanh(
            T.conv1d_dilated_causal(x, w, 2, bias=bias))), arr(2, 3, 10)),
        "conv1d_weight_bias": (lambda v: T.tmean(T.tanh(T.conv1d_dilated_causal(
            xc, v, 2, bias=T.tsum(v, axis=(1, 2))))), arr(4, 3, 2)),
        "conv1d_unbatched": (lambda x: T.tsum(T.tanh(T.conv1d_dilated_causal(x, w3, 1))),
                             arr(3, 8)),
        "gated_input": (lambda x: T.tmean(gated_conv1d(x, w, bias, wg, bias, 2)),
                        arr(2, 3, 10)),
        "gated_filter": (lambda v: T.tmean(gated_conv1d(xc, v, bias, wg, bias, 2)),
                         arr(4, 3, 2)),
        "trunk": (lambda x: T.tsum(T.mul(models._wavenet_trunk(trunk, x), trunk_mix)),
                  trunk_x0),
        "nll_head": (lambda x: models.nll_from_logits(x, head, targets), arr(2, 3, 10)),
        "frame_lerp_basis": (lambda x: T.tsum(T.sigmoid(T.frame_lerp(x, 4, basis))),
                             arr(2, 3, 3)),
        "frame_lerp_plain": (lambda x: T.tsum(T.mul(T.frame_lerp(x, 4), mix)), arr(2, 3, 1)),
        "unary": (lambda x: T.tsum(T.tsqrt(T.add(tabs(T.tanh(T.sigmoid(x))),
                                                 T.Tensor(1.0)))), arr(3, 4)),
        "relu": (lambda x: T.tsum(T.mul(T.relu(x), x)), np.where(
            np.abs(arr(3, 4)) < 0.2, 0.5, arr(3, 4)).astype(np.float32)),
        "sum_mean_axes": (lambda x: T.tsum(T.mul(T.tmean(x, axis=1, keepdims=True),
                                                 T.tsum(x, axis=(0, 1)))), arr(2, 3, 4)),
        "reshape_transpose": (lambda x: T.tsum(T.mul(T.transpose(
            T.reshape(x, (2, 3, 2)), (2, 0, 1)), tw)), arr(3, 4)),
        "stft_logmag": (lambda x: T.tsum(concat([scalar(p) for p
                                                 in stft_logmag_node(x, spec)])),
                        0.3 * arr(2, 128)),
        "composed_oracles": (lambda x: T.tsum(concat([
            scalar(fft_mag2(frame(x, 8, 4))),
            scalar(tlog(T.add(texp(slice_axis(x, 0, 2, 6)), T.Tensor(1.0)))),
            scalar(conv1d_padded(T.reshape(x, (1, 1, 16)), kern, 2))])), 0.3 * arr(16)),
        "spectral_loss": (lambda x: models.multiscale_spectral_loss(x, loss_target, spec),
                          0.3 * arr(2, 128)),
    }


def _tiny_arch_batch(arch):
    cfg = {"ddsp": models.ModelConfig(arch="ddsp", sample_rate=8000, frame_hop=50,
                                      gru_units=5, dense_units=4, n_partials=3,
                                      noise_bins=3, spec_windows=(32, 64)),
           "wavenet": models.ModelConfig(arch="wavenet", sample_rate=8000, n_stacks=1,
                                         blocks_per_stack=3, residual_channels=4,
                                         gate_channels=5, skip_channels=3,
                                         head_channels=6, n_classes=8),
           "sing_ae": models.ModelConfig(arch="sing_ae", sample_rate=8000,
                                         conv_channels=5, n_conv_layers=3,
                                         sing_kernel=5, spec_windows=(32, 64))}[arch]
    batch = harness.collate(harness.gen_synthetic_tones(
        2, 8000, 0.25, seed=3, frame_hop=cfg.frame_hop))
    return models.build_model(cfg, seed=2).train(), batch


class TestFlowsStayUnwritten:
    """Tensor.backward stores a node's first flow without a copy, which is
    sound only while no backward function writes into a flow it received
    or returned. Every node's backward is wrapped here so that the flow it
    receives and every gradient it returns are read-only, so such a write
    raises."""

    @pytest.fixture(autouse=True)
    def readonly_flows(self, monkeypatch):
        node = T._node

        def readonly(backward):
            def wrapped(g):
                g.flags.writeable = False
                grads = backward(g)
                for grad in grads:
                    if grad is not None:
                        grad.flags.writeable = False
                return grads
            return wrapped

        def recording(data, parents, op, backward=None):
            return node(data, parents, op, backward and readonly(backward))

        monkeypatch.setattr(T, "_node", recording)

    @pytest.mark.parametrize("name", sorted(_flow_cases()))
    def test_op_gradcheck(self, name):
        build, x0 = _flow_cases()[name]
        directional_gradcheck(build, x0, np.random.default_rng(5))

    @pytest.mark.parametrize("arch", ["ddsp", "sing_ae", "wavenet"])
    def test_arch_loss_backward(self, arch):
        net, batch = _tiny_arch_batch(arch)
        models.compute_loss(net, batch).backward()
        grads = [p.grad for p in net.parameters()]
        assert all(g is not None and np.all(np.isfinite(g)) for g in grads)
        assert not any(g.flags.writeable for g in grads)


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="C library has no mallopt")
def test_freed_arrays_are_not_faulted_in_again():
    """Importing audiotrim.tensor pins glibc's malloc thresholds, so
    repeatedly allocating, touching and freeing 80 MiB of numpy arrays
    faults the pages in once, not on every round. Unpinned, glibc's
    adaptive trim threshold (at most 64 MiB) hands the freed heap top back
    to the kernel each round, about 20 000 faults a round. Each array is
    1 MiB, under numpy's 4 MiB huge-page hint."""
    def churn():
        arrays = [np.ones(1 << 18, dtype=np.float32) for _ in range(80)]
        del arrays

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(8):
        churn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2048, f"{faults} minor faults over 8 rounds of 20 480 pages"


class TestLinearAdjoints:
    """Dot-test <L x, y> == <x, L^T y>; catches any backward/forward skew."""

    def test_matmul_adjoint(self):
        rng = np.random.default_rng(21)
        b = T.Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        adjoint_dot_check(lambda x: T.matmul(x, b),
                          rng.standard_normal((4, 5)).astype(np.float32), rng)

    def test_batched_matmul_adjoint(self):
        rng = np.random.default_rng(22)
        b = T.Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        adjoint_dot_check(lambda x: T.matmul(x, b),
                          rng.standard_normal((2, 4, 5)).astype(np.float32), rng)

    def test_conv_adjoint(self):
        rng = np.random.default_rng(23)
        w = T.Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32))
        adjoint_dot_check(lambda x: T.conv1d_dilated_causal(x, w, dilation=4),
                          rng.standard_normal((2, 3, 20)).astype(np.float32), rng)

    @pytest.mark.parametrize("window,hop", [(6, 3), (8, 8), (7, 2)])
    def test_frame_adjoint(self, window, hop):
        rng = np.random.default_rng(24)
        adjoint_dot_check(lambda x: frame(x, window, hop),
                          rng.standard_normal(40).astype(np.float32), rng)

    def test_frame_adjoint_batched(self):
        rng = np.random.default_rng(25)
        adjoint_dot_check(lambda x: frame(x, 8, 2),
                          rng.standard_normal((3, 33)).astype(np.float32), rng)

    def test_slice_concat_adjoint(self):
        rng = np.random.default_rng(26)
        adjoint_dot_check(
            lambda x: concat([slice_axis(x, 1, 4, 9), slice_axis(x, 1, 0, 4)], axis=1),
            rng.standard_normal((2, 9)).astype(np.float32), rng)

    def test_transpose_adjoint(self):
        rng = np.random.default_rng(27)
        adjoint_dot_check(lambda x: T.transpose(x, (1, 2, 0)),
                          rng.standard_normal((2, 3, 4)).astype(np.float32), rng)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_add_mul_match_numpy(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)).astype(np.float32)
    b = rng.standard_normal((rows, 1)).astype(np.float32)
    assert np.array_equal(T.add(T.Tensor(a), T.Tensor(b)).data, a + b)
    assert np.array_equal(T.mul(T.Tensor(a), T.Tensor(b)).data, a * b)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sigmoid_tanh_identity(n, seed):
    # tanh(x) = 2*sigmoid(2x) - 1
    rng = np.random.default_rng(seed)
    x = (3.0 * rng.standard_normal(n)).astype(np.float32)
    lhs = T.tanh(T.Tensor(x)).data
    rhs = 2.0 * T.sigmoid(T.Tensor(2.0 * x)).data - 1.0
    assert np.allclose(lhs, rhs, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    hop=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_frame_grad_counts_each_sample_once_per_use(hop, extra, seed):
    # summing all frames then backprop gives, per sample, the number of
    # frames that contain it
    rng = np.random.default_rng(seed)
    window = 8
    t = window + 3 * hop + extra
    x = T.Tensor(rng.standard_normal(t).astype(np.float32), requires_grad=True)
    T.tsum(frame(x, window, hop)).backward()
    n_frames = (t - window) // hop + 1
    counts = np.zeros(t)
    for s in range(n_frames):
        counts[s * hop : s * hop + window] += 1
    assert np.array_equal(x.grad, counts.astype(np.float32))
