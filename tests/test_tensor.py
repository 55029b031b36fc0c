import ctypes
import resource
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiotrim import tensor as T
from conftest import (adjoint_dot_check, conv1d_padded, directional_gradcheck,
                      fft_mag2, frame, sigmoid_masked)

RNG = np.random.default_rng(1234)


class TestForwardValues:
    def test_matmul_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = T.matmul(a, eye)
        assert np.array_equal(out.data, a.data)

    def test_matmul_vector(self):
        w = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        x = T.Tensor([1.0, 1.0])
        out = T.matmul(w, x)
        assert np.allclose(out.data, [3.0, 7.0])

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

    def test_softmax_rows_sum_to_one(self):
        x = T.Tensor(RNG.standard_normal((5, 9)).astype(np.float32) * 10)
        s = T.softmax(x).data
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-5)
        assert (s >= 0).all()

    def test_softmax_shift_invariant(self):
        x = RNG.standard_normal(7).astype(np.float32)
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-5)

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
        left = T.slice_axis(t, 1, 0, 6)
        right = T.slice_axis(t, 1, 6, 10)
        back = T.concat([left, right], axis=1)
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


class TestShapeAndNumericFaults:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))

    def test_add_broadcast_mismatch(self):
        with pytest.raises(T.ShapeError, match="broadcast"):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))))

    def test_conv_channel_mismatch_names_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 8\)"):
            T.conv1d_dilated_causal(T.Tensor(np.zeros((2, 8))), T.Tensor(np.zeros((4, 3, 2))))

    def test_slice_out_of_bounds(self):
        with pytest.raises(T.ShapeError, match="slice"):
            T.slice_axis(T.Tensor(np.zeros((3, 3))), 1, 0, 5)

    def test_log_of_negative_raises(self):
        with pytest.raises(T.NumericError, match="log"):
            T.tlog(T.Tensor([-1.0]))

    def test_exp_overflow_raises(self):
        with pytest.raises(T.NumericError, match="exp"):
            T.texp(T.Tensor([1e4]))

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
        ("exp", lambda x: T.tsum(T.texp(x))),
        ("softmax", lambda x: T.tsum(T.mul(T.softmax(x), T.softmax(x)))),
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
        directional_gradcheck(lambda x: T.tsum(T.tlog(x)), x0, rng)

    def test_gradcheck_abs_away_from_kink(self):
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal((3, 4)).astype(np.float32)
        x0 = np.where(np.abs(x0) < 0.2, 0.5, x0).astype(np.float32)
        directional_gradcheck(lambda x: T.tsum(T.tabs(x)), x0, rng, eps=1e-3)

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
            parts = T.stft_logmag(x, cfg)
            return T.tsum(T.concat([T.tmean(p, keepdims=True).reshape(1) for p in parts]))

        directional_gradcheck(build, x0, rng)


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
            lambda x: T.concat([T.slice_axis(x, 1, 4, 9), T.slice_axis(x, 1, 0, 4)], axis=1),
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
