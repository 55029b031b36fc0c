import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiotrim import fourier
from audiotrim import tensor as T
from conftest import (directional_gradcheck, fft_mag2, naive_dft, slice_axis,
                      stft_logmag_batched, stft_logmag_composed, stft_logmag_node)
from test_acceptance import _op_bank, _probe

RNG = np.random.default_rng(99)


class TestFft:
    """`fft` is the one-sided DFT of a real signal, `ifft` its inverse."""

    @pytest.mark.parametrize("n", [1, 2, 4, 31, 32, 128, 1024])
    def test_matches_naive_dft(self, n):
        x = RNG.standard_normal((3, n)).astype(np.float32)
        got = fourier.fft(x)
        assert got.shape == (3, n // 2 + 1)
        for row, got_row in zip(x, got):
            ref = naive_dft(row)[: n // 2 + 1]
            scale = np.abs(ref).max() + 1e-9
            assert np.abs(got_row - ref).max() / scale < 1e-4

    def test_batched_matches_per_row(self):
        for n in (31, 64):
            x = RNG.standard_normal((3, 5, n)).astype(np.float32)
            got = fourier.fft(x)
            assert got.shape == (3, 5, n // 2 + 1)
            for i in range(3):
                for j in range(5):
                    ref = naive_dft(x[i, j])[: n // 2 + 1]
                    assert np.allclose(got[i, j], ref, atol=1e-3)

    # row counts above, at and below one block, one row longer than it and
    # a lone 1-D signal
    @pytest.mark.parametrize("shape", [(16, 497, 64), (3, 1024, 64), (7, 33),
                                       (2, 70000), (100,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_of_rows_give_the_bits_of_one_call(self, shape, dtype):
        x = RNG.standard_normal(shape).astype(dtype)
        got, want = fourier.fft(x), np.fft.rfft(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_ifft_roundtrip(self):
        for n in (1, 2, 31, 256):
            x = RNG.standard_normal((2, n)).astype(np.float32)
            back = fourier.ifft(fourier.fft(x), n)
            assert back.shape == x.shape
            assert np.abs(back - x).max() < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_parseval_energy(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
        power = np.abs(fourier.fft(x).astype(np.complex128)) ** 2
        # every bin but DC and (for even n) Nyquist stands for itself and
        # its mirror image in the full spectrum
        weight = np.full(power.shape, 2.0)
        weight[0] = 1.0
        if n % 2 == 0:
            weight[-1] = 1.0
        spec_energy = float((weight * power).sum()) / n
        time_energy = float((x.astype(np.float64) ** 2).sum())
        assert spec_energy == pytest.approx(time_energy, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_linearity(self, log_n, seed):
        n = 2 ** log_n
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        lhs = fourier.fft(a + 2.0 * b)
        rhs = fourier.fft(a) + 2.0 * fourier.fft(b)
        assert np.abs(lhs - rhs).max() < 1e-3


class TestFftMag2:
    def test_matches_naive_power(self):
        x = RNG.standard_normal(64).astype(np.float32)
        got = fft_mag2(T.Tensor(x)).data
        ref = np.abs(naive_dft(x))[:33] ** 2
        assert np.allclose(got, ref, rtol=1e-4, atol=1e-3)

    @pytest.mark.parametrize("n", [12, 31])
    def test_matches_naive_power_at_non_power_of_two(self, n):
        x = RNG.standard_normal((2, n)).astype(np.float32)
        got = fft_mag2(T.Tensor(x)).data
        ref = np.abs(naive_dft(x))[..., : n // 2 + 1] ** 2
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-4, atol=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 31])
    def test_gradcheck_edge_bins(self, n):
        # n = 1 is all DC, n = 2 is DC plus Nyquist, n = 31 has no Nyquist
        rng = np.random.default_rng(160 + n)
        x0 = rng.standard_normal((3, n)).astype(np.float32)
        weight = T.Tensor((rng.random(n // 2 + 1) + 0.5).astype(np.float32))
        directional_gradcheck(
            lambda x: T.tmean(T.mul(fft_mag2(x), weight)), x0, rng)

    def test_constant_signal_concentrates_in_dc(self):
        x = np.full(32, 0.5, dtype=np.float32)
        got = fft_mag2(T.Tensor(x)).data
        assert got[0] == pytest.approx((0.5 * 32) ** 2, rel=1e-5)
        assert np.abs(got[1:]).max() < 1e-3


class TestStftNode:
    """Each window of the test-only stft_logmag_node is one node; the
    composed frame -> Hann -> fft_mag2 -> log chain is its oracle, and
    its values are tensor.stft_logmag's bit for bit."""

    @staticmethod
    def _values_and_grad(stft, x0, cfg):
        x = T.Tensor(x0, requires_grad=True)
        outs = stft(x, cfg)
        rng = np.random.default_rng(5)
        total = None
        for o in outs:
            w = T.Tensor(rng.standard_normal(o.shape).astype(np.float32))
            term = T.tsum(T.mul(o, w))
            total = term if total is None else T.add(total, term)
        total.backward()
        return [o.data for o in outs], x.grad

    # 0.3 gives hops (9, 19, 38) that do not divide the windows
    @pytest.mark.parametrize("hop_fraction", [0.25, 0.3, 1.0])
    def test_matches_composed_chain(self, hop_fraction):
        cfg = T.SpectrogramConfig(window_sizes=(32, 64, 128),
                                  hop_fraction=hop_fraction)
        x0 = RNG.standard_normal((2, 3, 300)).astype(np.float32)
        got, got_g = self._values_and_grad(stft_logmag_node, x0, cfg)
        want, want_g = self._values_and_grad(stft_logmag_composed, x0, cfg)
        plain = T.stft_logmag(x0, cfg)
        assert len(plain) == len(got)
        for a, b in zip(plain, got):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-6 * np.abs(b).max()
        assert np.abs(got_g - want_g).max() <= 1e-6 * np.abs(want_g).max()

    def test_one_node_per_window(self):
        x = T.Tensor(RNG.standard_normal(256).astype(np.float32), requires_grad=True)
        outs = stft_logmag_node(x, T.SpectrogramConfig(window_sizes=(32, 64)))
        assert [o._parents for o in outs] == [(x,), (x,)]

    @pytest.mark.parametrize("window", [32, 64])
    def test_gradcheck_dc_and_nyquist_bins(self, window):
        # only the two bins whose backward rule differs from the rest
        rng = np.random.default_rng(170 + window)
        cfg = T.SpectrogramConfig(window_sizes=(window,))
        x0 = rng.standard_normal((2, 3 * window)).astype(np.float32)

        def build(x):
            (spec,) = stft_logmag_node(x, cfg)
            return T.add(T.tmean(slice_axis(spec, -1, 0, 1)),
                         T.tmean(slice_axis(spec, -1, window // 2, window // 2 + 1)))

        directional_gradcheck(build, x0, rng)


class TestSpectrogramConfig:
    def test_defaults_are_valid(self):
        cfg = T.SpectrogramConfig()
        assert cfg.window_sizes == (32, 128, 256, 512, 1024)
        assert cfg.hop(1024) == 256

    @pytest.mark.parametrize("sizes", [(48,), (16,), (2048,), (0,)])
    def test_rejects_bad_windows(self, sizes):
        with pytest.raises(ValueError, match="window"):
            T.SpectrogramConfig(window_sizes=sizes)

    def test_rejects_bad_epsilon_and_hop(self):
        with pytest.raises(ValueError, match="floor_epsilon"):
            T.SpectrogramConfig(floor_epsilon=0.0)
        with pytest.raises(ValueError, match="hop_fraction"):
            T.SpectrogramConfig(hop_fraction=0.0)


class TestStftLogmag:
    def test_shapes_and_floor(self):
        cfg = T.SpectrogramConfig()
        outs = T.stft_logmag(np.zeros(2048, dtype=np.float32), cfg)
        assert len(outs) == len(cfg.window_sizes)
        for w, o in zip(cfg.window_sizes, outs):
            hop = cfg.hop(w)
            assert o.shape == ((2048 - w) // hop + 1, w // 2 + 1)
            assert o.dtype == np.float32
            # silence hits exactly the log floor
            assert np.allclose(o, np.log(cfg.floor_epsilon), atol=1e-5)

    def test_sine_peak_lands_on_expected_bin(self):
        w = 256
        cfg = T.SpectrogramConfig(window_sizes=(w,))
        bin_idx = 16
        t = np.arange(4 * w)
        sig = np.sin(2 * np.pi * bin_idx * t / w).astype(np.float32)
        (out,) = T.stft_logmag(sig, cfg)
        assert (out.argmax(axis=-1) == bin_idx).all()

    # 0.3 gives hops that do not divide the windows
    @pytest.mark.parametrize("hop_fraction", [0.25, 0.3])
    @pytest.mark.parametrize("shape", [(1, 900), (3, 900), (16, 900), (900,)])
    def test_item_at_a_time_gives_the_bits_of_the_whole_batch(self, shape,
                                                             hop_fraction):
        cfg = T.SpectrogramConfig(window_sizes=(32, 64, 256),
                                  hop_fraction=hop_fraction)
        x = (0.4 * RNG.standard_normal(shape)).astype(np.float32)
        got, want = T.stft_logmag(x, cfg), stft_logmag_batched(x, cfg)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_short_signal_error_names_window(self):
        cfg = T.SpectrogramConfig(window_sizes=(32, 512))
        with pytest.raises(T.ShapeError, match="512"):
            T.stft_logmag(np.zeros(100, dtype=np.float32), cfg)

    def test_matches_naive_pipeline(self):
        # independent recompute: hann window, naive DFT, log power
        w, hop, eps = 64, 16, 5e-3
        cfg = T.SpectrogramConfig(window_sizes=(w,), hop_fraction=0.25, floor_epsilon=eps)
        sig = (0.4 * RNG.standard_normal(512)).astype(np.float32)
        (got,) = T.stft_logmag(sig, cfg)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(w) / w)
        n_frames = (512 - w) // hop + 1
        ref = np.zeros((n_frames, w // 2 + 1))
        for f in range(n_frames):
            seg = sig[f * hop : f * hop + w].astype(np.float64) * hann
            ref[f] = np.log(np.abs(naive_dft(seg))[: w // 2 + 1] ** 2 + eps)
        assert np.allclose(got, ref, atol=2e-3)

    def test_gradient_is_finite_everywhere(self):
        sig = T.Tensor(np.zeros(2048, dtype=np.float32), requires_grad=True)
        outs = stft_logmag_node(sig, T.SpectrogramConfig())
        total = T.tmean(outs[0])
        for o in outs[1:]:
            total = T.add(total, T.tmean(o))
        total.backward()
        assert np.isfinite(sig.grad).all()


# acceptance test 02's stft_logmag entry (window 32, hop 8, floor 1) has a
# float32 difference quotient 1.0e-3 to 1.8e-3 away from backward()'s
# derivative on these of seeds 0-299, above that test's 1e-3 tolerance
@pytest.mark.parametrize("seed", [111, 161, 250, 292])
def test_gradcheck_excess_is_float32_differencing_noise(seed):
    """Along the same probe, a float64 central difference of the same
    function agrees with backward()'s derivative to 1e-5, so the excess
    is the float32 quotient's noise, not a gradient error."""
    entry = {b.__name__: b for b in _op_bank()}["stft_logmag"]
    f, c, x0, v, ana = _probe(entry, np.random.default_rng(seed))
    taper = T.hann_window(32).astype(np.float64)

    def f64(x):
        frames = np.lib.stride_tricks.sliding_window_view(x, 32, axis=-1)[..., ::8, :]
        spec = np.fft.rfft(frames * taper)
        return float((c * np.log(spec.real ** 2 + spec.imag ** 2 + 1.0)).sum())

    x64 = x0.astype(np.float64)
    assert f64(x64) == pytest.approx(f(x0), rel=1e-5)  # the same function
    eps = 1e-4
    num = (f64(x64 + eps * v) - f64(x64 - eps * v)) / (2 * eps)
    assert abs(num - ana) <= 1e-5 * abs(ana), (num, ana)
