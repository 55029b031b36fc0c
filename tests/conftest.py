"""Shared oracles: finite-difference gradients, a naive DFT, the masked
sigmoid, the composed reference versions of the fused ops, unit masking
(trimming's oracle), and the test-only "sequential" arch."""

import numpy as np

from audiotrim import fourier, nn
from audiotrim import tensor as T


def naive_dft(x):
    """O(n^2) reference DFT in float64, independent of the fft module."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w.T


def directional_gradcheck(build, x0, rng, eps=1e-2, rtol=2e-2, atol=3e-3):
    """Compare backward() against a central finite difference.

    build(tensor) must return a scalar Tensor. The check is directional:
    one random unit direction per call, which keeps float32 FD noise in
    check while still exercising every gradient entry.
    """
    x = T.Tensor(x0, requires_grad=True)
    loss = build(x)
    loss.backward()
    g = x.grad.astype(np.float64)

    v = rng.standard_normal(x0.shape)
    v /= np.linalg.norm(v) + 1e-12
    analytic = float((g * v).sum())

    def f(arr):
        return float(build(T.Tensor(arr)).data)

    fd = (f(x0 + eps * v.astype(np.float32)) - f(x0 - eps * v.astype(np.float32))) / (2 * eps)
    err = abs(fd - analytic)
    tol = atol + rtol * max(abs(fd), abs(analytic))
    assert err <= tol, f"grad mismatch: analytic {analytic}, fd {fd}, err {err}"


def adjoint_dot_check(op, x0, rng, rtol=1e-4):
    """For a linear op L, verify <L x, y> == <x, L^T y> via backward()."""
    x = T.Tensor(x0, requires_grad=True)
    out = op(x)
    y = rng.standard_normal(out.shape).astype(np.float32)
    lhs = float((out.data.astype(np.float64) * y).sum())
    T.tsum(T.mul(out, T.Tensor(y))).backward()
    rhs = float((x.grad.astype(np.float64) * x0).sum())
    assert abs(lhs - rhs) <= rtol * (abs(lhs) + abs(rhs) + 1.0), (lhs, rhs)


def sigmoid_masked(x):
    """Logistic function split by a boolean mask, each side in the form
    that cannot overflow: the oracle of the branch-free tensor.sigmoid_array."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- composed reference ops ---------------------------------------------------
#
# Built from the engine's elementary ops only, these are the oracles for the
# fused nodes that replaced them in src: tensor.stft_logmag (one node per
# window), nn.gru_scan (one node per sequence), models.nll_from_logits (one
# node per loss) and tensor.conv1d_dilated_causal's pad-free taps and bias.


def conv1d_padded(x, w, dilation=1, bias=None):
    """Causal conv as a zero-padded copy of x read through every tap, then
    the bias as a separate broadcast add."""
    wd = w.data
    k = wd.shape[2]
    t = x.shape[-1]
    pad = (k - 1) * dilation
    xd = np.pad(x.data, [(0, 0)] * (x.ndim - 1) + [(pad, 0)])
    acc = np.zeros(x.shape[:-2] + (wd.shape[0], t), dtype=np.float32)
    for j in range(k):
        acc += np.matmul(wd[:, :, j], xd[..., j * dilation : j * dilation + t])
    y = T._node(acc, (x, w), "conv1d_padded")
    if y.requires_grad:
        def _bw(g):
            if w.requires_grad:
                gw = np.zeros_like(wd)
                for j in range(k):
                    seg = xd[..., j * dilation : j * dilation + t]
                    axes = [0, 2] if g.ndim == 3 else [1]
                    gw[:, :, j] = np.tensordot(g, seg, axes=(axes, axes))
                w.accumulate_grad(gw)
            if x.requires_grad:
                gxp = np.zeros_like(xd)
                for j in range(k):
                    gxp[..., j * dilation : j * dilation + t] += np.matmul(
                        wd[:, :, j].T, g)
                x.accumulate_grad(gxp[..., pad:])
        y._backward = _bw
    return y if bias is None else T.add(y, T.reshape(bias, (-1, 1)))


def nll_composed(logits, targets):
    """Mean NLL through shift, exp, sum, log and a dense one-hot product."""
    b, c, t = logits.shape
    if targets.shape != (b, t):
        raise T.ShapeError(f"targets {targets.shape} do not match logits {logits.shape}")
    shift = T.Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.add(T.tlog(T.tsum(T.texp(z), axis=1, keepdims=True)), shift)
    onehot = np.zeros((b, c, t), dtype=np.float32)
    onehot[np.arange(b)[:, None], targets, np.arange(t)[None, :]] = 1.0
    picked = T.tsum(T.mul(logits, T.Tensor(onehot)), axis=1, keepdims=True)
    return T.tmean(T.sub(lse, picked))


def frame(a, window, hop):
    """Overlapping windows of the last axis: (..., T) -> (..., F, window)."""
    t = a.shape[-1]
    n_frames = (t - window) // hop + 1
    idx = (np.arange(n_frames) * hop)[:, None] + np.arange(window)[None, :]
    out = T._node(a.data[..., idx], (a,), "frame")
    if out.requires_grad:
        def _bw(g):
            gx = np.zeros(a.shape, dtype=np.float32)
            np.add.at(gx, (..., idx), g)
            a.accumulate_grad(gx)
        out._backward = _bw
    return out


def fft_mag2(a):
    """Squared magnitude of the one-sided DFT of the last axis (n//2 + 1 bins)."""
    n = a.shape[-1]
    spec = fourier.fft(a.data)
    out = T._node(spec.real ** 2 + spec.imag ** 2, (a,), "fft_mag2")
    if out.requires_grad:
        def _bw(g):
            # d|X_k|^2/dx_m = 2 Re(X_k e^{+2pi i k m / n}); irfft counts each
            # interior bin twice (it and its mirror) but DC and Nyquist once,
            # so those two are doubled here
            h = g * spec
            h[..., 0] *= 2.0
            if n % 2 == 0 and n > 1:
                h[..., n // 2] *= 2.0
            a.accumulate_grad(n * fourier.ifft(h, n))
        out._backward = _bw
    return out


def stft_logmag_composed(signal, cfg):
    """frame -> Hann -> |DFT|^2 -> log(. + eps), one elementary op at a time."""
    eps = T.Tensor(cfg.floor_epsilon)
    return [T.tlog(T.add(fft_mag2(T.mul(frame(signal, w, cfg.hop(w)),
                                        T.Tensor(T.hann_window(w)))), eps))
            for w in cfg.window_sizes]


def gru_cell(layer, x_t, h):
    """One GRU step as a graph of elementary ops."""
    p = layer.params

    def gate(w, u, b, state):
        return T.add(T.add(T.matmul(x_t, T.transpose(p[w])),
                           T.matmul(state, T.transpose(p[u]))), p[b])
    z = T.sigmoid(gate("wz", "uz", "bz", h))
    r = T.sigmoid(gate("wr", "ur", "br", h))
    hh = T.tanh(gate("wh", "uh", "bh", T.mul(r, h)))
    return T.add(T.mul(T.sub(T.Tensor(1.0), z), h), T.mul(z, hh))


def gru_scan_composed(layer, x):
    """gru_cell scanned over (batch, time, features), one node per op."""
    b, t, _ = x.shape
    h = T.Tensor(np.zeros((b, layer.n_units), dtype=np.float32))
    steps = []
    for i in range(t):
        h = gru_cell(layer, T.reshape(T.slice_axis(x, 1, i, i + 1), (b, -1)), h)
        steps.append(T.reshape(h, (b, 1, -1)))
    return T.concat(steps, axis=1)


# -- unit masking: trimming's oracle ---------------------------------------------


def mask_units(net, plan):
    """A clone of net in which each planned unit is zeroed instead of
    removed: its own rows, its recurrent columns, its batchnorm params and
    buffers, and the input columns of every layer that reads its pool.

    plan maps pool id -> unit indices in the current kept order, as for
    nn.apply_trim. Built from the pools and the axis roles alone, so a
    trimmed forward pass must match the masked clone's to float precision.
    """
    out = net.clone()
    for layer in out.layers.values():
        roles = nn._AXIS_ROLES[layer.kind]
        own = out.pool_of.get(layer.name)
        src = out.pool_of.get(layer.in_source)
        arrays = {k: p.data for k, p in layer.params.items()} | layer.buffers
        for name, arr in arrays.items():
            for axis, role in enumerate(roles[name]):
                pid = {"out": own, "self": own, "in": src}.get(role)
                if pid in plan:
                    idx = [slice(None)] * arr.ndim
                    idx[axis] = np.asarray(plan[pid], dtype=np.int64)
                    arr[tuple(idx)] = 0.0
    return out


# -- a plain layer chain for structure tests ------------------------------------

_ACTIVATIONS = {"tanh": T.tanh, "relu": T.relu, "sigmoid": T.sigmoid}


def sequential_forward(net, x):
    """Layers in order; the activation per layer comes from net.meta."""
    acts = net.meta.get("activations", {})
    for name, layer in net.layers.items():
        if layer.kind == "linear":
            x = nn.linear_forward(layer, x)
        elif layer.kind == "conv1d":
            x = nn.conv_forward(layer, x)
        elif layer.kind == "batchnorm":
            x = nn.batchnorm_forward(layer, x, net.training,
                                     net.meta.get("bn_momentum", 0.1))
        elif layer.kind == "gru":
            x = nn.gru_scan(layer, x)
        act = acts.get(name)
        if act is not None:
            x = _ACTIVATIONS[act](x)
    return x


nn.register_arch("sequential", nn.ArchSpec(forward=sequential_forward))
