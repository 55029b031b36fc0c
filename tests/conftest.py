"""Shared oracles: finite-difference gradients, a naive DFT, the masked
sigmoid, the composed reference versions of the fused ops, the dense
upsampling render (the synthesis heads' oracle), unit masking (trimming's
oracle), a WaveNet whose relus are clear of zero at a given input, the
test-only "sequential" arch and the stubs that fill a test arch's unused
fields, a trainer that takes no step, an Adam trainer from keyword
fields, a counter of Adam train calls, and per-test losses added to
models.ARCHS as throwaway archs."""

import dataclasses

import numpy as np

from audiotrim import fourier, harness, models, nn
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
# These are the oracles for the fused nodes that replaced them in src:
# stft_logmag_node (one node per window, the graph form of the grad-free
# tensor.stft_logmag; stft_logmag_composed is its oracle), nn.gru_scan (one node per
# sequence), models.nll_from_logits (one node for the class head and its
# NLL; head_nll_composed is the head's own conv node followed by the
# logits-NLL node nll_logits_node, itself checked against the
# elementary-op chain nll_composed) and tensor.conv1d_dilated_causal's
# pad-free taps and bias. Three oracles must match src bit for bit:
# nll_from_logits_batched runs the class head over the whole batch at once
# where models.nll_from_logits runs it one item at a time;
# wavenet_trunk_added builds models._wavenet_trunk's one node from a conv
# node per layer, a gated_conv1d node per gated unit (gated_composed, two
# conv nodes, tanh, sigmoid and mul, is that node's own oracle), an add
# node per skip and residual projection and two relu nodes; and
# spectral_loss_composed builds models.multiscale_spectral_loss from
# stft_logmag_node's nodes and sub, abs, mean and add nodes. texp, tlog, tabs,
# slice_axis and concat are elementary ops only these oracles use. Each
# oracle node is built as src builds its own: T._node with a backward that
# returns one gradient (or None) per input, which Tensor.backward routes.


def texp(a):
    return T._unary(a, np.exp, lambda x, y: y, "exp")


def tlog(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return T._node(data, (a,), "log", lambda g: (g / a.data,))


def slice_axis(a, axis, start, stop):
    axis = axis % a.ndim
    n = a.shape[axis]
    if not (0 <= start <= stop <= n):
        raise T.ShapeError(
            f"op 'slice' range [{start}:{stop}] out of bounds for "
            f"axis {axis} of {a.shape}"
        )
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros(a.shape, dtype=np.float32)
        full[idx] = g
        return (full,)
    return T._node(a.data[idx], (a,), "slice", backward)


def concat(parts, axis=0):
    if not parts:
        raise T.ShapeError("op 'concat' needs at least one input")
    axis = axis % parts[0].ndim
    for p in parts[1:]:
        if p.ndim != parts[0].ndim:
            raise T.ShapeError(
                f"op 'concat' rank mismatch: {parts[0].shape} vs {p.shape}"
            )
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise T.ShapeError(f"op 'concat' incompatible shapes {shapes}") from None
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward(g):
        idx = [slice(None)] * g.ndim
        grads = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return grads
    return T._node(data, tuple(parts), "concat", backward)


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

    def backward(g):
        gw = np.zeros_like(wd)
        gxp = np.zeros_like(xd)
        for j in range(k):
            seg = xd[..., j * dilation : j * dilation + t]
            axes = [0, 2] if g.ndim == 3 else [1]
            gw[:, :, j] = np.tensordot(g, seg, axes=(axes, axes))
            gxp[..., j * dilation : j * dilation + t] += np.matmul(wd[:, :, j].T, g)
        return gxp[..., pad:], gw
    y = T._node(acc, (x, w), "conv1d_padded", backward)
    return y if bias is None else T.add(y, T.reshape(bias, (-1, 1)))


def nll_composed(logits, targets):
    """Mean NLL through shift, exp, sum, log and a dense one-hot product."""
    b, c, t = logits.shape
    if targets.shape != (b, t):
        raise T.ShapeError(f"targets {targets.shape} do not match logits {logits.shape}")
    shift = T.Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.add(tlog(T.tsum(texp(z), axis=1, keepdims=True)), shift)
    onehot = np.zeros((b, c, t), dtype=np.float32)
    onehot[np.arange(b)[:, None], targets, np.arange(t)[None, :]] = 1.0
    picked = T.tsum(T.mul(logits, T.Tensor(onehot)), axis=1, keepdims=True)
    return T.tmean(T.sub(lse, picked))


def nll_logits_node(logits, targets):
    """Mean NLL of logits (batch, classes, time) as one node: a max-shifted
    log-sum-exp and a gather forward, softmax minus one-hot backward."""
    b, c, t = logits.shape
    if targets.shape != (b, t):
        raise T.ShapeError(f"targets {targets.shape} do not match logits {logits.shape}")
    x = logits.data
    shift = x.max(axis=1, keepdims=True)
    z = x - shift
    np.exp(z, out=z)
    lse = np.log(z.sum(axis=1, keepdims=True)) + shift
    at = (np.arange(b)[:, None], targets, np.arange(t)[None, :])
    loss = (lse[:, 0, :] - x[at]).mean()

    def backward(g):
        p = x - lse
        np.exp(p, out=p)
        p[at] -= 1.0
        p *= g / (b * t)
        return (p,)
    return T._node(np.asarray(loss), (logits,), "nll_logits", backward)


def nll_from_logits_batched(h, head, targets):
    """The class head and its NLL as one node over the whole batch: one
    grad-free conv call makes the (batch, classes, time) logits, the
    log-sum-exp runs in place on them, the node keeps them as
    (softmax - onehot) / (batch * time), and backward runs
    tensor.conv1d_grads on that buffer, times the flow."""
    w, bias = head.params["w"], head.params["b"]
    hd, wd, dilation = h.data, w.data, head.dilation
    x = T.conv1d_dilated_causal(T.Tensor(hd), T.Tensor(wd), dilation,
                                bias=T.Tensor(bias.data)).data
    b, c, t = x.shape
    if targets.shape != (b, t):
        raise T.ShapeError(f"targets {targets.shape} do not match logits {x.shape}")
    at = (np.arange(b)[:, None], targets, np.arange(t)[None, :])
    picked = x[at]
    shift = x.max(axis=1, keepdims=True)
    x -= shift
    np.exp(x, out=x)
    total = x.sum(axis=1, keepdims=True)
    loss = (np.log(total) + shift)[:, 0, :] - picked

    def backward(g):
        grads = T.conv1d_grads(x, hd, wd, dilation, h.requires_grad,
                               w.requires_grad, bias.requires_grad)
        return [None if grad is None else grad * g for grad in grads]
    out = T._node(np.asarray(loss.mean()), (h, w, bias), "nll_batched", backward)
    if out.requires_grad:
        x /= total
        x[at] -= 1.0
        x *= np.float32(1.0 / (b * t))
    return out


def gated_conv1d(x, wf, bf, wg, bg, dilation=1):
    """WaveNet's gated unit tanh(conv(x, wf) + bf) * sigmoid(conv(x, wg) + bg)
    as one node.

    The filter and gate weights are stacked along the output axis, so one
    grad-free conv1d_dilated_causal call (one matmul per tap) makes both
    pre-activations. tanh and sigmoid overwrite their halves of that
    buffer, and the node keeps only those two halves, t and s. Backward
    writes dz*s*(1-t^2) and dz*t*s*(1-s) into one stacked buffer, runs
    conv1d_grads once and splits the weight and bias gradients back to
    the filter and the gate.
    """
    if wg.shape != wf.shape or bg.shape != bf.shape:
        raise T.ShapeError(
            f"op 'gated' filter {wf.shape}, {bf.shape} and gate "
            f"{wg.shape}, {bg.shape} differ"
        )
    n = wf.shape[0]
    w = np.concatenate([wf.data, wg.data])
    ts = T.conv1d_dilated_causal(T.Tensor(x.data), T.Tensor(w), dilation,
                                 bias=T.Tensor(np.concatenate([bf.data, bg.data]))).data
    t, s = ts[..., :n, :], ts[..., n:, :]
    np.tanh(t, out=t)
    s[...] = T.sigmoid_array(s)
    xd = x.data

    def backward(g):
        # the expression order of the mul, tanh and sigmoid nodes' backward
        d = np.empty(ts.shape, dtype=np.float32)
        np.multiply(g * s, 1.0 - t * t, out=d[..., :n, :])
        np.multiply(g * t, s * (1.0 - s), out=d[..., n:, :])
        gx, gw, gb = T.conv1d_grads(d, xd, w, dilation, x.requires_grad,
                                    wf.requires_grad or wg.requires_grad,
                                    bf.requires_grad or bg.requires_grad)
        (gwf, gwg), (gbf, gbg) = [(None, None) if a is None else (a[:n], a[n:])
                                  for a in (gw, gb)]
        return gx, gwf, gbf, gwg, gbg
    return T._node(t * s, (x, wf, bf, wg, bg), "gated", backward)


def wavenet_trunk_added(net, x, gated=gated_conv1d):
    """The WaveNet trunk as a graph of one node per op: a conv node per
    layer, a gated node per block (gated_conv1d, or another with its
    signature), an add node per skip and residual projection added into
    its stream, and a relu node each for the skip sum and out1."""
    n_blocks = len(net.meta["dilations"])
    r = nn.conv_forward(net.layers["in_conv"], x)
    nn.record("in_conv", r, -2)
    skip_total = None
    for i in range(n_blocks):
        filt, gate = net.layers[f"filter_{i}"], net.layers[f"gate_{i}"]
        z = gated(r, filt.params["w"], filt.params["b"],
                  gate.params["w"], gate.params["b"], filt.dilation)
        nn.record(f"filter_{i}", z, -2)
        s = nn.conv_forward(net.layers[f"skip_{i}"], z)
        nn.record(f"skip_{i}", s, -2)
        skip_total = s if skip_total is None else T.add(skip_total, s)
        if i < n_blocks - 1:
            r = T.add(r, nn.conv_forward(net.layers[f"res_{i}"], z))
            nn.record(f"res_{i}", r, -2)
    h = T.relu(skip_total)
    h = T.relu(nn.conv_forward(net.layers["out1"], h))
    nn.record("out1", h, -2)
    return h


def relu_clear_trunk(rng, x0):
    """A trimmed two-block WaveNet to probe models._wavenet_trunk through
    at the input x0, (batch, 1, time). Its last skip bias and its out1
    bias are set from the values at x0, so that there each relu input
    channel lies at least 0.25 above zero throughout (the first channel
    always, the others with odds 3 in 4) or below it throughout: no small
    step from x0 crosses a kink, and flow passes."""
    cfg = models.ModelConfig(arch="wavenet", sample_rate=4000, n_stacks=1,
                             blocks_per_stack=2, residual_channels=3,
                             gate_channels=3, skip_channels=3,
                             head_channels=4, n_classes=4)
    net = nn.apply_trim(models.build_model(cfg, seed=int(rng.integers(1 << 16))),
                        {"filter_0": np.array([1]), "out1": np.array([0])})

    def clear(bias, pre):
        # pre: (channels, positions), the relu's input less this bias
        alive = rng.random(len(bias)) < 0.75
        alive[0] = True
        bias[:] = np.where(alive, 0.25 - pre.min(axis=1), -0.25 - pre.max(axis=1))
        return np.maximum(pre + bias[:, None], 0.0)

    # the biases start at zero
    with T.no_grad(), nn.capture() as tape:
        models._wavenet_trunk(net, T.Tensor(x0))
    h1 = clear(net.layers["skip_1"].params["b"].data,
               tape["skip_0"][0] + tape["skip_1"][0])
    out1 = net.layers["out1"].params
    clear(out1["b"].data, out1["w"].data[:, :, 0] @ h1)
    return net


def head_nll_composed(h, head, targets, nll=nll_logits_node):
    """The class head as its own conv node, then nll of its logits."""
    return nll(nn.conv_forward(head, h), targets)


def gated_composed(x, wf, bf, wg, bg, dilation=1):
    """tanh of the filter conv times sigmoid of the gate conv, as two conv
    nodes, a tanh, a sigmoid and a mul."""
    return T.mul(T.tanh(T.conv1d_dilated_causal(x, wf, dilation, bias=bf)),
                 T.sigmoid(T.conv1d_dilated_causal(x, wg, dilation, bias=bg)))


def frame(a, window, hop):
    """Overlapping windows of the last axis: (..., T) -> (..., F, window)."""
    t = a.shape[-1]
    n_frames = (t - window) // hop + 1
    idx = (np.arange(n_frames) * hop)[:, None] + np.arange(window)[None, :]

    def backward(g):
        gx = np.zeros(a.shape, dtype=np.float32)
        np.add.at(gx, (..., idx), g)
        return (gx,)
    return T._node(a.data[..., idx], (a,), "frame", backward)


def fft_mag2(a):
    """Squared magnitude of the one-sided DFT of the last axis (n//2 + 1 bins)."""
    n = a.shape[-1]
    spec = fourier.fft(a.data)

    def backward(g):
        # d|X_k|^2/dx_m = 2 Re(X_k e^{+2pi i k m / n}); irfft counts each
        # interior bin twice (it and its mirror) but DC and Nyquist once,
        # so those two are doubled here
        h = g * spec
        h[..., 0] *= 2.0
        if n % 2 == 0 and n > 1:
            h[..., n // 2] *= 2.0
        return (n * fourier.ifft(h, n),)
    return T._node(spec.real ** 2 + spec.imag ** 2, (a,), "fft_mag2", backward)


def tabs(a):
    return T._unary(a, np.abs, lambda x, y: np.sign(x), "abs")


def stft_logmag_node(signal, cfg):
    """tensor.stft_logmag of a tensor, one graph node per window size:
    T.spectra runs framing, taper, rfft and power, and the backward pass
    goes straight from the log's gradient to the signal (T.spectrum_grad)."""
    length = signal.shape[-1]

    def node(window, hop, spec, power):
        def backward(g):
            return (T.spectrum_grad((g / power) * spec, window, hop, length),)
        return T._node(np.log(power), (signal,), "stft_logmag", backward)
    return [node(*parts) for parts in T.spectra(signal.data, cfg)]


def spectral_loss_composed(pred, target, cfg):
    """Sum over windows of tmean(tabs(sub(stft_logmag_node, target))), one
    node per op, the terms added in window order."""
    total = None
    for p, q in zip(stft_logmag_node(pred, cfg), target):
        term = T.tmean(tabs(T.sub(p, T.Tensor(q))))
        total = term if total is None else T.add(total, term)
    return total


def stft_logmag_composed(signal, cfg):
    """frame -> Hann -> |DFT|^2 -> log(. + eps), one elementary op at a time."""
    eps = T.Tensor(cfg.floor_epsilon)
    return [tlog(T.add(fft_mag2(T.mul(frame(signal, w, cfg.hop(w)),
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
        h = gru_cell(layer, T.reshape(slice_axis(x, 1, i, i + 1), (b, -1)), h)
        steps.append(T.reshape(h, (b, 1, -1)))
    return concat(steps, axis=1)


# -- dense upsampling: the synthesis heads' oracle ------------------------------


_UPSAMPLE_CACHE: dict = {}


def upsample_matrix(n_samples, n_frames, hop):
    """(n_samples, n_frames) linear interpolation weights from frame rate
    to sample rate. Built once per shape and shared, so it is read-only."""
    key = (n_samples, n_frames, hop)
    u = _UPSAMPLE_CACHE.get(key)
    if u is not None:
        return u
    pos = np.arange(n_samples) / hop
    lo = np.clip(np.floor(pos).astype(np.int64), 0, n_frames - 1)
    hi = np.minimum(lo + 1, n_frames - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    u = np.zeros((n_samples, n_frames), dtype=np.float32)
    u[np.arange(n_samples), lo] += 1.0 - frac
    u[np.arange(n_samples), hi] += frac
    u.flags.writeable = False
    _UPSAMPLE_CACHE[key] = u
    return u


def upsample_dense(f0_frames, hop):
    """(batch, frames) -> (batch, frames*hop) through the dense product."""
    n_frames = f0_frames.shape[1]
    return f0_frames @ upsample_matrix(n_frames * hop, n_frames, hop).T


def ddsp_synthesize_dense(controls, f0_frames, meta, bank):
    """Harmonic-plus-noise render that upsamples every control to sample
    rate with the dense matrix, then multiplies and sums per head."""
    cfg = meta["config"]
    hop, n_bands = cfg["frame_hop"], cfg["noise_bins"]
    batch, n_frames = np.shape(f0_frames)
    n_samples = n_frames * hop
    ut = T.Tensor(upsample_matrix(n_samples, n_frames, hop))
    harmonic = T.tsum(T.mul(T.matmul(ut, controls["harm"]), T.Tensor(bank)), axis=-1)
    basis = T.Tensor(models.noise_band_basis(n_samples, n_bands, cfg["noise_seed"]))
    noise = T.tsum(T.mul(T.matmul(ut, controls["noise"]),
                         T.mul(basis, T.Tensor(1.0 / n_bands))), axis=-1)
    amp_up = T.reshape(T.matmul(ut, controls["amp"]), (batch, n_samples))
    mix = T.add(T.mul(harmonic, T.Tensor(0.8)), T.mul(noise, T.Tensor(0.2)))
    return T.mul(amp_up, mix)


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
        roles = layer.spec.roles
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


def units_original(net):
    """Units the net's pools held before any trimming."""
    return sum(p.orig for p in net.pools.values())


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
            x = nn.batchnorm_forward(layer, x, net.training)
        elif layer.kind == "gru":
            x = nn.gru_scan(layer, x)
        act = acts.get(name)
        if act is not None:
            x = _ACTIVATIONS[act](x)
    return x


def batch_x(batch):
    """The test archs' forward input: the batch's "x" array."""
    return T.Tensor(np.asarray(batch["x"], dtype=np.float32))


def unused(field):
    """A stub for an ArchSpec field that a test arch never calls."""
    def fail(*args, **kwargs):
        raise AssertionError(f"a test arch's {field} was called")
    return fail


models.ARCHS["sequential"] = models.ArchSpec(
    build=unused("build"), forward=sequential_forward, inputs=batch_x,
    loss=unused("loss"), sample=unused("sample"))


# -- runs without training, and per-test losses ---------------------------------


def no_training(net, splits, record_step=None, after_step=None):
    """run_imp's trainer contract with zero optimizer steps: the net is
    left as it is, and only step 0 can be recorded."""
    if record_step is None:
        return None
    if record_step > 0:
        raise ValueError(f"rewind step {record_step} lies beyond the "
                         "0 training steps taken")
    return net.param_state()


def adam(seed=0, **training):
    """harness.adam_trainer for a TrainingConfig that sets only the given
    fields."""
    return harness.adam_trainer(harness.TrainingConfig(**training), seed)


def count_train_calls(monkeypatch) -> list:
    """A list that gains one entry per call of any trainer that
    harness.adam_trainer makes from now on in the test."""
    calls = []
    factory = harness.adam_trainer

    def counting_factory(*args, **kwargs):
        train = factory(*args, **kwargs)

        def counted(*a, **k):
            calls.append(k.get("record_step"))
            return train(*a, **k)
        return counted

    monkeypatch.setattr(harness, "adam_trainer", counting_factory)
    return calls


def use_loss(monkeypatch, net, loss):
    """net, moved to a copy of its arch's record whose loss is ``loss``.

    The copy is in models.ARCHS under a name of its own for one test only.
    A loss that wraps the arch's own must call that record's ``loss``:
    models.compute_loss would look up the wrapper again.
    """
    name = f"{net.arch}+loss"
    monkeypatch.setitem(models.ARCHS, name,
                        dataclasses.replace(models.arch_spec(net.arch), loss=loss))
    net.arch = name
    return net
