"""Reverse-mode autodiff over float32 numpy arrays.

Every op records a node whose backward function maps the node's gradient
to one gradient (or None) per input; `backward()` walks the graph in
reverse topological order and routes each one to its input. Ops raise
ShapeError on incompatible shapes and NumericError as soon as any forward
result stops being finite, so faults surface at the op that caused them
instead of as a NaN loss many steps later.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from . import fourier


def _pin_malloc_thresholds():
    """Keep freed numpy buffers in the process instead of unmapping them.

    glibc adapts its mmap and trim thresholds to the allocation history,
    so a train step's freed arrays often go back to the kernel and the
    next step faults the same pages in again. Pinning the mmap threshold
    at glibc's maximum (32 MiB) and the trim threshold at 1 GiB keeps
    every array below 32 MiB on the heap and the heap resident once
    grown. A no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_pin_malloc_thresholds()


class ShapeError(ValueError):
    pass


class NumericError(ArithmeticError):
    pass


class GraphError(RuntimeError):
    pass


_GRAD_ENABLED = True


def grad_enabled() -> bool:
    """False inside no_grad, where no op records a node."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording, for inference and sample generation."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add d(self)/d(leaf) into .grad for every leaf of the graph.

        A leaf is a tensor that requires grad and no op produced
        (parameters, inputs). Interior nodes keep .grad None: each one's
        flow is dropped as soon as its own backward has pushed it to its
        inputs, so a pass holds the flows of one frontier, not the graph's.
        Each call contributes exactly one gradient pass, so calling twice
        without zero_grad doubles the leaves' grads. That is why a fused
        node (the WaveNet trunk, the class head, the spectral loss) keeps
        the arrays it saved until the graph itself is dropped, not only
        until its first backward.

        Routing happens here and nowhere else: a node's backward returns
        one gradient or None per parent, in parent order; None and parents
        that need no gradient are skipped, and a wrong count of gradients,
        or a gradient whose shape is not its parent's, raises GraphError
        (see _route). A parent's first flow is stored
        as it is, without a copy, since no backward writes into a flow it
        receives or returns; a later flow is added into a new array. So a
        leaf's .grad may share memory with other flows, or be a read-only
        broadcast view: read it, never write into it.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward() needs a scalar, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # per-call flows stay in a scratch map; .grad only sees the fold
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = None if node._backward is None else flows.pop(id(node), None)
            if g is not None:
                _route(node, node._backward(g), flows)
        for node in order:
            g = flows.get(id(node))
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op})"


def _route(node: Tensor, grads, flows: dict[int, np.ndarray]):
    """Add the gradients node's backward returned to its parents' flows.
    A function of its own, so no flow outlives the call in a local."""
    if len(grads) != len(node._parents):
        raise GraphError(f"op '{node._op}' returned {len(grads)} gradients "
                         f"for {len(node._parents)} inputs")
    for p, g in zip(node._parents, grads):
        if g is None or not p.requires_grad:
            continue
        if g.shape != p.shape:
            raise GraphError(f"op '{node._op}' returned a gradient of shape "
                             f"{g.shape} for an input of shape {p.shape}")
        g = g.astype(np.float32, copy=False)
        cur = flows.get(id(p))
        flows[id(p)] = g if cur is None else cur + g


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
          backward=None) -> Tensor:
    """A node computed from parents. backward(g) maps the node's gradient
    g to one gradient or None per parent, in parent order; it is kept only
    while the graph records, so a no_grad node pins nothing it captured."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data.astype(np.float32, copy=False)
    out.grad = None
    out._op = op
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = record
    out._parents = parents if record else ()
    out._backward = backward if record else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a: Tensor, b: Tensor, fn, da, db, op: str) -> Tensor:
    """Broadcasting elementwise op; da(g, x, y) and db(g, x, y) are the
    gradients reaching a and b before they are summed back to shape."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"op '{op}' cannot broadcast {a.shape} with {b.shape}"
        ) from None
    def backward(g):
        return [_unbroadcast(d(g, a.data, b.data), p.shape) if p.requires_grad
                else None for p, d in ((a, da), (b, db))]
    return _node(fn(a.data, b.data), (a, b), op, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g,
                   "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y,
                   lambda g, x, y: g * x, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y), "div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of operands with at least 2 dims each."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(
            f"op 'matmul' needs operands of 2 or more dims: {a.shape} @ {b.shape}"
        )
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(
            f"op 'matmul' inner dims differ: {a.shape} @ {b.shape}"
        )
    try:
        res = np.matmul(ad, bd)
    except ValueError:
        raise ShapeError(
            f"op 'matmul' cannot broadcast batch dims: {a.shape} @ {b.shape}"
        ) from None
    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return ga, gb
    return _node(res, (a, b), "matmul", backward)


def _taps(k: int, dilation: int, t: int) -> list[tuple[int, int]]:
    """(tap, shift) of every tap of a causal conv that reaches inside a
    length-t signal; empty only when t == 0."""
    return [(j, (k - 1 - j) * dilation) for j in range(k)
            if (k - 1 - j) * dilation < t]


def conv1d_dilated_causal(x: Tensor, w: Tensor, dilation: int = 1,
                          bias: Tensor | None = None) -> Tensor:
    """Causal dilated 1-d convolution, plus an optional per-channel bias.

    x: (C, T) or (B, C, T); w: (O, C, K); bias: (O,). Output keeps length
    T and y[t] only reads x[<= t]: tap j reads x shifted right by
    s = (K-1-j)*dilation, applied as y[..., s:] += w[:, :, j] @ x[..., :T-s]
    with no padded copy of x, and a tap with s >= T reads nothing. The
    first tap that reaches the signal is written in place (matmul out=,
    zeroing only y[..., :s]); the others add in tap order. The backward
    pass is conv1d_grads.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 3:
        raise ShapeError(f"op 'conv1d' weight must be (out, in, k), got {w.shape}")
    if xd.ndim not in (2, 3):
        raise ShapeError(f"op 'conv1d' input must be (c, t) or (b, c, t), got {x.shape}")
    if dilation < 1:
        raise ShapeError(f"op 'conv1d' dilation must be >= 1, got {dilation}")
    cin = xd.shape[-2]
    n_out, w_cin, k = wd.shape
    if cin != w_cin:
        raise ShapeError(
            f"op 'conv1d' channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    if bias is not None and bias.shape != (n_out,):
        raise ShapeError(
            f"op 'conv1d' bias must be ({n_out},), got {bias.shape}"
        )
    t = xd.shape[-1]
    taps = _taps(k, dilation, t)
    acc = np.empty(xd.shape[:-2] + (n_out, t), dtype=np.float32)
    if taps:
        j0, s0 = taps[0]
        acc[..., :s0] = 0.0
        np.matmul(wd[:, :, j0], xd[..., : t - s0], out=acc[..., s0:])
    for j, s in taps[1:]:
        acc[..., s:] += np.matmul(wd[:, :, j], xd[..., : t - s])
    if bias is not None:
        acc += bias.data[:, None]
    parents = (x, w) if bias is None else (x, w, bias)
    def backward(g):
        grads = conv1d_grads(g, xd, wd, dilation, x.requires_grad, w.requires_grad,
                             bias is not None and bias.requires_grad)
        return grads if bias is not None else grads[:2]
    return _node(acc, parents, "conv1d", backward)


def conv1d_grads(g: np.ndarray, xd: np.ndarray, wd: np.ndarray, dilation: int,
                 want_x: bool, want_w: bool, want_bias: bool):
    """(input, weight, bias) gradients of conv1d_dilated_causal for the
    output flow g, each None unless wanted.

    The input gradient mirrors the forward's slices: the first tap is
    written in place, zeroing only the tail it cannot reach, and the
    others add in tap order. The weight gradient of tap j is the per-item
    product g[..., s:] @ x[..., :T-s]^T summed over the batch, read
    through a transposed view with no copy.
    """
    t = xd.shape[-1]
    taps = _taps(wd.shape[2], dilation, t)
    gx = gw = gb = None
    if want_w:
        gw = np.zeros_like(wd)
        for j, s in taps:
            gj = np.matmul(g[..., s:], np.swapaxes(xd[..., : t - s], -1, -2))
            gw[:, :, j] = gj if gj.ndim == 2 else gj.sum(axis=0)
    if want_x:
        gx = np.empty(xd.shape, dtype=np.float32)
        if taps:
            j0, s0 = taps[0]
            gx[..., t - s0:] = 0.0
            np.matmul(wd[:, :, j0].T, g[..., s0:], out=gx[..., : t - s0])
        for j, s in taps[1:]:
            gx[..., : t - s] += np.matmul(wd[:, :, j].T, g[..., s:])
    if want_bias:
        gb = (g.sum(axis=0) if g.ndim == 3 else g).sum(axis=1)
    return gx, gw, gb


def frame_lerp(x: Tensor, hop: int, basis: np.ndarray | None = None) -> Tensor:
    """Per-frame controls x (B, F, K) linearly interpolated to sample rate
    and summed against a basis (B or none, F*hop, K) into (B, F*hop); with
    no basis, K is 1 and the result is the interpolated controls.

    Sample j of frame f mixes frames f and min(f+1, F-1) with weights
    1 - j/hop and j/hop. Each frame's basis block (hop, K) is contracted
    with its control pair (K, 2) instead, so no sample-rate copy of the
    controls is built; backward is the transposed contraction, with the
    frame f+1 read sent back to f+1 (clamped at the last frame).
    """
    b, f, k = x.shape
    if basis is None and k != 1:
        raise ShapeError(f"op 'frame_lerp' needs a basis for {x.shape}")
    frac = np.arange(hop) / hop
    w = (1.0 - frac).astype(np.float32), frac.astype(np.float32)
    xd = x.data
    pair = np.stack([xd, np.concatenate([xd[:, 1:], xd[:, -1:]], axis=1)], -1)
    c4 = None if basis is None else basis.reshape(basis.shape[:-2] + (f, hop, k))
    r = pair if c4 is None else np.matmul(c4, pair)  # (B, F, hop or 1, 2)
    def backward(g):
        g = g.reshape(b, f, hop)
        gw = np.stack([g * w[0], g * w[1]], -1)
        d = (gw.sum(axis=2, keepdims=True) if c4 is None
             else np.matmul(np.swapaxes(c4, -1, -2), gw))
        d[:, 1:, :, 0] += d[:, :-1, :, 1]
        d[:, -1, :, 0] += d[:, -1, :, 1]
        return (d[..., 0],)
    return _node((r[..., 0] * w[0] + r[..., 1] * w[1]).reshape(b, f * hop),
                 (x,), "frame_lerp", backward)


def _unary(a: Tensor, fn, dfn, op: str) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        y = fn(a.data).astype(np.float32, copy=False)
    return _node(y, (a,), op, lambda g: (g * dfn(a.data, y),))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function as 1/(1+e) for x >= 0 and e/(1+e) below, with
    e = exp(-|x|) <= 1, so neither branch overflows. One division serves
    both: max(e, x >= 0) is exactly 1 where x >= 0 and e elsewhere (NaN
    stays NaN), and costs a fraction of np.where on a mixed-sign mask."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.maximum(e, x >= 0) / d


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, sigmoid_array, lambda x, y: y * (1.0 - y), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def relu(a: Tensor) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0),
                  lambda x, y: (x > 0).astype(np.float32), "relu")


def tsqrt(a: Tensor) -> Tensor:
    return _unary(a, np.sqrt, lambda x, y: 0.5 / y, "sqrt")


def _reduce_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(g, a.shape),)
    return _node(np.asarray(data, dtype=np.float32), (a,), "sum", backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    data = a.data.mean(axis=axes, keepdims=keepdims)
    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(g / count, a.shape),)
    return _node(np.asarray(data, dtype=np.float32), (a,), "mean", backward)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(
            f"op 'reshape' cannot view {a.shape} as {tuple(shape)}"
        ) from None
    return _node(data, (a,), "reshape", lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    inv = None if axes is None else tuple(np.argsort(axes))
    return _node(np.transpose(a.data, axes), (a,), "transpose",
                 lambda g: (np.transpose(g, inv),))


@dataclass(frozen=True)
class SpectrogramConfig:
    window_sizes: tuple[int, ...] = (32, 128, 256, 512, 1024)
    hop_fraction: float = 0.25
    floor_epsilon: float = 5e-3

    def __post_init__(self):
        for w in self.window_sizes:
            if not fourier.is_pow2(w) or not (32 <= w <= 1024):
                raise ValueError(
                    f"window sizes must be powers of two in [32, 1024], got {w}"
                )
        if not (0.0 < self.hop_fraction <= 1.0):
            raise ValueError(f"hop_fraction must be in (0, 1], got {self.hop_fraction}")
        if self.floor_epsilon <= 0.0:
            raise ValueError(f"floor_epsilon must be positive, got {self.floor_epsilon}")

    def hop(self, window: int) -> int:
        return max(1, int(window * self.hop_fraction))


def hann_window(n: int) -> np.ndarray:
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(np.float32)


def _overlap_add(g: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Fold (..., frames, window) back onto (..., length): the adjoint of
    slicing windows that start every `hop` samples."""
    n_frames, window = g.shape[-2:]
    lead = g.shape[:-2]
    # one hop of slack lets every stripe below be a whole (frames, hop) view
    out = np.zeros(lead + (length + hop,), dtype=np.float32)
    # within one stripe of in-window offsets [lo, lo + hop), frames never
    # overlap, so each stripe folds back with one vectorised add
    for lo in range(0, window, hop):
        width = min(hop, window - lo)
        tgt = out[..., lo : lo + n_frames * hop].reshape(*lead, n_frames, hop)
        tgt[..., :width] += g[..., lo : lo + width]
    return out[..., :length]


def spectra(x: np.ndarray, cfg: SpectrogramConfig):
    """For each configured window size in turn, (window, hop, spectrum,
    power) of x's Hann-tapered frames that start every hop samples: the
    spectrum is their rfft, (..., frames, bins), and the power is
    |spectrum|^2 + floor_epsilon. Raises ShapeError before any window if
    x is shorter than one of them."""
    t = x.shape[-1]
    for w in cfg.window_sizes:
        if t < w:
            raise ShapeError(
                f"signal length {t} is shorter than analysis window {w}"
            )
    floor = np.float32(cfg.floor_epsilon)
    for w in cfg.window_sizes:
        hop = cfg.hop(w)
        frames = np.lib.stride_tricks.sliding_window_view(x, w, axis=-1)
        spec = fourier.fft(frames[..., ::hop, :] * hann_window(w))
        power = np.square(spec.real)
        power += np.square(spec.imag)
        power += floor
        yield w, hop, spec, power


def spectrum_grad(h: np.ndarray, window: int, hop: int, length: int) -> np.ndarray:
    """The gradient on a length-`length` signal, given h = dL/d|X|^2 * X
    for the spectrum X of its frames of `window` samples every `hop`
    (as spectra makes them): one irfft, the taper, then overlap-add.
    Overwrites h."""
    # d|X_k|^2/dx_m = 2 Re(X_k e^{+2pi i k m / n}); irfft counts each
    # interior bin twice (it and its mirror) but DC and Nyquist once,
    # so those two are doubled here
    h[..., 0] *= 2.0
    h[..., window // 2] *= 2.0
    gt = fourier.ifft(h, window)
    gt *= np.float32(window)
    gt *= hann_window(window)
    return _overlap_add(gt, length, hop)


def stft_logmag(x: np.ndarray, cfg: SpectrogramConfig) -> list[np.ndarray]:
    """log(|stft|^2 + floor_epsilon) of x's Hann-tapered frames in float32,
    one (..., frames, bins) array per window size (spectra); no graph."""
    logs = [np.log(power) for *_, power in spectra(np.asarray(x, dtype=np.float32), cfg)]
    for logp in logs:
        _check_finite(logp, "stft_logmag")
    return logs
