"""Reverse-mode autodiff over float32 numpy arrays.

Every op builds a closure that knows how to push gradients to its inputs;
`backward()` walks the graph in reverse topological order. Ops raise
ShapeError on incompatible shapes and NumericError as soon as any forward
result stops being finite, so faults surface at the op that caused them
instead of as a NaN loss many steps later.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass, field

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
_FLOWS: dict[int, np.ndarray] | None = None


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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        g = g.astype(np.float32, copy=False)
        if _FLOWS is not None:
            cur = _FLOWS.get(id(self))
            _FLOWS[id(self)] = g.copy() if cur is None else cur + g
        elif self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def backward(self):
        """Add d(self)/d(leaf) into .grad for every leaf of the graph.

        A leaf is a tensor that requires grad and no op produced
        (parameters, inputs). Interior nodes keep .grad None: each one's
        flow is dropped as soon as its own backward has pushed it to its
        inputs, so a pass holds the flows of one frontier, not the graph's.
        Each call contributes exactly one gradient pass, so calling twice
        without zero_grad doubles the leaves' grads.
        """
        global _FLOWS
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
        _FLOWS = flows
        try:
            for node in reversed(order):
                if node._backward is not None:
                    g = flows.pop(id(node), None)
                    if g is not None:
                        node._backward(g)
        finally:
            _FLOWS = None
        for node in order:
            g = flows.get(id(node))
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op})"

    # operator sugar; each delegates to a module-level op

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data.astype(np.float32, copy=False)
    out.grad = None
    out._op = op
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = record
    out._parents = parents if record else ()
    out._backward = None
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


def _binary_shape_check(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"op '{op}' cannot broadcast {a.shape} with {b.shape}"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "add")
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g, b.shape))
        out._backward = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "sub")
    out = _node(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(-g, b.shape))
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "mul")
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g * a.data, b.shape))
        out._backward = _bw
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check(a, b, "div")
    out = _node(a.data / b.data, (a, b), "div")
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                gb = -g * a.data / (b.data * b.data)
                b.accumulate_grad(_unbroadcast(gb, b.shape))
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError("op 'matmul' needs at least 1-d operands")
    a_vec = ad.ndim == 1
    b_vec = bd.ndim == 1
    a2 = ad[None, :] if a_vec else ad
    b2 = bd[:, None] if b_vec else bd
    if a2.shape[-1] != b2.shape[-2]:
        raise ShapeError(
            f"op 'matmul' inner dims differ: {a.shape} @ {b.shape}"
        )
    try:
        res = np.matmul(a2, b2)
    except ValueError:
        raise ShapeError(
            f"op 'matmul' cannot broadcast batch dims: {a.shape} @ {b.shape}"
        ) from None
    if b_vec:
        res = res[..., 0]
    if a_vec:
        res = res[..., 0, :] if not b_vec else res[..., 0]
    out = _node(res, (a, b), "matmul")
    if out.requires_grad:
        def _bw(g):
            g2 = g
            if a_vec and b_vec:
                g2 = g.reshape(1, 1)
            elif a_vec:
                g2 = g[..., None, :]
            elif b_vec:
                g2 = g[..., :, None]
            if a.requires_grad:
                ga = np.matmul(g2, np.swapaxes(b2, -1, -2))
                if a_vec:
                    ga = ga.reshape(-1, ad.shape[0]).sum(axis=0)
                    a.accumulate_grad(ga)
                else:
                    a.accumulate_grad(_unbroadcast(ga, ad.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a2, -1, -2), g2)
                if b_vec:
                    gb = gb.reshape(-1, bd.shape[0], 1).sum(axis=0)[:, 0]
                    b.accumulate_grad(gb)
                else:
                    b.accumulate_grad(_unbroadcast(gb, bd.shape))
        out._backward = _bw
    return out


def conv1d_dilated_causal(x: Tensor, w: Tensor, dilation: int = 1,
                          bias: Tensor | None = None) -> Tensor:
    """Causal dilated 1-d convolution, plus an optional per-channel bias.

    x: (C, T) or (B, C, T); w: (O, C, K); bias: (O,). Output keeps length
    T and y[t] only reads x[<= t]: tap j reads x shifted right by
    s = (K-1-j)*dilation, applied as y[..., s:] += w[:, :, j] @ x[..., :T-s]
    with no padded copy of x, and a tap with s >= T reads nothing. The
    first tap that reaches the signal is written in place (matmul out=,
    zeroing only y[..., :s]); the others add in tap order. The input
    gradient mirrors the same slices the same way. The weight gradient of
    tap j is the per-item product g[..., s:] @ x[..., :T-s]^T summed over
    the batch, read through a transposed view with no copy.
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
    # (tap, shift) for every tap that reaches inside the signal
    taps = [(j, (k - 1 - j) * dilation) for j in range(k)
            if (k - 1 - j) * dilation < t]
    acc = np.empty(xd.shape[:-2] + (n_out, t), dtype=np.float32)
    if taps:  # empty only when t == 0
        j0, s0 = taps[0]
        acc[..., :s0] = 0.0
        np.matmul(wd[:, :, j0], xd[..., : t - s0], out=acc[..., s0:])
    for j, s in taps[1:]:
        acc[..., s:] += np.matmul(wd[:, :, j], xd[..., : t - s])
    if bias is not None:
        acc += bias.data[:, None]
    parents = (x, w) if bias is None else (x, w, bias)
    out = _node(acc, parents, "conv1d")
    if out.requires_grad:
        def _bw(g):
            if w.requires_grad:
                gw = np.zeros_like(wd)
                for j, s in taps:
                    gj = np.matmul(g[..., s:], np.swapaxes(xd[..., : t - s], -1, -2))
                    gw[:, :, j] = gj if gj.ndim == 2 else gj.sum(axis=0)
                w.accumulate_grad(gw)
            if x.requires_grad:
                gx = np.empty(xd.shape, dtype=np.float32)
                if taps:
                    gx[..., t - s0:] = 0.0
                    np.matmul(wd[:, :, j0].T, g[..., s0:], out=gx[..., : t - s0])
                for j, s in taps[1:]:
                    gx[..., : t - s] += np.matmul(wd[:, :, j].T, g[..., s:])
                x.accumulate_grad(gx)
            if bias is not None and bias.requires_grad:
                gb = g.sum(axis=0) if g.ndim == 3 else g
                bias.accumulate_grad(gb.sum(axis=1))
        out._backward = _bw
    return out


def _unary(a: Tensor, fn, dfn, op: str) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        out = _node(fn(a.data), (a,), op)
    if out.requires_grad:
        y = out.data  # not out: a closure holding its own node makes a cycle
        def _bw(g):
            a.accumulate_grad(g * dfn(a.data, y))
        out._backward = _bw
    return out


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function as 1/(1+e) for x >= 0 and e/(1+e) below, with
    e = exp(-|x|) <= 1, so neither branch overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, sigmoid_array, lambda x, y: y * (1.0 - y), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def relu(a: Tensor) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0),
                  lambda x, y: (x > 0).astype(np.float32), "relu")


def texp(a: Tensor) -> Tensor:
    return _unary(a, np.exp, lambda x, y: y, "exp")


def tlog(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    out = _node(data, (a,), "log")
    if out.requires_grad:
        def _bw(g):
            a.accumulate_grad(g / a.data)
        out._backward = _bw
    return out


def tabs(a: Tensor) -> Tensor:
    return _unary(a, np.abs, lambda x, y: np.sign(x), "abs")


def tsqrt(a: Tensor) -> Tensor:
    return _unary(a, np.sqrt, lambda x, y: 0.5 / y, "sqrt")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = _node(s, (a,), "softmax")
    if out.requires_grad:
        def _bw(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            a.accumulate_grad(s * (g - dot))
        out._backward = _bw
    return out


def _reduce_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)
    out = _node(np.asarray(data, dtype=np.float32), (a,), "sum")
    if out.requires_grad:
        def _bw(g):
            if not keepdims:
                g = np.expand_dims(g, axes) if axes else g
            a.accumulate_grad(np.broadcast_to(g, a.shape))
        out._backward = _bw
    return out


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    data = a.data.mean(axis=axes, keepdims=keepdims)
    out = _node(np.asarray(data, dtype=np.float32), (a,), "mean")
    if out.requires_grad:
        def _bw(g):
            if not keepdims:
                g = np.expand_dims(g, axes) if axes else g
            a.accumulate_grad(np.broadcast_to(g / count, a.shape))
        out._backward = _bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(
            f"op 'reshape' cannot view {a.shape} as {tuple(shape)}"
        ) from None
    out = _node(data, (a,), "reshape")
    if out.requires_grad:
        def _bw(g):
            a.accumulate_grad(g.reshape(a.shape))
        out._backward = _bw
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.transpose(a.data, axes)
    out = _node(data, (a,), "transpose")
    if out.requires_grad:
        if axes is None:
            inv = None
        else:
            inv = tuple(np.argsort(axes))
        def _bw(g):
            a.accumulate_grad(np.transpose(g, inv))
        out._backward = _bw
    return out


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    n = a.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(
            f"op 'slice' range [{start}:{stop}] out of bounds for "
            f"axis {axis} of {a.shape}"
        )
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = _node(a.data[idx], (a,), "slice")
    if out.requires_grad:
        def _bw(g):
            full = np.zeros(a.shape, dtype=np.float32)
            full[idx] = g
            a.accumulate_grad(full)
        out._backward = _bw
    return out


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("op 'concat' needs at least one input")
    axis = axis % parts[0].ndim
    for p in parts[1:]:
        if p.ndim != parts[0].ndim:
            raise ShapeError(
                f"op 'concat' rank mismatch: {parts[0].shape} vs {p.shape}"
            )
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise ShapeError(f"op 'concat' incompatible shapes {shapes}") from None
    out = _node(data, tuple(parts), "concat")
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        def _bw(g):
            offset = 0
            for p, size in zip(parts, sizes):
                if p.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(offset, offset + size)
                    p.accumulate_grad(g[tuple(idx)])
                offset += size
        out._backward = _bw
    return out


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


def _logmag_scale(a: Tensor, window: int, hop: int, eps: np.float32) -> Tensor:
    """log(|rfft(hann * frame)|^2 + eps) of one window size, as one node."""
    taper = hann_window(window)
    frames = np.lib.stride_tricks.sliding_window_view(a.data, window, axis=-1)
    spec = fourier.fft(frames[..., ::hop, :] * taper)
    denom = spec.real ** 2 + spec.imag ** 2 + eps
    out = _node(np.log(denom), (a,), "stft_logmag")
    if out.requires_grad:
        def _bw(g):
            # d|X_k|^2/dx_m = 2 Re(X_k e^{+2pi i k m / n}); irfft counts each
            # interior bin twice (it and its mirror) but DC and Nyquist once,
            # so those two are doubled here
            h = (g / denom) * spec
            h[..., 0] *= 2.0
            if window % 2 == 0:
                h[..., window // 2] *= 2.0
            gt = window * fourier.ifft(h, window)
            a.accumulate_grad(_overlap_add(gt * taper, a.shape[-1], hop))
        out._backward = _bw
    return out


def stft_logmag(signal: Tensor, cfg: SpectrogramConfig) -> list[Tensor]:
    """Log power spectrogram per configured window size.

    Returns one tensor of shape (..., frames, bins) per window, where each
    entry is log(|stft|^2 + floor_epsilon) of Hann-tapered frames. Each
    window size is one graph node: framing, taper, rfft, power and log run
    in numpy, and the backward pass goes straight from the log's gradient
    to the signal (one irfft, the taper, then overlap-add), so no framed
    copy of the signal is kept in the graph.
    """
    t = signal.shape[-1]
    for w in cfg.window_sizes:
        if t < w:
            raise ShapeError(
                f"signal length {t} is shorter than analysis window {w}"
            )
    eps = np.float32(cfg.floor_epsilon)
    return [_logmag_scale(signal, w, cfg.hop(w), eps) for w in cfg.window_sizes]
