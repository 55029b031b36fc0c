"""Networks of named layers with structured unit removal.

A Network is an ordered set of layers plus the wiring needed to remove
whole units safely: trim groups tie layers whose output channels must
stay aligned (residual streams, gated filter/gate pairs), and each
layer's `in_source` names the layer whose units feed its input axis.
From that wiring trimming follows: it deletes a unit's outgoing rows,
bias, recurrent columns, normalisation entries and every consumer's
matching input columns, shrinking the arrays. Trimming is the only
pruned state a Network holds. Zeroing the same slices in place (unit
masking) is not a network mode; the tests keep it as trimming's oracle,
and a trimmed forward pass must match the masked one to float
precision. Checkpoints serialise the full structure (not just weights)
so a trimmed network round-trips byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class LayerKind:
    """Everything that sets one layer kind apart. params and buffers map
    each parameter and buffer, in serialisation order, to its axes'
    roles: "out" = the layer's own units (axis 0 of the first parameter
    counts them), "in" = units of the in_source layer, "self" = own
    units on the input side (recurrent matrices), None = an axis pruning
    leaves whole (kernel taps). elementwise_ops is the FLOPs per unit and
    invocation outside the matrix products (embed itemises them).

    Derived: the connection weights (parameters with an "in" or "self"
    axis) and inputs, the first of them per input read (x, and a
    recurrent kind's state). A kind without connection weights is
    elementwise: unit i reads input i, in its in_source's unit space.
    """
    params: dict
    buffers: dict = field(default_factory=dict)
    elementwise_ops: int = 0
    roles: dict = field(init=False)
    weights: tuple = field(init=False)
    inputs: tuple = field(init=False)

    def __post_init__(self):
        inputs = {}
        for pname, roles in self.params.items():
            for role in {"in", "self"} & set(roles):
                inputs.setdefault(role, pname)
        object.__setattr__(self, "roles", {**self.params, **self.buffers})
        object.__setattr__(self, "weights", tuple(
            p for p, roles in self.params.items() if {"in", "self"} & set(roles)))
        object.__setattr__(self, "inputs", tuple(inputs.values()))


_LAYER_KINDS = {
    "linear": LayerKind({"w": ("out", "in"), "b": ("out",)}),
    "conv1d": LayerKind({"w": ("out", "in", None), "b": ("out",)}),
    "gru": LayerKind(
        {"wz": ("out", "in"), "wr": ("out", "in"), "wh": ("out", "in"),
         "uz": ("out", "self"), "ur": ("out", "self"), "uh": ("out", "self"),
         "bz": ("out",), "br": ("out",), "bh": ("out",)},
        elementwise_ops=9),
    "batchnorm": LayerKind({"gamma": ("out",), "beta": ("out",)},
                           {"running_mean": ("out",), "running_var": ("out",)},
                           elementwise_ops=4),
}


def _layer_kind(kind: str) -> LayerKind:
    try:
        return _LAYER_KINDS[kind]
    except KeyError:
        raise StructureError(f"unknown layer kind '{kind}'") from None


@dataclass
class Layer:
    name: str
    kind: str
    params: dict[str, Tensor]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    in_source: str | None = None
    dilation: int = 1
    eps: float = 1e-5

    @property
    def spec(self) -> LayerKind:
        return _layer_kind(self.kind)

    @property
    def n_units(self) -> int:
        return self.params[next(iter(self.spec.params))].shape[0]

    @property
    def reads(self) -> int:
        """Input scalars one invocation reads: each unit reads the same row
        of each input (k * n_in for a conv), or one scalar if elementwise."""
        return (sum(math.prod(self.params[p].shape[1:]) for p in self.spec.inputs)
                or self.n_units)


def _init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)


def make_linear(name, n_in, n_out, rng, in_source=None) -> Layer:
    params = {
        "w": Tensor(_init(rng, (n_out, n_in), n_in), requires_grad=True),
        "b": Tensor(np.zeros(n_out, dtype=np.float32), requires_grad=True),
    }
    return Layer(name, "linear", params, in_source=in_source)


def make_conv(name, n_in, n_out, kernel, rng, dilation=1, in_source=None) -> Layer:
    params = {
        "w": Tensor(_init(rng, (n_out, n_in, kernel), n_in * kernel), requires_grad=True),
        "b": Tensor(np.zeros(n_out, dtype=np.float32), requires_grad=True),
    }
    return Layer(name, "conv1d", params, in_source=in_source, dilation=dilation)


def make_gru(name, n_in, n_hidden, rng, in_source=None) -> Layer:
    params = {}
    for g in ("z", "r", "h"):
        params["w" + g] = Tensor(_init(rng, (n_hidden, n_in), n_in), requires_grad=True)
        params["u" + g] = Tensor(_init(rng, (n_hidden, n_hidden), n_hidden), requires_grad=True)
        params["b" + g] = Tensor(np.zeros(n_hidden, dtype=np.float32), requires_grad=True)
    return Layer(name, "gru", params, in_source=in_source)


def make_batchnorm(name, n, in_source) -> Layer:
    params = {
        "gamma": Tensor(np.ones(n, dtype=np.float32), requires_grad=True),
        "beta": Tensor(np.zeros(n, dtype=np.float32), requires_grad=True),
    }
    buffers = {
        "running_mean": np.zeros(n, dtype=np.float32),
        "running_var": np.ones(n, dtype=np.float32),
    }
    return Layer(name, "batchnorm", params, buffers=buffers, in_source=in_source)


@dataclass
class Pool:
    """One removable unit space: the layers whose out-axes share it."""
    pid: str
    members: tuple[str, ...]
    kept: np.ndarray  # original unit ids still present, in current order
    orig: int


_TAPE: dict | None = None


@contextlib.contextmanager
def capture():
    """Collect unit streams during forward passes: yields a dict mapping
    each recorded layer to one (units, steps) array per pass."""
    global _TAPE
    prev = _TAPE
    _TAPE = {}
    try:
        yield _TAPE
    finally:
        _TAPE = prev


def record(name: str, t: Tensor, unit_axis: int):
    """Log a copy of a layer's output tensor t on the active tape, if any,
    so a forward pass may go on to write into t's array. The copy keeps
    the memory order of the (units, steps) view, so reductions over it
    sum in the same order as over the view."""
    if _TAPE is None:
        return
    arr = t.data
    ax = unit_axis % arr.ndim
    _TAPE.setdefault(name, []).append(
        np.moveaxis(arr, ax, 0).reshape(arr.shape[ax], -1).copy(order="K"))


class Network:
    def __init__(self, arch: str, layers: list[Layer], trim_groups=(),
                 protected=(), meta=None, kept_units=None, orig_units=None):
        self.arch = arch
        self.layers: dict[str, Layer] = {}
        for layer in layers:
            if layer.name in self.layers:
                raise StructureError(f"duplicate layer name '{layer.name}'")
            self.layers[layer.name] = layer
        self.trim_groups = [list(g) for g in trim_groups]
        self.protected = frozenset(protected)
        self.meta = dict(meta or {})
        self.training = True
        self._validate_structure()
        self._build_pools(kept_units or {}, orig_units or {})

    # -- structure -----------------------------------------------------

    def _validate_structure(self):
        for layer in self.layers.values():
            _layer_kind(layer.kind)
            if layer.in_source is not None and layer.in_source not in self.layers:
                raise StructureError(
                    f"layer '{layer.name}' reads from unknown layer '{layer.in_source}'"
                )
        seen = set()
        for group in self.trim_groups:
            sizes = set()
            for name in group:
                if name not in self.layers:
                    raise StructureError(f"trim group names unknown layer '{name}'")
                if name in self.protected:
                    raise StructureError(f"protected layer '{name}' cannot join a trim group")
                if name in seen:
                    raise StructureError(f"layer '{name}' appears in two trim groups")
                seen.add(name)
                sizes.add(self.layers[name].n_units)
            if len(sizes) > 1:
                raise StructureError(f"trim group {group} mixes unit counts {sorted(sizes)}")

    def _build_pools(self, kept_units, orig_units):
        self.pools: dict[str, Pool] = {}
        self.pool_of: dict[str, str] = {}
        for group in self.trim_groups:
            pid = group[0]
            for name in group:
                self.pool_of[name] = pid
            self.pools[pid] = self._make_pool(pid, tuple(group), kept_units, orig_units)
        for name, layer in self.layers.items():
            if name in self.pool_of or name in self.protected:
                continue
            if not layer.spec.weights:
                # an elementwise layer shares its source's unit space
                src = self.pool_of.get(layer.in_source)
                if src is not None:
                    pool = self.pools[src]
                    self.pools[src] = Pool(pool.pid, pool.members + (name,),
                                           pool.kept, pool.orig)
                    self.pool_of[name] = src
                continue
            self.pool_of[name] = name
            self.pools[name] = self._make_pool(name, (name,), kept_units, orig_units)
        for pool in self.pools.values():
            for name in pool.members:
                if self.layers[name].n_units != len(pool.kept):
                    raise StructureError(
                        f"layer '{name}' has {self.layers[name].n_units} units but "
                        f"pool '{pool.pid}' tracks {len(pool.kept)}"
                    )

    def _make_pool(self, pid, members, kept_units, orig_units):
        n = self.layers[pid].n_units
        kept = np.asarray(kept_units.get(pid, np.arange(n)), dtype=np.int64)
        return Pool(pid, members, kept, int(orig_units.get(pid, n)))

    def _pooled_axes(self, layer: Layer, name: str):
        """(axis, pool id) for each axis of a layer's parameter or buffer
        `name` that indexes a pool's units."""
        own = self.pool_of.get(layer.name)
        src = self.pool_of.get(layer.in_source)
        for axis, role in enumerate(layer.spec.roles[name]):
            pid = own if role in ("out", "self") else src if role == "in" else None
            if pid is not None:
                yield axis, pid

    # -- parameters ----------------------------------------------------

    def named_parameters(self):
        for name, layer in self.layers.items():
            for pname in layer.spec.params:
                yield f"{name}.{pname}", layer.params[pname]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def param_state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_param_state(self, state: dict[str, np.ndarray]):
        for name, p in self.named_parameters():
            src = state[name]
            if src.shape != p.data.shape:
                raise StructureError(
                    f"state for '{name}' has shape {src.shape}, expected {p.data.shape}"
                )
            p.data = src.astype(np.float32).copy()

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def clone(self) -> "Network":
        layers = []
        for layer in self.layers.values():
            params = {k: Tensor(v.data.copy(), requires_grad=True)
                      for k, v in layer.params.items()}
            buffers = {k: v.copy() for k, v in layer.buffers.items()}
            layers.append(Layer(layer.name, layer.kind, params, buffers,
                                layer.in_source, layer.dilation, layer.eps))
        net = Network(self.arch, layers, self.trim_groups, self.protected, self.meta,
                      kept_units={pid: p.kept.copy() for pid, p in self.pools.items()},
                      orig_units={pid: p.orig for pid, p in self.pools.items()})
        net.training = self.training
        return net

    # -- unit and weight bookkeeping ------------------------------------

    def units_remaining(self) -> int:
        return sum(len(p.kept) for p in self.pools.values())

    def weight_counts(self) -> tuple[int, int]:
        """(remaining, original) trainable parameter entries.

        Remaining is the current parameter sizes; original replaces each
        pooled axis with its pool's untrimmed unit count.
        """
        remaining = sum(p.data.size for p in self.parameters())
        original = 0
        for layer in self.layers.values():
            for pname in layer.spec.params:
                shape = list(layer.params[pname].shape)
                for axis, pid in self._pooled_axes(layer, pname):
                    shape[axis] = self.pools[pid].orig
                original += math.prod(shape)
        return remaining, original


def apply_trim(net: Network, plan: dict[str, np.ndarray]) -> Network:
    """Physically delete units. Returns a new network; `net` is untouched.

    plan maps pool id -> unit indices to remove, in the network's current
    (post any earlier trims) index space.
    """
    keep_cur: dict[str, np.ndarray] = {}
    for pid, idx in plan.items():
        if pid not in net.pools:
            raise StructureError(f"unknown pool '{pid}' in removal plan")
        idx = np.asarray(idx, dtype=np.int64)
        n = len(net.pools[pid].kept)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise StructureError(f"pool '{pid}' removal indices out of range for {n} units")
        if len(np.unique(idx)) != idx.size:
            raise StructureError(f"pool '{pid}' removal indices repeat")
        if n - idx.size < 1:
            raise StructureError(
                f"pool '{pid}' would lose all its units; at least one must stay"
            )
        mask = np.ones(n, dtype=bool)
        mask[idx] = False
        keep_cur[pid] = np.flatnonzero(mask)
    out = net.clone()

    def take(layer, name, arr):
        for axis, pid in out._pooled_axes(layer, name):
            if pid in keep_cur:
                arr = np.take(arr, keep_cur[pid], axis=axis)
        return arr

    for layer in out.layers.values():
        for pname in layer.spec.params:
            layer.params[pname] = Tensor(take(layer, pname, layer.params[pname].data),
                                         requires_grad=True)
        for bname in layer.spec.buffers:
            layer.buffers[bname] = take(layer, bname, layer.buffers[bname])
    for pid, keep in keep_cur.items():
        pool = out.pools[pid]
        out.pools[pid] = Pool(pool.pid, pool.members, pool.kept[keep], pool.orig)
    for pool in out.pools.values():
        for name in pool.members:
            assert out.layers[name].n_units == len(pool.kept)
    return out


def restrict_param(net: Network, layer_name: str, pname: str,
                   full: np.ndarray) -> np.ndarray:
    """Slice an original-shape array down to the network's surviving units.

    Used to rewind a trimmed network to stored initial weights: the stored
    arrays keep their original shapes, this picks out the rows/columns that
    are still present.
    """
    arr = full
    for axis, pid in net._pooled_axes(net.layers[layer_name], pname):
        arr = np.take(arr, net.pools[pid].kept, axis=axis)
    return arr


# -- layer forward helpers ---------------------------------------------


def linear_forward(layer: Layer, x: Tensor) -> Tensor:
    return T.add(T.matmul(x, T.transpose(layer.params["w"])), layer.params["b"])


def conv_forward(layer: Layer, x: Tensor) -> Tensor:
    return T.conv1d_dilated_causal(x, layer.params["w"], layer.dilation,
                                   bias=layer.params["b"])


# the weight of each training batch's moments in the running stats
BN_MOMENTUM = 0.1


def batchnorm_forward(layer: Layer, x: Tensor, training: bool) -> Tensor:
    if x.ndim != 3:
        raise T.ShapeError(f"batchnorm expects (batch, channels, time), got {x.shape}")
    gamma = T.reshape(layer.params["gamma"], (1, -1, 1))
    beta = T.reshape(layer.params["beta"], (1, -1, 1))
    if training:
        m = T.tmean(x, axis=(0, 2), keepdims=True)
        d = T.sub(x, m)
        v = T.tmean(T.mul(d, d), axis=(0, 2), keepdims=True)
        # running stats track the batch (biased) moments
        rm, rv = layer.buffers["running_mean"], layer.buffers["running_var"]
        rm *= 1.0 - BN_MOMENTUM
        rm += BN_MOMENTUM * m.data.reshape(-1)
        rv *= 1.0 - BN_MOMENTUM
        rv += BN_MOMENTUM * v.data.reshape(-1)
        xn = T.div(d, T.tsqrt(T.add(v, Tensor(layer.eps))))
    else:
        rm = Tensor(layer.buffers["running_mean"].reshape(1, -1, 1))
        rv = Tensor(layer.buffers["running_var"].reshape(1, -1, 1))
        xn = T.div(T.sub(x, rm), T.tsqrt(T.add(rv, Tensor(layer.eps))))
    return T.add(T.mul(xn, gamma), beta)


def gru_scan(layer: Layer, x: Tensor) -> Tensor:
    """Run a GRU over (batch, time, features); returns (batch, time, units).

    z = sigmoid(x Wz' + h Uz' + bz), r = sigmoid(x Wr' + h Ur' + br),
    c = tanh(x Wh' + (r * h) Uh' + bh), h <- (1 - z) * h + z * c, from
    h = 0. The whole sequence is one graph node whose backward pass is
    numpy backpropagation through time. Every product still goes through
    tensor.matmul (the input projection once over the sequence, then two
    recurrent products per step, on grad-free tensors), so counted MACs
    stay equal to embed's closed form.
    """
    if x.ndim != 3:
        raise T.ShapeError(f"gru expects (batch, time, features), got {x.shape}")
    p = {k: layer.params[k] for k in layer.spec.params}
    b, t, n_in = x.shape
    n = layer.n_units
    w = np.concatenate([p["wz"].data, p["wr"].data, p["wh"].data])
    u_zr = np.concatenate([p["uz"].data, p["ur"].data])
    u_h = p["uh"].data
    b_zr = np.concatenate([p["bz"].data, p["br"].data])
    xw = T.matmul(Tensor(x.data), Tensor(w.T)).data  # (batch, time, 3 units)
    h = np.zeros((b, n), dtype=np.float32)
    prev = np.empty((b, t, n), dtype=np.float32)   # state entering each step
    zr = np.empty((b, t, 2 * n), dtype=np.float32)
    rh = np.empty((b, t, n), dtype=np.float32)
    cand = np.empty((b, t, n), dtype=np.float32)
    hs = np.empty((b, t, n), dtype=np.float32)
    for i in range(t):
        prev[:, i] = h
        hu = T.matmul(Tensor(h), Tensor(u_zr.T)).data
        zr[:, i] = T.sigmoid_array(xw[:, i, : 2 * n] + hu + b_zr)
        z, r = zr[:, i, :n], zr[:, i, n:]
        rh[:, i] = r * h
        ru = T.matmul(Tensor(rh[:, i]), Tensor(u_h.T)).data
        cand[:, i] = np.tanh(xw[:, i, 2 * n :] + ru + p["bh"].data)
        h = (np.float32(1.0) - z) * h + z * cand[:, i]
        hs[:, i] = h
    def backward(g):
        # gradients of the three gate pre-activations, per step
        da = np.empty((b, t, 3 * n), dtype=np.float32)
        dh = np.zeros((b, n), dtype=np.float32)
        for i in reversed(range(t)):
            dh = dh + g[:, i]
            z, r, c = zr[:, i, :n], zr[:, i, n:], cand[:, i]
            da[:, i, :n] = dh * (c - prev[:, i]) * z * (1.0 - z)
            da[:, i, 2 * n :] = dh * z * (1.0 - c * c)
            drh = da[:, i, 2 * n :] @ u_h
            da[:, i, n : 2 * n] = drh * prev[:, i] * r * (1.0 - r)
            dh = dh * (1.0 - z) + drh * r + da[:, i, : 2 * n] @ u_zr
        flat = da.reshape(b * t, 3 * n)
        dw = flat.T @ x.data.reshape(b * t, n_in)
        du_zr = flat[:, : 2 * n].T @ prev.reshape(b * t, n)
        db = flat.sum(axis=0)
        grads = {"uh": flat[:, 2 * n :].T @ rh.reshape(b * t, n),
                 "uz": du_zr[:n], "ur": du_zr[n:]}
        for k, gate in enumerate("zrh"):
            grads["w" + gate] = dw[k * n : (k + 1) * n]
            grads["b" + gate] = db[k * n : (k + 1) * n]
        gx = (flat @ w).reshape(b, t, n_in) if x.requires_grad else None
        return (gx, *(grads[k] for k in p))
    return T._node(hs, (x,) + tuple(p.values()), "gru", backward)


# -- checkpoints ---------------------------------------------------------

_MAGIC = b"ULGA"
_VERSION = 2


def _structure_doc(net: Network) -> dict:
    return {
        "arch": net.arch,
        "meta": net.meta,
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "shapes": {p: list(layer.params[p].shape) for p in layer.spec.params},
                "buffer_shapes": {b: list(layer.buffers[b].shape)
                                  for b in layer.spec.buffers},
                "in_source": layer.in_source,
                "dilation": layer.dilation,
                "eps": layer.eps,
            }
            for layer in net.layers.values()
        ],
        "trim_groups": net.trim_groups,
        "protected": sorted(net.protected),
        "pools": {pid: {"kept": p.kept.tolist(), "orig": p.orig}
                  for pid, p in sorted(net.pools.items())},
    }


def checkpoint_bytes(net: Network) -> bytes:
    doc = json.dumps(_structure_doc(net), sort_keys=True,
                     separators=(",", ":")).encode()
    blob = bytearray()
    blob += _MAGIC
    blob += _VERSION.to_bytes(2, "little")
    blob += len(doc).to_bytes(4, "little")
    blob += doc
    for layer in net.layers.values():
        for pname in layer.spec.params:
            blob += layer.params[pname].data.astype("<f4").tobytes()
        for bname in layer.spec.buffers:
            blob += layer.buffers[bname].astype("<f4").tobytes()
    blob += (zlib.crc32(bytes(blob)) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(blob)


def save_checkpoint(net: Network, path):
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(net))


# the fields of a structure document and of its layers, with their types
_DOC_FIELDS = {"arch": str, "meta": dict, "layers": list, "trim_groups": list,
               "protected": list, "pools": dict}
_LAYER_FIELDS = {"name": str, "kind": str, "shapes": dict, "buffer_shapes": dict,
                 "in_source": (str, type(None)), "dilation": int, "eps": (int, float)}


def _check_structure_doc(doc):
    """Raise StructureError unless doc has the layout _structure_doc
    writes: a document can pass the CRC and still be malformed."""
    def fields(d, schema):
        return (isinstance(d, dict) and d.keys() == schema.keys()
                and all(isinstance(d[k], t) for k, t in schema.items()))

    def names(v):
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    def counts(v):
        return isinstance(v, list) and all(isinstance(x, int) and x >= 0 for x in v)

    if not (fields(doc, _DOC_FIELDS) and names(doc["protected"])
            and all(g and names(g) for g in doc["trim_groups"])
            and all(fields(p, {"kept": list, "orig": int}) and counts(p["kept"])
                    and p["kept"] == sorted(set(p["kept"]))
                    and all(u < p["orig"] for u in p["kept"])
                    for p in doc["pools"].values())
            and all(fields(spec, _LAYER_FIELDS) for spec in doc["layers"])):
        raise StructureError("checkpoint structure document is malformed")
    for spec in doc["layers"]:
        kind = _layer_kind(spec["kind"])
        shapes = {**spec["shapes"], **spec["buffer_shapes"]}
        if (spec["shapes"].keys() != kind.params.keys()
                or spec["buffer_shapes"].keys() != kind.buffers.keys()
                or not all(counts(v) and len(v) == len(kind.roles[k])
                           for k, v in shapes.items())
                or spec["dilation"] < 1):
            raise StructureError(f"layer '{spec['name']}' has bad shapes or dilation")


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 14 or raw[:4] != _MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    stored_crc = int.from_bytes(raw[-4:], "little")
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ValueError("checkpoint corrupted: crc mismatch")
    version = int.from_bytes(raw[4:6], "little")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    doc_len = int.from_bytes(raw[6:10], "little")
    doc = json.loads(raw[10 : 10 + doc_len].decode())
    _check_structure_doc(doc)
    offset = 10 + doc_len
    body = raw[:-4]
    n_floats = sum(math.prod(shape) for spec in doc["layers"]
                   for key in ("shapes", "buffer_shapes") for shape in spec[key].values())
    if offset + 4 * n_floats != len(body):
        raise ValueError("checkpoint corrupted: trailing or missing data")

    def take(shape) -> np.ndarray:
        nonlocal offset
        n = math.prod(shape)
        arr = np.frombuffer(body, dtype="<f4", count=n, offset=offset)
        offset += n * 4
        return arr.reshape(shape).copy()

    layers = []
    for spec in doc["layers"]:
        kind = _LAYER_KINDS[spec["kind"]]
        params = {p: Tensor(take(spec["shapes"][p]), requires_grad=True)
                  for p in kind.params}
        buffers = {b: take(spec["buffer_shapes"][b]) for b in kind.buffers}
        layers.append(Layer(spec["name"], spec["kind"], params, buffers,
                            spec["in_source"], spec["dilation"], spec["eps"]))
    return Network(
        doc["arch"], layers, doc["trim_groups"], doc["protected"], doc["meta"],
        kept_units={pid: np.asarray(p["kept"], dtype=np.int64)
                    for pid, p in doc["pools"].items()},
        orig_units={pid: p["orig"] for pid, p in doc["pools"].items()},
    )
