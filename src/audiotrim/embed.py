"""Static cost analysis for embedded deployment.

Answers three questions about a built network: how many floating-point
operations it needs per second of generated audio, how many bytes it
occupies on disk, and how many memory accesses one generated sample
costs. Verdicts compare those numbers against platform budgets loaded
from an editable JSON profile file.

Counting conventions, one generic form for every layer kind (fixed so
that the closed forms equal an instrumented per-scalar operation count
exactly). Per invocation (one frame or one step):

* FLOPs = 2 * (connection-weight scalars) + e * n_units. The matrix
  term bills one multiply-accumulate as 2 FLOPs; a bias add and the add
  folding two partial sums both count inside it. e is the kind's
  elementwise operations per unit (nn.LayerKind.elementwise_ops): 0 for
  linear and conv1d, 4 for batchnorm (subtract mean, scale by inverse
  deviation, scale by gamma, shift by beta) and 9 for gru:
      sigmoid (update gate)            1
      sigmoid (reset gate)             1
      tanh (candidate state)           1
      reset * recurrent candidate term 1
      one minus update                 1
      update * previous state          1
      retained * candidate             1
      blend add                        1
      state write-back into the
      recurrent buffer                 1
  So a linear 3->2 costs 12 FLOPs, a gru 6 * n_out * (n_in + n_out) +
  9 * n_out.
* accesses = stored scalars + reads + writes: every parameter and
  buffer scalar is read once, every input scalar is read once (k * n_in
  for conv1d, n_in + n_out for gru, whose previous state is an input,
  n_in for batchnorm), and every output scalar is written once. A
  layer's output being read again downstream is billed as the
  consumer's input reads. So a linear 3->2 costs 6 + 2 + 3 + 2 = 13.
* live scalars (working set) = reads + writes.

Activation functions BETWEEN layers (tanh/relu/sigmoid in the model
wrappers) are not billed: they are not prunable layers and their cost
is invariant under trimming of a fixed layer's output width only.

Invocation rates: the autoregressive model runs every layer once per
output sample; a frame-based model runs once per frame, so per-sample
costs amortize by the frame hop its `models.ARCHS` record reports (the
sample-level autoencoder, like any arch without a frame hop, runs once
per sample; an arch that has no record raises StructureError).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import models, nn

FLOPS_PER_MAC = 2
_BUDGETS = ("cpu_hz", "flops_per_sec", "drive_bytes", "ram_bytes")


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    cpu_hz: float
    flops_per_sec: float
    drive_bytes: float
    ram_bytes: float

    def __post_init__(self):
        for field in _BUDGETS:
            if not getattr(self, field) > 0:
                raise ValueError(f"platform '{self.name}': {field} must be positive")


@dataclass(frozen=True)
class EmbedReport:
    platform: str
    flops_per_audio_second: float
    disk_bytes: int
    rw_accesses_per_sample: float
    working_set_bytes: int
    realtime_ok: bool
    embeddable_ok: bool
    error_multiplier: float = float("nan")


def layer_flops(layer: nn.Layer) -> int:
    """FLOPs for one invocation (one frame or one step) of the layer."""
    spec = layer.spec
    macs = sum(layer.params[p].data.size for p in spec.weights)
    return FLOPS_PER_MAC * macs + spec.elementwise_ops * layer.n_units


def _stored_scalars(layer: nn.Layer) -> int:
    return (sum(p.data.size for p in layer.params.values())
            + sum(b.size for b in layer.buffers.values()))


def _live_scalars(layer: nn.Layer) -> int:
    """Scalars live at once during one invocation: reads and output."""
    return layer.reads + layer.n_units


def layer_rw(layer: nn.Layer) -> int:
    """Memory accesses for one invocation of the layer."""
    return _stored_scalars(layer) + _live_scalars(layer)


def _samples_per_invocation(net: nn.Network) -> int:
    hop = models.arch_spec(net.arch).frame_hop
    return hop(net.meta.get("config", {})) if hop else 1


def invocations_per_second(net: nn.Network) -> float:
    """How many times each layer runs per generated second of audio."""
    sr = net.meta.get("config", {}).get("sample_rate")
    if sr is None:
        raise ValueError("sample_rate absent from network metadata")
    return sr / _samples_per_invocation(net)


def count_flops(net: nn.Network) -> float:
    """Closed-form FLOPs per generated second of audio."""
    rate = invocations_per_second(net)
    return rate * sum(layer_flops(layer) for layer in net.layers.values())


def rw_memory(net: nn.Network) -> float:
    """Memory accesses per generated sample, amortized for frame models."""
    per_invocation = sum(layer_rw(layer) for layer in net.layers.values())
    return per_invocation / _samples_per_invocation(net)


def disk_size(net: nn.Network) -> int:
    """Bytes of the serialized checkpoint."""
    return len(nn.checkpoint_bytes(net))


def working_set_bytes(net: nn.Network) -> int:
    """Resident bytes under sequential layer execution: every stored
    parameter scalar plus the largest per-layer live activation set."""
    stored = sum(_stored_scalars(layer) for layer in net.layers.values())
    peak = max((_live_scalars(layer) for layer in net.layers.values()), default=0)
    return 4 * (stored + peak)


def feasibility(flops_per_audio_second: float, disk_bytes: int,
                rw_accesses_per_sample: float, working_set: int,
                profile: PlatformProfile,
                error_multiplier: float = float("nan")) -> EmbedReport:
    """Pure threshold verdicts for one platform."""
    realtime = flops_per_audio_second <= profile.flops_per_sec
    embeddable = (disk_bytes <= profile.drive_bytes
                  and working_set <= profile.ram_bytes)
    return EmbedReport(profile.name, flops_per_audio_second, disk_bytes,
                       rw_accesses_per_sample, working_set,
                       realtime, embeddable, error_multiplier)


def analyze(net: nn.Network, profiles: list[PlatformProfile]) -> list[EmbedReport]:
    costs = count_flops(net), disk_size(net), rw_memory(net), working_set_bytes(net)
    return [feasibility(*costs, p) for p in profiles]


DEFAULT_PLATFORMS = Path(__file__).parent / "data" / "platforms.json"


class PlatformsError(ValueError):
    """A platforms file that holds no valid list of profiles."""


def load_platforms(path=None) -> list[PlatformProfile]:
    """Read platform profiles from JSON, a list of entries or an object
    whose "platforms" holds one; ships with four default rows. Malformed
    input raises PlatformsError naming the file and the entry."""
    path = Path(path) if path is not None else DEFAULT_PLATFORMS
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:
        raise PlatformsError(f"{path}: not valid JSON ({err})") from None
    rows = doc.get("platforms") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows:
        raise PlatformsError(f"{path}: expected a non-empty list of platforms, "
                             "or an object holding one under 'platforms'")
    for i, row in enumerate(rows):
        # type() rather than isinstance: a JSON boolean is no budget
        if not (isinstance(row, dict) and row.keys() == {"name", *_BUDGETS}
                and isinstance(row["name"], str)
                and all(type(row[k]) in (int, float) and 0 < row[k] < math.inf
                        for k in _BUDGETS)):
            raise PlatformsError(f"{path}: platform entry {i} must hold a string "
                                 f"name and finite positive {', '.join(_BUDGETS)}, "
                                 f"and no unknown keys; got {row!r}")
    return [PlatformProfile(**row) for row in rows]


def pareto_front(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset under (minimize error, minimize cost).

    Returns unique representatives ordered by cost ascending.
    """
    if not points:
        raise ValueError("pareto_front needs at least one point")
    ordered = sorted(set((float(e), float(c)) for e, c in points),
                     key=lambda p: (p[1], p[0]))
    front: list[tuple[float, float]] = []
    best_err = np.inf
    for err, cost in ordered:
        if err < best_err:
            front.append((err, cost))
            best_err = err
    return front


REPORT_COLUMNS = ["platform", "flops_per_audio_second", "disk_bytes",
                  "rw_accesses_per_sample", "working_set_bytes",
                  "realtime_ok", "embeddable_ok", "error_multiplier"]


def report_row(r: EmbedReport) -> list:
    """One report as CSV cells, in REPORT_COLUMNS order."""
    return [r.platform, f"{r.flops_per_audio_second:.10g}", r.disk_bytes,
            f"{r.rw_accesses_per_sample:.10g}", r.working_set_bytes,
            int(r.realtime_ok), int(r.embeddable_ok),
            f"{r.error_multiplier:.10g}"]


def summarize(reports: list[EmbedReport]) -> str:
    """Human-readable verdict table."""
    lines = []
    for r in reports:
        lines.append(
            f"{r.platform}: {r.flops_per_audio_second / 1e6:.3f} MFLOPs/s, "
            f"{r.disk_bytes / 1e3:.1f} KB disk, "
            f"{r.working_set_bytes / 1e3:.1f} KB working set, "
            f"{r.rw_accesses_per_sample:.0f} accesses/sample -> "
            f"realtime {'ok' if r.realtime_ok else 'NO'}, "
            f"embeddable {'ok' if r.embeddable_ok else 'NO'}"
        )
    return "\n".join(lines)
