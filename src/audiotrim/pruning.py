"""Unit and weight selection, pruning application, and the iterative
prune-rewind-retrain driver.

Two pruning modes share the driver:

* ``trim``: whole units are ranked by a criterion and physically deleted;
  shapes, costs, and retraining time shrink. Fractions count units.
* ``mask``: individual weights are ranked by absolute magnitude and zeroed
  in place; shapes and costs stay fixed. Fractions count weights.

Both modes remove the bottom fraction through one selection routine:
groups are pools (trim) or layers (mask), candidates are units or alive
weights, and each group keeps a floor (``min_units``/``min_weights``).
Selection is ``local`` (the bottom fraction of each group independently)
or ``global`` (the bottom fraction of the pooled population, no group
giving up more than its floor allows). One tie rule serves both: (score,
index within group, group order). Rewinding restores surviving
parameters to their values at a recorded training step; the dense
snapshot is stored once and restricted on demand in trim mode.

The IMP loop runs in two phases: ``train_dense`` trains the dense net once,
and ``prune_from`` runs one arm's rounds on a clone of it, so arms that
differ only in how they prune share one dense training. The loop writes
no file; ``on_record`` hands each record and its net to the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import criteria as cr
from . import embed, mi, models, nn
from . import tensor as T


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class Splits:
    """Train/valid/test batch lists for one experiment."""
    train: tuple
    valid: tuple
    test: tuple

    def __post_init__(self):
        for name in ("train", "valid", "test"):
            part = getattr(self, name)
            object.__setattr__(self, name, tuple(part))
            if len(getattr(self, name)) == 0:
                raise ValueError(f"empty {name} split")


@dataclass(frozen=True)
class ImpConfig:
    prune_fraction_per_iter: float = 0.30
    iterations: int = 15
    rewind_step: int = 0
    mode: str = "trim"
    selection: str = "global"
    criterion: str = "magnitude"
    scaling: str = "layer_max"
    min_units: int = 1
    min_weights: int = 1
    stop_error_multiplier: float | None = None
    mi: mi.MiConfig | None = None

    def __post_init__(self):
        if not 0.0 < self.prune_fraction_per_iter < 1.0:
            raise ValueError("prune_fraction_per_iter must lie in (0, 1)")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.rewind_step < 0:
            raise ValueError("rewind_step must be non-negative")
        if self.mode not in ("mask", "trim"):
            raise ValueError(f"mode must be mask or trim, got '{self.mode}'")
        if self.selection not in ("local", "global"):
            raise ValueError(f"selection must be local or global, got '{self.selection}'")
        if self.criterion not in cr.CRITERIA:
            raise ValueError(f"unknown criterion '{self.criterion}'")
        if self.scaling not in cr.SCALINGS:
            raise ValueError(f"scaling must be one of {cr.SCALINGS}, "
                             f"got {self.scaling!r}")
        if self.mode == "mask" and self.criterion != "magnitude":
            raise ValueError("mask mode ranks individual weights by magnitude; "
                             f"criterion '{self.criterion}' has no per-weight form")
        if self.min_units < 1 or self.min_weights < 1:
            raise ValueError("min_units and min_weights must be at least 1")
        if self.stop_error_multiplier is not None and self.stop_error_multiplier <= 0:
            raise ValueError("stop_error_multiplier must be positive")


# -- selection -----------------------------------------------------------------


def _select_bottom(scores: dict[str, np.ndarray], fraction: float, selection: str,
                   floor: int, group: str, floor_name: str) -> dict[str, np.ndarray]:
    """Sorted indices of the bottom-``fraction`` candidates, keyed by group.

    Local selection takes ``min(round_half_up(fraction * n), n - floor)``
    from each group of n; global selection takes
    ``round_half_up(fraction * N)`` from the pooled N, no group giving up
    more than ``n - floor``. Ties break by (score, index within group,
    group order), so uniform scores shrink every group evenly.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    if selection not in ("local", "global"):
        raise ValueError(f"selection must be local or global, got '{selection}'")
    if not scores:
        raise ValueError(f"no {group}s to select from")
    groups = list(scores)
    values = [np.asarray(scores[g], dtype=np.float64) for g in groups]
    sizes = np.array([v.size for v in values])
    caps = np.maximum(sizes - floor, 0)
    if selection == "local":
        quota = np.array([_round_half_up(fraction * n) for n in sizes])
        requested, caps = int(quota.sum()), np.minimum(quota, caps)
        want = int(caps.sum())
    else:
        requested = want = _round_half_up(fraction * int(sizes.sum()))
    if requested == 0:
        return {}
    if caps.sum() == 0:
        raise ValueError(f"selection would drop every {group} below {floor_name}; "
                         "nothing can be removed")
    owner = np.repeat(np.arange(len(groups)), sizes)
    index = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = np.lexsort((owner, index, np.concatenate(values)))
    # an entry is eligible while its rank inside its group is under the
    # group's cap; the first ``want`` eligible entries in pooled order go
    rank = np.empty_like(order)
    rank[np.argsort(owner[order], kind="stable")] = index
    eligible = rank < caps[owner[order]]
    chosen = order[eligible & (np.cumsum(eligible) <= want)]
    return {groups[g]: np.sort(index[chosen[owner[chosen] == g]])
            for g in np.unique(owner[chosen])}


def select_units(scores: dict[str, np.ndarray], fraction: float,
                 selection: str, min_units: int = 1) -> dict[str, np.ndarray]:
    """Bottom-``fraction`` units to remove, keyed by pool id.

    scores maps pool id -> per-unit scores in the pools' current index space.
    """
    return _select_bottom(scores, fraction, selection, min_units, "pool", "min_units")


# -- weight masks --------------------------------------------------------------


@dataclass
class WeightMask:
    """Alive/dead flags for each maskable parameter array (True = alive)."""
    entries: dict[str, np.ndarray]

    def alive(self) -> int:
        return int(sum(m.sum() for m in self.entries.values()))

    def total(self) -> int:
        return int(sum(m.size for m in self.entries.values()))

    def copy(self) -> "WeightMask":
        return WeightMask({k: m.copy() for k, m in self.entries.items()})

    def enforce(self, net: nn.Network):
        """Zero dead entries in place; call after every optimizer step."""
        for key, m in self.entries.items():
            lname, pname = key.split(".", 1)
            data = net.layers[lname].params[pname].data
            data[~m.reshape(data.shape)] = 0.0


def _layer_keys(mask: WeightMask) -> dict[str, list[str]]:
    """Mask keys grouped by layer name, in mask-key order."""
    out: dict[str, list[str]] = {}
    for key in mask.entries:
        out.setdefault(key.split(".", 1)[0], []).append(key)
    return out


def full_mask(net: nn.Network) -> WeightMask:
    """All connection weights alive; biases and normalization scales are
    never masked."""
    entries = {}
    for lname, layer in net.layers.items():
        for pname in layer.spec.weights:
            entries[f"{lname}.{pname}"] = np.ones(layer.params[pname].shape, dtype=bool)
    if not entries:
        raise ValueError("network has no maskable weight arrays")
    return WeightMask(entries)


def select_weights(net: nn.Network, fraction: float, selection: str,
                   mask: WeightMask | None = None,
                   min_weights: int = 1) -> WeightMask:
    """Compose ``mask`` with the bottom-``fraction`` alive weights by |value|.

    Each layer's population is its alive entries, concatenated in mask-key
    order; already-dead weights never resurrect. Every layer keeps at
    least ``min_weights`` alive entries.
    """
    mask = mask.copy() if mask is not None else full_mask(net)
    layers = _layer_keys(mask)
    flags, alive, scores = {}, {}, {}
    for lname, keys in layers.items():
        flags[lname] = np.concatenate([mask.entries[k].ravel() for k in keys])
        alive[lname] = np.flatnonzero(flags[lname])
        scores[lname] = np.concatenate([
            np.abs(net.layers[lname].params[k.split(".", 1)[1]].data.ravel())
            for k in keys])[alive[lname]]
    plan = _select_bottom(scores, fraction, selection, min_weights,
                          "layer", "min_weights")
    for lname, idx in plan.items():
        keys = layers[lname]
        flags[lname][alive[lname][idx]] = False
        ends = np.cumsum([mask.entries[k].size for k in keys])
        for key, part in zip(keys, np.split(flags[lname], ends[:-1])):
            mask.entries[key][...] = part.reshape(mask.entries[key].shape)
    return mask


# -- prunability ----------------------------------------------------------------


def removable_units(net: nn.Network, mask: WeightMask) -> dict[str, np.ndarray]:
    """Per pool: which units have every incoming weight masked dead."""
    out = {}
    for pid, pool in net.pools.items():
        n = len(pool.kept)
        dead = [~mask.entries[f"{m}.{p}"].reshape(n, -1).any(axis=1)
                for m in pool.members for p in net.layers[m].spec.weights]
        out[pid] = np.logical_and.reduce(dead) if dead else np.zeros(n, dtype=bool)
    return out


def prunability_from_mask(net: nn.Network, mask: WeightMask) -> float:
    """Fraction of units physically deletable under the weight mask."""
    total = net.units_remaining()
    if total == 0:
        return 0.0
    return sum(int(r.sum()) for r in removable_units(net, mask).values()) / total


# -- rewinding -------------------------------------------------------------------


def rewind(net: nn.Network, dense_state: dict[str, np.ndarray],
           mask: WeightMask | None = None):
    """Restore surviving parameters to their recorded-step values.

    dense_state holds original-shape arrays. In trim mode the arrays are
    restricted to the surviving units; in mask mode dead entries are
    re-zeroed after the load. Optimizer state is the caller's to reset
    (a fresh training run starts from scratch).
    """
    restricted = {}
    for name in dense_state:
        lname, pname = name.split(".", 1)
        if lname not in net.layers:
            raise nn.StructureError(f"checkpoint names unknown layer '{lname}'")
        try:
            restricted[name] = nn.restrict_param(net, lname, pname, dense_state[name])
        except IndexError:
            raise nn.StructureError(
                f"checkpoint array '{name}' is too small for the surviving units"
            ) from None
    net.load_param_state(restricted)
    if mask is not None:
        mask.enforce(net)


# -- the IMP driver ---------------------------------------------------------------


@dataclass(frozen=True)
class ImpRecord:
    iteration: int
    weights_remaining_frac: float
    units_remaining_frac: float
    valid_loss: float
    test_error_multiplier: float
    flops_per_second_audio: float
    disk_bytes: int
    rw_accesses: float
    wall_seconds: float
    units_per_pool: dict = field(compare=False)
    # last and defaulted: the benchmark's tests build records by position
    working_set_bytes: int = 0


@dataclass
class ImpTrace:
    records: list[ImpRecord]
    aborted: str | None = None
    stopped: str | None = None

    def weights_curve(self) -> np.ndarray:
        return np.array([r.weights_remaining_frac for r in self.records])

    def units_curve(self) -> np.ndarray:
        return np.array([r.units_remaining_frac for r in self.records])


def mean_loss(net, items) -> float:
    """Mean loss over batches, in eval mode and without a graph."""
    net.eval()
    with T.no_grad():
        return float(np.mean([models.compute_loss(net, b).data for b in items]))


def _pool_units(net: nn.Network, mask: WeightMask | None) -> dict[str, int]:
    """Units per pool, less those the mask has made removable."""
    dead = removable_units(net, mask) if mask is not None else {}
    return {pid: len(pool.kept) - int(np.sum(dead.get(pid, 0)))
            for pid, pool in net.pools.items()}


def _at_floor(net: nn.Network, mask: WeightMask | None, cfg: ImpConfig) -> str | None:
    """Stop reason when no unit (trim) or weight (mask) may still be removed."""
    if mask is None:
        if all(len(p.kept) <= cfg.min_units for p in net.pools.values()):
            return "every pool at the min_units floor"
    elif all(sum(int(mask.entries[k].sum()) for k in keys) <= cfg.min_weights
             for keys in _layer_keys(mask).values()):
        return "every layer at the min_weights floor"
    return None


@dataclass(frozen=True)
class DenseStart:
    """What every IMP arm of one dense training starts from: the trained
    net, its snapshot after ``rewind_step`` optimizer steps, the
    iteration-0 record (whose wall time is the training's) and the
    baseline test loss the error multipliers divide by."""
    net: nn.Network
    rewind_step: int
    state_k: dict
    record: ImpRecord
    test_loss: float


def _measure(net: nn.Network, data: Splits, mask: WeightMask | None,
             total_units: int):
    """(valid loss, test loss, ImpRecord fields after the multiplier)."""
    valid_loss = mean_loss(net, data.valid)
    test_loss = mean_loss(net, data.test)
    w_rem, w_orig = net.weight_counts()
    dead = mask.total() - mask.alive() if mask is not None else 0
    units = _pool_units(net, mask)
    return valid_loss, test_loss, dict(
        weights_remaining_frac=(w_rem - dead) / w_orig,
        units_remaining_frac=sum(units.values()) / total_units,
        valid_loss=valid_loss, flops_per_second_audio=embed.count_flops(net),
        disk_bytes=embed.disk_size(net), rw_accesses=embed.rw_memory(net),
        working_set_bytes=embed.working_set_bytes(net), units_per_pool=units)


def train_dense(net: nn.Network, data: Splits, cfgs, trainer) -> DenseStart:
    """Train a clone of ``net`` once, as the dense phase of every IMP arm
    in ``cfgs``; the arms must share one ``rewind_step``. A validation
    split too short for an arm that scores with information fails here,
    before training. ``trainer`` follows the contract ``run_imp`` states.
    """
    steps = {cfg.rewind_step for cfg in cfgs}
    if len(steps) != 1:
        raise ValueError(f"arms of one dense start need one rewind_step, "
                         f"got {sorted(steps)}")
    (step,) = steps
    cur = net.clone()
    if any(cfg.criterion == "information" and cfg.iterations for cfg in cfgs):
        cr.check_information_samples(cur, list(data.valid))
    t0 = time.perf_counter()
    state_k = trainer(cur, data, record_step=step, after_step=None)
    wall = time.perf_counter() - t0
    _, test_loss, fields = _measure(cur, data, None, cur.units_remaining())
    record = ImpRecord(iteration=0, test_error_multiplier=1.0,
                       wall_seconds=wall, **fields)
    return DenseStart(cur, step, state_k, record, test_loss)


def prune_from(dense: DenseStart, data: Splits, cfg: ImpConfig, trainer, *,
               on_record=lambda record, net: None) -> ImpTrace:
    """The prune phase of one IMP arm: score, prune, rewind and retrain a
    clone of the dense net for cfg.iterations rounds, as ``run_imp``
    describes; ``dense`` itself is left as it is."""
    if cfg.rewind_step != dense.rewind_step:
        raise ValueError(f"arm rewinds to step {cfg.rewind_step}, the dense "
                         f"start recorded step {dense.rewind_step}")
    cur = dense.net.clone()
    mask = full_mask(cur) if cfg.mode == "mask" else None
    total_units = cur.units_remaining()
    records = [dense.record]
    trace = ImpTrace(records)
    on_record(dense.record, cur)
    if not np.isfinite(dense.record.valid_loss) or not np.isfinite(dense.test_loss):
        trace.aborted = "non-finite loss after baseline training"
    else:
        for it in range(1, cfg.iterations + 1):
            floor = _at_floor(cur, mask, cfg)
            if floor is not None:
                # nothing left above the per-pool / per-layer keep floor;
                # a clean stop keeps deep prune-to-the-bone runs usable
                trace.stopped = f"{floor} before iteration {it}"
                break
            t0 = time.perf_counter()
            try:
                if cfg.mode == "trim":
                    scores = cr.pool_scores(
                        cur, cfg.criterion, cfg.scaling,
                        batches=list(data.valid), mi_cfg=cfg.mi)
                    plan = select_units(scores, cfg.prune_fraction_per_iter,
                                        cfg.selection, min_units=cfg.min_units)
                    cur = nn.apply_trim(cur, plan)
                    rewind(cur, dense.state_k)
                    after = None
                else:
                    mask = select_weights(cur, cfg.prune_fraction_per_iter,
                                          cfg.selection, mask=mask,
                                          min_weights=cfg.min_weights)
                    rewind(cur, dense.state_k, mask)
                    after = mask.enforce
                trainer(cur, data, record_step=None, after_step=after)
                wall = time.perf_counter() - t0

                valid_loss, test_loss, fields = _measure(cur, data, mask, total_units)
            except T.NumericError as exc:
                # overflow guards in the tensor layer surface divergence as
                # exceptions; keep the trace gathered so far
                trace.aborted = f"numeric failure at iteration {it}: {exc}"
                break
            multiplier = test_loss / dense.test_loss
            records.append(ImpRecord(iteration=it, test_error_multiplier=multiplier,
                                     wall_seconds=wall, **fields))
            on_record(records[-1], cur)
            if not np.isfinite(valid_loss) or not np.isfinite(test_loss):
                trace.aborted = f"non-finite loss at iteration {it}"
                break
            if (cfg.stop_error_multiplier is not None
                    and multiplier > cfg.stop_error_multiplier):
                trace.stopped = (f"error multiplier {multiplier:.4g} exceeded "
                                 f"{cfg.stop_error_multiplier:.4g} at iteration {it}")
                break
    return trace


def run_imp(net: nn.Network, data: Splits, cfg: ImpConfig, trainer, *,
            on_record=lambda record, net: None) -> ImpTrace:
    """Train, score, prune, rewind, retrain for cfg.iterations rounds:
    the dense phase (``train_dense``), then the prune phase
    (``prune_from``).

    ``trainer(net, splits, record_step, after_step)`` trains ``net`` in
    place, calls ``after_step(net)`` (when given) after every optimizer
    step, and returns the parameter state after ``record_step`` steps
    (0 = before the first) when ``record_step`` is not None, raising
    ValueError if training takes fewer steps; ``harness.adam_trainer``
    is the one implementation. Losses come from the net's arch
    record (``models.compute_loss``).
    The loop writes no file: ``on_record(record, net)`` sees each record
    and the net it measured, iteration 0 first, as soon as it is made. A
    non-finite validation loss aborts with the trace so far; exceeding
    ``stop_error_multiplier`` or hitting the min_units / min_weights floor
    everywhere stops cleanly. A validation split too short for
    information scoring fails before training.
    """
    return prune_from(train_dense(net, data, [cfg], trainer), data, cfg,
                      trainer, on_record=on_record)
