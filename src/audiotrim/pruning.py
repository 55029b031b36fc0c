"""Unit and weight selection, pruning application, and the iterative
prune-rewind-retrain driver.

Two pruning modes share the driver:

* ``trim``: whole units are ranked by a criterion and physically deleted;
  shapes, costs, and retraining time shrink. Fractions count units.
* ``mask``: individual weights are ranked by absolute magnitude and zeroed
  in place; shapes and costs stay fixed. Fractions count weights.

Selection is ``local`` (bottom fraction within each layer or pool
independently) or ``global`` (bottom fraction of the pooled population,
clamped so no pool or layer empties out). Rewinding restores surviving
parameters to their values at a recorded training step; the dense
snapshot is stored once and restricted on demand in trim mode.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import criteria as cr
from . import embed, mi, models, nn
from . import tensor as T

TRACE_COLUMNS = ("iteration", "weights_remaining_frac", "units_remaining_frac",
                 "valid_loss", "test_error_multiplier", "flops_per_second_audio",
                 "disk_bytes", "rw_accesses")

# weight-granularity masking ranks these parameters; biases and
# normalization scales stay untouched
_MASKABLE = {"linear": ("w",), "conv1d": ("w",),
             "gru": ("wz", "wr", "wh", "uz", "ur", "uh")}


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
    scaling: cr.ScalingScheme = cr.ScalingScheme("layer_max")
    min_units: int = 1
    min_weights: int = 1
    # switch from global to local selection after this iteration (hybrid)
    global_until: int | None = None
    stop_error_multiplier: float | None = None
    grad_mode: str = "per_batch"
    info_window: int = 256
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
        if self.mode == "mask" and self.criterion != "magnitude":
            raise ValueError("mask mode ranks individual weights by magnitude; "
                             f"criterion '{self.criterion}' has no per-weight form")
        if self.min_units < 1 or self.min_weights < 1:
            raise ValueError("min_units and min_weights must be at least 1")
        if self.stop_error_multiplier is not None and self.stop_error_multiplier <= 0:
            raise ValueError("stop_error_multiplier must be positive")

    def selection_at(self, iteration: int) -> str:
        if self.global_until is None:
            return self.selection
        return "global" if iteration <= self.global_until else "local"


# -- unit selection ------------------------------------------------------------


def select_units(scores: dict[str, np.ndarray], fraction: float,
                 selection: str, min_units: int = 1) -> dict[str, np.ndarray]:
    """Bottom-``fraction`` units to remove, keyed by pool id.

    scores maps pool id -> per-unit scores in the pools' current index
    space; ties break by (score, pool order, unit index).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    if selection not in ("local", "global"):
        raise ValueError(f"selection must be local or global, got '{selection}'")
    if not scores:
        raise ValueError("no pools to select from")

    sizes = {pid: len(np.asarray(s)) for pid, s in scores.items()}
    caps = {pid: max(n - min_units, 0) for pid, n in sizes.items()}

    if selection == "local":
        plan = {}
        requested = 0
        for pid, s in scores.items():
            s = np.asarray(s, dtype=np.float64)
            k = _round_half_up(fraction * sizes[pid])
            requested += k
            k = min(k, caps[pid])
            if k == 0:
                continue
            order = np.lexsort((np.arange(sizes[pid]), s))
            plan[pid] = np.sort(order[:k]).astype(np.int64)
        if requested > 0 and not plan:
            raise ValueError("selection would drop every pool below min_units; "
                             "nothing can be removed")
        return plan

    total = sum(sizes.values())
    want = _round_half_up(fraction * total)
    if want == 0:
        return {}
    if sum(caps.values()) == 0:
        raise ValueError("selection would drop every pool below min_units; "
                         "nothing can be removed")
    pool_order = {pid: i for i, pid in enumerate(scores)}
    all_scores = np.concatenate([np.asarray(scores[pid], dtype=np.float64)
                                 for pid in scores])
    all_pool = np.concatenate([np.full(sizes[pid], pool_order[pid]) for pid in scores])
    all_unit = np.concatenate([np.arange(sizes[pid]) for pid in scores])
    # ties interleave across pools by unit index so uniform scores shrink
    # every pool evenly, matching local selection
    order = np.lexsort((all_pool, all_unit, all_scores))
    taken: dict[str, list] = {pid: [] for pid in scores}
    pids = list(scores)
    removed = 0
    for j in order:
        if removed == want:
            break
        pid = pids[int(all_pool[j])]
        if len(taken[pid]) >= caps[pid]:
            continue
        taken[pid].append(int(all_unit[j]))
        removed += 1
    return {pid: np.sort(np.asarray(ids, dtype=np.int64))
            for pid, ids in taken.items() if ids}


# -- weight selection ----------------------------------------------------------


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


def full_mask(net: nn.Network) -> WeightMask:
    entries = {}
    for lname, layer in net.layers.items():
        for pname in _MASKABLE.get(layer.kind, ()):
            entries[f"{lname}.{pname}"] = np.ones(layer.params[pname].shape, dtype=bool)
    if not entries:
        raise ValueError("network has no maskable weight arrays")
    return WeightMask(entries)


def select_weights(net: nn.Network, fraction: float, selection: str,
                   mask: WeightMask | None = None,
                   min_weights: int = 1) -> WeightMask:
    """Compose ``mask`` with the bottom-``fraction`` alive weights by |value|.

    Already-dead weights never resurrect and are excluded from the ranked
    population. Every layer keeps at least ``min_weights`` alive entries.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    if selection not in ("local", "global"):
        raise ValueError(f"selection must be local or global, got '{selection}'")
    mask = mask.copy() if mask is not None else full_mask(net)

    by_layer: dict[str, list[str]] = {}
    for key in mask.entries:
        by_layer.setdefault(key.split(".", 1)[0], []).append(key)

    def layer_population(lname):
        """(keys, |w| values, alive flags, key index, flat index) arrays."""
        mags, alive, kidx, flat = [], [], [], []
        for i, key in enumerate(by_layer[lname]):
            _, pname = key.split(".", 1)
            w = np.abs(net.layers[lname].params[pname].data.ravel()).astype(np.float64)
            m = mask.entries[key].ravel()
            mags.append(w)
            alive.append(m)
            kidx.append(np.full(w.size, i))
            flat.append(np.arange(w.size))
        return (np.concatenate(mags), np.concatenate(alive),
                np.concatenate(kidx), np.concatenate(flat))

    def kill(lname, kidx, flat):
        key = by_layer[lname][int(kidx)]
        mask.entries[key].ravel()[int(flat)] = False

    if selection == "local":
        requested, removed = 0, 0
        for lname in by_layer:
            mags, alive, kidx, flat = layer_population(lname)
            n_alive = int(alive.sum())
            k = _round_half_up(fraction * n_alive)
            requested += k
            k = min(k, max(n_alive - min_weights, 0))
            if k == 0:
                continue
            cand = np.flatnonzero(alive)
            order = cand[np.lexsort((flat[cand], kidx[cand], mags[cand]))]
            for j in order[:k]:
                kill(lname, kidx[j], flat[j])
            removed += k
        if requested > 0 and removed == 0:
            raise ValueError("selection would drop every layer below min_weights; "
                             "nothing can be removed")
        return mask

    pops = {lname: layer_population(lname) for lname in by_layer}
    total_alive = sum(int(p[1].sum()) for p in pops.values())
    want = _round_half_up(fraction * total_alive)
    if want == 0:
        return mask
    lnames, mags, alive, kidx, flat = [], [], [], [], []
    for i, (lname, (m, a, ki, fl)) in enumerate(pops.items()):
        lnames.append(lname)
        mags.append(m)
        alive.append(a)
        kidx.append(ki)
        flat.append(fl)
    layer_of = np.concatenate([np.full(pops[l][0].size, i)
                               for i, l in enumerate(lnames)])
    mags = np.concatenate(mags)
    alive = np.concatenate(alive)
    kidx = np.concatenate(kidx)
    flat = np.concatenate(flat)
    caps = {l: max(int(pops[l][1].sum()) - min_weights, 0) for l in lnames}
    if sum(caps.values()) == 0:
        raise ValueError("selection would drop every layer below min_weights; "
                         "nothing can be removed")
    cand = np.flatnonzero(alive)
    order = cand[np.lexsort((flat[cand], kidx[cand], layer_of[cand], mags[cand]))]
    removed_per = {l: 0 for l in lnames}
    removed = 0
    for j in order:
        if removed == want:
            break
        lname = lnames[int(layer_of[j])]
        if removed_per[lname] >= caps[lname]:
            continue
        kill(lname, kidx[j], flat[j])
        removed_per[lname] += 1
        removed += 1
    return mask


# -- prunability ----------------------------------------------------------------


def removable_units(net: nn.Network, mask: WeightMask) -> dict[str, np.ndarray]:
    """Per pool: which units have every incoming weight masked dead."""
    out = {}
    for pid, pool in net.pools.items():
        n = len(pool.kept)
        removable = np.zeros(n, dtype=bool)
        counted = False
        for member in pool.members:
            layer = net.layers[member]
            pnames = _MASKABLE.get(layer.kind, ())
            if not pnames:
                continue
            rows_dead = np.ones(n, dtype=bool)
            for pname in pnames:
                m = mask.entries[f"{member}.{pname}"].reshape(n, -1)
                rows_dead &= ~m.any(axis=1)
            removable = rows_dead if not counted else (removable & rows_dead)
            counted = True
        if counted:
            out[pid] = removable
        else:
            out[pid] = np.zeros(n, dtype=bool)
    return out


def prunability_from_mask(net: nn.Network, mask: WeightMask) -> float:
    """Fraction of units physically deletable under the weight mask."""
    per_pool = removable_units(net, mask)
    total = sum(len(pool.kept) for pool in net.pools.values())
    if total == 0:
        return 0.0
    return sum(int(r.sum()) for r in per_pool.values()) / total


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


@dataclass
class ImpTrace:
    records: list[ImpRecord]
    aborted: str | None = None
    stopped: str | None = None

    def weights_curve(self) -> np.ndarray:
        return np.array([r.weights_remaining_frac for r in self.records])

    def units_curve(self) -> np.ndarray:
        return np.array([r.units_remaining_frac for r in self.records])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.iteration,
                    f"{r.weights_remaining_frac:.10g}",
                    f"{r.units_remaining_frac:.10g}",
                    f"{r.valid_loss:.10g}",
                    f"{r.test_error_multiplier:.10g}",
                    f"{r.flops_per_second_audio:.10g}",
                    r.disk_bytes,
                    f"{r.rw_accesses:.10g}",
                ])


def mean_loss(net, items, loss_fn) -> float:
    """Mean loss over batches, in eval mode and without a graph."""
    net.eval()
    with T.no_grad():
        return float(np.mean([loss_fn(net, b).data for b in items]))


def _pool_units(net: nn.Network, mask: WeightMask | None) -> dict[str, int]:
    if mask is None:
        return {pid: len(pool.kept) for pid, pool in net.pools.items()}
    removable = removable_units(net, mask)
    return {pid: len(net.pools[pid].kept) - int(removable[pid].sum())
            for pid in net.pools}


def _at_floor(net: nn.Network, mask: WeightMask | None, cfg: ImpConfig) -> str | None:
    """Stop reason when no unit (trim) or weight (mask) may still be removed."""
    if mask is None:
        headroom = sum(max(len(p.kept) - cfg.min_units, 0)
                       for p in net.pools.values())
        if headroom == 0:
            return "every pool at the min_units floor"
        return None
    alive: dict[str, int] = {}
    for key, m in mask.entries.items():
        lname = key.split(".", 1)[0]
        alive[lname] = alive.get(lname, 0) + int(m.sum())
    if all(a <= cfg.min_weights for a in alive.values()):
        return "every layer at the min_weights floor"
    return None


def run_imp(net: nn.Network, data: Splits, cfg: ImpConfig, trainer=None, *,
            loss_fn=models.compute_loss, out_dir=None,
            on_iteration=None) -> ImpTrace:
    """Train, score, prune, rewind, retrain for cfg.iterations rounds.

    ``trainer(net, splits, record_step, after_step)`` trains ``net`` in
    place, calls ``after_step(net)`` (when given) after every optimizer
    step, and returns the parameter state after ``record_step`` steps
    (0 = before the first) when ``record_step`` is not None, raising
    ValueError if training takes fewer steps; ``harness.adam_trainer``
    is the one implementation. None runs the schedule without any
    training (arithmetic checks, smoke tests).
    Emits per-iteration checkpoints and the trace CSV under ``out_dir``
    when given. A non-finite validation loss aborts with the trace so far;
    exceeding ``stop_error_multiplier`` or hitting the min_units /
    min_weights floor everywhere stops cleanly.
    """
    cur = net.clone()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    if trainer is None:
        if cfg.rewind_step != 0:
            raise ValueError("a trainless run can only rewind to step 0")
        state_k = cur.param_state()
    else:
        state_k = trainer(cur, data, record_step=cfg.rewind_step, after_step=None)
    wall = time.perf_counter() - t0

    mask = full_mask(cur) if cfg.mode == "mask" else None
    total_units = sum(len(p.kept) for p in cur.pools.values())
    _, total_weights = cur.weight_counts()

    def measure():
        valid_loss = mean_loss(cur, data.valid, loss_fn)
        test_loss = mean_loss(cur, data.test, loss_fn)
        if mask is None:
            w_rem, w_orig = cur.weight_counts()
            weights_frac = w_rem / w_orig
        else:
            weights_frac = (total_weights - (mask.total() - mask.alive())) / total_weights
        units = _pool_units(cur, mask)
        units_frac = sum(units.values()) / total_units
        return valid_loss, test_loss, weights_frac, units_frac, units

    valid_loss, test_loss, wfrac, ufrac, units = measure()
    baseline_test = test_loss

    def costs():
        return (embed.count_flops(cur), embed.disk_size(cur),
                embed.rw_memory(cur))

    flops, disk, rw = costs()
    records = [ImpRecord(0, wfrac, ufrac, valid_loss, 1.0, flops, disk, rw,
                         wall, units)]
    trace = ImpTrace(records)
    if out_dir is not None:
        nn.save_checkpoint(cur, out_dir / "iter_00.ckpt")
    if not np.isfinite(valid_loss) or not np.isfinite(test_loss):
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
            selection = cfg.selection_at(it)
            try:
                if cfg.mode == "trim":
                    scores = cr.pool_scores(
                        cur, cfg.criterion, batches=list(data.valid),
                        scheme=cfg.scaling, loss_fn=loss_fn,
                        mi_cfg=cfg.mi, grad_mode=cfg.grad_mode,
                        info_window=cfg.info_window)
                    plan = select_units(scores, cfg.prune_fraction_per_iter,
                                        selection, min_units=cfg.min_units)
                    cur = nn.apply_trim(cur, plan)
                    rewind(cur, state_k)
                    after = None
                else:
                    mask = select_weights(cur, cfg.prune_fraction_per_iter,
                                          selection, mask=mask,
                                          min_weights=cfg.min_weights)
                    rewind(cur, state_k, mask)
                    after = mask.enforce
                if trainer is not None:
                    trainer(cur, data, record_step=None, after_step=after)
                wall = time.perf_counter() - t0

                valid_loss, test_loss, wfrac, ufrac, units = measure()
            except T.NumericError as exc:
                # overflow guards in the tensor layer surface divergence as
                # exceptions; keep the trace gathered so far
                trace.aborted = f"numeric failure at iteration {it}: {exc}"
                break
            multiplier = test_loss / baseline_test
            flops, disk, rw = costs()
            records.append(ImpRecord(it, wfrac, ufrac, valid_loss, multiplier,
                                     flops, disk, rw, wall, units))
            if out_dir is not None:
                nn.save_checkpoint(cur, out_dir / f"iter_{it:02d}.ckpt")
            if on_iteration is not None:
                on_iteration(it, cur, records[-1])
            if not np.isfinite(valid_loss) or not np.isfinite(test_loss):
                trace.aborted = f"non-finite loss at iteration {it}"
                break
            if (cfg.stop_error_multiplier is not None
                    and multiplier > cfg.stop_error_multiplier):
                trace.stopped = (f"error multiplier {multiplier:.4g} exceeded "
                                 f"{cfg.stop_error_multiplier:.4g} at iteration {it}")
                break

    if out_dir is not None:
        trace.to_csv(out_dir / "trace.csv")
    return trace
