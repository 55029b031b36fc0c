#!/usr/bin/env python3
"""Sweep unit-selection criteria and selection scopes on one model.

Trains a small synthesizer-controller network over synthetic tones once,
then runs iterative trim-rewind-retrain from that dense start once per
(criterion, selection) cell, and writes
sweep_summary.csv with the error multiplier each cell reaches at matched
unit budgets. Default settings finish in a few minutes on a laptop CPU.

Usage:
    python3 scripts/criterion_sweep.py --out runs/sweep --seed 0
"""

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from audiotrim import harness, models, pruning  # noqa: E402


def base_config(out_dir: str, seed: int, iterations: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=models.ModelConfig(arch="ddsp", gru_units=16, dense_units=16,
                                 n_partials=12, noise_bins=9, frame_hop=200,
                                 spec_windows=(64, 128, 256)),
        dataset=harness.DatasetConfig(n_items=60, duration=0.5),
        training=harness.TrainingConfig(epochs=6, batch_size=16),
        imp=pruning.ImpConfig(iterations=iterations, mode="trim",
                              rewind_step=6),
        output_dir=out_dir,
        seed=seed,
        emit_samples=False,
    )


def sweep(base: harness.ExperimentConfig, criteria) -> list[list]:
    """One IMP arm per (criterion, selection) cell, all pruning one dense
    start, each under its own directory in base.output_dir; writes and
    returns the summary rows."""
    out = Path(base.output_dir)
    cells = [(c, s) for c in criteria for s in ("local", "global")]
    t0 = time.time()
    traces = harness.run_arms(base, {
        f"{c}_{s}": dataclasses.replace(base.imp, criterion=c, selection=s)
        for c, s in cells})
    print(f"{len(cells)} cells from one dense start ({time.time() - t0:.0f}s)")
    rows = []
    for criterion, selection in cells:
        trace = traces[f"{criterion}_{selection}"]
        last = trace.records[-1]
        pruned = sum(r.wall_seconds for r in trace.records[1:])
        print(f"{criterion:>12} {selection:>6}: "
              f"units {last.units_remaining_frac:.3f}, "
              f"multiplier {last.test_error_multiplier:.3f} "
              f"({pruned:.1f}s pruning)")
        for rec in trace.records:
            rows.append([criterion, selection, rec.iteration,
                         f"{rec.units_remaining_frac:.6g}",
                         f"{rec.weights_remaining_frac:.6g}",
                         f"{rec.test_error_multiplier:.6g}"])

    with open(out / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["criterion", "selection", "iteration",
                         "units_remaining_frac", "weights_remaining_frac",
                         "test_error_multiplier"])
        writer.writerows(rows)
    print(f"summary written to {out / 'sweep_summary.csv'}")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/criterion_sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=5)
    ap.add_argument("--criteria", nargs="+",
                    default=["magnitude", "gradient", "activation",
                             "information"])
    args = ap.parse_args()
    sweep(base_config(args.out, args.seed, args.iterations), args.criteria)
    return 0


if __name__ == "__main__":
    sys.exit(main())
