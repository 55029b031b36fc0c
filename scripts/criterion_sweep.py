#!/usr/bin/env python3
"""Sweep unit-selection criteria and selection scopes on one model.

Runs iterative trim-rewind-retrain once per (criterion, selection) cell on
a small synthesizer-controller network over synthetic tones, then writes
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
    """One IMP run per (criterion, selection) cell, each under its own
    directory in base.output_dir; writes and returns the summary rows."""
    out = Path(base.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for criterion in criteria:
        for selection in ("local", "global"):
            cfg = dataclasses.replace(
                base, output_dir=str(out / f"{criterion}_{selection}"),
                imp=dataclasses.replace(base.imp, criterion=criterion,
                                        selection=selection))
            t0 = time.time()
            trace = harness.run_experiment(cfg)
            dt = time.time() - t0
            last = trace.records[-1]
            print(f"{criterion:>12} {selection:>6}: "
                  f"units {last.units_remaining_frac:.3f}, "
                  f"multiplier {last.test_error_multiplier:.3f} "
                  f"({dt:.0f}s)")
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
