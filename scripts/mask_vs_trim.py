#!/usr/bin/env python3
"""Masking versus trimming on the same network, plus the prunability gap.

Part 1 runs the paired experiment: unstructured weight masking and
structured unit trimming, both pruning one training of the seeded dense
network, emitting aligned error curves (paired.csv). Part 2 pushes a wider network to ~99% masked
weight sparsity with local magnitude selection and reports how few whole
units that sparsity actually frees for deletion.

Usage:
    python3 scripts/mask_vs_trim.py --out runs/mask_vs_trim --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from audiotrim import harness, models, pruning  # noqa: E402


def paired_config(out_dir: str, seed: int,
                  iterations: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=models.ModelConfig(arch="sing_ae", conv_channels=16,
                                 n_conv_layers=3, sing_kernel=5,
                                 spec_windows=(64, 128, 256)),
        dataset=harness.DatasetConfig(n_items=48, duration=0.25),
        training=harness.TrainingConfig(epochs=6, batch_size=16),
        imp=pruning.ImpConfig(iterations=iterations, criterion="magnitude",
                              selection="local", rewind_step=10),
        output_dir=out_dir,
        seed=seed,
        emit_samples=False,
    )


# the wider network of part 2, masked without training
DEEP_MODEL = models.ModelConfig(arch="sing_ae", conv_channels=48,
                                n_conv_layers=5, sing_kernel=5,
                                spec_windows=(64, 128))


def compare(cfg: harness.ExperimentConfig,
            deep_model: models.ModelConfig) -> tuple[float, float]:
    """Both parts; returns (masked weight sparsity, removable unit fraction)."""
    traces = harness.run_paired(cfg)
    for mode, trace in traces.items():
        last = trace.records[-1]
        print(f"{mode:>4}: weights {last.weights_remaining_frac:.3f}, "
              f"units {last.units_remaining_frac:.3f}, "
              f"multiplier {last.test_error_multiplier:.3f}")

    # deep masking run: how removable is a 99%-sparse network really?
    net = models.build_model(deep_model, seed=cfg.seed)
    mask = None
    for _ in range(13):  # 0.7^13 ~ 0.97% weights left
        mask = pruning.select_weights(net, 0.30, "local", mask=mask)
    sparsity = 1.0 - mask.alive() / mask.total()
    removable = pruning.prunability_from_mask(net, mask)
    print(f"mask sparsity {sparsity:.4f} -> removable unit fraction "
          f"{removable:.4f}")
    report = Path(cfg.output_dir) / "prunability.txt"
    report.write_text(f"masked_weight_sparsity: {sparsity:.6f}\n"
                      f"removable_unit_fraction: {removable:.6f}\n")
    print(f"details under {cfg.output_dir}")
    return sparsity, removable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/mask_vs_trim")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=6)
    args = ap.parse_args()
    compare(paired_config(args.out, args.seed, args.iterations), DEEP_MODEL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
