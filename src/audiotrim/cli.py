"""Command-line entry points.

Exit codes: 0 on success, 1 on usage problems (bad flags, a missing or
malformed config or platforms file), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import criteria as cr
from . import embed, harness, models, nn, pruning


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="audiotrim",
                     description="Structured lottery-ticket pruning for "
                                 "small generative audio networks")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a dense model")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", default=None)

    imp = sub.add_parser("imp", help="run iterative prune-rewind-retrain")
    imp.add_argument("--config", required=True)
    imp.add_argument("--seed", type=int, default=None)
    imp.add_argument("--out", default=None)
    imp.add_argument("--paired", action="store_true",
                     help="run trim and mask modes side by side")

    analyze = sub.add_parser("analyze", help="unit scores and prunability")
    analyze.add_argument("--model", required=True)
    analyze.add_argument("--criterion", default="magnitude",
                         choices=list(cr.CRITERIA))
    analyze.add_argument("--config", default=None,
                         help="config supplying data batches for "
                              "data-driven criteria, and the scaling "
                              "and MI settings")
    analyze.add_argument("--out", default=None, help="scores CSV path")

    check = sub.add_parser("embed-check", help="platform feasibility report")
    check.add_argument("--model", required=True)
    check.add_argument("--platforms", default=None)

    gen = sub.add_parser("gen-data", help="synthesize a tone dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=64)
    gen.add_argument("--sr", type=int, default=16000)
    gen.add_argument("--duration", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=0)

    synth = sub.add_parser("synth", help="render audio from a checkpoint")
    synth.add_argument("--model", required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--duration", type=float, default=0.25)
    return parser


def _load_config(path, seed, out) -> harness.ExperimentConfig:
    try:
        cfg = harness.load_config(path)
    except ValueError as exc:  # JSON that does not parse, or a bad field
        raise UsageError(f"{path}: {exc}") from None
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if out is not None:
        cfg = dataclasses.replace(cfg, output_dir=out)
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits, net, trainer = harness.setup(cfg)
    trainer(net, splits, record_step=None)
    nn.save_checkpoint(net, out / "model.ckpt")
    losses = {part: pruning.mean_loss(net, getattr(splits, part))
              for part in ("valid", "test")}
    (out / "metrics.json").write_text(json.dumps(losses, indent=2) + "\n")
    print(f"saved {out / 'model.ckpt'} "
          f"(valid {losses['valid']:.4g}, test {losses['test']:.4g})")
    return 0


def _cmd_imp(args) -> int:
    cfg = _load_config(args.config, args.seed, args.out)
    if args.paired:
        traces = harness.run_paired(cfg)
        last = {m: t.records[-1] for m, t in traces.items()}
        for mode, rec in last.items():
            print(f"{mode}: {rec.weights_remaining_frac:.4f} weights left, "
                  f"multiplier {rec.test_error_multiplier:.4f}")
    else:
        trace = harness.run_experiment(cfg)
        rec = trace.records[-1]
        print(f"{len(trace.records) - 1} iterations: "
              f"{rec.weights_remaining_frac:.4f} weights left, "
              f"multiplier {rec.test_error_multiplier:.4f}")
    print(f"artifacts under {cfg.output_dir}")
    return 0


def _cmd_analyze(args) -> int:
    # scored as run_imp scores: batchnorm on its trained running statistics,
    # and the config's scaling and MI settings (ImpConfig's without one)
    net = nn.load_checkpoint(args.model).eval()
    batches, imp = None, pruning.ImpConfig()
    if args.config is not None:
        cfg = _load_config(args.config, None, None)
        batches = harness.setup(cfg)[0].valid
        imp = cfg.imp
    elif args.criterion != "magnitude":
        raise UsageError(f"criterion '{args.criterion}' needs data batches; "
                         "pass --config")
    scores = cr.pool_scores(net, args.criterion, imp.scaling, batches=batches,
                            mi_cfg=imp.mi)
    if args.out is not None:
        harness.write_csv(args.out, ["pool", "unit", "score"],
                          ([pid, i, f"{s:.10g}"] for pid, vec in scores.items()
                           for i, s in enumerate(vec)))
    for pid, vec in scores.items():
        print(f"{pid}: {len(vec)} units, weakest {int(np.argmin(vec))} "
              f"({vec.min():.4g}), strongest {int(np.argmax(vec))} "
              f"({vec.max():.4g})")
    return 0


def _cmd_embed_check(args) -> int:
    try:
        profiles = embed.load_platforms(args.platforms)
    except ValueError as exc:  # a platforms file that is not a profile list
        raise UsageError(str(exc)) from None
    net = nn.load_checkpoint(args.model)
    print(embed.summarize(embed.analyze(net, profiles)))
    return 0


def _cmd_gen_data(args) -> int:
    items = harness.gen_synthetic_tones(args.n, args.sr, args.duration,
                                        args.seed)
    harness.save_dataset(items, args.out, args.sr)
    print(f"wrote {len(items)} tones to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    net = nn.load_checkpoint(args.model).eval()
    config = net.meta.get("config", {})
    sr = config.get("sample_rate", 16000)

    def tones():
        # rendering models reconstruct one synthetic tone
        return harness.collate(harness.gen_synthetic_tones(
            1, sr, max(args.duration, 0.25), args.seed,
            frame_hop=harness._tone_hop(net.arch, config)))

    wave = models.arch_spec(net.arch).sample(net, int(args.duration * sr),
                                             args.seed, tones)
    harness.write_wav(args.out, wave, sr)
    print(f"wrote {args.out} ({len(wave) / sr:.2f} s at {sr} Hz)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "imp": _cmd_imp,
    "analyze": _cmd_analyze,
    "embed-check": _cmd_embed_check,
    "gen-data": _cmd_gen_data,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
