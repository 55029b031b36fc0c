"""The benchmark's workloads, run one per process.

Each workload generates its inputs from the seed in set-up, then repeats
one timed call into audiotrim until the measuring window is over:

* ``ddsp_info_trim``: ``harness.run_experiment`` on the tiny-DDSP model
  with the information criterion and global trim, over a tone corpus
  written in set-up.
* ``wavenet_paired``: ``harness.run_paired`` on a reduced WaveNet (trim
  arm with the gradient criterion, mask arm with magnitude masking), then
  autoregressive sampling from the final trimmed checkpoint, as
  ``audiotrim synth`` would do after the run.

Run as a script, it executes one workload (or only its set-up) and prints
one JSON line with the raw samples; ``run.py`` turns those into metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import (END, NAME, PARENT, RUN, START, Tracer, conv_counts,
                    fft_counts, matmul_counts)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

now = time.perf_counter

# Sizes chosen so one timed call takes a few seconds on 2 CPUs and a
# 50-second window holds over ten of them.
SIZES = {
    "ddsp_info_trim": {"n_items": 30, "duration": 0.5, "epochs": 2,
                       "batch_size": 16, "iterations": 2, "rewind_step": 3},
    "wavenet_paired": {"n_items": 20, "duration": 0.25, "epochs": 1,
                       "batch_size": 8, "iterations": 2, "rewind_step": 2,
                       "gen_samples": 64},
}

# Smallest sizes that still pass through every code path (for the tests).
TINY = {
    # MI scoring needs 100 frames in the one validation item
    "ddsp_info_trim": {"n_items": 10, "duration": 1.25, "epochs": 3,
                       "batch_size": 8, "iterations": 1, "rewind_step": 1},
    "wavenet_paired": {"n_items": 10, "duration": 0.25, "epochs": 1,
                       "batch_size": 8, "iterations": 1, "rewind_step": 1,
                       "gen_samples": 2},
}

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = [
    ("fourier.fft.calls", "count", "lower"),
    ("fourier.fft.self_s", "s", "lower"),
    ("fourier.fft.points", "count", "lower"),
    ("fourier.fft.flops_est", "flop", "lower"),
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.self_s", "s", "lower"),
    ("tensor.graph_nodes", "nodes", "lower"),
    ("tensor.stft_logmag.self_s", "s", "lower"),
    ("tensor.conv1d.calls", "count", "lower"),
    ("tensor.conv1d.self_s", "s", "lower"),
    ("tensor.conv1d.macs", "mac", "lower"),
    ("tensor.matmul.calls", "count", "lower"),
    ("tensor.matmul.self_s", "s", "lower"),
    ("tensor.matmul.macs", "mac", "lower"),
    ("nn.gru_scan.calls", "count", "lower"),
    ("nn.gru_scan.self_s", "s", "lower"),
    ("nn.apply_trim.self_s", "s", "lower"),
    ("nn.save_checkpoint.self_s", "s", "lower"),
    ("nn.save_checkpoint.bytes", "bytes", "lower"),
    ("nn.load_checkpoint.self_s", "s", "lower"),
    ("models.multiscale_spectral_loss.self_s", "s", "lower"),
    ("models.ddsp_synthesize.self_s", "s", "lower"),
    ("models.noise_band_basis.self_s", "s", "lower"),
    ("models.nll_from_logits.self_s", "s", "lower"),
    ("models.wavenet_generate.self_s", "s", "lower"),
    ("models.wavenet_generate.tensor.conv1d.macs", "mac", "lower"),
    ("criteria.pool_scores.calls", "count", "lower"),
    ("criteria.pool_scores.self_s", "s", "lower"),
    ("mi.estimate_mi.calls", "count", "lower"),
    ("mi.estimate_mi.self_s", "s", "lower"),
    ("pruning.select_units.self_s", "s", "lower"),
    ("pruning.select_weights.self_s", "s", "lower"),
    ("pruning.rewind.self_s", "s", "lower"),
    ("pruning.removable_units.self_s", "s", "lower"),
    ("pruning.mask_enforce.calls", "count", "lower"),
    ("pruning.mask_enforce.self_s", "s", "lower"),
    ("pruning.useful_weight_frac", "ratio", "higher"),
    ("pruning.iter_other_s", "s", "lower"),
    ("pruning.error_mult_final", "ratio", "lower"),
    ("embed.analyze.self_s", "s", "lower"),
    ("embed.macs_ratio", "ratio", "higher"),
    ("harness.gen_synthetic_tones.self_s", "s", "lower"),
    ("harness.save_dataset.self_s", "s", "lower"),
    ("harness.load_wav_dir.self_s", "s", "lower"),
    ("harness.train.calls", "count", "lower"),
    ("harness.train.self_s", "s", "lower"),
    ("harness.train.steps", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# metrics of set-up, reported once per run instead of per timed call
SETUP_LAYERS = ("harness.gen_synthetic_tones", "harness.save_dataset")


def import_program():
    """Import audiotrim from this checkout's sources, never from elsewhere."""
    pkg = SRC / "audiotrim"
    if not (pkg / "__init__.py").is_file():
        raise FileNotFoundError(f"audiotrim sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import audiotrim
    if Path(audiotrim.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"audiotrim imported from {audiotrim.__file__}, "
                          f"not from {pkg}")
    return audiotrim


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def matrix_flops(layer) -> int:
    """The matrix (multiply-accumulate) term of ``embed.layer_flops``."""
    from audiotrim import embed
    if layer.kind == "batchnorm":
        return 0
    total = embed.layer_flops(layer)
    if layer.kind == "gru":
        return total - 9 * layer.params["wz"].shape[0]
    return total


def macs_ratio(net, batch: dict, positions: int) -> float:
    """FLOPs of the conv1d/matmul MACs one forward pass runs, over the
    closed-form matrix FLOPs times the positions it processed."""
    from audiotrim import embed, models
    from audiotrim import tensor as T
    tracer = Tracer()
    targets = [(T, "conv1d_dilated_causal", "conv1d", {"counter": conv_counts}),
               (T, "matmul", "matmul", {"counter": matmul_counts})]
    with tracer.installed(targets), T.no_grad():
        models.forward_batch(net, batch)
    counted = sum(c["conv1d.macs"] + c["matmul.macs"]
                  for c in tracer.counts.values())
    closed = sum(matrix_flops(layer) for layer in net.layers.values())
    return embed.FLOPS_PER_MAC * counted / (closed * positions)


# -- workloads ---------------------------------------------------------------


class ImpWorkload:
    """An IMP experiment over a tone corpus written in set-up."""

    def __init__(self, name: str, sizes: dict, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.paired = name == "wavenet_paired"

    def _model(self):
        from audiotrim import models
        if self.paired:
            return models.ModelConfig(
                arch="wavenet", sample_rate=8000, n_stacks=1,
                blocks_per_stack=6, residual_channels=16, gate_channels=16,
                skip_channels=16, head_channels=32, n_classes=256)
        return models.ModelConfig(arch="ddsp", gru_units=16, dense_units=16,
                                  n_partials=12, noise_bins=9,
                                  spec_windows=(64, 128, 256))

    def setup(self):
        from audiotrim import harness, pruning
        sz = self.sizes
        model = self._model()
        items = harness.gen_synthetic_tones(
            sz["n_items"], model.sample_rate, sz["duration"], self.seed,
            frame_hop=model.frame_hop)
        corpus = self.workdir / "corpus"
        harness.save_dataset(items, corpus, model.sample_rate)
        imp = pruning.ImpConfig(
            iterations=sz["iterations"], mode="trim",
            criterion="gradient" if self.paired else "information",
            selection="global", rewind_step=sz["rewind_step"])
        self.cfg = harness.ExperimentConfig(
            model=model,
            dataset=harness.DatasetConfig(kind="wav_dir", wav_dir=str(corpus),
                                          sr=model.sample_rate),
            training=harness.TrainingConfig(epochs=sz["epochs"],
                                            batch_size=sz["batch_size"]),
            imp=imp, output_dir=str(self.workdir / "run"), seed=self.seed,
            emit_samples=False)
        self.macs_batch = harness.collate(items[:2])

    def call(self, k: int) -> dict:
        """One timed experiment; returns its samples and output checks."""
        from audiotrim import harness
        out = self.workdir / f"run{k}"
        cfg = dataclasses.replace(self.cfg, output_dir=str(out))
        t0 = now()
        if self.paired:
            traces = harness.run_paired(cfg)
        else:
            traces = {"trim": harness.run_experiment(cfg)}
        wall = now() - t0
        files = (["trim/trace.csv", "mask/trace.csv", "paired.csv"]
                 if self.paired else ["trace.csv"])
        blobs = [(out / f).read_bytes() for f in files]
        rec = {"wall_s": wall, "steps_s": [], "attempted": 0, "failed": 0,
               "problems": [],
               "error_mult_final": traces["trim"].records[-1].test_error_multiplier}
        if self.paired:
            last = traces["trim"].records[-1].iteration
            samples = self.synth(out / "trim" / f"iter_{last:02d}.ckpt", rec)
            blobs.append(samples.tobytes())
        rec["digest"] = digest(*blobs)
        for mode, trace in traces.items():
            rec["steps_s"] += [r.wall_seconds for r in trace.records[1:]]
            rec["attempted"] += self.sizes["iterations"]
            problems = imp_problems(mode, trace, self.sizes["iterations"])
            rec["problems"] += problems
            # a failed check (a missing iteration included) fails the arm
            rec["failed"] += self.sizes["iterations"] if problems else 0
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def synth(self, ckpt: Path, rec: dict) -> np.ndarray:
        """Sample from a checkpoint, timed apart from the experiment."""
        from audiotrim import models, nn
        n = self.sizes["gen_samples"]
        net = nn.load_checkpoint(ckpt)
        t0 = now()
        samples = models.wavenet_generate(net, n, seed=self.seed)
        rec["gen_samples_per_s"] = n / (now() - t0)
        problems = sample_problems(samples, n)
        rec["attempted"] += 1
        rec["failed"] += int(bool(problems))
        rec["problems"] += problems
        return samples

    def attempted_per_call(self) -> int:
        return (2 * self.sizes["iterations"] + 1 if self.paired
                else self.sizes["iterations"])

    def macs_check(self) -> float:
        from audiotrim import models
        net = models.build_model(self.cfg.model, seed=self.seed)
        b = self.macs_batch
        if self.paired:
            positions = b["wave"].shape[0] * (b["wave"].shape[1] - 1)
        else:
            positions = b["f0"].size
        return macs_ratio(net, b, positions)


def imp_problems(mode: str, trace, iterations: int) -> list[str]:
    """Output checks on one IMP trace."""
    problems = []
    if trace.aborted:
        problems.append(f"{mode}: aborted: {trace.aborted}")
    if len(trace.records) - 1 != iterations and not problems:
        problems.append(f"{mode}: {len(trace.records) - 1} of {iterations} "
                        f"iterations ran ({trace.stopped})")
    mults = [r.test_error_multiplier for r in trace.records]
    if not all(math.isfinite(m) for m in mults):
        problems.append(f"{mode}: non-finite error multiplier in {mults}")
    for label, curve in (("weight", trace.weights_curve()),
                         ("unit", trace.units_curve())):
        if np.any(np.diff(curve) > 0):
            problems.append(f"{mode}: {label} fraction increased: "
                            f"{curve.tolist()}")
    return problems


def sample_problems(out: np.ndarray, n_samples: int) -> list[str]:
    """Output checks on one generated waveform."""
    if out.shape != (n_samples,):
        return [f"generated shape {out.shape}, not ({n_samples},)"]
    if not np.all(np.isfinite(out)):
        return ["non-finite generated sample"]
    if np.any(np.abs(out) > 1.0):
        return [f"generated sample outside [-1, 1]: {np.abs(out).max()!r}"]
    return []


WORKLOADS = ("ddsp_info_trim", "wavenet_paired")


# -- tracing -------------------------------------------------------------------


def trace_targets() -> list[tuple]:
    """Every attribute the traced run rebinds, with its span name."""
    from audiotrim import criteria, embed, fourier, harness, mi, models, nn, pruning
    from audiotrim import tensor as T
    ckpt_bytes = {"after": lambda a, k, r: {"bytes": Path(a[1]).stat().st_size}}
    mask_alive = {"keep": lambda a, r: (a[0].alive(), a[0].total())}
    iter_walls = {"keep": lambda a, r: [x.wall_seconds for x in r.records[1:]]}
    return [
        (fourier, "fft", "fourier.fft", {"counter": fft_counts}),
        (T.Tensor, "backward", "tensor.backward", {"count_graph": True}),
        (T, "stft_logmag", "tensor.stft_logmag", {}),
        (T, "conv1d_dilated_causal", "tensor.conv1d", {"counter": conv_counts}),
        (T, "matmul", "tensor.matmul", {"counter": matmul_counts}),
        (nn, "gru_scan", "nn.gru_scan", {}),
        (nn, "apply_trim", "nn.apply_trim", {}),
        (nn, "save_checkpoint", "nn.save_checkpoint", ckpt_bytes),
        (nn, "load_checkpoint", "nn.load_checkpoint", {}),
        (models, "multiscale_spectral_loss", "models.multiscale_spectral_loss", {}),
        (models, "ddsp_synthesize", "models.ddsp_synthesize", {}),
        (models, "noise_band_basis", "models.noise_band_basis", {}),
        (models, "nll_from_logits", "models.nll_from_logits", {}),
        (models, "wavenet_generate", "models.wavenet_generate", {}),
        (criteria, "pool_scores", "criteria.pool_scores", {}),
        (mi, "estimate_mi", "mi.estimate_mi", {}),
        (pruning, "select_units", "pruning.select_units", {}),
        (pruning, "select_weights", "pruning.select_weights", {}),
        (pruning, "rewind", "pruning.rewind", {}),
        (pruning, "removable_units", "pruning.removable_units", {}),
        (pruning.WeightMask, "enforce", "pruning.mask_enforce", mask_alive),
        (pruning, "run_imp", "pruning.run_imp", iter_walls),
        (embed, "analyze", "embed.analyze", {}),
        (harness, "gen_synthetic_tones", "harness.gen_synthetic_tones", {}),
        (harness, "save_dataset", "harness.save_dataset", {}),
        (harness, "load_wav_dir", "harness.load_wav_dir", {}),
        (harness, "adam_trainer", "harness.train", {"factory": True}),
    ]


def layer_metrics(tracer: Tracer, op_runs: list[str]) -> dict[str, float]:
    """Per-layer metrics per traced call (set-up layers: per set-up).

    The metrics not taken from spans (``embed.macs_ratio``,
    ``trace.overhead_frac``, ``pruning.error_mult_final``) read 0 here.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    kids = tracer.children()
    runs = set(op_runs)
    sums: dict[str, float] = defaultdict(float)    # over all traced calls
    setup: dict[str, float] = defaultdict(float)   # over the one set-up
    for i, s in enumerate(spans):
        if s[RUN] in runs:
            into = sums
        elif s[RUN] == "setup" and s[NAME] in SETUP_LAYERS:
            into = setup
        else:
            continue
        into[f"{s[NAME]}.calls"] += 1
        into[f"{s[NAME]}.self_s"] += selfs[i]
        if s[NAME] == "tensor.backward" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "harness.train":
            sums["harness.train.steps"] += 1
    for run in op_runs:
        for key, val in tracer.counts[run].items():
            sums[key] += val

    useful = 0.0
    for i, s in enumerate(spans):
        if s[RUN] not in runs:
            continue
        if s[NAME] == "pruning.run_imp" and i in tracer.results:
            trains = [c for c in kids[i] if spans[c][NAME] == "harness.train"]
            # the first train call is dense training; each later one ends
            # an iteration, whose wall_seconds run_imp measured itself
            for wall, tr in zip(tracer.results[i], trains[1:]):
                end = spans[tr][END]
                start = end - wall
                inside = sum(spans[c][END] - spans[c][START] for c in kids[i]
                             if spans[c][START] >= start and spans[c][END] <= end)
                sums["pruning.iter_other_s"] += wall - inside
        elif s[NAME] == "pruning.mask_enforce" and i in tracer.results:
            alive, total = tracer.results[i]
            useful = alive / total

    backwards = sums["tensor.backward.calls"]
    graph_nodes = sums["tensor.backward.graph_nodes"] / backwards if backwards else 0.0
    n_ops = max(len(op_runs), 1)
    sums = {k: v / n_ops for k, v in sums.items()}
    sums.update(setup)
    sums["tensor.graph_nodes"] = graph_nodes
    sums["pruning.useful_weight_frac"] = useful
    return {name: float(sums.get(name, 0.0)) for name, _, _ in PER_LAYER}


# -- running one workload --------------------------------------------------------


def stamp(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, workdir: Path | None = None,
                 setup_only: bool = False, spans_path: Path | None = None) -> dict:
    """Set up one workload, then repeat its timed call for ``seconds``.

    With ``trace`` the calls alternate untraced and traced, starting
    untraced, so the tracing overhead is measured in the same run.
    """
    import_program()
    workdir = workdir or OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # conv1d MACs inside sampling are counted apart: activation queues
    # should cut them without touching the training MACs
    tracer = Tracer(scopes=["models.wavenet_generate"]) if trace else None
    wl = ImpWorkload(name, sizes or SIZES[name], seed, workdir)
    result = {"workload": name, "stamp": stamp(seed), "calls": [],
              "attempted": 0, "failed": 0, "problems": []}
    try:
        if tracer is not None:
            with tracer.installed(trace_targets()), tracer.span("setup", "setup"):
                wl.setup()
        else:
            wl.setup()
        result["setup_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if setup_only:
            return result
        t_start = now()
        k = 0
        while (k == 0 or now() - t_start < seconds
               or (tracer is not None and k < 2)):
            traced = tracer is not None and k % 2 == 1
            # autograd graphs are reference cycles; collecting them between
            # calls starts each call from the heap a fresh process would have
            gc.collect()
            try:
                if traced:
                    with tracer.installed(trace_targets()), \
                            tracer.span("call", f"call{k}"):
                        rec = wl.call(k)
                else:
                    rec = wl.call(k)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec = {"attempted": wl.attempted_per_call(),
                       "failed": wl.attempted_per_call(),
                       "problems": [f"call {k} raised"]}
            rec["traced"] = traced
            result["calls"].append(rec)
            if k == 0:
                # peak of a fresh process through set-up and one call, as a
                # user running the experiment once would see it
                result["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            k += 1
        finish_checks(result, wl)
        if tracer is not None:
            result["layers"] = traced_layers(tracer, result["calls"])
            result["layers"]["embed.macs_ratio"] = result["macs_ratio"]
            if spans_path is not None:
                tracer.dump(spans_path)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def finish_checks(result: dict, wl):
    """Cross-call checks: equal digests for one seed, and the MACs oracle."""
    calls = result["calls"]
    first = next((c["digest"] for c in calls if "digest" in c), None)
    for c in calls:
        if "digest" in c and c["digest"] != first:
            c["problems"].append("output digest differs from the first call")
            c["failed"] = c["attempted"]
        result["attempted"] += c["attempted"]
        result["failed"] += c["failed"]
        result["problems"] += c["problems"]
    ratio = wl.macs_check()
    result["macs_ratio"] = ratio
    result["attempted"] += 1
    if ratio != 1.0:
        result["failed"] += 1
        result["problems"].append(f"embed.macs_ratio is {ratio!r}, not 1")


def traced_layers(tracer: Tracer, calls: list[dict]) -> dict[str, float]:
    op_runs = [f"call{k}" for k, c in enumerate(calls) if c["traced"]]
    layers = layer_metrics(tracer, op_runs)
    plain = [c["wall_s"] for c in calls if not c["traced"] and "wall_s" in c]
    traced = [c["wall_s"] for c in calls if c["traced"] and "wall_s" in c]
    layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if plain and traced else 0.0)
    mults = [c["error_mult_final"] for c in calls if "error_mult_final" in c]
    if mults:
        layers["pruning.error_mult_final"] = mults[-1]
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), setup_only=args.setup_only,
                          spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
