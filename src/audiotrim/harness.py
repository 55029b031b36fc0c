"""Experiment plumbing: synthetic tone datasets, WAV files, JSON configs,
the Adam training loop, and end-to-end run orchestration.

A run directory after run_experiment holds: config.json (canonical form),
trace.csv, per-iteration checkpoints, embed_reports.csv (one row per
iteration x platform), pareto.csv, reconstructed audio under samples/,
and a MANIFEST listing every artifact with the config hash, numpy's
version, its BLAS and the BLAS thread count. Identical (config, seed)
pairs reproduce every byte except the MANIFEST timestamp, given the same
numpy build and thread count. This module alone writes a run directory,
from the records and nets the IMP loop hands it through a callback.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import time
import typing
import wave as wave_io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embed, models, nn, pruning
from . import tensor as T


# -- synthetic tones -----------------------------------------------------------

# the tone synthesiser's partials and noise bands
_TONE_PARTIALS = 16
_TONE_NOISE_BINS = 17


def gen_synthetic_tones(n_items: int, sr: int, duration: float, seed: int,
                        frame_hop: int = 200) -> list[dict]:
    """Harmonic-plus-noise tones with ground-truth conditioning.

    Each item dict carries "wave" (samples,), "f0" and "loud" (frames,).
    Fundamentals are uniform in [80, 800] Hz; 1..16 partials decay as 1/k
    with +/-20% amplitude jitter; a smooth attack/decay loudness envelope
    and a low filtered-noise floor complete the tone.
    """
    if sr not in (8000, 16000):
        raise ValueError(f"sample rate must be 8000 or 16000, got {sr}")
    if duration < 0.25:
        raise ValueError(f"duration must be at least 0.25 s, got {duration}")
    if n_items == 0:
        return []
    rng = np.random.default_rng(seed)
    n_frames = max(2, int(round(duration * sr / frame_hop)))
    synth_cfg = models.ModelConfig(arch="ddsp", sample_rate=sr,
                                   frame_hop=frame_hop, n_partials=_TONE_PARTIALS,
                                   noise_bins=_TONE_NOISE_BINS)
    meta = {"config": dataclasses.asdict(synth_cfg)}

    items = []
    for start in range(0, n_items, 16):
        chunk = min(16, n_items - start)
        f0 = rng.uniform(80.0, 800.0, size=chunk).astype(np.float32)
        f0_frames = np.repeat(f0[:, None], n_frames, axis=1)

        harm = np.zeros((chunk, n_frames, _TONE_PARTIALS), dtype=np.float32)
        for i in range(chunk):
            n_part = int(rng.integers(1, _TONE_PARTIALS + 1))
            k = np.arange(1, n_part + 1, dtype=np.float64)
            amps = (1.0 / k) * rng.uniform(0.8, 1.2, size=n_part)
            harm[i, :, :n_part] = (amps / amps.sum()).astype(np.float32)

        pos = np.arange(n_frames, dtype=np.float32) / n_frames
        env = np.empty((chunk, n_frames), dtype=np.float32)
        for i in range(chunk):
            attack = rng.uniform(0.1, 0.3)
            decay = rng.uniform(0.0, 1.2)
            env[i] = np.minimum(pos / attack, 1.0) * np.exp(-decay * pos)
        amp = (0.25 + 0.65 * env)[:, :, None]

        floor = rng.uniform(0.02, 0.08, size=chunk).astype(np.float32)
        noise = np.broadcast_to(floor[:, None, None],
                                (chunk, n_frames, _TONE_NOISE_BINS)).copy()

        with T.no_grad():
            wave = models.ddsp_synthesize(
                {"amp": T.Tensor(amp), "harm": T.Tensor(harm),
                 "noise": T.Tensor(noise)}, f0_frames, meta).data
        for i in range(chunk):
            items.append({"wave": wave[i].astype(np.float32),
                          "f0": f0_frames[i].copy(),
                          "loud": amp[i, :, 0].copy()})
    return items


# -- dataset splitting and batching ---------------------------------------------


def split_dataset(items: list, seed: int) -> pruning.Splits:
    """80/10/10 partition of items; disjoint, exhaustive, seed-reproducible."""
    n = len(items)
    if n < 10:
        raise ValueError(f"need at least 10 items for an 80/10/10 split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_held = int(n * 0.1 + 0.5)  # each of valid and test
    valid = tuple(items[i] for i in order[:n_held])
    test = tuple(items[i] for i in order[n_held:2 * n_held])
    train = tuple(items[i] for i in order[2 * n_held:])
    return pruning.Splits(train, valid, test)


def collate(items) -> dict:
    """Stack items into one batch dict; items must share lengths."""
    batch = {"wave": np.stack([np.asarray(it["wave"], dtype=np.float32)
                               for it in items])}
    if all("f0" in it for it in items):
        for key in ("f0", "loud"):
            batch[key] = np.stack([np.asarray(it[key], dtype=np.float32)
                                   for it in items])
    return batch


def build_splits(split: pruning.Splits, batch_size: int) -> pruning.Splits:
    """Batched training split; single-item validation and test batches so
    every criterion (including information scoring) can consume them."""
    train = [collate(split.train[i:i + batch_size])
             for i in range(0, len(split.train), batch_size)]
    valid = [collate([it]) for it in split.valid]
    test = [collate([it]) for it in split.test]
    return pruning.Splits(train=train, valid=valid, test=test)


# -- WAV I/O ---------------------------------------------------------------------


class WavFormatError(ValueError):
    pass


def write_wav(path, wave: np.ndarray, sr: int):
    """Mono PCM16 writer; quantization scale 32768 so re-emitting a loaded
    file reproduces it byte for byte."""
    x = np.clip(np.asarray(wave, dtype=np.float64), -1.0, 1.0)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave_io.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(pcm.tobytes())


def read_wav(path, sr_expected: int) -> np.ndarray:
    """Mono PCM16 RIFF reader, normalized by 1/32768."""
    path = Path(path)
    try:
        with wave_io.open(str(path), "rb") as fh:
            channels, width, sr, n_frames = fh.getparams()[:4]
            frames = fh.readframes(n_frames)
    except (wave_io.Error, EOFError) as err:
        raise WavFormatError(
            f"{path.name}: not a PCM 16-bit WAV file ({err})") from None
    if width != 2:
        raise WavFormatError(f"{path.name}: only PCM 16-bit is supported "
                             f"({8 * width} bits)")
    if channels != 1:
        raise WavFormatError(f"{path.name}: {channels} channels unsupported, "
                             "expected mono")
    if sr != sr_expected:
        raise WavFormatError(f"{path.name}: sample rate {sr} does not match "
                             f"expected {sr_expected}")
    # wave hands back what a short data chunk holds without complaint
    if len(frames) != 2 * n_frames:
        raise WavFormatError(f"{path.name}: data chunk declares {2 * n_frames} "
                             f"bytes but only {len(frames)} remain (truncated)")
    pcm = np.frombuffer(frames, dtype="<i2")
    return (pcm.astype(np.float32) / 32768.0).astype(np.float32)


def load_wav_dir(path, sr_expected: int) -> list[dict]:
    """Items from a directory of mono PCM16 WAV files, sorted by name.

    A conditioning.json sidecar (written by save_dataset) restores the
    per-file f0/loudness frames for synthesizer models.
    """
    path = Path(path)
    files = sorted(path.glob("*.wav"))
    if not files:
        raise WavFormatError(f"no .wav files under {path}")
    sidecar = path / "conditioning.json"
    cond = _read_conditioning(sidecar) if sidecar.exists() else {}
    return [{"wave": read_wav(f, sr_expected), **cond.get(f.name, {})}
            for f in files]


def _read_conditioning(sidecar: Path) -> dict[str, dict]:
    """File name -> {"f0", "loud"} frames from a sidecar; a malformed one
    raises WavFormatError naming the file and the entry."""
    try:
        doc = json.loads(sidecar.read_text())
    except ValueError as err:
        raise WavFormatError(f"{sidecar}: not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise WavFormatError(f"{sidecar}: must hold an object keyed by file name")
    f32_max = float(np.finfo(np.float32).max)
    for name, entry in doc.items():
        # type() rather than isinstance: a JSON boolean is no frame value
        if not (isinstance(entry, dict) and entry.keys() == {"f0", "loud"}
                and all(isinstance(v, list) and all(
                    type(x) in (int, float) and abs(x) <= f32_max for x in v)
                    for v in entry.values())
                and len(entry["f0"]) == len(entry["loud"])):
            raise WavFormatError(f"{sidecar}: entry '{name}' must hold f0 and "
                                 "loud alone, as equally long lists of numbers "
                                 "finite in float32")
    return {name: {k: np.asarray(entry[k], dtype=np.float32) for k in ("f0", "loud")}
            for name, entry in doc.items()}


def save_dataset(items: list[dict], path, sr: int):
    """Write items as WAVs plus a conditioning.json sidecar."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cond = {}
    for i, item in enumerate(items):
        name = f"tone_{i:04d}.wav"
        write_wav(path / name, item["wave"], sr)
        if "f0" in item:
            cond[name] = {"f0": np.asarray(item["f0"], dtype=float).tolist(),
                          "loud": np.asarray(item["loud"], dtype=float).tolist()}
    if cond:
        (path / "conditioning.json").write_text(json.dumps(cond))


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic_tones"
    n_items: int = 64
    sr: int = 16000
    duration: float = 0.25
    wav_dir: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic_tones", "wav_dir"):
            raise ValueError(f"dataset kind must be synthetic_tones or wav_dir, "
                             f"got '{self.kind}'")
        if self.kind == "wav_dir" and not self.wav_dir:
            raise ValueError("dataset kind wav_dir needs a wav_dir path")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 2e-4
    plateau_patience: int = 10

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be positive and weight_decay non-negative")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    model: models.ModelConfig
    dataset: DatasetConfig = DatasetConfig()
    training: TrainingConfig = TrainingConfig()
    imp: pruning.ImpConfig = pruning.ImpConfig()
    platforms: str | None = None
    output_dir: str = "runs/experiment"
    seed: int = 0
    emit_samples: bool = True


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a config field is annotated with;
    an int fits a float field, a bool fits only a bool field."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _from_section(cls, section, name: str):
    """cls from a JSON object, nested sections built the same way; a
    misfit raises ValueError naming its section and key."""
    where = f"config section '{name}'" if name else "config"
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(section).__name__}")
    hints = typing.get_type_hints(cls)
    if set(section) - set(hints):
        raise ValueError(f"unknown key(s) {sorted(set(section) - set(hints))} in {where}")
    kwargs = {}
    for key, value in section.items():
        hint, field = hints[key], f"{name}.{key}" if name else key
        sub = [h for h in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(h)]
        if sub and value is not None:
            value = _from_section(sub[0], value, field)
        if not _fits(value, hint):
            raise ValueError(f"config field '{field}' must be "
                             f"{hint.__name__ if isinstance(hint, type) else hint}, "
                             f"got {type(value).__name__}")
        # JSON arrays arrive as lists; every sequence field is a tuple
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from plain JSON data; unknown keys and
    values of the wrong JSON type are rejected at every level."""
    if isinstance(doc, dict) and "model" not in doc:
        raise ValueError("config needs a 'model' section")
    return _from_section(ExperimentConfig, doc, "")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return config_from_dict(json.loads(path.read_text()))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["output_dir"] = str(doc["output_dir"])
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# -- Adam training ------------------------------------------------------------------

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


def adam_trainer(training: TrainingConfig, seed: int):
    """Adam with decoupled weight decay and plateau-halved learning rate,
    as ``training`` sets them; ``seed`` orders the batches.

    The learning rate halves after ``plateau_patience`` consecutive epochs
    without a validation improvement; training ends at the epoch budget or
    once validation has stalled through two full patience windows. The
    validation loss is taken after every epoch but the last: it only
    steers the halving and the early stop, and both end with the loop. The
    returned callable keeps the trainer contract ``pruning.run_imp``
    states: it trains the net in place and returns the parameter snapshot
    after ``record_step`` optimizer steps (0 = the initial values) when
    one is requested.
    Batching is fixed upstream, in the splits.
    """

    def train(net, splits, record_step=None, after_step=None):
        state_k = net.param_state() if record_step == 0 else None
        rng = np.random.default_rng(seed)
        m = {name: np.zeros_like(p.data, dtype=np.float64)
             for name, p in net.named_parameters()}
        v = {name: np.zeros_like(p.data, dtype=np.float64)
             for name, p in net.named_parameters()}
        cur_lr = training.lr
        b1, b2 = _ADAM_BETAS
        t = 0
        best = np.inf
        stalled = 0
        for epoch in range(training.epochs):
            net.train()
            order = rng.permutation(len(splits.train))
            for bi in order:
                net.zero_grad()
                models.compute_loss(net, splits.train[int(bi)]).backward()
                t += 1
                for name, p in net.named_parameters():
                    g = p.grad
                    if g is None:
                        continue
                    m[name] = b1 * m[name] + (1.0 - b1) * g
                    v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                    mhat = m[name] / (1.0 - b1 ** t)
                    vhat = v[name] / (1.0 - b2 ** t)
                    p.data = (p.data - cur_lr * (mhat / (np.sqrt(vhat) + _ADAM_EPS)
                                                 + training.weight_decay * p.data)
                              ).astype(np.float32)
                if after_step is not None:
                    after_step(net)
                if record_step == t:
                    state_k = net.param_state()
            net.zero_grad()
            if epoch == training.epochs - 1:
                break
            vloss = pruning.mean_loss(net, splits.valid)
            if vloss < best:
                best = vloss
                stalled = 0
            else:
                stalled += 1
                if stalled % training.plateau_patience == 0:
                    cur_lr *= 0.5
                if stalled >= 2 * training.plateau_patience:
                    break
        net.eval()
        if record_step is not None and state_k is None:
            raise ValueError(f"rewind step {record_step} lies beyond the "
                             f"{t} training steps taken")
        return state_k

    return train


# -- experiment orchestration ----------------------------------------------------


def _tone_hop(arch: str, model: dict) -> int:
    # per-sample models take no frame conditioning: 200-sample tone frames
    hop = models.arch_spec(arch).frame_hop
    return hop(model) if hop else 200


def _build_dataset(cfg: ExperimentConfig) -> list[dict]:
    ds = cfg.dataset
    if ds.kind == "wav_dir":
        return load_wav_dir(ds.wav_dir, ds.sr)
    hop = _tone_hop(cfg.model.arch, dataclasses.asdict(cfg.model))
    return gen_synthetic_tones(ds.n_items, ds.sr, ds.duration, cfg.seed,
                               frame_hop=hop)


def setup(cfg: ExperimentConfig):
    """Splits, a fresh network and its Adam trainer for one config."""
    items = _build_dataset(cfg)
    splits = build_splits(split_dataset(items, cfg.seed), cfg.training.batch_size)
    net = models.build_model(cfg.model, seed=cfg.seed)
    return splits, net, adam_trainer(cfg.training, cfg.seed)


def write_csv(path, header: list, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


TRACE_COLUMNS = ("iteration", "weights_remaining_frac", "units_remaining_frac",
                 "valid_loss", "test_error_multiplier", "flops_per_second_audio",
                 "disk_bytes", "rw_accesses")


def _emit_trace(out: Path, trace: pruning.ImpTrace):
    # counts as integers, measurements to 10 significant digits
    write_csv(out / "trace.csv", TRACE_COLUMNS,
              ([v if isinstance(v, int) else f"{v:.10g}"
                for v in (getattr(r, c) for c in TRACE_COLUMNS)]
               for r in trace.records))


def _emit_samples(out: Path, trace: pruning.ImpTrace, splits: pruning.Splits,
                  sr: int):
    picks = sorted({0, len(trace.records) // 2, len(trace.records) - 1})
    sample_dir = out / "samples"
    sample_dir.mkdir(exist_ok=True)
    for idx in picks:
        it = trace.records[idx].iteration
        net = nn.load_checkpoint(out / f"iter_{it:02d}.ckpt").eval()
        wave = models.arch_spec(net.arch).sample(net, int(0.25 * sr), 0,
                                                 lambda: splits.test[0])
        write_wav(sample_dir / f"iter_{it:02d}.wav", wave, sr)


def _emit_embed_reports(out: Path, trace: pruning.ImpTrace,
                        profiles: list[embed.PlatformProfile]):
    write_csv(out / "embed_reports.csv", ["iteration"] + embed.REPORT_COLUMNS,
              ([r.iteration] + embed.report_row(embed.feasibility(
                  r.flops_per_second_audio, r.disk_bytes, r.rw_accesses,
                  r.working_set_bytes, p, r.test_error_multiplier))
               for r in trace.records for p in profiles))


def _emit_pareto(out: Path, trace: pruning.ImpTrace):
    points = [(r.test_error_multiplier, r.flops_per_second_audio)
              for r in trace.records]
    write_csv(out / "pareto.csv",
               ["flops_per_second_audio", "test_error_multiplier"],
               ([f"{cost:.10g}", f"{err:.10g}"]
                for err, cost in embed.pareto_front(points)))


def _blas_threads() -> str:
    """The thread count numpy's OpenBLAS runs with, asked of the loaded
    library itself, or "unknown" where it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    # numpy's own copy (under numpy/ or the wheel's numpy.libs/) first; a
    # path that no longer loads (a library replaced mid-run) is passed over
    ours = str(Path(np.__file__).parent)
    for path in sorted(paths, key=lambda p: (not p.startswith(ours), p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return str(get())
    return "unknown"


def _write_manifest(out: Path, cfg: ExperimentConfig, status: str):
    # WaveNet bytes depend on the numpy build and the BLAS thread count,
    # so both are stamped beside the config hash, never hashed into it
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [f"status: {status}",
             f"config_hash: {config_hash(cfg)}",
             f"numpy: {np.__version__}",
             f"blas: {blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip(),
             f"blas_threads: {_blas_threads()}",
             f"written_at: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
             "artifacts:"]
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "MANIFEST.txt":
            lines.append(f"  {p.relative_to(out)} ({p.stat().st_size} bytes)")
    (out / "MANIFEST.txt").write_text("\n".join(lines) + "\n")


def _incomplete(exc: Exception) -> str:
    return f"incomplete ({type(exc).__name__}: {exc})"


def _write_config(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return out


def _run_arm(cfg: ExperimentConfig, prune) -> pruning.ImpTrace:
    """One run directory: config.json, each record's checkpoint as
    ``prune(on_record)`` makes it, the reports drawn from the trace it
    returns, then the MANIFEST (marked incomplete, and the error
    re-raised, when any step fails)."""
    out = _write_config(cfg)
    try:
        trace, splits, profiles = prune(lambda record, net: nn.save_checkpoint(
            net, out / f"iter_{record.iteration:02d}.ckpt"))
        _emit_trace(out, trace)
        _emit_embed_reports(out, trace, profiles)
        _emit_pareto(out, trace)
        if cfg.emit_samples:
            _emit_samples(out, trace, splits, cfg.dataset.sr)
    except Exception as exc:
        _write_manifest(out, cfg, _incomplete(exc))
        raise
    status = "complete"
    if trace.aborted:
        status = f"complete (aborted: {trace.aborted})"
    elif trace.stopped:
        status = f"complete (stopped: {trace.stopped})"
    _write_manifest(out, cfg, status)
    return trace


def run_experiment(cfg: ExperimentConfig) -> pruning.ImpTrace:
    """Dense baseline + IMP per the config; artifacts land in output_dir."""
    def prune(on_record):
        profiles = embed.load_platforms(cfg.platforms)
        splits, net, trainer = setup(cfg)
        return (pruning.run_imp(net, splits, cfg.imp, trainer, on_record=on_record),
                splits, profiles)
    return _run_arm(cfg, prune)


def run_arms(cfg: ExperimentConfig, arms: dict) -> dict:
    """IMP arms (name -> ImpConfig) that share one dense start.

    The net is built and trained once, as cfg and the arms' one
    ``rewind_step`` say, and each arm prunes its own clone of it under
    output_dir/<name>. Each arm directory holds, byte for byte, what
    run_experiment writes for cfg with the arm's ImpConfig and directory,
    apart from the MANIFEST timestamp. A bad platforms file or a failed
    dense phase leaves each arm its config.json and an incomplete MANIFEST.
    """
    out = Path(cfg.output_dir)
    subs = {name: dataclasses.replace(cfg, imp=imp, output_dir=str(out / name))
            for name, imp in arms.items()}
    try:
        profiles = embed.load_platforms(cfg.platforms)
        splits, net, trainer = setup(cfg)
        dense = pruning.train_dense(net, splits, list(arms.values()), trainer)
    except Exception as exc:
        for sub in subs.values():
            _write_manifest(_write_config(sub), sub, _incomplete(exc))
        raise
    return {name: _run_arm(sub, lambda on_record, imp=sub.imp: (pruning.prune_from(
                dense, splits, imp, trainer, on_record=on_record), splits, profiles))
            for name, sub in subs.items()}


def run_paired(cfg: ExperimentConfig) -> dict:
    """Mask-vs-trim comparison: two arms of run_arms, pruning one dense
    start, that share the config except for the pruning mode (the mask
    arm ranks weights by magnitude). Emits paired.csv with the two
    multiplier curves keyed by their weight-remaining fractions."""
    out = Path(cfg.output_dir)
    traces = run_arms(cfg, {
        mode: dataclasses.replace(
            cfg.imp, mode=mode,
            criterion=cfg.imp.criterion if mode == "trim" else "magnitude")
        for mode in ("trim", "mask")})
    rows = []
    for i in range(max(len(t.records) for t in traces.values())):
        row = [i]
        for recs in (traces["trim"].records, traces["mask"].records):
            row += ([f"{recs[i].weights_remaining_frac:.10g}",
                     f"{recs[i].test_error_multiplier:.10g}"]
                    if i < len(recs) else ["", ""])
        rows.append(row)
    write_csv(out / "paired.csv",
               ["iteration", "trim_weights_remaining_frac", "trim_error_multiplier",
                "mask_weights_remaining_frac", "mask_error_multiplier"], rows)
    return traces
