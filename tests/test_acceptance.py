"""End-to-end acceptance checks, one test per shipped guarantee.

 1. trimming a network equals masking it, on randomized nets and plans
 2. autodiff gradients match central finite differences on every primitive
    in src, and a train step of each arch builds only those primitives
 3. the MI estimator recovers analytic values on correlated Gaussians
 4. 15 rounds of 30% weight masking remove ~99.5% of maskable weights
 5. closed-form FLOP counts equal an instrumented scalar-op counter
 6. shipped platform profiles are exact and verdicts are the inequalities
 7. deep magnitude masking leaves most units physically unremovable
 8. tiny-DDSP trim runs stay near baseline error even when cut deep
 9. global selection beats local selection at moderate trim depths
10. identical config and seed reproduce the trace CSV byte for byte

Each test prints one summary line; run with ``pytest -rA`` to see them
for passing tests too (pytest shows captured output of failures anyway).
"""

import statistics
import time
import zlib

import numpy as np
import pytest

from audiotrim import embed, harness, mi, models, nn, pruning
from audiotrim import tensor as T

from conftest import (gated_conv1d, mask_units, no_training, nll_from_logits_node,
                      relu_clear_trunk, stft_logmag_node, use_spec,
                      wavenet_trunk_node)
from test_embed import random_chain, sim_net_ops, tiny_arch_net
from test_models import ddsp_batch, tiny_ddsp_cfg, tiny_sing_cfg, tiny_wavenet_cfg

SEEDS = (0, 1, 2)


def _line(tag: str, msg: str):
    print(f"[{tag}] PASS {msg}")


# -- 1. trim / mask equivalence ---------------------------------------------------


def _rand_conv_net(rng):
    cin = int(rng.integers(1, 4))
    c1 = int(rng.integers(3, 9))
    c2 = int(rng.integers(3, 8))
    layers = [
        nn.make_conv("c1", cin, c1, int(rng.integers(1, 4)), rng),
        nn.make_batchnorm("b1", c1, in_source="c1"),
        nn.make_conv("c2", c1, c2, int(rng.integers(1, 4)), rng,
                     dilation=int(rng.integers(1, 3)), in_source="c1"),
        nn.make_conv("head", c2, int(rng.integers(1, 4)), 1, rng, in_source="c2"),
    ]
    bn = layers[1]
    bn.params["gamma"].data = (0.5 + rng.random(c1)).astype(np.float32)
    bn.params["beta"].data = rng.standard_normal(c1).astype(np.float32)
    bn.buffers["running_mean"] = rng.standard_normal(c1).astype(np.float32)
    bn.buffers["running_var"] = (0.5 + rng.random(c1)).astype(np.float32)
    net = nn.Network("sequential", layers, trim_groups=[["c1", "b1"]],
                     protected={"head"},
                     meta={"activations": {"b1": "tanh", "c2": "relu"}})
    x = rng.standard_normal((2, cin, int(rng.integers(6, 14)))).astype(np.float32)
    return net, x


def _rand_mlp_net(rng):
    d0 = int(rng.integers(2, 6))
    d1 = int(rng.integers(3, 9))
    d2 = int(rng.integers(3, 8))
    layers = [
        nn.make_linear("f1", d0, d1, rng),
        nn.make_linear("f2", d1, d2, rng, in_source="f1"),
        nn.make_linear("head", d2, int(rng.integers(1, 4)), rng, in_source="f2"),
    ]
    net = nn.Network("sequential", layers, protected={"head"},
                     meta={"activations": {"f1": "tanh", "f2": "sigmoid"}})
    x = rng.standard_normal((3, d0)).astype(np.float32)
    return net, x


def _rand_gru_net(rng):
    d0 = int(rng.integers(2, 5))
    h = int(rng.integers(3, 8))
    layers = [
        nn.make_gru("g", d0, h, rng),
        nn.make_linear("head", h, int(rng.integers(1, 4)), rng, in_source="g"),
    ]
    for gate in ("z", "r", "h"):
        layers[0].params["b" + gate].data = \
            0.1 * rng.standard_normal(h).astype(np.float32)
    net = nn.Network("sequential", layers, protected={"head"})
    x = rng.standard_normal((2, int(rng.integers(3, 8)), d0)).astype(np.float32)
    return net, x


def _rand_plan(net, rng):
    plan = {}
    for pid, pool in net.pools.items():
        n = len(pool.kept)
        k = int(rng.integers(0, n))
        if k:
            plan[pid] = np.sort(rng.choice(n, size=k, replace=False))
    return plan


def test_trimming_equals_masking_on_random_networks():
    t0 = time.perf_counter()
    families = (_rand_conv_net, _rand_conv_net, _rand_mlp_net, _rand_gru_net)
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        net, x = families[i % 4](rng)
        plan = _rand_plan(net, rng)
        trimmed = nn.apply_trim(net, plan)
        masked = mask_units(net, plan)
        # batch statistics only differ from running ones for the bn family
        training = i % 8 == 0
        for m in (trimmed, masked):
            m.train() if training else m.eval()
        yt = models.forward(trimmed, T.Tensor(x)).data
        ym = models.forward(masked, T.Tensor(x)).data
        assert yt.shape == ym.shape
        gap = float(np.abs(yt - ym).max())
        assert gap <= 1e-6, f"pair {i}: trim vs mask gap {gap:.3g} > 1e-6"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line("01 trim equivalence",
          f"200 (network, plan) pairs agree; max gap {worst:.2e} "
          f"(tolerance 1e-6), {elapsed:.1f}s")


# -- 2. gradient correctness ------------------------------------------------------


def _signed(rng, shape):
    """Values in +-[0.5, 1.5]: a safe margin from every kink at zero."""
    return ((0.5 + rng.random(shape)) * rng.choice((-1.0, 1.0), shape)) \
        .astype(np.float32)


def _op_bank():
    """One graph builder per differentiable primitive.

    Each entry maps an rng to (op, x0) where op is a pure function of one
    tensor; constants are frozen before the closure so repeated calls
    (backward once, two finite-difference probes) see the same graph.
    """
    def add(rng):
        c = T.Tensor(_signed(rng, (3, 4)))
        return lambda t: T.add(t, c), _signed(rng, (3, 4))

    def sub(rng):
        c = T.Tensor(_signed(rng, (3, 4)))
        return lambda t: T.sub(c, t), _signed(rng, (3, 4))

    def mul(rng):
        c = T.Tensor(_signed(rng, (2, 5)))
        return lambda t: T.mul(t, c), _signed(rng, (2, 5))

    def div(rng):
        c = T.Tensor(_signed(rng, (2, 4)))
        down = T.Tensor(np.float32(0.8))
        return (lambda t: T.div(c, T.add(T.mul(t, t), down)),
                _signed(rng, (2, 4)))

    def matmul(rng):
        c = T.Tensor(_signed(rng, (4, 5)))
        return lambda t: T.matmul(t, c), _signed(rng, (3, 4))

    def conv(rng):
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w = T.Tensor(_signed(rng, (co, ci, int(rng.integers(1, 4)))))
        dil = int(rng.integers(1, 3))
        return (lambda t: T.conv1d_dilated_causal(t, w, dil),
                _signed(rng, (2, ci, 10)))

    def gated(rng):
        ci, co, k = (int(rng.integers(1, 4)) for _ in range(3))
        wf, wg = (T.Tensor(0.5 * _signed(rng, (co, ci, k))) for _ in range(2))
        bf, bg = (T.Tensor(0.5 * _signed(rng, (co,))) for _ in range(2))
        dil = int(rng.integers(1, 3))
        return (lambda t: gated_conv1d(t, wf, bf, wg, bg, dil),
                _signed(rng, (2, ci, 10)))

    def sigmoid(rng):
        return lambda t: T.sigmoid(t), _signed(rng, (3, 5))

    def tanh(rng):
        return lambda t: T.tanh(t), _signed(rng, (3, 5))

    def relu(rng):
        return lambda t: T.relu(t), _signed(rng, (4, 4))

    def tsqrt(rng):
        up = T.Tensor(np.float32(0.3))
        return lambda t: T.tsqrt(T.add(T.mul(t, t), up)), _signed(rng, (3, 4))

    def tsum(rng):
        return lambda t: T.tsum(t, axis=1, keepdims=True), _signed(rng, (3, 6))

    def tmean(rng):
        return lambda t: T.tmean(t, axis=0), _signed(rng, (4, 5))

    def reshape(rng):
        return lambda t: T.reshape(t, (2, -1)), _signed(rng, (4, 3))

    def transpose(rng):
        return lambda t: T.transpose(t, (1, 0, 2)), _signed(rng, (2, 3, 4))

    def stft_logmag(rng):
        # a floor of 1 keeps the log's curvature within float32 differencing
        cfg = T.SpectrogramConfig(window_sizes=(32,), floor_epsilon=1.0)
        return lambda t: stft_logmag_node(t, cfg)[0], _signed(rng, (2, 80))

    def spectral_loss(rng):
        # the target lies +-[0.5, 1.5] from the signal's own log power, so
        # no probe crosses the kink of |.|; a mean over many bins is too
        # flat for the probe's noise floor
        cfg = T.SpectrogramConfig(window_sizes=(32, 64), floor_epsilon=1.0)
        x0 = _signed(rng, (2, 80))
        target = [q + _signed(rng, q.shape) for q in T.stft_logmag(x0, cfg)]
        up = T.Tensor(np.float32(64.0))
        return (lambda t: T.mul(models.multiscale_spectral_loss(t, target, cfg), up),
                x0)

    def gru_scan(rng):
        layer = nn.make_gru("g", 3, 4, rng)
        return lambda t: nn.gru_scan(layer, t), _signed(rng, (2, 5, 3))

    def nll(rng):
        # the class head and its NLL; a mean over few positions is too flat
        # for the probe's noise floor
        head = nn.make_conv("out2", 3, 4, 1, rng)
        targets = rng.integers(0, 4, size=(2, 3))
        up = T.Tensor(np.float32(64.0))
        return (lambda t: T.mul(nll_from_logits_node(t, head, targets), up),
                _signed(rng, (2, 3, 3)))

    def frame_lerp(rng):
        # the three synthesis heads at once: a per-item basis, a shared one
        # and none (one channel), the last scaling the sum of the others
        b, f, hop, k = (int(rng.integers(1, n)) for n in (3, 5, 6, 4))
        own, shared = _signed(rng, (b, f * hop, k)), _signed(rng, (f * hop, k))

        def op(t):
            amp = T.frame_lerp(T.tsum(t, axis=-1, keepdims=True), hop)
            return T.mul(amp, T.add(T.frame_lerp(t, hop, own),
                                    T.frame_lerp(t, hop, shared)))
        return op, _signed(rng, (b, f, k))

    def trunk(rng):
        # a trimmed two-block WaveNet trunk node at the input x0, with
        # every relu input clear of zero there, probed through in_conv's
        # weight, which feeds every block
        x0 = _signed(rng, (2, 1, 10))
        net = relu_clear_trunk(rng, x0)
        params = net.layers["in_conv"].params

        def op(t):
            params["w"] = t
            return wavenet_trunk_node(net, T.Tensor(x0))
        return op, params["w"].data.copy()

    def wavenet_loss(rng):
        # the WaveNet loss of that trunk on a batch whose inputs are x0,
        # probed through in_conv's weight, which feeds every block
        x0 = _signed(rng, (2, 1, 10))
        net = relu_clear_trunk(rng, x0)
        batch = {"wave": np.concatenate([x0[:, 0], _signed(rng, (2, 1))], axis=1)}
        params = net.layers["in_conv"].params
        up = T.Tensor(np.float32(64.0))

        def op(t):
            params["w"] = t
            return T.mul(models.compute_loss(net, batch), up)
        return op, params["w"].data.copy()

    return [add, sub, mul, div, matmul, conv, gated, sigmoid, tanh, relu,
            tsqrt, tsum, tmean, reshape, transpose, stft_logmag, spectral_loss,
            gru_scan, nll, frame_lerp, trunk, wavenet_loss]


def _probe(entry, rng):
    """(f, c, x0, v, d): the loss f(x) = sum(c * op(x)) of the entry's
    primitive as a function of a float array, the weights c, the point
    x0, a unit direction v and backward()'s derivative d of f along v.

    A scalar output is weighted by the sign of its normal draw: one small
    draw would otherwise shrink the whole gradient below the probe floor."""
    op, x0 = entry(rng)
    with T.no_grad():
        probe = op(T.Tensor(x0))
    c = rng.standard_normal(probe.shape).astype(np.float32)
    if c.size == 1:
        c = np.sign(c)

    def loss(t):
        return T.tsum(T.mul(op(t), T.Tensor(c)))

    def f(arr):
        return float(loss(T.Tensor(arr.astype(np.float32))).data)

    x = T.Tensor(x0, requires_grad=True)
    loss(x).backward()
    g = x.grad.astype(np.float64)

    # the float32 forward gives the difference quotient a noise floor of
    # roughly machine-eps * |f| / eps, so probe along a direction whose
    # derivative stands well clear of it
    floor = max(0.1, 0.02 * abs(f(x0)))
    ana, v = 0.0, None
    for _ in range(16):
        cand = rng.standard_normal(x0.shape)
        cand /= np.linalg.norm(cand)
        d = float((g * cand).sum())
        if abs(d) > abs(ana):
            ana, v = d, cand
        if abs(ana) >= floor:
            break
    else:
        # no random direction cleared the floor: g / |g| has the steepest
        # derivative there is, |g|
        ana = float(np.linalg.norm(g))
        assert ana >= 0.1, "no usable probe direction (degenerate gradient)"
        v = g / ana
    return f, c, x0, v, ana


def _directional_rel_err(entry, rng, eps=8e-3):
    f, _, x0, v, ana = _probe(entry, rng)
    num = (f(x0 + eps * v) - f(x0 - eps * v)) / (2 * eps)
    return abs(num - ana) / max(abs(num), abs(ana))


def _grad_seeds(name):
    """A primitive's own graph seeds, keyed by its name, so adding or
    moving a primitive in _op_bank leaves every other one's cases as
    they are."""
    return [zlib.crc32(f"{name}/{j}".encode()) for j in range(5)]


def test_gradients_match_finite_differences_on_every_primitive():
    t0 = time.perf_counter()
    bank = _op_bank()
    worst, n_graphs = 0.0, 0
    for builder in bank:
        for seed in _grad_seeds(builder.__name__):
            rel = _directional_rel_err(builder, np.random.default_rng(seed))
            assert rel < 1e-3, (
                f"{builder.__name__} seed {seed}: "
                f"relative gradient error {rel:.3g} >= 1e-3")
            worst, n_graphs = max(worst, rel), n_graphs + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line("02 gradients",
          f"{n_graphs} graphs over {len(bank)} primitives; worst relative "
          f"error {worst:.2e} (tolerance 1e-3), {elapsed:.1f}s")


def _ops_built(run, monkeypatch) -> set[str]:
    """The op name of every graph node T._node builds while run() runs."""
    ops, node = set(), T._node

    def recording(data, parents, op, backward=None):
        ops.add(op)
        return node(data, parents, op, backward)

    with monkeypatch.context() as m:
        m.setattr(T, "_node", recording)
        run()
    return ops


def _bank_ops(monkeypatch) -> set[str]:
    def run():
        rng = np.random.default_rng(0)
        for builder in _op_bank():
            op, x0 = builder(rng)
            T.tsum(op(T.Tensor(x0, requires_grad=True))).backward()
    return _ops_built(run, monkeypatch)


@pytest.mark.parametrize("cfg_fn", [tiny_ddsp_cfg, tiny_wavenet_cfg, tiny_sing_cfg])
def test_train_step_builds_only_gradchecked_ops(cfg_fn, monkeypatch):
    cfg = cfg_fn()
    net = models.build_model(cfg, seed=0).train()
    batch = ddsp_batch(cfg)
    step = _ops_built(lambda: models.compute_loss(net, batch).backward(),
                      monkeypatch)
    bank = _bank_ops(monkeypatch)
    assert step and step <= bank, sorted(step - bank)


# -- 3. MI estimator oracle -------------------------------------------------------


def test_mi_estimator_recovers_gaussian_ground_truth():
    t0 = time.perf_counter()
    n = 10_000
    cfg = mi.MiConfig(max_samples=n)
    summary = []
    for rho, tol in ((0.0, None), (0.5, 0.10), (0.9, 0.15)):
        target = -0.5 * np.log1p(-rho * rho)
        ests = []
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(n)
            y = rho * z + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
            est = mi.estimate_mi(z, y, cfg, seed=seed)
            if tol is None:
                assert est < 0.05, f"rho=0 seed {seed}: {est:.4f} >= 0.05 nats"
            else:
                assert abs(est - target) <= tol, (
                    f"rho={rho} seed {seed}: {est:.4f} vs analytic "
                    f"{target:.4f} (tolerance {tol})")
            ests.append(est)
        summary.append(f"rho={rho}: {np.mean(ests):.3f}/{target:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line("03 MI oracle",
          f"N={n}, 3 seeds, est/analytic " + ", ".join(summary)
          + f", {elapsed:.1f}s")


# -- 4. masking schedule arithmetic -----------------------------------------------


def test_fifteen_rounds_of_thirty_percent_masking(monkeypatch):
    rng = np.random.default_rng(0)
    net = nn.Network("sequential", [nn.make_linear("fc", 200, 100, rng)],
                     meta={"config": {"sample_rate": 8000}})
    w = net.layers["fc"].params["w"]
    data = pruning.Splits(train=[{}], valid=[{}], test=[{}])
    cfg = pruning.ImpConfig(mode="mask", iterations=15, selection="global")
    use_spec(monkeypatch, net, loss=lambda n, b: T.tsum(T.mul(w, w)))
    trace = pruning.run_imp(net, data, cfg, no_training)

    maskable = pruning.full_mask(net).total()
    _, total = net.weight_counts()
    alive, floored = maskable, False
    for _ in range(15):
        take = int(0.3 * alive + 0.5)
        floored |= take > alive - 1
        alive -= min(take, alive - 1)
    assert not floored, "keep-floor engaged; schedule arithmetic untestable"

    assert len(trace.records) == 16 and trace.stopped is None
    measured = trace.records[-1].weights_remaining_frac * total - (total - maskable)
    assert round(measured) == alive
    frac = alive / maskable
    gap = abs(frac - 0.7 ** 15)
    assert gap < 5e-4
    _line("04 schedule",
          f"15 rounds leave {alive}/{maskable} weights = {frac:.6f} vs "
          f"0.7^15 = {0.7 ** 15:.6f} (|gap| {gap:.1e} < 5e-4, floor never hit)")


# -- 5. FLOPs closed form vs instrumented count -----------------------------------


def test_flop_closed_forms_match_instrumented_counter():
    checked = 0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        net = random_chain(rng) if i % 2 else tiny_arch_net(rng)
        closed = sum(embed.layer_flops(layer) for layer in net.layers.values())
        walked = sim_net_ops(net)
        assert closed == walked, (
            f"net {i}: closed form {closed} != instrumented {walked}")
        checked += 1
    _line("05 FLOPs", f"closed form equals op walk exactly on {checked} nets")


# -- 6. platform table and verdict inequalities -----------------------------------


def test_platform_table_and_feasibility_verdicts():
    rows = {p.name: p for p in embed.load_platforms()}
    expect = {
        "ATMega1280": (16e6, 160e3, 128e3, 8e3),
        "ATMega2560": (32e6, 320e3, 256e3, 16e3),
        "RPi 1B": (700e6, 41e6, 256e6, 512e6),
        "RPi 2B": (900e6, 53e6, 1e9, 1e9),
    }
    assert set(rows) == set(expect)
    cells = 0
    for name, vals in expect.items():
        p = rows[name]
        got = (p.cpu_hz, p.flops_per_sec, p.drive_bytes, p.ram_bytes)
        assert got == vals, f"{name}: {got} != {vals}"
        cells += 4

    rng = np.random.default_rng(4)
    profiles = list(rows.values())
    for i in range(1000):
        flops = float(10 ** rng.uniform(0, 9))
        disk = int(10 ** rng.uniform(0, 9))
        ws = int(10 ** rng.uniform(0, 9))
        prof = profiles[i % len(profiles)] if i % 2 else embed.PlatformProfile(
            "r", 1e6, float(10 ** rng.uniform(0, 9)),
            int(10 ** rng.uniform(0, 9)), int(10 ** rng.uniform(0, 9)))
        rep = embed.feasibility(flops, disk, 7.0, ws, prof)
        assert rep.realtime_ok == (flops <= prof.flops_per_sec)
        assert rep.embeddable_ok == (disk <= prof.drive_bytes
                                     and ws <= prof.ram_bytes)
    _line("06 platforms",
          f"{cells} profile cells exact; verdicts equal their inequalities "
          f"on 1000 random cost/profile pairs")


# -- 7. deep masking vs physical removability --------------------------------------


def test_deep_masking_leaves_most_units_unremovable():
    t0 = time.perf_counter()
    mc = models.ModelConfig(arch="sing_ae", sample_rate=8000, conv_channels=48,
                            n_conv_layers=5, sing_kernel=5,
                            spec_windows=(64, 128))
    net = models.build_model(mc, seed=0)
    items = harness.gen_synthetic_tones(10, 8000, 0.25, seed=0)
    splits = harness.build_splits(harness.split_dataset(items, seed=0),
                                  batch_size=8)
    cfg = pruning.ImpConfig(mode="mask", iterations=13, selection="local",
                            criterion="magnitude")
    trace = pruning.run_imp(net, splits, cfg, no_training)

    maskable = pruning.full_mask(net).total()
    _, total = net.weight_counts()
    last = trace.records[-1]
    sparsity = (1.0 - last.weights_remaining_frac) * total / maskable
    removable = 1.0 - last.units_remaining_frac
    assert sparsity >= 0.99, f"only reached {sparsity:.4f} masked sparsity"
    assert removable < 0.50, (
        f"removable unit fraction {removable:.3f} not below 0.5")
    elapsed = time.perf_counter() - t0
    _line("07 prunability gap",
          f"{sparsity:.2%} of weights masked yet only {removable:.1%} of "
          f"units removable, {elapsed:.1f}s")


# -- 8/9. lottery behavior on tiny-DDSP ---------------------------------------------


def _lottery_arms(seed: int, out) -> dict[str, pruning.ImpTrace]:
    """The global (12 iterations) and local (2 iterations) arms of one
    seed, pruning one dense start."""
    cfg = harness.ExperimentConfig(
        model=models.ModelConfig(arch="ddsp", gru_units=16, dense_units=16,
                                 n_partials=12, noise_bins=9,
                                 spec_windows=(64, 128, 256)),
        dataset=harness.DatasetConfig(n_items=60, duration=0.5),
        training=harness.TrainingConfig(epochs=6, batch_size=16),
        output_dir=out,
        seed=seed,
        emit_samples=False,
    )
    return harness.run_arms(cfg, {
        selection: pruning.ImpConfig(iterations=iterations, mode="trim",
                                     criterion="information",
                                     selection=selection, rewind_step=3)
        for selection, iterations in (("global", 12), ("local", 2))})


@pytest.fixture(scope="module")
def lottery_curves(tmp_path_factory):
    base = tmp_path_factory.mktemp("lottery")
    t0 = time.perf_counter()
    runs = {s: _lottery_arms(s, base / f"s{s}") for s in SEEDS}
    curves = {sel: {s: runs[s][sel] for s in SEEDS} for sel in ("global", "local")}
    curves["elapsed"] = time.perf_counter() - t0
    return curves


def _deepest_at_units(trace: pruning.ImpTrace, floor: float) -> pruning.ImpRecord:
    kept = [r for r in trace.records if r.units_remaining_frac >= floor]
    return kept[-1]


def test_tiny_ddsp_lottery_keeps_error_near_baseline(lottery_curves):
    traces = lottery_curves["global"]

    shallow = [_deepest_at_units(traces[s], 0.30) for s in SEEDS]
    med_shallow = statistics.median(r.test_error_multiplier for r in shallow)
    removed = [1.0 - r.units_remaining_frac for r in shallow]
    assert all(r <= 0.70 for r in removed)
    assert med_shallow <= 1.15, (
        f"median multiplier {med_shallow:.3f} > 1.15 with "
        f"{max(removed):.0%} of units removed")

    deep = []
    for s in SEEDS:
        past = [r for r in traces[s].records
                if r.weights_remaining_frac <= 0.05]
        assert past, f"seed {s} never reached 95% of weights removed"
        deep.append(past[0])
    med_deep = statistics.median(r.test_error_multiplier for r in deep)
    assert med_deep <= 2.0, f"median multiplier {med_deep:.3f} > 2.0"

    assert lottery_curves["elapsed"] < 3600.0
    _line("08 lottery quality",
          f"median multiplier {med_shallow:.3f} <= 1.15 at "
          f"{statistics.median(removed):.0%} units removed; {med_deep:.3f} "
          f"<= 2.0 past 95% weights removed; runs took "
          f"{lottery_curves['elapsed']:.0f}s")


def test_global_selection_beats_local_at_moderate_depth(lottery_curves):
    picks = {}
    for mode in ("global", "local"):
        recs = [_deepest_at_units(lottery_curves[mode][s], 0.40) for s in SEEDS]
        assert all(1.0 - r.units_remaining_frac <= 0.60 for r in recs)
        picks[mode] = statistics.median(r.test_error_multiplier for r in recs)
    assert picks["global"] <= picks["local"], (
        f"global median {picks['global']:.3f} > local {picks['local']:.3f}")
    _line("09 global vs local",
          f"at <=60% units removed, global median {picks['global']:.3f} <= "
          f"local {picks['local']:.3f} on the same seeds")


# -- 10. determinism ----------------------------------------------------------------


def test_identical_config_and_seed_reproduce_trace_bytes(tmp_path):
    def run(out):
        cfg = harness.ExperimentConfig(
            model=models.ModelConfig(arch="sing_ae", conv_channels=8,
                                     n_conv_layers=2, sing_kernel=5,
                                     spec_windows=(32, 64)),
            dataset=harness.DatasetConfig(n_items=12, duration=0.25),
            training=harness.TrainingConfig(epochs=2, batch_size=8),
            imp=pruning.ImpConfig(iterations=2, criterion="magnitude",
                                  selection="local", rewind_step=2),
            output_dir=out,
            seed=7,
            emit_samples=False,
        )
        harness.run_experiment(cfg)
        return (out / "trace.csv").read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second, "trace CSV differs between identical runs"
    _line("10 determinism",
          f"two runs, identical {len(first)}-byte trace CSVs")
