"""Selection, masking, rewinding, and driver tests.

The schedule arithmetic is checked against an integer recurrence oracle
(alive counts shrink by round-half-up of the fraction each round), and
trimming is checked against the masked-dense oracle at every iteration.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiotrim import embed, harness, models, nn, pruning
from audiotrim import tensor as T
from conftest import adam, mask_units, no_training, units_original, use_spec


# the wrapped objective of the custom-loss runs below
SING_LOSS = models.arch_spec("sing_ae").loss


def round_half_up(x):
    return int(x + 0.5)


def sing_cfg(ch=8, layers=3):
    return models.ModelConfig(arch="sing_ae", conv_channels=ch,
                              n_conv_layers=layers, sing_kernel=5,
                              spec_windows=(32, 64))


def tone_batch(rng, n=4, t=256, sr=16000):
    tt = np.arange(t) / sr
    waves = [np.sin(2 * np.pi * rng.uniform(200, 2000) * tt)
             * rng.uniform(0.3, 0.9) for _ in range(n)]
    return {"wave": np.stack(waves).astype(np.float32)}


def make_splits(seed=0, n_train=3, t=256):
    rng = np.random.default_rng(seed)
    return pruning.Splits(
        train=[tone_batch(rng, 4, t) for _ in range(n_train)],
        valid=[tone_batch(rng, 1, t) for _ in range(3)],
        test=[tone_batch(rng, 1, t) for _ in range(3)],
    )


class TestSelectUnits:
    def test_local_removes_forced_counts(self):
        rng = np.random.default_rng(0)
        scores = {"a": rng.random(10), "b": rng.random(10)}
        plan = pruning.select_units(scores, 0.3, "local")
        assert {k: len(v) for k, v in plan.items()} == {"a": 3, "b": 3}
        for pid in scores:
            expect = np.sort(np.argsort(scores[pid])[:3])
            assert np.array_equal(plan[pid], expect)

    def test_global_drains_the_weak_layer(self):
        scores = {"a": np.ones(10), "b": np.full(10, 0.1)}
        plan = pruning.select_units(scores, 0.3, "global")
        assert set(plan) == {"b"}
        assert np.array_equal(plan["b"], np.arange(6))

    def test_zero_fraction_empty_plan(self):
        scores = {"a": np.ones(4)}
        assert pruning.select_units(scores, 0.0, "local") == {}
        assert pruning.select_units(scores, 0.0, "global") == {}

    def test_uniform_global_matches_local_counts(self):
        # tie-break audit: even shrink across equal pools
        scores = {"a": np.ones(10), "b": np.ones(10), "c": np.ones(10)}
        local = pruning.select_units(scores, 0.3, "local")
        glob = pruning.select_units(scores, 0.3, "global")
        assert {k: len(v) for k, v in glob.items()} \
            == {k: len(v) for k, v in local.items()}

    def test_min_units_caps_each_pool(self):
        scores = {"a": np.arange(4.0)}
        plan = pruning.select_units(scores, 0.9, "local", min_units=2)
        assert len(plan["a"]) == 2
        plan = pruning.select_units(scores, 0.9, "global", min_units=2)
        assert len(plan["a"]) == 2

    def test_everything_clamped_is_an_error(self):
        scores = {"a": np.ones(1), "b": np.ones(1)}
        for sel in ("local", "global"):
            with pytest.raises(ValueError, match="min_units"):
                pruning.select_units(scores, 0.6, sel)

    def test_ties_break_by_unit_index(self):
        scores = {"a": np.zeros(5)}
        plan = pruning.select_units(scores, 0.4, "local")
        assert np.array_equal(plan["a"], [0, 1])

    def test_global_min_units_redistributes(self):
        # the weak pool caps out; the remainder comes from the next scores up
        scores = {"a": np.full(4, 0.1), "b": np.full(4, 1.0)}
        plan = pruning.select_units(scores, 0.5, "global", min_units=1)
        assert len(plan["a"]) == 3 and len(plan["b"]) == 1

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            pruning.select_units({"a": np.ones(3)}, 1.0, "local")
        with pytest.raises(ValueError, match="selection"):
            pruning.select_units({"a": np.ones(3)}, 0.3, "both")
        with pytest.raises(ValueError, match="no pools"):
            pruning.select_units({}, 0.3, "local")


class TestSelectWeights:
    def net(self, seed=0):
        rng = np.random.default_rng(seed)
        return nn.Network("custom", [
            nn.make_linear("a", 10, 10, rng),
            nn.make_linear("b", 10, 10, rng, in_source="a"),
        ])

    def test_first_round_keeps_seventy_of_hundred(self):
        net = nn.Network("custom", [nn.make_linear("a", 10, 10,
                                                   np.random.default_rng(0))])
        mask = pruning.select_weights(net, 0.3, "local")
        assert mask.alive() == 70

    def test_second_round_keeps_fortynine(self):
        net = nn.Network("custom", [nn.make_linear("a", 10, 10,
                                                   np.random.default_rng(0))])
        mask = pruning.select_weights(net, 0.3, "local")
        mask = pruning.select_weights(net, 0.3, "local", mask=mask)
        assert mask.alive() == 49

    def test_masked_weights_never_resurrect(self):
        net = self.net()
        mask = pruning.select_weights(net, 0.3, "global")
        dead_before = {k: ~m.copy() for k, m in mask.entries.items()}
        mask2 = pruning.select_weights(net, 0.3, "global", mask=mask)
        for k in mask2.entries:
            assert np.all(mask2.entries[k][dead_before[k]] == False)  # noqa: E712

    def test_selection_targets_smallest_magnitudes(self):
        rng = np.random.default_rng(1)
        net = nn.Network("custom", [nn.make_linear("a", 4, 4, rng)])
        w = net.layers["a"].params["w"]
        w.data = np.arange(16, dtype=np.float32).reshape(4, 4) + 1.0
        mask = pruning.select_weights(net, 0.25, "local")
        assert np.array_equal(np.flatnonzero(~mask.entries["a.w"].ravel()),
                              np.arange(4))

    def test_global_drains_small_magnitude_layer(self):
        net = self.net()
        net.layers["a"].params["w"].data[:] = 0.01
        net.layers["b"].params["w"].data[:] = 1.0
        mask = pruning.select_weights(net, 0.3, "global")
        assert mask.entries["b.w"].all()
        assert (~mask.entries["a.w"]).sum() == 60

    def test_min_weights_floor(self):
        net = nn.Network("custom", [nn.make_linear("a", 2, 1,
                                                   np.random.default_rng(0))])
        mask = pruning.select_weights(net, 0.9, "local")
        assert mask.alive() == 1
        with pytest.raises(ValueError, match="min_weights"):
            pruning.select_weights(net, 0.9, "local", mask=mask)

    def test_population_excludes_biases_and_batchnorm(self):
        rng = np.random.default_rng(0)
        net = nn.Network("custom", [
            nn.make_conv("c", 2, 3, 3, rng),
            nn.make_batchnorm("bn", 3, in_source="c"),
            nn.make_gru("g", 3, 4, rng, in_source="c"),
        ])
        mask = pruning.full_mask(net)
        assert set(mask.entries) == {"c.w"} | {f"g.{p}" for p in
                                               ("wz", "wr", "wh", "uz", "ur", "uh")}

    def test_enforce_zeroes_dead_entries_only(self):
        net = self.net()
        before = net.param_state()
        mask = pruning.select_weights(net, 0.3, "local")
        mask.enforce(net)
        for key, m in mask.entries.items():
            lname, pname = key.split(".")
            data = net.layers[lname].params[pname].data
            assert np.all(data[~m] == 0.0)
            assert np.array_equal(data[m], before[f"{key}"][m])


@st.composite
def selection_cases(draw):
    """(scores per group, fraction, selection, floor); quarter-step scores
    are exact in float32 and tie often."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    scores = {f"g{i}": np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                              max_size=n))) / 4.0
              for i, n in enumerate(sizes)}
    return (scores, draw(st.floats(0.0, 0.95)),
            draw(st.sampled_from(["local", "global"])), draw(st.integers(1, 3)))


def expected_counts(scores, fraction, selection, floor):
    """(requested, per-group counts) for local, (requested, total) for global."""
    caps = {g: max(len(s) - floor, 0) for g, s in scores.items()}
    if selection == "local":
        asked = {g: round_half_up(fraction * len(s)) for g, s in scores.items()}
        return sum(asked.values()), {g: min(asked[g], caps[g]) for g in scores}
    want = round_half_up(fraction * sum(len(s) for s in scores.values()))
    return want, min(want, sum(caps.values()))


class TestSharedSelection:
    """select_units and select_weights are one routine: these check its
    contract through both names."""

    @given(selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_counts_floors_and_bottomness(self, case):
        scores, fraction, selection, floor = case
        requested, expected = expected_counts(scores, fraction, selection, floor)
        total = sum(expected.values()) if selection == "local" else expected
        if requested > 0 and total == 0:
            with pytest.raises(ValueError, match="min_units"):
                pruning.select_units(scores, fraction, selection, min_units=floor)
            return
        plan = pruning.select_units(scores, fraction, selection, min_units=floor)
        removed = {g: plan.get(g, np.zeros(0, dtype=np.int64)) for g in scores}
        for g, idx in removed.items():
            assert idx.dtype == np.int64 and np.all(np.diff(idx) > 0)
            assert len(scores[g]) - len(idx) >= min(floor, len(scores[g]))
        counts = {g: len(idx) for g, idx in removed.items()}
        if selection == "local":
            assert counts == expected
        else:
            assert sum(counts.values()) == expected
        for g, s in scores.items():
            kept = np.delete(s, removed[g])
            under_cap = counts[g] < len(s) - floor
            rivals = scores if selection == "global" and under_cap else [g]
            for h in rivals:
                if kept.size and counts[h]:
                    assert scores[h][removed[h]].max() <= kept.min()

    @given(selection_cases())
    @settings(max_examples=200, deadline=None)
    def test_units_and_weights_pick_the_same_indices(self, case):
        scores, fraction, selection, floor = case
        rng = np.random.default_rng(0)
        layers = [nn.make_linear(g, 1, len(s), rng) for g, s in scores.items()]
        net = nn.Network("custom", layers)
        for g, s in scores.items():
            net.layers[g].params["w"].data = s.astype(np.float32).reshape(-1, 1)
        try:
            plan = pruning.select_units(scores, fraction, selection, min_units=floor)
        except ValueError:
            with pytest.raises(ValueError, match="min_weights"):
                pruning.select_weights(net, fraction, selection, min_weights=floor)
            return
        mask = pruning.select_weights(net, fraction, selection, min_weights=floor)
        for g in scores:
            assert np.array_equal(np.flatnonzero(~mask.entries[f"{g}.w"]),
                                  plan.get(g, []))

    def test_cross_layer_weight_ties_break_by_index_before_layer(self):
        net = TestSelectWeights().net()
        for lname in ("a", "b"):
            net.layers[lname].params["w"].data[:] = 0.5
        mask = pruning.select_weights(net, 0.1, "global")
        # 20 of 200 equal weights: (|w|, index within layer, layer order)
        # alternates between the layers instead of draining the first
        for key in ("a.w", "b.w"):
            assert np.array_equal(np.flatnonzero(~mask.entries[key]), np.arange(10))


class TestPrunability:
    def test_all_ones_mask_gives_zero(self):
        net = TestSelectWeights().net()
        assert pruning.prunability_from_mask(net, pruning.full_mask(net)) == 0.0

    def test_single_dead_unit_in_hundred(self):
        rng = np.random.default_rng(0)
        net = nn.Network("custom", [
            nn.make_linear("a", 5, 100, rng),
            nn.make_linear("head", 100, 2, rng, in_source="a"),
        ], protected={"head"})
        mask = pruning.full_mask(net)
        mask.entries["a.w"][3, :] = False
        assert pruning.prunability_from_mask(net, mask) == pytest.approx(0.01)

    def test_random_sparsity_removes_far_fewer_units(self):
        rng = np.random.default_rng(2)
        net = nn.Network("custom", [nn.make_linear("a", 200, 64, rng)])
        mask = pruning.full_mask(net)
        m = mask.entries["a.w"]
        dead = rng.random(m.shape) < 0.99
        m[dead] = False
        frac = pruning.prunability_from_mask(net, mask)
        assert frac < 0.4

    def test_network_without_pools_gives_zero(self):
        net = nn.Network("custom", [nn.make_linear("a", 3, 2, np.random.default_rng(0))],
                         protected={"a"})
        assert net.pools == {}
        mask = pruning.full_mask(net)
        mask.entries["a.w"][:] = False
        assert pruning.prunability_from_mask(net, mask) == 0.0

    def test_gru_needs_all_six_rows_dead(self):
        rng = np.random.default_rng(0)
        net = nn.Network("custom", [nn.make_gru("g", 3, 4, rng)])
        mask = pruning.full_mask(net)
        for p in ("wz", "wr", "wh", "uz", "ur"):
            mask.entries[f"g.{p}"][1, :] = False
        assert pruning.prunability_from_mask(net, mask) == 0.0
        mask.entries["g.uh"][1, :] = False
        assert pruning.prunability_from_mask(net, mask) == pytest.approx(0.25)


def _sgd(net, batches, steps, lr=0.05):
    net.train()
    for i in range(steps):
        net.zero_grad()
        models.compute_loss(net, batches[i % len(batches)]).backward()
        for p in net.parameters():
            if p.grad is not None:
                p.data -= lr * p.grad
    net.zero_grad()
    net.eval()


class TestRewind:
    def test_trim_rewind_matches_masked_init_forward(self):
        net = models.build_model(sing_cfg(), seed=0)
        state0 = net.param_state()
        data = make_splits()
        _sgd(net, data.train, steps=8)
        plan = {"conv0": np.array([1, 5]), "conv1": np.array([0, 2, 7])}
        trimmed = nn.apply_trim(net, plan)
        pruning.rewind(trimmed, state0)

        # clone keeps the trained batchnorm buffers that rewinding leaves alone
        shadow = net.clone()
        shadow.load_param_state(state0)
        shadow = mask_units(shadow, plan).eval()
        x = T.Tensor(tone_batch(np.random.default_rng(9), 2)["wave"][:, None, :])
        with T.no_grad():
            a = models.forward(trimmed.eval(), x).data
            b = models.forward(shadow, x).data
        assert np.max(np.abs(a - b)) < 1e-6

    def test_trim_rewind_restores_surviving_values_exactly(self):
        net = models.build_model(sing_cfg(), seed=1)
        state0 = net.param_state()
        _sgd(net, make_splits(1).train, steps=5)
        trimmed = nn.apply_trim(net, {"conv0": np.array([2])})
        pruning.rewind(trimmed, state0)
        kept = trimmed.pools["conv0"].kept
        got = trimmed.layers["conv0"].params["w"].data
        assert np.array_equal(got, state0["conv0.w"][kept])

    def test_mask_rewind_zeroes_dead_and_restores_alive(self):
        net = models.build_model(sing_cfg(), seed=2)
        state0 = net.param_state()
        mask = pruning.select_weights(net, 0.4, "global")
        _sgd(net, make_splits(2).train, steps=5)
        pruning.rewind(net, state0, mask)
        for key, m in mask.entries.items():
            data = net.layers[key.split(".")[0]].params[key.split(".")[1]].data
            assert np.all(data[~m] == 0.0)
            assert np.array_equal(data[m], state0[key][m])

    def test_incompatible_checkpoint_rejected(self):
        net = models.build_model(sing_cfg(ch=8), seed=0)
        other = models.build_model(sing_cfg(ch=6), seed=0)
        with pytest.raises(nn.StructureError):
            pruning.rewind(net, other.param_state())
        with pytest.raises(nn.StructureError, match="unknown layer"):
            pruning.rewind(net, {"nope.w": np.zeros((2, 2))})


class TestImpConfig:
    def test_defaults_are_valid(self):
        cfg = pruning.ImpConfig()
        assert cfg.prune_fraction_per_iter == 0.30
        assert cfg.iterations == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="prune_fraction"):
            pruning.ImpConfig(prune_fraction_per_iter=1.0)
        with pytest.raises(ValueError, match="mode"):
            pruning.ImpConfig(mode="shrink")
        with pytest.raises(ValueError, match="selection"):
            pruning.ImpConfig(selection="all")
        with pytest.raises(ValueError, match="criterion"):
            pruning.ImpConfig(criterion="entropy")
        with pytest.raises(ValueError, match="per-weight"):
            pruning.ImpConfig(mode="mask", criterion="activation")
        with pytest.raises(ValueError, match="stop_error"):
            pruning.ImpConfig(stop_error_multiplier=0.0)

    def test_splits_reject_empty_parts(self):
        with pytest.raises(ValueError, match="empty valid"):
            pruning.Splits(train=[{"wave": np.zeros((1, 8))}], valid=[],
                           test=[{"wave": np.zeros((1, 8))}])


class TestImpDriver:
    def test_trainless_mask_schedule_matches_integer_recurrence(self):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()
        cfg = pruning.ImpConfig(mode="mask", iterations=6, selection="local")
        trace = pruning.run_imp(net, data, cfg, no_training)

        maskable = {k: m.size for k, m in pruning.full_mask(net).entries.items()}
        _, total = net.weight_counts()
        alive = dict(maskable)
        expect = [1.0]
        for _ in range(6):
            for k in alive:
                alive[k] -= min(round_half_up(0.3 * alive[k]), alive[k] - 1)
            dead = sum(maskable.values()) - sum(alive.values())
            expect.append((total - dead) / total)
        assert np.allclose(trace.weights_curve(), expect, atol=0, rtol=0)

    def test_trainless_global_mask_schedule(self):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()
        cfg = pruning.ImpConfig(mode="mask", iterations=5, selection="global")
        trace = pruning.run_imp(net, data, cfg, no_training)
        _, total = net.weight_counts()
        pool = sum(m.size for m in pruning.full_mask(net).entries.values())
        alive = pool
        expect = [1.0]
        for _ in range(5):
            alive -= round_half_up(0.3 * alive)
            expect.append((total - (pool - alive)) / total)
        assert np.allclose(trace.weights_curve(), expect, atol=0, rtol=0)

    def test_fifteen_rounds_approach_half_percent(self):
        rng = np.random.default_rng(0)
        net = nn.Network("custom", [nn.make_linear("a", 100, 100, rng)])
        mask = None
        for _ in range(15):
            mask = pruning.select_weights(net, 0.3, "global", mask=mask)
        frac = mask.alive() / mask.total()
        assert abs(frac - 0.7 ** 15) < 5e-4

    def test_trim_schedule_unit_recurrence(self):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()
        cfg = pruning.ImpConfig(mode="trim", iterations=4, selection="local",
                                criterion="magnitude")
        trace = pruning.run_imp(net, data, cfg, no_training)
        per_pool = {pid: len(p.kept) for pid, p in net.pools.items()}
        total = sum(per_pool.values())
        expect = [1.0]
        alive = dict(per_pool)
        for _ in range(4):
            for k in alive:
                alive[k] -= min(round_half_up(0.3 * alive[k]), alive[k] - 1)
            expect.append(sum(alive.values()) / total)
        assert np.allclose(trace.units_curve(), expect, atol=0, rtol=0)

    def test_zero_iterations_keeps_only_baseline(self):
        net = models.build_model(sing_cfg(), seed=0)
        trace = pruning.run_imp(net, make_splits(), pruning.ImpConfig(iterations=0),
                                trainer=adam(epochs=1))
        assert len(trace.records) == 1
        assert trace.records[0].test_error_multiplier == 1.0
        assert trace.records[0].weights_remaining_frac == 1.0

    def test_information_run_too_short_to_score_fails_before_training(self):
        # one validation item of 0.25 s at hop 200 gives the MI estimator
        # 20 frames, not the 100 it needs
        cfg = models.ModelConfig(arch="ddsp", gru_units=4, dense_units=4,
                                 n_partials=3, noise_bins=3)
        net = models.build_model(cfg, seed=0)
        items = harness.gen_synthetic_tones(3, 16000, 0.25, seed=0)
        data = pruning.Splits(train=[harness.collate(items[:2])],
                              valid=[harness.collate(items[2:])],
                              test=[harness.collate(items[2:])])

        def trainer(*args, **kwargs):
            raise AssertionError("trained before the validation split was checked")

        imp = pruning.ImpConfig(iterations=1, criterion="information")
        seen = []
        with pytest.raises(ValueError, match="need at least 100 samples, got 20"):
            pruning.run_imp(net, data, imp, trainer,
                            on_record=lambda rec, n: seen.append(rec))
        assert not seen

    def test_dense_start_checks_every_arm_before_training(self):
        cfg = models.ModelConfig(arch="ddsp", gru_units=4, dense_units=4,
                                 n_partials=3, noise_bins=3)
        items = harness.gen_synthetic_tones(3, 16000, 0.25, seed=0)
        data = pruning.Splits(train=[harness.collate(items[:2])],
                              valid=[harness.collate(items[2:])],
                              test=[harness.collate(items[2:])])

        def trainer(*args, **kwargs):
            raise AssertionError("trained before the validation split was checked")

        arms = [pruning.ImpConfig(iterations=1),
                pruning.ImpConfig(iterations=1, criterion="information")]
        with pytest.raises(ValueError, match="need at least 100 samples"):
            pruning.train_dense(models.build_model(cfg, seed=0), data, arms, trainer)

    def test_arms_of_one_dense_start_share_the_rewind_step(self):
        net = models.build_model(sing_cfg(), seed=0)
        arms = [pruning.ImpConfig(rewind_step=0), pruning.ImpConfig(rewind_step=1)]
        with pytest.raises(ValueError, match="one rewind_step"):
            pruning.train_dense(net, make_splits(), arms, no_training)
        dense = pruning.train_dense(net, make_splits(), arms[:1], no_training)
        with pytest.raises(ValueError, match="dense start recorded step 0"):
            pruning.prune_from(dense, make_splits(), arms[1], no_training)

    def test_arms_prune_clones_of_the_dense_start(self):
        # a mask arm zeroes weights and a trim arm deletes units; neither
        # touches the dense start the next arm prunes
        net = models.build_model(sing_cfg(), seed=4)
        data = make_splits(4)
        dense = pruning.train_dense(net, data, [pruning.ImpConfig()], no_training)
        before = dense.net.param_state()
        for mode in ("mask", "trim"):
            cfg = pruning.ImpConfig(mode=mode, iterations=3)
            shared = pruning.prune_from(dense, data, cfg, no_training)
            alone = pruning.run_imp(net, data, cfg, no_training)
            for a, b in zip(shared.records, alone.records):
                assert replace(a, wall_seconds=0) == replace(b, wall_seconds=0)
            assert len(shared.records) == len(alone.records) == 4
        for key, arr in before.items():
            assert np.array_equal(dense.net.param_state()[key], arr)
            assert np.array_equal(dense.state_k[key], arr)

    def test_trim_equals_masked_dense_at_every_iteration(self):
        # the driver's own per-iteration states replay exactly as unit masks
        # on the dense rewind checkpoint
        net = models.build_model(sing_cfg(), seed=3)
        data = make_splits(3)
        x = T.Tensor(data.test[0]["wave"][:, None, :])
        state0 = net.param_state()
        cfg = pruning.ImpConfig(mode="trim", iterations=4, selection="global",
                                criterion="magnitude")
        nets = []
        trace = pruning.run_imp(net, data, cfg, no_training,
                                on_record=lambda rec, n: nets.append(n.clone()))
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3, 4]
        assert len(nets) == 5
        seen = []
        for cur in nets[1:]:
            removed = {}
            for pid, pool in cur.pools.items():
                gone = np.setdiff1d(np.arange(pool.orig), pool.kept)
                if gone.size:
                    removed[pid] = gone
            shadow = net.clone()
            shadow.load_param_state(state0)
            shadow = mask_units(shadow, removed)
            with T.no_grad():
                a = models.forward(cur.eval(), x).data
                b = models.forward(shadow.eval(), x).data
            seen.append(np.max(np.abs(a - b)))
        assert max(seen) < 1e-6

    def test_mask_mode_costs_stay_fixed_trim_mode_costs_shrink(self):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()
        tr_mask = pruning.run_imp(net, data, pruning.ImpConfig(
            mode="mask", iterations=3), no_training)
        tr_trim = pruning.run_imp(net, data, pruning.ImpConfig(
            mode="trim", iterations=3), no_training)
        flops_mask = [r.flops_per_second_audio for r in tr_mask.records]
        flops_trim = [r.flops_per_second_audio for r in tr_trim.records]
        assert len(set(flops_mask)) == 1
        assert all(b < a for a, b in zip(flops_trim, flops_trim[1:]))
        disks = [r.disk_bytes for r in tr_trim.records]
        assert all(b < a for a, b in zip(disks, disks[1:]))

    def test_weight_fraction_strictly_decreases(self):
        net = models.build_model(sing_cfg(), seed=0)
        for mode in ("mask", "trim"):
            trace = pruning.run_imp(net, make_splits(), pruning.ImpConfig(
                mode=mode, iterations=4), no_training)
            curve = trace.weights_curve()
            assert np.all(np.diff(curve) < 0)

    def test_rewind_step_beyond_training_rejected(self):
        # one epoch over three training batches takes three steps
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits(n_train=3)
        with pytest.raises(ValueError, match="rewind step 4 lies beyond the 3 "):
            pruning.run_imp(net, data, pruning.ImpConfig(rewind_step=4),
                            adam(epochs=1))

    def test_stop_error_multiplier_stops_cleanly(self, monkeypatch):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()
        calls = {"n": 0}

        def spiky_loss(n, batch):
            calls["n"] += 1
            base = SING_LOSS(n, batch)
            if n.units_remaining() < units_original(n):
                return T.mul(base, T.Tensor(100.0))
            return base

        cfg = pruning.ImpConfig(mode="trim", iterations=5,
                                stop_error_multiplier=3.0)
        trace = pruning.run_imp(use_spec(monkeypatch, net, loss=spiky_loss), data, cfg,
                                no_training)
        assert trace.stopped is not None and "exceeded" in trace.stopped
        assert len(trace.records) == 2
        assert trace.aborted is None

    def test_trim_stops_cleanly_at_min_units_floor(self):
        net = models.build_model(sing_cfg(ch=4, layers=2), seed=0)
        data = make_splits()
        cfg = pruning.ImpConfig(mode="trim", iterations=50)
        trace = pruning.run_imp(net, data, cfg, no_training)
        assert trace.stopped is not None and "min_units floor" in trace.stopped
        assert trace.aborted is None
        assert len(trace.records) < 51
        last = trace.records[-1]
        assert last.units_per_pool == {pid: 1 for pid in last.units_per_pool}
        # once every pool holds one unit, another round must not be attempted
        assert trace.records[-1].units_remaining_frac == min(
            r.units_remaining_frac for r in trace.records)

    def test_mask_stops_cleanly_at_min_weights_floor(self, monkeypatch):
        rng = np.random.default_rng(0)
        net = nn.Network("sequential", [nn.make_linear("a", 3, 2, rng)],
                         meta={"config": {"sample_rate": 8000}})
        data = make_splits()
        cfg = pruning.ImpConfig(mode="mask", iterations=50)
        loss = lambda n, batch: T.tsum(n.layers["a"].params["w"])
        trace = pruning.run_imp(use_spec(monkeypatch, net, loss=loss), data, cfg,
                                no_training)
        assert trace.stopped is not None and "min_weights floor" in trace.stopped
        assert len(trace.records) < 51

    def test_nan_loss_aborts_with_partial_trace(self, monkeypatch):
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()

        def doomed_loss(n, batch):
            if n.units_remaining() < units_original(n):
                return T.Tensor(float("nan"))
            return SING_LOSS(n, batch)

        cfg = pruning.ImpConfig(mode="trim", iterations=5)
        trace = pruning.run_imp(use_spec(monkeypatch, net, loss=doomed_loss), data, cfg,
                                no_training)
        assert trace.aborted is not None and "iteration 1" in trace.aborted
        assert len(trace.records) == 2

    def test_overflow_during_retraining_aborts(self, monkeypatch):
        # the tensor layer raises on non-finite results; the driver turns
        # that into a clean abort instead of crashing
        net = models.build_model(sing_cfg(), seed=0)
        data = make_splits()

        def doomed_loss(n, batch):
            base = SING_LOSS(n, batch)
            if n.units_remaining() < units_original(n):
                return T.mul(base, T.Tensor(float("inf")))
            return base

        cfg = pruning.ImpConfig(mode="trim", iterations=5)
        trace = pruning.run_imp(use_spec(monkeypatch, net, loss=doomed_loss), data, cfg,
                                no_training)
        assert trace.aborted is not None and "iteration 1" in trace.aborted
        assert len(trace.records) == 1

    def test_recorded_nets_shrink_and_forward(self):
        # on_record sees each record with the net it measured
        net = models.build_model(sing_cfg(), seed=6)
        data = make_splits(6)
        cfg = pruning.ImpConfig(mode="trim", iterations=2)
        seen = []
        trace = pruning.run_imp(net, data, cfg, trainer=adam(epochs=1),
                                on_record=lambda rec, n: seen.append((rec, n.clone())))
        assert [rec for rec, _ in seen] == trace.records
        for rec, n in seen:
            assert rec.disk_bytes == embed.disk_size(n)
            assert rec.working_set_bytes == embed.working_set_bytes(n)
        small = seen[2][1]
        assert small.units_remaining() < net.units_remaining()
        with T.no_grad():
            out = models.forward(small.eval(),
                                 T.Tensor(data.test[0]["wave"][:, None, :]))
        assert np.all(np.isfinite(out.data))

    def test_units_per_pool_accounts_for_trace(self):
        net = models.build_model(sing_cfg(), seed=0)
        trace = pruning.run_imp(net, make_splits(), pruning.ImpConfig(
            mode="trim", iterations=2), no_training)
        for rec in trace.records:
            assert sum(rec.units_per_pool.values()) \
                == pytest.approx(rec.units_remaining_frac
                                 * units_original(net))

    def test_trained_trim_run_keeps_multiplier_sane(self):
        net = models.build_model(sing_cfg(ch=10), seed=7)
        data = make_splits(7)
        cfg = pruning.ImpConfig(mode="trim", iterations=3, criterion="gradient",
                                selection="global", rewind_step=2)
        trace = pruning.run_imp(net, data, cfg,
                                trainer=adam(epochs=10, lr=1e-2))
        assert trace.aborted is None
        assert all(np.isfinite(r.valid_loss) for r in trace.records)
        assert trace.records[-1].units_remaining_frac < 0.5

    def test_retraining_gets_faster_as_the_net_shrinks(self):
        # each iteration's wall time is the minimum over three repeats of
        # the same deterministic run, so one load spike cannot decide it
        walls_first, walls_last = [], []
        cfg = pruning.ImpConfig(mode="trim", iterations=4,
                                criterion="magnitude", selection="local")
        for seed in (0, 1, 2):
            repeats = []
            for _ in range(3):
                net = models.build_model(sing_cfg(ch=12), seed=seed)
                trace = pruning.run_imp(net, make_splits(seed, t=512), cfg,
                                        trainer=adam(epochs=8))
                repeats.append([r.wall_seconds for r in trace.records])
            walls = np.min(repeats, axis=0)
            walls_first.append(walls[1])
            walls_last.append(walls[-1])
        assert np.median(walls_last) <= np.median(walls_first)
