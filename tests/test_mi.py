import numpy as np
import pytest

from audiotrim import mi
from audiotrim.mi import MiConfig, estimate_mi

BIG = MiConfig(max_samples=10000)
N = 10000


def gaussian_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rho * a + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return a, b


class TestConfig:
    def test_defaults(self):
        cfg = MiConfig()
        assert cfg.bin_counts == (8, 16, 32)
        assert cfg.max_samples == 2048

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="bin counts"):
            MiConfig(bin_counts=(8, 1))
        with pytest.raises(ValueError, match="max_samples"):
            MiConfig(max_samples=50)
        with pytest.raises(ValueError, match="empty"):
            MiConfig(bin_counts=())


class TestAgainstAnalyticGaussians:
    def test_independent_uniforms_stay_below_bias_bound(self):
        rng = np.random.default_rng(0)
        est = estimate_mi(rng.uniform(size=N), rng.uniform(size=N), BIG)
        assert 0.0 <= est <= 0.05

    def test_rho_09_matches_analytic_value(self):
        a, b = gaussian_pair(0.9, N, seed=100)
        analytic = -0.5 * np.log(1.0 - 0.81)
        assert estimate_mi(a, b, BIG) == pytest.approx(analytic, abs=0.15)

    def test_estimates_increase_with_dependence(self):
        for seed in range(3):
            ests = []
            for rho in (0.0, 0.5, 0.9):
                a, b = gaussian_pair(rho, N, seed=100 + seed)
                ests.append(estimate_mi(a, b, BIG, seed=seed))
            assert ests[0] < ests[1] < ests[2]

    def test_identical_variables_saturate_binned_channel(self):
        z = np.random.default_rng(1).standard_normal(N)
        assert estimate_mi(z, z.copy(), BIG) >= np.log(8) - 0.2

    def test_symmetry_for_scalar_targets(self):
        a, b = gaussian_pair(0.7, N, seed=5)
        assert abs(estimate_mi(a, b, BIG) - estimate_mi(b, a, BIG)) < 0.05

    def test_monotone_transform_barely_moves_estimate(self):
        a, b = gaussian_pair(0.7, N, seed=6)
        direct = estimate_mi(a, b, BIG)
        warped = estimate_mi(np.exp(a), b, BIG)
        assert abs(direct - warped) < 0.05

    def test_multidimensional_target_uses_dominant_direction(self):
        # y's informative coordinate has much larger variance, so the
        # principal direction keeps the dependence visible
        rng = np.random.default_rng(7)
        z = rng.standard_normal(N)
        y = np.stack([3.0 * z + 0.3 * rng.standard_normal(N),
                      0.1 * rng.standard_normal(N)], axis=1)
        assert estimate_mi(z, y, BIG) > 0.5


class TestMechanics:
    def test_deterministic_given_seed(self):
        a, b = gaussian_pair(0.5, 3000, seed=8)
        assert estimate_mi(a, b, BIG, seed=3) == estimate_mi(a, b, BIG, seed=3)

    def test_sample_cap_is_applied(self):
        a, b = gaussian_pair(0.9, 100000, seed=9)
        small = estimate_mi(a, b, MiConfig(max_samples=500))
        assert np.isfinite(small) and small > 0.4

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="100 samples"):
            estimate_mi(rng.uniform(size=50), rng.uniform(size=50))

    def test_constant_inputs_rejected(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(size=200)
        with pytest.raises(ValueError, match="z is constant"):
            estimate_mi(np.zeros(200), v)
        with pytest.raises(ValueError, match="y is constant"):
            estimate_mi(v, np.ones(200))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            estimate_mi(np.zeros(200), np.zeros(100))

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(size=200)
        y = rng.uniform(size=200)
        z[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            estimate_mi(z, y)


def row_cases(rng, n):
    """Rows that stress ranking: continuous, relu-style ties, quantised."""
    x = rng.standard_normal((3, n))
    return np.stack([x[0], np.maximum(x[1], 0.0), np.round(x[2] * 2.0) / 2.0])


def per_unit_oracle(z, y, cfg, seed):
    """One unit's estimate with its own rng.normal(0, sigma, N) noise draw."""
    z, y = mi._prepare(z, y, cfg)
    y1 = y[:, 0] if y.shape[1] == 1 else mi._principal_direction(y)
    sigma = 0.01 * z.std()
    zn = z + np.random.default_rng(seed).normal(0.0, sigma, len(z)) if sigma > 0 else z
    zr, yr = mi._rank_normalize(zn), mi._rank_normalize(y1)
    return max(0.0, float(np.mean([mi._plugin_mi(zr, yr, b) for b in cfg.bin_counts])))


class TestLayerAtOnce:
    """A (units, N) call equals one 1-d call per row, bit for bit."""

    def check_rows(self, z, y, cfg=MiConfig(), seed=0):
        batch = estimate_mi(z, y, cfg, seed=seed)
        assert batch.shape == z.shape[:-1]
        single = np.array([estimate_mi(row, y, cfg, seed=seed) for row in z])
        assert np.array_equal(batch, single)
        oracle = np.array([per_unit_oracle(row, y, cfg, seed) for row in z])
        assert np.array_equal(batch, oracle)
        return batch

    @pytest.mark.parametrize("n", [300, 2048, 3001])
    def test_scalar_targets(self, n):
        rng = np.random.default_rng(n)
        z = row_cases(rng, n)
        y = z[0] + rng.standard_normal(n)
        self.check_rows(z, y, seed=4)

    @pytest.mark.parametrize("n", [500, 2500])
    def test_multidimensional_targets(self, n):
        rng = np.random.default_rng(n + 1)
        z = row_cases(rng, n)
        y = np.stack([z[1] + rng.standard_normal(n), rng.standard_normal(n),
                      np.round(rng.standard_normal(n))], axis=1)
        self.check_rows(z, y)
        self.check_rows(z, y, MiConfig(bin_counts=(4, 11), max_samples=1000), seed=7)

    def test_row_with_zero_spread_gets_no_noise(self):
        # its standard deviation underflows to zero, its range does not
        rng = np.random.default_rng(20)
        tiny = np.zeros(400)
        tiny[::7] = 1e-170
        assert tiny.std() == 0.0 and np.ptp(tiny) > 0
        y = rng.standard_normal(400)
        z = np.stack([rng.standard_normal(400), tiny])
        est = self.check_rows(z, y, seed=1)
        assert est[1] == estimate_mi(tiny, y, seed=2)

    def test_constant_row_raises(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((3, 300))
        z[1] = 0.5
        with pytest.raises(ValueError, match="z is constant"):
            estimate_mi(z, rng.standard_normal(300))


def shuffle_baseline(z, y, cfg: MiConfig = MiConfig(), trials: int = 10,
                     seed: int = 0) -> float:
    """Mean estimate over random re-pairings: the estimator's zero-MI bias."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    z, y = mi._prepare(z, y, cfg)
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(trials):
        perm = rng.permutation(len(z))
        vals.append(estimate_mi(z, y[perm], cfg, seed=seed))
    return float(np.mean(vals))


class TestShuffleBaseline:
    def test_baseline_is_small_at_scale(self):
        rng = np.random.default_rng(13)
        base = shuffle_baseline(rng.uniform(size=N), rng.uniform(size=N),
                                BIG, trials=20)
        assert 0.0 <= base < 0.08

    def test_baseline_far_below_true_dependence(self):
        z = np.random.default_rng(14).standard_normal(N)
        direct = estimate_mi(z, z.copy(), BIG)
        base = shuffle_baseline(z, z.copy(), BIG, trials=5)
        assert base / direct < 0.1

    def test_reproducible_bit_for_bit(self):
        a, b = gaussian_pair(0.5, 2000, seed=15)
        x = shuffle_baseline(a, b, BIG, trials=4, seed=2)
        y = shuffle_baseline(a, b, BIG, trials=4, seed=2)
        assert x == y

    def test_rejects_zero_trials(self):
        a, b = gaussian_pair(0.5, 500, seed=16)
        with pytest.raises(ValueError, match="trials"):
            shuffle_baseline(a, b, BIG, trials=0)
