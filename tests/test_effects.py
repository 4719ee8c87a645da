import numpy as np
import pytest
from scipy.stats import norm

from rankeffect import (
    build_masked_sample,
    build_rank_table,
    derive_pattern_index,
    estimate_effects,
    restrict_method,
)
from rankeffect.errors import EverythingFiltered, InestimableComponent

from conftest import random_general_sample, random_simple_sample, simple_mask
from oracles import effect_bruteforce


def pipeline(sample):
    idx = derive_pattern_index(sample)
    return idx, build_rank_table(sample)


class TestEstimateEffects:
    def test_two_complete_pairs(self):
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], np.ones((2, 2), bool))
        idx, rt = pipeline(s)
        # pairwise counting: c(2-1)+c(2-3)+c(4-1)+c(4-3) = 3 of 4
        assert estimate_effects(s, idx, rt).p_hat[0] == pytest.approx(0.75)

    def test_identical_groups_give_half(self, rng):
        vals = rng.integers(0, 4, size=(1, 6)).astype(float)
        s = build_masked_sample(np.vstack([vals, vals]), np.ones((2, 6), bool))
        idx, rt = pipeline(s)
        assert estimate_effects(s, idx, rt).p_hat[0] == pytest.approx(0.5)

    def test_separation_hits_the_bounds(self, rng):
        obs = simple_mask(2, 4, 3, 2)
        vals = rng.standard_normal(obs.shape)
        vals[2:] += 50.0
        s = build_masked_sample(vals, obs)
        idx, rt = pipeline(s)
        assert np.allclose(estimate_effects(s, idx, rt).p_hat, 1.0)
        assert np.allclose(effect_bruteforce(s, idx), 1.0)
        s_rev = build_masked_sample(-vals, obs)
        idx_r, rt_r = pipeline(s_rev)
        assert np.allclose(estimate_effects(s_rev, idx_r, rt_r).p_hat, 0.0)

    def test_inestimable_component(self):
        obs = np.zeros((2, 3), bool)
        obs[0] = True  # group 2 never observed
        s = build_masked_sample(np.zeros((2, 3)), obs)
        idx, rt = pipeline(s)
        with pytest.raises(InestimableComponent):
            estimate_effects(s, idx, rt)

    def test_rank_equals_integral_on_random_general_masks(self, rng):
        for _ in range(200):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            a = estimate_effects(sample, idx, rt).p_hat
            b = effect_bruteforce(sample, idx)
            assert np.abs(a - b).max() < 1e-12

    def test_range_and_weights(self, rng):
        for _ in range(50):
            sample, idx = random_simple_sample(rng)
            rt = build_rank_table(sample)
            eff = estimate_effects(sample, idx, rt)
            assert (eff.p_hat >= 0.0).all() and (eff.p_hat <= 1.0).all()

    def test_antisymmetry_under_group_swap(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            p = estimate_effects(sample, idx, rt).p_hat
            d = sample.d
            swapped_vals = np.vstack([sample.values[d:], sample.values[:d]])
            swapped_obs = np.vstack([sample.observed[d:], sample.observed[:d]])
            s2 = build_masked_sample(np.nan_to_num(swapped_vals), swapped_obs)
            idx2, rt2 = pipeline(s2)
            p2 = estimate_effects(s2, idx2, rt2).p_hat
            assert np.abs(p2 - (1.0 - p)).max() < 1e-12

    def test_monotone_invariance(self, rng):
        for _ in range(20):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            p = estimate_effects(sample, idx, rt).p_hat
            transformed = 3.0 * sample.values + np.exp(sample.values / 4.0)
            s2 = build_masked_sample(
                np.where(sample.observed, transformed, 0.0), sample.observed
            )
            idx2, rt2 = pipeline(s2)
            assert np.allclose(estimate_effects(s2, idx2, rt2).p_hat, p, atol=1e-14)

    def test_mc_mean_approaches_true_effect(self):
        """Shifted normals: the true effect has the closed form Phi(delta/sqrt(2))."""
        delta = 0.5
        true_p = norm.cdf(delta / np.sqrt(2.0))
        reps = 2000
        rng = np.random.default_rng(99)
        obs = simple_mask(1, 200, 15, 15)
        estimates = np.empty(reps)
        for r in range(reps):
            vals = rng.standard_normal(obs.shape)
            vals[1] += delta
            s = build_masked_sample(vals, obs)
            idx, rt = pipeline(s)
            estimates[r] = estimate_effects(s, idx, rt).p_hat[0]
        se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - true_p) < 3 * se


class TestRestrictMethod:
    def test_all_is_identity(self, rng):
        sample, idx = random_simple_sample(rng)
        s2, idx2 = restrict_method(sample, idx, "all")
        assert s2 is sample and idx2 is idx

    def test_complete_only_drops_one_sided(self, rng):
        obs = simple_mask(2, 4, 3, 2)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx = derive_pattern_index(s)
        s2, idx2 = restrict_method(s, idx, "complete")
        assert s2.n == 4
        assert (idx2.n1_only == 0).all() and (idx2.n2_only == 0).all()
        assert (idx2.n_complete == 4).all()

    def test_incomplete_only_drops_paired(self, rng):
        obs = simple_mask(2, 4, 3, 2)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx = derive_pattern_index(s)
        s2, idx2 = restrict_method(s, idx, "incomplete")
        assert s2.n == 5
        assert (idx2.n_complete == 0).all()
        assert (idx2.n1_only == 3).all() and (idx2.n2_only == 2).all()

    def test_everything_filtered(self, rng):
        obs = simple_mask(2, 4, 3, 0)  # no group-2-only subjects
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx = derive_pattern_index(s)
        with pytest.raises(EverythingFiltered):
            restrict_method(s, idx, "incomplete")

    def test_unknown_method(self, rng):
        sample, idx = random_simple_sample(rng)
        with pytest.raises(ValueError):
            restrict_method(sample, idx, "bogus")

    def test_restricted_totals_feed_statistics(self, rng):
        obs = simple_mask(3, 33, 8, 1)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx = derive_pattern_index(s)
        s_inc, _ = restrict_method(s, idx, "incomplete")
        assert s_inc.n == 9
        s_com, _ = restrict_method(s, idx, "complete")
        assert s_com.n == 33
