import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rankeffect import (
    build_masked_sample,
    build_rank_table,
    covariance_general,
    covariance_simple,
    derive_pattern_index,
    placements,
)
from rankeffect.errors import NoEstimablePart, PatternMismatch

from conftest import draw_values, random_general_sample, random_simple_sample, simple_mask
from oracles import (
    covariance_from_marginals,
    covariance_nine_term,
    covariance_simple_placement_scale,
)


def pipeline(sample):
    idx = derive_pattern_index(sample)
    return idx, build_rank_table(sample)


class TestCovarianceSimple:
    def test_single_one_sided_case_is_flagged_zero_part(self, rng):
        obs = simple_mask(2, 6, 1, 4)
        s = build_masked_sample(rng.integers(0, 5, obs.shape).astype(float), obs)
        idx, rt = pipeline(s)
        cov = covariance_simple(s, idx, rt)
        # the single group-1-only case adds nothing: the placement-scale
        # oracle, which skips parts with fewer than two cases, agrees
        expected = covariance_simple_placement_scale(s, idx, placements(rt, idx))
        assert np.abs(cov.v_hat - expected).max() < 1e-12
        assert cov.degenerate == (
            "group-1 incomplete part degenerate (single case); contributed zero",
        )

    def test_perfect_rank_dependence_gives_nu_one(self, rng):
        # component 2 a strictly increasing function of component 1 in both
        # groups forces proportional rank-difference vectors, so rank(V) = 1
        obs = simple_mask(2, 10, 4, 4)
        g1 = rng.standard_normal(obs.shape[1])
        g2 = rng.standard_normal(obs.shape[1])
        vals = np.vstack([g1, np.exp(g1), g2, np.exp(g2)])
        s = build_masked_sample(vals, obs)
        idx, rt = pipeline(s)
        cov = covariance_simple(s, idx, rt)
        assert cov.nu_hat == pytest.approx(1.0, abs=1e-9)
        eigvals = np.linalg.eigvalsh(cov.v_hat)
        assert eigvals[0] == pytest.approx(0.0, abs=1e-12 * max(eigvals[-1], 1.0))

    def test_constant_data_gives_zero_matrix(self):
        obs = simple_mask(2, 5, 3, 3)
        s = build_masked_sample(np.full(obs.shape, 2.0), obs)
        idx, rt = pipeline(s)
        cov = covariance_simple(s, idx, rt)
        assert np.array_equal(cov.v_hat, np.zeros((2, 2)))
        assert np.isnan(cov.nu_hat)

    def test_no_estimable_part(self, rng):
        obs = simple_mask(1, 1, 1, 1)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx, rt = pipeline(s)
        with pytest.raises(NoEstimablePart):
            covariance_simple(s, idx, rt)

    def test_requires_simple_pattern(self, rng):
        while True:
            sample, idx = random_general_sample(rng, d=2, n=15)
            if not idx.is_simple_pattern:
                break
        rt = build_rank_table(sample)
        with pytest.raises(PatternMismatch):
            covariance_simple(sample, idx, rt)

    def test_psd_and_symmetric_on_random_instances(self, rng):
        for _ in range(100):
            sample, idx = random_simple_sample(rng, min_part=2)
            rt = build_rank_table(sample)
            cov = covariance_simple(sample, idx, rt)
            assert np.array_equal(cov.v_hat, cov.v_hat.T)
            assert np.linalg.eigvalsh(cov.v_hat).min() >= -1e-10
            assert (np.diag(cov.v_hat) >= 0.0).all()

    def test_nu_hat_within_dimension_bounds(self, rng):
        for _ in range(60):
            sample, idx = random_simple_sample(rng, min_part=3)
            rt = build_rank_table(sample)
            cov = covariance_simple(sample, idx, rt)
            if cov.trace_sq > 0:
                assert 1.0 - 1e-12 <= cov.nu_hat <= sample.d + 1e-12

    def test_rank_scale_equals_placement_scale(self, rng):
        for _ in range(60):
            sample, idx = random_simple_sample(rng, min_part=2)
            rt = build_rank_table(sample)
            cov = covariance_simple(sample, idx, rt)
            place = placements(rt, idx)
            via_placements = covariance_simple_placement_scale(sample, idx, place)
            assert np.abs(cov.v_hat - via_placements).max() < 1e-10


class TestCovarianceGeneral:
    def test_reduces_to_simple_on_treatment_level_data(self, rng):
        for _ in range(200):
            sample, idx = random_simple_sample(rng, min_part=2)
            rt = build_rank_table(sample)
            vs = covariance_simple(sample, idx, rt).v_hat
            vg = covariance_general(sample, idx, rt).v_hat
            assert np.abs(vs - vg).max() < 1e-10

    def test_diagonal_uses_only_own_component_terms(self, rng):
        for _ in range(20):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            cov = covariance_general(sample, idx, rt)
            _, _, terms = covariance_nine_term(sample, idx, rt)
            for l in range(sample.d):
                assert np.array_equal(terms[l, l, [1, 2, 3, 5, 6, 7]], np.zeros(6))
                own = terms[l, l, [0, 4, 8]].sum()
                assert cov.v_hat[l, l] == pytest.approx(own, rel=1e-12, abs=1e-15)

    def test_kernel_matches_nine_term_oracle(self, rng):
        for d in (1, 2, 3, 5):
            # subject 0 is group-2-only on every component, subject 1 on
            # component 0 only, and subject 2 group-1-only on component 0:
            # single-subject intersections within and across components
            forced = np.ones((2 * d, 12), bool)
            forced[:d, 0] = False
            forced[0, 1] = False
            forced[d, 2] = False
            masks = [forced]
            for _ in range(40):
                n = int(rng.integers(4, 30))
                # sparse masks make single-subject intersections common; one
                # observed cell per subject and one complete subject keep the
                # sample valid and every component estimable
                obs = rng.random((2 * d, n)) < rng.uniform(0.3, 0.8)
                obs[rng.integers(0, 2 * d, n), np.arange(n)] = True
                obs[:, 0] = True
                masks.append(obs)
            for obs in masks:
                sample = build_masked_sample(draw_values(rng, obs.shape), obs)
                idx, rt = pipeline(sample)
                cov = covariance_general(sample, idx, rt)
                want, flags, _ = covariance_nine_term(sample, idx, rt)
                # the floor absorbs rounding noise where the oracle's exact
                # value is zero (e.g. constant data in every index set)
                scale = max(np.abs(want).max(), 1e-12)
                assert np.abs(cov.v_hat - want).max() <= 1e-12 * scale
                assert list(cov.degenerate) == flags
                assert flags or obs is not forced

    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_group_swap_and_monotone_transform(self, seed, ties):
        rng = np.random.default_rng(seed)
        sample, idx = random_general_sample(rng, ties=ties)
        d = sample.d
        v = covariance_general(sample, idx, build_rank_table(sample)).v_hat
        # swapping the groups negates every rank-difference row and exchanges
        # the one-sided sets, so only the summation order changes
        swap = np.r_[d:2 * d, 0:d]
        swapped = build_masked_sample(sample.values[swap], sample.observed[swap])
        v_swap = covariance_general(swapped, *pipeline(swapped)).v_hat
        scale = max(np.abs(v).max(), 1e-12)
        assert np.abs(v_swap - v).max() <= 1e-12 * scale
        # a strictly increasing transform keeps every rank, hence every bit
        moved = build_masked_sample(np.exp(sample.values), sample.observed)
        v_moved = covariance_general(moved, *pipeline(moved)).v_hat
        assert np.array_equal(v_moved, v)

    def test_symmetric_as_computed(self, rng):
        for _ in range(40):
            sample, idx = random_general_sample(rng, d=3)
            rt = build_rank_table(sample)
            cov = covariance_general(sample, idx, rt)
            assert np.array_equal(cov.v_hat, cov.v_hat.T)
            assert (np.diag(cov.v_hat) >= 0.0).all()

    def test_single_subject_intersections_flagged(self, rng):
        obs = np.ones((4, 6), bool)
        obs[0, 0] = False  # subject 0: g1 missing on var1 -> g2-only there
        s = build_masked_sample(rng.integers(0, 5, obs.shape).astype(float), obs)
        idx, rt = pipeline(s)
        cov = covariance_general(s, idx, rt)
        assert any("single" in f for f in cov.degenerate)

    def test_independent_components_have_vanishing_cross_term(self):
        """Consistency of the off-diagonal entry at a null with independence."""
        rng = np.random.default_rng(4242)
        reps, n = 200, 2000
        obs = np.ones((4, n), bool)
        ent = np.empty(reps)
        for r in range(reps):
            vals = rng.standard_normal((4, n))
            s = build_masked_sample(vals, obs)
            idx, rt = pipeline(s)
            ent[r] = covariance_general(s, idx, rt).v_hat[0, 1]
        mc_se = ent.std(ddof=1) / np.sqrt(reps)
        assert abs(ent.mean()) < 3 * mc_se


class TestCovarianceOracle:
    def test_requires_simple_pattern(self, rng):
        while True:
            sample, idx = random_general_sample(rng, d=2, n=15)
            if not idx.is_simple_pattern:
                break
        with pytest.raises(PatternMismatch):
            covariance_from_marginals(sample, idx, [(norm.cdf, norm.cdf)] * 2)

    def test_constant_data_gives_zero(self):
        obs = simple_mask(1, 4, 2, 2)
        s = build_masked_sample(np.full(obs.shape, 1.0), obs)
        idx = derive_pattern_index(s)
        cdf = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
        v = covariance_from_marginals(s, idx, [(cdf, cdf)])
        assert np.array_equal(v, np.zeros((1, 1)))

    def test_uniform_placement_moments(self):
        """iid continuous groups: each part's mean matches Var(U(0,1)) = 1/12."""
        rng = np.random.default_rng(7)
        reps = 400
        n_c, n_1, n_2 = 20, 10, 10
        obs = simple_mask(1, n_c, n_1, n_2)
        n = n_c + n_1 + n_2
        m1, m2 = n_c + n_1, n_c + n_2
        theta1, theta2 = n_c / m1, n_c / m2
        got = np.empty(reps)
        for r in range(reps):
            s = build_masked_sample(rng.standard_normal(obs.shape), obs)
            idx = derive_pattern_index(s)
            got[r] = covariance_from_marginals(s, idx, [(norm.cdf, norm.cdf)])[0, 0]
        var_u = 1.0 / 12.0
        expected = n * (
            n_1 / m1**2 * var_u
            + n_2 / m2**2 * var_u
            + (theta1**2 + theta2**2) * var_u / n_c
        )
        mc_se = got.std(ddof=1) / np.sqrt(reps)
        assert abs(got.mean() - expected) < 3 * mc_se

    def test_estimator_converges_to_oracle(self):
        rng = np.random.default_rng(11)
        medians = []
        for n_total in (50, 200, 800):
            n_c, n_1 = n_total // 2, n_total // 4
            n_2 = n_total - n_c - n_1
            obs = simple_mask(2, n_c, n_1, n_2)
            errs = []
            for _ in range(50):
                s = build_masked_sample(rng.standard_normal(obs.shape), obs)
                idx, rt = pipeline(s)
                v_hat = covariance_simple(s, idx, rt).v_hat
                v_oracle = covariance_from_marginals(s, idx, [(norm.cdf, norm.cdf)] * 2)
                errs.append(np.linalg.norm(v_hat - v_oracle))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]
