import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from rankeffect import (
    Scenario,
    build_sigma,
    builtin_grid,
    derive_pattern_index,
    draw_sample,
    run_grid,
    run_scenario,
)
from rankeffect.effects import METHODS
from rankeffect.errors import NotPositiveDefinite, ScenarioError, ZeroCovariance
from rankeffect.simulate import DISTRIBUTIONS


def scenario(**kw):
    base = dict(
        distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 1.0),
        delta=(0.0, 0.0), pattern="simple", sizes=(30, 10, 10),
        replications=50, seed=1,
    )
    base.update(kw)
    return Scenario(**base)


class TestBuildSigma:
    def test_weak_equicorrelation_blocks(self):
        s = build_sigma(2, 0.1, 0.1, 0.1, 1.0, 1.0)
        expect = np.array([
            [1.0, 0.1, 0.1, 0.1],
            [0.1, 1.0, 0.1, 0.1],
            [0.1, 0.1, 1.0, 0.1],
            [0.1, 0.1, 0.1, 1.0],
        ])
        assert np.allclose(s, expect)

    def test_zero_correlation_is_identity(self):
        assert np.allclose(build_sigma(3, 0.0, 0.0, 0.0, 1.0, 1.0), np.eye(6))

    def test_strong_heteroscedastic_blocks(self):
        d = 2
        s = build_sigma(d, 0.1, 0.9, 0.5, 1.0, 5.0)
        eye, ones = np.eye(d), np.ones((d, d))
        expect = np.block([
            [eye + 0.1 * (ones - eye), 0.5 * np.sqrt(5.0) * ones],
            [0.5 * np.sqrt(5.0) * ones, 5.0 * eye + 0.9 * 5.0 * (ones - eye)],
        ])
        assert np.allclose(s, expect)
        assert np.array_equal(s, s.T)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            build_sigma(2, -0.9, -0.9, 0.9, 1.0, 1.0)


class TestScenarioValidation:
    def test_zero_replications_rejected(self):
        with pytest.raises(ScenarioError):
            scenario(replications=0).validate()

    def test_delta_length_must_match_d(self):
        with pytest.raises(ScenarioError):
            scenario(delta=(0.0,)).validate()

    def test_design_needs_d2(self):
        with pytest.raises(ScenarioError):
            scenario(d=3, delta=(0.0,) * 3, pattern="design1", sizes=(75,)).validate()

    def test_design1_divisibility(self):
        with pytest.raises(ScenarioError):
            scenario(pattern="design1", sizes=(100,)).validate()
        scenario(pattern="design1", sizes=(75,)).validate()

    def test_design2_allocation(self):
        s = scenario(pattern="design2", sizes=(210, 0.4))
        counts = s.pattern_counts()
        assert counts[0] == 84
        assert counts[1:] == [9] * 14
        assert sum(counts) == 210

    def test_design3_allocation(self):
        counts = scenario(pattern="design3", sizes=(5,)).pattern_counts()
        assert counts == [5] + [100] * 14

    def test_unknown_distribution(self):
        with pytest.raises(ScenarioError):
            scenario(distribution="gamma").validate()

    @pytest.mark.parametrize("methods", [(), ("bogus",), ("all", "all")])
    def test_empty_unknown_or_repeated_methods_rejected(self, methods):
        with pytest.raises(ScenarioError, match="method"):
            scenario(methods=methods).validate()

    @pytest.mark.parametrize("field, kw", [
        ("rho", dict(rho=(0.1, 0.1))),
        ("sigma_sq", dict(sigma_sq=(1.0, 1.0, 1.0))),
        ("sizes", dict(sizes=(30, 10))),
        ("sizes", dict(pattern="design1", sizes=(75, 75))),
        ("sizes", dict(pattern="design2", sizes=(210,))),
        ("sizes", dict(pattern="design3", sizes=())),
    ])
    def test_wrong_field_length_names_the_field(self, field, kw):
        with pytest.raises(ScenarioError, match=field):
            scenario(**kw).validate()

    @pytest.mark.parametrize("sizes, group", [((0, 10, 0), 2), ((0, 0, 2), 1)])
    def test_simple_sizes_must_leave_each_group_an_observation(self, sizes, group):
        # every replicate of such a scenario raised InestimableComponent and
        # was tallied as a failure
        with pytest.raises(ScenarioError, match=f"sizes .* group {group}"):
            scenario(sizes=sizes).validate()

    @pytest.mark.parametrize("field, kw", [
        ("sizes", dict(sizes=(float("nan"), 10, 10))),
        ("sizes", dict(sizes=(float("inf"), 10, 10))),
        ("delta", dict(delta=(float("nan"), 0.0))),
        ("rho", dict(rho=(float("nan"), 0.1, 0.1))),
        ("sigma_sq", dict(sigma_sq=(float("inf"), 1.0))),
    ])
    def test_non_finite_value_names_the_field(self, field, kw):
        # a non-finite size escaped as a bare ValueError or OverflowError; a
        # non-finite delta, rho or sigma_sq failed every replicate
        with pytest.raises(ScenarioError, match=f"{field} values must be finite"):
            scenario(**kw).validate()

    def test_replace_checks_the_copy(self):
        with pytest.raises(ScenarioError, match="rho"):
            replace(scenario(), rho=(0.1, 0.1))

    @given(
        sizes=st.tuples(*[st.integers(0, 6)] * 3),
        d=st.integers(1, 3),
        distribution=st.sampled_from(DISTRIBUTIONS),
        sigma_sq=st.sampled_from(((1.0, 1.0), (1.0, 5.0))),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_buildable_simple_scenario_runs_without_failures(
        self, sizes, d, distribution, sigma_sq, seed
    ):
        # the one gate: a scenario that builds never fails a replicate
        try:
            s = scenario(
                distribution=distribution, d=d, sigma_sq=sigma_sq, delta=(0.0,) * d,
                sizes=sizes, replications=2, seed=seed, methods=METHODS,
            )
        except ScenarioError:
            return
        assert run_scenario(s).failures == 0


class TestDrawSample:
    def test_deterministic_given_seed_and_index(self):
        s = scenario(seed=9)
        a = draw_sample(s, 3)
        b = draw_sample(s, 3)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        c = draw_sample(s, 4)
        assert not np.array_equal(a.values, c.values, equal_nan=True)

    def test_discretized_normal_is_integer(self):
        s = scenario()
        sample = draw_sample(s, 0)
        vals = sample.values[sample.observed]
        assert np.array_equal(vals, np.rint(vals))

    def test_lognormal_is_positive(self):
        sample = draw_sample(scenario(distribution="lognormal"), 0)
        assert (sample.values[sample.observed] > 0).all()

    def test_simple_allocation_blocks(self):
        sample = draw_sample(scenario(), 0)
        idx = derive_pattern_index(sample)
        assert idx.is_simple_pattern
        assert (idx.n_complete == 30).all()
        assert (idx.n1_only == 10).all() and (idx.n2_only == 10).all()

    def test_design1_pattern_counts(self):
        sample = draw_sample(scenario(pattern="design1", sizes=(75,)), 0)
        idx = derive_pattern_index(sample)
        assert not idx.is_simple_pattern
        # complete pattern plus every pattern observing both groups on var l
        cols = sample.observed
        patterns = {tuple(cols[:, k]) for k in range(sample.n)}
        assert len(patterns) == 15

    def test_null_groups_identical_in_law(self):
        # pooled one-sided draws from both groups must agree distributionally
        s = scenario(distribution="lognormal", sizes=(0, 1000, 1000),
                     replications=1, seed=3)
        g1, g2 = [], []
        for r in range(50):
            sample = draw_sample(s, r)
            idx = derive_pattern_index(sample)
            g1.append(sample.values[0, idx.g1_only_mask[0]])
            g2.append(sample.values[2, idx.g2_only_mask[0]])
        stat, p = ks_2samp(np.concatenate(g1), np.concatenate(g2))
        assert p > 0.01

    def test_shift_moves_group2_only(self):
        s = scenario(distribution="lognormal", delta=(1.0, 1.0),
                     sizes=(0, 2000, 2000), seed=5)
        sample = draw_sample(s, 0)
        idx = derive_pattern_index(sample)
        g1 = np.log(sample.values[0, idx.g1_only_mask[0]])
        g2 = np.log(sample.values[2, idx.g2_only_mask[0]])
        assert abs(g1.mean()) < 0.15
        assert abs(g2.mean() - 1.0) < 0.15

    def test_cauchy_location_shift(self):
        s = scenario(distribution="cauchy", delta=(2.0, 2.0),
                     sizes=(0, 4000, 4000), seed=5)
        sample = draw_sample(s, 0)
        idx = derive_pattern_index(sample)
        med1 = np.median(sample.values[0, idx.g1_only_mask[0]])
        med2 = np.median(sample.values[2, idx.g2_only_mask[0]])
        assert abs(med1) < 0.15 and abs(med2 - 2.0) < 0.15


class TestRunScenario:
    def test_deterministic_rates(self):
        s = scenario(replications=100)
        a = run_scenario(s)
        b = run_scenario(s)
        assert {k: t.rejections for k, t in a.tallies.items()} == {
            k: t.rejections for k, t in b.tallies.items()
        }

    def test_rate_times_reps_is_count(self):
        res = run_scenario(scenario(replications=80))
        for tally in res.tallies.values():
            assert tally.rate * tally.evaluated == pytest.approx(tally.rejections)
            assert 0.0 <= tally.rate <= 1.0

    def test_power_monotone_in_shift(self):
        rates = []
        for delta in (0.3, 0.6, 0.9):
            res = run_scenario(scenario(delta=(delta, delta), replications=300, seed=17))
            rates.append(res.tallies["anova:all"])
        for low, high in zip(rates, rates[1:]):
            margin = 2 * np.hypot(low.mc_se, high.mc_se)
            assert high.rate >= low.rate - margin

    def test_methods_tallied_separately(self):
        s = scenario(replications=30, methods=("all", "complete", "incomplete"))
        res = run_scenario(s)
        assert set(res.tallies) == {
            "wald:all", "anova:all", "wald:complete",
            "anova:complete", "wald:incomplete", "anova:incomplete",
        }

    def test_inestimable_method_is_tallied_as_skipped(self):
        # no complete cases: the "complete" restriction is inestimable
        reps = 20
        res = run_scenario(scenario(
            sizes=(0, 10, 10), replications=reps,
            methods=("all", "complete", "incomplete"),
        ))
        assert res.failures == 0
        for key, tally in res.tallies.items():
            if key.endswith(":complete"):
                assert (tally.skipped, tally.evaluated) == (reps, 0)
            else:
                assert (tally.skipped, tally.evaluated) == (0, reps)

    def test_only_package_errors_count_as_failures(self, monkeypatch):
        import rankeffect.simulate as sim

        def statistical_failure(*args, **kwargs):
            raise ZeroCovariance("covariance estimate is zero")

        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(sim, "analyze", statistical_failure)
        assert run_scenario(scenario(replications=3)).failures == 3
        monkeypatch.setattr(sim, "analyze", bug)
        with pytest.raises(TypeError):
            run_scenario(scenario(replications=3))


class TestBlocks:
    @pytest.mark.parametrize("kw, failures, skipped", [
        (dict(sizes=(10, 3, 1), replications=40, methods=METHODS), 0, 0),
        (dict(pattern="design1", sizes=(75,), distribution="cauchy", replications=30), 0, 0),
        # exp overflows in one replicate of the run, which alone fails;
        # another has a zero covariance off the null point, which skips it
        (dict(distribution="lognormal", d=1, delta=(0.0,), sigma_sq=(1.0, 1e5),
              sizes=(2, 0, 2), replications=20, seed=2), 1, 1),
        (dict(d=1, delta=(0.5,), sigma_sq=(0.01, 0.01), sizes=(2, 0, 0),
              replications=20, methods=("all", "complete")), 0, 4),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_block_size_changes_no_tally(self, monkeypatch, kw, failures, skipped):
        import rankeffect.simulate as sim

        s = scenario(**kw)
        results = []
        for cells in (1, 10**9):  # one replicate per block, then the whole run in one
            monkeypatch.setattr(sim, "CELLS", cells)
            results.append(run_scenario(s))
        assert results[0] == results[1]
        assert results[0].failures == failures
        assert results[0].tallies["wald:all"].skipped == skipped

    def test_block_draws_are_the_replicates_draws(self):
        s = scenario(distribution="cauchy", pattern="design1", sizes=(75,), seed=3)
        block = draw_sample(s, range(4, 7))
        for i, r in enumerate(range(4, 7)):
            assert np.array_equal(block.values[i], draw_sample(s, r).values, equal_nan=True)
        assert np.array_equal(block.observed, draw_sample(s, 4).observed)


class TestRunGrid:
    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_master_seed_determinism(self):
        grid = [scenario(replications=60), scenario(replications=60, delta=(0.3, 0.3))]
        a = run_grid(grid, master_seed=5)
        b = run_grid(grid, master_seed=5)
        assert [r.tallies["anova:all"].rejections for r in a] == [
            r.tallies["anova:all"].rejections for r in b
        ]
        assert a[0].scenario.seed != a[1].scenario.seed

    def test_builtin_table3_row_count(self):
        grid = builtin_grid("table3", reps=10, dims=(2,))
        assert len(grid) == 16
        assert len(builtin_grid("table3", reps=10, dims=(2, 3, 5))) == 48

    def test_builtin_table6_row_count(self):
        assert len(builtin_grid("table6", reps=10)) == 48

    def test_unknown_builtin_lists_names(self):
        with pytest.raises(ScenarioError) as exc:
            builtin_grid("table99")
        assert "table3" in str(exc.value)

    def test_thread_env_capped_at_usable_cpus(self, monkeypatch):
        # reads the computed count only; no worker process is started
        import rankeffect.simulate as sim

        monkeypatch.setenv("RANK_EFFECT_THREADS", "64")
        assert sim._worker_count(100) == min(64, len(os.sched_getaffinity(0)))
        assert sim._worker_count(1) == 1

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("RANK_EFFECT_THREADS", "2")
        grid = [scenario(replications=40), scenario(replications=40, seed=2)]
        res = run_grid(grid)
        assert len(res) == 2
        monkeypatch.setenv("RANK_EFFECT_THREADS", "1")
        res_seq = run_grid(grid)
        assert [r.tallies["anova:all"].rejections for r in res] == [
            r.tallies["anova:all"].rejections for r in res_seq
        ]
