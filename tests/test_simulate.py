import os
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from rankeffect import (
    MethodAnalysis,
    Scenario,
    build_sigma,
    builtin_grid,
    derive_pattern_index,
    draw_sample,
    run_grid,
    run_scenario,
)
from rankeffect.effects import METHODS
from rankeffect.errors import (
    DomainError,
    NonFiniteObservedValue,
    NotPositiveDefinite,
    ScenarioError,
)
from rankeffect.reports import render_simulation_table, simulation_results_document
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

    def test_a_draw_factors_sigma_once(self, monkeypatch):
        # the factorisation that validates sigma, when the scenario is built,
        # also supplies every draw's factor
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        s = scenario(d=3, delta=(0.0,) * 3)
        assert len(calls) == 1
        block = draw_sample(s, range(3))
        assert len(calls) == 1
        # and that factor is the one the draw uses
        chol = cholesky(build_sigma(3, *s.rho, *s.sigma_sq))
        rng = np.random.default_rng(np.random.SeedSequence(s.seed, spawn_key=(1,)))
        z = np.rint(chol @ rng.standard_normal(block.observed.shape))
        assert np.array_equal(block.values[1][block.observed], z[block.observed])


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

    @pytest.mark.parametrize("sigma_sq", [(-1.0, 1.0), (1.0, 0.0)])
    def test_a_variance_that_is_not_positive_is_a_scenario_error(self, sigma_sq):
        # a negative one reached np.sqrt and warned before failing to factor
        with pytest.raises(ScenarioError, match="sigma_sq values must be positive"):
            scenario(sigma_sq=sigma_sq)

    @pytest.mark.parametrize("rho12", [0.1, 0.0])
    def test_a_covariance_that_overflows_is_rejected(self, rho12):
        # the variances' product overflowed to inf and the scenario built with
        # a factor of inf and NaN entries, which failed every draw
        with pytest.raises(NotPositiveDefinite, match="finite positive definite"):
            scenario(rho=(0.1, 0.1, rho12), sigma_sq=(1e300, 1e300))
        with pytest.raises(NotPositiveDefinite):
            build_sigma(2, 0.1, 0.1, rho12, -1.0, 1.0)

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

    @pytest.mark.parametrize("pattern, sizes", [
        ("design1", (0,)), ("design2", (0, 0.5)),
        ("design1", (-15,)), ("design2", (-28, 0.5)), ("design3", (-5,)),
    ])
    def test_design_sizes_must_give_a_drawable_sample(self, pattern, sizes):
        # each validated, then run_scenario raised ZeroDivisionError (no
        # subject) or numpy's ValueError (a negative pattern count)
        with pytest.raises(ScenarioError, match=f"invalid {pattern}-pattern sizes"):
            scenario(pattern=pattern, sizes=sizes)

    def test_design3_without_complete_cases_is_valid(self):
        assert scenario(pattern="design3", sizes=(0,)).pattern_counts() == [0] + [100] * 14

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

    @pytest.mark.parametrize("named, kw", [
        ("pattern 'bogus'", dict(pattern="bogus")),
        ("d must be >= 1", dict(d=0)),
        ("alpha", dict(alpha=1.0)),
        ("proportion a = 1.5", dict(pattern="design2", sizes=(210, 1.5))),
        ("size = 30.5 is not an integer", dict(sizes=(30.5, 10, 10))),
    ])
    def test_out_of_range_value_is_named(self, named, kw):
        with pytest.raises(ScenarioError, match=named):
            scenario(**kw)

    @pytest.mark.parametrize("named, kw", [
        ("seed must be >= 0, got -1", dict(seed=-1)),
        ("seed must be an integer, got 1.5", dict(seed=1.5)),
        ("seed must be an integer, got True", dict(seed=True)),
        ("d must be an integer, got 2.0", dict(d=2.0)),
        ("replications must be an integer, got 2.5", dict(replications=2.5)),
    ])
    def test_count_that_is_not_a_non_negative_integer_is_named(self, named, kw):
        # each built, then failed inside run_scenario with a ValueError or TypeError
        with pytest.raises(ScenarioError, match=named):
            scenario(**kw)

    def test_numpy_integers_are_counts(self):
        s = scenario(d=np.int64(2), replications=np.int32(3), seed=np.uint64(5))
        assert run_scenario(s).tallies["anova:all"].evaluated == 3

    @pytest.mark.parametrize("numpy_seed, seed", [
        (np.uint64(2**64 - 1), 2**64 - 1),
        (np.int64(7), 7),
    ])
    def test_numpy_integer_seeds_draw_the_int_seeds_values(self, numpy_seed, seed):
        # mixed as numpy scalars, the seed's words would overflow with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = draw_sample(scenario(seed=numpy_seed, distribution="cauchy"), range(3))
        expected = draw_sample(scenario(seed=seed, distribution="cauchy"), range(3))
        assert block.values.tobytes() == expected.values.tobytes()

    def test_replace_checks_the_copy(self):
        with pytest.raises(ScenarioError, match="rho"):
            replace(scenario(), rho=(0.1, 0.1))

    def test_replace_rebuilds_the_draws_mask(self):
        copy = replace(scenario(), sizes=(5, 2, 3))
        fresh = scenario(sizes=(5, 2, 3))
        assert copy == fresh
        assert draw_sample(copy, 0).observed.shape == (4, 10)
        assert np.array_equal(draw_sample(copy, 0).observed, draw_sample(fresh, 0).observed)

    def test_a_pickled_scenario_draws_the_same_block(self):
        s = scenario(pattern="design1", sizes=(75,), distribution="cauchy", seed=3)
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and hash(copy) == hash(s)
        a, b = draw_sample(s, range(2, 5)), draw_sample(copy, range(2, 5))
        assert a.values.tobytes() == b.values.tobytes()
        assert np.array_equal(a.observed, b.observed)

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


# draw_sample(scenario(distribution=..., pattern=...), 0).values[:, :3]: the
# first three subjects of replicate 0, all observed, with design1 at n = 75
PINNED_DRAWS = {
    ("normal", "simple"): [[-1.0, 0.0, 0.0], [-1.0, -2.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]],
    ("normal", "design1"): [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, -1.0]],
    ("lognormal", "simple"): [
        [0.5271244931783837, 1.4810817240050667, 0.6749258920402775],
        [0.31949717653726, 0.17102734716403684, 2.6808868692236403],
        [0.8126931819680708, 0.903787659617825, 0.28209299257294845],
        [0.7881502011397465, 2.02220962960494, 3.263844134402649],
    ],
    ("lognormal", "design1"): [
        [0.5271244931783837, 1.4810817240050667, 0.6749258920402775],
        [0.8740920353317605, 0.28542956924959395, 0.8030889938471636],
        [0.8667226786599566, 2.1205297996744936, 3.2791923961200324],
        [3.1439684463102013, 0.46453035368600665, 0.49263252372016797],
    ],
    ("cauchy", "simple"): [
        [-3.2232204520214705, 1.4818589310492556, -1.8696552461123888],
        [-5.743573591881655, -6.662534647021959, 4.689673074581742],
        [-1.0440134838189965, -0.3816611551610738, -6.018234667902813],
        [-1.1983740738547306, 2.656781822738915, 5.625365399197994],
    ],
    ("cauchy", "design1"): [
        [-0.5958919648104543, 0.2737998343624889, -0.37820201391395564],
        [-0.1252329004113103, -0.8739896114681184, -0.2109508333798699],
        [-0.1331120814291997, 0.5239824664171252, 1.1424365221976658],
        [1.0660097695242046, -0.534482396761136, -0.6810690324529663],
    ],
}


class TestDrawSample:
    def test_deterministic_given_seed_and_index(self):
        s = scenario(seed=9)
        a = draw_sample(s, 3)
        b = draw_sample(s, 3)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        c = draw_sample(s, 4)
        assert not np.array_equal(a.values, c.values, equal_nan=True)

    @pytest.mark.parametrize("distribution, pattern", list(PINNED_DRAWS))
    def test_values_are_pinned(self, distribution, pattern):
        # outputs are byte-identical across releases only if the draws are
        sizes = (30, 10, 10) if pattern == "simple" else (75,)
        s = scenario(distribution=distribution, pattern=pattern, sizes=sizes)
        values = draw_sample(s, 0).values[:, :3]
        expected = PINNED_DRAWS[distribution, pattern]
        if distribution == "normal":  # rounded to integers, so exact
            assert np.array_equal(values, expected)
        else:  # BLAS may move the last bits of the Cholesky product
            np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("d", [31, 32, 33])
    def test_simple_allocation_at_wide_dimensions(self, d):
        # a pattern packed into one integer, 2**(2d) - 1, became a float64
        # array at d = 32, and its shift raised a bare TypeError
        sample = draw_sample(scenario(d=d, delta=(0.0,) * d, sizes=(10, 5, 5)), 0)
        expect = np.zeros((2 * d, 20), bool)
        expect[:, :10] = expect[:d, 10:15] = expect[d:, 15:] = True
        assert np.array_equal(sample.observed, expect)
        assert derive_pattern_index(sample).is_simple_pattern

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
        # an overflowing draw fails its replicate; an error that is no
        # package error propagates, from a pack as from a lone scenario
        import rankeffect.simulate as sim

        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        grid = [scenario(distribution="lognormal", sigma_sq=(1e6, 1e6), replications=3),
                scenario(replications=2, seed=2), scenario(replications=4, alpha=0.1)]
        assert [r.failures for r in run_grid(grid)] == [3, 0, 0]
        monkeypatch.setattr(sim, "analyze", bug)
        with pytest.raises(TypeError):
            run_scenario(scenario(replications=3))
        with pytest.raises(TypeError):
            run_grid(grid)

    def test_a_replicate_without_a_p_value_is_tallied_as_skipped(self, monkeypatch):
        # a zero covariance off the null point leaves one replicate's tests
        # NaN: that replicate is skipped, its flag uncounted, and the rest of
        # its block is evaluated
        import rankeffect.simulate as sim
        from rankeffect.inference import TestReport  # a module-level name would be collected

        undefined = (
            "inestimable: covariance estimate is zero while the effect deviates from one half",
        )

        def one_undefined(sample, alpha, methods):
            reps = len(sample.values)
            p = np.r_[np.nan, np.full(reps - 1, 0.01)]
            flags = (undefined, ("zero-covariance-null",)) + ((),) * (reps - 2)
            tests = [TestReport(p, p, p, p <= alpha, fam, flags) for fam in ("wald", "anova")]
            return [MethodAnalysis(m, None, None, None, *tests) for m in methods]

        monkeypatch.setattr(sim, "analyze", one_undefined)
        reps = 5
        res = run_scenario(scenario(replications=reps, methods=("all",)))
        assert res.failures == 0
        for tally in res.tallies.values():
            assert (tally.evaluated, tally.skipped) == (reps - 1, 1)
            assert (tally.rejections, tally.flagged) == (reps - 1, 1)

    def test_a_package_error_that_is_no_data_event_propagates(self, monkeypatch):
        # only an overflowing draw is a data event; a DomainError from
        # analyze was counted as 3 failures of 3, and a NonFiniteObservedValue
        # from analyze, which builds no sample, as a failure of its whole pack
        import rankeffect.simulate as sim

        grid = [scenario(replications=3), scenario(replications=2, seed=2)]
        for error in (DomainError("df must be positive"),
                      NonFiniteObservedValue("observed cells must be finite")):
            def bug(*args, error=error, **kwargs):
                raise error

            monkeypatch.setattr(sim, "analyze", bug)
            with pytest.raises(type(error)):
                run_scenario(scenario(replications=3))
            with pytest.raises(type(error)):
                run_grid(grid)

    def test_never_evaluated_method_has_no_rate(self):
        res = run_scenario(scenario(sizes=(0, 10, 10), replications=3, methods=("complete",)))
        tally = res.tallies["anova:complete"]
        assert (tally.evaluated, tally.skipped) == (0, 3)
        assert np.isnan(tally.rate) and np.isnan(tally.mc_se)
        row = simulation_results_document([res], {})["results"][0]
        assert row["methods"]["anova:complete"]["rate"] is None
        assert row["methods"]["anova:complete"]["mc_se"] is None
        assert render_simulation_table([res]).splitlines()[1].split()[-2:] == ["-", "-"]

    def test_failures_are_noted_in_the_table(self):
        # overflowing lognormal draws fail their replicates
        failed = run_scenario(scenario(distribution="lognormal", sigma_sq=(40000.0, 40000.0),
                                       replications=40, seed=1, label="wide"))
        clean = run_scenario(scenario(replications=40, seed=1, label="clean"))
        assert (failed.failures, clean.failures) == (4, 0)
        note = "  (4 of 40 failed)"
        rows = render_simulation_table([failed, clean]).splitlines()
        assert rows[1].startswith("wide") and rows[1].endswith(note)
        # the note follows the aligned cells; a row without failures has none
        assert rows[2].startswith("clean") and len(rows[2]) == len(rows[1]) - len(note)


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

    def test_an_overflowing_draw_fails_alone_without_a_rerun(self, monkeypatch):
        # 7 of 200 lognormal draws overflow in this one-block run; the other
        # 193 replicates are analyzed in the block's one call
        import rankeffect.simulate as sim

        s = scenario(distribution="lognormal", sigma_sq=(40000.0, 40000.0),
                     replications=200, seed=3)
        calls, analyze = [], sim.analyze

        def counting(sample, **kw):
            calls.append(len(sample.values))
            return analyze(sample, **kw)

        monkeypatch.setattr(sim, "analyze", counting)
        draws = recording_draw(monkeypatch)
        result = run_scenario(s)
        assert (result.failures, calls) == (7, [193])
        assert result.tallies["wald:all"].evaluated == 193
        assert draws == [(3, range(200))]  # the block was drawn once
        monkeypatch.setattr(sim, "CELLS", 1)  # one replicate a block
        calls.clear()
        draws.clear()
        assert run_scenario(s) == result
        assert len(calls) == 193
        assert draws == [(3, range(i, i + 1)) for i in range(200)]

    def test_blocks_are_balanced(self, monkeypatch):
        import rankeffect.simulate as sim

        s = scenario(replications=50)  # 2d * n = 200 cells a replicate
        draws = recording_draw(monkeypatch)
        monkeypatch.setattr(sim, "CELLS", 23 * 200)  # up to 23 a block: three blocks
        balanced = run_scenario(s)
        blocks = [block for _, block in draws]
        assert [r for block in blocks for r in block] == list(range(50))
        assert [len(block) for block in blocks] == [17, 17, 16]
        monkeypatch.setattr(sim, "CELLS", 1)
        assert run_scenario(s) == balanced

    @pytest.mark.parametrize("grid", ["table3", "table6", "design1", "design2", "design3"])
    def test_a_block_stays_within_its_memory_budget(self, grid):
        # the CELLS comment's budget, 44 bytes a cell, over the largest block
        # of the grid at the paper's 1000 replicates, once the caches that
        # its first call fills are full
        import tracemalloc

        import rankeffect.simulate as sim

        def cells(pack):
            return sum(len(block) for *_, block in pack) * pack[0][1]._observed.size

        pack = max(sim._packs(builtin_grid(grid, 1000)), key=cells)
        assert cells(pack) > sim.CELLS * 0.95
        sim._run_pack(pack)
        tracemalloc.start()
        try:
            sim._run_pack(pack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 44 * sim.CELLS

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("kw", [
        dict(pattern="design1", sizes=(75,)),
        dict(d=5, delta=(0.2,) * 5, sizes=(10, 3, 4)),
    ], ids=["design1", "simple-d5"])
    def test_block_draws_are_the_replicates_draws(self, distribution, kw):
        s = scenario(distribution=distribution, seed=3, **kw)
        block = draw_sample(s, range(4, 7))
        for i, r in enumerate(range(4, 7)):
            assert block.values[i].tobytes() == draw_sample(s, r).values.tobytes()
        assert np.array_equal(block.observed, draw_sample(s, 4).observed)


def recording_draw(monkeypatch):
    """Record ``(seed, replicates)`` of each ``simulate._draw`` call; return the list."""
    import rankeffect.simulate as sim

    draws, draw = [], sim._draw

    def recording(scenario, indices):
        draws.append((scenario.seed, indices))
        return draw(scenario, indices)

    monkeypatch.setattr(sim, "_draw", recording)
    return draws


def recording_analyze(monkeypatch, calls):
    """Record ``(replicates, alpha, methods)`` of each analyze call."""
    import rankeffect.simulate as sim

    analyze = sim.analyze

    def recording(sample, alpha, methods):
        calls.append((len(sample.values), alpha, tuple(methods)))
        return analyze(sample, alpha=alpha, methods=methods)

    monkeypatch.setattr(sim, "analyze", recording)


class TestPacks:
    # two masks of one shape, interleaved, same-mask scenarios that differ in
    # alpha or in methods, whose tallies would differ in a shared pack, and a
    # Cauchy scenario, which packs apart from its mask's normal one; 2d * n =
    # 200 cells a replicate
    GRID = [
        dict(replications=20, seed=1),
        dict(replications=15, seed=2, sizes=(10, 30, 10), distribution="cauchy"),
        dict(replications=20, seed=3, sigma_sq=(1.0, 5.0)),
        dict(replications=20, seed=4, alpha=0.5),
        dict(replications=15, seed=5, sizes=(10, 30, 10)),
        dict(replications=20, seed=6, methods=METHODS),
        dict(replications=20, seed=7, delta=(0.3, 0.3), alpha=0.5),
        dict(replications=20, seed=8, delta=(0.3, 0.3)),
    ]

    @pytest.mark.parametrize("threads, cells", [
        ("1", None), ("2", None), ("1", 7 * 200), ("2", 7 * 200),
    ], ids=["1", "2", "1-cut-inside", "2-cut-inside"])
    def test_grid_equals_each_scenarios_own_run(self, monkeypatch, threads, cells):
        import rankeffect.simulate as sim

        grid = [scenario(**kw) for kw in self.GRID]
        if cells is not None:  # blocks of up to 7, whose cuts fall inside scenarios
            monkeypatch.setattr(sim, "CELLS", cells)
            assert any(len(pack) > 1 and pack[0][2].start > 0 for pack in sim._packs(grid))
        solo = [run_scenario(s) for s in grid]
        assert solo[3].tallies["wald:all"] != solo[0].tallies["wald:all"]  # alpha shows
        monkeypatch.setenv("RANK_EFFECT_THREADS", threads)
        assert run_grid(grid) == solo

    def test_scenarios_pack_by_mask_methods_alpha_and_distribution(self, monkeypatch):
        calls = []
        recording_analyze(monkeypatch, calls)
        run_grid([scenario(**kw) for kw in self.GRID])
        # one pack per (mask, methods, alpha, distribution), opened in grid order
        assert calls == [
            (60, 0.05, ("all",)),  # scenarios 0, 2 and 7
            (15, 0.05, ("all",)),  # the other mask's Cauchy 1
            (40, 0.5, ("all",)),  # 3 and 6
            (15, 0.05, ("all",)),  # the other mask's normal 4
            (20, 0.05, METHODS),  # 5
        ]

    @pytest.mark.parametrize("reps", [1, 31, 50, 1000])
    @pytest.mark.parametrize("name", ["table3", "table6", "design1", "design2", "design3"])
    def test_each_stream_runs_once_in_balanced_blocks(self, name, reps):
        import rankeffect.simulate as sim

        def key(s):
            return s._observed.shape, s._observed.tobytes(), s.methods, s.alpha, s.distribution

        grid = builtin_grid(name, reps)
        streams = {}
        for pack in sim._packs(grid):
            (k, *others) = {key(s) for _, s, _ in pack}
            assert not others  # a block's parts share mask, methods, alpha and distribution
            assert all(s is grid[position] for position, s, _ in pack)
            streams.setdefault(k, []).append(pack)
        assert len(streams) == len({key(s) for s in grid})
        for k, blocks in streams.items():
            members = [(position, s) for position, s in enumerate(grid) if key(s) == k]
            total = sum(s.replications for _, s in members)
            size = max(1, sim.CELLS // members[0][1]._observed.size)
            lengths = [sum(len(part) for *_, part in block) for block in blocks]
            assert len(blocks) == -(-total // size)
            assert max(lengths) <= size
            assert lengths == sorted(lengths, reverse=True)
            assert lengths[0] - lengths[-1] <= 1
            assert all(part for block in blocks for *_, part in block)
            assert [(position, i) for block in blocks for position, _, part in block
                    for i in part] == [
                (position, i) for position, s in members for i in range(s.replications)
            ]

    def test_a_masks_stream_is_cut_into_balanced_blocks(self, monkeypatch):
        import rankeffect.simulate as sim

        monkeypatch.setattr(sim, "CELLS", 10 * 200)  # up to 10 replicates a block
        blocks = recording_draw(monkeypatch)
        calls = []
        recording_analyze(monkeypatch, calls)
        grid = [scenario(replications=r, seed=i) for i, r in enumerate((4, 3, 3, 2, 12, 5, 10))]
        results = run_grid(grid)
        # a stream of 39 replicates in ceil(39 / 10) = 4 blocks, the first ones
        # the longer; the cuts after replicates 20 and 30 fall inside scenarios
        assert [n for n, _, _ in calls] == [10, 10, 10, 9]
        assert blocks == [
            (0, range(4)), (1, range(3)), (2, range(3)), (3, range(2)), (4, range(8)),
            (4, range(8, 12)), (5, range(5)), (6, range(1)), (6, range(1, 10)),
        ]
        monkeypatch.setattr(sim, "CELLS", 1)  # one replicate a block, one scenario a pack
        assert run_grid(grid) == results == [run_scenario(s) for s in grid]

    def test_an_overflow_in_a_pack_fails_only_its_own_replicates(self, monkeypatch):
        # the lognormal section of the CI scenario file, run at --seed 3, in
        # which 15 draws overflow, and a unit-variance lognormal scenario: one
        # pack, as they share mask, methods, alpha and distribution
        lognormal = scenario(distribution="lognormal", sigma_sq=(40000.0, 40000.0),
                             replications=200, seed=0)
        calm = scenario(distribution="lognormal", replications=200, seed=0)
        calls = []
        recording_analyze(monkeypatch, calls)
        draws = recording_draw(monkeypatch)
        results = run_grid([lognormal, calm], master_seed=3)
        assert [r.failures for r in results] == [15, 0]
        assert [n for n, _, _ in calls] == [385]
        # each part was drawn once, the overflowing one too
        assert draws == [(r.scenario.seed, range(200)) for r in results]
        calls.clear()
        assert results == [run_scenario(r.scenario) for r in results]
        assert [n for n, _, _ in calls] == [185, 200]
        # a part whose every draw overflows fails whole, and the pack's other
        # parts are tallied from their own rows
        overflowing = scenario(distribution="lognormal", sigma_sq=(1e6, 1e6), replications=3)
        grid = [calm, overflowing, replace(calm, seed=4)]
        draws.clear()
        results = run_grid(grid)
        assert [r.failures for r in results] == [0, 3, 0]
        assert draws == [(0, range(200)), (1, range(3)), (4, range(200))]
        assert results == [run_scenario(s) for s in grid]
        assert all(t.evaluated == t.skipped == 0 for t in results[1].tallies.values())
        # a pack whose every draw overflows is not analyzed
        calls.clear()
        results = run_grid([overflowing, replace(overflowing, seed=2, replications=2)])
        assert [r.failures for r in results] == [3, 2]
        assert calls == []

    def test_overflow_failures_come_back_from_workers(self, monkeypatch):
        # the CI scenario file at --seed 3: its lognormal, normal and
        # small-variance sections, the last at alpha 0.1, run as three blocks
        # of 200, which two workers share, so the overflowing one is tallied
        # in another process
        import rankeffect.simulate as sim

        grid = [
            scenario(distribution="lognormal", sigma_sq=(40000.0, 40000.0), replications=200),
            scenario(replications=200),
            scenario(sigma_sq=(0.05, 0.05), delta=(1.0, 1.0), replications=200, alpha=0.1),
        ]
        assert len(sim._packs(grid)) == 3
        monkeypatch.setenv("RANK_EFFECT_THREADS", "1")
        alone = run_grid(grid, master_seed=3)
        assert [r.failures for r in alone] == [15, 0, 0]
        monkeypatch.setenv("RANK_EFFECT_THREADS", "2")
        assert run_grid(grid, master_seed=3) == alone

    def test_an_overflow_in_an_unobserved_cell_fails_nothing(self, monkeypatch):
        # inf planted in a masked cell of every replicate is masked away
        import rankeffect.simulate as sim

        grid = [scenario(replications=20), scenario(replications=15, seed=2),
                scenario(replications=30, seed=3, distribution="cauchy")]
        clean = run_grid(grid)
        draw = sim._draw

        def planting(s, indices):
            values = draw(s, indices)
            row, column = np.argwhere(~s._observed)[0]
            values[:, row, column] = np.inf
            return values

        monkeypatch.setattr(sim, "_draw", planting)
        planted = run_grid(grid)
        assert planted == clean
        assert [r.failures for r in planted] == [0, 0, 0]


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

    def test_reseeding_validates_no_scenario_again(self, monkeypatch):
        # a derived seed enters neither the Cholesky factor nor the mask
        grid = [scenario(replications=3), scenario(replications=3, d=3, delta=(0.0,) * 3)]
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        results = run_grid(grid, master_seed=5)
        assert calls == []
        for r, s in zip(results, grid):
            fresh = replace(s, seed=r.scenario.seed)
            assert r.scenario == fresh
            assert np.array_equal(r.scenario._chol, fresh._chol)
            assert np.array_equal(r.scenario._observed, fresh._observed)
        assert [r.scenario.seed for r in results] != [s.seed for s in grid]

    @pytest.mark.parametrize("named, master_seed", [
        ("master_seed must be >= 0, got -3", -3),
        ("master_seed must be an integer, got 1.5", 1.5),
    ])
    def test_bad_master_seed_is_named(self, named, master_seed):
        with pytest.raises(ScenarioError, match=named):
            run_grid([scenario(replications=2)], master_seed=master_seed)

    def test_builtin_table3_row_count(self):
        grid = builtin_grid("table3", reps=10, dims=(2,))
        assert len(grid) == 16
        assert len(builtin_grid("table3", reps=10, dims=(2, 3, 5))) == 48

    @pytest.mark.parametrize("name", ["table3", "table6"])
    def test_builtin_repeated_dimension_rejected(self, name):
        with pytest.raises(ScenarioError, match=r"dims \(3, 2, 3\) repeat a dimension"):
            builtin_grid(name, reps=10, dims=(3, 2, 3))

    @pytest.mark.parametrize("name", ["table6", "design1", "design2", "design3"])
    def test_bivariate_grid_rejects_dims(self, name):
        with pytest.raises(ScenarioError, match=rf"builtin grid '{name}' runs at d = 2"):
            builtin_grid(name, reps=10, dims=(2,))

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
        if hasattr(os, "sched_getaffinity"):  # Linux only
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        assert sim._worker_count(100) == min(64, usable)
        assert sim._worker_count(1) == 1

    def test_worker_count_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity exists on Linux only; elsewhere every run_grid
        # ended in an AttributeError.  No worker process is started.
        import rankeffect.simulate as sim

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("RANK_EFFECT_THREADS", "64")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sim._worker_count(100) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sim._worker_count(100) == 1
        assert len(run_grid([scenario(replications=5)])) == 1

    def test_unreadable_thread_env_means_one_worker(self, monkeypatch):
        import rankeffect.simulate as sim

        monkeypatch.setenv("RANK_EFFECT_THREADS", "abc")
        assert sim._worker_count(100) == 1

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
