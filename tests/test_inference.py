import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankeffect import (
    METHODS,
    CovarianceEstimate,
    analyze,
    anova_test,
    build_masked_sample,
    build_rank_table,
    chisq_upper_tail,
    covariance_general,
    covariance_simple,
    derive_pattern_index,
    estimate_effects,
    restrict_method,
    wald_test,
)
from rankeffect.errors import DomainError, ZeroCovariance

from conftest import simple_mask
from oracles import chisq_upper_tail_highprec


def make_effects(p):
    return np.asarray(p, dtype=float)


def make_cov(v, estimator="simple"):
    return CovarianceEstimate(v_hat=np.asarray(v, dtype=float), estimator=estimator)


class TestChisqUpperTail:
    def test_at_zero(self):
        for k in (0.5, 1.0, 2.0, 7.3):
            assert chisq_upper_tail(0.0, k) == 1.0

    def test_df2_closed_form(self):
        assert chisq_upper_tail(5.991, 2.0) == pytest.approx(0.05, abs=1e-4)

    def test_df1_quantile(self):
        assert chisq_upper_tail(3.841, 1.0) == pytest.approx(0.05, abs=1e-4)

    def test_against_highprec_oracle(self):
        for k in (0.5, 1.0, 2.0, 3.7, 5.0, 12.25, 50.0):
            for x in (0.0, 1e-4, 0.5, 1.0, 3.841, 10.0, 42.0, 120.0, 200.0):
                assert chisq_upper_tail(x, k) == pytest.approx(
                    chisq_upper_tail_highprec(x, k), abs=1e-10
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_upper_tail(-1.0, 2.0)
        with pytest.raises(DomainError):
            chisq_upper_tail(1.0, 0.0)
        with pytest.raises(DomainError):
            chisq_upper_tail(float("nan"), 2.0)

    def test_monotone_in_statistic(self):
        xs = np.linspace(0, 30, 40)
        for k in (1.0, 2.5, 6.0):
            p = [chisq_upper_tail(x, k) for x in xs]
            assert all(a >= b for a, b in zip(p, p[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(0.02, 2000.0).flatmap(
                lambda k: st.tuples(
                    st.one_of(st.floats(0.0, 3.0 * k + 60.0), st.just(k + 2.0)), st.just(k)
                )
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_array_equals_its_scalar_calls(self, pairs):
        # each element depends on its own (x, k) alone: no stopping rule or
        # summation order is shared across an array
        x, k = (np.array(column) for column in zip(*pairs))
        singles = [chisq_upper_tail(a, b) for a, b in pairs]
        assert np.array_equal(chisq_upper_tail(x, k), singles)

    @pytest.mark.parametrize("k", [0.02, 0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 57.5, 300.0, 2000.0])
    def test_against_highprec_oracle_in_both_regimes(self, k):
        # x / 2 = k / 2 + 1 is where the series hands over to the quadrature
        switch = k / 2.0 + 1.0
        near = [2.0 * np.nextafter(switch, 0.0), 2.0 * switch, 2.0 * np.nextafter(switch, 9e9)]
        for x in [0.0, 1e-6, k / 2.0, *near, 2.0 * k + 10.0, 10.0 * k + 100.0, 1e3, 1e4, 1e6]:
            assert chisq_upper_tail(x, k) == pytest.approx(
                chisq_upper_tail_highprec(x, k), rel=1e-11, abs=1e-300
            )

    @pytest.mark.parametrize("k", [0.02, 0.5, 1.0, 3.7, 10.0, 300.0, 2000.0])
    def test_monotone_across_the_regime_switch(self, k):
        # the regimes meet within their accuracy (about 1e-14 for small k),
        # far below the tail's fall over a relative step of 1e-9 in x
        x = (k + 2.0) * (1.0 + 1e-9 * np.arange(-20, 21))
        assert np.all(np.diff(chisq_upper_tail(x, k)) < 0.0)

    def test_df_beyond_the_supported_range_is_domain_error(self):
        # the quadrature loses digits past k = 2000; a larger k is refused
        assert 0.0 < chisq_upper_tail(2002.0, 2000.0) < 1.0
        with pytest.raises(DomainError):
            chisq_upper_tail(2002.0, np.nextafter(2000.0, 3000.0))
        with pytest.raises(DomainError):
            chisq_upper_tail(1.0, float("inf"))

    def test_tiny_df_stays_in_the_unit_interval(self):
        # 1 - P rounded to -2.2e-16 for k below about 1e-15, where P is within an ulp of one
        k = np.geomspace(1e-300, 1e-3, 200)
        for x in (0.1, 1.0, 2.0):
            p = chisq_upper_tail(np.full(k.shape, x), k)
            assert np.all((p >= 0.0) & (p <= 1.0))


class TestWald:
    def test_null_point_gives_one(self):
        rep = wald_test(make_effects([0.5, 0.5]), make_cov(np.eye(2)), n=50)
        assert rep.statistic == 0.0 and rep.p_value == pytest.approx(1.0)
        assert not rep.reject

    def test_identity_covariance_closed_form(self):
        rep = wald_test(make_effects([0.6, 0.5]), make_cov(np.eye(2)), n=100)
        assert rep.statistic == pytest.approx(1.0)
        assert rep.df == 2.0
        assert rep.p_value == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_rank_one_covariance_reports_df_one(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        rep = wald_test(make_effects([0.6, 0.5]), make_cov(v), n=100)
        assert rep.df == 1.0
        assert any("pseudo-inverse" in f for f in rep.flags)
        assert rep.statistic == pytest.approx(1.0)

    def test_zero_covariance_null_vs_error(self):
        zero = make_cov(np.zeros((2, 2)))
        rep = wald_test(make_effects([0.5, 0.5]), zero, n=20)
        assert rep.p_value == 1.0 and "zero-covariance-null" in rep.flags
        with pytest.raises(ZeroCovariance):
            wald_test(make_effects([0.7, 0.5]), zero, n=20)

    def test_negative_quadratic_form_is_clamped(self):
        # an indefinite general-pattern estimate can make the form negative
        cov = CovarianceEstimate(v_hat=np.diag([1.0, -0.5]), estimator="general")
        rep = wald_test(make_effects([0.5, 0.6]), cov, n=10)
        assert rep.statistic < 0.0
        assert "negative quadratic form clamped to zero for the p-value" in rep.flags
        assert rep.df == 2 and rep.p_value == 1.0 and not rep.reject

    def test_invariance_under_congruence(self, rng):
        d = 3
        for _ in range(25):
            dev = rng.uniform(-0.2, 0.2, size=d)
            a = rng.standard_normal((d, d))
            v = a @ a.T + 0.5 * np.eye(d)  # nonsingular
            t = rng.standard_normal((d, d))
            while abs(np.linalg.det(t)) < 1e-3:
                t = rng.standard_normal((d, d))
            base = wald_test(make_effects(0.5 + dev), make_cov(v), n=40)
            dev2 = t @ dev
            dev2 = np.clip(dev2, -0.49, 0.49)  # keep p_hat in range
            if not np.allclose(dev2, t @ dev):
                continue
            rep2 = wald_test(make_effects(0.5 + t @ dev), make_cov(t @ v @ t.T), n=40)
            assert rep2.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert rep2.p_value == pytest.approx(base.p_value, rel=1e-9)


class TestAnova:
    def test_null_point(self):
        rep = anova_test(make_effects([0.5, 0.5]), make_cov(np.eye(2)), n=50)
        assert rep.statistic == 0.0 and rep.p_value == pytest.approx(1.0)

    def test_identity_covariance_df_is_dimension(self):
        rep = anova_test(make_effects([0.6, 0.4]), make_cov(np.eye(2)), n=50)
        assert rep.df == pytest.approx(2.0)

    def test_all_ones_covariance_df_is_one(self):
        rep = anova_test(make_effects([0.6, 0.4]), make_cov(np.ones((2, 2))), n=50)
        assert rep.df == pytest.approx(1.0)

    def test_zero_trace(self):
        zero = make_cov(np.zeros((2, 2)))
        rep = anova_test(make_effects([0.5, 0.5]), zero, n=20)
        assert rep.p_value == 1.0 and "zero-covariance-null" in rep.flags
        with pytest.raises(ZeroCovariance):
            anova_test(make_effects([0.7, 0.5]), zero, n=20)

    def test_f_statistic_value(self):
        # F = n/tr(V) * ||dev||^2 = 50/2 * 0.02 = 0.5
        rep = anova_test(make_effects([0.6, 0.4]), make_cov(np.eye(2)), n=50)
        assert rep.statistic == pytest.approx(0.5)
        assert rep.p_value == pytest.approx(chisq_upper_tail(2 * 0.5, 2.0))

    def test_null_calibration_continuous_data(self):
        """Rejection rate under a continuous exchangeable null stays near alpha."""
        rng = np.random.default_rng(321)
        obs = simple_mask(2, 30, 10, 10)
        reps, hits = 1000, 0
        for _ in range(reps):
            s = build_masked_sample(rng.standard_normal(obs.shape), obs)
            idx = derive_pattern_index(s)
            rt = build_rank_table(s)
            eff = estimate_effects(rt, idx)
            from rankeffect import covariance_simple

            cov = covariance_simple(rt, idx)
            hits += int(anova_test(eff, cov, s.n).reject)
        assert 0.03 <= hits / reps <= 0.08

    def test_p_values_in_unit_interval(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            v = a @ a.T
            dev = rng.uniform(-0.3, 0.3, size=d)
            for rep in (
                wald_test(make_effects(0.5 + dev), make_cov(v), n=30),
                anova_test(make_effects(0.5 + dev), make_cov(v), n=30),
            ):
                assert 0.0 <= rep.p_value <= 1.0
                assert rep.statistic >= 0.0


def reports_by_key(analyses):
    return {
        (rep.family, item.method): rep
        for item in analyses
        for rep in (item.wald, item.anova)
    }


class TestRunAllMethods:
    """Every case-restriction method through :func:`analyze`."""

    def test_fully_observed_all_equals_complete(self, rng):
        obs = np.ones((4, 12), bool)
        s = build_masked_sample(rng.integers(0, 5, obs.shape).astype(float), obs)
        analyses = analyze(s)
        assert [item.skipped is not None for item in analyses] == [False, False, True]
        reports = reports_by_key(analyses)
        for fam in ("wald", "anova"):
            assert reports[(fam, "all")].statistic == pytest.approx(
                reports[(fam, "complete")].statistic
            )
            assert reports[(fam, "all")].p_value == pytest.approx(
                reports[(fam, "complete")].p_value
            )
            assert any("inestimable" in f for f in reports[(fam, "incomplete")].flags)
            assert np.isnan(reports[(fam, "incomplete")].p_value)

    def test_single_group2_case_flags_degenerate_part(self, rng):
        obs = simple_mask(3, 33, 8, 1)
        s = build_masked_sample(rng.integers(1, 8, obs.shape).astype(float), obs)
        reports = reports_by_key(analyze(s))
        inc = reports[("anova", "incomplete")]
        assert any("degenerate" in f for f in inc.flags)
        assert 0.0 <= inc.p_value <= 1.0

    def test_alpha_outside_unit_interval_rejected(self, rng):
        obs = simple_mask(2, 8, 3, 3)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        for alpha in (0.0, 1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                analyze(s, alpha=alpha)

    @pytest.mark.parametrize("methods", [(), ("all", "all"), ("bogus",)])
    def test_empty_repeated_or_unknown_methods_rejected(self, rng, methods):
        # a repeated method would be tallied twice per replicate
        obs = simple_mask(2, 8, 3, 3)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        with pytest.raises(ValueError, match="method"):
            analyze(s, methods=methods)

    def test_unknown_pattern_rejected(self, rng):
        obs = simple_mask(2, 8, 3, 3)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        with pytest.raises(ValueError, match="pattern"):
            analyze(s, pattern="bogus")

    def test_six_reports_in_method_order(self, rng):
        obs = simple_mask(2, 8, 3, 3)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        labels = [(rep.family, item.method)
                  for item in analyze(s) for rep in (item.wald, item.anova)]
        assert labels == [
            ("wald", "all"), ("anova", "all"),
            ("wald", "complete"), ("anova", "complete"),
            ("wald", "incomplete"), ("anova", "incomplete"),
        ]

    def test_rests_on_the_samples_own_pattern_index(self, rng):
        # b has a's case counts with its one-sided subjects in other columns,
        # so only the masks tell the two indexes apart; b's index on a's
        # values would run NaN counts into the tail
        values = rng.integers(0, 9, (4, 12)).astype(float)
        masks = []
        for g1_only, g2_only in (([6, 7, 8], [9, 10, 11]), ([9, 10, 11], [6, 7, 8])):
            obs = np.ones((4, 12), bool)
            obs[2:, g1_only] = False
            obs[:2, g2_only] = False
            obs[0, 5] = False  # not treatment-level
            masks.append(obs)
        a, b = (build_masked_sample(np.where(obs, values, np.nan), obs) for obs in masks)
        idx_a, idx_b = derive_pattern_index(a), derive_pattern_index(b)
        for name in ("n_complete", "n1_only", "n2_only"):
            assert (getattr(idx_a, name) == getattr(idx_b, name)).all()
        assert not (idx_a.g1_only_mask == idx_b.g1_only_mask).all()
        analyses = analyze(a)
        assert [item.method for item in analyses] == list(METHODS)
        for item in analyses:
            sub, sub_idx = restrict_method(a, idx_a, item.method)
            b_sub = build_rank_table(sub)
            eff = estimate_effects(b_sub, sub_idx)
            estimator = covariance_simple if sub_idx.is_simple_pattern else covariance_general
            cov = estimator(b_sub, sub_idx)
            assert item.skipped is None
            np.testing.assert_array_equal(item.effects, eff)
            np.testing.assert_array_equal(item.covariance.v_hat, cov.v_hat)
            for got, test in ((item.wald, wald_test), (item.anova, anova_test)):
                want = test(eff, cov, sub_idx.n, 0.05)
                np.testing.assert_array_equal(got.statistic, want.statistic)
                np.testing.assert_array_equal(got.p_value, want.p_value)
