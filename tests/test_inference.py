import itertools
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankeffect import (
    METHODS,
    CovarianceEstimate,
    MethodAnalysis,
    PatternIndex,
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
from rankeffect import inference
from rankeffect.errors import DimensionMismatch, DomainError, EverythingFiltered, NoEstimablePart

from conftest import DATA_DIR, assert_wald_as_eigenpairs, random_general_sample, simple_mask
from oracles import chisq_upper_tail_highprec
import make_tail_constants


def make_effects(p):
    return np.asarray(p, dtype=float)


def make_cov(p, v, n, estimator="simple"):
    return CovarianceEstimate(
        p_hat=make_effects(p), v_hat=np.asarray(v, dtype=float), estimator=estimator, n=n
    )


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


class TestClosedForms:
    """Integer df up to 64 take closed forms built from IEEE basic operations."""

    CAP = 64

    @staticmethod
    def ulps(got, exact):
        """Largest error in units in the last place of each exact value's double."""
        return max(
            float(abs(mp.mpf(g) - e) / mp.mpf(float(np.spacing(float(e)))))
            for g, e in zip(got, exact)
        )

    def test_the_constants_are_the_generators(self):
        for name, want in make_tail_constants.constants().items():
            got = getattr(inference, name)
            got = [float(v).hex() for v in np.ravel(got)]
            assert got == [float(v).hex() for v in np.ravel(want)], name

    def test_exp_within_055_ulp(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-708.0, 709.0, 3000), rng.uniform(-0.1, 0.1, 500),
                            [0.0, -1e-300, 1e-20, -708.0, 709.0]])
        mantissa, exponent = inference._exp(x)
        with mp.workdps(40):
            assert self.ulps(np.ldexp(mantissa, exponent), [mp.exp(v) for v in x]) <= 0.55

    def test_scaled_erfc_within_2_ulp(self):
        rng = np.random.default_rng(6)
        z = np.concatenate([rng.uniform(1.2, 8.0, 2000), np.geomspace(8.0, 1e8, 500), [1.2]])
        with mp.workdps(40):
            exact = [mp.erfc(v) * mp.exp(mp.mpf(v) ** 2) for v in z]
            assert self.ulps(inference._erfcx(z), exact) <= 2.0

    def test_one_df_is_erfc_within_4_ulp(self):
        # above x = 3 the tail of one df is erfc(sqrt(x/2)), e^-x/2 times _erfcx
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(3.0, 60.0, 1500), rng.uniform(60.0, 1400.0, 500)])
        with mp.workdps(40):
            exact = [mp.erfc(mp.sqrt(mp.mpf(v) / 2)) for v in x]
            assert self.ulps(chisq_upper_tail(x, 1.0), exact) <= 4.0

    @pytest.mark.parametrize("k", range(1, CAP + 1))
    def test_against_mpmath(self, k):
        # x / 2 = k / 2 + 1 is where the series hands over to the closed sums
        switch = k + 2.0
        x = np.array([0.0, 1e-300, 1e-8, 0.1, k / 2.0, np.nextafter(switch, 0.0), switch,
                      np.nextafter(switch, 9e9), 2.0 * k + 10.0, 10.0 * k + 100.0, 1000.0,
                      1400.0, 1600.0, 1800.0, 1e4, 1e300])
        q = chisq_upper_tail(x, float(k))
        with mp.workdps(40):
            exact = [mp.gammainc(mp.mpf(k) / 2, mp.mpf(v) / 2, regularized=True) for v in x]
        for got, want in zip(q, exact):
            assert abs(got - want) <= 1e-15
            if want > 1e-300:  # subnormals keep fewer digits
                assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("k", range(1, CAP + 1))
    def test_monotone_in_x(self, k):
        # no step up anywhere, the regime switch at x = k + 2 included
        x = np.sort(np.concatenate([
            np.geomspace(1e-300, 3000.0, 3000),
            np.linspace(0.0, 4.0 * k + 100.0, 3000),
            (k + 2.0) * (1.0 + 1e-9 * np.arange(-20, 21)),
        ]))
        assert np.all(np.diff(chisq_upper_tail(x, float(k))) <= 0.0)

    def test_the_cap(self):
        # k = 64 is closed; 65 and fractional k keep the series and the quadrature
        x = np.array([10.0, 66.0, 200.0])
        a, half_x = x * 0.0 + 32.0, x / 2.0
        assert np.array_equal(chisq_upper_tail(x, 64.0), inference._closed_form(a, half_x))
        for k in (65.0, 3.5):
            lower = half_x < k / 2.0 + 1.0
            want = np.where(lower, inference._lower_series(k / 2.0 + 0 * x, half_x),
                            inference._laguerre_quadrature(k / 2.0 + 0 * x, half_x))
            assert np.array_equal(chisq_upper_tail(x, k), want)


def assert_undefined(rep):
    """Off the null point a zero covariance leaves the test undefined, not an error."""
    assert np.isnan([rep.statistic, rep.df, rep.p_value]).all()
    assert rep.reject is False
    assert rep.flags == (
        "inestimable: covariance estimate is zero while the effect deviates from one half",
    )


class TestWald:
    def test_null_point_gives_one(self):
        rep = wald_test(make_cov([0.5, 0.5], np.eye(2), n=50))
        assert rep.statistic == 0.0 and rep.p_value == pytest.approx(1.0)
        assert not rep.reject

    def test_identity_covariance_closed_form(self):
        rep = wald_test(make_cov([0.6, 0.5], np.eye(2), n=100))
        assert rep.statistic == pytest.approx(1.0)
        assert rep.df == 2.0
        assert rep.p_value == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_rank_one_covariance_reports_df_one(self):
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        rep = wald_test(make_cov([0.6, 0.5], v, n=100))
        assert rep.df == 1.0
        assert any("pseudo-inverse" in f for f in rep.flags)
        assert rep.statistic == pytest.approx(1.0)

    def test_zero_covariance_null_vs_error(self):
        rep = wald_test(make_cov([0.5, 0.5], np.zeros((2, 2)), n=20))
        assert rep.p_value == 1.0 and "zero-covariance-null" in rep.flags
        assert_undefined(wald_test(make_cov([0.7, 0.5], np.zeros((2, 2)), n=20)))

    def test_negative_quadratic_form_is_clamped(self):
        # an indefinite general-pattern estimate can make the form negative
        cov = CovarianceEstimate(
            p_hat=make_effects([0.5, 0.6]), v_hat=np.diag([1.0, -0.5]), estimator="general", n=10
        )
        rep = wald_test(cov)
        assert rep.statistic < 0.0
        assert "negative quadratic form clamped to zero for the p-value" in rep.flags
        assert rep.df == 2 and rep.p_value == 1.0 and not rep.reject

    def test_a_negative_trace_with_a_zero_eigenvalue_warns_nothing(self):
        # a trace <= 0 is the zero rule's; its eigenpairs, all kept under a
        # negative cutoff, once gave 0/0 and a RuntimeWarning
        rep = wald_test(make_cov([0.5, 0.5], [[-1.0, 0.0], [0.0, 0.0]], n=2))
        assert (rep.statistic, rep.df, rep.p_value) == (0.0, 0.0, 1.0)
        assert rep.flags == ("zero-covariance-null",)

    @pytest.mark.parametrize("v_hat", [
        np.full((2, 2), 2.5e-323),  # singular: a kept subnormal eigenvalue
        np.eye(2) * 1e-320,  # certified, a subnormal pivot
        np.eye(2) * 1e-306,  # certified, a finite form that n carries past the range
    ])
    def test_a_form_past_the_double_range_is_inf_and_rejects(self, v_hat):
        # it once raised an overflow RuntimeWarning, then DomainError on x = inf
        rep = wald_test(make_cov([1.0, 0.5], v_hat, n=2000))
        assert (rep.statistic, rep.p_value, rep.reject) == (np.inf, 0.0, True)

    def test_n_comes_from_the_covariance_and_alpha_is_keyword_only(self):
        # a third positional argument was the subject count; it must not
        # silently become alpha
        p_hat = make_effects([0.6, 0.5])
        for test in (wald_test, anova_test):
            with pytest.raises(TypeError):
                test(make_cov(p_hat, np.eye(2), n=100), 100)
            small, large = (test(make_cov(p_hat, np.eye(2), n=n)) for n in (25, 100))
            assert large.statistic == pytest.approx(4.0 * small.statistic)

    def test_invariance_under_congruence(self, rng):
        d = 3
        for _ in range(25):
            dev = rng.uniform(-0.2, 0.2, size=d)
            a = rng.standard_normal((d, d))
            v = a @ a.T + 0.5 * np.eye(d)  # nonsingular
            t = rng.standard_normal((d, d))
            while abs(np.linalg.det(t)) < 1e-3:
                t = rng.standard_normal((d, d))
            base = wald_test(make_cov(0.5 + dev, v, n=40))
            dev2 = t @ dev
            dev2 = np.clip(dev2, -0.49, 0.49)  # keep p_hat in range
            if not np.allclose(dev2, t @ dev):
                continue
            rep2 = wald_test(make_cov(0.5 + t @ dev, t @ v @ t.T, n=40))
            assert rep2.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert rep2.p_value == pytest.approx(base.p_value, rel=1e-9)


@st.composite
def wald_blocks(draw):
    """A block of estimates mixing definite, singular, indefinite and zero covariances.

    A definite one is ``a a' + c I``, ill-conditioned at c = 1e-12; a
    singular one ``a a'`` of a rank below d; an indefinite one (d > 1) has a
    diagonal entry pulled below minus the trace and another pushed up, so its
    trace stays positive; a zero one sits at the null point or off it, as
    does an indefinite one at d = 1.
    """
    d = draw(st.integers(1, 5))
    reps = draw(st.integers(1, 6))
    floats = st.floats(-3.0, 3.0, allow_subnormal=False)
    p_hat, v_hat = [], []
    for _ in range(reps):
        kind = draw(st.sampled_from(["definite", "singular", "indefinite", "null", "zero"]))
        a = draw(hnp.arrays(float, (d, d), elements=floats))
        dev = draw(hnp.arrays(float, d, elements=st.floats(-0.5, 0.5)))
        if kind == "definite":
            v = a @ a.T + draw(st.sampled_from([1e-12, 1e-6, 1e-3, 1.0])) * np.eye(d)
        elif kind == "singular":
            rank = draw(st.integers(0, d - 1))
            v = a[:, :rank] @ a[:, :rank].T
        elif kind == "indefinite" and d > 1:
            v = a @ a.T
            i, j = draw(st.permutations(range(d)))[:2]
            pull = np.trace(v) + 1.0
            v[i, i] -= pull
            v[j, j] += 2.0 * pull  # the trace stays positive
        else:
            v = np.zeros((d, d))
            dev = dev * (kind != "null")
        p_hat.append(0.5 + dev)
        v_hat.append(v)
    n = draw(st.integers(2, 500))
    return make_cov(p_hat, v_hat, n, estimator="general")


class TestWaldRoutes:
    """Certified replicates are eliminated; the rest take the eigenpairs, bit for bit."""

    @given(wald_blocks())
    @settings(max_examples=300, deadline=None)
    def test_a_block_agrees_with_its_eigenpair_oracle(self, cov):
        block = wald_test(cov)
        for r, (p_hat, v_hat) in enumerate(zip(cov.p_hat, cov.v_hat)):
            single = make_cov(p_hat, v_hat, cov.n, estimator="general")
            alone = wald_test(single)
            for field in ("statistic", "df", "p_value", "reject"):
                got, want = getattr(block, field)[r], getattr(alone, field)
                assert np.array_equal(got, want, equal_nan=True)
            assert block.flags[r] == alone.flags
            assert_wald_as_eigenpairs(alone, single)

    def test_eigh_runs_only_on_uncertified_replicates(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(v):
            calls.append(len(v))
            return eigh(v)

        monkeypatch.setattr(inference.np.linalg, "eigh", spy)
        definite = [[2.0, 0.5], [0.5, 1.0]]
        wald_test(make_cov([[0.6, 0.4], [0.7, 0.5]], [definite, definite], n=30))
        assert calls == []
        singular, indefinite = [[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, -1.0]]
        cov = make_cov([[0.6, 0.4]] * 4, [definite, singular, definite, indefinite], n=30)
        reports = wald_test(cov)
        assert calls == [2]
        assert list(reports.df) == [2.0, 1.0, 2.0, 2.0]


class TestAnova:
    def test_null_point(self):
        rep = anova_test(make_cov([0.5, 0.5], np.eye(2), n=50))
        assert rep.statistic == 0.0 and rep.p_value == pytest.approx(1.0)

    def test_identity_covariance_df_is_dimension(self):
        rep = anova_test(make_cov([0.6, 0.4], np.eye(2), n=50))
        assert rep.df == pytest.approx(2.0)

    def test_all_ones_covariance_df_is_one(self):
        rep = anova_test(make_cov([0.6, 0.4], np.ones((2, 2)), n=50))
        assert rep.df == pytest.approx(1.0)

    def test_zero_trace(self):
        rep = anova_test(make_cov([0.5, 0.5], np.zeros((2, 2)), n=20))
        assert rep.p_value == 1.0 and "zero-covariance-null" in rep.flags
        assert_undefined(anova_test(make_cov([0.7, 0.5], np.zeros((2, 2)), n=20)))

    def test_a_subnormal_estimate_is_inf_and_rejects(self):
        # n / trace once overflowed with a RuntimeWarning, and nu_hat was NaN,
        # as trace^2 and trace(V^2) both underflowed: then DomainError
        cov = make_cov([1.0, 0.5], np.full((2, 2), 2.5e-323), n=2)
        assert cov.nu_hat == 1.0
        rep = anova_test(cov)
        assert (rep.statistic, rep.df, rep.p_value, rep.reject) == (np.inf, 1.0, 0.0, True)
        # in a block, beside a normal-scale and a zero estimate
        block = make_cov(np.full((3, 2), [1.0, 0.5]), [np.eye(2), cov.v_hat, np.zeros((2, 2))], n=2)
        assert np.array_equal(block.nu_hat, [2.0, 1.0, np.nan], equal_nan=True)
        assert np.array_equal(anova_test(block).statistic, [0.25, np.inf, np.nan], equal_nan=True)

    def test_a_power_of_two_scales_the_statistic_and_keeps_the_df(self, rng):
        # at 2^-1000 the squares underflow and at 2^1000 they overflow, but
        # the entries keep every bit
        a = rng.standard_normal((3, 3))
        v = a @ a.T
        dev = rng.uniform(-0.3, 0.3, size=3)
        base = anova_test(make_cov(0.5 + dev, v, n=40))
        for power in (-1000, 1000):
            cov = make_cov(0.5 + dev, np.ldexp(v, power), n=40)
            rep = anova_test(cov)
            assert cov.nu_hat == base.df and rep.df == base.df
            assert rep.statistic == np.ldexp(base.statistic, -power)

    @given(wald_blocks())
    @settings(max_examples=300, deadline=None)
    def test_a_block_agrees_with_each_replicate_alone(self, cov):
        block = anova_test(cov)
        for r, (p_hat, v_hat) in enumerate(zip(cov.p_hat, cov.v_hat)):
            alone = anova_test(make_cov(p_hat, v_hat, cov.n, estimator="general"))
            for field in ("statistic", "df", "p_value", "reject"):
                got, want = getattr(block, field)[r], getattr(alone, field)
                assert np.array_equal(got, want, equal_nan=True)
            assert block.flags[r] == alone.flags

    def test_f_statistic_value(self):
        # F = n/tr(V) * ||dev||^2 = 50/2 * 0.02 = 0.5
        rep = anova_test(make_cov([0.6, 0.4], np.eye(2), n=50))
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
            from rankeffect import covariance_simple

            cov = covariance_simple(rt, idx)
            hits += int(anova_test(cov).reject)
        assert 0.03 <= hits / reps <= 0.08

    def test_p_values_in_unit_interval(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            v = a @ a.T
            dev = rng.uniform(-0.3, 0.3, size=d)
            for rep in (
                wald_test(make_cov(0.5 + dev, v, n=30)),
                anova_test(make_cov(0.5 + dev, v, n=30)),
            ):
                assert 0.0 <= rep.p_value <= 1.0
                assert rep.statistic >= 0.0



class TestOneEstimate:
    """Both tests read the effect, its covariance and ``n`` from one estimate."""

    def test_estimators_carry_the_effect_of_their_counts(self, rng):
        obs = simple_mask(2, 20, 6, 4)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        idx, b = derive_pattern_index(s), build_rank_table(s)
        for estimator in (covariance_simple, covariance_general):
            np.testing.assert_array_equal(estimator(b, idx).p_hat, estimate_effects(b, idx))
        for item in analyze(s):
            assert item.effects is item.covariance.p_hat

    def test_old_two_argument_call_is_a_type_error(self):
        cov = make_cov([0.6, 0.5], np.eye(2), n=50)
        for test in (wald_test, anova_test):
            with pytest.raises(TypeError):
                test(cov.p_hat, cov)

    @pytest.mark.parametrize("test", [wald_test, anova_test])
    def test_empty_sequence_is_a_dimension_mismatch(self, test):
        with pytest.raises(DimensionMismatch):
            test([])

    @pytest.mark.parametrize("test", [wald_test, anova_test])
    def test_sequence_of_different_d_is_a_dimension_mismatch(self, test):
        covs = [make_cov([0.6, 0.5], np.eye(2), n=50), make_cov([0.6, 0.5, 0.4], np.eye(3), n=50)]
        with pytest.raises(DimensionMismatch):
            test(covs)

    @pytest.mark.parametrize("test", [wald_test, anova_test])
    @pytest.mark.parametrize("reps", [(), (2,)], ids=["single", "block-of-2"])
    def test_sequence_of_different_batch_shape_is_a_dimension_mismatch(self, test, reps):
        # a block of 3 with one dataset, or with a block of 2: a stack would
        # broadcast or cut one of them silently
        block = make_cov([[0.6, 0.5]] * 3, np.stack([np.eye(2)] * 3), n=50)
        other = make_cov(np.full(reps + (2,), 0.6),
                         np.broadcast_to(np.eye(2), reps + (2, 2)), n=50)
        with pytest.raises(DimensionMismatch):
            test([block, other])

    @pytest.mark.parametrize("test", [wald_test, anova_test])
    def test_sequence_member_that_is_no_estimate_is_a_type_error(self, test):
        cov = make_cov([0.6, 0.5], np.eye(2), n=50)
        for member in (cov.p_hat, None, (cov,)):
            with pytest.raises(TypeError):
                test([cov, member])

    @pytest.mark.parametrize("p, v, n", [
        # a d = 2 effect with a d = 3 estimate: anova_test gave p = 0.919 and
        # wald_test numpy's reshape ValueError
        ([0.6, 0.5], np.eye(3), 50),
        # a block's effects with one dataset's estimate, and the reverse:
        # both ended in numpy's IndexError
        ([[0.6, 0.5]] * 3, np.eye(2), 50),
        ([0.6, 0.5], np.stack([np.eye(2)] * 3), 50),
        # a three-axis effect was tested as a block of one
        ([[[0.6, 0.5]]], np.eye(2)[None, None], 50),
        # n = 0 gave a statistic of 0 and p = 1, and n = 1 a test
        ([0.6, 0.5], np.eye(2), 0),
        ([0.6, 0.5], np.eye(2), 1),
    ], ids=["d2-with-d3", "block-with-single", "single-with-block", "3d", "n0", "n1"])
    def test_estimate_that_does_not_fit_is_a_dimension_mismatch(self, p, v, n):
        with pytest.raises(DimensionMismatch):
            make_cov(p, v, n=n)

    def test_arrays_are_stored_read_only_and_v_hat_symmetrised(self):
        p_hat = make_effects([0.5, 0.5])
        cov = make_cov(p_hat, [[2.0, 1.0], [0.0, 1.0]], n=10)
        np.testing.assert_array_equal(cov.v_hat, [[2.0, 0.5], [0.5, 1.0]])
        assert not cov.v_hat.flags.writeable and not cov.p_hat.flags.writeable
        assert p_hat.flags.writeable

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # alpha = 5 rejected at the null point, where p = 1; 0, negative or
        # NaN never rejected
        cov = make_cov([0.5, 0.5], np.eye(2), n=50)
        for test in (wald_test, anova_test):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                test(cov, alpha=alpha)


@pytest.mark.parametrize("record", ["sample", "index", "covariance", "analysis", "block-report"])
def test_records_holding_arrays_compare_by_identity(rng, record):
    # equal data made == raise numpy's ambiguous-truth ValueError, and hash()
    # raise TypeError
    obs = simple_mask(2, 8, 3, 3)
    values = rng.standard_normal(obs.shape)

    def build():
        item = analyze(build_masked_sample(values, obs), methods=("all",))[0]
        block = build_masked_sample(np.stack([values] * 3), obs)
        return {
            "sample": build_masked_sample(values, obs),
            "index": item.index,
            "covariance": item.covariance,
            "analysis": item,
            "block-report": analyze(block, methods=("all",))[0].wald,
        }[record]

    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2


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

    @pytest.mark.parametrize("methods", [
        ("all",), ("incomplete", "all"), METHODS, ("complete", "incomplete"),
    ])
    @pytest.mark.parametrize("reps", [(), (2,)], ids=["single", "block-of-2"])
    def test_one_call_of_each_test_per_analyze_call(self, monkeypatch, methods, reps):
        # every estimable method's tests come from one stacked call per family,
        # with "complete" estimable and with it skipped (one complete case)
        calls = []
        for name in ("wald_test", "anova_test"):
            original = getattr(inference, name)

            def counted(cov, *, alpha, _name=name, _test=original):
                calls.append(_name)
                return _test(cov, alpha=alpha)

            monkeypatch.setattr(inference, name, counted)
        for n_c, skipped in ((6, None), (1, "restriction 'complete' leaves 1 subject(s)")):
            obs = simple_mask(2, n_c, 4, 4)
            values = np.arange(np.prod(reps + obs.shape), dtype=float).reshape(reps + obs.shape)
            calls.clear()
            analyses = analyze(build_masked_sample(values % 7, obs), methods=methods)
            assert calls == ["wald_test", "anova_test"]
            assert [item.method for item in analyses] == list(methods)
            assert [item.skipped for item in analyses] == [
                skipped if method == "complete" else None for method in methods
            ]

    def test_skipped_block_reports_hold_separate_read_only_arrays(self):
        # the three NaN fields were one writable array: writing the statistic
        # wrote the df and the p-value too
        obs = simple_mask(2, 1, 4, 4)
        block = build_masked_sample(np.arange(72.0).reshape(2, 4, 9) % 5, obs)
        item = analyze(block, methods=("complete", "all"))[0]
        assert item.skipped
        for rep in (item.wald, item.anova):
            arrays = [rep.statistic, rep.df, rep.p_value, rep.reject]
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
            for a in arrays:
                assert a.shape == (2,) and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 5.0

    @pytest.mark.parametrize("block", [False, True])
    def test_inestimable_restrictions_are_skipped_with_their_reasons(self, block):
        # one complete case, on component 0; component 0's one-sided cases
        # are all in group 1
        obs = np.array([[1, 1, 1, 1, 1, 0],
                        [0, 1, 1, 0, 0, 0],
                        [1, 0, 0, 0, 0, 0],
                        [0, 0, 0, 1, 1, 1]], bool)
        values = np.arange(24.0).reshape(obs.shape)
        if block:
            values = np.stack([values, values[:, ::-1], 2.0 * values])
        analyses = analyze(build_masked_sample(values, obs))
        assert [item.skipped for item in analyses] == [
            None,
            "restriction 'complete' leaves 1 subject(s)",
            "restriction 'incomplete' leaves no group-2 data on component 0",
        ]
        for item in analyses[1:]:
            assert item.index is None and item.covariance is None
            for rep in (item.wald, item.anova):
                assert np.shape(rep.p_value) == ((3,) if block else ())
                assert np.isnan(rep.p_value).all()

    def test_each_covariance_carries_its_methods_subject_count(self, rng):
        obs = simple_mask(2, 20, 6, 4)
        s = build_masked_sample(rng.standard_normal(obs.shape), obs)
        analyses = analyze(s)
        assert [item.index.n for item in analyses] == [30, 20, 10]
        for item in analyses:
            assert item.covariance.n == item.index.n

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
            sub, sub_idx = restrict_method(a, item.method)
            b_sub = build_rank_table(sub)
            eff = estimate_effects(b_sub, sub_idx)
            estimator = covariance_simple if sub_idx.is_simple_pattern else covariance_general
            cov = estimator(b_sub, sub_idx)
            assert item.skipped is None
            np.testing.assert_array_equal(item.effects, eff)
            np.testing.assert_array_equal(item.covariance.v_hat, cov.v_hat)
            for got, test in ((item.wald, wald_test), (item.anova, anova_test)):
                want = test(cov, alpha=0.05)
                np.testing.assert_array_equal(got.statistic, want.statistic)
                np.testing.assert_array_equal(got.p_value, want.p_value)


def restricted_analysis(sample, method):
    """``method``'s analysis from its restricted sample ranked on its own, or its skip reason."""
    try:
        sub, sub_idx = restrict_method(sample, method)
        b = build_rank_table(sub)
        estimator = covariance_simple if sub_idx.is_simple_pattern else covariance_general
        cov = estimator(b, sub_idx)
    except (EverythingFiltered, NoEstimablePart) as exc:
        return str(exc)
    return MethodAnalysis(method, cov.p_hat, cov, sub_idx, wald_test(cov), anova_test(cov))


def assert_same_analysis(got, want):
    """Bit for bit: effects, covariance, counts, statistics, p-values and flags."""
    if isinstance(want, str):
        assert got.skipped == want
        return
    assert (got.method, got.skipped) == (want.method, None)
    for x, y in ((got.effects, want.effects), (got.covariance.v_hat, want.covariance.v_hat)):
        assert x.tobytes() == y.tobytes()
    assert got.covariance.degenerate == want.covariance.degenerate
    for name in ("n_complete", "n1_only", "n2_only"):
        assert np.array_equal(getattr(got.index, name), getattr(want.index, name))
    for x, y in ((got.wald, want.wald), (got.anova, want.anova)):
        for field in ("statistic", "df", "p_value", "reject"):
            assert np.asarray(getattr(x, field)).tobytes() == np.asarray(getattr(y, field)).tobytes()
        assert x.flags == y.flags


def _samples():
    from rankeffect.reports import parse_dataset
    from rankeffect.simulate import builtin_grid, draw_sample

    rng = np.random.default_rng(11)
    yield parse_dataset(DATA_DIR / "scattered_d4_n600.csv")
    yield parse_dataset(DATA_DIR / "paired_qol_42subjects.csv")
    yield draw_sample(builtin_grid("table3", reps=4, dims=(5,))[-1], range(4))
    for _ in range(4):
        yield random_general_sample(rng, d=3, n=25)[0]
    obs = np.ones((4, 12), bool)  # no one-sided case: "incomplete" is skipped
    yield build_masked_sample(rng.integers(0, 5, obs.shape).astype(float), obs)


def _indexed_samples():
    from rankeffect.reports import parse_dataset
    from rankeffect.simulate import builtin_grid, draw_sample

    yield parse_dataset(DATA_DIR / "paired_qol_42subjects.csv")
    yield parse_dataset(DATA_DIR / "scattered_d4_n600.csv")
    yield draw_sample(builtin_grid("design3", reps=5)[-1], range(5))


@pytest.mark.parametrize("sample", _indexed_samples())
def test_restricted_index_is_the_restricted_samples(sample):
    # analyze cuts the mask alone; restrict_method also builds the sample
    for item in analyze(sample):
        want = restrict_method(sample, item.method)[1]
        assert item.skipped is None
        for f in fields(PatternIndex):
            got = getattr(item.index, f.name)
            assert type(got) is type(getattr(want, f.name))
            assert np.array_equal(got, getattr(want, f.name))
            assert f.name == "is_simple_pattern" or got.dtype == getattr(want, f.name).dtype


@pytest.mark.parametrize("sample", _samples())
def test_a_methods_analysis_does_not_depend_on_the_others(sample):
    # each method's analysis is its restricted sample's, whether analyze gets
    # it alone, with the others, or in another order
    want = {method: restricted_analysis(sample, method) for method in METHODS}
    for k in (1, 2, 3):
        for methods in itertools.permutations(METHODS, k):
            analyses = analyze(sample, methods=methods)
            assert [item.method for item in analyses] == list(methods)
            for item in analyses:
                assert_same_analysis(item, want[item.method])
