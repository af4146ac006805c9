"""Probability-weighted moments: population integrals and the three
sample routes (plug-in, unbiased beta, unbiased alpha)."""

import numpy as np
import pytest

from gmdinfo import (
    BadParameterError,
    DomainError,
    Exponential,
    MeasureSpec,
    NonFiniteError,
    Pareto,
    PwmIndex,
    TooFewObservationsError,
    Uniform,
    UnsupportedSpecError,
    make_sample,
    measure_sample,
    plotting_positions,
    pwm_plugin,
    pwm_population,
    pwm_unbiased_alpha,
    pwm_unbiased_beta,
)
from oracles import (brute_gmd, brute_pwm_plugin, brute_unbiased_alpha, brute_unbiased_beta,
                     exact_order_weighted_fraction)


class TestPwmIndex:
    def test_accepts_fractional_exponents_above_minus_one(self):
        PwmIndex(1, r=0.5, s=-0.5)
        PwmIndex(2, r=-0.99, s=3.0)

    def test_rejects_exponents_at_or_below_minus_one(self):
        with pytest.raises(BadParameterError):
            PwmIndex(1, r=-1.0)
        with pytest.raises(BadParameterError):
            PwmIndex(1, s=-1.5)

    def test_rejects_bad_power(self):
        with pytest.raises(BadParameterError):
            PwmIndex(-1)
        with pytest.raises(BadParameterError):
            PwmIndex(1.5)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NonFiniteError, match="p must be finite"):
                PwmIndex(bad)
        assert issubclass(NonFiniteError, DomainError)


class TestPopulationClosedForms:
    """Hand-integrated values of int_0^1 Q(u)^p u^r (1-u)^s du."""

    def test_uniform(self):
        m = Uniform(0.0, 1.0)
        assert pwm_population(m, PwmIndex(1)) == pytest.approx(0.5, abs=1e-10)
        assert pwm_population(m, PwmIndex(1, r=1.0)) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert pwm_population(m, PwmIndex(1, s=1.0)) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert pwm_population(m, PwmIndex(2, r=1.0)) == pytest.approx(0.25, abs=1e-10)

    def test_exponential(self):
        m = Exponential(1.0)
        assert pwm_population(m, PwmIndex(1)) == pytest.approx(1.0, abs=1e-10)
        assert pwm_population(m, PwmIndex(1, r=1.0)) == pytest.approx(0.75, abs=1e-10)
        assert pwm_population(m, PwmIndex(1, s=1.0)) == pytest.approx(0.25, abs=1e-10)

    def test_pareto(self):
        m = Pareto(3.0, 1.0)
        # int (1-u)^(s - 1/3) du = 1/(s + 2/3)
        assert pwm_population(m, PwmIndex(1)) == pytest.approx(1.5, abs=1e-10)
        assert pwm_population(m, PwmIndex(1, s=1.0)) == pytest.approx(0.6, abs=1e-10)
        # Q^2 = (1-u)^(-2/3): integrable, value 3
        assert pwm_population(m, PwmIndex(2)) == pytest.approx(3.0, abs=1e-9)

    def test_fractional_exponent(self):
        # uniform: int u^(1/2) * u du = 2/5 with p=1 ... Q(u)=u so M_{1,1/2,0} = 2/5
        m = Uniform(0.0, 1.0)
        assert pwm_population(m, PwmIndex(1, r=0.5)) == pytest.approx(0.4, abs=1e-10)

    def test_moment_existence_guard(self):
        heavy = Pareto(3.0, 1.0)
        with pytest.raises(UnsupportedSpecError):
            pwm_population(heavy, PwmIndex(3))  # E X^3 diverges at tail index 3
        # raising s restores integrability: p < tail * (s+1)
        assert np.isfinite(pwm_population(heavy, PwmIndex(3, s=1.0)))


class TestPlugin:
    def test_matches_brute_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            x = rng.exponential(1.0, n)
            s = make_sample(x)
            for conv in ("hazen", "naive", "mean-rank"):
                u = plotting_positions(n, conv)
                for (p, r, sv) in ((1, 0.0, 0.0), (1, 1.0, 0.0), (1, 0.0, 1.0),
                                   (2, 1.0, 0.0), (2, 0.0, 2.0), (1, 0.5, 0.5)):
                    want = brute_pwm_plugin(x, u, p, r, sv)
                    got = pwm_plugin(s, PwmIndex(p, r=r, s=sv), conv)
                    assert got == pytest.approx(want, abs=1e-13), (conv, p, r, sv)

    def test_two_point_hazen_values(self):
        s = make_sample([0.0, 1.0])
        assert pwm_plugin(s, PwmIndex(1, r=1.0)) == pytest.approx(0.375)
        assert pwm_plugin(s, PwmIndex(1, s=1.0)) == pytest.approx(0.125)

    def test_negative_s_requires_interior_positions(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert np.isfinite(pwm_plugin(s, PwmIndex(1, s=-0.5), "hazen"))
        with pytest.raises(BadParameterError, match="convention"):
            pwm_plugin(s, PwmIndex(1, s=-0.5), "naive")


class TestUnbiasedRoutes:
    def test_order_zero_is_the_mean(self):
        s = make_sample([1.0, 4.0, 7.0, 10.0])
        assert pwm_unbiased_beta(s, 0) == pytest.approx(5.5)
        assert pwm_unbiased_alpha(s, 0) == pytest.approx(5.5)

    def test_small_sample_values(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert pwm_unbiased_beta(s, 1) == pytest.approx(4.0 / 3.0)
        assert pwm_unbiased_alpha(s, 1) == pytest.approx(2.0 / 3.0)

    def test_matches_binomial_weight_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            x = np.round(rng.gamma(2.0, 1.0, n), 2)  # some ties after rounding
            s = make_sample(x)
            for order in (0, 1, 2, 3):
                assert pwm_unbiased_beta(s, order) == pytest.approx(
                    brute_unbiased_beta(x, order), abs=1e-12)
                assert pwm_unbiased_alpha(s, order) == pytest.approx(
                    brute_unbiased_alpha(x, order), abs=1e-12)

    def test_exact_mean_and_gmd_decompositions(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            x = rng.pareto(3.0, n) + 1.0
            s = make_sample(x)
            b1 = pwm_unbiased_beta(s, 1)
            a1 = pwm_unbiased_alpha(s, 1)
            assert b1 + a1 == pytest.approx(np.mean(x), rel=1e-13)
            assert 2.0 * b1 - 2.0 * a1 == pytest.approx(brute_gmd(x), rel=1e-12, abs=1e-13)

    def test_rejects_bad_orders(self):
        s = make_sample([1.0, 2.0, 3.0])
        for est, name in ((pwm_unbiased_beta, "r"), (pwm_unbiased_alpha, "s")):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(NonFiniteError, match=f"{name} must be finite"):
                    est(s, bad)
            for bad in (1.5, -1):
                with pytest.raises(BadParameterError, match="non-negative integer"):
                    est(s, bad)

    @pytest.mark.parametrize("n", [40, 1500])
    def test_premia_at_k_near_n_match_exact_rationals(self, n):
        """k b_{k-1} and k a_{k-1} are built one order at a time, so an order past the
        interpreter's recursion limit (about 1000) is as good as a small one."""
        s = make_sample(np.random.default_rng(n).exponential(1.0, n))
        x = s.values
        mean = exact_order_weighted_fraction(x, 0, reverse=False)
        for k in (n - 300, n - 1, n) if n > 300 else (n - 2, n - 1, n):
            gain = k * exact_order_weighted_fraction(x, k - 1, reverse=False) - mean
            risk = mean - k * exact_order_weighted_fraction(x, k - 1, reverse=True)
            for mid, want in (("gain_premium", gain), ("risk_premium", risk)):
                got = measure_sample(s, MeasureSpec(mid, k=k))
                assert got == (pytest.approx(float(want), rel=1e-12), "unbiased-pwm"), (mid, k)

    def test_an_order_past_the_recursion_limit(self):
        s = make_sample(np.random.default_rng(6).exponential(1.0, 5000))
        want = exact_order_weighted_fraction(s.values, 1200, reverse=False)
        assert pwm_unbiased_beta(s, 1200) == pytest.approx(float(want), rel=1e-12)

    def test_needs_more_data_than_order(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(TooFewObservationsError):
            pwm_unbiased_beta(s, 2)
        with pytest.raises(TooFewObservationsError):
            pwm_unbiased_alpha(s, 3)

    def test_mean_over_replications_approaches_population(self):
        """b_1 is unbiased for M_{1,1,0}; check against uniform(0,1)."""
        rng = np.random.default_rng(99)
        reps = 2000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = pwm_unbiased_beta(make_sample(rng.random(12)), 1)
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(vals) - 1.0 / 3.0) < 4.0 * se
