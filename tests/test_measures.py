"""Sample estimators: frozen hand-computed values on {1,2,3}, brute-force
pair/combination oracles on small random samples, exact algebraic relations
between estimators, and the measure dispatcher."""

import re
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gmdinfo import (
    ECDF_CONVENTIONS,
    BadParameterError,
    EmptyTailError,
    Exponential,
    FewerThanTwoError,
    MEASURE_IDS,
    MeasureSpec,
    NonFiniteError,
    PhiSelector,
    PwmIndex,
    REGISTRY,
    TooFewObservationsError,
    WeightSelector,
    conditional_mean_above,
    conditional_mean_below,
    generalized_cumulative_entropy,
    generalized_residual_entropy,
    gmd,
    gmd_left,
    gmd_right,
    gmd_via_pwm,
    h_dyn,
    integrate_u,
    j_dyn,
    make_sample,
    mean_past_life,
    mean_residual_life,
    measure_sample,
    pairwise_max_mean,
    pairwise_min_mean,
    parse_phi,
    parse_weight,
    plotting_positions,
    pwm_plugin,
    pwm_unbiased_alpha,
    pwm_unbiased_beta,
    verify,
)
from gmdinfo import measures as measures_module
from oracles import (
    brute_gain_premium,
    brute_gce,
    brute_ge,
    brute_gmd,
    brute_gmd_left,
    brute_gmd_right,
    brute_h_dyn,
    brute_j_dyn,
    brute_max_of_k,
    brute_min_of_k,
    brute_pair_max_mean,
    brute_pair_min_mean,
    brute_risk_premium,
    full_plugin_form,
    full_pwm_plugin,
)

S123 = make_sample([1.0, 2.0, 3.0])


def value(sample, mid, **params):
    return measure_sample(sample, MeasureSpec(mid, **params))[0]


def random_samples(count, max_n=8, seed=20240817, allow_ties=False):
    """Yield small sorted-on-construction samples for oracle comparisons."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        if allow_ties and rng.random() < 0.5:
            x = rng.integers(0, 4, size=n).astype(float)
        else:
            x = rng.gamma(2.0, 1.5, size=n)
        yield make_sample(x)


class TestFrozenValues:
    """Every estimator pinned on the sample {1, 2, 3}."""

    def test_gmd_family(self):
        assert gmd(S123) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert gmd_via_pwm(S123) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_pairwise_means(self):
        assert pairwise_min_mean(S123.values) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert pairwise_max_mean(S123.values) == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_extropies(self):
        assert value(S123, "crj") == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert value(S123, "ce") == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert value(S123, "cj") == pytest.approx(-4.0 / 3.0, abs=1e-15)

    def test_dynamic_extropies(self):
        assert j_dyn(S123, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert h_dyn(S123, 3.0) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_truncated_gmd(self):
        assert gmd_left(S123, 1.5) == pytest.approx(0.5, abs=1e-15)
        assert gmd_left(S123, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert gmd_right(S123, 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_order_k_premia(self):
        # E(min of k) = k a_{k-1} and E(max of k) = k b_{k-1}
        assert 2 * pwm_unbiased_alpha(S123, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert 2 * pwm_unbiased_beta(S123, 1) == pytest.approx(8.0 / 3.0, abs=1e-15)
        assert value(S123, "risk_premium", k=2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert value(S123, "gain_premium", k=2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        # k = n reduces to the extreme order statistics
        assert 3 * pwm_unbiased_alpha(S123, 2) == pytest.approx(1.0, abs=1e-15)
        assert 3 * pwm_unbiased_beta(S123, 2) == pytest.approx(3.0, abs=1e-15)
        assert value(S123, "risk_premium", k=3) == pytest.approx(1.0, abs=1e-15)
        assert value(S123, "gain_premium", k=3) == pytest.approx(1.0, abs=1e-15)

    def test_inequality_and_tsallis(self):
        val, route = measure_sample(S123, MeasureSpec("s_gini", v=2.0))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert route == "unbiased-pwm"
        val, route = measure_sample(S123, MeasureSpec("crt", alpha=2.0))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert route == "unbiased-pwm"
        val, route = measure_sample(S123, MeasureSpec("ct", alpha=2.0))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert route == "unbiased-pwm"


class TestExactRelations:
    """Algebraic identities that hold to machine precision for any sample."""

    @pytest.mark.parametrize("sample", list(random_samples(30, allow_ties=True)))
    def test_pwm_route_matches_sorted_route(self, sample):
        assert gmd_via_pwm(sample) == pytest.approx(gmd(sample), abs=1e-12)

    @pytest.mark.parametrize("sample", list(random_samples(20, seed=7)))
    def test_extropies_are_half_pairwise_means(self, sample):
        assert value(sample, "crj") == pytest.approx(-0.5 * pairwise_min_mean(sample.values),
                                                     abs=1e-12)
        assert value(sample, "cj") == pytest.approx(-0.5 * pairwise_max_mean(sample.values),
                                                    abs=1e-12)

    @pytest.mark.parametrize("sample", list(random_samples(20, seed=7, allow_ties=True)))
    def test_cj_is_its_pwm_form(self, sample):
        assert measure_sample(sample, MeasureSpec("cj")) == (-pwm_unbiased_beta(sample, 1),
                                                             "unbiased-pwm")

    @pytest.mark.parametrize("sample", list(random_samples(20, seed=11)))
    def test_gmd_fractions(self, sample):
        g = gmd(sample)
        assert value(sample, "s_gini", v=2.0) == pytest.approx(g / 4.0, abs=1e-12)
        assert value(sample, "crt", alpha=2.0) == pytest.approx(g / 2.0, abs=1e-12)
        assert value(sample, "ct", alpha=2.0) == pytest.approx(g / 2.0, abs=1e-12)
        assert value(sample, "risk_premium", k=2) == pytest.approx(g / 2.0, abs=1e-12)
        assert value(sample, "gain_premium", k=2) == pytest.approx(g / 2.0, abs=1e-12)

    def test_scale_equivariance_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.random(12) * 5.0
        base = gmd(make_sample(x))
        assert gmd(make_sample(3.5 * x)) == pytest.approx(3.5 * base, rel=1e-12)
        assert gmd(make_sample(x + 7.0)) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.random(10)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        assert gmd(make_sample(shuffled)) == gmd(make_sample(x))
        assert value(make_sample(shuffled), "crj") == value(make_sample(x), "crj")


class TestBruteForceOracles:
    """Vectorized estimators against direct double loops / enumerations."""

    @pytest.mark.parametrize("sample", list(random_samples(25, allow_ties=True, seed=101)))
    def test_gmd_and_pairwise(self, sample):
        x = sample.values
        assert gmd(sample) == pytest.approx(brute_gmd(x), abs=1e-12)
        assert pairwise_min_mean(x) == pytest.approx(brute_pair_min_mean(x), abs=1e-12)
        assert pairwise_max_mean(x) == pytest.approx(brute_pair_max_mean(x), abs=1e-12)

    @pytest.mark.parametrize("sample", list(random_samples(25, seed=103)))
    def test_truncated_statistics(self, sample):
        x = sample.values
        if np.unique(x).size < 3:
            pytest.skip("needs three distinct values for two-sided truncation")
        t = float(np.unique(x)[1])  # at least two strictly above, two at or below
        assert gmd_left(sample, t - 1e-9) == pytest.approx(brute_gmd_left(x, t - 1e-9), abs=1e-12)
        assert gmd_right(sample, t + 1e-9) == pytest.approx(brute_gmd_right(x, t + 1e-9), abs=1e-12)
        assert j_dyn(sample, t - 1e-9) == pytest.approx(brute_j_dyn(x, t - 1e-9), abs=1e-12)
        assert h_dyn(sample, t + 1e-9) == pytest.approx(brute_h_dyn(x, t + 1e-9), abs=1e-12)

    @pytest.mark.parametrize("sample", list(random_samples(25, allow_ties=True, seed=107)))
    @pytest.mark.parametrize("k", [2, 3])
    def test_order_k_against_enumeration(self, sample, k):
        if sample.n < k:
            pytest.skip("k exceeds sample size")
        x = sample.values
        assert k * pwm_unbiased_alpha(sample, k - 1) == pytest.approx(brute_min_of_k(x, k),
                                                                      abs=1e-12)
        assert k * pwm_unbiased_beta(sample, k - 1) == pytest.approx(brute_max_of_k(x, k),
                                                                     abs=1e-12)


#: I14's sample side, which reads the premia's PWM form
I14_SAMPLE = next(ident.sample_sides for ident in REGISTRY if ident.id == "I14")


class TestPremiaHaveOneDefinition:
    """risk_premium and gain_premium have one sample estimator, their PWM form
    M(1,0,0) - k M(1,0,k-1) and k M(1,k-1,0) - M(1,0,0), which I14's sample side reads
    too; they no longer have an order-statistic route of their own."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_against_enumeration(self, k):
        for sample in random_samples(25, allow_ties=True, seed=113 + k):
            if sample.n < k:
                continue
            for mid, brute in (("risk_premium", brute_risk_premium),
                               ("gain_premium", brute_gain_premium)):
                got, route = measure_sample(sample, MeasureSpec(mid, k=k))
                assert route == "unbiased-pwm"
                assert got == pytest.approx(brute(sample.values, k), abs=1e-12), (mid, sample)

    @pytest.mark.parametrize("n", [2, 3, 50, 8193, 16385])
    def test_risk_plus_gain_is_the_i14_sample_lhs(self, n):
        """Bit for bit, whether the premia are evaluated in one walk, as I14 evaluates them,
        or each alone by measure_sample: the kernel's rows span the same ranks in every walk."""
        sample = make_sample(np.random.default_rng(n).exponential(size=n))
        specs = [MeasureSpec(mid, k=k) for k in (2, 3) if k <= n
                 for mid in ("risk_premium", "gain_premium")]
        values = measures_module._sample_values(sample.values, specs, "hazen")
        sides = [risk + gain for (risk, _), (gain, _) in zip(values[::2], values[1::2])]
        assert [lhs for lhs, _ in I14_SAMPLE(sample, "hazen")] == sides
        for spec, (want, _) in zip(specs, values):
            assert measure_sample(sample, spec) == (want, "unbiased-pwm")

    @pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
    @pytest.mark.parametrize("mid", ["risk_premium", "gain_premium"])
    def test_k_above_n_takes_the_plugin_form(self, mid, conv):
        """k > n has no unbiased estimator; the form then reads every moment by the
        plug-in, as pwm with s >= n does, where it used to raise TooFewObservationsError."""
        for sample, k in ((S123, 4), (S123, 7), (EXP50, 51), (EXP50, 400)):
            got, route = measure_sample(sample, MeasureSpec(mid, k=k), conv)
            want = full_plugin_form(sample.values, mid, conv, k=k)
            assert route == "plugin-pwm"
            assert abs(got - want) <= 1e-12 * abs(want), (sample.n, k, got, want)


class TestOneEstimatorPerForm:
    """A PWM form reads all its moments from one estimator.  sr and sp once read an integer
    order's moment by the unbiased route and a non-integer one's by the plug-in, and divided
    the O(1/n) gap between the two by beta - alpha: on 1,000 exp(1) draws, sr(2, 2 + 1e-6)
    read -508.05 and sr(1.999999, 2) +508.56."""

    SAMPLES = (make_sample(np.random.default_rng(1).exponential(size=1000)),
               make_sample(np.random.default_rng(2).pareto(3.0, size=300) + 1.0),
               make_sample(np.round(np.random.default_rng(3).gamma(2.0, 1.0, size=40), 1)))

    @staticmethod
    def rounding_floor(values, mid, a, b):
        """1e-15 of sum |c_k M_k|, the scale of the form's two terms, which cancel to
        |b - a| of it: a difference quotient's rounding floor."""
        side = (lambda o: (1, 0, o - 1)) if mid == "sr" else (lambda o: (1, o - 1, 0))
        return 1e-15 * sum(o * full_pwm_plugin(values, *side(o), "hazen") for o in (a, b)) \
            / abs(b - a)

    @pytest.mark.parametrize("delta", [1e-1, -1e-1, 1e-2, -1e-2, 1e-3, -1e-3])
    @pytest.mark.parametrize("e", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("mid", ["sr", "sp"])
    def test_near_an_integer_order_is_the_all_plugin_form(self, mid, e, delta):
        """1e-12 relative plus the rounding floor: at delta = 1e-3 on the Pareto draws both
        this oracle and the kernel are 3e-12 to 6e-12 off the form in 40-digit arithmetic."""
        a, b = e, e + delta
        for sample in self.SAMPLES:
            got, route = measure_sample(sample, MeasureSpec(mid, alpha=a, beta=b))
            want = full_plugin_form(sample.values, mid, alpha=a, beta=b)
            assert route == "plugin-pwm"
            assert abs(got - want) <= 1e-12 * abs(want) + self.rounding_floor(
                sample.values, mid, a, b), (sample.n, got, want)

    @pytest.mark.parametrize("e", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("mid", ["sr", "sp"])
    def test_continuous_across_an_integer_order(self, mid, e):
        """1e-6 relative, plus the same rounding floor: at delta = 1e-8 the Pareto draws'
        sr(3, 3 + delta) moves by 1.2e-6 of itself when alpha moves by 1e-9, a difference
        quotient's loss of eps/delta, which divided-difference moments would remove."""
        for sample in self.SAMPLES:
            for delta in 10.0 ** -np.arange(1, 9):
                at = value(sample, mid, alpha=e, beta=e + delta)
                past = value(sample, mid, alpha=e + 1e-9, beta=e + delta)
                assert abs(at - past) <= 1e-6 * abs(at) + self.rounding_floor(
                    sample.values, mid, e, e + delta), (sample.n, delta, at, past)


class TestGeneralizedEntropies:
    """Rank-computed generalized entropies against per-rank loops."""

    WEIGHTS = [
        WeightSelector("const", c=1.0),
        WeightSelector("const", c=2.5),
        WeightSelector("cdf-power", j=1.0),
        WeightSelector("sf-power", j=2.0),
    ]
    PHIS = [PhiSelector(1.0, 1.0), PhiSelector(2.0, 2.0)]

    @pytest.mark.parametrize("sample", list(random_samples(12, allow_ties=True, seed=109)))
    @pytest.mark.parametrize("conv", ["hazen", "naive", "mean-rank"])
    def test_against_brute_loops(self, sample, conv):
        u = plotting_positions(sample.n, conv)
        for w in self.WEIGHTS:
            for phi in self.PHIS:
                got = generalized_residual_entropy(sample, w, phi, conv)
                want = brute_ge(sample.values, u, w.at_probability, phi)
                assert got == pytest.approx(want, abs=1e-12), (w.describe(), phi.describe())
                got = generalized_cumulative_entropy(sample, w, phi, conv)
                want = brute_gce(sample.values, u, w.at_probability, phi)
                assert got == pytest.approx(want, abs=1e-12), (w.describe(), phi.describe())

    def test_all_ties_collapse_to_zero(self):
        flat = make_sample([2.0, 2.0, 2.0, 2.0])
        w = WeightSelector("const")
        phi = PhiSelector()
        assert generalized_residual_entropy(flat, w, phi) == 0.0
        assert generalized_cumulative_entropy(flat, w, phi) == 0.0

    def test_both_are_nonnegative_for_increasing_phi(self):
        for sample in random_samples(10, allow_ties=True, seed=113):
            w = WeightSelector("cdf-power", j=1.0)
            phi = PhiSelector(1.0, 1.0)
            assert generalized_residual_entropy(sample, w, phi) >= 0.0
            assert generalized_cumulative_entropy(sample, w, phi) >= 0.0


class TestPowerDifference:
    """P^a - P^b from P and Q = 1 - P, as the x-domain forms of ct, wct, sp, spw and
    gain_premium form their F-power differences."""

    ORDERS = [(1.0, 2.5), (1.0, 0.5), (3.0, 2.0), (0.0, 3.0), (1.0, 1.01)]

    @pytest.mark.parametrize("a, b", ORDERS)
    def test_against_mpmath_whichever_side_is_small(self, a, b):
        with mpmath.workdps(700):  # 1 - 1e-300 held exactly
            for level in (1e-300, 1e-100, 2.0**-41, 1e-6, 0.3):
                t = mpmath.mpf(level)
                for p, q in ((t, 1 - t), (1 - t, t)):
                    got = measures_module._power_difference(
                        np.array([float(p)]), np.array([float(q)]), a, b)[0]
                    want = float(p**a - p**b)
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0), (level, p < q)

    @pytest.mark.parametrize("a, b", ORDERS)
    def test_subnormal_p_against_mpmath(self, a, b):
        """Where Q/P overflows, log P is log(P) itself: as log1p(Q/P) = inf, the bracket read 1,
        and P^1 - P^1.01 at P = 1e-310 was 8e-4 off.  No RuntimeWarning either."""
        with mpmath.workdps(50):
            for p in (1e-310, 5e-324):
                got = measures_module._power_difference(np.array([p]), np.array([1.0]), a, b)[0]
                want = float(mpmath.mpf(p) ** a - mpmath.mpf(p) ** b)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), p

    def test_ends_are_exact_and_warning_free(self):
        """At P = 0 and at the smallest subnormal P, where Q/P divides by 0 or overflows, and
        at P = 1, with no RuntimeWarning (the suite makes one an error)."""
        zero, tiny, one = np.array([0.0]), np.array([5e-324]), np.array([1.0])
        for a, b in self.ORDERS:
            assert measures_module._power_difference(zero, one, a, b)[0] == 0.0**a - 0.0**b
            assert measures_module._power_difference(tiny, one, a, b)[0] == 5e-324**a - 5e-324**b
            assert measures_module._power_difference(one, zero, a, b)[0] == 0.0


class TestSelectors:
    def test_parse_weight_forms(self):
        assert parse_weight("0.5") == WeightSelector("const", c=0.5)
        assert parse_weight("const:2") == WeightSelector("const", c=2.0)
        assert parse_weight("F") == WeightSelector("cdf-power", j=1.0)
        assert parse_weight("Fbar^2") == WeightSelector("sf-power", j=2.0)
        assert parse_weight("fbar") == WeightSelector("sf-power", j=1.0)

    def test_parse_weight_rejects_junk(self):
        with pytest.raises(BadParameterError, match="cannot parse weight"):
            parse_weight("G^2")

    def test_parse_phi_forms(self):
        assert parse_phi("x") == PhiSelector(1.0, 1.0)
        assert parse_phi("2x") == PhiSelector(2.0, 1.0)
        assert parse_phi("2*x^1.5") == PhiSelector(2.0, 1.5)
        assert parse_phi("x^2") == PhiSelector(1.0, 2.0)

    def test_parse_phi_rejects_junk(self):
        with pytest.raises(BadParameterError, match="cannot parse phi"):
            parse_phi("sin(x)")

    @pytest.mark.parametrize("text", ["F^x", "Fbar^", "Fbar^1e", "const:", "const:abc"])
    def test_parse_weight_rejects_a_malformed_number(self, text):
        with pytest.raises(BadParameterError, match="cannot parse weight"):
            parse_weight(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " NaN ", "const:nan", "F^nan"])
    def test_parse_weight_refuses_a_number_that_is_not_finite(self, text):
        with pytest.raises(NonFiniteError, match="weight parameters must be finite"):
            parse_weight(text)

    @pytest.mark.parametrize("text", ["1e*x", "x^1e", "..*x", "+*x", "2e x"])
    def test_parse_phi_rejects_a_malformed_number(self, text):
        with pytest.raises(BadParameterError, match="cannot parse phi"):
            parse_phi(text)

    def test_parse_phi_reads_every_float_form(self):
        assert parse_phi("1.e1 * x ^ .5") == PhiSelector(10.0, 0.5)
        assert parse_phi("-1E-3x^+2") == PhiSelector(-1e-3, 2.0)

    def test_selector_guards(self):
        with pytest.raises(BadParameterError):
            WeightSelector("triangular")
        with pytest.raises(BadParameterError):
            WeightSelector("cdf-power", j=-1.0)
        with pytest.raises(BadParameterError):
            PhiSelector(v=0.0)

    @pytest.mark.parametrize("text", ["const:2", "F", "F^0", "F^1.5", "F^3",
                                      "Fbar", "Fbar^0", "Fbar^2.5"])
    def test_cumulative_weights_integrate_the_weighted_hazards(self, text):
        w = parse_weight(text)
        for q in (1e-3, 0.3, 0.5, 0.9, 0.999):
            up = integrate_u(lambda p: float(w.at_probability(p)) / (1.0 - p), lo=0.0, hi=q)
            down = integrate_u(lambda p: float(w.at_probability(p)) / p, lo=q, hi=1.0)
            assert float(w.cumulative_up(q)) == pytest.approx(up, rel=1e-9, abs=1e-12)
            assert float(w.cumulative_down(q)) == pytest.approx(down, rel=1e-9, abs=1e-12)
        grid = np.array([0.1, 0.5, 0.9])
        assert np.array_equal(w.cumulative_up(grid), [float(w.cumulative_up(q)) for q in grid])
        assert np.array_equal(w.cumulative_down(grid), [float(w.cumulative_down(q)) for q in grid])

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
    def test_cumulative_weights_keep_the_digits_of_an_exact_complement(self, j):
        # the quantile route passes v = 1 - q exactly; q itself rounds to 1 below 1e-16
        with mpmath.workdps(30):
            for v in (0.3, 1e-6, 1e-17, 1e-150):
                # int_0^{1-v} p^j/(1-p) dp, with 1 - p = e^s
                want = mpmath.quad(lambda s: (1 - mpmath.exp(s)) ** j, [mpmath.log(v), -1, 0])
                up = WeightSelector("cdf-power", j=j).cumulative_up(1.0 - v, v)
                down = WeightSelector("sf-power", j=j).cumulative_down(v, 1.0 - v)
                assert float(up) == pytest.approx(float(want), rel=1e-12), v
                assert float(down) == pytest.approx(float(want), rel=1e-12), v

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 3.0, 7.3, 30.0])
    def test_power_weights_keep_their_digits_where_they_are_small(self, j):
        # F^j's W_up(q) and Fbar^j's W_down(q) are int_0^x p^j/(1-p) dp at x = q and x = 1 - q
        def want(x):
            return x ** (j + 1) / (j + 1) * mpmath.hyp2f1(1, j + 1, j + 2, x)

        with mpmath.workdps(50):
            for q in (1e-3, 0.1, 0.3, 0.5, 0.7):
                up = WeightSelector("cdf-power", j=j).cumulative_up(q)
                down = WeightSelector("sf-power", j=j).cumulative_down(q)
                assert float(up) == pytest.approx(float(want(mpmath.mpf(q))), rel=1e-13), q
                assert float(down) == pytest.approx(float(want(1 - mpmath.mpf(q))), rel=1e-13), q

    def test_describe_round_trip(self):
        for text in ("const:2", "F^1", "Fbar^2"):
            assert parse_weight(parse_weight(text).describe()) == parse_weight(text)
        assert parse_phi(parse_phi("2*x^1.5").describe()) == PhiSelector(2.0, 1.5)


class TestMeasureSpec:
    def test_unknown_id(self):
        with pytest.raises(BadParameterError, match="unknown measure"):
            MeasureSpec("entropy")

    def test_missing_required_parameter(self):
        with pytest.raises(BadParameterError, match="requires parameter 'alpha'"):
            MeasureSpec("crt")
        with pytest.raises(BadParameterError, match="requires parameter 't'"):
            MeasureSpec("gmd_left")

    def test_extraneous_parameter(self):
        with pytest.raises(BadParameterError, match="does not take parameter 't'"):
            MeasureSpec("gmd", t=1.0)

    def test_value_guards(self):
        with pytest.raises(BadParameterError, match="t must be non-negative"):
            MeasureSpec("gmd_left", t=-1.0)
        with pytest.raises(BadParameterError, match="v must differ from 1"):
            MeasureSpec("s_gini", v=1.0)
        with pytest.raises(BadParameterError, match="k must be an integer >= 2"):
            MeasureSpec("risk_premium", k=1)
        with pytest.raises(BadParameterError, match="alpha must differ from 1"):
            MeasureSpec("crt", alpha=1.0)
        with pytest.raises(BadParameterError, match="beta must differ from alpha"):
            MeasureSpec("sr", alpha=2.0, beta=2.0)
        with pytest.raises(BadParameterError, match="must exceed -1"):
            MeasureSpec("pwm", p=1, s=-1.0)
        with pytest.raises(NonFiniteError, match="v must be finite"):
            MeasureSpec("s_gini", v=float("nan"))
        with pytest.raises(NonFiniteError, match="alpha must be finite"):
            MeasureSpec("crt", alpha=float("inf"))
        with pytest.raises(NonFiniteError, match="alpha must be finite"):
            MeasureSpec("sr", alpha=float("nan"), beta=2.0)
        with pytest.raises(NonFiniteError, match="beta must be finite"):
            MeasureSpec("sp", alpha=2.0, beta=float("-inf"))
        with pytest.raises(BadParameterError, match="k must be an integer >= 2"):
            MeasureSpec("risk_premium", k=float("nan"))
        with pytest.raises(BadParameterError, match="k must be an integer >= 2"):
            MeasureSpec("gain_premium", k=float("inf"))
        with pytest.raises(NonFiniteError, match="p must be finite"):
            MeasureSpec("pwm", p=float("nan"))
        with pytest.raises(NonFiniteError, match="alpha must be finite"):
            MeasureSpec("crt", alpha=float("nan"))
        with pytest.raises(NonFiniteError, match="beta must be finite"):
            MeasureSpec("sr", alpha=2.0, beta=float("inf"))
        with pytest.raises(BadParameterError, match="beta must differ from alpha"):
            MeasureSpec("spw", alpha=2.0, beta=2.0)

    def test_params_dict_renders_selectors(self):
        spec = MeasureSpec("ge", w=parse_weight("Fbar"), phi=parse_phi("2*x"))
        assert spec.params_dict() == {"w": "Fbar^1", "phi": "2*x^1"}
        assert MeasureSpec("crt", alpha=2.0).params_dict() == {"alpha": 2.0}


class TestDispatcher:
    def test_route_tokens(self):
        assert measure_sample(S123, MeasureSpec("gmd")) == (pytest.approx(4.0 / 3.0), "sorted-u-statistic")
        assert measure_sample(S123, MeasureSpec("cj"))[1] == "unbiased-pwm"
        assert measure_sample(S123, MeasureSpec("crj"))[1] == "unbiased-pwm"
        assert measure_sample(S123, MeasureSpec("crjw"))[1] == "plugin-pwm"
        assert measure_sample(S123, MeasureSpec("gmd_left", t=1.5))[1] == "truncated-u-statistic"
        assert measure_sample(S123, MeasureSpec("risk_premium", k=2))[1] == "unbiased-pwm"
        spec = MeasureSpec("ge", w=WeightSelector("const"), phi=PhiSelector())
        assert measure_sample(S123, spec)[1] == "ecdf-double-mean"

    def test_integer_exponents_take_unbiased_route(self):
        assert measure_sample(S123, MeasureSpec("s_gini", v=2.0))[1] == "unbiased-pwm"
        assert measure_sample(S123, MeasureSpec("s_gini", v=2.5))[1] == "plugin-pwm"
        assert measure_sample(S123, MeasureSpec("sr", alpha=1.0, beta=2.0))[1] == "unbiased-pwm"
        assert measure_sample(S123, MeasureSpec("sr", alpha=1.5, beta=2.0))[1] == "plugin-pwm"
        # weighted variants are second-moment plug-ins by construction
        assert measure_sample(S123, MeasureSpec("wcrt", alpha=2.0))[1] == "plugin-pwm"
        assert measure_sample(S123, MeasureSpec("srw", alpha=1.0, beta=2.0))[1] == "plugin-pwm"

    def test_pwm_measure_picks_route_by_index(self):
        val, route = measure_sample(S123, MeasureSpec("pwm", p=1, r=1.0))
        assert val == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert route == "unbiased-pwm"
        val, route = measure_sample(S123, MeasureSpec("pwm", p=1, s=1.0))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert route == "unbiased-pwm"
        assert measure_sample(S123, MeasureSpec("pwm", p=2, r=1.0))[1] == "plugin-pwm"
        assert measure_sample(S123, MeasureSpec("pwm", p=1, r=0.5))[1] == "plugin-pwm"

    def test_values_match_direct_calls(self):
        sample = make_sample(np.random.default_rng(5).gamma(2.0, 1.0, size=9))
        top = float(sample.values[-1])
        pairs = [
            (MeasureSpec("gmd_left", t=0.5), gmd_left(sample, 0.5)),
            (MeasureSpec("gmd_right", t=top), gmd_right(sample, top)),
            (MeasureSpec("h_dyn", t=top), h_dyn(sample, top)),
            (MeasureSpec("j_dyn", t=0.0), j_dyn(sample, 0.0)),
            (MeasureSpec("risk_premium", k=3),
             pwm_unbiased_alpha(sample, 0) - 3 * pwm_unbiased_alpha(sample, 2)),
            (MeasureSpec("gain_premium", k=3),
             3 * pwm_unbiased_beta(sample, 2) - pwm_unbiased_beta(sample, 0)),
        ]
        for spec, want in pairs:
            assert measure_sample(sample, spec)[0] == want, spec.id

    @pytest.mark.parametrize("spec", [
        MeasureSpec("crjw"), MeasureSpec("wce"), MeasureSpec("wcrt", alpha=2.0),
        MeasureSpec("wct", alpha=2.5), MeasureSpec("srw", alpha=1.0, beta=2.0),
        MeasureSpec("spw", alpha=1.0, beta=2.0), MeasureSpec("pwm", p=2, r=1.0),
    ], ids=lambda spec: spec.id)
    def test_non_finite_value_raises(self, spec):
        huge = make_sample([1e200, 2e200, 3e200])  # x^2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=f"^{spec.id} is not finite"):
                measure_sample(huge, spec)
            assert measure_sample(huge, MeasureSpec("gmd"))[0] == pytest.approx(4e200 / 3)

    def test_convention_changes_plugin_routes_only(self):
        sample = make_sample(np.random.default_rng(6).random(7))
        hz = measure_sample(sample, MeasureSpec("crjw"), conv="hazen")[0]
        nv = measure_sample(sample, MeasureSpec("crjw"), conv="naive")[0]
        assert hz != nv
        assert measure_sample(sample, MeasureSpec("gmd"), conv="hazen") == \
            measure_sample(sample, MeasureSpec("gmd"), conv="naive")


class TestTruncationErrors:
    def test_empty_tail(self):
        with pytest.raises(EmptyTailError, match="above"):
            gmd_left(S123, 5.0)
        with pytest.raises(EmptyTailError, match="below"):
            gmd_right(S123, 0.5)
        with pytest.raises(EmptyTailError):
            j_dyn(S123, 3.0)  # strict: nothing above the maximum

    def test_single_point_tail(self):
        with pytest.raises(FewerThanTwoError):
            gmd_left(S123, 2.5)
        with pytest.raises(FewerThanTwoError):
            gmd_right(S123, 1.5)
        with pytest.raises(FewerThanTwoError):
            h_dyn(S123, 1.0)

    def test_order_k_premia_stay_finite_for_large_k(self):
        # the binomial weights C(n-i, k-1)/C(n, k) overflow here; the
        # running-ratio PWM weights do not
        n, k = 2000, 400
        x = make_sample(np.random.default_rng(17).gamma(2.0, 1.0, size=n)).values
        sample = make_sample(x)
        want_min = sum(comb(n - i, k - 1) / comb(n, k) * x[i - 1] for i in range(1, n + 1))
        want_max = sum(comb(i - 1, k - 1) / comb(n, k) * x[i - 1] for i in range(1, n + 1))
        assert k * pwm_unbiased_alpha(sample, k - 1) == pytest.approx(want_min, rel=1e-12)
        assert k * pwm_unbiased_beta(sample, k - 1) == pytest.approx(want_max, rel=1e-12)


EXP50 = make_sample(np.random.default_rng(50).exponential(size=50))

#: every public door that takes a truncation point t
T_DOORS = {
    **{f"MeasureSpec({mid})": (lambda t, mid=mid: MeasureSpec(mid, t=t))
       for mid in ("gmd_left", "gmd_right", "j_dyn", "h_dyn")},
    **{f.__name__: (lambda t, f=f: f(EXP50, t))
       for f in (gmd_left, gmd_right, j_dyn, h_dyn, conditional_mean_above,
                 conditional_mean_below)},
    **{f.__name__: (lambda t, f=f: f(Exponential(1.0), t))
       for f in (mean_residual_life, mean_past_life)},
}

#: every public door that takes an ECDF convention
CONV_DOORS = {
    **{f"measure_sample({mid})": (lambda conv, spec=spec: measure_sample(EXP50, spec, conv))
       for mid, spec in (("gmd", MeasureSpec("gmd")), ("crj", MeasureSpec("crj")),
                         ("j_dyn", MeasureSpec("j_dyn", t=0.5)))},
    "pwm_plugin": lambda conv: pwm_plugin(EXP50, PwmIndex(1, 1.0), conv),
    **{f"verify({ident.id})": (lambda conv, ident=ident: verify(ident, EXP50, conv=conv))
       for ident in REGISTRY},
    "verify(I1)@model": lambda conv: verify(REGISTRY[0], Exponential(1.0), conv=conv),
}


class TestEntryChecks:
    """Each door checks t and conv itself: h_dyn(t=nan) returned nan, gmd_right(t=nan) the
    whole sample's value, j_dyn(t=-1) a value, and mean_past_life(t=inf) integrated until
    it failed; with conv="bogus", measure_sample returned values and verify passed I1."""

    @pytest.mark.parametrize("t, error, text", [
        (float("nan"), NonFiniteError, "t must be finite"),
        (float("inf"), NonFiniteError, "t must be finite"),
        (float("-inf"), NonFiniteError, "t must be finite"),
        (-1.0, BadParameterError, "t must be non-negative"),
    ], ids=["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("door", T_DOORS)
    def test_truncation_point(self, door, t, error, text):
        with pytest.raises(error, match=f"^{text}$"):
            T_DOORS[door](t)

    @pytest.mark.parametrize("door", CONV_DOORS)
    def test_convention(self, door):
        with pytest.raises(BadParameterError, match="^unknown ECDF convention 'bogus'"):
            CONV_DOORS[door]("bogus")


class TestDocumentedIds:
    """The README's and the module docstring's measure tables list exactly MEASURE_IDS."""

    def test_readme_measures_table(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Measures\n", 1)[1].split("\n## ", 1)[0]
        cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        assert {mid for cell in cells for mid in re.findall(r"`(\w+)`", cell)} == set(MEASURE_IDS)

    def test_module_docstring_table(self):
        lines = measures_module.__doc__.splitlines()
        rules = [i for i, line in enumerate(lines) if line.startswith("====")]
        width = lines[rules[0]].index(" ")
        rows = [line[:width] for line in lines[rules[1] + 1:rules[2]]]
        assert {mid for row in rows for mid in re.findall(r"\w+", row)} == set(MEASURE_IDS)
