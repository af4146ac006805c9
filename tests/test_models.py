"""Parametric models: inverses, closed-form moments, parameter guards."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gmdinfo import (
    BadParameterError,
    Exponential,
    NonFiniteError,
    Pareto,
    Uniform,
    Weibull,
    make_model,
)

ALL_MODELS = [
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.0),
    Exponential(1.0),
    Exponential(0.25),
    Weibull(0.5, 1.0),
    Weibull(2.0, 3.0),
    Pareto(3.0, 1.0),
    Pareto(2.5, 2.0),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
class TestInverseConsistency:
    def test_quantile_cdf_roundtrip(self, model):
        u = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        back = np.array([model.cdf(model.quantile(ui)) for ui in u])
        np.testing.assert_allclose(back, u, atol=1e-12, rtol=1e-12)

    def test_cdf_quantile_roundtrip(self, model):
        lo, hi = model.support
        top = model.quantile(0.999) if not math.isfinite(hi) else hi
        x = np.linspace(lo, top, 500)[1:-1]
        back = np.array([model.quantile(model.cdf(xi)) for xi in x])
        np.testing.assert_allclose(back, x, atol=1e-10, rtol=1e-10)

    def test_cdf_plus_sf_is_one(self, model):
        x = np.array([model.quantile(p) for p in (0.01, 0.2, 0.5, 0.8, 0.99)])
        total = np.array([model.cdf(xi) + model.sf(xi) for xi in x])
        np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_cdf_monotone_and_bounded(self, model):
        lo, _ = model.support
        x = np.linspace(max(lo - 1.0, 0.0), model.quantile(0.995), 400)
        f = np.array([model.cdf(xi) for xi in x])
        assert np.all(np.diff(f) >= -1e-15)
        assert f[0] >= 0.0 and f[-1] <= 1.0

    def test_sampling_is_deterministic_and_in_support(self, model):
        lo, hi = model.support
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        a = model.sample(64, rng1)
        b = model.sample(64, rng2)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= lo) and np.all(a <= hi)


def _mp_log_tail(model, y):
    """log Q(1 - e^-y) from each family's quantile formula, in mpmath at 60 digits or more.

    The power laws keep the model's double exponents 1/kappa and 1/a, so
    only the map's own arithmetic is measured.
    """
    with mpmath.workdps(max(mpmath.mp.dps, 60)):
        y = mpmath.mpf(y)
        if isinstance(model, Uniform):
            return mpmath.log(model.b - (mpmath.mpf(model.b) - model.a) * mpmath.exp(-y))
        if isinstance(model, Exponential):
            return mpmath.log(model.mu) + mpmath.log(y)
        if isinstance(model, Weibull):
            return mpmath.log(model.lam) + mpmath.log(y) * (1.0 / model.kappa)
        return mpmath.log(model.sigma) + y * (1.0 / model.a)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
class TestTailMap:
    """tail_map(y) is log Q(1 - e^-y) and its slope in y = -log S, from y itself, so a
    tail keeps its digits however deep: x = e^L(y) where S = e^-y underflows."""

    Y = (math.log(2.0), 1.0, 10.0, 1e2, 7e2, 1e3, 1e4)

    def test_matches_the_quantile_at_high_precision(self, model):
        for y in self.Y:
            want = float(_mp_log_tail(model, y))
            got = float(model.tail_map(y)[0])
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), y  # x to 1e-14

    def test_slope_is_the_derivative_of_the_log(self, model):
        for y in self.Y:
            with mpmath.workdps(60 + int(y)):  # the uniform's slope is e^-y of its log
                h = mpmath.mpf(10) ** -20 * y  # a central difference, exact to 1e-40
                want = float((_mp_log_tail(model, y + h) - _mp_log_tail(model, y - h)) / (2 * h))
            assert float(model.tail_map(y)[1]) == pytest.approx(want, rel=1e-13, abs=1e-300), y

    def test_matches_the_quantile_where_one_minus_v_is_exact(self, model):
        k = np.arange(1.0, 31.0)
        np.testing.assert_allclose(np.exp(model.tail_map(k * math.log(2.0))[0]),
                                   model.quantile(1.0 - 2.0**-k), rtol=1e-14, atol=0.0)


class TestClosedFormMoments:
    def test_means(self):
        assert Uniform(0.0, 1.0).mean() == pytest.approx(0.5)
        assert Uniform(0.5, 2.0).mean() == pytest.approx(1.25)
        assert Exponential(2.0).mean() == pytest.approx(2.0)
        assert Pareto(3.0, 1.0).mean() == pytest.approx(1.5)
        # Weibull mean = scale * Gamma(1 + 1/shape)
        assert Weibull(2.0, 1.0).mean() == pytest.approx(math.gamma(1.5))
        assert Weibull(0.5, 1.0).mean() == pytest.approx(2.0)

    def test_scale_equivariance_of_quantiles(self):
        base = Weibull(1.7, 1.0)
        scaled = Weibull(1.7, 2.5)
        for p in (0.1, 0.5, 0.9):
            assert scaled.quantile(p) == pytest.approx(2.5 * base.quantile(p))

    def test_units(self):
        assert Uniform(0.5, 2.0).unit() == 2.0
        assert Exponential(0.25).unit() == 0.25
        assert Weibull(2.0, 3.0).unit() == 3.0
        assert Pareto(2.5, 2.0).unit() == 2.0

    def test_pareto_tail_index(self):
        assert Pareto(3.0, 1.0).tail_index == 3.0
        assert math.isinf(Uniform(0.0, 1.0).tail_index)
        assert math.isinf(Exponential(1.0).tail_index)
        assert math.isinf(Weibull(0.5, 1.0).tail_index)

    @pytest.mark.parametrize("model", [Exponential(2.0), Exponential(1e-6), Weibull(0.3, 1.0),
                                       Weibull(0.7, 3.0), Weibull(1.5, 1e5), Weibull(5.0, 0.2),
                                       Pareto(2.2, 1.0), Pareto(4.0, 2.0)],
                             ids=lambda m: m.describe())
    def test_tail_map_inverts_the_survival_function(self, model):
        """-log sf(e^L(y)) is y: the map is the one sf's own hazard variable gives."""
        y = np.array([1.0, 3.0, 10.0, 100.0])
        x = np.exp(model.tail_map(y)[0])
        np.testing.assert_allclose(-np.log(model.sf(x)), y, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("mean", [1e-6, 1.0, 3.7, 1e5])
    def test_exponential_is_the_weibull_of_shape_one(self, mean):
        exp, weibull = Exponential(mean), Weibull(1.0, mean)
        assert isinstance(exp, Weibull) and (exp.mu, exp.kappa, exp.lam) == (mean, 1.0, mean)
        x = mean * np.array([0.0, 1e-300, 0.3, 5.0, 800.0, np.inf])
        u, y = np.array([0.0, 1e-9, 0.5, 0.9]), np.array([1e-3, 1.0, 700.0])
        for name, arg in (("cdf", x), ("sf", x), ("quantile", u), ("tail_map", y)):
            assert np.array_equal(getattr(exp, name)(arg), getattr(weibull, name)(arg))
        assert (exp.mean(), exp.median(), exp.unit()) == (mean, mean * math.log(2.0), mean)

    def test_supports(self):
        assert Uniform(0.5, 2.0).support == (0.5, 2.0)
        assert Exponential(1.0).support == (0.0, math.inf)
        assert Pareto(3.0, 2.0).support == (2.0, math.inf)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("family", ["uniform", "exponential", "weibull", "pareto"])
def test_below_the_support_cdf_is_0_and_sf_is_1_without_warnings(family, scale):
    """Also where x/scale would overflow a hazard, as x = -1 on a scale of 1e-6."""
    model = {"uniform": Uniform(0.0, scale), "exponential": Exponential(scale),
             "weibull": Weibull(1.5, scale), "pareto": Pareto(3.0, scale)}[family]
    below = [-math.inf, -1.0, -0.0, 0.0] + ([scale / 2.0] if family == "pareto" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in [np.array(below)] + below:
            assert np.all(model.cdf(x) == 0.0) and np.all(model.sf(x) == 1.0)


class TestParameterGuards:
    def test_uniform(self):
        with pytest.raises(BadParameterError):
            Uniform(-0.1, 1.0)
        with pytest.raises(BadParameterError):
            Uniform(1.0, 1.0)
        with pytest.raises(BadParameterError):
            Uniform(2.0, 1.0)

    def test_exponential(self):
        with pytest.raises(BadParameterError):
            Exponential(0.0)
        with pytest.raises(BadParameterError):
            Exponential(-1.0)

    def test_weibull(self):
        with pytest.raises(BadParameterError):
            Weibull(0.0, 1.0)
        with pytest.raises(BadParameterError):
            Weibull(1.0, 0.0)

    def test_pareto_needs_finite_variance(self):
        with pytest.raises(BadParameterError, match="pareto shape must exceed 2"):
            Pareto(2.0, 1.0)
        with pytest.raises(BadParameterError, match="pareto shape must exceed 2"):
            Pareto(1.5, 1.0)

    def test_non_finite_parameters(self):
        with pytest.raises(NonFiniteError):
            Exponential(np.nan)
        with pytest.raises(NonFiniteError):
            Weibull(np.inf, 1.0)


class TestMakeModel:
    def test_families(self):
        assert make_model("uniform", a=0.0, b=2.0).describe() == "uniform(a=0, b=2)"
        assert make_model("exponential", mean=1.0).describe() == "exponential(mean=1)"
        assert make_model("exp", mean=0.5).describe() == "exponential(mean=0.5)"
        assert make_model("weibull", shape=2.0, scale=1.0).describe() == \
            "weibull(shape=2, scale=1)"
        assert make_model("pareto", shape=3.0, scale=1.0).describe() == \
            "pareto(shape=3, scale=1)"

    def test_a_parameter_that_six_digits_do_not_name_is_shown_whole(self):
        assert Uniform(1e9, 1e9 + 1.0).describe() == "uniform(a=1e+09, b=1000000001.0)"
        assert Pareto(2.01171875).describe() == "pareto(shape=2.01171875, scale=1)"
        assert Weibull(1.5, 1e-4).describe() == "weibull(shape=1.5, scale=0.0001)"

    def test_defaults(self):
        assert make_model("uniform").describe() == "uniform(a=0, b=1)"
        assert make_model("exponential").mean() == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises(BadParameterError, match="unknown family"):
            make_model("lognormal", mean=1.0)

    def test_wrong_keyword(self):
        with pytest.raises(BadParameterError):
            make_model("uniform", mean=1.0)
        with pytest.raises(BadParameterError):
            make_model("exponential", shape=2.0)
