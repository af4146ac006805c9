"""Parametric models: inverses, closed-form moments, parameter guards."""

import math

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


def _mp_quantile(model, v):
    """Q(1 - v) from each family's quantile formula, with 1 - v exact for v >= 1e-300.

    The power laws keep the model's double exponents 1/kappa and -1/a:
    at v = 1e-300, the rounding of -1/a alone moves a Pareto quantile by
    up to 2e-14, and that is not what these tests are about.
    """
    with mpmath.workdps(350):
        u = 1 - mpmath.mpf(v)
        if isinstance(model, Uniform):
            return model.a + (mpmath.mpf(model.b) - model.a) * u
        if isinstance(model, Exponential):
            return -model.mu * mpmath.log(1 - u)
        if isinstance(model, Weibull):
            return model.lam * (-mpmath.log(1 - u)) ** (1.0 / model.kappa)
        return model.sigma * (1 - u) ** (-1.0 / model.a)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
class TestComplementaryQuantile:
    """isf(v) is Q(1 - v) computed from v, so small v keep all their digits."""

    def test_matches_the_quantile_at_high_precision(self, model):
        for v in (0.5, 1e-3, 1e-9, 1e-300):
            want = float(_mp_quantile(model, v))
            assert float(model.isf(v)) == pytest.approx(want, rel=1e-14, abs=0.0), v

    def test_matches_the_quantile_where_one_minus_v_is_exact(self, model):
        v = 2.0 ** -np.arange(1.0, 31.0)
        np.testing.assert_array_max_ulp(model.isf(v), model.quantile(1.0 - v), maxulp=2)


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
                                       Weibull(0.7, 3.0), Weibull(1.5, 1e5), Weibull(5.0, 0.2)],
                             ids=lambda m: m.describe())
    def test_hazard(self, model):
        """-log sf(x) is (x/lam)^kappa, the hazard variable a light tail is mapped in."""
        lam, kappa = model.hazard
        y = np.array([1.0, 3.0, 10.0, 100.0])
        x = lam * y ** (1.0 / kappa)
        assert np.allclose(-np.log(model.sf(x)), (x / lam) ** kappa, rtol=1e-15, atol=0.0)

    def test_no_hazard(self):
        assert Uniform(0.5, 2.0).hazard is None
        assert Pareto(3.0, 2.0).hazard is None

    def test_supports(self):
        assert Uniform(0.5, 2.0).support == (0.5, 2.0)
        assert Exponential(1.0).support == (0.0, math.inf)
        assert Pareto(3.0, 2.0).support == (2.0, math.inf)


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
