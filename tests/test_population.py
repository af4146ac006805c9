"""Population values against hand-integrated closed forms, the two
quadrature routes, existence guards, and the quadrature engine itself."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from gmdinfo import (
    BadParameterError,
    ClippedTailWarning,
    DEFAULT_CONFIG,
    DomainError,
    EmptyTailError,
    Exponential,
    MEASURE_IDS,
    MeasureSpec,
    NoConvergenceError,
    NonFiniteError,
    Pareto,
    PhiSelector,
    PwmIndex,
    QuadratureConfig,
    Uniform,
    UnsupportedSpecError,
    Weibull,
    WeightSelector,
    gce_population,
    ge_population,
    integrate_u,
    integrate_x,
    make_sample,
    mean_past_life,
    mean_residual_life,
    measure_population,
    measure_sample,
    parse_phi,
    parse_weight,
    verify_all,
)
from gmdinfo import population, quadrature
from gmdinfo.identities import _i13_x_sides, _premia_direct, _range_moment_direct
from oracles import nested_gce, nested_ge
from reference import PARAMS, measure_reference

U01 = Uniform(0.0, 1.0)
EXP1 = Exponential(1.0)
PAR31 = Pareto(3.0, 1.0)

TOL = 1e-8


class HeavyPareto(Pareto):
    """A Pareto of any tail index, below the shape floor of 2 that Pareto keeps."""

    def __init__(self, shape, scale=1.0):
        super().__init__(3.0, scale)
        self.a = self.tail_index = float(shape)


def pop(model, mid, route="auto", **params):
    return measure_population(model, MeasureSpec(mid, **params), route=route)


class TestClosedFormsUniform:
    """Q(u) = u makes every moment a polynomial integral."""

    def test_gmd_and_fractions(self):
        assert pop(U01, "gmd") == pytest.approx(1.0 / 3.0, abs=TOL)
        assert pop(U01, "s_gini", v=2.0) == pytest.approx(1.0 / 12.0, abs=TOL)
        assert pop(U01, "crt", alpha=2.0) == pytest.approx(1.0 / 6.0, abs=TOL)
        assert pop(U01, "ct", alpha=2.0) == pytest.approx(1.0 / 6.0, abs=TOL)

    def test_extropies(self):
        assert pop(U01, "crj") == pytest.approx(-1.0 / 6.0, abs=TOL)
        assert pop(U01, "ce") == pytest.approx(-1.0 / 6.0, abs=TOL)
        assert pop(U01, "cj") == pytest.approx(-1.0 / 3.0, abs=TOL)
        assert pop(U01, "crjw") == pytest.approx(-1.0 / 8.0, abs=TOL)
        assert pop(U01, "wce") == pytest.approx(-1.0 / 24.0, abs=TOL)

    def test_weighted_tsallis(self):
        assert pop(U01, "wcrt", alpha=2.0) == pytest.approx(1.0 / 12.0, abs=TOL)
        assert pop(U01, "wct", alpha=2.0) == pytest.approx(1.0 / 12.0, abs=TOL)

    def test_two_parameter_families(self):
        assert pop(U01, "sr", alpha=1.0, beta=2.0) == pytest.approx(1.0 / 6.0, abs=TOL)
        assert pop(U01, "sp", alpha=1.0, beta=2.0) == pytest.approx(1.0 / 6.0, abs=TOL)
        assert pop(U01, "srw", alpha=1.0, beta=2.0) == pytest.approx(1.0 / 12.0, abs=TOL)
        assert pop(U01, "spw", alpha=1.0, beta=2.0) == pytest.approx(1.0 / 12.0, abs=TOL)

    def test_order_k_premia(self):
        # E min of k = 1/(k+1), E max of k = k/(k+1)
        assert pop(U01, "risk_premium", k=2) == pytest.approx(1.0 / 6.0, abs=TOL)
        assert pop(U01, "gain_premium", k=2) == pytest.approx(1.0 / 6.0, abs=TOL)
        assert pop(U01, "risk_premium", k=3) == pytest.approx(1.0 / 4.0, abs=TOL)
        assert pop(U01, "gain_premium", k=3) == pytest.approx(1.0 / 4.0, abs=TOL)


class TestClosedFormsExponential:
    def test_gmd_scales_with_mean(self):
        assert pop(EXP1, "gmd") == pytest.approx(1.0, abs=TOL)
        assert pop(Exponential(3.0), "gmd") == pytest.approx(3.0, abs=TOL)

    def test_extropies(self):
        assert pop(EXP1, "crj") == pytest.approx(-0.25, abs=TOL)
        assert pop(EXP1, "cj") == pytest.approx(-0.75, abs=TOL)
        assert pop(EXP1, "wce") == pytest.approx(-0.125, abs=TOL)
        assert pop(EXP1, "crjw") == pytest.approx(-0.875, abs=TOL)

    def test_tsallis_and_inequality(self):
        assert pop(EXP1, "crt", alpha=2.0) == pytest.approx(0.5, abs=TOL)
        assert pop(EXP1, "ct", alpha=2.0) == pytest.approx(0.5, abs=TOL)
        assert pop(EXP1, "s_gini", v=2.0) == pytest.approx(0.25, abs=TOL)
        assert pop(EXP1, "sr", alpha=1.0, beta=2.0) == pytest.approx(0.5, abs=TOL)


class TestClosedFormsHeavyTail:
    """Pareto(3, 1): F(x) = 1 - x^-3 on (1, inf)."""

    def test_moments_and_gmd(self):
        assert pop(PAR31, "pwm", p=1) == pytest.approx(1.5, abs=TOL)
        assert pop(PAR31, "pwm", p=1, s=1.0) == pytest.approx(0.6, abs=TOL)
        assert pop(PAR31, "pwm", p=2) == pytest.approx(3.0, abs=TOL)
        assert pop(PAR31, "gmd") == pytest.approx(0.6, abs=TOL)

    def test_weibull_gmd_gamma_form(self):
        # gmd = 2 * scale * Gamma(1 + 1/shape) * (1 - 2^(-1/shape))
        for shape, scale in ((2.0, 1.0), (0.5, 2.0), (1.5, 3.0)):
            want = 2.0 * scale * math.gamma(1.0 + 1.0 / shape) * (1.0 - 2.0 ** (-1.0 / shape))
            assert pop(Weibull(shape, scale), "gmd") == pytest.approx(want, rel=1e-8)


class TestTruncatedAndDynamic:
    def test_mean_residual_and_past_life(self):
        assert mean_residual_life(U01, 0.3) == pytest.approx(0.35, abs=TOL)
        assert mean_past_life(U01, 0.3) == pytest.approx(0.15, abs=TOL)
        # memoryless: m(t) is the mean, regardless of t
        for t in (0.0, 0.7, 2.0):
            assert mean_residual_life(EXP1, t) == pytest.approx(1.0, abs=TOL)

    def test_dynamic_extropies(self):
        assert pop(U01, "j_dyn", t=0.3) == pytest.approx(-0.7 / 6.0, abs=TOL)
        assert pop(U01, "h_dyn", t=0.3) == pytest.approx(-0.05, abs=TOL)
        for t in (0.0, 0.7, 2.0):
            assert pop(EXP1, "j_dyn", t=t) == pytest.approx(-0.25, abs=TOL)

    def test_truncated_gmd_uniform(self):
        # mean-to-min gap of the tail: (1-t)/6; max-to-mean gap of the head: t/6
        left = pop(U01, "gmd_left", t=0.25, route="quantile")
        right = pop(U01, "gmd_right", t=0.5, route="quantile")
        assert left == pytest.approx(0.75 / 6.0, abs=TOL)
        assert right == pytest.approx(1.0 / 12.0, abs=TOL)

    def test_truncated_gmd_exponential_is_memoryless(self):
        for t in (0.0, 0.7, 2.0):
            assert pop(EXP1, "gmd_left", t=t, route="quantile") == pytest.approx(0.5, abs=TOL)

    def test_quantile_and_direct_routes_agree(self):
        for model, t in ((U01, 0.4), (EXP1, 0.9), (PAR31, 1.7)):
            q = pop(model, "gmd_left", t=t, route="quantile")
            d = pop(model, "gmd_left", t=t, route="direct")
            assert q == pytest.approx(d, abs=TOL)
            q = pop(model, "gmd_right", t=t, route="quantile")
            d = pop(model, "gmd_right", t=t, route="direct")
            assert q == pytest.approx(d, abs=TOL)

    def test_empty_tail_guards(self):
        with pytest.raises(EmptyTailError):
            mean_residual_life(U01, 1.0)
        with pytest.raises(EmptyTailError):
            pop(U01, "gmd_left", t=1.5, route="quantile")
        with pytest.raises(EmptyTailError):
            mean_past_life(U01, 0.0)
        with pytest.raises(EmptyTailError):
            pop(EXP1, "h_dyn", t=0.0)
        with pytest.raises(EmptyTailError):
            pop(PAR31, "gmd_right", t=1.0, route="quantile")  # F(1) = 0 at the support edge


FAR_LEVELS = [1.0 - 1e-5, 1.0 - 1e-9]


class TestFarTails:
    """m(t) and J_t where the tail [t, inf) holds 1e-5 to 1e-9 of the mass, at any scale."""

    #: model, m(t) and J_t in closed form
    CLOSED = [
        (Pareto(4.0, 2.0), lambda t: t / 3.0, lambda t: -t / 14.0),
        (Pareto(2.2), lambda t: t / 1.2, lambda t: -t / 6.8),
        (Exponential(1.0), lambda t: 1.0, lambda t: -0.25),
        (Exponential(1e5), lambda t: 1e5, lambda t: -2.5e4),
    ]

    @pytest.mark.parametrize("level", FAR_LEVELS)
    @pytest.mark.parametrize("model, m, j", CLOSED, ids=[c[0].describe() for c in CLOSED])
    def test_closed_forms(self, model, m, j, level):
        t = model.quantile(level)
        assert mean_residual_life(model, t) == pytest.approx(m(t), rel=1e-9, abs=0.0)
        assert pop(model, "j_dyn", t=t) == pytest.approx(j(t), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("level", FAR_LEVELS)
    def test_weibull_dynamic_extropy(self, level):
        # int_t^inf exp(-2 x^k) dx = Gamma(1/k, 2 t^k) / (k 2^(1/k))
        model = Weibull(0.7)
        t = model.quantile(level)
        with mpmath.workdps(30):
            k, z = mpmath.mpf(0.7), 2 * mpmath.mpf(t) ** mpmath.mpf(0.7)
            want = -mpmath.gammainc(1 / k, z) / (k * 2 ** (1 / k)) / (2 * mpmath.exp(-z))
        assert pop(model, "j_dyn", t=t) == pytest.approx(float(want), rel=1e-8, abs=0.0)

    def test_crjw_on_a_heavy_tail(self):
        # -1/4 E[max^2] = -121/24 for Pareto(2.2); 1 - F^2 would cancel where the tail has mass
        assert measure_population(Pareto(2.2), MeasureSpec("crjw"), route="direct") == (
            pytest.approx(-121.0 / 24.0, rel=1e-12, abs=0.0))


def truncated_truth(model, t):
    """gmd_left, j_dyn, gmd_right and h_dyn at t, at 60 digits: closed forms, and
    Weibull's from the incomplete gamma function."""
    with mpmath.workdps(60):
        t = mpmath.mpf(t)
        if isinstance(model, Exponential):
            mu = mpmath.mpf(model.mu)
            s, f = mpmath.exp(-t / mu), -mpmath.expm1(-t / mu)
            m, j = mu, -mu / 4
            int_f, int_f2 = t - mu * f, t - mu * f * (3 - s) / 2
        elif isinstance(model, Pareto):
            a, sigma = mpmath.mpf(model.a), mpmath.mpf(model.sigma)
            y = sigma / t
            f = 1 - y**a
            m, j = t / (a - 1), -t / (2 * (2 * a - 1))
            int_f = (t - sigma) - sigma * (1 - y ** (a - 1)) / (a - 1)
            int_f2 = int_f - sigma * (1 - y ** (a - 1)) / (a - 1) + sigma * (
                1 - y ** (2 * a - 1)) / (2 * a - 1)
        else:  # int_t^inf exp(-c (x/lam)^k) dx = lam Gamma(1/k, c z) / (k c^(1/k)), z = (t/lam)^k
            k, lam = mpmath.mpf(model.kappa), mpmath.mpf(model.lam)
            z = (t / lam) ** k
            s, f = mpmath.exp(-z), -mpmath.expm1(-z)

            def part(c, head=False):  # over [0, t] if head, else over [t, inf)
                ends = (0, c * z) if head else (c * z,)
                return lam * mpmath.gammainc(1 / k, *ends) / (k * c ** (1 / k))

            m, j = part(1) / s, -part(2) / (2 * s * s)
            int_f = t - part(1, head=True)
            int_f2 = t - 2 * part(1, head=True) + part(2, head=True)
        r, h = int_f / f, -int_f2 / (2 * f * f)
        return {"gmd_left": float(m + 2 * j), "j_dyn": float(j),
                "gmd_right": float(r + 2 * h), "h_dyn": float(h)}


TAIL_MODELS = [Exponential(1.0), Exponential(1e-6), Weibull(1.5), Weibull(0.7), Pareto(2.2),
               Pareto(4.0, 2.0)]


#: Pareto shape -> the first k whose head case misses 1e-12
_HEAD_FAILS_FROM = {2.2: 4, 4.0: 3}


def _head_case(model, k):
    if isinstance(model, Pareto) and k >= _HEAD_FAILS_FROM[model.a]:
        # Pareto(2.2) at k = 4 misses by 1 % (1.008e-12): the last digits of another numpy may pass
        return pytest.param(model, k, marks=pytest.mark.xfail(
            reason="Pareto.cdf and Pareto.quantile lose digits near the scale, about eps/F(t)",
            strict=(model.a, k) != (2.2, 4)))
    return pytest.param(model, k)


class TestTruncatedFarTails:
    """The truncated measures at S(t) or F(t) = 1e-1 ... 1e-15, on both routes, to 1e-12.

    Each truncated form divides by S(t) or F(t) inside its integrand, so
    its request is relative to its value however deep the tail.
    """

    @staticmethod
    def check(model, t, mids):
        want = truncated_truth(model, t)
        for mid in mids:
            for route in ("quantile", "direct"):
                if route == "quantile" and mid in ("j_dyn", "h_dyn"):
                    continue
                got = measure_population(model, MeasureSpec(mid, t=t), route=route)
                assert got == pytest.approx(want[mid], rel=1e-12, abs=0.0), (mid, route)

    @pytest.mark.parametrize("k", range(1, 16))
    @pytest.mark.parametrize("model", TAIL_MODELS, ids=lambda m: m.describe())
    def test_tail(self, model, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(model, float(np.exp(model.tail_map(k * math.log(10.0))[0])),
                       ("gmd_left", "j_dyn"))

    @pytest.mark.parametrize("model, k", [_head_case(model, k) for model in TAIL_MODELS
                                          for k in range(1, 16)],
                             ids=[f"{m.describe()}-{k}" for m in TAIL_MODELS for k in range(1, 16)])
    def test_head(self, model, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(model, float(model.quantile(10.0**-k)), ("gmd_right", "h_dyn"))

    def test_gmd_right_at_a_tiny_t(self):
        # gmd_right = t/6 + O(t^2) on exponential(1); F(t)^2 would underflow
        t = 1e-160
        for route in ("quantile", "direct"):
            assert pop(EXP1, "gmd_right", t=t, route=route) == pytest.approx(t / 6.0, rel=1e-15)

    @pytest.mark.parametrize("mid", ["gmd_left", "j_dyn"])
    def test_survival_below_the_smallest_normal_double(self, mid):
        spec = MeasureSpec(mid, t=740.0)  # S(t) = 4.2e-322
        for route in ("auto", "quantile", "direct") if mid == "gmd_left" else ("auto",):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmptyTailError, match="below the smallest normal double"):
                    measure_population(EXP1, spec, route=route)

    def test_head_below_the_smallest_normal_double(self):
        with pytest.raises(EmptyTailError, match="below the smallest normal double"):
            pop(EXP1, "h_dyn", t=1e-310)


class TestGeneralizedEntropies:
    W1 = WeightSelector("const")
    PHI_X = PhiSelector()

    def test_exponential(self):
        assert ge_population(EXP1, self.W1, self.PHI_X) == pytest.approx(1.0, abs=TOL)
        assert gce_population(EXP1, self.W1, self.PHI_X) == pytest.approx(
            math.pi**2 / 6.0 - 1.0, abs=TOL)

    def test_uniform(self):
        assert ge_population(U01, self.W1, self.PHI_X) == pytest.approx(0.25, abs=TOL)
        assert gce_population(U01, self.W1, self.PHI_X) == pytest.approx(0.25, abs=TOL)
        wfbar = WeightSelector("sf-power", j=1.0)
        assert ge_population(U01, wfbar, self.PHI_X) == pytest.approx(1.0 / 6.0, abs=TOL)

    @pytest.mark.parametrize("weight", ["const:2", "F^1.5", "Fbar^2.5"])
    @pytest.mark.parametrize("model", [EXP1, Pareto(4.0, 2.0)], ids=lambda m: m.describe())
    def test_single_integral_matches_nested_definition(self, model, weight):
        w = parse_weight(weight)
        assert ge_population(model, w, self.PHI_X) == pytest.approx(
            nested_ge(model, w, self.PHI_X), rel=1e-9, abs=0.0)
        assert gce_population(model, w, self.PHI_X) == pytest.approx(
            nested_gce(model, w, self.PHI_X), rel=1e-9, abs=0.0)

    def test_phi_moment_guard(self):
        with pytest.raises(UnsupportedSpecError, match="does not exist"):
            ge_population(PAR31, self.W1, PhiSelector(1.0, 3.0))
        with pytest.raises(UnsupportedSpecError):
            gce_population(Pareto(2.5, 1.0), self.W1, PhiSelector(2.0, 2.5))

    def test_dispatcher_spellings(self):
        spec = MeasureSpec("ge", w=self.W1, phi=self.PHI_X)
        assert measure_population(EXP1, spec) == pytest.approx(1.0, abs=TOL)
        spec = MeasureSpec("gce", w=self.W1, phi=self.PHI_X)
        assert measure_population(U01, spec) == pytest.approx(0.25, abs=TOL)


#: one parameter set per measure id; "median" becomes the model's median
PARAMS = {
    "gmd": {}, "gmd_left": {"t": "median"}, "gmd_right": {"t": "median"},
    "j_dyn": {"t": "median"}, "h_dyn": {"t": "median"}, "s_gini": {"v": 2.5},
    "crj": {}, "cj": {}, "ce": {}, "crjw": {}, "wce": {},
    "crt": {"alpha": 2.5}, "wcrt": {"alpha": 2.5}, "ct": {"alpha": 2.5}, "wct": {"alpha": 2.5},
    "sr": {"alpha": 1.0, "beta": 2.0}, "sp": {"alpha": 1.5, "beta": 3.0},
    "srw": {"alpha": 1.5, "beta": 3.0}, "spw": {"alpha": 1.5, "beta": 3.0},
    "ge": {"w": parse_weight("Fbar"), "phi": parse_phi("2*x")},
    "gce": {"w": parse_weight("F"), "phi": parse_phi("2*x")},
    "risk_premium": {"k": 3}, "gain_premium": {"k": 3}, "pwm": {"p": 1, "s": 0.5},
}
#: the measures with a single population route, and that route
ONE_ROUTE = {"j_dyn": "direct", "h_dyn": "direct", "ge": "quantile", "gce": "quantile",
             "pwm": "quantile"}


def spec_at_median(model, mid):
    t = float(model.quantile(0.5))
    return MeasureSpec(mid, **{k: t if v == "median" else v for k, v in PARAMS[mid].items()})


class TestRoutes:
    @pytest.mark.parametrize("mid", sorted(set(MEASURE_IDS) - set(ONE_ROUTE)))
    @pytest.mark.parametrize("model", [U01, EXP1, PAR31], ids=lambda m: m.describe())
    def test_quantile_vs_direct(self, model, mid):
        spec = spec_at_median(model, mid)
        q = measure_population(model, spec, route="quantile")
        d = measure_population(model, spec, route="direct")
        assert q == pytest.approx(d, rel=1e-9, abs=1e-12)

    def test_every_id_has_a_sample_route_and_a_population_route(self):
        assert set(PARAMS) == set(MEASURE_IDS)
        sample = make_sample(np.random.default_rng(3).exponential(1.0, 200))
        for mid in MEASURE_IDS:
            spec = spec_at_median(EXP1, mid)
            value, route = measure_sample(sample, spec)
            assert math.isfinite(value) and route, mid
            routes = []
            for name in ("quantile", "direct"):
                try:
                    assert math.isfinite(measure_population(EXP1, spec, route=name)), mid
                    routes.append(name)
                except UnsupportedSpecError as exc:
                    assert f"no {'quantile-domain' if name == 'quantile' else 'x-domain'} route" \
                        in str(exc), mid
            assert routes == ([ONE_ROUTE[mid]] if mid in ONE_ROUTE else ["quantile", "direct"]), mid

    def test_unknown_route_rejected(self):
        with pytest.raises(BadParameterError, match="unknown route"):
            measure_population(U01, MeasureSpec("gmd"), route="midpoint")

    def test_dynamic_measures_have_no_quantile_route(self):
        with pytest.raises(UnsupportedSpecError, match="no quantile-domain route"):
            measure_population(U01, MeasureSpec("j_dyn", t=0.5), route="quantile")
        # auto falls back to the x-domain definition
        assert measure_population(U01, MeasureSpec("j_dyn", t=0.5)) == pytest.approx(
            -0.5 / 6.0, abs=TOL)


#: crt, ct, wcrt and wct, each with the two-parameter family it is at (1, alpha)
AT_ONE = {"crt": "sr", "ct": "sp", "wcrt": "srw", "wct": "spw"}
AT_ONE_ORDERS = [0.03, 0.5, 0.9, 1.0 + 1e-8, 1.5, 2.0, 2.5, 3.0, 7.0]


def _outcome(call, spec):
    """call(spec)'s value, or its error's type and text, less the name of the spec."""
    try:
        return call(spec)
    except DomainError as exc:
        return type(exc), str(exc).split(" route: ")[-1].replace(f"{spec.id} is", "it is")


class TestOrderFamiliesAtOne:
    """crt, ct, wcrt and wct read sr, sp, srw and spw at (1, alpha): on every route each
    gives the same double as its family there, or the same error."""

    @pytest.mark.parametrize("mid", sorted(AT_ONE))
    @pytest.mark.parametrize("model", [U01, Exponential(1e-6), EXP1, Weibull(0.3, 2.0),
                                       Weibull(1.5), Pareto(2.2), PAR31],
                             ids=lambda m: m.describe())
    def test_population(self, model, mid):
        for alpha, route in itertools.product(AT_ONE_ORDERS, ("quantile", "direct")):
            def call(spec):
                return measure_population(model, spec, route=route)
            assert _outcome(call, MeasureSpec(mid, alpha=alpha)) == _outcome(
                call, MeasureSpec(AT_ONE[mid], alpha=1, beta=alpha)), (alpha, route)

    @pytest.mark.parametrize("mid", sorted(AT_ONE))
    def test_the_order_one_moment_keeps_its_integer_name(self, mid):
        """crt's M_{1,0,0} and wcrt's M_{2,0,0} are so named in every text, not M_{1,0,0.0}."""
        keys = []
        MEASURE_IDS[mid].pwm(lambda *key: keys.append(key) or 1.0, 2.5)
        p = 2 if mid.startswith("w") else 1
        assert ["M_{%s,%s,%s}" % key for key in keys].count(f"M_{{{p},0,0}}") == 1, keys

    @pytest.mark.parametrize("mid", sorted(AT_ONE))
    @pytest.mark.parametrize("conv", ["hazen", "naive", "mean-rank"])
    def test_sample(self, conv, mid):
        rng = np.random.default_rng(29)
        for sample in (make_sample([0.5, 1.25, 4.0]), make_sample(rng.exponential(size=50)),
                       make_sample(np.round(rng.weibull(0.8, size=60), 1))):
            for alpha in AT_ONE_ORDERS:
                def call(spec):
                    return measure_sample(sample, spec, conv)
                assert _outcome(call, MeasureSpec(mid, alpha=alpha)) == _outcome(
                    call, MeasureSpec(AT_ONE[mid], alpha=1, beta=alpha)), (sample.n, alpha)


class TestExistenceGuards:
    def test_pwm_moment_beyond_tail_index(self):
        with pytest.raises(UnsupportedSpecError, match="does not exist"):
            pop(PAR31, "pwm", p=3)
        # extra survival weighting restores existence: p < tail * (s + 1),
        # and E[X^3 (1-F)] = E[X^3 X^-3] = 1 exactly for this model
        assert pop(PAR31, "pwm", p=3, s=1.0) == pytest.approx(1.0, abs=1e-8)

    def test_weighted_tsallis_divergence(self):
        heavy = Pareto(2.2, 1.0)
        with pytest.raises(UnsupportedSpecError):
            pop(heavy, "wcrt", alpha=0.5)
        with pytest.raises(UnsupportedSpecError):
            measure_population(heavy, MeasureSpec("wcrt", alpha=0.5), route="direct")

    def test_direct_route_survival_power_guard(self):
        heavy = Pareto(2.1, 1.0)
        with pytest.raises(UnsupportedSpecError, match=r"M_\{1,0,-0.6\} does not exist"):
            measure_population(heavy, MeasureSpec("s_gini", v=0.4), route="direct")
        with pytest.raises(UnsupportedSpecError, match=r"M_\{1,0,-0.7\} does not exist"):
            measure_population(heavy, MeasureSpec("sr", alpha=0.3, beta=2.0), route="direct")

    @pytest.mark.parametrize("tail", [1.2, 1.5, 1.9, 2.0, 2.01])
    @pytest.mark.parametrize("mid", sorted(mid for mid, entry in MEASURE_IDS.items()
                                           if entry.pwm is not None and entry.x is not None))
    def test_both_routes_refuse_exactly_the_moments_that_do_not_exist(self, mid, tail):
        """M_{p,r,s} exists exactly when 1 + s - p/tail > 0; the direct route refuses with it.

        Where a moment does not exist, x-domain quadrature of the divergent integral
        can return a finite number (2.25 for crjw at tail 1.5, where -M_{2,1,0}/2 is -inf).
        """
        model = HeavyPareto(tail)
        orders = (0.3, 0.5, 0.8, 1.5, 2.0, 3.0)
        params = {"s_gini": [{"v": v} for v in orders],
                  "risk_premium": [{"k": 2}, {"k": 3}], "gain_premium": [{"k": 2}, {"k": 3}]}
        params.update({m: [{"alpha": a} for a in orders] for m in ("crt", "wcrt", "ct", "wct")})
        params.update({m: [{"alpha": a, "beta": b} for a in orders for b in orders if a != b]
                       for m in ("sr", "sp", "srw", "spw")})
        for kw in params.get(mid, [{}]):
            spec, texts = MeasureSpec(mid, **kw), []
            for route in ("quantile", "direct"):
                try:
                    measure_population(model, spec, route=route)
                    texts.append(None)
                except UnsupportedSpecError as exc:
                    texts.append(str(exc).split(" route: ", 1)[1])
            assert texts[0] == texts[1], (kw, texts)

    @pytest.mark.parametrize("tail", [0.8, 0.9, 1.0])
    def test_a_tail_mean_is_refused_where_the_mean_does_not_exist(self, tail):
        """m(t) and gmd_left(t) integrate S over [t, inf), which diverges at tail index <= 1.

        Both routes refuse them with one text; x-domain quadrature of the divergent
        integral returned -10 for m(2) at tail 0.8.  J_t integrates S^2, so it stays.
        """
        model = HeavyPareto(tail)
        want = f"E[X^1] does not exist for {model.describe()}"
        with pytest.raises(UnsupportedSpecError) as info:
            mean_residual_life(model, 2.0)
        assert str(info.value) == want
        for route in ("quantile", "direct"):
            with pytest.raises(UnsupportedSpecError) as info:
                pop(model, "gmd_left", t=2.0, route=route)
            assert str(info.value).split(" route: ", 1)[1] == want
        assert pop(model, "j_dyn", t=2.0) == pytest.approx(-1.0 / (2.0 * tail - 1.0), rel=1e-12)

    @pytest.mark.parametrize("tail", [0.4, 0.5])
    def test_dynamic_extropy_is_refused_where_its_integral_diverges(self, tail):
        """J_t integrates S^2 over [t, inf), which diverges at tail index <= 1/2: the moment
        M_{1,0,1} that holds S^2 does not exist."""
        with pytest.raises(UnsupportedSpecError, match=r"M_\{1,0,1\} does not exist"):
            pop(HeavyPareto(tail), "j_dyn", t=2.0)

    @pytest.mark.parametrize("tail, want", [(0.8, 0.1606), (1.0, 0.1589)])
    def test_a_head_exists_where_the_mean_does_not(self, tail, want):
        """gmd_right(t) integrates Q over [0, F(t)] alone, which no tail index can make infinite."""
        model = HeavyPareto(tail)
        direct = pop(model, "gmd_right", t=2.0, route="direct")
        assert direct == pytest.approx(want, abs=5e-5)
        assert pop(model, "gmd_right", t=2.0, route="quantile") == pytest.approx(
            direct, rel=1e-10, abs=0.0)

    def test_unsupported_spec_names_measure_parameters_model_and_route(self):
        with pytest.raises(UnsupportedSpecError) as info:
            pop(PAR31, "pwm", p=3)
        assert str(info.value) == ("pwm(p=3) on pareto(shape=3, scale=1), quantile route: "
                                   "M_{3,0.0,0.0} does not exist for pareto(shape=3, scale=1)")
        with pytest.raises(UnsupportedSpecError) as info:
            measure_population(Pareto(2.1, 1.0), MeasureSpec("s_gini", v=0.4), route="direct")
        assert str(info.value) == ("s_gini(v=0.4) on pareto(shape=2.1, scale=1), direct route: "
                                   "M_{1,0,-0.6} does not exist for pareto(shape=2.1, scale=1)")
        with pytest.raises(UnsupportedSpecError) as info:
            measure_population(U01, MeasureSpec("ge", w=WeightSelector("const"),
                                                phi=PhiSelector()), route="direct")
        assert str(info.value) == ("ge(w=const:1, phi=1*x^1) on uniform(a=0, b=1), direct route: "
                                   "no x-domain route for measure 'ge'")

    @pytest.mark.parametrize("side, tail, want", [
        (lambda m: _range_moment_direct(m, 2.0, DEFAULT_CONFIG), 1.5, "E[X^2]"),
        (lambda m: _range_moment_direct(m, 1.0, DEFAULT_CONFIG), 0.8, "E[X^1]"),
        (lambda m: _premia_direct(m, 2, DEFAULT_CONFIG), 0.8, "E[X^1]"),
        (lambda m: _premia_direct(m, 3, DEFAULT_CONFIG), 1.0, "E[X^1]"),
        (lambda m: _i13_x_sides(m, DEFAULT_CONFIG), 0.8, "E[X^1]"),
    ], ids=["I7-v2", "I7-v1", "I14-k2", "I14-k3", "I13"])
    def test_identity_x_sides_refuse_before_integrating(self, monkeypatch, side, tail, want):
        """x-domain quadrature of these divergent integrals returned finite numbers: -12.0
        for I7 at v = 2 on tail 1.5, -13.33 for I14 at k = 2 on tail 0.8, -2.22 and -7.20
        for I13 on tail 0.8."""
        runs = []
        monkeypatch.setattr(quadrature, "_qags", lambda *args: runs.append(args))
        model = HeavyPareto(tail)
        with pytest.raises(UnsupportedSpecError) as info:
            side(model)
        assert str(info.value) == f"{want} does not exist for {model.describe()}"
        assert runs == []

    @pytest.mark.parametrize("route", ["quantile", "direct"])
    @pytest.mark.parametrize("mid, params", [("gmd", {}), ("crt", {"alpha": 2.5}),
                                             ("sp", {"alpha": 1.5, "beta": 3.0}),
                                             ("s_gini", {"v": 3.0}), ("risk_premium", {"k": 3}),
                                             ("wcrt", {"alpha": 2.0})])
    def test_each_moment_is_decided_once_per_call(self, monkeypatch, mid, params, route):
        """One measure_population call runs the existence check once per distinct moment of
        the PWM form, and builds no PwmIndex for a moment looked up or integrated."""
        margins, indices = [], []
        decide, check = population._margin, PwmIndex.__post_init__
        monkeypatch.setattr(population, "_margin", lambda *a: margins.append(a) or decide(*a))
        monkeypatch.setattr(PwmIndex, "__post_init__",
                            lambda idx: indices.append(idx) or check(idx))
        spec, moments = MeasureSpec(mid, **params), set()
        MEASURE_IDS[mid].pwm(lambda *key: moments.add(key) or 1.0, *MEASURE_IDS[mid].args(spec))
        assert math.isfinite(measure_population(Pareto(4.0, 2.0), spec, route=route))
        assert sorted(a[3] for a in margins) == sorted(moments)
        assert indices == []


@pytest.fixture
def intervals(monkeypatch):
    """The G10K21 intervals of each _qags run, in order: the last is the half or piece at inf."""
    runs, qags = [], quadrature._qags

    def counting(f, a, b, *args):
        result = qags(f, a, b, *args)
        runs.append(result[2] // 21)
        return result

    monkeypatch.setattr(quadrature, "_qags", counting)
    return runs


class TestGradedTails:
    """Each route runs its tail piece, the x side's [a, inf) and the quantile side's half
    that touches u = 1, in the hazard variable y = -log S, graded by its moment's margin."""

    #: model, measure, route, the tail piece's intervals
    CASES = [(Exponential(1.0), MeasureSpec("crj"), "direct", 1),
             (Exponential(1.0), MeasureSpec("gmd"), "direct", 1),
             (Weibull(0.3), MeasureSpec("crj"), "direct", 3),
             (Weibull(0.7), MeasureSpec("crj"), "direct", 1),
             (Weibull(1.5), MeasureSpec("crj"), "direct", 1),
             (Weibull(2.0), MeasureSpec("crj"), "direct", 3),
             (Weibull(5.0), MeasureSpec("crj"), "direct", 3),
             (Pareto(2.2), MeasureSpec("crj"), "direct", 1),
             (Pareto(2.2), MeasureSpec("crjw"), "direct", 3),
             (Exponential(1.0), MeasureSpec("pwm", p=1), "quantile", 1),
             (Exponential(1.0), MeasureSpec("pwm", p=2), "quantile", 3),
             (Weibull(0.7), MeasureSpec("pwm", p=1), "quantile", 3),
             (Weibull(0.7), MeasureSpec("pwm", p=2), "quantile", 3),
             (Weibull(1.5), MeasureSpec("crj"), "quantile", 1),
             (Weibull(5.0), MeasureSpec("crj"), "quantile", 1),
             (Pareto(2.2), MeasureSpec("crjw"), "quantile", 3),
             (Pareto(2.2), MeasureSpec("pwm", p=2), "quantile", 1)]

    @pytest.mark.parametrize("model, spec, route, want", CASES, ids=[
        f"{spec.id}{''.join(map(str, spec.params_dict().values()))}.{route}@{m.describe()}"
        for m, spec, route, _ in CASES])
    def test_tail_piece_intervals(self, intervals, model, spec, route, want):
        measure_population(model, spec, route=route)
        assert intervals[-1] == want

    @pytest.mark.parametrize("model", [Exponential(1.0), Weibull(1.5), Pareto(2.2)],
                             ids=lambda m: m.describe())
    def test_mean_residual_life_in_one_interval(self, intervals, model):
        """S/S(t) on [t, inf) is a power of w in the graded map of a Pareto or a light tail."""
        mean_residual_life(model, 3.0 * model.median())
        assert intervals == [1]

    def test_x_route_refuses_mass_where_the_survival_underflows(self):
        """s_gini(0.02)'s M_{1,0,-0.98} holds e^-14.9 of its mass where S < 5e-324, which sf
        returns as 0; the quantile route, in log space, needs none of it as a double."""
        model, spec = Weibull(2.0), MeasureSpec("s_gini", v=0.02)
        with pytest.raises(UnsupportedSpecError) as info:
            measure_population(model, spec, route="direct")
        assert str(info.value) == (
            "s_gini(v=0.02) on weibull(shape=2, scale=1), direct route: M_{1,0,-0.98} has more "
            "than tol=1e-10 of its mass where S underflows to 0 for weibull(shape=2, scale=1), "
            "which this route cannot read")
        want = float(measure_reference(model, spec))
        assert measure_population(model, spec, route="quantile") == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", [U01, EXP1, Weibull(1.5), Weibull(0.7), Pareto(4.0, 2.0),
                                       Pareto(2.2)], ids=lambda m: m.describe())
    def test_no_population_path_takes_the_rational_map(self, monkeypatch, model):
        """_quad takes finite pieces only, and integrate_x alone maps [a, inf): every measure,
        mean life and identity side of a model maps its own tail."""
        ends, quad = [], population._quad
        monkeypatch.setattr(population, "_quad",
                            lambda f, a, b, *args, **kw: ends.append(b) or quad(f, a, b, *args, **kw))
        t = model.median()
        params = {**PARAMS, "gmd_left": {"t": t}, "gmd_right": {"t": t}, "j_dyn": {"t": t},
                  "h_dyn": {"t": t}, "ge": {"w": parse_weight("Fbar"), "phi": parse_phi("2*x")},
                  "gce": {"w": parse_weight("F"), "phi": parse_phi("2*x^2")}}
        for mid, entry in MEASURE_IDS.items():
            for route in ("quantile", "direct"):
                if (entry.pwm or entry.q) if route == "quantile" else entry.x:
                    measure_population(model, MeasureSpec(mid, **params[mid]), route=route)
        mean_residual_life(model, t)
        assert all(report.passed for report in verify_all(model))
        assert len(ends) > 100 and math.inf not in ends


class TestNonFiniteValues:
    """A NaN or infinite population value raises, naming what was computed."""

    @pytest.mark.parametrize("mid, params, shown", [
        ("crjw", {}, "-inf"), ("wce", {}, "-inf"), ("wcrt", {"alpha": 2.0}, "nan"),
        ("pwm", {"p": 2}, "inf")])
    def test_second_moment_overflow_raises(self, mid, params, shown):
        model = Exponential(1e200)  # x^2 overflows in the quantile integrand
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteError) as info:
                measure_population(model, MeasureSpec(mid, **params), route="quantile")
        assert str(info.value).startswith(f"{mid}(")
        assert str(info.value).endswith(
            f" on exponential(mean=1e+200), quantile route: the value is not finite: {shown}")

    @pytest.mark.parametrize("function, mid", [(ge_population, "ge"), (gce_population, "gce")])
    def test_generalized_entropies_raise_as_the_dispatcher_does(self, function, mid):
        w, phi = parse_weight("Fbar"), parse_phi("2*x^2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteError) as info:
                function(Exponential(1e200), w, phi)
        assert str(info.value).startswith(
            f"{mid}(w=Fbar^1, phi=2*x^2) on exponential(mean=1e+200), quantile route: ")

    def test_first_moments_stay_finite(self):
        assert measure_population(Exponential(1e200), MeasureSpec("gmd")) == pytest.approx(
            1e200, rel=1e-9)


class TestQuadratureEngine:
    def test_config_validation(self):
        with pytest.raises(BadParameterError, match="tolerances"):
            QuadratureConfig(tol=0.0)
        # an infinite request would accept QUADPACK's first estimate uncertified
        for tol in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteError, match="quadrature tolerance must be finite"):
                QuadratureConfig(tol=tol)

    def test_polynomial_and_singular_integrands(self):
        assert integrate_u(lambda u: 3.0 * u**2) == pytest.approx(1.0, abs=1e-12)
        # integrable endpoint singularity: int u^{-1/2} = 2
        assert integrate_u(lambda u: u**-0.5) == pytest.approx(2.0, abs=1e-9)
        assert integrate_x(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-10)

    def test_breakpoints_split_kinks(self):
        f = lambda x: 1.0 if x < 1.0 else math.exp(-(x - 1.0))
        got = integrate_x(f, 0.0, math.inf, breakpoints=(1.0,))
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_infinite_lower_limit_rejected(self):
        with pytest.raises(BadParameterError, match="finite"):
            integrate_x(lambda x: math.exp(x), -math.inf, 0.0)

    def test_divergent_integrand_warns_about_clipping(self):
        with pytest.warns(ClippedTailWarning):
            integrate_u(lambda u: 1.0 / u)

    def test_integrable_singularity_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClippedTailWarning)
            integrate_u(lambda u: u**-0.5)

    def test_hopeless_oscillation_raises(self):
        with pytest.raises(NoConvergenceError, match="did not converge"):
            integrate_u(lambda u: math.sin(1.0 / u**2))

    def test_roundoff_limited_requests_still_return(self):
        # a request near double precision that QUADPACK still certifies
        cfg = QuadratureConfig(tol=1e-13)
        v = integrate_u(lambda u: (-math.log(1.0 - u)) ** 4, cfg)
        assert v == pytest.approx(24.0, rel=1e-6)
