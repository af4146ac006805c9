"""Population values against certified closed-form references (tests/reference.py).

Agreement between the two routes cannot tell which side is wrong, or
catch a defect they share; these references can.  Every measure with a
PWM form is checked on both routes at 1e-9 relative on the stock models
and on pareto(2.2), and at 1e-11 on edge models of scale and tail; the
moments themselves are checked at 1e-11 on all of them.  None is skipped.
"""

import math

import mpmath
import numpy as np
import pytest

from gmdinfo import (
    MEASURE_IDS,
    Exponential,
    MeasureSpec,
    NoConvergenceError,
    Pareto,
    PwmIndex,
    Uniform,
    UnsupportedSpecError,
    Weibull,
    measure_population,
    pwm_population,
)
from reference import PARAMS, degree, measure_reference, pwm_closed_form, pwm_reference

REL = 1e-9
#: the quantile route integrates each moment in the model's units, graded to its tail
PWM_REL = 1e-11

#: tags as the benchmark names them
MODELS = {"uniform": Uniform(0.0, 1.0), "exp1": Exponential(1.0),
          "weibull1.5": Weibull(1.5), "weibull0.7": Weibull(0.7),
          "pareto4_2": Pareto(4.0, 2.0), "pareto2.2": Pareto(2.2)}

#: steep and heavy tails, light tails on either side of the exponential, and scales far from 1
EDGE_MODELS = {"weibull0.3": Weibull(0.3), "weibull0.5": Weibull(0.5), "weibull2": Weibull(2.0),
               "weibull5": Weibull(5.0), "pareto2.05": Pareto(2.05),
               "exp1e-6": Exponential(1e-6), "exp1e6": Exponential(1e6),
               "weibull1.5_1e-4": Weibull(1.5, 1e-4), "pareto3_1e5": Pareto(3.0, 1e5)}

ROUTES = ("quantile", "direct")
CASES = [(mid, route, tag) for tag in MODELS for mid in PARAMS for route in ROUTES
         if route == "quantile" or MEASURE_IDS[mid].x is not None]


def test_every_measure_with_a_pwm_form_is_covered():
    assert set(PARAMS) == {mid for mid, entry in MEASURE_IDS.items() if entry.pwm is not None}


def test_reference_closed_forms_agree_with_known_values():
    gmd = MeasureSpec("gmd")
    assert float(measure_reference(Exponential(2.0), gmd)) == 2.0
    assert float(measure_reference(Uniform(0.0, 1.0), gmd)) == 1 / 3
    # Weibull(1) is the exponential; the Pareto mean is xi sigma/(xi - 1)
    w1 = pwm_reference(Weibull(1.0, 3.0), 2, 1, 0.5)
    assert mpmath.almosteq(w1, pwm_reference(Exponential(3.0), 2, 1, 0.5), rel_eps=1e-28)
    assert float(pwm_reference(Pareto(2.2, 3.0), 1, 0, 0)) == pytest.approx(5.5, rel=1e-15)


def test_double_precision_closed_forms_agree_with_mpmath():
    models = [Uniform(0.0, 1.0), Uniform(0.5, 2.0), Exponential(2.0), Weibull(0.3),
              Weibull(0.7, 3.0), Weibull(5.0, 1e-3), Pareto(2.2), Pareto(4.0, 2.0),
              Pareto(2.0117, 1e3)]
    for model in models:
        for p in (0, 1, 2):
            for r in (-0.95, -0.5, 0.0, 1.0, 2.0):
                for s in (-0.95, -0.5, 0.0, 0.5, 2.5):
                    if 1.0 + s - p / model.tail_index <= 0.0 or (
                            r != int(r) and isinstance(model, (Exponential, Weibull))):
                        continue
                    want = float(pwm_reference(model, p, r, s))
                    got = pwm_closed_form(model, p, r, s)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (model, p, r, s)


@pytest.mark.parametrize("tag", [*MODELS, *EDGE_MODELS])
def test_pwm_population(tag):
    model = {**MODELS, **EDGE_MODELS}[tag]
    for p in (1, 2):
        for r in (0.0, 1.0, 2.0):
            for s in (0.0, 0.5, 1.0, 2.5):
                if p >= getattr(model, "tail_index", math.inf) * (s + 1.0):
                    continue  # the moment does not exist
                want = float(pwm_reference(model, p, r, s))
                got = pwm_population(model, PwmIndex(p, r, s))
                assert got == pytest.approx(want, rel=PWM_REL, abs=0.0), (p, r, s)


def test_pwm_population_where_the_tail_exponent_is_zero():
    # p = xi: Q^3 (1-u) ~ (1-u)^0 at u = 1, and without s the moment does not exist
    model = Pareto(3.0, 2.0)
    got = pwm_population(model, PwmIndex(3, 1.0, 1.0))
    assert got == pytest.approx(float(pwm_reference(model, 3, 1.0, 1.0)), rel=PWM_REL, abs=0.0)
    with pytest.raises(UnsupportedSpecError, match=r"^M_\{3,0.0,0.0\} does not exist"):
        pwm_population(model, PwmIndex(3))


@pytest.mark.parametrize("mid, route, tag", CASES, ids=[f"{m}.{r}@{t}" for m, r, t in CASES])
def test_measure_against_reference(mid, route, tag):
    model, spec = MODELS[tag], MeasureSpec(mid, **PARAMS[mid])
    got = measure_population(model, spec, route=route)
    assert got == pytest.approx(float(measure_reference(model, spec)), rel=REL, abs=0.0)


def _check_against_reference(model, spec):
    want = float(measure_reference(model, spec))
    for route in ROUTES:
        if route == "quantile" or MEASURE_IDS[spec.id].x is not None:
            got = measure_population(model, spec, route=route)
            assert got == pytest.approx(want, rel=PWM_REL, abs=0.0), (spec, route)


@pytest.mark.parametrize("tag", EDGE_MODELS)
def test_measures_on_edge_models(tag):
    for mid, params in PARAMS.items():
        _check_against_reference(EDGE_MODELS[tag], MeasureSpec(mid, **params))


#: orders where the power difference runs the other way: F - F^a with a < 1,
#: F^a - F^b with a > b
REVERSED_ORDERS = [("ct", {"alpha": 0.5}), ("wct", {"alpha": 0.5}),
                   ("sp", {"alpha": 3.0, "beta": 2.0}), ("spw", {"alpha": 3.0, "beta": 2.0})]


@pytest.mark.parametrize("tag", ["uniform", "pareto4_2", "pareto2.2"])
@pytest.mark.parametrize("mid, params", REVERSED_ORDERS, ids=[m for m, _ in REVERSED_ORDERS])
def test_reversed_orders(mid, params, tag):
    _check_against_reference(MODELS[tag], MeasureSpec(mid, **params))


#: models with a scale parameter, and the factory of each scaled by c
SCALED = {"uniform": lambda c: Uniform(0.0, c), "exp": lambda c: Exponential(c),
          "weibull0.3": lambda c: Weibull(0.3, c), "weibull0.7": lambda c: Weibull(0.7, c),
          "weibull2": lambda c: Weibull(2.0, c), "pareto4": lambda c: Pareto(4.0, c)}


def _check_scale_equivariance(tag, c, route):
    base, scaled = SCALED[tag](1.0), SCALED[tag](c)
    for mid, params in PARAMS.items():
        spec = MeasureSpec(mid, **params)
        if route == "direct" and MEASURE_IDS[mid].x is None:
            continue
        want = c ** degree(spec) * measure_population(base, spec, route=route)
        got = measure_population(scaled, spec, route=route)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), mid


@pytest.mark.parametrize("tag", SCALED)
@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_quantile_route_is_scale_equivariant(tag, c):
    _check_scale_equivariance(tag, c, "quantile")


@pytest.mark.parametrize("tag", SCALED)
@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_direct_route_is_scale_equivariant(tag, c):
    """The x-domain integrals are taken in the model's units too."""
    _check_scale_equivariance(tag, c, "direct")


def _small_order_cases(n=72, seed=20261019):
    """Orders log-uniform in [0.01, 0.1] (pwm: s in (-1, -0.9)) on every family, with its
    shape and scale drawn too, plus the cases of a margin near 0 that motivated the map."""
    rng = np.random.default_rng(seed)
    order = lambda: float(10.0 ** rng.uniform(-2.0, -1.0))
    cases = []
    for i in range(n):
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        family = i % 4
        model = (Uniform(0.0, c), Exponential(c),
                 Weibull(float(np.exp(rng.uniform(math.log(0.3), math.log(5.0)))), c),
                 Pareto(float(rng.uniform(2.001, 8.0)), c))[family]
        mid = ("s_gini", "crt", "ct", "sr", "sp", "pwm")[(i // 4) % 6]
        params = {"s_gini": lambda: {"v": order()}, "crt": lambda: {"alpha": order()},
                  "ct": lambda: {"alpha": order()},
                  "sr": lambda: {"alpha": order(), "beta": order()},
                  "sp": lambda: {"alpha": order(), "beta": order()},
                  "pwm": lambda: {"p": int(rng.integers(1, 3)), "r": float(rng.integers(0, 2)),
                                  "s": float(rng.uniform(-1.0, -0.9))}}[mid]()
        cases.append((model, MeasureSpec(mid, **params)))
    return cases + [(Weibull(3.0), MeasureSpec("s_gini", v=0.04)),
                    (Weibull(2.0), MeasureSpec("s_gini", v=0.032)),
                    (Weibull(1.5), MeasureSpec("s_gini", v=0.05)),
                    (Pareto(2.0117), MeasureSpec("pwm", p=2)),
                    (Pareto(2.01171875), MeasureSpec("pwm", p=2))]


SMALL_ORDERS = _small_order_cases()


def _moment(model, key) -> float:
    """M_{p,r,s} in closed form, or by mpmath for a Weibull's non-integer r."""
    try:
        return pwm_closed_form(model, *key)
    except ValueError:
        return float(pwm_reference(model, *key))


@pytest.mark.parametrize("model, spec", SMALL_ORDERS, ids=[
    f"{spec.id}({','.join(f'{v:.4g}' for v in spec.params_dict().values())})@{m.describe()}"
    for m, spec in SMALL_ORDERS])
def test_small_orders(model, spec):
    """Each route's value is within 1e-10 of the closed form, or it raises naming the measure,
    the model and the route.  The direct route integrates the measure's own integrand, and
    is held to its value; the quantile route adds its PWM terms c_k M_k, each to 1e-10, so it
    is held to 1e-10 of sum |c_k M_k|, which sr and sp at nearby orders exceed many times."""
    entry, args = MEASURE_IDS[spec.id], MEASURE_IDS[spec.id].args(spec)
    for route in ("quantile", "direct") if entry.x else ("quantile",):
        try:
            got = measure_population(model, spec, route=route)
        except (UnsupportedSpecError, NoConvergenceError) as exc:
            assert str(exc).startswith(f"{spec.id}(") and (
                f" on {model.describe()}, {route} route: " in str(exc)), str(exc)
            continue
        keys = set()
        entry.pwm(lambda *key: keys.add(key) or 0.0, *args)
        moments = {key: _moment(model, key) for key in keys}
        want = entry.pwm(lambda *key: moments[key], *args)
        scale = abs(want) if route == "direct" else sum(
            abs(entry.pwm(lambda *k: float(k == key), *args) * moments[key]) for key in keys)
        assert abs(got - want) <= 1e-10 * scale, (route, got, want)
