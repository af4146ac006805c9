"""Population values of every measure for a parametric model.

Two computation routes are kept deliberately separate so identity
verification can compare genuinely independent evaluations:

``route="quantile"``
    u-domain quadrature touching only the model's quantile function:
    the probability-weighted-moment representations, the defining
    quantile integrals of the truncated GMDs, and the generalized
    entropies as single integrals against a weighted hazard (Fubini).
``route="direct"``
    x-domain quadrature touching only the model's distribution and
    survival functions (plus the closed-form mean where the definition
    needs it): each measure's defining integral, and the mean-life
    decompositions for the truncated GMDs.
``route="auto"``
    the preferred route per measure: quantile wherever a PWM form
    exists (no infinite domain, no tail truncation), x-domain for the
    truncated/dynamic measures whose definitions live there.

Both routes read the measure's entry in :data:`~gmdinfo.measures.MEASURE_IDS`:
the quantile route evaluates its PWM form with :func:`pwm_population`, the
direct route its x-domain integral with :class:`_XDomain`, which runs every
x-domain integral of the package in the model's own units, as ``quad_q``
does on the quantile side.
"""

import math
from functools import partial

from .errors import (BadParameterError, EmptyTailError, NoConvergenceError, NonFiniteError,
                     UnsupportedSpecError)
from .measures import MEASURE_IDS, MeasureSpec, PhiSelector, WeightSelector
from .pwm import PwmIndex, pwm_population
from .quadrature import _GRADE, DEFAULT_CONFIG, QuadratureConfig, _graded, _quad, quad_q

__all__ = [
    "measure_population",
    "mean_residual_life",
    "mean_past_life",
    "j_dyn_population",
    "h_dyn_population",
    "gmd_left_population",
    "gmd_right_population",
    "ge_population",
    "gce_population",
]


class _XDomain:
    """The x-domain evaluator: it reads the model's F and S, and never Q.

    ``X(g, lo, hi, degree, sf)`` integrates g(x, F, S), of ``degree`` in x,
    over [lo, hi], hi the support's end by default, split at the support's
    start and the closed-form median; each piece is taken in units of
    unit^(degree + 1), a piece from 0 in w with x = b w^3.  Given ``sf``, it
    refuses when the tail makes int x^degree * S^sf dx infinite.
    ``above(t)`` and ``below(t)`` are S(t) and F(t), refusing an empty side.
    """

    def __init__(self, model, cfg: QuadratureConfig):
        self.model, self.cfg, self.mean, self.unit = model, cfg, model.mean, float(model.unit())

    def above(self, t: float) -> float:
        st = float(self.model.sf(t))
        if st <= 0.0:
            raise EmptyTailError(f"no survival mass above t={t} for {self.model.describe()}")
        return st

    def below(self, t: float) -> float:
        ft = float(self.model.cdf(t))
        if ft <= 0.0:
            raise EmptyTailError(f"no mass at or below t={t} for {self.model.describe()}")
        return ft

    def __call__(self, g, lo: float = 0.0, hi=None, degree: float = 0, sf=None) -> float:
        model = self.model
        if sf is not None and sf * model.tail_index <= degree + 1:
            raise UnsupportedSpecError(
                f"integral of x^{degree:g} * sf^{sf:g} diverges for {model.describe()}")
        lo, hi = float(lo), model.support[1] if hi is None else float(hi)
        cuts = sorted(p for p in {model.support[0], model.median()} if lo < p < hi)

        def h(x):
            return g(x, model.cdf(x), model.sf(x))

        total = 0.0
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            from_zero = a == 0.0 and b < math.inf  # then in w, x = b w^3, as quad_q's lower half
            f, ends = (_graded(h, b, _GRADE), (0.0, 1.0)) if from_zero else (h, (a, b))
            total += _quad(f, *ends, self.cfg, f"[{a}, {b}]", self.unit, degree)
        return total


# ---------------------------------------------------------------------------
# mean residual / past life and the dynamic extropies (x-domain definitions)


def mean_residual_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m(t) = E(X - t | X > t) = int_t^inf sf dx / sf(t)."""
    X = _XDomain(model, cfg)
    st = X.above(t)
    return X(lambda x, F, S: S, lo=t) / st


def mean_past_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r(t) = E(t - X | X <= t) = int_0^t F dx / F(t)."""
    X = _XDomain(model, cfg)
    ft = X.below(t)
    return X(lambda x, F, S: F, hi=t) / ft


def j_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic survival extropy J_t = -(1/(2 sf(t)^2)) int_t^inf sf^2 dx."""
    X = _XDomain(model, cfg)
    st = X.above(t)
    return -0.5 * X(lambda x, F, S: S**2, lo=t) / st**2


def h_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic cumulative extropy H_t = -(1/(2 F(t)^2)) int_0^t F^2 dx."""
    X = _XDomain(model, cfg)
    ft = X.below(t)
    return -0.5 * X(lambda x, F, S: F**2, hi=t) / ft**2


# ---------------------------------------------------------------------------
# truncated GMDs: defining quantile form and mean-life decomposition


def gmd_left_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                        route: str = "quantile") -> float:
    """Left-truncated GMD: E(X|X>t) - E(min(X1,X2) | min > t).

    quantile route: (1/sf(t)^2) int_{F(t)}^1 (sf(t) - 2(1-u)) Q(u) du;
    direct route: the decomposition m(t) + 2 J_t.
    """
    if route == "direct":
        return mean_residual_life(model, t, cfg) + 2.0 * j_dyn_population(model, t, cfg)
    st = _XDomain(model, cfg).above(t)

    def f(u, v, q):
        return (st - 2.0 * v) * q

    return quad_q(model, f, cfg, lo=1.0 - st) / st**2


def gmd_right_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                         route: str = "quantile") -> float:
    """Right-truncated GMD: E(max(X1,X2) | max <= t) - E(X | X <= t).

    quantile route: (1/F(t)^2) int_0^{F(t)} (2u - F(t)) Q(u) du;
    direct route: the sign-corrected decomposition 2 H_t + r(t).
    """
    if route == "direct":
        return 2.0 * h_dyn_population(model, t, cfg) + mean_past_life(model, t, cfg)
    ft = _XDomain(model, cfg).below(t)

    def f(u, v, q):
        return (2.0 * u - ft) * q

    return quad_q(model, f, cfg, hi=ft) / ft**2


# ---------------------------------------------------------------------------
# generalized entropies (single quantile-domain integrals after Fubini)


def _check_phi_moment(model, phi: PhiSelector) -> None:
    if phi.v >= model.tail_index:
        raise UnsupportedSpecError(
            f"E[X^{phi.v:g}] does not exist for {model.describe()}"
        )


def ge_population(model, w: WeightSelector, phi: PhiSelector,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """GE = int_0^1 w(p) * (E[phi(X) | X > Q(p)] - phi(Q(p))) dp.

    Swapping the order of integration in the conditional mean gives
    int_0^1 phi(Q(q)) * (W_up(q) - w(q)) dq, W_up(q) = int_0^q w(p)/(1-p) dp.
    """
    _check_phi_moment(model, phi)

    def f(u, v, q):
        return phi(q) * (w.cumulative_up(u, v) - w.at_probability(u, v))

    return quad_q(model, f, cfg, degree=phi.v)


def gce_population(model, w: WeightSelector, phi: PhiSelector,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """GCE = int_0^1 w(p) * (phi(Q(p)) - E[phi(X) | X <= Q(p)]) dp.

    Swapping the order of integration in the conditional mean gives
    int_0^1 phi(Q(q)) * (w(q) - W_down(q)) dq, W_down(q) = int_q^1 w(p)/p dp.
    """
    _check_phi_moment(model, phi)

    def f(u, v, q):
        return phi(q) * (w.at_probability(u, v) - w.cumulative_down(u, v))

    return quad_q(model, f, cfg, degree=phi.v)


# ---------------------------------------------------------------------------
# dispatcher


#: the measures without a PWM form or without a single x-domain integral
#: keep their named functions, per route; "auto" prefers the x-domain for
#: the measures in _DIRECT, whose definitions live there
_QUANTILE = {"gmd_left": gmd_left_population, "gmd_right": gmd_right_population,
             "ge": ge_population, "gce": gce_population}
_DIRECT = {"gmd_left": partial(gmd_left_population, route="direct"),
           "gmd_right": partial(gmd_right_population, route="direct"),
           "j_dyn": j_dyn_population, "h_dyn": h_dyn_population}


def measure_population(model, spec: MeasureSpec,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       route: str = "auto") -> float:
    """Population value of a measure for a parametric model.

    ``route`` is "auto", "quantile", or "direct" (see module docstring).
    A :class:`NoConvergenceError`, an :class:`UnsupportedSpecError` and the
    :class:`NonFiniteError` raised for a NaN or infinite value name the
    measure, its parameters, the model and the route.
    """
    return _measure_population(model, spec, cfg, route, {})


def _moment(model, cfg, moments: dict, p, r, s) -> float:
    """M_{p,r,s} from ``moments`` (PwmIndex -> value), integrated and kept there if new."""
    idx = PwmIndex(p, r, s)
    if idx not in moments:
        moments[idx] = pwm_population(model, idx, cfg)
    return moments[idx]


def _measure_population(model, spec: MeasureSpec, cfg: QuadratureConfig, route: str,
                        moments: dict) -> float:
    """:func:`measure_population`, reusing the PWM values in ``moments``.

    ``moments`` maps each PwmIndex integrated so far to its value and gains
    every new one.  The caller keeps it for one model and cfg, and only for
    one call, so the PWM forms of several measures integrate a shared moment once.
    """
    if route not in ("auto", "quantile", "direct"):
        raise BadParameterError(f"unknown route {route!r}")
    if route == "auto":
        route = "direct" if spec.id in _DIRECT else "quantile"
    entry = MEASURE_IDS[spec.id]
    args = entry.args(spec)
    named = (_QUANTILE if route == "quantile" else _DIRECT).get(spec.id)
    try:
        if named is not None:
            value = named(model, *args, cfg)
        elif route == "quantile" and entry.pwm is not None:
            value = entry.pwm(partial(_moment, model, cfg, moments), *args)
        elif route == "direct" and entry.x is not None:
            value = entry.x(_XDomain(model, cfg), *args)
        else:
            domain = "quantile-domain" if route == "quantile" else "x-domain"
            raise UnsupportedSpecError(f"no {domain} route for measure {spec.id!r}")
        if not math.isfinite(value):
            raise NonFiniteError(f"the value is not finite: {value!r}")
    except (NoConvergenceError, UnsupportedSpecError, NonFiniteError) as exc:
        params = ", ".join(f"{name}={val}" for name, val in spec.params_dict().items())
        raise type(exc)(
            f"{spec.id}({params}) on {model.describe()}, {route} route: {exc}") from exc
    return value
