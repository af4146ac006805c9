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
"""

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadParameterError, EmptyTailError, UnsupportedSpecError
from .measures import MeasureSpec, PhiSelector, WeightSelector
from .pwm import PwmIndex, pwm_population
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_u, integrate_x

if TYPE_CHECKING:  # pragma: no cover
    from .models import ParametricModel

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


def _M(model, p, r, s, cfg) -> float:
    return pwm_population(model, PwmIndex(p, r, s), cfg)


def _xquad(model, g, a, b, cfg) -> float:
    """x-domain integral of g with splits at the support kink and median."""
    lo, hi = model.support
    mid = float(model.quantile(0.5))
    return integrate_x(g, a, b, cfg, breakpoints=(lo, mid))


def _check_sf_power(model, gamma: float, xpow: int = 0) -> None:
    """Refuse int x^xpow * sf(x)^gamma dx when the Pareto tail makes it infinite."""
    tail = getattr(model, "tail_index", math.inf)
    if math.isfinite(tail) and gamma * tail <= xpow + 1:
        raise UnsupportedSpecError(
            f"integral of x^{xpow} * sf^{gamma:g} diverges for {model.describe()}"
        )


# ---------------------------------------------------------------------------
# mean residual / past life and the dynamic extropies (x-domain definitions)


def mean_residual_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m(t) = E(X - t | X > t) = int_t^inf sf dx / sf(t)."""
    st = float(model.sf(t))
    if st <= 0.0:
        raise EmptyTailError(f"no survival mass above t={t} for {model.describe()}")
    return _xquad(model, lambda x: float(model.sf(x)), t, model.support[1], cfg) / st


def mean_past_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r(t) = E(t - X | X <= t) = int_0^t F dx / F(t)."""
    ft = float(model.cdf(t))
    if ft <= 0.0:
        raise EmptyTailError(f"no mass at or below t={t} for {model.describe()}")
    return _xquad(model, lambda x: float(model.cdf(x)), 0.0, t, cfg) / ft


def j_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic survival extropy J_t = -(1/(2 sf(t)^2)) int_t^inf sf^2 dx."""
    st = float(model.sf(t))
    if st <= 0.0:
        raise EmptyTailError(f"no survival mass above t={t} for {model.describe()}")
    val = _xquad(model, lambda x: float(model.sf(x)) ** 2, t, model.support[1], cfg)
    return -0.5 * val / st**2


def h_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic cumulative extropy H_t = -(1/(2 F(t)^2)) int_0^t F^2 dx."""
    ft = float(model.cdf(t))
    if ft <= 0.0:
        raise EmptyTailError(f"no mass at or below t={t} for {model.describe()}")
    val = _xquad(model, lambda x: float(model.cdf(x)) ** 2, 0.0, t, cfg)
    return -0.5 * val / ft**2


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
    st = float(model.sf(t))
    if st <= 0.0:
        raise EmptyTailError(f"no survival mass above t={t} for {model.describe()}")
    ft = 1.0 - st

    def f(u: float) -> float:
        return (st - 2.0 * (1.0 - u)) * float(model.quantile(u))

    return integrate_u(f, cfg, lo=ft, hi=1.0) / st**2


def gmd_right_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                         route: str = "quantile") -> float:
    """Right-truncated GMD: E(max(X1,X2) | max <= t) - E(X | X <= t).

    quantile route: (1/F(t)^2) int_0^{F(t)} (2u - F(t)) Q(u) du;
    direct route: the sign-corrected decomposition 2 H_t + r(t).
    """
    if route == "direct":
        return 2.0 * h_dyn_population(model, t, cfg) + mean_past_life(model, t, cfg)
    ft = float(model.cdf(t))
    if ft <= 0.0:
        raise EmptyTailError(f"no mass at or below t={t} for {model.describe()}")

    def f(u: float) -> float:
        return (2.0 * u - ft) * float(model.quantile(u))

    return integrate_u(f, cfg, lo=0.0, hi=ft) / ft**2


# ---------------------------------------------------------------------------
# generalized entropies (single quantile-domain integrals after Fubini)


def _check_phi_moment(model, phi: PhiSelector) -> None:
    tail = getattr(model, "tail_index", math.inf)
    if math.isfinite(tail) and phi.v >= tail:
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

    def f(q: float) -> float:
        return float(phi(model.quantile(q)) * (w.cumulative_up(q) - w.at_probability(q)))

    return integrate_u(f, cfg)


def gce_population(model, w: WeightSelector, phi: PhiSelector,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """GCE = int_0^1 w(p) * (phi(Q(p)) - E[phi(X) | X <= Q(p)]) dp.

    Swapping the order of integration in the conditional mean gives
    int_0^1 phi(Q(q)) * (w(q) - W_down(q)) dq, W_down(q) = int_q^1 w(p)/p dp.
    """
    _check_phi_moment(model, phi)

    def f(q: float) -> float:
        return float(phi(model.quantile(q)) * (w.at_probability(q) - w.cumulative_down(q)))

    return integrate_u(f, cfg)


# ---------------------------------------------------------------------------
# dispatcher


def _quantile_value(model, spec: MeasureSpec, cfg: QuadratureConfig) -> float:
    mid = spec.id
    a, b, v, k = spec.alpha, spec.beta, spec.v, spec.k
    if mid == "gmd":
        return 2.0 * _M(model, 1, 1, 0, cfg) - 2.0 * _M(model, 1, 0, 1, cfg)
    if mid == "s_gini":
        return _M(model, 1, 0, 0, cfg) / v - _M(model, 1, 0, v - 1.0, cfg)
    if mid in ("crj", "ce"):
        return -_M(model, 1, 0, 1, cfg)
    if mid == "cj":
        return -_M(model, 1, 1, 0, cfg)
    if mid == "crjw":
        return -0.5 * _M(model, 2, 1, 0, cfg)
    if mid == "wce":
        return -0.5 * _M(model, 2, 0, 1, cfg)
    if mid == "crt":
        return (_M(model, 1, 0, 0, cfg) - a * _M(model, 1, 0, a - 1.0, cfg)) / (a - 1.0)
    if mid == "ct":
        return (a * _M(model, 1, a - 1.0, 0, cfg) - _M(model, 1, 0, 0, cfg)) / (a - 1.0)
    if mid == "wcrt":
        return (_M(model, 2, 0, 0, cfg) - a * _M(model, 2, 0, a - 1.0, cfg)) / (2.0 * (a - 1.0))
    if mid == "wct":
        return (a * _M(model, 2, a - 1.0, 0, cfg) - _M(model, 2, 0, 0, cfg)) / (2.0 * (a - 1.0))
    if mid == "sr":
        return (a * _M(model, 1, 0, a - 1.0, cfg) - b * _M(model, 1, 0, b - 1.0, cfg)) / (b - a)
    if mid == "sp":
        return (b * _M(model, 1, b - 1.0, 0, cfg) - a * _M(model, 1, a - 1.0, 0, cfg)) / (b - a)
    if mid == "srw":
        return (a * _M(model, 2, 0, a - 1.0, cfg) - b * _M(model, 2, 0, b - 1.0, cfg)) / (2.0 * (b - a))
    if mid == "spw":
        return (b * _M(model, 2, b - 1.0, 0, cfg) - a * _M(model, 2, a - 1.0, 0, cfg)) / (2.0 * (b - a))
    if mid == "risk_premium":
        return _M(model, 1, 0, 0, cfg) - k * _M(model, 1, 0, k - 1.0, cfg)
    if mid == "gain_premium":
        return k * _M(model, 1, k - 1.0, 0, cfg) - _M(model, 1, 0, 0, cfg)
    if mid == "gmd_left":
        return gmd_left_population(model, spec.t, cfg, route="quantile")
    if mid == "gmd_right":
        return gmd_right_population(model, spec.t, cfg, route="quantile")
    if mid == "ge":
        return ge_population(model, spec.w, spec.phi, cfg)
    if mid == "gce":
        return gce_population(model, spec.w, spec.phi, cfg)
    if mid == "pwm":
        return _M(model, spec.p, spec.r or 0.0, spec.s or 0.0, cfg)
    raise UnsupportedSpecError(f"no quantile-domain route for measure {mid!r}")


def _direct_value(model, spec: MeasureSpec, cfg: QuadratureConfig) -> float:
    mid = spec.id
    a, b, v, k = spec.alpha, spec.beta, spec.v, spec.k
    lo, hi = model.support
    F = lambda x: float(model.cdf(x))
    S = lambda x: float(model.sf(x))
    if mid == "gmd":
        return 2.0 * _xquad(model, lambda x: F(x) * S(x), 0.0, hi, cfg)
    if mid == "s_gini":
        _check_sf_power(model, min(v, 1.0))
        return _xquad(model, lambda x: S(x) - S(x) ** v, 0.0, hi, cfg) / v
    if mid in ("crj", "ce"):
        return -0.5 * _xquad(model, lambda x: S(x) ** 2, 0.0, hi, cfg)
    if mid == "cj":
        return -0.5 * _xquad(model, lambda x: 1.0 - F(x) ** 2, 0.0, hi, cfg)
    if mid == "crjw":
        return -0.5 * _xquad(model, lambda x: x * (1.0 - F(x) ** 2), 0.0, hi, cfg)
    if mid == "wce":
        return -0.5 * _xquad(model, lambda x: x * S(x) ** 2, 0.0, hi, cfg)
    if mid == "crt":
        _check_sf_power(model, min(a, 1.0))
        return _xquad(model, lambda x: S(x) - S(x) ** a, 0.0, hi, cfg) / (a - 1.0)
    if mid == "ct":
        return _xquad(model, lambda x: F(x) - F(x) ** a, 0.0, hi, cfg) / (a - 1.0)
    if mid == "wcrt":
        _check_sf_power(model, min(a, 1.0), xpow=1)
        return _xquad(model, lambda x: x * (S(x) - S(x) ** a), 0.0, hi, cfg) / (a - 1.0)
    if mid == "wct":
        return _xquad(model, lambda x: x * (F(x) - F(x) ** a), 0.0, hi, cfg) / (a - 1.0)
    if mid == "sr":
        _check_sf_power(model, min(a, b))
        return _xquad(model, lambda x: S(x) ** a - S(x) ** b, 0.0, hi, cfg) / (b - a)
    if mid == "sp":
        return _xquad(model, lambda x: F(x) ** a - F(x) ** b, 0.0, hi, cfg) / (b - a)
    if mid == "srw":
        _check_sf_power(model, min(a, b), xpow=1)
        return _xquad(model, lambda x: x * (S(x) ** a - S(x) ** b), 0.0, hi, cfg) / (b - a)
    if mid == "spw":
        return _xquad(model, lambda x: x * (F(x) ** a - F(x) ** b), 0.0, hi, cfg) / (b - a)
    if mid == "risk_premium":
        emin = _xquad(model, lambda x: S(x) ** k, 0.0, hi, cfg)
        return model.mean() - emin
    if mid == "gain_premium":
        emax = _xquad(model, lambda x: 1.0 - F(x) ** k, 0.0, hi, cfg)
        return emax - model.mean()
    if mid == "j_dyn":
        return j_dyn_population(model, spec.t, cfg)
    if mid == "h_dyn":
        return h_dyn_population(model, spec.t, cfg)
    if mid == "gmd_left":
        return gmd_left_population(model, spec.t, cfg, route="direct")
    if mid == "gmd_right":
        return gmd_right_population(model, spec.t, cfg, route="direct")
    raise UnsupportedSpecError(f"no x-domain route for measure {mid!r}")


# measures whose preferred route is the x-domain definition
_X_FIRST = {"j_dyn", "h_dyn", "gmd_left", "gmd_right"}


def measure_population(model, spec: MeasureSpec,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       route: str = "auto") -> float:
    """Population value of a measure for a parametric model.

    ``route`` is "auto", "quantile", or "direct" (see module docstring).
    """
    if route not in ("auto", "quantile", "direct"):
        raise BadParameterError(f"unknown route {route!r}")
    if route == "auto":
        route = "direct" if spec.id in _X_FIRST else "quantile"
    if route == "quantile":
        return _quantile_value(model, spec, cfg)
    return _direct_value(model, spec, cfg)
