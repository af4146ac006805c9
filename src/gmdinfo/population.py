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
    the preferred route per measure: x-domain for a measure with an
    x-domain integral and no PWM form (the truncated GMDs and the dynamic
    extropies, whose definitions live there), quantile otherwise.

Both routes read the measure's entry in :data:`~gmdinfo.measures.MEASURE_IDS`:
the quantile route evaluates its PWM form, or else its quantile integral, on
a :class:`_QDomain`, and the direct route its x-domain integral on an
:class:`_XDomain`.  Before either runs, each moment of the PWM form is
checked to exist, so both routes refuse the same measures with one text.
Each evaluator runs its integrals in the model's own units, and a
truncated form divides by S(t) or F(t) inside its integrand, so its
request is relative to its value at any depth of the tail.  The
population PWMs live here too: :func:`pwm_population` is a lookup through
:meth:`_QDomain.M`, and the quantile evaluator owns each quantile integral
whole, from the check that it exists to its graded halves.
"""

import math
import sys

import numpy as np

from .errors import (BadParameterError, EmptyTailError, NoConvergenceError, NonFiniteError,
                     UnsupportedSpecError)
from .measures import MEASURE_IDS, MeasureSpec, PhiSelector, WeightSelector, _past, _residual
from .pwm import PwmIndex
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _graded, _quad

__all__ = [
    "measure_population",
    "pwm_population",
    "mean_residual_life",
    "mean_past_life",
    "j_dyn_population",
    "h_dyn_population",
    "gmd_left_population",
    "gmd_right_population",
    "ge_population",
    "gce_population",
]


_GRADE = 3.0  # u = h w^3 on the quantile half that touches 0, x = b w^3 on an x piece from 0
# The exponent of v = span w^mu is at most 16, so v stays a normal double,
# short of Q(1) = inf, at every node above w = 1e-19.  The graded integrand
# vanishes at w = 0; over 17 models from Weibull(0.3) to Pareto(2.01), at
# scales 1e-6 to 1e6, QAGS's smallest node is near w = 1e-8.
_MAX_TAIL_GRADE = 16.0


def _margin(model, degree: float, vpow: float, pwm=()) -> float:
    """The margin 1 + vpow - degree/tail_index: at or below 0, E[X^degree] or M_pwm is refused."""
    margin = 1.0 + vpow - degree / model.tail_index
    if not margin > 0.0:
        name = "M_{%s,%s,%s}" % pwm if pwm else f"E[X^{degree:g}]"
        raise UnsupportedSpecError(f"{name} does not exist for {model.describe()}")
    return margin


def _level(value, what: str, model) -> float:
    """value, S(t) or F(t), refused as ``what`` when it is 0 or below the smallest normal double."""
    value = float(value)
    if not value >= sys.float_info.min:  # then 1/value overflows, or has lost its digits
        raise EmptyTailError(f"no {what} for {model.describe()}" + (
            f": {value:.3g} is below the smallest normal double" if value > 0.0 else ""))
    return value


class _XDomain:
    """The x-domain evaluator: it reads the model's F and S, and never Q.

    ``X(g, lo, hi, degree)`` integrates g(x, F, S), of ``degree`` in x,
    over [lo, hi], hi the support's end by default, split at the support's
    start and the closed-form median; each piece is taken in units of
    unit^(degree + 1), a piece from 0 in w with x = b w^3.
    ``above(t)`` and ``below(t)`` are S(t) and F(t), refusing an empty side
    or one below the smallest normal double.
    """

    def __init__(self, model, cfg: QuadratureConfig):
        self.model, self.cfg, self.mean, self.unit = model, cfg, model.mean, float(model.unit())

    def above(self, t: float) -> float:
        return _level(self.model.sf(t), f"survival mass above t={t}", self.model)

    def below(self, t: float) -> float:
        return _level(self.model.cdf(t), f"mass at or below t={t}", self.model)

    def __call__(self, g, lo: float = 0.0, hi=None, degree: float = 0) -> float:
        model = self.model
        lo, hi = float(lo), model.support[1] if hi is None else float(hi)
        cuts = sorted(p for p in {model.support[0], model.median()} if lo < p < hi)

        def h(x):
            return g(x, model.cdf(x), model.sf(x))

        total = 0.0
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            from_zero = a == 0.0 and b < math.inf  # then in w, x = b w^3, as _QDomain's lower half
            f, ends = (_graded(h, b, _GRADE), (0.0, 1.0)) if from_zero else (h, (a, b))
            total += _quad(f, *ends, self.cfg, f"[{a}, {b}]", self.unit, degree)
        return total


class _QDomain:
    """The quantile evaluator: it reads the model's Q, and never F or S but at a level.

    ``Q(f, top, hi, degree, vpow)`` is unit^degree int f(u, v, q) du over
    v = 1 - u in [1 - hi, top], with q = Q(u)/unit: f is array-valued and
    homogeneous of ``degree`` in Q, so its integral is taken in the
    model's own units.  Near u = 1, f behaves like v^vpow q^degree, which
    for a power tail is v^(margin - 1), :func:`_margin`: the integral
    exists exactly when margin > 0, and is refused as E[X^degree] otherwise.
    The range is split at u = 1/2.  The half that touches 0 runs in w with
    u = h w^3; the half that touches 1 runs in w with v = span w^mu,
    span = min(top, 1/2), and takes Q from ``isf(v)``, so neither u nor v
    is formed by subtracting a number close to it from 1.
    mu = 3/min(margin, 1), capped at 16, makes the integrand vanish like
    w^2 at w = 0.  ``M(p, r, s)`` is the PWM M_{p,r,s}, integrated once
    per ``moments`` dict (PwmIndex -> value), which gains every new one;
    ``exists(p, r, s)`` integrates nothing, and refuses as M would.
    ``above(t)`` and ``below(t)`` are :class:`_XDomain`'s: S(t) and F(t),
    the levels at which the truncated forms start or end.
    """

    above, below = _XDomain.above, _XDomain.below

    def __init__(self, model, cfg: QuadratureConfig, moments: dict):
        self.model, self.cfg, self.moments = model, cfg, moments

    def __call__(self, f, top: float = 1.0, hi: float = 1.0, degree: float = 1.0,
                 vpow: float = 0.0) -> float:
        model, cfg = self.model, self.cfg
        margin = _margin(model, degree, vpow)
        unit = float(model.unit())
        try:
            scale = unit**degree
        except OverflowError:  # the value overflows; NaN or inf says so, as x**2 would in numpy
            scale = math.inf
        total = 0.0
        if top > 0.5:
            lo, h = 1.0 - top, min(hi, 0.5)
            lower = _graded(lambda u: f(u, 1.0 - u, model.quantile(u) / unit), h, _GRADE)
            total += _quad(lower, (lo / h) ** (1.0 / _GRADE), 1.0, cfg, f"[{lo}, {h}]",
                           scale=scale)
        if hi > 0.5:
            span, mu = min(top, 0.5), min(_GRADE / min(margin, 1.0), _MAX_TAIL_GRADE)
            upper = _graded(lambda v: f(1.0 - v, v, model.isf(v) / unit), span, mu)
            total += _quad(upper, ((1.0 - hi) / span) ** (1.0 / mu), 1.0, cfg,
                           f"[{1.0 - span}, {hi}]", scale=scale)
        return total * scale

    def exists(self, p, r, s) -> float:
        _margin(self.model, p, s, (p, r, s))
        return 0.0

    def M(self, p, r, s) -> float:
        idx = PwmIndex(p, r, s)
        if idx not in self.moments:
            self.exists(p, r, s)
            p, r, s = int(idx.p), float(idx.r), float(idx.s)

            def f(u, v, q):  # q^p u^r v^s, forming only the factors whose exponent is not 0
                y = q if p else np.ones_like(u)
                if p > 1:
                    y = y**p
                if r:
                    y = y * u**r
                if s:
                    y = y * v**s
                return y

            self.moments[idx] = self(f, degree=p, vpow=s)
        return self.moments[idx]


def pwm_population(model, idx: PwmIndex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """M_{p,r,s} = int_0^1 Q(u)^p u^r (1-u)^s du for a parametric model, on the quantile route."""
    return _QDomain(model, cfg, {}).M(idx.p, idx.r, idx.s)


# ---------------------------------------------------------------------------
# the mean lives, and the public functions of the measures without a PWM form


def mean_residual_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m(t) = E(X - t | X > t) = int_t^inf sf/sf(t) dx."""
    return _residual(_XDomain(model, cfg), t, 1)


def mean_past_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r(t) = E(t - X | X <= t) = int_0^t F/F(t) dx."""
    return _past(_XDomain(model, cfg), t, 1)


def j_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic survival extropy J_t = -(1/2) int_t^inf (sf/sf(t))^2 dx."""
    return measure_population(model, MeasureSpec("j_dyn", t=t), cfg)


def h_dyn_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dynamic cumulative extropy H_t = -(1/2) int_0^t (F/F(t))^2 dx."""
    return measure_population(model, MeasureSpec("h_dyn", t=t), cfg)


def gmd_left_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                        route: str = "quantile") -> float:
    """Left-truncated GMD E(X|X>t) - E(min(X1,X2) | min > t); "direct" takes m(t) + 2 J_t."""
    return measure_population(model, MeasureSpec("gmd_left", t=t), cfg, route)


def gmd_right_population(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                         route: str = "quantile") -> float:
    """Right-truncated GMD E(max(X1,X2) | max <= t) - E(X | X <= t); "direct" takes 2 H_t + r(t)."""
    return measure_population(model, MeasureSpec("gmd_right", t=t), cfg, route)


def ge_population(model, w: WeightSelector, phi: PhiSelector,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """GE = int_0^1 w(p) * (E[phi(X) | X > Q(p)] - phi(Q(p))) dp, on the quantile route."""
    return measure_population(model, MeasureSpec("ge", w=w, phi=phi), cfg)


def gce_population(model, w: WeightSelector, phi: PhiSelector,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """GCE = int_0^1 w(p) * (phi(Q(p)) - E[phi(X) | X <= Q(p)]) dp, on the quantile route."""
    return measure_population(model, MeasureSpec("gce", w=w, phi=phi), cfg)


# ---------------------------------------------------------------------------
# dispatcher


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


def _measure_population(model, spec: MeasureSpec, cfg: QuadratureConfig, route: str,
                        moments: dict) -> float:
    """:func:`measure_population`, reusing the PWM values in ``moments``.

    ``moments`` maps each PwmIndex integrated so far to its value and gains
    every new one.  The caller keeps it for one model and cfg, and only for
    one call, so the PWM forms of several measures integrate a shared moment once.
    """
    if route not in ("auto", "quantile", "direct"):
        raise BadParameterError(f"unknown route {route!r}")
    entry = MEASURE_IDS[spec.id]
    if route == "auto":
        route = "direct" if entry.x is not None and entry.pwm is None else "quantile"
    args, Q = entry.args(spec), _QDomain(model, cfg, moments)
    try:
        if entry.pwm is not None:  # both routes refuse a PWM form with a moment that does not exist
            entry.pwm(Q.exists, *args)
        if route == "quantile" and entry.pwm is not None:
            value = entry.pwm(Q.M, *args)
        elif route == "quantile" and entry.q is not None:
            value = entry.q(Q, *args)
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
