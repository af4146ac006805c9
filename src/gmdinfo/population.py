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
request is relative to its value at any depth of the tail.  Both grade an
infinite end alike, the quantile evaluator its half that touches u = 1 and
the x-domain evaluator its piece [a, inf): a power tail by one margin
1 + s - p/tail_index, on the x side the least of the measure's PWM form,
and a light tail in its hazard variable, S = S(a) w^6 on both.  The
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
from .models import _margin
from .pwm import PwmIndex
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _graded, _quad

__all__ = [
    "measure_population",
    "pwm_population",
    "mean_residual_life",
    "mean_past_life",
    "ge_population",
    "gce_population",
]


_GRADE = 3.0  # u = h w^3 on the quantile half that touches 0, x = b w^3 on an x piece from 0
# The exponent of v = span w^mu is at most 16, so v stays a normal double,
# short of Q(1) = inf, at every node above w = 1e-19, and so does an x-domain
# tail's x = a w^-m.  The graded integrand vanishes at w = 0; over 17 models
# from Weibull(0.3) to Pareto(2.01), at scales 1e-6 to 1e6, QAGS's smallest
# node is near w = 1e-8.
_MAX_TAIL_GRADE = 16.0
# A light tail, -log S = y = (x/lam)^kappa, is graded in y on both routes, so
# S = S(a) w^6, and Q's factor y^(1/kappa) is weighted by w^5 at w = 0.
_LIGHT_GRADE = 6.0


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
    unit^(degree + 1).  A node calls cdf below the median and sf above it,
    and takes the other as its complement, which is at least 1/2.  A piece
    from 0 runs in w with x = b w^3.  A piece [a, inf) runs in w.  A power
    tail is graded by ``margin`` (:func:`_margin`): the least of the
    measure's PWM form, or else 1 - (degree + 1)/tail_index, as every other
    integrand holds S at least once.  It takes x = a w^-m, m = 3/(tail_index
    min(margin, 1)) capped at 16, as :class:`_QDomain`'s upper half, and its
    integrand vanishes like w^2 at w = 0.  A light tail with the model's
    ``hazard`` (lam, kappa) takes x = lam (y_a + 6 (-log w))^(1/kappa),
    y_a = (a/lam)^kappa, so S = exp(-y_a) w^6 exactly, as v = span w^6 on
    the quantile side.  Only a power tail whose margin is at or below 0,
    which no shipped model reaches, keeps ``_quad``'s map.
    ``above(t)`` and ``below(t)`` are S(t) and F(t), refusing an empty side
    or one below the smallest normal double.
    """

    def __init__(self, model, cfg: QuadratureConfig, margin=None):
        self.model, self.cfg, self.mean, self.margin = model, cfg, model.mean, margin
        self.unit = float(model.unit())

    def above(self, t: float) -> float:
        return _level(self.model.sf(t), f"survival mass above t={t}", self.model)

    def below(self, t: float) -> float:
        return _level(self.model.cdf(t), f"mass at or below t={t}", self.model)

    def _tail(self, h, a: float, degree: float):
        """h on [a, inf) as an integrand in w on (0, 1], or None where ``_quad`` maps it."""
        model, xi = self.model, self.model.tail_index
        margin = 1.0 - (degree + 1.0) / xi if self.margin is None else self.margin
        if math.isfinite(xi) and margin > 0.0:
            m = min(_GRADE / (xi * min(margin, 1.0)), _MAX_TAIL_GRADE)

            def power(w):  # dx = -m x/w dw
                x = a * w**-m
                return h(x) * (m * x / w)
            return power
        if model.hazard is not None:
            lam, kappa = model.hazard
            ya = (a / lam) ** kappa

            def light(w):  # y = (x/lam)^kappa = ya - 6 log w, dx = -6 x/(kappa y w) dw
                y = ya - _LIGHT_GRADE * np.log(w)
                x = lam * y ** (1.0 / kappa)
                return h(x) * (_LIGHT_GRADE / kappa * x / (y * w))
            return light
        return None

    def __call__(self, g, lo: float = 0.0, hi=None, degree: float = 0) -> float:
        model = self.model
        lo, hi = float(lo), model.support[1] if hi is None else float(hi)
        median = model.median()
        cuts = sorted(p for p in {model.support[0], median} if lo < p < hi)

        def below(x):
            F = model.cdf(x)
            return g(x, F, 1.0 - F)

        def above(x):
            S = model.sf(x)
            return g(x, 1.0 - S, S)

        total = 0.0
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            h = above if a >= median else below
            if b == math.inf:  # in w, graded by the margin, or else in _quad's map
                f = self._tail(h, a, degree)
            else:  # in w, x = b w^3, as _QDomain's lower half
                f = _graded(h, b, _GRADE) if a == 0.0 else None
            ends = (a, b) if f is None else (0.0, 1.0)
            total += _quad(f or h, *ends, self.cfg, (a, b), self.unit, degree)
        return total


class _QDomain:
    """The quantile evaluator: it reads the model's Q, and never F or S but at a level.

    ``Q(f, top, hi, degree, margin)`` is unit^degree int f(u, v, q) du over
    v = 1 - u in [1 - hi, top], with q = Q(u)/unit: f is array-valued and
    homogeneous of ``degree`` in Q, so its integral is taken in the
    model's own units.  Near u = 1, f behaves like v^(margin - 1) for a
    power tail, :func:`_margin`: a range that reaches u = 1 exists exactly
    when margin > 0.  A caller that has decided f's margin passes it, as
    ``M`` does for v^s q^p; else f is taken to behave like q^degree, and
    is refused as E[X^degree]; a head, hi < 1, is finite and takes margin 1.
    The range is split at u = 1/2.  The half that touches 0 runs in w with
    u = h w^3; the half that touches 1 runs in w with v = span w^mu,
    span = min(top, 1/2), and takes Q from ``isf(v)``, so neither u nor v
    is formed by subtracting a number close to it from 1.
    mu = 3/min(margin, 1), capped at 16, makes the integrand vanish like
    w^2 at w = 0; a light tail with a ``hazard`` takes mu = 6, which grades
    Q(1 - v) = lam (-log v)^(1/kappa) in its hazard variable
    -log v = -log span - 6 log w, as :class:`_XDomain`'s tail.
    ``M(p, r, s)`` is the PWM M_{p,r,s}, integrated once per ``moments``
    dict ((p, r, s) -> value), which gains every new one, its existence
    decided once per evaluator by ``margin(p, r, s)``, kept in ``margins``.
    ``above(t)`` and ``below(t)`` are :class:`_XDomain`'s: S(t) and F(t),
    the levels at which the truncated forms start or end.
    """

    above, below = _XDomain.above, _XDomain.below

    def __init__(self, model, cfg: QuadratureConfig, moments: dict):
        self.model, self.cfg, self.moments, self.margins = model, cfg, moments, {}

    def __call__(self, f, top: float = 1.0, hi: float = 1.0, degree: float = 1.0,
                 margin=None) -> float:
        model, cfg = self.model, self.cfg
        margin = margin or (_margin(model, degree, 0.0) if hi >= 1.0 else 1.0)
        unit = float(model.unit())
        try:
            scale = unit**degree
        except OverflowError:  # the value overflows; NaN or inf says so, as x**2 would in numpy
            scale = math.inf
        total = 0.0
        if top > 0.5:
            lo, h = 1.0 - top, min(hi, 0.5)
            lower = _graded(lambda u: f(u, 1.0 - u, model.quantile(u) / unit), h, _GRADE)
            total += _quad(lower, (lo / h) ** (1.0 / _GRADE), 1.0, cfg, (lo, h), scale=scale)
        if hi > 0.5:
            span, mu = min(top, 0.5), (_LIGHT_GRADE if model.hazard is not None else
                                       min(_GRADE / min(margin, 1.0), _MAX_TAIL_GRADE))
            upper = _graded(lambda v: f(1.0 - v, v, model.isf(v) / unit), span, mu)
            total += _quad(upper, ((1.0 - hi) / span) ** (1.0 / mu), 1.0, cfg, (1.0 - span, hi),
                           scale=scale)
        return total * scale

    def margin(self, *key) -> float:
        if key not in self.margins:  # M_{p,r,s} exists where 1 + s - p/tail_index > 0
            self.margins[key] = _margin(self.model, key[0], key[2], key)
        return self.margins[key]

    def M(self, p, r, s) -> float:
        key = p, r, s
        if key not in self.moments:
            margin, p, r, s = self.margin(p, r, s), int(p), float(r), float(s)

            def f(u, v, q):  # q^p u^r v^s, forming only the factors whose exponent is not 0
                y = q if p else np.ones_like(u)
                if p > 1:
                    y = y**p
                if r:
                    y = y * u**r
                if s:
                    y = y * v**s
                return y

            self.moments[key] = self(f, degree=p, margin=margin)
        return self.moments[key]


def pwm_population(model, idx: PwmIndex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """M_{p,r,s} = int_0^1 Q(u)^p u^r (1-u)^s du for a parametric model, on the quantile route."""
    return _QDomain(model, cfg, {}).M(idx.p, idx.r, idx.s)


# ---------------------------------------------------------------------------
# the mean lives, and the generalized entropies by name


def mean_residual_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m(t) = E(X - t | X > t) = int_t^inf sf/sf(t) dx."""
    return _residual(_XDomain(model, cfg), t, 1)


def mean_past_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r(t) = E(t - X | X <= t) = int_0^t F/F(t) dx."""
    return _past(_XDomain(model, cfg), t, 1)


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

    ``moments`` maps each (p, r, s) integrated so far to its value and gains
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
            entry.pwm(Q.margin, *args)
        if route == "quantile" and entry.pwm is not None:
            value = entry.pwm(Q.M, *args)
        elif route == "quantile" and entry.q is not None:
            value = entry.q(Q, *args)
        elif route == "direct" and entry.x is not None:  # the form's least margin grades its tail
            value = entry.x(_XDomain(model, cfg, min(Q.margins.values(), default=None)), *args)
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
