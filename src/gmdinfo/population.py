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
request is relative to its value at any depth of the tail.  Both run an
infinite end by one map, the quantile evaluator its half that touches
u = 1 and the x-domain evaluator its piece [a, inf): in the hazard
variable y = -log S, through the model's closed-form ``tail_map``, graded
by the margin 1 + s - p/tail_index of the moment the integrand stands for,
so the integrand is w^5 at w = 0 on a power tail and a light one alike.
The population PWMs live here too: :func:`pwm_population` is a lookup
through :meth:`_QDomain.M`, and the quantile evaluator owns each quantile
integral whole, from the check that it exists to its graded halves.
"""

import math
import sys

import numpy as np

from .empirical import _check_t
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
_TAIL_GRADE = 6.0  # a tail's e^(-margin y) becomes w^6 at w = 0, at every margin
_FAR_GRADE = 24.0  # a power tail with mass where S underflows (_XDomain._tail)
_LAST_Y = -math.log(math.ulp(0.0))  # 744.4: past it S, or v, is 0 as a double


def _rise(w, g: float, c: float):
    """(y - ya, -dy/dw) at w of a tail piece in y = -log S from ya: g L - c (1 - w), L = -log w.

    y grows like g L toward w = 0, where an integrand e^(-margin y) is w^(g margin)
    times a smooth factor; with c = g - 6 it grows like 6 L at w = 1, so a small margin
    does not squeeze the integrand's body, near ya, against w = 1.  The rise is formed
    apart from ya, so e^-(y - ya) keeps its digits however deep ya lies.
    """
    lw = np.log(w)
    if not c:
        return -g * lw, g / w
    return -g * lw - c * (1.0 - w), g / w - c


def _level(value, what: str, model) -> float:
    """value, S(t) or F(t), refused as ``what`` when it is 0 or below the smallest normal double."""
    value = float(value)
    if not value >= sys.float_info.min:  # then 1/value overflows, or has lost its digits
        raise EmptyTailError(f"no {what} for {model.describe()}" + (
            f": {value:.3g} is below the smallest normal double" if value > 0.0 else ""))
    return value


class _XDomain:
    """The x-domain evaluator: it reads the model's F and S, and never Q.

    ``X(g, lo, hi, degree, pwm)`` integrates g(x, F, S), of ``degree``
    in x, over [lo, hi], hi the support's end by default, split at the
    support's start and the closed-form median; each piece is taken in units
    of unit^(degree + 1).  A node calls cdf below the median and sf above it,
    and takes the other as its complement, which is at least 1/2.  A piece
    from 0 runs in w with x = b w^3, a piece [a, inf) in y = -log S from
    y_a = -log S(a) (:meth:`_tail`), with x = e^L(y) from the model's
    ``tail_map`` L(y) = log Q(1 - e^-y): a change of variable, as S still
    comes from sf.
    Its margin, decided before any piece runs, is that of M_pwm, the moment
    the integrand stands for; else the least of the measure's PWM form, given
    at construction with its moment's name; else E[X^(degree + 1)]'s, as
    every other integrand holds S at least once.
    ``above(t)`` and ``below(t)`` are S(t) and F(t), refusing an empty side
    or one below the smallest normal double.
    """

    def __init__(self, model, cfg: QuadratureConfig, margin=None, name=None):
        self.model, self.cfg, self.mean = model, cfg, model.mean
        self.margin, self.name, self.levels = margin, name, {}
        self.unit = float(model.unit())

    def above(self, t: float) -> float:
        if t not in self.levels:  # a tail piece from t reads it again
            self.levels[t] = _level(self.model.sf(t), f"survival mass above t={t}", self.model)
        return self.levels[t]

    def below(self, t: float) -> float:
        return _level(self.model.cdf(t), f"mass at or below t={t}", self.model)

    def _tail(self, piece, ya: float, margin: float, name, where, hi=1.0, **kw) -> float:
        """The integral of piece(y - ya) dy from y = ya, in w on [end, 1], y(end) = -log(1 - hi),
        graded by g = 6/margin but at least _GRADE (:func:`_rise`).

        An integrand that reads S, or v = e^-y, as a double (``name`` given: the
        moment it stands for) cannot see its mass past y = _LAST_Y, where S
        underflows to 0: e^(-z) of it, z = margin (_LAST_Y - ya).  A light tail is
        refused where e^(-z) > tol.  A power tail where e^(-z) > tol^2 takes
        _FAR_GRADE, unblended, on [0, 1]: S stays above 0 down to w = 3e-14, and
        QAGS extrapolates its w^(24 margin - 1), a power of w times a smooth factor,
        to w = 0, as a light tail's power of log w would not let it.  Else the piece
        stops at w0, y(w0) = _LAST_Y, and is refused where what it leaves out, at
        most w0 |f(w0)| as f is w^5 there times a power of log w or not, exceeds tol.
        """
        cfg, g, w0 = self.cfg, max(_TAIL_GRADE / margin, _GRADE), 0.0
        c = max(g - _TAIL_GRADE, 0.0)
        if name is not None:
            z, digits = margin * (_LAST_Y - ya), -math.log(cfg.tol)
            if math.isinf(self.model.tail_index) and z < digits:
                raise self._beyond(name)
            if math.isfinite(self.model.tail_index) and z < 2.0 * digits:
                g, c = _FAR_GRADE, 0.0
            elif math.exp((ya - _LAST_Y) / g) > cfg.tol:  # else w0 <= tol, [0, w0] holds w0^6
                rise = _LAST_Y - ya
                L = (rise + c) / g
                for _ in range(6):  # Newton's method, from above
                    L -= (g * L - c * -math.expm1(-L) - rise) / (g - c * math.exp(-L))
                w0 = math.exp(-L)

        def f(w):
            rise, dy = _rise(w, g, c)
            return piece(rise) * dy
        end = math.exp((ya + math.log1p(-hi)) / g) if hi < 1.0 else 0.0  # g = 6 on a head
        value = _quad(f, max(end, w0), 1.0, cfg, where, **kw)
        if w0 > end and w0 * abs(float(f(np.array([w0]))[0])) > cfg.tol * abs(value):
            raise self._beyond(name)
        return value

    def _beyond(self, name: str) -> UnsupportedSpecError:
        return UnsupportedSpecError(
            f"{name} has more than tol={self.cfg.tol:g} of its mass where S underflows to 0 "
            f"for {self.model.describe()}, which this route cannot read")

    def __call__(self, g, lo: float = 0.0, hi=None, degree: float = 0, pwm=()) -> float:
        model = self.model
        lo, hi = float(lo), model.support[1] if hi is None else float(hi)
        if hi == math.inf:
            margin, name = self.margin, self.name
            if pwm:
                margin, name = _margin(model, pwm[0], pwm[2], pwm), "M_{%s,%s,%s}" % pwm
            elif margin is None:
                margin, name = _margin(model, degree + 1.0, 0.0), f"E[X^{degree + 1.0:g}]"
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
            if b == math.inf:
                ya = math.log(2.0) if a == median else -math.log(self.above(a))

                def piece(rise):  # x = e^L(y), dx = x L'(y) dy
                    lx, slope = model.tail_map(ya + rise)
                    x = np.exp(lx)
                    return h(x) * (x * slope)
                total += self._tail(piece, ya, margin, name, (a, b), unit=self.unit, degree=degree)
            elif a == 0.0:  # in w, x = b w^3, as _QDomain's lower half
                total += _quad(_graded(h, b, _GRADE), 0.0, 1.0, self.cfg, (a, b), self.unit, degree)
            else:
                total += _quad(h, a, b, self.cfg, (a, b), self.unit, degree)
        return total


class _QDomain:
    """The quantile evaluator: it reads the model's Q, and never F or S but at a level.

    ``Q(f, top, hi, degree, margin, tail)`` is unit^degree int f(u, v, q) du
    over v = 1 - u in [1 - hi, top], with q = Q(u)/unit: f is array-valued
    and homogeneous of ``degree`` in Q, so its integral is taken in the
    model's own units.  Near u = 1, f behaves like v^(margin - 1) for a
    power tail, :func:`_margin`: a range that reaches u = 1 exists exactly
    when margin > 0.  A caller that has decided f's margin passes it, as
    ``M`` does for v^s q^p; else f is taken to behave like q^degree, and
    is refused as E[X^degree]; a head, hi < 1, is finite and takes margin 1.
    The range is split at u = 1/2: the half that touches 0 runs in w with
    u = h w^3, the half that touches 1 in y = -log v (:meth:`_XDomain._tail`)
    with log q from ``tail_map``, so no u or v is formed by subtracting a
    number close to it from 1.  Its integrand f v is ``tail(y - ya, log Q,
    log unit, log span)``, with v = span e^-(y - ya) and span = e^-ya: for
    ``M``, exp(p log q - (1 + s) y) u^r, which no underflow of v or overflow
    of Q reaches; for any other f, f(u, v, q v^(1/degree)), as f is
    homogeneous in q, so no q^degree is formed.
    ``M(p, r, s)`` is the PWM M_{p,r,s}, integrated once per ``moments``
    dict ((p, r, s) -> value), which gains every new one, its existence
    decided once per evaluator by ``margin(p, r, s)``, kept in ``margins``.
    ``above(t)`` and ``below(t)`` are :class:`_XDomain`'s: S(t) and F(t),
    the levels at which the truncated forms start or end.
    """

    above, below = _XDomain.above, _XDomain.below
    _tail, _beyond = _XDomain._tail, _XDomain._beyond

    def __init__(self, model, cfg: QuadratureConfig, moments: dict):
        self.model, self.cfg, self.moments, self.margins, self.levels = model, cfg, moments, {}, {}

    def __call__(self, f, top: float = 1.0, hi: float = 1.0, degree: float = 1.0,
                 margin=None, tail=None) -> float:
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
            span, lunit = min(top, 0.5), math.log(unit)
            ya, form = -math.log(span), tail
            if form is None:
                def form(rise, lx, lunit, lspan):  # f v = f(u, v, q v^(1/degree)), dv = -v dy
                    v = span * np.exp(-rise)  # v <= 1/2, so 1 - v keeps u's digits
                    return f(1.0 - v, v, np.exp(lx - lunit - rise / degree) * span ** (1.0 / degree))

            total += self._tail(lambda rise: form(rise, model.tail_map(ya + rise)[0], lunit,
                                                  -ya), ya, margin,
                                None if tail else f"E[X^{degree:g}]", (1.0 - span, hi), hi,
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

            def tail(rise, lx, lunit, lspan):  # q^p u^r v^(1 + s), v = e^(lspan - rise)
                out = np.exp((p * lx if p != 1 else lx) - ((1.0 + s) * rise if s else rise)
                             + ((1.0 + s) * lspan - p * lunit))
                return out * (-np.expm1(lspan - rise)) ** r if r else out

            self.moments[key] = self(f, degree=p, margin=margin, tail=tail)
        return self.moments[key]


def pwm_population(model, idx: PwmIndex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """M_{p,r,s} = int_0^1 Q(u)^p u^r (1-u)^s du for a parametric model, on the quantile route."""
    return _QDomain(model, cfg, {}).M(idx.p, idx.r, idx.s)


# ---------------------------------------------------------------------------
# the mean lives, and the generalized entropies by name


def mean_residual_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m(t) = E(X - t | X > t) = int_t^inf sf/sf(t) dx."""
    _check_t(t)
    return _residual(_XDomain(model, cfg), t, 1)


def mean_past_life(model, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r(t) = E(t - X | X <= t) = int_0^t F/F(t) dx."""
    _check_t(t)
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
            least = min(Q.margins, key=Q.margins.get, default=None)
            X = _XDomain(model, cfg, Q.margins.get(least), least and "M_{%s,%s,%s}" % least)
            value = entry.x(X, *args)
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
