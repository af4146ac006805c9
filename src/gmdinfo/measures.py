"""Sample estimators for every measure, plus the measure descriptors.

The measure vocabulary
----------------------
==================  ============================================  ==========
id                  quantity                                      parameters
==================  ============================================  ==========
gmd                 Gini mean difference E|X1 - X2|               --
gmd_left            GMD of the tail above t                      t
gmd_right           GMD of the head at or below t                t
s_gini              S-Gini index -Cov(X, (1-F)^{v-1})            v
crj                 cumulative residual extropy -1/2 int (1-F)^2  --
cj                  cumulative extropy -1/2 int (1 - F^2)        --
ce                  min-representation extropy -E[X(1-F)]        --
crjw                max-weighted extropy -1/4 E[max^2]           --
wce                 min-weighted extropy -1/4 E[min^2]           --
j_dyn               dynamic survival extropy at t                t
h_dyn               dynamic cumulative (past) extropy at t       t
crt / ct            sr / sp at (1, alpha): Tsallis entropies     alpha
wcrt / wct          srw / spw at (1, alpha): weighted variants   alpha
sr / sp             survival / past two-parameter entropies      alpha, beta
srw / spw           weighted variants                            alpha, beta
ge / gce            generalized residual / cumulative entropy    w, phi
risk_premium        E(X) - E(min of k)                           k
gain_premium        E(max of k) - E(X)                           k
pwm                 raw probability weighted moment M_{p,r,s}    p, r, s
==================  ============================================  ==========

Each measure is one entry of :data:`MEASURE_IDS`: its parameters, their
check, its PWM form (one expression over an ``M(p, r, s)`` evaluator) or
else its quantile integral, its x-domain integral and, where the data need
one, a dedicated sample route.  The truncated forms divide by S(t) or F(t),
and the order families' x forms by their order gap, inside their integrands,
so each is taken in the value's own units.
The quantile route, the x-domain route and the sample estimators all read
that entry, so adding a measure means adding one entry.  The cumulative
residual and past Tsallis entropies crt and ct, and their weighted forms
wcrt and wct, are sr, sp, srw and spw at (1, alpha) (:func:`_at_one`).

Note on crj vs ce: the survival-square integral and the pairwise-minimum
representation are the same number (-1/2 E[min(X1,X2)] = -E[X(1-F(X))]),
so the two ids coincide at both population and sample level; both are
kept because they arise from different definitions.

All estimators are pure functions of the sorted sample.  Pairwise
statistics are i<j U-statistics (no self-pairs), which is what makes
the sample-level decompositions below exact rather than asymptotic.
A measure with a PWM form and no dedicated sample route, the premia
among them, has one sample estimator: its form, with every moment read
by the one estimator ``_sample_values`` chooses for the whole form.
Every estimator walks the sorted sample in blocks of ``_BLOCK`` ranks and
makes no length-n array: the PWM forms through ``pwm._rank_sums``, the
pairwise means through ``_rank_dot`` (both by ``pwm._row_moments`` in rows
once a sample is large), ge as an L-statistic whose weights hold no phi
(``_ge_values``, its A summed in short chains by ``_prefix_sums``) and gce
through phi's running sum, carried as one float (``_runs``).
"""

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .empirical import (_BLOCK, Sample, _block_positions, _check_convention, _check_t, _ranks,
                        values_above, values_upto)
from .errors import (
    BadParameterError,
    EmptyTailError,
    FewerThanTwoError,
    NonFiniteError,
)
from .pwm import _ROW, _RANK_ROWS_FROM, _STEP_TABLE, PwmIndex, _rank_sums, _row_moments

__all__ = [
    "WeightSelector",
    "PhiSelector",
    "parse_weight",
    "parse_phi",
    "MeasureSpec",
    "MEASURE_IDS",
    "gmd",
    "gmd_via_pwm",
    "pairwise_min_mean",
    "pairwise_max_mean",
    "gmd_left",
    "gmd_right",
    "j_dyn",
    "h_dyn",
    "generalized_residual_entropy",
    "generalized_cumulative_entropy",
    "measure_sample",
]


# ---------------------------------------------------------------------------
# weight / phi selectors for the generalized entropies


#: 1 - 2^-40: _power_over_complement's 2F1 is not evaluated beyond this
_HYP_CAP = 1.0 - 2.0**-40
_NORMAL = np.finfo(float).tiny  # the smallest normal float: Q/P overflows only below it


def _power_over_complement(j: float, x, y):
    """int_0^x p^j/(1-p) dp = x^(j+1)/(j+1) * 2F1(1, j+1; j+2; x), given y = 1 - x.

    Where y >= 1e-2 that product is the value.  Nearer x = 1 the log
    singularity is taken as -log(y), from y itself: the integral is
    -log(y) - R(x), where R(x) = int_0^x (1 - p^j)/(1-p) dp is smooth, with
    slope j at x = 1, so an x rounded to 1 costs nothing.  Past _HYP_CAP, R
    is extended linearly from there.
    """
    from scipy.special import hyp2f1  # only ge with F^j and gce with Fbar^j get here

    xc = np.minimum(x, _HYP_CAP)
    below = xc ** (j + 1.0) / (j + 1.0) * hyp2f1(1.0, j + 1.0, j + 2.0, xc)
    return np.where(y >= 1e-2, below, below + np.log1p(-xc) - np.log(y) - j * (x - xc))[()]


def _exprel(z):
    """(e^z - 1)/z, and 1 where |z| < 1e-16 (works on arrays)."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-16
    return np.where(small, 1.0, np.expm1(z) / np.where(small, 1.0, z))


def _power_difference(P, Q, a: float, b: float):
    """P^a - P^b from P and Q = 1 - P, without cancellation where P is near 1 (works on arrays).

    +-P^low (1 - P^(high - low)), the bracket as -expm1((high - low) log P)
    with log P = -log1p(Q/P), as 1/P = 1 + Q/P: accurate for every P, and
    exactly 0^a - 0^b at P = 0.  Where Q/P overflows (subnormal P, Q = 1)
    log P is log(P) itself.
    """
    low, high = sorted((a, b))
    if np.minimum.reduce(P, axis=None) >= _NORMAL and high - low < 1e300:  # nothing overflows
        exponent = (low - high) * np.log1p(Q / P)
    else:
        with np.errstate(divide="ignore", over="ignore"):  # Q/0 = inf: log 0 = -inf
            ratio = Q / P
            exponent = (low - high) * np.where(np.isinf(ratio), -np.log(P), np.log1p(ratio))
    d = (P if low == 1 else P**low) * -np.expm1(exponent)
    return d if a < b else -d


@dataclass(frozen=True)
class WeightSelector:
    """Weight w(.) restricted to the forms the identity registry needs.

    kind "const": w = c;  "cdf-power": w = F^j;  "sf-power": w = (1-F)^j.
    """

    kind: str
    c: float = 1.0
    j: float = 1.0

    def __post_init__(self):
        if self.kind not in ("const", "cdf-power", "sf-power"):
            raise BadParameterError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.c) or not math.isfinite(self.j):
            raise NonFiniteError("weight parameters must be finite")
        if self.kind != "const" and self.j < 0:
            raise BadParameterError("weight exponent must be >= 0")

    def at_probability(self, p, v=None):
        """Evaluate the weight where F(x) = p (works on arrays); v = 1 - p if given."""
        p = np.asarray(p, dtype=float)
        if self.kind == "const":
            return self.c * np.ones_like(p)
        base = p if self.kind == "cdf-power" else (1.0 - p if v is None else v)
        return base if self.j == 1 else base**self.j

    def cumulative_up(self, q, v=None):
        """W_up(q) = int_0^q w(p)/(1-p) dp (works on arrays); v = 1 - q if given."""
        q = np.asarray(q, dtype=float)
        if self.kind == "cdf-power":
            return _power_over_complement(self.j, q, 1.0 - q if v is None else v)
        log_sf = np.log1p(-q) if v is None else np.log(v)
        if self.kind == "const":
            return -self.c * log_sf
        return -log_sf * _exprel(self.j * log_sf)  # (1 - (1-q)^j)/j

    def cumulative_down(self, q, v=None):
        """W_down(q) = int_q^1 w(p)/p dp (works on arrays); v = 1 - q if given."""
        q = np.asarray(q, dtype=float)
        if self.kind == "sf-power":
            return _power_over_complement(self.j, 1.0 - q if v is None else v, q)
        log_q = np.log(q)
        if self.kind == "const":
            return -self.c * log_q
        return -log_q * _exprel(self.j * log_q)  # (1 - q^j)/j

    def describe(self) -> str:
        if self.kind == "const":
            return f"const:{self.c:g}"
        base = "F" if self.kind == "cdf-power" else "Fbar"
        return f"{base}^{self.j:g}"


@dataclass(frozen=True)
class PhiSelector:
    """phi(x) = c * x^v."""

    c: float = 1.0
    v: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.c) or not math.isfinite(self.v):
            raise NonFiniteError("phi parameters must be finite")
        if self.v <= 0:
            raise BadParameterError("phi power must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.c * (x if self.v == 1 else x**self.v)

    def describe(self) -> str:
        return f"{self.c:g}*x^{self.v:g}"


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"  # what float() reads of [0-9.eE+-]
_PHI_RE = re.compile(rf"^\s*({_NUMBER})?\s*\*?\s*x\s*(?:\^\s*({_NUMBER}))?\s*$")


def parse_weight(text: str) -> WeightSelector:
    """Parse 'const:c', a bare number, 'F^j', or 'Fbar^j'."""
    t = text.strip()
    low = t.lower()
    kind, number = None, t  # None: a constant
    if low.startswith("const:"):
        number = t.split(":", 1)[1]
    for token, power in (("fbar", "sf-power"), ("f", "cdf-power")):
        if low == token:
            return WeightSelector(power, j=1.0)
        if low.startswith(token + "^"):
            kind, number = power, t[len(token) + 1:]
            break
    try:
        value = float(number)
    except ValueError:
        raise BadParameterError(
            f"cannot parse weight {text!r}; use a number, 'const:c', 'F^j', or 'Fbar^j'"
        ) from None
    return WeightSelector(kind, j=value) if kind else WeightSelector("const", c=value)


def parse_phi(text: str) -> PhiSelector:
    """Parse 'x', '2x', '2*x', 'x^2', or '2*x^1.5'."""
    m = _PHI_RE.match(text)
    if not m:
        raise BadParameterError(
            f"cannot parse phi {text!r}; use forms like 'x', '2*x', or '2*x^2'"
        )
    c = float(m.group(1)) if m.group(1) else 1.0
    v = float(m.group(2)) if m.group(2) else 1.0
    return PhiSelector(c=c, v=v)


# ---------------------------------------------------------------------------
# the measure table


@dataclass(frozen=True)
class _Measure:
    """One measure, defined once; every route reads this entry.

    ``pwm(M, *args)`` writes the measure as a combination of PWMs
    M(p, r, s): the quantile route passes the population moment, the
    sample route an estimator.  ``q(Q, *args)`` is the quantile integral,
    of f(u, v, q) of a declared degree in q, on the quantile evaluator, of
    a measure without a PWM form.  ``x(X, *args)`` is the defining
    integral, of g(x, F, S) of a declared degree in x, on the x-domain
    evaluator.  ``sample(sample, conv, *args)`` returns (value, route)
    where the estimator is not the PWM form.  ``args`` are the parameter
    values, required then optional, in declared order.
    """

    params: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    check: Optional[Callable] = None
    pwm: Optional[Callable] = None
    q: Optional[Callable] = None
    x: Optional[Callable] = None
    sample: Optional[Callable] = None

    def args(self, spec) -> tuple:
        return tuple(getattr(spec, name) for name in self.params + self.optional)


def _check_k(k):
    if k is None or not float(k).is_integer() or k < 2:
        raise BadParameterError("k must be an integer >= 2")


def _check_order(name: str):
    """Check of an order that must be positive and differ from 1 (v, alpha)."""
    def check(value):
        if value <= 0:
            raise BadParameterError(f"{name} must be positive")
        if value == 1:
            raise BadParameterError(f"{name} must differ from 1")
    return check


def _check_pair(alpha, beta):
    if alpha <= 0 or beta <= 0:
        raise BadParameterError("alpha and beta must be positive")
    if alpha == beta:
        raise BadParameterError("beta must differ from alpha")


def _residual(X, t, power):
    """int_t^sup (S/S(t))^power dx on the x-domain evaluator X: m(t) at power 1, -2 J_t at 2.

    It exists where power*tail_index > 1, and is refused otherwise as E[X^1], or as
    M_{1,0,1}, the moment that holds S^2, for J_t.
    """
    st = X.above(t)
    return X(lambda x, F, S: (S / st) ** power, lo=t, pwm=(1, 0, power - 1) if power > 1 else ())


def _past(X, t, power):
    """int_0^t (F/F(t))^power dx on the x-domain evaluator X: r(t) at power 1, -2 H_t at 2."""
    ft = X.below(t)
    return X(lambda x, F, S: (F / ft) ** power, hi=t)


def _left_q(Q, t):
    """(1/S(t)^2) int_{F(t)}^1 (S(t) - 2(1-u)) Q(u) du, from v = S(t), over S(t) inside."""
    st = Q.above(t)
    return Q(lambda u, v, q: (1.0 - 2.0 * v / st) * q / st, top=st)


def _right_q(Q, t):
    """(1/F(t)^2) int_0^{F(t)} (2u - F(t)) Q(u) du, over F(t) inside."""
    ft = Q.below(t)
    return Q(lambda u, v, q: (2.0 * u / ft - 1.0) * q / ft, hi=ft)


def _ge_q(Q, w, phi):
    """int_0^1 phi(Q(u)) (W_up(u) - w(u)) du, W_up(u) = int_0^u w(p)/(1-p) dp (Fubini)."""
    return Q(lambda u, v, q: phi(q) * (w.cumulative_up(u, v) - w.at_probability(u, v)),
             degree=phi.v)


def _gce_q(Q, w, phi):
    """int_0^1 phi(Q(u)) (w(u) - W_down(u)) du, W_down(u) = int_u^1 w(p)/p dp (Fubini)."""
    return Q(lambda u, v, q: phi(q) * (w.at_probability(u, v) - w.cumulative_down(u, v)),
             degree=phi.v)


# parameters and check shared by a family of measures
_T = dict(params=("t",), check=_check_t)
_A = dict(params=("alpha",), check=_check_order("alpha"))
_AB = dict(params=("alpha", "beta"), check=_check_pair)
_K = dict(params=("k",), check=_check_k)
_TRUNC = "truncated-u-statistic"
_CRJ = _Measure(pwm=lambda M: -M(1, 0, 1), x=lambda X: -0.5 * X(lambda x, F, S: S**2))
_SR = _Measure(**_AB, pwm=lambda M, a, b: (a * M(1, 0, a - 1) - b * M(1, 0, b - 1)) / (b - a),
               x=lambda X, a, b: X(lambda x, F, S: ((S if a == 1 else S**a) - S**b) / (b - a)))
_SP = _Measure(**_AB, pwm=lambda M, a, b: (b * M(1, b - 1, 0) - a * M(1, a - 1, 0)) / (b - a),
               x=lambda X, a, b: X(lambda x, F, S: _power_difference(F, S, a, b) / (b - a)))
_SRW = _Measure(**_AB,
                pwm=lambda M, a, b: (a * M(2, 0, a - 1) - b * M(2, 0, b - 1)) / (2.0 * (b - a)),
                x=lambda X, a, b: X(lambda x, F, S: x * ((S if a == 1 else S**a) - S**b) / (b - a),
                                    degree=1))
_SPW = _Measure(**_AB,
                pwm=lambda M, a, b: (b * M(2, b - 1, 0) - a * M(2, a - 1, 0)) / (2.0 * (b - a)),
                x=lambda X, a, b: X(lambda x, F, S: x * _power_difference(F, S, a, b) / (b - a),
                                    degree=1))


def _at_one(family: _Measure) -> _Measure:
    """The one-parameter member of an order family: the family at (1, alpha)."""
    return _Measure(**_A, pwm=lambda M, a: family.pwm(M, 1, a), x=lambda X, a: family.x(X, 1, a))


#: measure id -> its definition (see :class:`_Measure`)
MEASURE_IDS = {
    "gmd": _Measure(pwm=lambda M: 2.0 * M(1, 1, 0) - 2.0 * M(1, 0, 1),
                    x=lambda X: 2.0 * X(lambda x, F, S: F * S),
                    sample=lambda s, conv: (gmd(s), "sorted-u-statistic")),
    "gmd_left": _Measure(**_T, q=_left_q, x=lambda X, t: _residual(X, t, 1) - _residual(X, t, 2),
                         sample=lambda s, conv, t: (gmd_left(s, t), _TRUNC)),
    "gmd_right": _Measure(**_T, q=_right_q, x=lambda X, t: _past(X, t, 1) - _past(X, t, 2),
                          sample=lambda s, conv, t: (gmd_right(s, t), _TRUNC)),
    "s_gini": _Measure(("v",), check=_check_order("v"),
                       pwm=lambda M, v: M(1, 0, 0) / v - M(1, 0, v - 1.0),
                       x=lambda X, v: X(lambda x, F, S: (S - S**v) / v)),
    "crj": _CRJ,
    "cj": _Measure(pwm=lambda M: -M(1, 1, 0), x=lambda X: -0.5 * X(lambda x, F, S: S * (1.0 + F))),
    "ce": _CRJ,
    "crjw": _Measure(pwm=lambda M: -0.5 * M(2, 1, 0),
                     x=lambda X: -0.5 * X(lambda x, F, S: x * S * (1.0 + F), degree=1)),
    "wce": _Measure(pwm=lambda M: -0.5 * M(2, 0, 1),
                    x=lambda X: -0.5 * X(lambda x, F, S: x * S**2, degree=1)),
    "j_dyn": _Measure(**_T, x=lambda X, t: -0.5 * _residual(X, t, 2),
                      sample=lambda s, conv, t: (j_dyn(s, t), _TRUNC)),
    "h_dyn": _Measure(**_T, x=lambda X, t: -0.5 * _past(X, t, 2),
                      sample=lambda s, conv, t: (h_dyn(s, t), _TRUNC)),
    "crt": _at_one(_SR), "wcrt": _at_one(_SRW), "ct": _at_one(_SP), "wct": _at_one(_SPW),
    "sr": _SR, "sp": _SP, "srw": _SRW, "spw": _SPW,
    "ge": _Measure(("w", "phi"), q=_ge_q, sample=lambda s, conv, w, phi: (
        generalized_residual_entropy(s, w, phi, conv), "ecdf-double-mean")),
    "gce": _Measure(("w", "phi"), q=_gce_q, sample=lambda s, conv, w, phi: (
        generalized_cumulative_entropy(s, w, phi, conv), "ecdf-double-mean")),
    "risk_premium": _Measure(**_K, pwm=lambda M, k: M(1, 0, 0) - k * M(1, 0, k - 1.0),
                             x=lambda X, k: X.mean() - X(lambda x, F, S: S**k)),
    "gain_premium": _Measure(**_K, pwm=lambda M, k: k * M(1, k - 1.0, 0) - M(1, 0, 0),
                             x=lambda X, k: X(lambda x, F, S: _power_difference(F, S, 0.0, k))
                             - X.mean()),
    "pwm": _Measure(("p",), ("r", "s"), check=lambda p, r, s: PwmIndex(p, r or 0.0, s or 0.0),
                    pwm=lambda M, p, r, s: M(p, r or 0.0, s or 0.0)),
}


@dataclass(frozen=True)
class MeasureSpec:
    """A measure id together with its validated parameters."""

    id: str
    t: Optional[float] = None
    v: Optional[float] = None
    k: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    p: Optional[int] = None
    r: Optional[float] = None
    s: Optional[float] = None
    w: Optional[WeightSelector] = None
    phi: Optional[PhiSelector] = None

    def __post_init__(self):
        if self.id not in MEASURE_IDS:
            raise BadParameterError(
                f"unknown measure {self.id!r}; expected one of {sorted(MEASURE_IDS)}"
            )
        entry = MEASURE_IDS[self.id]
        for name in ("t", "v", "k", "alpha", "beta", "p", "r", "s", "w", "phi"):
            val = getattr(self, name)
            if name in entry.params and val is None:
                raise BadParameterError(f"measure {self.id!r} requires parameter {name!r}")
            if name not in entry.params + entry.optional and val is not None:
                raise BadParameterError(f"measure {self.id!r} does not take parameter {name!r}")
        for name in ("v", "alpha", "beta", "p"):  # t has its own check, _check_t
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise NonFiniteError(f"{name} must be finite")
        if entry.check is not None:
            entry.check(*entry.args(self))

    def params_dict(self) -> dict:
        """Non-empty parameters, selectors rendered as strings."""
        out = {}
        for name in ("t", "v", "k", "alpha", "beta", "p", "r", "s"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.w is not None:
            out["w"] = self.w.describe()
        if self.phi is not None:
            out["phi"] = self.phi.describe()
        return out


# ---------------------------------------------------------------------------
# Gini mean difference and truncated variants


def _rank_dot(values: np.ndarray, first: float, down: bool = False, power: float = 1.0) -> float:
    """sum_k (first + k, or first - k when down) values[k]^power over k < m.  From
    _RANK_ROWS_FROM values up, each whole row from rank k0 is its pairwise sum times first + k0
    (or first + 1 - _ROW - k0) plus _ROW times its moment of s (or sbar); the rest by blocks."""
    m, total = values.shape[0], 0.0
    rows = m // _ROW * _ROW if m >= _RANK_ROWS_FROM else 0
    if rows:
        k0 = np.arange(0.0, rows, _ROW)
        at0, column = (first + 1.0 - _ROW - k0, slice(0, 1)) if down else (first + k0, slice(2, 3))
        got = _row_moments(values, 0, rows, {power: _STEP_TABLE[:, column]})[power]
        total = float((at0 * got[0] + _ROW * got[1]).sum())
    for lo in range(rows, m, _BLOCK):
        x = values[lo:lo + _BLOCK]
        ranks = _ranks(first - lo if down else first + lo, x.shape[0], down)
        total += float(np.dot(ranks, x if power == 1.0 else x**power))
    return total


def _sorted_gmd(values: np.ndarray, power: float = 1.0) -> float:
    """Mean |y_i - y_j|, i<j, of y = x^power, x sorted: (4/(n(n-1))) sum (i - (n+1)/2) y_(i)."""
    n = values.shape[0]
    return 4.0 * _rank_dot(values, (1.0 - n) / 2.0, power=power) / (n * (n - 1.0))


def gmd(sample: Sample) -> float:
    """Gini mean difference, the i<j U-statistic of |x_i - x_j|."""
    return _sorted_gmd(sample.values)


def gmd_via_pwm(sample: Sample) -> float:
    """GMD through its PWM form 2 M_{1,1,0} - 2 M_{1,0,1}, read as 2 b_1 - 2 a_1.

    Equals :func:`gmd` exactly (not just asymptotically) because b_1 and
    a_1 reweigh the same order statistics.
    """
    return _sample_values(sample.values, [MeasureSpec("gmd")], "hazen")[0][0]


def pairwise_min_mean(values: np.ndarray) -> float:
    """Mean of min(x_i, x_j) over pairs i<j of a sorted array: (2/(m(m-1))) sum (m-i) x_(i)."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    return 2.0 * _rank_dot(values, m - 1.0, down=True) / (m * (m - 1.0))


def pairwise_max_mean(values: np.ndarray) -> float:
    """Mean of max(x_i, x_j) over pairs i<j of a sorted array: (2/(m(m-1))) sum (i-1) x_(i)."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    return 2.0 * _rank_dot(values, 0.0) / (m * (m - 1.0))


def _tail(sample: Sample, t: float, need: int) -> np.ndarray:
    _check_t(t)
    part = values_above(sample, t)
    if part.size == 0:
        raise EmptyTailError(f"no observation above t={t}")
    if part.size < need:
        raise FewerThanTwoError(f"only {part.size} observation(s) above t={t}")
    return part


def _head(sample: Sample, t: float, need: int) -> np.ndarray:
    _check_t(t)
    part = values_upto(sample, t)
    if part.size == 0:
        raise EmptyTailError(f"no observation at or below t={t}")
    if part.size < need:
        raise FewerThanTwoError(f"only {part.size} observation(s) at or below t={t}")
    return part


def gmd_left(sample: Sample, t: float) -> float:
    """Left-truncated GMD: E(X | X>t) minus the pairwise-min mean above t."""
    part = _tail(sample, t, 2)
    return float(np.mean(part)) - pairwise_min_mean(part)


def gmd_right(sample: Sample, t: float) -> float:
    """Right-truncated GMD: pairwise-max mean minus E(X | X<=t), at or below t."""
    part = _head(sample, t, 2)
    return pairwise_max_mean(part) - float(np.mean(part))


def j_dyn(sample: Sample, t: float) -> float:
    """Dynamic survival extropy: -1/2 mean of (min - t) over pairs above t."""
    part = _tail(sample, t, 2)
    return -0.5 * (pairwise_min_mean(part) - t)


def h_dyn(sample: Sample, t: float) -> float:
    """Dynamic cumulative extropy: -1/2 mean of (t - max) over pairs at or below t."""
    part = _head(sample, t, 2)
    return -0.5 * (t - pairwise_max_mean(part))


# ---------------------------------------------------------------------------
# PWM-representable measures

# route tokens reported alongside values
_UNBIASED = "unbiased-pwm"
_PLUGIN = "plugin-pwm"


def _check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} is not finite on this sample: {value!r}")
    return value


def _sample_values(values: np.ndarray, forms, conv: str) -> list:
    """(value, route) of each PWM form on the sorted values, from one kernel walk.

    A form is a MeasureSpec, or a (pwm, args, name) triple whose pwm(M, *args)
    is written over M(p, r, s) as a table entry's is.  The one place a sample
    estimator is chosen, and it is chosen for the whole form.  When every
    moment is M_{1,e,0} or M_{1,0,e} with an integer 0 <= e < n, each takes
    the exact unbiased order-statistic route (b_e, a_e; b_0 = a_0 = the
    mean); otherwise each takes the plug-in.  A form that mixed the two
    would divide their O(1/n) gap by its order gap (sr, sp).  The moments
    are listed once, here, not on every kernel pass.
    """
    n, read, terms = values.shape[0], [], {}
    for form in forms:
        if isinstance(form, MeasureSpec):
            entry = MEASURE_IDS[form.id]
            form = entry.pwm, entry.args(form), form.id
        pwm, args, name = form
        moments = []
        pwm(lambda p, r, s: moments.append((p, float(r), float(s))) or 0.0, *args)
        exact = all(p == 1 and (r == 0 or s == 0) and (r + s).is_integer() and 0 <= r + s < n
                    for p, r, s in moments)
        for p, r, s in moments:
            terms.setdefault((p, r, s, exact), len(terms))
        read.append((pwm, args, name, exact))
    means, out = _rank_sums(values, conv, list(terms)), []
    for pwm, args, name, exact in read:
        value = pwm(lambda p, r, s: means[terms[p, float(r), float(s), exact]], *args)
        out.append((_check_finite(name, value), _UNBIASED if exact else _PLUGIN))
    return out


# ---------------------------------------------------------------------------
# generalized entropies


def _runs(x: np.ndarray, lo: int, hi: int):
    """None when each rank of the sorted block x[lo:hi] is its own tie run; else, per run
    the block meets, where it first appears in the block and where it starts and ends over
    all of x.  Only the runs across the block's two edges are searched for."""
    xb = x[lo:hi]
    new = xb[1:] != xb[:-1]
    from_below = lo > 0 and x[lo - 1] == xb[0]
    goes_on = hi < x.shape[0] and x[hi] == xb[-1]
    if not (from_below or goes_on) and new.all():
        return None
    cut = np.concatenate(([0], np.flatnonzero(new) + 1))
    start = lo + cut
    end = np.append(start[1:], hi)
    if from_below:
        start[0] = np.searchsorted(x, xb[0], "left")
    if goes_on:
        end[-1] = np.searchsorted(x, xb[-1], "right")
    return cut, start, end


def _prefix_sums(w: np.ndarray, denom: np.ndarray, parts: list) -> np.ndarray:
    """A_t = the sum of w_i/denom_i over i < t, past parts, the sums of the blocks below, added
    exactly; this block's pairwise sum is appended to them.  The quotients, one place up, fill
    chains of 32 terms, each summed on its own and then offset once by the chains before it
    and the blocks below (if not 0), so no long running sum adds small terms to a large one."""
    m = w.shape[0]
    chains = np.zeros((-(-m // 32), 32))
    flat = chains.reshape(-1)
    np.divide(w[:-1], denom[:-1], out=flat[1:m])
    below = math.fsum(parts) if math.isfinite(sum(parts)) else sum(parts)  # fsum raises on inf
    parts.append(float(np.add.reduce(flat)) + float(w[-1] / denom[-1]))
    np.add.accumulate(chains, axis=1, out=chains)
    if m > 32:
        chains[1:] += (np.add.accumulate(chains[:-1, -1]) + below)[:, None]
    if below:
        chains[0] += below
    return flat[:m]


def _ge_values(values: np.ndarray, w: WeightSelector, phis, conv: str) -> list:
    """GE of each phi on the sorted values, from one walk: the L-statistic (1/n) sum_j phi(x_(j))
    (A_j - w_j), A_j the sum of w_i/(n - e_i) over the ranks i below the start of j's tie run,
    e_i the end of i's run, and no w_j in the top run, whose upper tail is empty.  A holds no
    phi, so a phi costs a dot product per block.  In a block with a tie or a run across an edge
    each run is one term, and a run that starts in a block below reads A carried from there."""
    n, top = values.shape[0], int(np.searchsorted(values, values[-1]))
    totals, parts, held = [0.0] * len(phis), [], 0.0  # held: A at a run going on past its block
    for lo in range(0, top, _BLOCK):
        hi = min(lo + _BLOCK, top)
        x, runs = values[lo:hi], _runs(values, lo, hi)
        wb = w.at_probability(_block_positions(lo, hi, n, conv))
        if runs is None:
            A = _prefix_sums(wb, _ranks(n - lo - 1.0, hi - lo, down=True), parts)
            coef = np.subtract(A, wb, out=A)
        else:
            cut, start, end = runs
            wb = np.add.reduceat(wb, cut)
            A = _prefix_sums(wb, n - end, parts)
            A[0] = held if start[0] < lo else A[0]
            held = float(A[-1])
            coef, x = np.diff(cut, append=hi - lo) * A - wb, x[cut]
        for k, phi in enumerate(phis):
            totals[k] += float(np.dot(coef, phi(x)))
    carry = math.fsum(parts) if math.isfinite(sum(parts)) else sum(parts)  # A at the top run
    return [(total + ((n - top) * carry * phi(values[-1:]).item() if top else 0.0)) / n
            for total, phi in zip(totals, phis)]


def generalized_residual_entropy(sample: Sample, w: WeightSelector,
                                 phi: PhiSelector, conv: str = "hazen") -> float:
    """GE: (1/n) sum_i w(x_(i)) * mean over x_j > x_(i) of (phi(x_j) - phi(x_i)), w through the
    chosen plotting positions where it reads F: the L-statistic of _ge_values."""
    _check_convention(conv)
    return _ge_values(sample.values, w, [phi], conv)[0]


def generalized_cumulative_entropy(sample: Sample, w: WeightSelector,
                                   phi: PhiSelector, conv: str = "hazen") -> float:
    """GCE: (1/n) sum_i w(x_(i)) * mean over x_j <= x_(i) of (phi(x_i) - phi(x_j)).

    The sample is walked from the bottom up in blocks of _BLOCK ranks,
    carrying phi's sum from the bottom.  A block whose ranks are each their
    own run reads that sum at each rank.  In any other block each run is one
    term, its weights summed: with P phi's sum below the run's start s and e
    its end, (s phi - P)/e, since the run's own differences are 0.  When s
    lies in a block below, P is the sum carried from there.
    """
    _check_convention(conv)
    x, n = sample.values, sample.n
    total, below, carry = 0.0, 0.0, 0.0  # carry: phi's sum below the top run of a tied block
    for lo in range(0, n, _BLOCK):
        xb = x[lo:lo + _BLOCK]
        hi = lo + xb.shape[0]
        ph = phi(xb)
        prefix = np.cumsum(np.concatenate(([below], ph)))  # prefix[k]: phi's sum below rank lo + k
        below = float(prefix[-1])
        wb, runs = w.at_probability(_block_positions(lo, hi, n, conv)), _runs(x, lo, hi)
        if runs is None:
            term = ph - prefix[1:] / _ranks(lo + 1.0, hi - lo)
        else:
            cut, start, end = runs
            sums = prefix[np.maximum(start, lo) - lo]
            if start[0] < lo:
                sums[0] = carry
            carry = float(sums[-1])
            wb, term = np.add.reduceat(wb, cut), (start * ph[cut] - sums) / end
        total += float(np.dot(wb, term))
    return total / n


# ---------------------------------------------------------------------------
# dispatcher


def measure_sample(sample: Sample, spec: MeasureSpec, conv: str = "hazen"):
    """Evaluate a measure on a sample; returns (value, estimator_route).

    Without a dedicated sample route, the measure's PWM form is evaluated
    from one kernel walk, every moment by the one estimator ``_sample_values``
    chooses for the form: unbiased-pwm when each moment has an exact
    unbiased estimator on this sample, plugin-pwm otherwise.  A NaN or
    infinite value (the data overflow, e.g. x^2 near 1e200) raises
    NonFiniteError, and an unknown ``conv`` BadParameterError.
    """
    _check_convention(conv)
    entry = MEASURE_IDS[spec.id]
    if entry.sample is None:
        return _sample_values(sample.values, [spec], conv)[0]
    value, route = entry.sample(sample, conv, *entry.args(spec))
    return _check_finite(spec.id, value), route
