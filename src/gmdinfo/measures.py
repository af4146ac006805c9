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
crt / ct            cumulative residual / past Tsallis entropy   alpha
wcrt / wct          weighted variants (second-moment)            alpha
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
one, a dedicated sample route.  The truncated forms divide by S(t) or F(t)
inside their integrands, so each is taken in the value's own units.
The quantile route, the x-domain route and the sample estimators all read
that entry, so adding a measure means adding one entry.

Note on crj vs ce: the survival-square integral and the pairwise-minimum
representation are the same number (-1/2 E[min(X1,X2)] = -E[X(1-F(X))]),
so the two ids coincide at both population and sample level; both are
kept because they arise from different definitions.

All estimators are pure functions of the sorted sample.  Pairwise
statistics are i<j U-statistics (no self-pairs), which is what makes
the sample-level decompositions below exact rather than asymptotic.
Every estimator walks the sorted sample in blocks of ``_BLOCK`` ranks and
makes no length-n array: the PWM forms through ``pwm._rank_sums``, the
pairwise means through ``_rank_dot``, and ge/gce through phi's sums
carried from block to block.
"""

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .empirical import _BLOCK, Sample, _check_convention, _position, values_above, values_upto
from .errors import (
    BadParameterError,
    EmptyTailError,
    FewerThanTwoError,
    NonFiniteError,
    TooFewObservationsError,
)
from .pwm import PwmIndex, _fused, pwm_unbiased_alpha, pwm_unbiased_beta

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
    "s_gini",
    "crj",
    "cj",
    "ce",
    "crjw",
    "wce",
    "j_dyn",
    "h_dyn",
    "crt",
    "ct",
    "wcrt",
    "wct",
    "sr",
    "sp",
    "srw",
    "spw",
    "generalized_residual_entropy",
    "generalized_cumulative_entropy",
    "expected_min_of_k",
    "expected_max_of_k",
    "risk_premium",
    "gain_premium",
    "measure_sample",
]


# ---------------------------------------------------------------------------
# weight / phi selectors for the generalized entropies


#: 1 - 2^-40: _power_over_complement's 2F1 is not evaluated beyond this
_HYP_CAP = 1.0 - 2.0**-40


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
    exactly 0^a - 0^b at P = 0.
    """
    low, high = sorted((a, b))
    with np.errstate(divide="ignore", over="ignore"):  # Q/0 = inf: log 0 = -inf
        d = P**low * -np.expm1((low - high) * np.log1p(Q / P))
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
        if self.kind == "cdf-power":
            return p**self.j
        return (1.0 - p if v is None else v) ** self.j

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
        return self.c * np.asarray(x, dtype=float) ** self.v

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


def _check_t(t):
    if t < 0:
        raise BadParameterError("t must be non-negative")


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
    """int_t^sup (S/S(t))^power dx on the x-domain evaluator X: m(t) at power 1, -2 J_t at 2."""
    st = X.above(t)
    return X(lambda x, F, S: (S / st) ** power, lo=t)


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
                       x=lambda X, v: X(lambda x, F, S: S - S**v) / v),
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
    "crt": _Measure(**_A, pwm=lambda M, a: (M(1, 0, 0) - a * M(1, 0, a - 1.0)) / (a - 1.0),
                    x=lambda X, a: X(lambda x, F, S: S - S**a) / (a - 1.0)),
    "wcrt": _Measure(**_A, pwm=lambda M, a: (M(2, 0, 0) - a * M(2, 0, a - 1.0)) / (2.0 * (a - 1.0)),
                     x=lambda X, a: X(lambda x, F, S: x * (S - S**a), degree=1) / (a - 1.0)),
    "ct": _Measure(**_A, pwm=lambda M, a: (a * M(1, a - 1.0, 0) - M(1, 0, 0)) / (a - 1.0),
                   x=lambda X, a: X(lambda x, F, S: _power_difference(F, S, 1.0, a)) / (a - 1.0)),
    "wct": _Measure(**_A, pwm=lambda M, a: (a * M(2, a - 1.0, 0) - M(2, 0, 0)) / (2.0 * (a - 1.0)),
                    x=lambda X, a: X(lambda x, F, S: x * _power_difference(F, S, 1.0, a), degree=1)
                    / (a - 1.0)),
    "sr": _Measure(**_AB,
                   pwm=lambda M, a, b: (a * M(1, 0, a - 1.0) - b * M(1, 0, b - 1.0)) / (b - a),
                   x=lambda X, a, b: X(lambda x, F, S: S**a - S**b) / (b - a)),
    "sp": _Measure(**_AB,
                   pwm=lambda M, a, b: (b * M(1, b - 1.0, 0) - a * M(1, a - 1.0, 0)) / (b - a),
                   x=lambda X, a, b: X(lambda x, F, S: _power_difference(F, S, a, b)) / (b - a)),
    "srw": _Measure(**_AB,
                    pwm=lambda M, a, b: (a * M(2, 0, a - 1.0) - b * M(2, 0, b - 1.0)) / (2.0 * (b - a)),
                    x=lambda X, a, b: X(lambda x, F, S: x * (S**a - S**b), degree=1) / (b - a)),
    "spw": _Measure(**_AB,
                    pwm=lambda M, a, b: (b * M(2, b - 1.0, 0) - a * M(2, a - 1.0, 0)) / (2.0 * (b - a)),
                    x=lambda X, a, b: X(lambda x, F, S: x * _power_difference(F, S, a, b), degree=1)
                    / (b - a)),
    "ge": _Measure(("w", "phi"), q=_ge_q, sample=lambda s, conv, w, phi: (
        generalized_residual_entropy(s, w, phi, conv), "ecdf-double-mean")),
    "gce": _Measure(("w", "phi"), q=_gce_q, sample=lambda s, conv, w, phi: (
        generalized_cumulative_entropy(s, w, phi, conv), "ecdf-double-mean")),
    "risk_premium": _Measure(**_K, pwm=lambda M, k: M(1, 0, 0) - k * M(1, 0, k - 1.0),
                             x=lambda X, k: X.mean() - X(lambda x, F, S: S**k),
                             sample=lambda s, conv, k: (risk_premium(s, k), "order-statistic-weights")),
    "gain_premium": _Measure(**_K, pwm=lambda M, k: k * M(1, k - 1.0, 0) - M(1, 0, 0),
                             x=lambda X, k: X(lambda x, F, S: _power_difference(F, S, 0.0, k))
                             - X.mean(),
                             sample=lambda s, conv, k: (gain_premium(s, k), "order-statistic-weights")),
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
        for name in ("t", "v", "alpha", "beta", "p"):
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


def _rank_dot(values: np.ndarray, first: float, step: float, power: float = 1.0) -> float:
    """sum_k (first + step*k) values[k]^power over k = 0..m-1, in blocks: no length-m temporary."""
    total = 0.0
    for lo in range(0, values.shape[0], _BLOCK):
        x = values[lo:lo + _BLOCK]
        w = np.arange(first + step * lo, first + step * (lo + x.shape[0]), step)
        total += float(np.dot(w, x if power == 1.0 else x**power))
    return total


def _sorted_gmd(values: np.ndarray, power: float = 1.0) -> float:
    """Mean |y_i - y_j| over pairs i<j of y = x^power, x sorted: (2/(n(n-1))) sum (2i-n-1) y_(i)."""
    n = values.shape[0]
    return 2.0 * _rank_dot(values, 1.0 - n, 2.0, power) / (n * (n - 1.0))


def gmd(sample: Sample) -> float:
    """Gini mean difference, the i<j U-statistic of |x_i - x_j|."""
    return _sorted_gmd(sample.values)


def gmd_via_pwm(sample: Sample) -> float:
    """GMD through its PWM form 2 M_{1,1,0} - 2 M_{1,0,1}, read as 2 b_1 - 2 a_1.

    Equals :func:`gmd` exactly (not just asymptotically) because b_1 and
    a_1 reweigh the same order statistics.
    """
    return _sample_values(sample, [MeasureSpec("gmd")], "hazen")[0][0][0]


def pairwise_min_mean(values: np.ndarray) -> float:
    """Mean of min(x_i, x_j) over pairs i<j of a sorted array: (2/(m(m-1))) sum (m-i) x_(i)."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    return 2.0 * _rank_dot(values, m - 1.0, -1.0) / (m * (m - 1.0))


def pairwise_max_mean(values: np.ndarray) -> float:
    """Mean of max(x_i, x_j) over pairs i<j of a sorted array: (2/(m(m-1))) sum (i-1) x_(i)."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    return 2.0 * _rank_dot(values, 0.0, 1.0) / (m * (m - 1.0))


def _tail(sample: Sample, t: float, need: int) -> np.ndarray:
    part = values_above(sample, t)
    if part.size == 0:
        raise EmptyTailError(f"no observation above t={t}")
    if part.size < need:
        raise FewerThanTwoError(f"only {part.size} observation(s) above t={t}")
    return part


def _head(sample: Sample, t: float, need: int) -> np.ndarray:
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


def _pwm_form(T, n: int, spec: MeasureSpec):
    """(value, route) of spec's PWM form on n observations, each moment read as a kernel term T.

    M_{1,e,0} and M_{1,0,e} with an integer e < n take the exact unbiased
    order-statistic route (b_e, a_e; b_0 = a_0 = the mean); everything
    else is the plug-in.  The route is unbiased-pwm only when every moment
    took the unbiased route.
    """
    entry, routes = MEASURE_IDS[spec.id], set()

    def M(p, r, s):
        r, s = float(r), float(s)
        e = r + s  # the one non-zero exponent when the other is 0
        exact = p == 1 and (r == 0 or s == 0) and e >= 0 and e == int(e) and n > int(e)
        routes.add(_UNBIASED if exact else _PLUGIN)
        return T((p, r, s, exact))

    value = _check_finite(spec, entry.pwm(M, *entry.args(spec)))
    return value, _PLUGIN if _PLUGIN in routes else _UNBIASED


def _check_finite(spec: MeasureSpec, value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"{spec.id} is not finite on this sample: {value!r}")
    return value


def _sample_values(sample: Sample, specs, conv: str, gaps=()):
    """(value, route) of each PWM-form spec, and the step sums of gaps, from one kernel walk."""
    return _fused(sample.values, conv, lambda T: [_pwm_form(T, sample.n, spec) for spec in specs],
                  gaps)


def _lookup(mid: str, sample: Sample, conv: str = "hazen", **params):
    return measure_sample(sample, MeasureSpec(mid, **params), conv)


def s_gini(sample: Sample, v: float, conv: str = "hazen"):
    """S-Gini index S_v = (1/v) E(X) - M_{1,0,v-1}; returns (value, route)."""
    return _lookup("s_gini", sample, conv, v=v)


def crj(sample: Sample) -> float:
    """Cumulative residual extropy: -a_1 (minus half the pairwise-min mean)."""
    return _lookup("crj", sample)[0]


def ce(sample: Sample) -> float:
    """Min-representation extropy -E[X(1-F(X))]; same number as :func:`crj`."""
    return _lookup("ce", sample)[0]


def cj(sample: Sample) -> float:
    """Cumulative extropy: -b_1 (minus half the pairwise-max mean)."""
    return _lookup("cj", sample)[0]


def crjw(sample: Sample, conv: str = "hazen") -> float:
    """Max-weighted extropy -1/2 M_{2,1,0} (plug-in)."""
    return _lookup("crjw", sample, conv)[0]


def wce(sample: Sample, conv: str = "hazen") -> float:
    """Min-weighted extropy -1/2 M_{2,0,1} (plug-in)."""
    return _lookup("wce", sample, conv)[0]


def crt(sample: Sample, alpha: float, conv: str = "hazen"):
    """Cumulative residual Tsallis entropy of order alpha; (value, route).

    (1/(alpha-1)) [E(X) - alpha M_{1,0,alpha-1}]; at alpha=2 on the
    unbiased route this is exactly gmd/2.
    """
    return _lookup("crt", sample, conv, alpha=alpha)


def ct(sample: Sample, alpha: float, conv: str = "hazen"):
    """Cumulative (past) Tsallis entropy: (alpha M_{1,alpha-1,0} - E(X))/(alpha-1)."""
    return _lookup("ct", sample, conv, alpha=alpha)


def wcrt(sample: Sample, alpha: float, conv: str = "hazen"):
    """Weighted cumulative residual Tsallis entropy (second-moment form)."""
    return _lookup("wcrt", sample, conv, alpha=alpha)


def wct(sample: Sample, alpha: float, conv: str = "hazen"):
    """Weighted cumulative (past) Tsallis entropy (second-moment form)."""
    return _lookup("wct", sample, conv, alpha=alpha)


def sr(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Survival two-parameter entropy (alpha M_{1,0,a-1} - beta M_{1,0,b-1})/(beta-alpha)."""
    return _lookup("sr", sample, conv, alpha=alpha, beta=beta)


def sp(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Past two-parameter entropy (beta M_{1,b-1,0} - alpha M_{1,a-1,0})/(beta-alpha)."""
    return _lookup("sp", sample, conv, alpha=alpha, beta=beta)


def srw(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Weighted survival two-parameter entropy (second-moment form)."""
    return _lookup("srw", sample, conv, alpha=alpha, beta=beta)


def spw(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Weighted past two-parameter entropy (second-moment form)."""
    return _lookup("spw", sample, conv, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# generalized entropies


def _at_run_ends(sums: np.ndarray, x: np.ndarray):
    """sums[e_i] and e_i, where e_i counts the values <= x_i of a sorted block x."""
    ends = np.flatnonzero(x[1:] != x[:-1]) + 1
    if ends.shape[0] == x.shape[0] - 1:  # no ties: each run ends at the next rank
        return sums[1:], np.arange(1, x.shape[0] + 1)
    ends = np.append(ends, x.shape[0])
    ends = np.repeat(ends, np.diff(ends, prepend=0))
    return sums[ends], ends


def _weight_at_ranks(w: WeightSelector, lo: int, hi: int, n: int, conv: str) -> np.ndarray:
    """w at the plotting positions of ranks lo+1..hi of n."""
    return w.at_probability(_position(np.arange(lo + 1.0, hi + 1.0), float(n), conv))


def generalized_residual_entropy(sample: Sample, w: WeightSelector,
                                 phi: PhiSelector, conv: str = "hazen") -> float:
    """GE: (1/n) sum_i w(x_(i)) * mean over x_j > x_(i) of (phi(x_j) - phi(x_i)).

    Ranks with an empty strict upper tail contribute 0.  The weight is
    evaluated through the chosen plotting positions when it references
    the distribution function.  The sample is walked from the top down in
    blocks of _BLOCK ranks, carrying phi's sum from the top, and the sum
    from the end of the tie run that holds the lowest rank walked.
    """
    _check_convention(conv)
    x, n = sample.values, sample.n
    total, above = 0.0, 0.0
    run_end, run_sum = n, 0.0
    for lo in reversed(range(0, n, _BLOCK)):
        xb = x[lo:lo + _BLOCK]
        hi = lo + xb.shape[0]
        ph = phi(xb)
        # suffix[k]: phi's sum from rank lo + k up, added from the top down as one cumsum would
        suffix = np.cumsum(np.concatenate(([above], ph[::-1])))[::-1]
        above = float(suffix[0])
        open_top = hi < n and x[hi] == xb[-1]  # the top run goes on into the block above
        if open_top:
            suffix[-1] = run_sum
        sums, ends = _at_run_ends(suffix, xb)
        cnt = n - lo - ends
        if open_top:
            cnt[ends == xb.shape[0]] = n - run_end
        term = np.where(cnt > 0, sums / np.maximum(cnt, 1) - ph, 0.0)
        total += float(np.dot(_weight_at_ranks(w, lo, hi, n, conv), term))
        run_end, run_sum = n - int(cnt[0]), float(sums[0])
    return total / n


def _phi_sum(x: np.ndarray, phi: PhiSelector, lo: int, hi: int, total: float) -> float:
    """total plus phi over ranks lo..hi-1, added in rank order in blocks, as one cumsum would."""
    for start in range(lo, hi, _BLOCK):
        ph = phi(x[start:min(start + _BLOCK, hi)])
        total = float(np.cumsum(np.concatenate(([total], ph)))[-1])
    return total


def generalized_cumulative_entropy(sample: Sample, w: WeightSelector,
                                   phi: PhiSelector, conv: str = "hazen") -> float:
    """GCE: (1/n) sum_i w(x_(i)) * mean over x_j <= x_(i) of (phi(x_i) - phi(x_j)).

    The sample is walked from the bottom up in blocks of _BLOCK ranks,
    carrying phi's sum from the bottom; a tie run that goes on past a block
    is summed ahead to its end once.
    """
    _check_convention(conv)
    x, n = sample.values, sample.n
    total, below = 0.0, 0.0
    run_end, run_sum = 0, 0.0
    for lo in range(0, n, _BLOCK):
        xb = x[lo:lo + _BLOCK]
        hi = lo + xb.shape[0]
        ph = phi(xb)
        prefix = np.cumsum(np.concatenate(([below], ph)))  # prefix[k]: phi's sum below rank lo + k
        below = float(prefix[-1])
        open_top = hi < n and x[hi] == xb[-1]
        if open_top:
            end = int(np.searchsorted(x, xb[-1], "right"))
            if end != run_end:
                run_end, run_sum = end, _phi_sum(x, phi, hi, end, below)
            prefix[-1] = run_sum
        sums, ends = _at_run_ends(prefix, xb)
        cnt = lo + ends  # includes self and all ties
        if open_top:
            cnt[ends == xb.shape[0]] = run_end
        total += float(np.dot(_weight_at_ranks(w, lo, hi, n, conv), ph - sums / cnt))
    return total / n


# ---------------------------------------------------------------------------
# order-k premia


def _check_order_k(sample: Sample, k) -> int:
    _check_k(k)
    k = int(k)
    if sample.n < k:
        raise TooFewObservationsError(f"k={k} needs at least {k} observations, got {sample.n}")
    return k


def expected_min_of_k(sample: Sample, k) -> float:
    """Unbiased estimate of E(min of k draws): k a_{k-1} = sum C(n-i, k-1)/C(n,k) x_(i)."""
    k = _check_order_k(sample, k)
    return k * pwm_unbiased_alpha(sample, k - 1)


def expected_max_of_k(sample: Sample, k) -> float:
    """Unbiased estimate of E(max of k draws): k b_{k-1} = sum C(i-1, k-1)/C(n,k) x_(i)."""
    k = _check_order_k(sample, k)
    return k * pwm_unbiased_beta(sample, k - 1)


def risk_premium(sample: Sample, k) -> float:
    """EG_k(X) = mean - E(min of k)."""
    return float(np.mean(sample.values)) - expected_min_of_k(sample, k)


def gain_premium(sample: Sample, k) -> float:
    """EG_k(-X) = E(max of k) - mean."""
    return expected_max_of_k(sample, k) - float(np.mean(sample.values))


# ---------------------------------------------------------------------------
# dispatcher


def measure_sample(sample: Sample, spec: MeasureSpec, conv: str = "hazen"):
    """Evaluate a measure on a sample; returns (value, estimator_route).

    Without a dedicated sample route, the measure's PWM form is evaluated
    with one estimate per moment, all from one kernel walk; the route is
    unbiased-pwm only when every moment took the unbiased route.  A NaN or
    infinite value (the data overflow, e.g. x^2 near 1e200) raises
    NonFiniteError.
    """
    entry = MEASURE_IDS[spec.id]
    if entry.sample is None:
        return _sample_values(sample, [spec], conv)[0][0]
    value, route = entry.sample(sample, conv, *entry.args(spec))
    return _check_finite(spec, value), route
