"""Probability weighted moments M_{p,r,s} = E[X^p F(X)^r (1-F(X))^s].

Three routes are provided:

* ``pwm_population`` — quadrature of the quantile form
  ``int_0^1 Q(u)^p u^r (1-u)^s du`` for a parametric model;
* ``pwm_plugin`` — the plug-in sample estimator that replaces F with
  plotting positions (valid for any real r, s >= 0, but biased);
* ``pwm_unbiased_beta`` / ``pwm_unbiased_alpha`` — the exact unbiased
  order-statistic estimators b_r of M_{1,r,0} and a_s of M_{1,0,s} for
  integer orders (Greenwood-style PWM estimators).
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .empirical import Sample, plotting_positions
from .errors import (
    BadParameterError,
    NonFiniteError,
    TooFewObservationsError,
    UnsupportedSpecError,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_u

if TYPE_CHECKING:  # pragma: no cover
    from .models import ParametricModel

__all__ = [
    "PwmIndex",
    "pwm_population",
    "pwm_plugin",
    "pwm_unbiased_beta",
    "pwm_unbiased_alpha",
]


@dataclass(frozen=True)
class PwmIndex:
    """The triple (p, r, s) indexing M_{p,r,s}.

    p is a non-negative integer (the power of X); r and s are real
    exponents on F and 1-F.  Exponents in (-1, 0) are admitted — the
    Tsallis/two-parameter families need M_{p,0,alpha-1} with alpha < 1 —
    since the endpoint singularity u^r (1-u)^s stays integrable there.
    """

    p: int
    r: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        _check_integer_order("p", self.p)
        for name, val in (("r", self.r), ("s", self.s)):
            if not math.isfinite(val):
                raise NonFiniteError(f"{name} must be finite")
            if val <= -1:
                raise BadParameterError(f"{name} must exceed -1, got {val}")


def pwm_population(model: "ParametricModel", idx: PwmIndex,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """M_{p,r,s} for a parametric model via quantile-domain quadrature."""
    tail = getattr(model, "tail_index", math.inf)
    # Q(u)^p (1-u)^s ~ (1-u)^{s - p/tail} near u=1: integrable iff p < tail*(s+1).
    if math.isfinite(tail) and idx.p >= tail * (idx.s + 1.0):
        raise UnsupportedSpecError(
            f"M_{{{idx.p},{idx.r},{idx.s}}} does not exist for {model.describe()}"
        )
    p, r, s = int(idx.p), float(idx.r), float(idx.s)

    def f(u):
        q = model.quantile(u) ** p if p else 1.0
        return q * u**r * (1.0 - u) ** s

    return quad_u(f, cfg)


def pwm_plugin(sample: Sample, idx: PwmIndex, conv: str = "hazen") -> float:
    """Plug-in estimator (1/n) sum x_(i)^p u_i^r (1-u_i)^s.

    Negative exponents require plotting positions strictly inside
    (0,1); the naive convention puts u_n = 1 and is refused there.
    """
    u = plotting_positions(sample.n, conv)
    if idx.s < 0 and u[-1] >= 1.0:
        raise BadParameterError(
            "negative s exponent needs u_n < 1; use the hazen or mean-rank convention"
        )
    y = sample.values ** idx.p if idx.p else np.ones(sample.n)
    if idx.r:  # a zero exponent's factor is all ones, and 1.0 * y == y
        y *= u**idx.r
    if idx.s:
        y *= (1.0 - u) ** idx.s
    return float(np.mean(y))


def _check_integer_order(name: str, value) -> int:
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} must be finite")
    if value != int(value) or value < 0:
        raise BadParameterError(f"{name} must be a non-negative integer, got {value}")
    return int(value)


def pwm_unbiased_beta(sample: Sample, r) -> float:
    """Unbiased b_r for M_{1,r,0}, integer r >= 0.

    b_r = (1/n) sum_{i} x_(i) * (i-1)(i-2)...(i-r) / [(n-1)...(n-r)];
    the weight vanishes automatically for i <= r.  Products are built
    as running ratios so no intermediate overflows for large n.
    """
    return _rank_weighted_mean(sample, "b", _check_integer_order("r", r), reverse=False)


def pwm_unbiased_alpha(sample: Sample, s) -> float:
    """Unbiased a_s for M_{1,0,s}, integer s >= 0.

    a_s = (1/n) sum_{i} x_(i) * (n-i)(n-i-1)...(n-i-s+1) / [(n-1)...(n-s)];
    the weight vanishes automatically for i > n - s.
    """
    return _rank_weighted_mean(sample, "a", _check_integer_order("s", s), reverse=True)


def _rank_weighted_mean(sample: Sample, name: str, order: int, reverse: bool) -> float:
    """(1/n) sum_i x_(i) w_i, w_i = prod_{j=1..order} (i - j)/(n - j), reversed for a_s.

    Every numerator is a whole number, exact in floats, so the ranks may be
    counted from either end.
    """
    n = sample.n
    if n <= order:
        raise TooFewObservationsError(f"{name}_{order} needs n > {order}, got n={n}")
    if order == 0:
        return float(np.mean(sample.values))
    # i - 1 at ranks i = 1..n, or n - i (the rank counted from the top, minus 1) for a_s
    m = np.arange(n - 1, -1, -1, dtype=float) if reverse else np.arange(n, dtype=float)
    w = m / (n - 1)
    for j in range(2, order + 1):
        w *= (m - (j - 1)) / (n - j)
    return float(np.mean(np.multiply(sample.values, w, out=w)))
