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

Note on crj vs ce: the survival-square integral and the pairwise-minimum
representation are the same number (-1/2 E[min(X1,X2)] = -E[X(1-F(X))]),
so the two ids coincide at both population and sample level; both are
kept because they arise from different definitions.

All estimators are pure functions of the sorted sample.  Pairwise
statistics are i<j U-statistics (no self-pairs), which is what makes
the sample-level decompositions below exact rather than asymptotic.
"""

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import exprel, hyp2f1

from .empirical import (
    Sample,
    plotting_positions,
    values_above,
    values_upto,
)
from .errors import (
    BadParameterError,
    EmptyTailError,
    FewerThanTwoError,
    NonFiniteError,
    TooFewObservationsError,
)
from .pwm import PwmIndex, pwm_plugin, pwm_unbiased_alpha, pwm_unbiased_beta

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


def _power_over_complement(j: float, x):
    """int_0^x p^j/(1-p) dp = x^(j+1)/(j+1) * 2F1(1, j+1; j+2; x)."""
    return x ** (j + 1.0) / (j + 1.0) * hyp2f1(1.0, j + 1.0, j + 2.0, x)


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

    def at_probability(self, p):
        """Evaluate the weight where F(x) = p (works on arrays)."""
        if self.kind == "const":
            return self.c * np.ones_like(np.asarray(p, dtype=float))
        if self.kind == "cdf-power":
            return np.asarray(p, dtype=float) ** self.j
        return (1.0 - np.asarray(p, dtype=float)) ** self.j

    def cumulative_up(self, q):
        """W_up(q) = int_0^q w(p)/(1-p) dp (works on arrays)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "cdf-power":
            return _power_over_complement(self.j, q)
        log_sf = np.log1p(-q)
        if self.kind == "const":
            return -self.c * log_sf
        return -log_sf * exprel(self.j * log_sf)  # (1 - (1-q)^j)/j

    def cumulative_down(self, q):
        """W_down(q) = int_q^1 w(p)/p dp (works on arrays)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "sf-power":
            return _power_over_complement(self.j, 1.0 - q)
        log_q = np.log(q)
        if self.kind == "const":
            return -self.c * log_q
        return -log_q * exprel(self.j * log_q)  # (1 - q^j)/j

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


_PHI_RE = re.compile(r"^\s*([0-9.eE+-]+)?\s*\*?\s*x\s*(?:\^\s*([0-9.eE+-]+))?\s*$")


def parse_weight(text: str) -> WeightSelector:
    """Parse 'const:c', a bare number, 'F^j', or 'Fbar^j'."""
    t = text.strip()
    low = t.lower()
    if low.startswith("const:"):
        return WeightSelector("const", c=float(t.split(":", 1)[1]))
    for token, kind in (("fbar", "sf-power"), ("f", "cdf-power")):
        if low == token:
            return WeightSelector(kind, j=1.0)
        if low.startswith(token + "^"):
            return WeightSelector(kind, j=float(t[len(token) + 1:]))
    try:
        return WeightSelector("const", c=float(t))
    except ValueError:
        raise BadParameterError(
            f"cannot parse weight {text!r}; use a number, 'const:c', 'F^j', or 'Fbar^j'"
        ) from None


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
# measure descriptors

#: measure id -> required parameter names
MEASURE_IDS = {
    "gmd": (),
    "gmd_left": ("t",),
    "gmd_right": ("t",),
    "s_gini": ("v",),
    "crj": (),
    "cj": (),
    "ce": (),
    "crjw": (),
    "wce": (),
    "j_dyn": ("t",),
    "h_dyn": ("t",),
    "crt": ("alpha",),
    "wcrt": ("alpha",),
    "ct": ("alpha",),
    "wct": ("alpha",),
    "sr": ("alpha", "beta"),
    "sp": ("alpha", "beta"),
    "srw": ("alpha", "beta"),
    "spw": ("alpha", "beta"),
    "ge": ("w", "phi"),
    "gce": ("w", "phi"),
    "risk_premium": ("k",),
    "gain_premium": ("k",),
    "pwm": ("p",),
}

_TSALLIS_IDS = ("crt", "wcrt", "ct", "wct")
_STM_IDS = ("sr", "sp", "srw", "spw")


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
        required = MEASURE_IDS[self.id]
        allowed = set(required) | ({"r", "s"} if self.id == "pwm" else set())
        for name in ("t", "v", "k", "alpha", "beta", "p", "r", "s", "w", "phi"):
            val = getattr(self, name)
            if name in required and val is None:
                raise BadParameterError(f"measure {self.id!r} requires parameter {name!r}")
            if name not in allowed and val is not None:
                raise BadParameterError(f"measure {self.id!r} does not take parameter {name!r}")
        self._validate_values()

    def _validate_values(self):
        for name in ("t", "v", "alpha", "beta", "p"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise NonFiniteError(f"{name} must be finite")
        if self.t is not None and self.t < 0:
            raise BadParameterError("t must be non-negative")
        if self.v is not None:
            if self.v <= 0:
                raise BadParameterError("v must be positive")
            if self.v == 1:
                raise BadParameterError("v must differ from 1")
        if self.k is not None and (not float(self.k).is_integer() or self.k < 2):
            raise BadParameterError("k must be an integer >= 2")
        if self.id in _TSALLIS_IDS:
            if self.alpha <= 0:
                raise BadParameterError("alpha must be positive")
            if self.alpha == 1:
                raise BadParameterError("alpha must differ from 1")
        if self.id in _STM_IDS:
            if self.alpha <= 0 or self.beta <= 0:
                raise BadParameterError("alpha and beta must be positive")
            if self.alpha == self.beta:
                raise BadParameterError("beta must differ from alpha")
        if self.id == "pwm":
            PwmIndex(self.p, self.r or 0.0, self.s or 0.0)

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


def _sorted_gmd(values: np.ndarray) -> float:
    """Mean |x_i - x_j| over pairs i<j of a sorted array: (2/(n(n-1))) sum (2i-n-1) x_(i)."""
    n = values.shape[0]
    i = np.arange(1, n + 1, dtype=float)
    return float(2.0 * np.sum((2.0 * i - n - 1.0) * values) / (n * (n - 1.0)))


def gmd(sample: Sample) -> float:
    """Gini mean difference, the i<j U-statistic of |x_i - x_j|."""
    return _sorted_gmd(sample.values)


def gmd_via_pwm(sample: Sample) -> float:
    """GMD through the moment form 2 M_{1,1,0} - 2 M_{1,0,1}.

    Equals :func:`gmd` exactly (not just asymptotically) because b_1 and
    a_1 reweigh the same order statistics.
    """
    return 2.0 * pwm_unbiased_beta(sample, 1) - 2.0 * pwm_unbiased_alpha(sample, 1)


def pairwise_min_mean(values: np.ndarray) -> float:
    """Mean of min(x_i, x_j) over unordered pairs i<j of a sorted array."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    i = np.arange(1, m + 1, dtype=float)
    return float(2.0 * np.sum((m - i) * values) / (m * (m - 1.0)))


def pairwise_max_mean(values: np.ndarray) -> float:
    """Mean of max(x_i, x_j) over unordered pairs i<j of a sorted array."""
    m = values.shape[0]
    if m < 2:
        raise FewerThanTwoError("pairwise mean needs at least 2 points")
    i = np.arange(1, m + 1, dtype=float)
    return float(2.0 * np.sum((i - 1.0) * values) / (m * (m - 1.0)))


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


def _m1_hat(sample: Sample, exponent: float, side: str, conv: str):
    """Estimate M_{1,e,0} (side='cdf') or M_{1,0,e} (side='sf').

    Integer exponents with enough data take the exact unbiased
    order-statistic route; everything else is the plug-in.
    """
    e = float(exponent)
    if e >= 0 and e == int(e) and sample.n > int(e):
        est = pwm_unbiased_beta if side == "cdf" else pwm_unbiased_alpha
        return est(sample, int(e)), _UNBIASED
    idx = PwmIndex(1, r=e if side == "cdf" else 0.0, s=e if side == "sf" else 0.0)
    return pwm_plugin(sample, idx, conv), _PLUGIN


def _m2_hat(sample: Sample, exponent: float, side: str, conv: str):
    """Plug-in estimate of M_{2,e,0} (side='cdf') or M_{2,0,e} (side='sf')."""
    e = float(exponent)
    idx = PwmIndex(2, r=e if side == "cdf" else 0.0, s=e if side == "sf" else 0.0)
    return pwm_plugin(sample, idx, conv), _PLUGIN


def _join(*routes: str) -> str:
    return _UNBIASED if all(r == _UNBIASED for r in routes) else _PLUGIN


def s_gini(sample: Sample, v: float, conv: str = "hazen"):
    """S-Gini index S_v = (1/v) E(X) - M_{1,0,v-1}; returns (value, route)."""
    _require(v is not None and v > 0 and v != 1, "v must be positive and differ from 1")
    m, route = _m1_hat(sample, v - 1.0, "sf", conv)
    return float(np.mean(sample.values)) / v - m, route


def crj(sample: Sample) -> float:
    """Cumulative residual extropy: -a_1 (minus half the pairwise-min mean)."""
    return -pwm_unbiased_alpha(sample, 1)


def ce(sample: Sample) -> float:
    """Min-representation extropy -E[X(1-F(X))]; same number as :func:`crj`."""
    return crj(sample)


def cj(sample: Sample) -> float:
    """Cumulative extropy, defined through the decomposition cj = crj - gmd/2.

    The defining integral -1/2 int (1 - F^2) dx is not sample-computable
    over an unbounded domain, while the decomposition is exact (it equals
    -b_1, minus half the pairwise-max mean).
    """
    return crj(sample) - 0.5 * gmd(sample)


def crjw(sample: Sample, conv: str = "hazen") -> float:
    """Max-weighted extropy -1/2 M_{2,1,0} (plug-in)."""
    return -0.5 * pwm_plugin(sample, PwmIndex(2, r=1.0), conv)


def wce(sample: Sample, conv: str = "hazen") -> float:
    """Min-weighted extropy -1/2 M_{2,0,1} (plug-in)."""
    return -0.5 * pwm_plugin(sample, PwmIndex(2, s=1.0), conv)


def _check_alpha(alpha: float) -> None:
    _require(alpha is not None and alpha > 0, "alpha must be positive")
    _require(alpha != 1, "alpha must differ from 1")


def crt(sample: Sample, alpha: float, conv: str = "hazen"):
    """Cumulative residual Tsallis entropy of order alpha; (value, route).

    (1/(alpha-1)) [E(X) - alpha M_{1,0,alpha-1}]; at alpha=2 on the
    unbiased route this is exactly gmd/2.
    """
    _check_alpha(alpha)
    m, route = _m1_hat(sample, alpha - 1.0, "sf", conv)
    mean = float(np.mean(sample.values))
    return (mean - alpha * m) / (alpha - 1.0), route


def ct(sample: Sample, alpha: float, conv: str = "hazen"):
    """Cumulative (past) Tsallis entropy: (alpha M_{1,alpha-1,0} - E(X))/(alpha-1)."""
    _check_alpha(alpha)
    m, route = _m1_hat(sample, alpha - 1.0, "cdf", conv)
    mean = float(np.mean(sample.values))
    return (alpha * m - mean) / (alpha - 1.0), route


def wcrt(sample: Sample, alpha: float, conv: str = "hazen"):
    """Weighted cumulative residual Tsallis entropy (second-moment form)."""
    _check_alpha(alpha)
    m200 = pwm_plugin(sample, PwmIndex(2), conv)
    m, route = _m2_hat(sample, alpha - 1.0, "sf", conv)
    return (m200 - alpha * m) / (2.0 * (alpha - 1.0)), route


def wct(sample: Sample, alpha: float, conv: str = "hazen"):
    """Weighted cumulative (past) Tsallis entropy (second-moment form)."""
    _check_alpha(alpha)
    m200 = pwm_plugin(sample, PwmIndex(2), conv)
    m, route = _m2_hat(sample, alpha - 1.0, "cdf", conv)
    return (alpha * m - m200) / (2.0 * (alpha - 1.0)), route


def _check_alpha_beta(alpha: float, beta: float) -> None:
    _require(alpha is not None and beta is not None and alpha > 0 and beta > 0,
             "alpha and beta must be positive")
    _require(alpha != beta, "beta must differ from alpha")


def sr(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Survival two-parameter entropy (alpha M_{1,0,a-1} - beta M_{1,0,b-1})/(beta-alpha)."""
    _check_alpha_beta(alpha, beta)
    ma, ra = _m1_hat(sample, alpha - 1.0, "sf", conv)
    mb, rb = _m1_hat(sample, beta - 1.0, "sf", conv)
    return (alpha * ma - beta * mb) / (beta - alpha), _join(ra, rb)


def sp(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Past two-parameter entropy (beta M_{1,b-1,0} - alpha M_{1,a-1,0})/(beta-alpha)."""
    _check_alpha_beta(alpha, beta)
    ma, ra = _m1_hat(sample, alpha - 1.0, "cdf", conv)
    mb, rb = _m1_hat(sample, beta - 1.0, "cdf", conv)
    return (beta * mb - alpha * ma) / (beta - alpha), _join(ra, rb)


def srw(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Weighted survival two-parameter entropy (second-moment form)."""
    _check_alpha_beta(alpha, beta)
    ma, ra = _m2_hat(sample, alpha - 1.0, "sf", conv)
    mb, rb = _m2_hat(sample, beta - 1.0, "sf", conv)
    return (alpha * ma - beta * mb) / (2.0 * (beta - alpha)), _join(ra, rb)


def spw(sample: Sample, alpha: float, beta: float, conv: str = "hazen"):
    """Weighted past two-parameter entropy (second-moment form)."""
    _check_alpha_beta(alpha, beta)
    ma, ra = _m2_hat(sample, alpha - 1.0, "cdf", conv)
    mb, rb = _m2_hat(sample, beta - 1.0, "cdf", conv)
    return (beta * mb - alpha * ma) / (2.0 * (beta - alpha)), _join(ra, rb)


# ---------------------------------------------------------------------------
# generalized entropies


def generalized_residual_entropy(sample: Sample, w: WeightSelector,
                                 phi: PhiSelector, conv: str = "hazen") -> float:
    """GE: (1/n) sum_i w(x_(i)) * mean over x_j > x_(i) of (phi(x_j) - phi(x_i)).

    Ranks with an empty strict upper tail contribute 0.  The weight is
    evaluated through the chosen plotting positions when it references
    the distribution function.
    """
    x = sample.values
    n = sample.n
    u = plotting_positions(n, conv)
    wv = w.at_probability(u)
    ph = phi(x)
    # for each i, first rank whose value exceeds x_(i) (handles ties)
    right = np.searchsorted(x, x, side="right")
    cnt = n - right
    suffix = np.concatenate([np.cumsum(ph[::-1])[::-1], [0.0]])
    avg_above = np.divide(suffix[right], cnt, out=np.zeros(n), where=cnt > 0)
    term = np.where(cnt > 0, avg_above - ph, 0.0)
    return float(np.mean(wv * term))


def generalized_cumulative_entropy(sample: Sample, w: WeightSelector,
                                   phi: PhiSelector, conv: str = "hazen") -> float:
    """GCE: (1/n) sum_i w(x_(i)) * mean over x_j <= x_(i) of (phi(x_i) - phi(x_j))."""
    x = sample.values
    n = sample.n
    u = plotting_positions(n, conv)
    wv = w.at_probability(u)
    ph = phi(x)
    cnt = np.searchsorted(x, x, side="right")  # includes self and all ties
    prefix = np.concatenate([[0.0], np.cumsum(ph)])
    term = ph - prefix[cnt] / cnt
    return float(np.mean(wv * term))


# ---------------------------------------------------------------------------
# order-k premia


def _check_order_k(sample: Sample, k) -> int:
    if k is None or not float(k).is_integer() or k < 2:
        raise BadParameterError("k must be an integer >= 2")
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadParameterError(message)


def measure_sample(sample: Sample, spec: MeasureSpec, conv: str = "hazen"):
    """Evaluate a measure on a sample; returns (value, estimator_route)."""
    mid = spec.id
    if mid == "gmd":
        return gmd(sample), "sorted-u-statistic"
    if mid == "gmd_left":
        return gmd_left(sample, spec.t), "truncated-u-statistic"
    if mid == "gmd_right":
        return gmd_right(sample, spec.t), "truncated-u-statistic"
    if mid == "j_dyn":
        return j_dyn(sample, spec.t), "truncated-u-statistic"
    if mid == "h_dyn":
        return h_dyn(sample, spec.t), "truncated-u-statistic"
    if mid == "s_gini":
        return s_gini(sample, spec.v, conv)
    if mid == "crj":
        return crj(sample), _UNBIASED
    if mid == "ce":
        return ce(sample), _UNBIASED
    if mid == "cj":
        return cj(sample), "identity(crj - gmd/2)"
    if mid == "crjw":
        return crjw(sample, conv), _PLUGIN
    if mid == "wce":
        return wce(sample, conv), _PLUGIN
    if mid == "crt":
        return crt(sample, spec.alpha, conv)
    if mid == "ct":
        return ct(sample, spec.alpha, conv)
    if mid == "wcrt":
        return wcrt(sample, spec.alpha, conv)
    if mid == "wct":
        return wct(sample, spec.alpha, conv)
    if mid == "sr":
        return sr(sample, spec.alpha, spec.beta, conv)
    if mid == "sp":
        return sp(sample, spec.alpha, spec.beta, conv)
    if mid == "srw":
        return srw(sample, spec.alpha, spec.beta, conv)
    if mid == "spw":
        return spw(sample, spec.alpha, spec.beta, conv)
    if mid == "ge":
        return generalized_residual_entropy(sample, spec.w, spec.phi, conv), "ecdf-double-mean"
    if mid == "gce":
        return generalized_cumulative_entropy(sample, spec.w, spec.phi, conv), "ecdf-double-mean"
    if mid == "risk_premium":
        return risk_premium(sample, spec.k), "order-statistic-weights"
    if mid == "gain_premium":
        return gain_premium(sample, spec.k), "order-statistic-weights"
    if mid == "pwm":
        r, s = spec.r or 0.0, spec.s or 0.0
        if spec.p == 1 and s == 0:
            return _m1_hat(sample, r, "cdf", conv)
        if spec.p == 1 and r == 0:
            return _m1_hat(sample, s, "sf", conv)
        return pwm_plugin(sample, PwmIndex(spec.p, r, s), conv), _PLUGIN
    raise BadParameterError(f"unknown measure {mid!r}")  # pragma: no cover
