"""Probability weighted moments M_{p,r,s} = E[X^p F(X)^r (1-F(X))^s]: index and sample routes.

A model's M_{p,r,s} is ``population.pwm_population``, the quantile form
``int_0^1 Q(u)^p u^r (1-u)^s du`` on the quantile evaluator.  Two sample
routes are provided here:

* ``pwm_plugin`` — the plug-in sample estimator that replaces F with
  plotting positions (valid for any real r, s >= 0, but biased);
* ``pwm_unbiased_beta`` / ``pwm_unbiased_alpha`` — the exact unbiased
  order-statistic estimators b_r of M_{1,r,0} and a_s of M_{1,0,s} for
  integer orders (Greenwood-style PWM estimators).

Every sample route is an L-statistic (1/n) sum_i x_(i)^p w_i.  The kernel
``_rank_sums`` computes any number of them, and the identities' step-ECDF
sums, in one walk over the sorted sample in blocks of ``_BLOCK`` ranks
(``empirical._BLOCK``), forming each power of x, u and 1-u and each
b_r/a_s product once per block: no length-n array is made and nothing
outlives the call.  ``_fused`` records the terms a computation reads and
serves them from one walk.  The package's other sample estimators walk
the same blocks, so no sample estimator makes a length-n array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .empirical import _BLOCK, Sample, _block_positions, _check_convention, _check_integer_order
from .errors import BadParameterError, NonFiniteError, TooFewObservationsError

__all__ = [
    "PwmIndex",
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


def pwm_plugin(sample: Sample, idx: PwmIndex, conv: str = "hazen") -> float:
    """Plug-in estimator (1/n) sum x_(i)^p u_i^r (1-u_i)^s.

    Negative exponents require plotting positions strictly inside
    (0,1); the naive convention puts u_n = 1 and is refused there.
    """
    _check_convention(conv)
    return _rank_sums(sample.values, conv, [(idx.p, idx.r, idx.s, False)])[0][0]


def pwm_unbiased_beta(sample: Sample, r) -> float:
    """Unbiased b_r for M_{1,r,0}, integer r >= 0.

    b_r = (1/n) sum_{i} x_(i) * (i-1)(i-2)...(i-r) / [(n-1)...(n-r)];
    the weight vanishes automatically for i <= r.  Products are built
    as running ratios so no intermediate overflows for large n.
    """
    return _rank_sums(sample.values, "hazen", [(1, _check_integer_order("r", r), 0, True)])[0][0]


def pwm_unbiased_alpha(sample: Sample, s) -> float:
    """Unbiased a_s for M_{1,0,s}, integer s >= 0.

    a_s = (1/n) sum_{i} x_(i) * (n-i)(n-i-1)...(n-i-s+1) / [(n-1)...(n-s)];
    the weight vanishes automatically for i > n - s.
    """
    return _rank_sums(sample.values, "hazen", [(1, 0, _check_integer_order("s", s), True)])[0][0]


# ---------------------------------------------------------------------------
# the sample kernel


def _rank_sums(values: np.ndarray, conv: str, terms, gaps=None):
    """Every term's mean and every gap's step sums, from one blocked walk over sorted values.

    A term (p, r, s, exact) is (1/n) sum_i x_(i)^p w_i.  Not exact, w_i is
    the plug-in weight u_i^r (1-u_i)^s; exact (p = 1, integer orders, one
    of them 0), w_i is the unbiased b_r weight prod_{j=1..r} (i-j)/(n-j),
    or the a_s weight, the same product of ranks counted from the top.
    gaps, if given, maps a block's levels i/n to the values g(i/n) of every
    gap g, in a fixed order, so that the gaps can share their powers of
    i/n (an iterable, which may make each gap's values as it is read);
    each g gives (sum_i dx_i g(i/n), sum_i 1/2 d(x^2)_i g(i/n)) over the
    n-1 steps dx_i = x_(i+1) - x_(i) of the naive step ECDF.
    conv is one of ECDF_CONVENTIONS: the public doors check it.
    Returns (means, steps), in the order of terms and gaps.
    """
    n = values.shape[0]
    factors = []  # per term, the keys of its factors, multiplied left to right
    for p, r, s, exact in terms:
        if not exact:
            keys = [key for key in (("x", p), ("u", r), ("1-u", s)) if key[1]]
            factors.append(keys or [("x", 0)])  # M_{0,0,0}: x^0 is all ones
            continue
        order, name = int(r + s), "b" if s == 0 else "a"
        if n <= order:
            raise TooFewObservationsError(f"{name}_{order} needs n > {order}, got n={n}")
        factors.append([("x", 1), (name, order)] if order else [("x", 1)])
    plugin_s = [s for _, _, s, exact in terms if not exact]
    if plugin_s and min(plugin_s) < 0 and _block_positions(n - 1, n, n, conv)[0] >= 1.0:
        raise BadParameterError(
            "negative s exponent needs u_n < 1; use the hazen or mean-rank convention"
        )
    sums, steps = [0.0] * len(terms), []
    for lo in range(0, n, _BLOCK):
        x = values[lo:lo + _BLOCK]
        hi = lo + x.shape[0]
        parts = {("x", 1): x}

        def part(key):
            """This block's x^e, u^e, (1-u)^e, b_e or a_e weight, or ("b"/"a", 0): i-1 or n-i."""
            if key not in parts:
                kind, e = key
                if kind in ("x", "u", "1-u") and e != 1:
                    value = part((kind, 1)) ** e
                elif kind == "u":
                    value = _block_positions(lo, hi, n, conv)
                elif kind == "1-u":
                    value = 1.0 - part(("u", 1))
                elif e == 0:
                    value = (np.arange(lo, hi, dtype=float) if kind == "b"
                             else np.arange(n - 1.0 - lo, n - 1.0 - hi, -1.0))
                else:  # the running ratio product
                    m = part((kind, 0))
                    value = (m / (n - 1.0) if e == 1
                             else part((kind, e - 1)) * ((m - (e - 1)) / (n - e)))
                parts[key] = value
            return parts[key]

        for k, keys in enumerate(factors):
            y = part(keys[0])
            for key in keys[1:-1]:
                y = y * part(key)
            sums[k] += float(np.dot(y, part(keys[-1])) if len(keys) > 1 else y.sum())
        if gaps is not None:
            j = 1 if lo == 0 else 0  # the first step lies between ranks 1 and 2
            xs = values[lo + j - 1:hi]  # one value of overlap with the block before
            dx, half_dx2 = np.diff(xs), 0.5 * np.diff(xs * xs)
            for k, gv in enumerate(gaps(part(("b", 0))[j:] / n)):
                if k == len(steps):  # the first block
                    steps.append([0.0, 0.0])
                steps[k][0] += float(np.dot(dx, gv))
                steps[k][1] += float(np.dot(half_dx2, gv))
    return [total / n for total in sums], [tuple(step) for step in steps]


def _fused(values: np.ndarray, conv: str, compute, gaps=None):
    """compute(T), with every T(term) it reads taken from one _rank_sums walk; and the gap sums.

    compute runs twice: first each T(term) is recorded and reads 0.0, then,
    after one walk over the recorded terms, each reads its mean.  compute
    must ask for the same terms both times.
    """
    slots, means = {}, None

    def T(term):
        slot = slots.setdefault(term, len(slots))
        return 0.0 if means is None else means[slot]

    compute(T)
    means, steps = _rank_sums(values, conv, list(slots), gaps)
    return compute(T), steps
