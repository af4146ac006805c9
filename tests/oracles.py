"""Brute-force reference implementations for the test suite.

Everything here is deliberately naive — double loops over pairs,
exhaustive enumeration of k-tuples, elementwise sums, integrals nested
as the definitions nest them — so the fast implementations can be
checked against primitive definitions computed a completely different
way.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from gmdinfo import QuadratureConfig, integrate_u

# inner integrals of the nested references run 100x tighter than the
# default outer quadrature, so their error stays below the outer tolerance
_INNER = QuadratureConfig(tol=1e-12)


def brute_gmd(x) -> float:
    """Mean absolute difference over unordered pairs i<j."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(x[i] - x[j])
    return 2.0 * total / (n * (n - 1))


def brute_pair_min_mean(x) -> float:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += min(x[i], x[j])
    return 2.0 * total / (n * (n - 1))


def brute_pair_max_mean(x) -> float:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += max(x[i], x[j])
    return 2.0 * total / (n * (n - 1))


def brute_gmd_left(x, t) -> float:
    """Mean-to-min gap of the subsample strictly above t.

    E(X) - E(min pair) over the tail; since E(max) + E(min) = 2 E(X)
    pairwise, this is half the plain GMD of the tail — computed here
    through the |xi - xj| double loop as an independent route.
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * brute_gmd(x[x > t])


def brute_gmd_right(x, t) -> float:
    """Max-to-mean gap (half the GMD) of the subsample at or below t."""
    x = np.asarray(x, dtype=float)
    return 0.5 * brute_gmd(x[x <= t])


def brute_j_dyn(x, t) -> float:
    x = np.asarray(x, dtype=float)
    return -0.5 * (brute_pair_min_mean(x[x > t]) - t)


def brute_h_dyn(x, t) -> float:
    x = np.asarray(x, dtype=float)
    return -0.5 * (t - brute_pair_max_mean(x[x <= t]))


def brute_min_of_k(x, k) -> float:
    """Mean of min over all k-subsets, by exhaustive enumeration."""
    x = np.asarray(x, dtype=float)
    combos = list(itertools.combinations(x, k))
    return float(np.mean([min(c) for c in combos]))


def brute_max_of_k(x, k) -> float:
    x = np.asarray(x, dtype=float)
    combos = list(itertools.combinations(x, k))
    return float(np.mean([max(c) for c in combos]))


def brute_risk_premium(x, k) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.mean(x)) - brute_min_of_k(x, k)


def brute_gain_premium(x, k) -> float:
    x = np.asarray(x, dtype=float)
    return brute_max_of_k(x, k) - float(np.mean(x))


def brute_pwm_plugin(x, u, p, r, s) -> float:
    """(1/n) sum x_i^p u_i^r (1-u_i)^s by explicit loop over rank pairs."""
    x = np.sort(np.asarray(x, dtype=float))
    total = 0.0
    for xi, ui in zip(x, u):
        total += xi**p * ui**r * (1.0 - ui) ** s
    return total / x.shape[0]


def brute_unbiased_beta(x, r) -> float:
    """b_r through binomial-coefficient weights C(i-1,r)/C(n-1,r)."""
    from math import comb

    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    total = 0.0
    for i in range(1, n + 1):
        total += comb(i - 1, r) * x[i - 1]
    return total / (n * comb(n - 1, r))


def brute_unbiased_alpha(x, s) -> float:
    """a_s through binomial-coefficient weights C(n-i,s)/C(n-1,s)."""
    from math import comb

    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    total = 0.0
    for i in range(1, n + 1):
        total += comb(n - i, s) * x[i - 1]
    return total / (n * comb(n - 1, s))


def brute_ge(x, u, w_at, phi) -> float:
    """Residual entropy sum: (1/n) sum w(u_i) (mean phi over x > x_(i) - phi(x_(i))).

    Ranks with an empty strict upper tail contribute zero.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        upper = x[x > x[i]]
        if upper.size == 0:
            continue
        total += float(w_at(u[i])) * (float(np.mean(phi(upper))) - float(phi(x[i])))
    return total / n


def brute_gce(x, u, w_at, phi) -> float:
    """Cumulative entropy sum: (1/n) sum w(u_i) (phi(x_(i)) - mean phi over x <= x_(i))."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        lower = x[x <= x[i]]
        total += float(w_at(u[i])) * (float(phi(x[i])) - float(np.mean(phi(lower))))
    return total / n


def nested_ge(model, w, phi) -> float:
    """GE by its definition: an inner conditional-mean quadrature per outer node.

    int_0^1 w(p) * ((1/(1-p)) int_p^1 phi(Q(q)) dq - phi(Q(p))) dp.
    """
    def f(p: float) -> float:
        total = integrate_u(lambda q: float(phi(model.quantile(q))), _INNER, lo=p, hi=1.0)
        return float(w.at_probability(p)) * (total / (1.0 - p) - float(phi(model.quantile(p))))

    return integrate_u(f)


def nested_gce(model, w, phi) -> float:
    """GCE by its definition: int_0^1 w(p) * (phi(Q(p)) - (1/p) int_0^p phi(Q(q)) dq) dp."""
    def f(p: float) -> float:
        total = integrate_u(lambda q: float(phi(model.quantile(q))), _INNER, lo=0.0, hi=p)
        return float(w.at_probability(p)) * (float(phi(model.quantile(p))) - total / p)

    return integrate_u(f)


def brute_pick_t(x, need_above=0, need_below=0):
    """The truncation-point rule by exhaustive ordering.

    Sorts every midpoint between distinct values by (distance from the
    center index, index) and returns the first one with at least
    need_above values strictly above and need_below at or below it.
    """
    x = np.sort(np.asarray(x, dtype=float))
    distinct = np.unique(x)
    if distinct.size < 2:
        t = float(x[0])
        return t if need_above == 0 and np.sum(x <= t) >= need_below else None
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    center = (mids.size - 1) / 2.0
    for i in sorted(range(mids.size), key=lambda ix: (abs(ix - center), ix)):
        t = float(mids[i])
        if np.sum(x > t) >= need_above and np.sum(x <= t) >= need_below:
            return t
    return None


# ---------------------------------------------------------------------------
# full-array sample estimators: each builds its length-n weights in one go,
# as the package did before its blocked rank-sum kernel, and serves as that
# kernel's reference


def full_positions(n: int, conv: str) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    if conv == "hazen":
        return (i - 0.5) / n
    if conv == "naive":
        return i / n
    return i / (n + 1)


def full_pwm_plugin(values, p, r, s, conv) -> float:
    """(1/n) sum x_(i)^p u_i^r (1-u_i)^s over the whole sorted array."""
    u = full_positions(values.shape[0], conv)
    y = values**p if p else np.ones(values.shape[0])
    if r:
        y *= u**r
    if s:
        y *= (1.0 - u) ** s
    return float(np.mean(y))


#: the PWM forms of the order measures over a moment evaluator M(p, r, s), written out here
#: from their definitions rather than read from the package's measure table
PWM_FORMS = {
    "sr": lambda M, alpha, beta: (alpha * M(1, 0, alpha - 1) - beta * M(1, 0, beta - 1))
    / (beta - alpha),
    "sp": lambda M, alpha, beta: (beta * M(1, beta - 1, 0) - alpha * M(1, alpha - 1, 0))
    / (beta - alpha),
    "risk_premium": lambda M, k: M(1, 0, 0) - k * M(1, 0, k - 1),
    "gain_premium": lambda M, k: k * M(1, k - 1, 0) - M(1, 0, 0),
}


def full_plugin_form(values, mid: str, conv: str = "hazen", **params) -> float:
    """mid's PWM form with every moment the full-array plug-in full_pwm_plugin."""
    return PWM_FORMS[mid](lambda p, r, s: full_pwm_plugin(values, p, r, s, conv), **params)


def full_rank_weighted_mean(values, order: int, reverse: bool) -> float:
    """b_r (reverse False) or a_s (True): (1/n) sum x_(i) prod_j (m_i - j + 1)/(n - j)."""
    n = values.shape[0]
    if order == 0:
        return float(np.mean(values))
    m = np.arange(n - 1, -1, -1, dtype=float) if reverse else np.arange(n, dtype=float)
    w = m / (n - 1)
    for j in range(2, order + 1):
        w *= (m - (j - 1)) / (n - j)
    return float(np.mean(values * w))


def full_plugin_cov(x, g) -> float:
    return float(np.mean(x * g) - np.mean(x) * np.mean(g))


def full_step_integrals(values, gs) -> list:
    """(int g(F_hat) dx, int x g(F_hat) dx) for the naive step ECDF, per g."""
    n = values.shape[0]
    levels = np.arange(1, n, dtype=float) / n
    dx, half_dx2 = np.diff(values), 0.5 * np.diff(values**2)
    return [(float(np.sum(dx * g(levels))), float(np.sum(half_dx2 * g(levels)))) for g in gs]


def exact_step_integrals(values, k: int, l: int) -> list:
    """(int g dx, int x g dx) for the naive step ECDF, g = (1-F)^k - (1-F)^l and then
    F^k - F^l, in exact rational arithmetic: n^l g(i/n) is an integer at each level i/n,
    and every x an integer over the largest denominator."""
    n, ratios = len(values), [Fraction(float(x)).as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    xs = [num * (den // d) for num, d in ratios]
    out = []
    for gap in (lambda i: (n - i) ** k * n ** (l - k) - (n - i) ** l,
                lambda i: i ** k * n ** (l - k) - i ** l):
        gs = [gap(i) for i in range(1, n)]
        dx = sum(g * (b - a) for g, a, b in zip(gs, xs, xs[1:]))
        dx2 = sum(g * (b * b - a * a) for g, a, b in zip(gs, xs, xs[1:]))
        out.append((float(Fraction(dx, den * n**l)), float(Fraction(dx2, 2 * den * den * n**l))))
    return out


def _exact_weighted_mean(values, weights, denominator: int) -> Fraction:
    """(1/n) sum x_i w_i / denominator in exact rational arithmetic, for integer weights w_i:
    every float, and every product of floats given as a Fraction (such as x^2), is an
    integer over a power of 2, so the sum is one integer over the largest."""
    ratios = [Fraction(x).as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    total = sum(w * num * (den // d) for w, (num, d) in zip(weights, ratios))
    return Fraction(total, den * denominator * len(ratios))


def exact_order_weighted_fraction(values, order: int, reverse: bool) -> Fraction:
    """b_r or a_s in exact rational arithmetic, through binomial weights."""
    n = len(values)
    return _exact_weighted_mean(
        values, (math.comb(n - i if reverse else i - 1, order) for i in range(1, n + 1)),
        math.comb(n - 1, order))


def exact_order_weighted_mean(values, order: int, reverse: bool) -> float:
    return float(exact_order_weighted_fraction(values, order, reverse))


def exact_plugin_mean(values, r: int, s: int, conv: str) -> float:
    """(1/n) sum x_(i) u_i^r (1-u_i)^s for integer r, s in exact rational arithmetic (values
    may be Fractions of x^p, see _exact_weighted_mean): 2 u_i is
    (2i - 1)/n (hazen), 2i/n (naive) or 2i/(n + 1) (mean-rank)."""
    n = len(values)
    d = n + 1 if conv == "mean-rank" else n
    shift = 1 if conv == "hazen" else 0
    return float(_exact_weighted_mean(
        values, ((2 * i - shift) ** r * (2 * d - 2 * i + shift) ** s for i in range(1, n + 1)),
        (2 * d) ** (r + s)))


def run_ends(x: np.ndarray) -> np.ndarray:
    """For sorted x, the count of values <= x_i at each i: searchsorted(x, x, "right")."""
    ends = np.append(np.flatnonzero(np.diff(x)) + 1, x.shape[0])
    return ends if ends.shape[0] == x.shape[0] else np.repeat(ends, np.diff(ends, prepend=0))


def full_ge(x, w, phi, conv) -> float:
    """The residual entropy from length-n arrays: suffix sums of phi gathered at run ends."""
    n = x.shape[0]
    wv = w.at_probability(full_positions(n, conv))
    ph = phi(x)
    right = run_ends(x)  # for each i, the first rank whose value exceeds x_(i)
    cnt = n - right
    suffix = np.concatenate([np.cumsum(ph[::-1])[::-1], [0.0]])
    avg_above = np.divide(suffix[right], cnt, out=np.zeros(n), where=cnt > 0)
    term = np.where(cnt > 0, avg_above - ph, 0.0)
    return float(np.mean(wv * term))


def full_gce(x, w, phi, conv) -> float:
    """The cumulative entropy from length-n arrays: prefix sums of phi gathered at run ends."""
    n = x.shape[0]
    wv = w.at_probability(full_positions(n, conv))
    ph = phi(x)
    cnt = run_ends(x)  # includes self and all ties
    prefix = np.concatenate([[0.0], np.cumsum(ph)])
    term = ph - prefix[cnt] / cnt
    return float(np.mean(wv * term))


def _exact_runs(x, w, phi, conv):
    """Per tie run of sorted x: its start and end, the sum of w(u) over it, phi on it, and
    phi's sum below it, all as Fractions of the doubles w(u) and phi(x); and phi's total."""
    n = x.shape[0]
    wv = [Fraction(float(v)) for v in w.at_probability(full_positions(n, conv))]
    ph = [Fraction(float(v)) for v in phi(x)]
    runs, below, start = [], Fraction(0), 0
    for end in np.append(np.flatnonzero(np.diff(x)) + 1, n).tolist():
        runs.append((start, end, sum(wv[start:end]), ph[start], below))
        below += (end - start) * ph[start]
        start = end
    return runs, below


def exact_ge(x, w, phi, conv) -> float:
    """The residual entropy run by run: each run's term in rational arithmetic, added by fsum."""
    runs, total = _exact_runs(x, w, phi, conv)
    n = x.shape[0]
    return math.fsum(float(run_w * ((total - below - (end - start) * p) / (n - end) - p))
                     for start, end, run_w, p, below in runs if end < n) / n


def exact_gce(x, w, phi, conv) -> float:
    """The cumulative entropy run by run: each run's term in rational arithmetic, added by fsum."""
    runs, _ = _exact_runs(x, w, phi, conv)
    return math.fsum(float(run_w * (p - (below + (end - start) * p) / end))
                     for start, end, run_w, p, below in runs) / x.shape[0]
