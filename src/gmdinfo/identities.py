"""Registry of the equalities connecting the measures, verified dual-route.

Each identity evaluates its two sides through independent code paths:
at population level one side integrates in the x-domain (touching only
the model's distribution/survival functions) while the other works in
the quantile domain (touching only Q), so a bug in either surface cannot
cancel.  A measure on a population side is computed by measure_population
on one route, so a failure names the measure, its parameters, the model
and the route.  No quadrature runs inside an integrand: the conditional means
inside ge/gce and inside I13's transform averages are integrated out by
hand (Fubini).  At sample level the two sides use different estimator
constructions (order-statistic weights vs step-ECDF integrals vs
double-loop means).  The PWM forms of a side, its covariances among them,
are read by ``measures._sample_values`` from one kernel walk; the
step-ECDF sides of I10 and I11 are a row-product walk of their own, ``_step_sums``.

Exactness classes:

* ``exact-sample`` — the sample sides are algebraically equal; verified
  at 1e-12.
* ``asymptotic`` — the sample sides converge to the same limit; a
  single-sample report uses a loose gate of max(5e-2, 4/n) relative,
  sized so that the O(1/n) gap between plug-in and U-statistic routes
  passes at any n, and the real check is residual shrinkage across n
  (see the test suite).  These identities presuppose continuously
  distributed data: a sample that is effectively discrete (heavy ties)
  can fail them at any size, and that failure is honest.
* ``population-only`` — no sample form is shipped (I13).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .empirical import (_BLOCK, Sample, _check_convention, _ranks, conditional_mean_above,
                        conditional_mean_below)
from .errors import BadParameterError, NoConvergenceError, NonFiniteError, NotApplicableError
from .measures import (
    MeasureSpec,
    PhiSelector,
    WeightSelector,
    _ge_values,
    _power_difference,
    _sample_values,
    _sorted_gmd,
    generalized_cumulative_entropy,
    gmd,
    gmd_left,
    gmd_right,
    gmd_via_pwm,
    h_dyn,
    j_dyn,
    pairwise_max_mean,
    pairwise_min_mean,
)
from .models import ParametricModel, _margin
from .pwm import _ROW, _STEP_ROWS_FROM, _STEP_TABLE, _coefficients, _row_moments
from .population import _QDomain, _XDomain, _measure_population, measure_population
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "Identity",
    "IdentityReport",
    "REGISTRY",
    "verify",
    "verify_all",
    "POPULATION_TOL",
    "EXACT_SAMPLE_TOL",
    "ASYMPTOTIC_SAMPLE_TOL",
]

POPULATION_TOL = 1e-8
EXACT_SAMPLE_TOL = 1e-12
ASYMPTOTIC_SAMPLE_TOL = 5e-2

#: _worst's relative tie margin: pairs equal in exact arithmetic, as I7's under naive or
#: I14's, spread by up to 1.2e-9 at n = 1e5, and by more as n grows
_WORST_MARGIN = 1e-6
#: _worst's rounding slack, relative to a pair's larger side: residuals at rounding level, as
#: I9's exact-sample 0, 2.2e-16 and 4.4e-16, tie however many times apart they are
_WORST_ROUNDING = 16 * np.finfo(float).eps

# single-sample relative gate for asymptotic identities grows as 1/n:
# the deterministic plug-in-vs-U-statistic gap is about 1.6/n, so a
# slope of 4 keeps honest 2.5x headroom at every n
_ASYMPTOTIC_SLOPE = 4.0

#: population truncation points, as quantile levels
_T_LEVELS = (0.4, 0.75)


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    level: str  # "population" | "sample" | "both"
    exactness: str
    # each returns its (lhs, rhs) pairs; verify reports the worst of them
    population_sides: Optional[Callable] = None  # (model, cfg) -> [(lhs, rhs), ...]
    sample_sides: Optional[Callable] = None  # (sample, conv) -> pairs, [] when inapplicable


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    description: str
    source: str
    level: str
    exactness: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool


# ---------------------------------------------------------------------------
# small shared helpers


def _m(model, cfg, spec: MeasureSpec, route: str = "quantile") -> float:
    return measure_population(model, spec, cfg, route=route)


def _route_pairs(*specs):
    """Population sides (direct route, quantile route) of each spec, in order.

    The quantile sides of one call share their PWM values, so each distinct
    moment is integrated once per call.
    """
    def sides(model, cfg):
        moments = {}
        return [(measure_population(model, spec, cfg, route="direct"),
                 _measure_population(model, spec, cfg, "quantile", moments))
                for spec in specs]
    return sides


def _worst(pairs, tol: float, floor: float):
    """The (lhs, rhs) pair worst against its own gate, max(tol max(|lhs|, |rhs|), floor).
    Of pairs that tie, on the same side of the gate, the first is given, so a change of the
    sides at rounding level keeps the pair: a pair ties when its residual, grown by
    _WORST_ROUNDING times its larger side, is within _WORST_MARGIN of the worst."""
    overs = []  # each pair's residual over its gate, without and with the rounding slack
    for lhs, rhs in pairs:
        big = max(abs(lhs), abs(rhs))
        res, gate = abs(lhs - rhs), max(tol * big, floor)
        overs.append((res / gate, (res + _WORST_ROUNDING * big) / gate) if gate > 0.0
                     else (math.inf,) * 2 if res else (0.0, 0.0))
    worst = max(over for over, _ in overs)
    return next(pair for pair, (over, tied) in zip(pairs, overs)
                if (over > 1.0) == (worst > 1.0) and tied * (1.0 + _WORST_MARGIN) >= worst)


def _cov(r: float, s: float) -> tuple:
    """The form of Cov(X, u^r (1-u)^s) = M(1,r,s) - M(1,0,0) M(0,r,s): E[X g] - E[X] E[g].
    Its p = 0 moment has no unbiased estimator, so the form takes the plug-in."""
    return (lambda M, r, s: M(1, r, s) - M(1, 0, 0) * M(0, r, s)), (r, s), f"cov({r:g}, {s:g})"


def _step_sums(values: np.ndarray, monomials=((1, 1), (1, 2), (2, 1))) -> list:
    """(sum dx_i g_i, sum 1/2 d(x^2)_i g_i) of each monomial g = F^a G^b, (a, b) in monomials,
    1 <= a, b and a + b <= 3, of F_i = i/n and G_i = (n - i)/n over the n-1 steps dx_i =
    x_(i+1) - x_(i) of the naive step ECDF of sorted values.  From _STEP_ROWS_FROM values up,
    each whole row of _ROW steps from step j reads them from _row_moments: there F = (j + t)/n
    and G = (n - j - t)/n are linear in s and sbar with coefficients >= 0 (_coefficients), so g
    is too in the s^i sbar^j of _STEP_TABLE.  Other steps go in blocks, g formed from the ranks."""
    n = values.shape[0]
    rows = (n - 1) // _ROW * _ROW if n >= _STEP_ROWS_FROM else 0  # the steps 1..rows
    sums = [[0.0, 0.0] for _ in monomials]
    if rows:  # (dx or d(x^2), column 3i + j, row)
        moments = np.stack(list(_row_moments(values, 1, 1 + rows, {1: _STEP_TABLE, 2: _STEP_TABLE},
                                             steps=True).values()))
        first = np.arange(1.0, 1.0 + rows, _ROW)
        F, G = ([_coefficients(base, 0.0, e, n, n) for e in range(3)]
                for base in (first, n + 1.0 - _ROW - first))
        for got, (a, b) in zip(sums, monomials):
            got[:] = np.add.reduce([f * g * moments[:, 3 * i + j] for i, f in enumerate(F[a])
                                    for j, g in enumerate(G[b])], axis=(0, 2)).tolist()
    for lo in range(rows // _BLOCK * _BLOCK, n, _BLOCK):
        start, hi = max(lo, rows + 1), min(lo + _BLOCK, n)  # step 1 lies between ranks 1 and 2
        xs = values[start - 1:hi]  # one value of overlap with the steps before
        dx, dx2 = np.diff(xs), np.diff(xs * xs)
        F, G = _ranks(start, hi - start) / n, _ranks(n - start, hi - start, down=True) / n
        GF = G * F
        for got, (a, b) in zip(sums, monomials):
            g = GF if a == b else GF * (G if b > a else F)
            got[:] = got[0] + float(np.dot(dx, g)), got[1] + float(np.dot(dx2, g))
    return [(dx, 0.5 * dx2) for dx, dx2 in sums]


def _family_pairs(s, conv, specs, orders):
    """I10/I11: per order (k, l), 1 <= k < l <= 3, int g(F_hat) dx and int x g(F_hat) dx (naive
    step ECDF) of its survival-side and distribution-side gaps g, over l - k, against its four
    measures.  The gaps are (1-F)^k - (1-F)^l = F sum_{k<=i<l} G^i, G = 1 - F, and F^k - F^l =
    G sum_{k<=i<l} F^i: each a sum of the step sums of F G, F G^2 and F^2 G, no difference."""
    values, steps = _sample_values(s.values, specs, conv), _step_sums(s.values)
    sides = [sum(steps[0 if i == 1 else m][x] for i in range(k, l)) / (l - k)
             for k, l in orders for x in (0, 1) for m in (1, 2)]  # surv, dist, surv_x, dist_x
    return [(side, value) for side, (value, _) in zip(sides, values)]


def _new_value(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[i] != x[i-1] for the ranks lo <= i < hi of a sorted x, 1 <= lo."""
    hi = min(hi, x.shape[0])
    return x[lo:hi] != x[lo - 1:hi - 1]


def _pick_t(sample: Sample, need_above: int = 0, need_below: int = 0):
    """A truncation point near the middle of the data meeting the counts.

    Of the midpoints between distinct values that qualify, the one whose
    index is closest to the center wins, the lower on ties; returns None
    when no point qualifies (e.g. all-equal samples for a strict upper
    tail).
    """
    x, n = sample.values, sample.n
    # run starts: the rank i of the first copy of each distinct value but
    # the smallest, which is also the count at or below the midpoint before
    # it.  They rise, so the qualifying ones, need_below <= i <= n -
    # need_above, are the j-th for j_lo <= j <= j_hi.  Both bounds and the
    # chosen start come from the starts counted per block of ranks 1..n-1
    before = np.cumsum([0] + [np.count_nonzero(_new_value(x, lo, lo + _BLOCK))
                              for lo in range(1, n, _BLOCK)])
    if before[-1] == 0:
        return float(x[0]) if need_above == 0 and n >= need_below else None

    def starts_below(k):
        k = min(max(k, 1), n)
        b = (k - 1) // _BLOCK
        return int(before[b]) + int(np.count_nonzero(_new_value(x, 1 + b * _BLOCK, k)))

    j_lo, j_hi = starts_below(need_below), starts_below(n - need_above + 1) - 1
    if j_lo > j_hi:
        return None
    j = min(max((int(before[-1]) - 1) // 2, j_lo), j_hi)  # closest to the center, the lower on ties
    b = int(np.searchsorted(before, j, "right")) - 1
    lo = 1 + b * _BLOCK
    i = lo + int(np.flatnonzero(_new_value(x, lo, lo + _BLOCK))[j - before[b]])
    return float(0.5 * (x[i - 1] + x[i]))


# each identity's fixed measures, read by its population and sample sides
_I7_GE = tuple(MeasureSpec("ge", w=WeightSelector("sf-power", j=1.0), phi=PhiSelector(c=2.0, v=v))
               for v in (1.0, 2.0))
_I8_GCE = MeasureSpec("gce", w=WeightSelector("cdf-power", j=1.0), phi=PhiSelector(c=2.0, v=1.0))
_GMD, _M110 = MeasureSpec("gmd"), MeasureSpec("pwm", p=1, r=1.0)
_EXTROPIES = (MeasureSpec("crj"), MeasureSpec("cj"))  # -a_1 and -b_1, from one kernel walk
_CRT2 = (MeasureSpec("crt", alpha=2.0),)
_I14_PWMS = {k: (MeasureSpec("pwm", p=1, r=k - 1.0), MeasureSpec("pwm", p=1, s=k - 1.0))
             for k in (2, 3)}  # k -> M_{1,k-1,0} and M_{1,0,k-1}


# ---------------------------------------------------------------------------
# identity sides


def _i1_sample(s, conv):
    return [(gmd(s), gmd_via_pwm(s))]


def _i2_pop(model, cfg):
    cov = _m(model, cfg, _M110) - 0.5 * model.mean()
    return [(_m(model, cfg, _GMD, "direct"), 4.0 * cov)]


def _i2_sample(s, conv):
    (cov, _), = _sample_values(s.values, [_cov(1.0, 0.0)], conv)
    return [(gmd(s), 4.0 * cov)]


def _i3_pop(model, cfg):
    return [(_m(model, cfg, _GMD, "direct"), 2.0 * _m(model, cfg, _CRT2[0]))]


def _i3_sample(s, conv):
    return [(gmd(s), 2.0 * _sample_values(s.values, _CRT2, conv)[0][0])]


def _i4_pop(model, cfg):
    crj, cj = (_m(model, cfg, spec, "direct") for spec in _EXTROPIES)
    return [(2.0 * crj - 2.0 * cj, _m(model, cfg, _GMD))]


def _i4_sample(s, conv):
    (crj_value, _), (cj_value, _) = _sample_values(s.values, _EXTROPIES, conv)
    return [(2.0 * crj_value - 2.0 * cj_value, gmd(s))]


def _truncated_pairs(mid: str):
    """I5/I6: mid's defining quantile form against its mean-life decomposition at each t point."""
    def sides(model, cfg):
        specs = [MeasureSpec(mid, t=float(model.quantile(p))) for p in _T_LEVELS]
        return [(_m(model, cfg, spec), _m(model, cfg, spec, "direct")) for spec in specs]
    return sides


def _i5_sample(s, conv):
    t = _pick_t(s, need_above=2)
    if t is None:
        return []
    return [(gmd_left(s, t), conditional_mean_above(s, t) + 2.0 * j_dyn(s, t))]


def _i6_sample(s, conv):
    t = _pick_t(s, need_below=2)
    if t is None:
        return []
    return [(gmd_right(s, t), 2.0 * h_dyn(s, t) + conditional_mean_below(s, t))]


def _range_moment_direct(model, v: float, cfg) -> float:
    """E(max(X1,X2)^v) - E(min(X1,X2)^v) purely from F and the survival; refused without E[X^v]."""
    return _XDomain(model, cfg)(lambda x, F, S: 2.0 * v * x ** (v - 1.0) * F * S, degree=v - 1.0)


def _i7_pop(model, cfg):
    return [(_m(model, cfg, spec), _range_moment_direct(model, spec.phi.v, cfg))
            for spec in _I7_GE]


def _i7_sample(s, conv):
    ges = _ge_values(s.values, _I7_GE[0].w, [spec.phi for spec in _I7_GE], conv)
    return [(ge, _sorted_gmd(s.values, spec.phi.v)) for ge, spec in zip(ges, _I7_GE)]


def _i8_pop(model, cfg):
    return [(_m(model, cfg, _I8_GCE), _m(model, cfg, _GMD, "direct"))]


def _i8_sample(s, conv):
    return [(generalized_cumulative_entropy(s, _I8_GCE.w, _I8_GCE.phi, conv), _sorted_gmd(s.values))]


def _i9_sample(s, conv):
    (crj_value, _), (cj_value, _) = _sample_values(s.values, _EXTROPIES, conv)
    return [(-0.5 * pairwise_min_mean(s.values), crj_value),
            (-0.5 * pairwise_max_mean(s.values), cj_value)]


def _i10_sample(s, conv):
    alphas = (2.0, 3.0)
    return _family_pairs(
        s, conv, [MeasureSpec(mid, alpha=a) for a in alphas for mid in ("crt", "ct", "wcrt", "wct")],
        [(1, int(a)) for a in alphas])


def _i11_sample(s, conv):
    orders = ((1.0, 2.0), (2.0, 3.0))
    return _family_pairs(
        s, conv, [MeasureSpec(mid, alpha=a, beta=b) for a, b in orders
                  for mid in ("sr", "sp", "srw", "spw")],
        [(int(a), int(b)) for a, b in orders])


def _i12_sample(s, conv):
    values = _sample_values(s.values, [form for v in (2.0, 3.0) for form in
                                       (_cov(0.0, v - 1.0), MeasureSpec("s_gini", v=v))], conv)
    return [(-cov, s_gini) for (cov, _), (s_gini, _) in zip(values[::2], values[1::2])]


def _i13_x_sides(model, cfg):
    """I13's x-domain sides, from F and the survival function alone.

    -1/2 E[m_Z(Z)] for Z = min(X1, X2) is int S^2 log S dx = -CRE(Z)/2;
    1/2 E[r_Z(Z)] for Z = max(X1, X2) is -int F^2 log F dx = CE(Z)/2, taken
    as int F^2 log1p(S/F) dx so that it does not cancel where F is near 1.
    0 log 0 and 0 log1p(S/0) are 0.  Both are refused where E[X] does not exist.
    """
    X = _XDomain(model, cfg)
    return (X(lambda x, F, S: S * S * np.log(np.where(S > 0.0, S, 1.0))),
            X(lambda x, F, S: F * F * np.log1p(S / np.where(F > 0.0, F, 1.0))))


def _i13_u_sides(model, cfg):
    """I13's quantile-domain sides, from Q alone.

    The (1-p)-weighted average of gmd_left - m and the p-weighted average
    of r - gmd_right at t = Q(p) reduce to int (1-u)(1 + 2 log(1-u)) Q(u) du
    and int u (1 + 2 log u) Q(u) du.
    """
    Q = _QDomain(model, cfg, {})
    return (Q(lambda u, v, q: v * (1.0 + 2.0 * np.log(v)) * q, margin=_margin(model, 1.0, 1.0)),
            Q(lambda u, v, q: u * (1.0 + 2.0 * np.log(u)) * q))


def _i13_pop(model, cfg):
    return list(zip(_i13_x_sides(model, cfg), _i13_u_sides(model, cfg)))


def _premia_direct(model, k: int, cfg) -> float:
    """E(max of k) - E(min of k) = int (1 - F^k) - S^k dx from F and S alone; needs E[X]."""
    return _XDomain(model, cfg)(lambda x, F, S: _power_difference(F, S, 0.0, k) - S**k)


def _i14_pop(model, cfg):
    return [(_premia_direct(model, k, cfg), k * (_m(model, cfg, upper) - _m(model, cfg, lower)))
            for k, (upper, lower) in _I14_PWMS.items()]


def _i14_sample(s, conv):
    ks = [k for k in (2, 3) if k <= s.n]
    values = [value for value, _ in _sample_values(s.values, [form for k in ks for form in (
        MeasureSpec("risk_premium", k=k), MeasureSpec("gain_premium", k=k),
        _cov(k - 1.0, 0.0), _cov(0.0, k - 1.0))], conv)]
    return [(risk + gain, k * (upper - lower))
            for k, risk, gain, upper, lower in zip(ks, *(values[j::4] for j in range(4)))]


REGISTRY = (
    Identity("I1", "gmd = 2*M{1,1,0} - 2*M{1,0,1}", "both", "exact-sample",
             _route_pairs(MeasureSpec("gmd")), _i1_sample),
    Identity("I2", "gmd = 4*Cov(X, F(X))", "both", "asymptotic",
             _i2_pop, _i2_sample),
    Identity("I3", "gmd = 2*crt(alpha=2)", "both", "exact-sample",
             _i3_pop, _i3_sample),
    Identity("I4", "2*crj - 2*cj = gmd", "both", "exact-sample",
             _i4_pop, _i4_sample),
    Identity("I5", "gmd_left(t) = m(t) + 2*j_dyn(t)", "both", "exact-sample",
             _truncated_pairs("gmd_left"), _i5_sample),
    Identity("I6", "gmd_right(t) = 2*h_dyn(t) + r(t)", "both", "exact-sample",
             _truncated_pairs("gmd_right"), _i6_sample),
    Identity("I7", "ge(Fbar, 2x^v) = E(max2^v) - E(min2^v), v in {1,2}", "both",
             "asymptotic", _i7_pop, _i7_sample),
    Identity("I8", "gce(F, 2x) = E(max2) - E(min2)", "both", "asymptotic",
             _i8_pop, _i8_sample),
    Identity("I9", "extropy family PWM forms (crj, cj, crjw, wce)", "both",
             "exact-sample", _route_pairs(*map(MeasureSpec, ("crj", "cj", "crjw", "wce"))),
             _i9_sample),
    Identity("I10", "Tsallis family PWM forms (crt, ct, wcrt, wct)", "both",
             "asymptotic", _route_pairs(*(MeasureSpec(mid, alpha=a) for a in (2.0, 3.0, 2.5)
                                          for mid in ("crt", "ct", "wcrt", "wct"))),
             _i10_sample),
    Identity("I11", "two-parameter family PWM forms (sr, sp, srw, spw)", "both",
             "asymptotic", _route_pairs(*(MeasureSpec(mid, alpha=a, beta=b)
                                          for a, b in ((1.0, 2.0), (2.0, 3.0), (1.5, 2.5))
                                          for mid in ("sr", "sp", "srw", "spw"))),
             _i11_sample),
    Identity("I12", "s_gini(v) = (1/v)*M{1,0,0} - M{1,0,v-1}", "both",
             "asymptotic", _route_pairs(*(MeasureSpec("s_gini", v=v) for v in (2.0, 3.0, 2.5))),
             _i12_sample),
    Identity("I13", "min/max-transform averages of the truncated gmd gaps",
             "population", "population-only", _i13_pop, None),
    Identity("I14", "gain(k) + risk(k) = k*Cov(X,F^{k-1}) - k*Cov(X,Fbar^{k-1})",
             "both", "asymptotic", _i14_pop, _i14_sample),
)


# ---------------------------------------------------------------------------
# verification driver


def _default_tolerance(identity: Identity, level: str, n: int = 0) -> float:
    if level == "population":
        return POPULATION_TOL
    if identity.exactness == "exact-sample":
        return EXACT_SAMPLE_TOL
    return max(ASYMPTOTIC_SAMPLE_TOL, _ASYMPTOTIC_SLOPE / n if n else 0.0)


def _model_scale(model: ParametricModel) -> float:
    """The model's mean, the unit of its gate's floor; NonFiniteError when it is not finite."""
    try:
        mean = float(model.mean())
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean):
        raise NonFiniteError(f"the mean of {model.describe()} is not finite")
    return mean


def verify(identity: Identity, source, cfg: QuadratureConfig = DEFAULT_CONFIG,
           conv: str = "hazen", tolerance: Optional[float] = None) -> IdentityReport:
    """Evaluate both sides of one identity on a model or sample.

    The report passes when |lhs - rhs| <= max(tol * max(|lhs|, |rhs|), floor):
    a relative gate with a floor in the source's units.  A model's floor is
    tol times its mean; a sample's is EXACT_SAMPLE_TOL times its largest
    value, a rounding floor that leaves the asymptotic gates relative.  Of
    several pairs, the report gives the one that is worst against its gate.
    Raises NotApplicableError when the identity has no form at the source's
    level (or the sample is too degenerate to truncate), and NonFiniteError,
    naming the identity, when any side or the model's mean is NaN or
    infinite; a NoConvergenceError also names the identity.  A given
    ``tolerance`` must be finite (NonFiniteError) and non-negative
    (BadParameterError), and ``conv`` one of ECDF_CONVENTIONS
    (BadParameterError), whatever the source.
    """
    _check_convention(conv)
    if tolerance is not None:
        if not math.isfinite(tolerance):
            raise NonFiniteError(f"identity tolerance must be finite, got {tolerance}")
        if tolerance < 0:
            raise BadParameterError(f"identity tolerance must be non-negative, got {tolerance}")
    if isinstance(source, Sample):
        if identity.sample_sides is None or identity.level == "population":
            raise NotApplicableError(f"{identity.id} has no sample-level form")
        sides, args = identity.sample_sides, (source, conv)
        level, label = "sample", source.digest()
    elif isinstance(source, ParametricModel):
        if identity.population_sides is None:
            raise NotApplicableError(f"{identity.id} has no population-level form")
        sides, args = identity.population_sides, (source, cfg)
        level, label = "population", source.describe()
    else:
        raise BadParameterError(
            f"source must be a Sample or ParametricModel, got {type(source).__name__}"
        )
    try:
        scale = float(source.values[-1]) if level == "sample" else _model_scale(source)
        pairs = [tuple(map(float, pair)) for pair in sides(*args)]
        bad = [pair for pair in pairs if not all(map(math.isfinite, pair))]
        if bad:
            raise NonFiniteError(f"non-finite side in {bad[0]}")
    except (NonFiniteError, NoConvergenceError) as exc:
        raise type(exc)(f"{identity.id}: {exc}") from exc
    if not pairs:
        raise NotApplicableError(f"{identity.id}: sample admits no usable truncation point")
    n = source.n if level == "sample" else 0
    tol = float(tolerance) if tolerance is not None else _default_tolerance(identity, level, n)
    floor = (EXACT_SAMPLE_TOL if level == "sample" else tol) * scale
    lhs, rhs = _worst(pairs, tol, floor)
    abs_res = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_res = abs_res / denom if denom > 0 else 0.0
    passed = abs_res <= max(tol * denom, floor)
    return IdentityReport(
        identity=identity.id,
        description=identity.description,
        source=label,
        level=level,
        exactness=identity.exactness,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        tolerance=tol,
        passed=passed,
    )


def _verify_each(source, cfg: QuadratureConfig, conv: str,
                 skip=(NonFiniteError, NoConvergenceError)):
    """verify over the registry: (the reports, an error per identity that raised one of skip)."""
    reports, failed = [], []
    for identity in REGISTRY:
        try:
            reports.append(verify(identity, source, cfg, conv))
        except NotApplicableError:
            continue
        except skip as exc:
            failed.append(exc)
    return reports, failed


def verify_all(source, cfg: QuadratureConfig = DEFAULT_CONFIG,
               conv: str = "hazen") -> list:
    """Run every identity applicable to the source, in registry order.

    An identity with a non-finite side is left out; :func:`verify` on it
    raises NonFiniteError naming it.  The first NoConvergenceError is raised.
    """
    return _verify_each(source, cfg, conv, skip=NonFiniteError)[0]
