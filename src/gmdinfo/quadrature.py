"""Adaptive quadrature engine, numpy only.

Two public entry points take scalar integrands:

``integrate_u``
    integrals over the unit probability interval, used for every
    quantile-domain representation ``int_0^1 Q(u)^p u^r (1-u)^s du``;
``integrate_x``
    integrals over (a segment of) the support, used for the defining
    survival/distribution-function forms ``int g(F(x), x) dx``.

The library's own integrands are array-valued and go through
``quad_u``/``quad_x``, the same two entry points without the scalar
mapping.  Both run one core, QUADPACK's QAGS (Piessens et al. 1983):
adaptive G10K21 Gauss-Kronrod quadrature, with bisection of the interval
of largest error and Wynn's epsilon algorithm extrapolating the sums when
the error gathers at an endpoint, which recovers algebraic endpoint
singularities such as the Pareto quantile blow-up at u = 1.  An interval
[a, inf) is mapped onto (0, 1] by x = a + c (1 - t)/t with c = max(a, 1),
so a piece that starts far out is integrated in its own units; QUADPACK's
QAGI has c = 1 and the 15-point rule G7K15.  Each bisection evaluates the
integrand once, as one array call on the nodes of both halves.

Each integral runs once, with ``tol`` as both QUADPACK's absolute and
relative request.  Its value is returned on success, or when QUADPACK
reports trouble (as at requests near double precision) but its error
estimate is within 100x of the request; otherwise
:class:`NoConvergenceError` gives that run's estimate and evaluation count.

Endpoints of (0,1) are never evaluated by the Kronrod nodes; a clamp at
1e-12 additionally keeps the integrand's argument away from 0 and 1 as a
safety net, and a warning is emitted if that clamp is ever hit where the
integrand is large (the one situation where the clamp could bias the
result).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError, NoConvergenceError, NonFiniteError

__all__ = [
    "QuadratureConfig",
    "ClippedTailWarning",
    "integrate_u",
    "integrate_x",
]


class ClippedTailWarning(RuntimeWarning):
    """The endpoint clamp was active where the integrand is large."""


@dataclass(frozen=True)
class QuadratureConfig:
    """The requested error of each integral.

    Parameters
    ----------
    tol : float
        QUADPACK's epsabs and epsrel both: each integral's error estimate
        must be at most max(tol, tol * |value|), or 100 times that if
        QUADPACK reports trouble.  Finite and positive.
    """

    tol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise NonFiniteError(f"quadrature tolerance must be finite, got {self.tol}")
        if not self.tol > 0:
            raise BadParameterError("quadrature tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# the core: QUADPACK's dqagse, with its dqk21, dqpsrt and dqelg


_FINFO = np.finfo(float)
_EPMACH, _UFLOW, _OFLOW = float(_FINFO.eps), float(_FINFO.tiny), float(_FINFO.max)


# G10K21 on [-1, 1]: the Kronrod nodes in [0, 1), outermost first, their
# weights, and the Gauss weight of each (0 off the Gauss nodes, which are
# every other Kronrod node from the second on)
_XK = [0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0]
_WK = [0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169]
_WG = [0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
       0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0]
_NODES = np.concatenate([-np.array(_XK[:-1]), _XK[::-1]])  # every node once, in order
_ORDER = [*range(1, 10, 2), *range(0, 10, 2)]  # dqk21 sums the Gauss pairs first


def _kronrod(f, lefts, rights) -> list:
    """G10K21 on each interval, in one call of f: [(result, abserr, resabs, resasc), ...].

    The nodes go to f as one array, in order along each interval and the
    intervals in the order given.  The sums run in QUADPACK's order, so
    they round as its do.  QUADPACK's error estimate: the Kronrod-Gauss
    difference, scaled by resasc (the integral of |f - mean|) and floored
    at 50 eps times resabs (the integral of |f|).
    """
    wk, wg, n, m = _WK, _WG, _NODES.size, _NODES.size // 2
    halves = [0.5 * (b - a) for a, b in zip(lefts, rights)]
    ch = np.array([[0.5 * (a + b) for a, b in zip(lefts, rights)], halves])
    fv = f((ch[0][:, None] + ch[1][:, None] * _NODES).ravel()).tolist()
    out = []
    for row, h in zip((fv[j:j + n] for j in range(0, len(fv), n)), halves):
        fc = row[m]
        resk, resg = wk[m] * fc, wg[m] * fc
        resabs = abs(resk)
        for i in _ORDER:  # node i is -_XK[i], node n-1-i is +_XK[i]
            f1, f2 = row[i], row[n - 1 - i]
            resk += wk[i] * (f1 + f2)
            resg += wg[i] * (f1 + f2)
            resabs += wk[i] * (abs(f1) + abs(f2))
        reskh = resk * 0.5
        resasc = wk[m] * abs(fc - reskh)
        for i in range(m):
            resasc += wk[i] * (abs(row[i] - reskh) + abs(row[n - 1 - i] - reskh))
        resabs, resasc, abserr = resabs * abs(h), resasc * abs(h), abs((resk - resg) * h)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max(50.0 * _EPMACH * resabs, abserr)
        out.append((resk * h, abserr, resabs, resasc))
    return out


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """Keep ``iord`` in descending order of error; returns (maxerr, errmax, nrmax).

    Positions (nrmax, i, k, ...) count from 1 as in QUADPACK; ``iord``
    holds 0-based interval indices, the newest being ``last - 1``.  Only
    as many positions are kept in order as bisections remain.
    """
    if last <= 2:
        iord[:2] = [0, 1]
        return iord[nrmax - 1], elist[iord[nrmax - 1]], nrmax
    errmax, errmin = elist[maxerr], elist[last - 1]
    for _ in range(nrmax - 1):  # the bisected interval's error grew: move it up
        isucc = iord[nrmax - 2]
        if errmax <= elist[isucc]:
            break
        iord[nrmax - 1] = isucc
        nrmax -= 1
    jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down ...
        isucc = iord[i - 1]
        if errmax >= elist[isucc]:
            iord[i - 2] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):  # ... and errmin bottom-up
                isucc = iord[k - 1]
                if errmin < elist[isucc]:
                    break
                iord[k] = isucc
                k -= 1
            else:
                k = i - 1
            iord[k] = last - 1
            break
        iord[i - 2] = isucc
    else:
        iord[jbnd - 1], iord[jupbn - 1] = maxerr, last - 1
    return iord[nrmax - 1], elist[iord[nrmax - 1]], nrmax


_LIMEXP = 50  # the epsilon table keeps at most this many sums


def _qelg(n: int, epstab, res3la, nres: int):
    """Wynn's epsilon algorithm on the n sums in ``epstab``: (n, result, abserr, nres).

    Returns the table's new length, the extrapolated limit and its error,
    and the number of calls so far; ``epstab`` and ``res3la`` (the last
    three results) change in place.
    """
    nres += 1
    abserr, result = _OFLOW, epstab[n - 1]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 1] = epstab[n - 1]
    newelm = (n - 1) // 2
    epstab[n - 1] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        e0, e1, e2 = epstab[k1 - 3], epstab[k1 - 2], epstab[k1 + 1]
        delta2, delta3 = e2 - e1, e1 - e0
        err2, err3 = abs(delta2), abs(delta3)
        tol2, tol3 = max(abs(e2), abs(e1)) * _EPMACH, max(abs(e1), abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:  # converged to machine accuracy
            return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
        e3, epstab[k1 - 1] = epstab[k1 - 1], e1
        delta1 = e1 - e3
        if abs(delta1) <= max(abs(e1), abs(e3)) * _EPMACH or err2 <= tol2 or err3 <= tol3:
            n = 2 * i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if abs(ss * e1) <= 1e-4:  # irregular behaviour: drop the table's tail
            n = 2 * i - 1
            break
        res = epstab[k1 - 1] = e1 + 1.0 / ss
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    for ib in range(1 if num % 2 else 2, 2 * newelm + 3, 2):  # shift the table
        epstab[ib - 1] = epstab[ib + 1]
    epstab[:n] = epstab[num - n:num]
    if nres < 4:
        res3la[nres - 1], abserr = result, _OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[:] = res3la[1:] + [result]
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qags(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's QAGS on [a, b]: (result, abserr, neval, ier).

    ier is 0 on success, else QUADPACK's code:
    1 subdivision limit, 2 roundoff, 3 bad integrand behaviour,
    4 extrapolation roundoff, 5 probably divergent.
    """
    size = _NODES.size
    [(result, abserr, defabs, resasc)] = _kronrod(f, [a], [b])
    errbnd = max(epsabs, epsrel * abs(result))
    ier = 2 if errbnd < abserr <= 100.0 * _EPMACH * defabs else 0
    if ier or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr, size, ier
    ksgn = 1 if abs(result) >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    alist, blist, rlist, elist, iord = [a], [b], [result], [abserr], [0] * limit
    rlist2, res3la = [result] + [0.0] * (_LIMEXP + 1), [0.0, 0.0, 0.0]
    errmax, maxerr, area, errsum, abserr = abserr, 0, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, ierro = 1, 0, 2, 0, 0
    iroff = [0, 0, 0]  # roundoff counts: before extrapolation, during it, error growth
    extrap = noext = summed = False  # summed: the result is the plain sum of the pieces
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast, width = errmax, abs(b1 - a1)
        (area1, error1, _, defab1), (area2, error2, _, defab2) = _kronrod(
            f, [a1, a2], [b1, b2])
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff[extrap] += 1
            if last > 10 and erro12 > errmax:
                iroff[2] += 1
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff[0] + iroff[1] >= 10 or iroff[2] >= 20:
            ier = 2
        if iroff[1] >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:  # the half with the larger error keeps the slot maxerr
            (a1, b1, area1, error1), (a2, b2, area2, error2) = (
                (a2, b2, area2, error2), (a1, b1, area1, error1))
        alist[maxerr], blist[maxerr], rlist[maxerr], elist[maxerr] = a1, b1, area1, error1
        for lst, value in ((alist, a2), (blist, b2), (rlist, area2), (elist, error2)):
            lst.append(value)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[1] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg -= erlast
        if width > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest intervals hold the largest errors: first bisect
            # the larger ones whose errors come next
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax - 1]
                errmax = elist[maxerr]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        noext = noext or numrl2 == 1
        if ier == 5:
            break
        maxerr, nrmax, extrap = iord[0], 1, False
        errmax, small, erlarg = elist[maxerr], small * 0.5, errsum

    # QUADPACK's choice between the extrapolated and the summed result
    neval, divergence_test = size * (2 * last - 1), True
    if not summed and abserr != _OFLOW and (ier or ierro):
        if ierro == 3:
            abserr += correc
        ier = ier or 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
            divergence_test = summed or area != 0.0
    if summed or abserr == _OFLOW:
        result = 0.0
        for value in rlist:
            result += value
        abserr = errsum
    elif divergence_test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        if area == 0.0 or not 0.01 <= result / area <= 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, neval, ier - (ier > 2)


_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behavior occurs at some points of the interval",
    4: "roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}

# When the core reports trouble (typically roundoff in the extrapolation
# table: the request is below what floating point permits), its value is
# still its best estimate; accept it within this factor of the request.
_ROUNDOFF_SLACK = 100.0
_U_CLIP = 1e-12  # integrands on (0,1) are never called closer than this to 0 or 1
_MAX_SUBDIVISIONS = 200  # QUADPACK's limit: bisections per integral


def _quad(f, a: float, b: float, cfg: QuadratureConfig) -> float:
    """Integral of the array-valued f over [a, b], b finite or inf."""
    if b == math.inf:  # x = a + c (1 - t)/t on (0, 1], in units of c
        c = max(a, 1.0)
        g, lo, hi = (lambda t: f(a + c * (1.0 - t) / t) * c / t / t), 0.0, 1.0
    else:
        g, lo, hi = f, a, b
    tol = cfg.tol
    value, abserr, neval, ier = _qags(g, lo, hi, tol, tol, _MAX_SUBDIVISIONS)
    if ier == 0 or abserr <= _ROUNDOFF_SLACK * max(tol, tol * abs(value)):
        return value
    reason = _MESSAGES[ier].format(limit=_MAX_SUBDIVISIONS)
    raise NoConvergenceError(
        f"quadrature on [{a}, {b}] did not converge: {reason} "
        f"(error estimate {abserr:.3g} after {neval} evaluations)"
    )


def quad_u(f, cfg: QuadratureConfig = DEFAULT_CONFIG,
           lo: float = 0.0, hi: float = 1.0) -> float:
    """:func:`integrate_u` for an array-valued ``f`` (one call per node array)."""
    eps = _U_CLIP
    # |f| at the clamp at or beyond 1/eps means a local power singularity
    # u^-c with c >= 1, i.e. a divergent integral; integrable singularities
    # (c < 1) stay strictly below this and extrapolation recovers them.
    divergence_level = 1.0 / eps
    clip_hit = False

    def g(u):
        nonlocal clip_hit
        # _kronrod lists the nodes in order across adjacent intervals, so
        # the first and last are the extremes
        if eps <= u[0] <= 1.0 - eps and eps <= u[-1] <= 1.0 - eps:
            return f(u)
        outside = (u < eps) | (u > 1.0 - eps)
        v = f(np.clip(u, eps, 1.0 - eps))
        clip_hit = clip_hit or bool((np.abs(v[outside]) >= divergence_level).any())
        return v

    value = _quad(g, lo, hi, cfg)
    if clip_hit:
        warnings.warn(
            "integrand clamped near an endpoint of (0,1) where it is large; "
            "the result may be missing tail mass beyond the clamp",
            ClippedTailWarning,
            stacklevel=2,
        )
    return value


def quad_x(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
           breakpoints=()) -> float:
    """:func:`integrate_x` for an array-valued ``f`` (one call per node array)."""
    if not np.isfinite(a):
        raise BadParameterError("lower integration limit must be finite")
    pts = [p for p in sorted(set(float(p) for p in breakpoints)) if a < p < b]
    edges = [a] + pts + [b]
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        total += _quad(f, left, right, cfg)
    return total


def _elementwise(f):
    """The array integrand that calls the scalar integrand ``f`` at each node."""
    return lambda x: np.array([f(v) for v in x.tolist()], dtype=float)


def integrate_u(f, cfg: QuadratureConfig = DEFAULT_CONFIG,
                lo: float = 0.0, hi: float = 1.0) -> float:
    """Integrate the scalar function ``f`` over ``(lo, hi)`` inside the unit interval.

    ``f`` is evaluated only at clamped arguments in
    ``[1e-12, 1 - 1e-12]``, so quantile integrands that diverge at the
    endpoints stay finite.  Gauss-Kronrod extrapolation recovers the
    true endpoint-singular integral; if the clamp itself is ever active
    where ``|f|`` is large, a :class:`ClippedTailWarning` is emitted.
    """
    return quad_u(_elementwise(f), cfg, lo, hi)


def integrate_x(f, a: float, b: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG,
                breakpoints=()) -> float:
    """Integrate the scalar function ``f`` from ``a`` to ``b`` (``b`` may be ``inf``).

    ``breakpoints`` are interior points where the integrand is known to
    be non-smooth (e.g. the lower support endpoint, below which survival
    functions are identically 1); the interval is split there so each
    piece is integrated as a smooth whole.
    """
    return quad_x(_elementwise(f), a, b, cfg, breakpoints)
