"""Adaptive quadrature engine, numpy only.

Two public entry points take scalar integrands: ``integrate_u`` over the
unit probability interval, and ``integrate_x`` over (a segment of) the
support.  The library's own integrands are array-valued and are taken in
the model's units by the evaluators in ``population``: its quantile
integrals by ``_QDomain`` and its x-domain integrals by ``_XDomain``, each
half or piece through ``_quad``, graded toward a finite end by ``_graded``
and mapped toward an infinite one in the model's hazard variable by the
evaluators themselves.
All of them run one core, QUADPACK's QAGS (Piessens et al. 1983):
adaptive G10K21 Gauss-Kronrod quadrature on a finite interval, bisecting
the interval of largest error next, with Wynn's epsilon algorithm
extrapolating the sums when the error gathers at an endpoint.  All its
intervals stay in one list in order of error, where QUADPACK's dqpsrt
keeps fewer in order past 102 bisections.  ``integrate_x`` alone maps
[a, inf) onto (0, 1], by x = a + c (1 - t)/t with c = max(a, 1), as
QUADPACK's QAGI does with c = 1 and G7K15.  Each bisection evaluates the
integrand once, as one array call on the nodes of both halves, and the
rule's four sums are written out in dqk21's order, so they round as
QUADPACK's do.

Each integral runs once, with ``tol`` as QUADPACK's relative request and
tol times the value's unit as its absolute one (1 for the public entry
points).  Its value is returned on success, or when QUADPACK reports
trouble (as at requests near double precision) but its error estimate is
within 100x of the request; otherwise :class:`NoConvergenceError` gives
that run's estimate, in the value's units, and its evaluation count.

The Kronrod nodes never fall on an endpoint of an interval.  For the scalar
integrands of ``integrate_u`` alone, a clamp at 1e-12 keeps the argument
away from 0 and 1 as a safety net, with a warning if it is ever hit where
the integrand is large; the library's graded integrands need none.
"""

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError, NoConvergenceError, NonFiniteError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
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
        QUADPACK's epsrel, and its epsabs in the value's units U (1 for
        integrate_u/integrate_x): each error estimate must be at most
        max(tol * U, tol * |value|), or 100 times that if QUADPACK reports
        trouble.  Finite and positive.
    """

    tol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise NonFiniteError(f"quadrature tolerance must be finite, got {self.tol}")
        if not self.tol > 0:
            raise BadParameterError("quadrature tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# the core: QUADPACK's dqagse, with its dqk21 and dqelg, and its intervals in error order


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
_UNIT_NODES = 0.5 + 0.5 * _NODES  # on [0, 1], the first interval of every run in w
_UNIT_NODES.flags.writeable = False


def _kronrod(f, lefts, rights) -> list:
    """G10K21 on each interval, in one call of f: [(result, abserr, resabs, resasc), ...].

    The nodes go to f as one array: c + h*_NODES for each interval of centre c
    and half-width h, joined in the order given where there are two.  The four
    sums are written out in dqk21's order (the centre, the Gauss pairs, then
    the other pairs, each left to right), so they round as QUADPACK's do.  resg
    leaves out the terms whose Gauss weight is 0: that changes at most the sign
    of a zero under abs, and where one of those values is not finite, resasc is
    NaN and sets abserr either way.  QUADPACK's error estimate: the
    Kronrod-Gauss difference, scaled by resasc (the integral of |f - mean|),
    floored at 50 eps times resabs (the integral of |f|).
    """
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, kc = _WK
    _, g1, _, g3, _, g5, _, g7, _, g9, _ = _WG
    halves = [0.5 * (b - a) for a, b in zip(lefts, rights)]
    nodes = [_UNIT_NODES if (a, b) == (0.0, 1.0) else 0.5 * (a + b) + h * _NODES
             for a, b, h in zip(lefts, rights, halves)]
    fv = f(nodes[0] if len(nodes) == 1 else np.concatenate(nodes)).tolist()
    out = []
    for j, h in enumerate(halves):
        # l<i> is f at -_XK[i], r<i> at +_XK[i], fc at the centre
        (l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, fc,
         r9, r8, r7, r6, r5, r4, r3, r2, r1, r0) = fv[21 * j:21 * j + 21]
        s0, s1, s2, s3, s4 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4
        s5, s6, s7, s8, s9 = l5 + r5, l6 + r6, l7 + r7, l8 + r8, l9 + r9
        resk = (kc * fc + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9
                + k0 * s0 + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8)
        resg = g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
        resabs = (kc * abs(fc) + k1 * (abs(l1) + abs(r1)) + k3 * (abs(l3) + abs(r3))
                  + k5 * (abs(l5) + abs(r5)) + k7 * (abs(l7) + abs(r7))
                  + k9 * (abs(l9) + abs(r9)) + k0 * (abs(l0) + abs(r0))
                  + k2 * (abs(l2) + abs(r2)) + k4 * (abs(l4) + abs(r4))
                  + k6 * (abs(l6) + abs(r6)) + k8 * (abs(l8) + abs(r8)))
        mean = resk * 0.5
        resasc = (kc * abs(fc - mean)
                  + k0 * (abs(l0 - mean) + abs(r0 - mean)) + k1 * (abs(l1 - mean) + abs(r1 - mean))
                  + k2 * (abs(l2 - mean) + abs(r2 - mean)) + k3 * (abs(l3 - mean) + abs(r3 - mean))
                  + k4 * (abs(l4 - mean) + abs(r4 - mean)) + k5 * (abs(l5 - mean) + abs(r5 - mean))
                  + k6 * (abs(l6 - mean) + abs(r6 - mean)) + k7 * (abs(l7 - mean) + abs(r7 - mean))
                  + k8 * (abs(l8 - mean) + abs(r8 - mean)) + k9 * (abs(l9 - mean) + abs(r9 - mean)))
        resabs, resasc, abserr = resabs * abs(h), resasc * abs(h), abs((resk - resg) * h)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max(50.0 * _EPMACH * resabs, abserr)
        out.append((resk * h, abserr, resabs, resasc))
    return out


_LIMEXP = 50  # the epsilon table keeps at most this many sums
_MAX_SUBDIVISIONS = 200  # QUADPACK's limit: bisections per integral


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


def _qags(f, a: float, b: float, epsabs: float, epsrel: float):
    """QUADPACK's QAGS on [a, b]: (result, abserr, neval, ier).

    ier is 0 on success, else QUADPACK's code:
    1 subdivision limit, 2 roundoff, 3 bad integrand behaviour,
    4 extrapolation roundoff, 5 probably divergent.
    """
    [(result, abserr, defabs, resasc)] = _kronrod(f, [a], [b])
    errbnd = max(epsabs, epsrel * abs(result))
    ier = 2 if errbnd < abserr <= 100.0 * _EPMACH * defabs else 0
    if ier or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr, _NODES.size, ier
    ksgn = 1 if abs(result) >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    # iord: every interval's slot, in descending order of error
    alist, blist, rlist, elist, iord = [a], [b], [result], [abserr], [0]
    key = lambda i: -elist[i]
    rlist2, res3la = [result] + [0.0] * (_LIMEXP + 1), [0.0, 0.0, 0.0]
    errmax, maxerr, area, errsum, abserr = abserr, 0, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, ierro = 1, 0, 2, 0, 0
    iroff = [0, 0, 0]  # roundoff counts: before extrapolation, during it, error growth
    extrap = noext = summed = False  # summed: the result is the plain sum of the pieces
    small = erlarg = ertest = correc = 0.0
    for last in range(2, _MAX_SUBDIVISIONS + 1):
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
        if last == _MAX_SUBDIVISIONS:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:  # the half with the larger error keeps the slot maxerr
            (a1, b1, area1, error1), (a2, b2, area2, error2) = (
                (a2, b2, area2, error2), (a1, b1, area1, error1))
        alist[maxerr], blist[maxerr], rlist[maxerr], elist[maxerr] = a1, b1, area1, error1
        for lst, value in ((alist, a2), (blist, b2), (rlist, area2), (elist, error2)):
            lst.append(value)
        # dqpsrt's order: maxerr keeps its place among equal errors, and last - 1
        # goes below it and above any other equal error
        del iord[nrmax - 1]
        moved = min(max(nrmax - 1, bisect.bisect_left(iord, -error1, key=key)),
                    bisect.bisect_right(iord, -error1, key=key))
        iord.insert(moved, maxerr)
        iord.insert(bisect.bisect_left(iord, -error2, moved + 1, key=key), last - 1)
        nrmax = min(nrmax, moved + 1)
        maxerr = iord[nrmax - 1]
        errmax = elist[maxerr]
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
            limit = _MAX_SUBDIVISIONS  # dqagse scans as many positions as bisections remain
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
    neval, divergence_test = _NODES.size * (2 * last - 1), True
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
    1: f"the maximum number of subdivisions ({_MAX_SUBDIVISIONS}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behavior occurs at some points of the interval",
    4: "roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}

# When the core reports trouble (typically roundoff in the extrapolation
# table: the request is below what floating point permits), its value is
# still its best estimate; accept it within this factor of the request.
_ROUNDOFF_SLACK = 100.0
_U_CLIP = 1e-12  # integrate_u never calls its f closer than this to 0 or 1


def _quad(f, a: float, b: float, cfg: QuadratureConfig, where: tuple = (), unit: float = 1.0,
          degree: float = 0.0, scale: float = 1.0) -> float:
    """Integral of the array-valued f over the finite [a, b], in units of unit^(degree + 1).

    QUADPACK's absolute request is tol times those units.
    A failure names the interval ``where`` = (lo, hi), or [a, b] if none
    is given, formatting it only then, and quotes the error estimate
    times ``scale``, the value's units per unit of the integral.
    """
    tol = cfg.tol
    try:
        epsabs = tol * unit ** (degree + 1.0)
    except OverflowError:  # so is the value; the caller's finiteness check says so
        epsabs = math.inf
    value, abserr, neval, ier = _qags(f, a, b, epsabs, tol)
    if ier == 0 or abserr <= _ROUNDOFF_SLACK * max(epsabs, tol * abs(value)):
        return value
    lo, hi = where or (a, b)
    raise NoConvergenceError(
        f"quadrature on [{lo}, {hi}] did not converge: {_MESSAGES[ier]} "
        f"(error estimate {abserr * scale:.3g} after {neval} evaluations)"
    )


def _graded(f, h: float, m: float):
    """The integrand in w on (0, 1] of int_0^h f(x) dx, with x = h w^m."""
    def g(w):
        wm1 = w ** (m - 1.0)
        return f(h * (wm1 * w)) * (h * m * wm1)
    return g


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
    eps, g = _U_CLIP, _elementwise(f)
    # |f| at the clamp at or beyond 1/eps means a local power singularity
    # u^-c with c >= 1, i.e. a divergent integral; integrable singularities
    # (c < 1) stay strictly below this and extrapolation recovers them.
    clip_hit = False

    def clamped(u):
        nonlocal clip_hit
        v = g(np.clip(u, eps, 1.0 - eps))
        outside = (u < eps) | (u > 1.0 - eps)
        clip_hit = clip_hit or bool((np.abs(v[outside]) >= 1.0 / eps).any())
        return v

    value = _quad(clamped, lo, hi, cfg)
    if clip_hit:
        warnings.warn(
            "integrand clamped near an endpoint of (0,1) where it is large; "
            "the result may be missing tail mass beyond the clamp",
            ClippedTailWarning,
            stacklevel=2,
        )
    return value


def integrate_x(f, a: float, b: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG,
                breakpoints=()) -> float:
    """Integrate the scalar function ``f`` from ``a`` to ``b`` (``b`` may be ``inf``).

    ``breakpoints`` are interior points where the integrand is known to
    be non-smooth (e.g. the lower support endpoint, below which survival
    functions are identically 1); the interval is split there so each
    piece is integrated as a smooth whole.  A last piece [p, inf) is
    mapped onto (0, 1] by x = p + c (1 - t)/t, in units of c = max(p, 1).
    """
    if not np.isfinite(a):
        raise BadParameterError("lower integration limit must be finite")
    pts = [p for p in sorted(set(float(p) for p in breakpoints)) if a < p < b]
    edges, g = [a] + pts + [b], _elementwise(f)
    total = sum(_quad(g, left, right, cfg) for left, right in zip(edges[:-2], edges[1:-1]))
    left = edges[-2]
    if b != math.inf:
        return total + _quad(g, left, b, cfg)
    c = max(left, 1.0)  # x = left + c (1 - t)/t on (0, 1], in units of c
    return total + _quad(lambda t: g(left + c * (1.0 - t) / t) * c / t / t, 0.0, 1.0, cfg, (left, b))
