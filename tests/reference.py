"""Certified reference values: probability weighted moments in closed form.

M_{p,r,s} = int_0^1 Q(u)^p u^r (1-u)^s du, evaluated with mpmath at 30
significant digits from each family's closed form, so no quadrature (the
library's or anyone's) is involved:

* Pareto(xi, sigma), Q(u) = sigma (1-u)^(-1/xi):
  M = sigma^p B(r+1, s+1-p/xi), for real r and s;
* Uniform(a, b), Q(u) = a + (b-a) u:
  M = sum_k C(p,k) a^(p-k) (b-a)^k B(r+k+1, s+1);
* Weibull(kappa, lam), Q(u) = lam (-log(1-u))^(1/kappa), with the
  exponential as kappa = 1: substituting y = -log(1-u) and expanding
  (1 - e^-y)^r for integer r,
  M = lam^p Gamma(1+p/kappa) sum_j C(r,j) (-1)^j / (s+1+j)^(1+p/kappa).
  For any other r, M = lam^p int_0^inf y^c (1 - e^-y)^r e^-(s+1)y dy,
  c = p/kappa, is taken by mpmath's tanh-sinh quadrature, on [0, 1] in
  t = y^(c+r+1), which absorbs the power y^(c+r) of the integrand at 0.

:func:`pwm_closed_form` evaluates the same closed forms in double
precision (the Beta function from ``math.lgamma``), for the sweeps that
need many of them; ``tests/test_reference.py`` checks it against
:func:`pwm_reference`.

A measure's reference value is its PWM form (the ``pwm`` entry of
``MEASURE_IDS``) evaluated on these moments, and its degree, the p of
M(cX) = c^p M(X), is read from the same form.
"""

import math

import mpmath

from gmdinfo import MEASURE_IDS, Exponential, Pareto, Uniform, Weibull

DIGITS = 30


def pwm_reference(model, p: int, r: float, s: float) -> mpmath.mpf:
    """M_{p,r,s} of ``model`` at DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        r, s = mpmath.mpf(r), mpmath.mpf(s)
        if isinstance(model, Pareto):
            tail = s + 1 - mpmath.mpf(p) / model.a
            return mpmath.mpf(model.sigma) ** p * mpmath.beta(r + 1, tail)
        if isinstance(model, Uniform):
            a, width = mpmath.mpf(model.a), mpmath.mpf(model.b) - mpmath.mpf(model.a)
            return mpmath.fsum(mpmath.binomial(p, k) * a ** (p - k) * width**k
                               * mpmath.beta(r + k + 1, s + 1) for k in range(p + 1))
        if isinstance(model, (Exponential, Weibull)):
            lam, kappa = _weibull(model)
            c = 1 + mpmath.mpf(p) / kappa
            if r == int(r):
                terms = (mpmath.binomial(int(r), j) * (-1) ** j / (s + 1 + j) ** c
                         for j in range(int(r) + 1))
                return mpmath.mpf(lam) ** p * mpmath.gamma(c) * mpmath.fsum(terms)
            k = 1 / (c + r)  # y = t^k on [0, 1]: y^(c-1) (1 - e^-y)^r dy = k ((1 - e^-y)/y)^r dt

            def head(t):
                y = t**k
                return k * (-mpmath.expm1(-y) / y) ** r * mpmath.exp(-(s + 1) * y)

            def tail(y):
                return y ** (c - 1) * (-mpmath.expm1(-y)) ** r * mpmath.exp(-(s + 1) * y)
            return mpmath.mpf(lam) ** p * (mpmath.quad(head, [0, 1])
                                           + mpmath.quad(tail, [1, 10, mpmath.inf]))
    raise TypeError(f"no closed form for {model!r}")


def _weibull(model):
    """(lam, kappa) of a Weibull, or of an exponential as kappa = 1."""
    return (model.mu, 1.0) if isinstance(model, Exponential) else (model.lam, model.kappa)


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def pwm_closed_form(model, p: int, r: float, s: float) -> float:
    """M_{p,r,s} of ``model`` in double precision, from the closed forms above.

    Every family but Weibull and the exponential takes any real r; those two need an
    integer r, whose alternating sum has r + 1 terms.
    """
    if isinstance(model, Pareto):
        return model.sigma**p * _beta(r + 1.0, s + 1.0 - p / model.a)
    if isinstance(model, Uniform):
        width = model.b - model.a
        return math.fsum(math.comb(p, k) * model.a ** (p - k) * width**k * _beta(r + k + 1.0, s + 1.0)
                         for k in range(p + 1))
    if isinstance(model, (Exponential, Weibull)):
        if r != int(r):
            raise ValueError("the double-precision Weibull closed form needs an integer r")
        lam, kappa = _weibull(model)
        c = 1.0 + p / kappa
        return lam**p * math.gamma(c) * math.fsum(
            math.comb(int(r), j) * (-1) ** j * (s + 1.0 + j) ** -c for j in range(int(r) + 1))
    raise TypeError(f"no closed form for {model!r}")


def measure_reference(model, spec) -> mpmath.mpf:
    """A measure's value through its PWM form on the reference moments."""
    entry = MEASURE_IDS[spec.id]
    with mpmath.workdps(DIGITS):
        return entry.pwm(lambda p, r, s: pwm_reference(model, p, r, s), *entry.args(spec))


#: the benchmark's parameters for every measure with a PWM form
PARAMS = {"gmd": {}, "s_gini": {"v": 2.0}, "crj": {}, "cj": {}, "ce": {}, "crjw": {},
          "wce": {}, "crt": {"alpha": 2.0}, "wcrt": {"alpha": 2.0}, "ct": {"alpha": 2.0},
          "wct": {"alpha": 2.0}, "sr": {"alpha": 2.0, "beta": 3.0},
          "sp": {"alpha": 2.0, "beta": 3.0}, "srw": {"alpha": 2.0, "beta": 3.0},
          "spw": {"alpha": 2.0, "beta": 3.0}, "risk_premium": {"k": 3},
          "gain_premium": {"k": 3}, "pwm": {"p": 1}}


def degree(spec) -> int:
    """The power of X in every moment of a measure's PWM form: M(cX) = c^p M(X)."""
    entry, powers = MEASURE_IDS[spec.id], set()
    entry.pwm(lambda p, r, s: powers.add(p) or 1.0, *entry.args(spec))
    (p,) = powers
    return p
