"""The numpy quadrature core against QUADPACK itself, the two routes into
it, the error it raises, and the import path it keeps free of scipy.

scipy stays installed as a dependency, so these tests use
``scipy.integrate.quad`` and ``scipy.special.exprel`` as oracles; the
library itself imports neither.
"""

import json
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from gmdinfo import (
    BadParameterError,
    Exponential,
    MeasureSpec,
    NoConvergenceError,
    Pareto,
    QuadratureConfig,
    REGISTRY,
    integrate_u,
    integrate_x,
    measure_population,
    verify,
)
from gmdinfo import quadrature
from gmdinfo.measures import _exprel
from gmdinfo.quadrature import _MAX_SUBDIVISIONS, _quad

PARETO22 = Pareto(2.2)
BELOW_EPS = QuadratureConfig(tol=1e-17)  # no integral is certified this tightly in doubles

#: (name, scalar integrand, a, b, breakpoints)
BATTERY = [
    ("cubic", lambda u: 3.0 * u**2 - u + 0.5, 0.0, 1.0, ()),
    ("smooth", lambda u: math.exp(-u) * math.cos(3.0 * u), 0.0, 1.0, ()),
    ("u^-0.5", lambda u: u**-0.5, 0.0, 1.0, ()),
    ("log singular", lambda u: math.log(u) * math.log1p(-u), 0.0, 1.0, ()),
    ("pareto Q", lambda u: PARETO22.sigma * (1.0 - u) ** (-1.0 / PARETO22.a), 0.0, 1.0, ()),
    ("pareto Q^2 u", lambda u: (1.0 - u) ** (-2.0 / PARETO22.a) * u, 0.0, 1.0, ()),
    ("weibull Q u", lambda u: (-math.log1p(-u)) ** (1.0 / 0.7) * u, 0.0, 1.0, ()),
    ("exp", lambda x: math.exp(-x), 0.0, math.inf, ()),
    ("cauchy", lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, ()),
    ("pareto tail", lambda x: x * (1.0 - (1.0 - min(1.0, x**-2.2)) ** 2), 1.37, math.inf, ()),
    ("kink", lambda x: abs(x - 0.3), 0.0, 1.0, (0.3,)),
    ("step", lambda x: 1.0 if x < 1.0 else math.exp(-(x - 1.0)), 0.0, math.inf, (1.0,)),
]


def scipy_integral(f, a, b, cfg, breakpoints=()):
    """scipy.integrate.quad once per piece; None if any piece reports trouble, as the engine
    then raises."""
    pts = [p for p in sorted(breakpoints) if a < p < b]
    total = 0.0
    for left, right in zip([a] + pts, pts + [b]):
        out = integrate.quad(f, left, right, epsabs=cfg.tol, epsrel=cfg.tol,
                             limit=_MAX_SUBDIVISIONS, full_output=1)
        if len(out) > 3:  # the fourth output is scipy's message: QUADPACK's ier != 0
            return None
        total += out[0]
    return total


#: exact values of the infinite cases that converge
EXACT = {"exp": 1.0, "cauchy": math.pi / 2.0, "step": 2.0}


@pytest.mark.parametrize("tol", [None, 1e-13], ids=["default", "1e-13"])
@pytest.mark.parametrize("name, f, a, b, breakpoints", BATTERY, ids=[c[0] for c in BATTERY])
def test_core_matches_quadpack(name, f, a, b, breakpoints, tol):
    """The core against scipy's QUADPACK at rel 1e-12, and where it fails, failing too.

    On finite pieces both run QAGS with G10K21.  On [a, inf) scipy runs
    QAGI, G7K15 on x = a + (1 - t)/t, while the core runs G10K21 on
    x = a + max(a, 1)(1 - t)/t, so those cases compare two maps of one
    integral, and are also checked against their exact values.
    """
    cfg = QuadratureConfig() if tol is None else QuadratureConfig(tol=tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        want = scipy_integral(f, a, b, cfg, breakpoints)
    if a == 0.0 and b == 1.0 and not breakpoints:
        run = lambda: integrate_u(f, cfg)
    else:
        run = lambda: integrate_x(f, a, b, cfg, breakpoints=breakpoints)
    if want is None:  # QUADPACK fails too (the pareto tail's 1 - F^2 cancels)
        with pytest.raises(NoConvergenceError):
            run()
    else:
        got = run()
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        if b == math.inf:
            assert got == pytest.approx(EXACT[name], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [0.0, 1e-300, 1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_infinite_pieces_at_every_start(a):
    """[a, inf) is mapped in units of max(a, 1), so a start far from 1 loses nothing."""
    cases = [(lambda x: math.exp(-x), math.exp(-a)),
             (lambda x: 1.0 / (1.0 + x * x), math.atan2(1.0, a)),
             (lambda x: 1.0 / ((1.0 + x) * (1.0 + x)), 1.0 / (1.0 + a))]
    for f, want in cases:
        assert integrate_x(f, a, math.inf) == pytest.approx(want, rel=1e-10, abs=0.0)


def _kinks(count, d, off, root):
    """sum over k < count of |x - p_k|^e, e = 1/2 if root else 1, with p_k = (k + off)/d;
    and its integral over [0, 1], the sum of G(p_k) + G(1 - p_k), G(y) = sign(y) |y|^(e+1)/(e+1)."""
    ps, e = [(k + off) / d for k in range(count)], 0.5 if root else 1.0
    G = lambda y: math.copysign(abs(y) ** (e + 1.0) / (e + 1.0), y)
    power = np.sqrt if root else (lambda y: y)
    return (lambda x: sum(power(np.abs(x - p)) for p in ps)), sum(G(p) + G(1.0 - p) for p in ps)


@pytest.mark.parametrize("kinks, a, tol, want", [
    # the halves of the first bisection tie bit for bit
    (None, -1.0, 1e-10, (1.3333333333333315, 4.6629367034256575e-15, 483, 0)),
    # 183 bisections, past the 102 where QUADPACK's dqpsrt starts to keep fewer in order
    ((12, 12.37, 0.5, True), 0.0, 1e-10, (6.34983315825418, 5.68058489136547e-10, 7707, 0)),
    # dyadic kinks tie many errors: the bisected interval keeps its place among them,
    # neither first nor last
    ((13, 16.0, 0.5, False), 0.0, 1e-10, (4.0751953125, 4.5218820007852933e-14, 1155, 0)),
    ((16, 16.0, 0.5, False), 0.0, 1e-10, (5.328125, 5.910864245978198e-14, 1323, 0)),
    # at the subdivision limit: an error that grows moves up past nrmax; the new interval
    # goes above equal errors; the scan for larger intervals keeps dqagse's bound
    ((15, 12.37, 0.75, True), 0.0, 1e-10, (8.610018028141095, 1.081160050375729e-09, 8379, 1)),
    ((17, 64.0, 0.5, True), 0.0, 1e-10, (9.799299295928288, 9.104062849616112e-07, 8379, 1)),
    ((10, 12.37, 0.0, True), 0.0, 1e-12, (5.256483426764789, 1.3020340361435956e-10, 8379, 1)),
], ids=["sqrt|x|", "12 kinks", "13 dyadic", "16 dyadic", "15 kinks", "17 kinks", "10 kinks"])
def test_core_bisects_in_quadpacks_order(kinks, a, tol, want):
    """(value, abserr, neval, ier) of the core, as QUADPACK's dqagse with dqpsrt gives them.

    Only correctly rounded operations make these integrands, so the pins
    hold on every numpy.
    """
    f, exact = (lambda x: np.sqrt(np.abs(x))), 4.0 / 3.0
    if kinks:
        f, exact = _kinks(*kinks)
    assert quadrature._qags(f, a, 1.0, tol, tol) == want
    assert abs(want[0] - exact) <= want[1]


def _kronrod_loop(f, lefts, rights) -> list:
    """dqk21's sums as a loop over the node pairs: the oracle for the written-out _kronrod."""
    wk, wg, nodes = quadrature._WK, quadrature._WG, quadrature._NODES
    eps, uflow = quadrature._EPMACH, quadrature._UFLOW
    n, m = nodes.size, nodes.size // 2
    order = [*range(1, 10, 2), *range(0, 10, 2)]  # dqk21 sums the Gauss pairs first
    halves = [0.5 * (b - a) for a, b in zip(lefts, rights)]
    ch = np.array([[0.5 * (a + b) for a, b in zip(lefts, rights)], halves])
    fv = f((ch[0][:, None] + ch[1][:, None] * nodes).ravel()).tolist()
    out = []
    for row, h in zip((fv[j:j + n] for j in range(0, len(fv), n)), halves):
        fc = row[m]
        resk, resg = wk[m] * fc, wg[m] * fc
        resabs = abs(resk)
        for i in order:  # node i is -_XK[i], node n-1-i is +_XK[i]
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
        if resabs > uflow / (50.0 * eps):
            abserr = max(50.0 * eps * resabs, abserr)
        out.append((resk * h, abserr, resabs, resasc))
    return out


def _kronrod_battery():
    """(f, lefts, rights): seeded node values on one or two intervals, with sign changes,
    exact zeros of both signs, constant and odd rows, and smooth and singular functions;
    then [0, 1], and intervals far from 0 and narrow, where the nodes c + h*_NODES round."""
    rng = np.random.default_rng(2024)
    smooth = [lambda x: np.exp(-x) * np.cos(7.0 * x), lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-9),
              lambda x: np.sign(x - 0.3) * x * x]
    cases = []
    for k in range(120):
        count = 1 + k % 2
        lefts = sorted(rng.uniform(-5.0, 5.0, count).tolist())
        rights = [a + w for a, w in zip(lefts, (10.0 ** rng.uniform(-9, 1, count)).tolist())]
        size = 21 * count
        kind = k // 2 % 6
        if kind == 0:  # sign changes over many magnitudes
            v = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
        elif kind == 1:  # exact zeros of both signs among values of both signs
            v = rng.standard_normal(size)
            v[rng.random(size) < 0.4] = 0.0
            v[rng.random(size) < 0.2] = -0.0
        elif kind == 2:  # a constant row, so resasc is 0, or all zeros
            v = np.full(size, float(rng.choice([0.0, -0.0, 1.0, -3.5, 1e-300])))
        elif kind == 3:  # odd about each centre: resk sums exact cancellations
            v = np.concatenate([np.concatenate([r, [0.0], -r[::-1]])
                                for r in rng.standard_normal((count, 10))])
        elif kind == 4:  # one sign
            v = np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-5, 5)
        else:  # wide enough that the Kronrod-Gauss difference sets abserr
            rights = [a + w for a, w in zip(lefts, rng.uniform(0.5, 4.0, count).tolist())]
            cases.append((smooth[k % 3], lefts, rights))
            continue
        cases.append((lambda x, v=v: v, lefts, rights))
    # [0, 1], whose nodes are built once; then far from 0 and narrow: centres of either
    # sign up to 1e300, widths down to 1e-300 of them
    cases += [(np.cos, [0.0], [1.0]), (np.cos, [-0.0, 0.5], [0.5, 1.0])]
    for centre in (1e300, -1e300, 3.7e150, -2.5e-3, 1.0, -1e-200):
        for rel in (1.0, 1e-8, 1e-16, 1e-300):
            width = abs(centre) * rel
            if width < 1e-300:
                continue
            lefts = [centre - width, centre]
            for f in (np.cos, lambda x, c=centre, w=width: np.tanh((x - c) / w)):
                cases.append((f, lefts[:1], [centre + width]))
                cases.append((f, lefts, [centre, centre + width]))
    return cases


def test_written_out_sums_equal_the_loop():
    """_kronrod returns exactly what the loop over dqk21's order returns, zeros' signs too."""
    for k, (f, lefts, rights) in enumerate(_kronrod_battery()):
        got, want = quadrature._kronrod(f, lefts, rights), _kronrod_loop(f, lefts, rights)
        assert got == want, k
        assert repr(got) == repr(want), k


#: (array integrand, the same in scalar arithmetic, a, b, breakpoints), built from
#: exactly rounded operations only: numpy's vector pow and log may differ from
#: the scalar ones in the last bit, which would hide what is compared here
ROUTES = [
    (lambda u: 1.0 / np.sqrt(u), lambda u: 1.0 / math.sqrt(u), 0.0, 1.0, ()),
    (lambda u: u * np.sqrt(1.0 - u) / (1.0 - u), lambda u: u * math.sqrt(1.0 - u) / (1.0 - u),
     0.0, 1.0, ()),
    (lambda u: (3.0 * u - 1.0) * u, lambda u: (3.0 * u - 1.0) * u, 0.25, 0.75, ()),
    (lambda x: x / ((1.0 + x) * (1.0 + x) * (1.0 + x)),
     lambda x: x / ((1.0 + x) * (1.0 + x) * (1.0 + x)), 0.0, math.inf, (1.0,)),
    (lambda x: 1.0 / (1.0 + x * np.sqrt(x)), lambda x: 1.0 / (1.0 + x * math.sqrt(x)),
     0.5, math.inf, ()),
]


@pytest.mark.parametrize("f_array, f_scalar, a, b, breakpoints", ROUTES)
def test_array_and_scalar_routes_are_identical(f_array, f_scalar, a, b, breakpoints,
                                               monkeypatch):
    """integrate_u/integrate_x map a scalar f over the same nodes _quad, or integrate_x's own
    [a, inf) map, passes whole."""
    if b == 1.0:
        assert _quad(f_array, a, b, QuadratureConfig()) == integrate_u(f_scalar, lo=a, hi=b)
    scalar = integrate_x(f_scalar, a, b, breakpoints=breakpoints)
    monkeypatch.setattr(quadrature, "_elementwise", lambda f: f)  # f_array goes in whole
    assert integrate_x(f_array, a, b, breakpoints=breakpoints) == scalar


@pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (0.7, 0.2), (-0.1, 0.5), (0.3, 0.3),
                                    (math.nan, 1.0), (0.0, math.nan)])
def test_integrate_u_refuses_limits_outside_the_unit_interval(lo, hi):
    calls = []
    with pytest.raises(BadParameterError, match="0 <= lo < hi <= 1"):
        integrate_u(lambda u: calls.append(u) or u, lo=lo, hi=hi)
    assert not calls


@pytest.mark.parametrize("b", [-1.0, 0.0, math.nan, -math.inf])
def test_integrate_x_refuses_an_upper_limit_not_above_the_lower(b):
    calls = []
    with pytest.raises(BadParameterError, match="must exceed the lower"):
        integrate_x(lambda x: calls.append(x) or x, 0.0, b)
    assert not calls


def test_exprel_is_faithful_and_matches_scipy():
    """expm1(z)/z against the correctly rounded value and against scipy.special.exprel.

    Both are within 1 ulp of the truth; on a dense grid they differ from
    each other by up to 2 ulps (scipy takes expm1 from its own library).
    """
    z = np.concatenate([[0.0, 1e-17, -1e-17, 1e-16, -1e-16, -700.0, -745.0, 1e-3, 700.0],
                        -np.logspace(-20, 2.87, 300), np.logspace(-20, 2.8, 300),
                        np.linspace(-60.0, 60.0, 601)])
    got, want = _exprel(z), special.exprel(z)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    with mpmath.workdps(40):
        truth = np.array([float(mpmath.expm1(x) / x) if x else 1.0
                          for x in map(mpmath.mpf, z.tolist())])
    assert np.all(np.abs(got - truth) <= np.spacing(np.abs(truth)))
    named = np.array([0.0, 1e-17, -1e-17, -700.0])
    assert np.all(np.abs(_exprel(named) - special.exprel(named))
                  <= np.spacing(special.exprel(named)))
    assert _exprel(0.0) == 1.0 and _exprel(1e-17) == 1.0 and _exprel(-1e-17) == 1.0


class TestNoConvergenceContext:
    def test_core_reports_error_estimate_and_evaluations(self):
        pattern = r"did not converge: .*\(error estimate \S+ after \d+ evaluations\)"
        with pytest.raises(NoConvergenceError, match=pattern):
            integrate_u(lambda u: math.sin(1.0 / u**2))

    def test_measure_population_names_measure_parameters_and_model(self):
        # no integral can be certified to a request below double precision;
        # the failure must say what was being computed
        with pytest.raises(NoConvergenceError) as info:
            measure_population(Exponential(1.0), MeasureSpec("crt", alpha=2.0), BELOW_EPS,
                               route="direct")
        text = str(info.value)
        assert text.startswith("crt(alpha=2.0) on exponential(mean=1), direct route: ")
        assert "did not converge" in text

    def test_loosened_values_are_not_returned(self):
        # QUADPACK's estimate of 2.3e-15 is far above the request of 1e-17;
        # a retry at looser tolerances would return a value
        with pytest.raises(NoConvergenceError) as info:
            measure_population(Exponential(1.0), MeasureSpec("crjw"), BELOW_EPS, route="direct")
        text = str(info.value)
        assert text.startswith("crjw() on exponential(mean=1), direct route: ")
        assert "did not converge" in text

    def test_a_reported_failure_raises_even_within_the_request(self, monkeypatch):
        """A value is returned only when QUADPACK reports success (ier 0)."""
        monkeypatch.setattr(quadrature, "_qags",
                            lambda f, a, b, epsabs, epsrel: (1.0, 0.5 * epsabs, 21, 2))
        with pytest.raises(NoConvergenceError, match="roundoff error prevents"):
            _quad(lambda x: x, 0.0, 1.0, QuadratureConfig())

    def test_each_piece_runs_once(self, monkeypatch):
        calls, qags = [], quadrature._qags

        def counting(*args, **kwargs):
            calls.append(args[1:3])  # the piece [lo, hi]
            return qags(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_qags", counting)
        with pytest.raises(NoConvergenceError):
            integrate_u(lambda u: math.sin(1.0 / u**2))
        assert calls == [(0.0, 1.0)]
        calls.clear()
        f = lambda x: 1.0 if x < 1.0 else math.sin(1.0 / (x - 1.0) ** 2)
        with pytest.raises(NoConvergenceError):
            integrate_x(f, 0.0, 2.0, breakpoints=(1.0,))
        assert calls == [(0.0, 1.0), (1.0, 2.0)]

    @pytest.mark.parametrize("route", ["quantile", "direct"])
    def test_error_estimate_is_in_the_values_units(self, route):
        """gmd is of degree 1, so the estimate quoted for a model 1e6 times as wide is 1e6 times
        as large; the direct route names its piece in x."""
        def failure(model):
            with pytest.raises(NoConvergenceError) as info:
                measure_population(model, MeasureSpec("gmd"), BELOW_EPS, route=route)
            text = str(info.value)
            return text, float(re.search(r"\(error estimate (\S+) after", text).group(1))

        small, wide = Exponential(1.0), Exponential(1e6)
        (_, one), (text, million) = failure(small), failure(wide)
        assert million == pytest.approx(1e6 * one, rel=1e-2)
        assert million > 1e-12  # about 8e-9 on the quantile route; 8e-15 in its own units
        if route == "direct":
            assert f"direct route: quadrature on [0.0, {wide.median()}] did not converge" in text
        else:
            assert "quantile route: quadrature on [0.0, 0.5] did not converge" in text

    @pytest.mark.parametrize("model", [Exponential(1.0), PARETO22], ids=lambda m: m.describe())
    def test_failure_names_the_exact_half_or_piece(self, model):
        """gmd_left at the median: the quantile route runs only its half at u = 1, the direct
        route only its piece [median, inf); each failure names that interval, formatted
        when it is raised."""
        t = model.median()
        for route, where in (("quantile", "[0.5, 1.0]"), ("direct", f"[{t}, inf]")):
            with pytest.raises(NoConvergenceError) as info:
                measure_population(model, MeasureSpec("gmd_left", t=t), BELOW_EPS, route=route)
            head = f"gmd_left(t={t}) on {model.describe()}, {route} route: quadrature on {where}"
            assert str(info.value).startswith(head + " did not converge: ")

    def test_verify_names_the_identity(self):
        with pytest.raises(NoConvergenceError, match=r"^I1: gmd\(\) on exponential"):
            verify(REGISTRY[0], Exponential(1.0), cfg=BELOW_EPS)


CLI_COMMANDS = {
    "compute_model": ["compute", "--dist", "exponential", "--mean", "1.3", "--measure", "gmd",
                      "--measure", "crj", "--measure", "cj", "--measure", "crt", "--alpha", "2",
                      "--measure", "s_gini", "--v", "2"],
    "compute_csv": ["compute", "--input", "{csv}", "--measure", "gmd", "--measure", "crj"],
    "verify": ["verify", "--dist", "uniform"],
    "mc": ["mc", "--dist", "exponential", "--measure", "gmd", "--seed", "3", "--reps", "50",
           "--sizes", "50,200"],
}
_SCIPY_PROBE = """
import contextlib, io, json, sys
import numpy
numpy_random = {m for m in sys.modules if m.startswith("numpy.random")}
import gmdinfo.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gmdinfo.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("numpy.random") and m not in numpy_random)))
"""


@pytest.mark.parametrize("command", [None, *CLI_COMMANDS])
def test_cli_never_imports_scipy(command, tmp_path):
    """No CLI command loads scipy, and none but mc loads numpy.random.

    numpy.random comes with ``import numpy`` on numpy 1.x and on first use
    on numpy 2; only what the program adds to that is counted.
    """
    csv = tmp_path / "x.csv"
    csv.write_text("x\n" + "\n".join(str(0.1 * i * i) for i in range(1, 200)) + "\n")
    argv = [arg.format(csv=csv) for arg in CLI_COMMANDS.get(command, [])]
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                         capture_output=True, text=True, check=True)
    scipy_modules, numpy_random = map(json.loads, res.stdout.splitlines())
    assert scipy_modules == []
    if command != "mc":
        assert numpy_random == []
