"""The numpy quadrature core against QUADPACK itself, the two routes into
it, the error it raises, and the import path it keeps free of scipy.

scipy stays installed as a dependency, so these tests use
``scipy.integrate.quad`` and ``scipy.special.exprel`` as oracles; the
library itself imports neither.
"""

import json
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from gmdinfo import (
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
from gmdinfo.quadrature import _MAX_SUBDIVISIONS, _ROUNDOFF_SLACK, quad_u, quad_x

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
    """scipy.integrate.quad once per piece, with the engine's acceptance rule; None if it fails."""
    pts = [p for p in sorted(breakpoints) if a < p < b]
    total = 0.0
    for left, right in zip([a] + pts, pts + [b]):
        out = integrate.quad(f, left, right, epsabs=cfg.tol, epsrel=cfg.tol,
                             limit=_MAX_SUBDIVISIONS, full_output=1)
        if len(out) > 3 and out[1] > _ROUNDOFF_SLACK * max(cfg.tol, cfg.tol * abs(out[0])):
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
def test_array_and_scalar_routes_are_identical(f_array, f_scalar, a, b, breakpoints):
    """integrate_u/integrate_x map a scalar f over the same nodes quad_u/quad_x pass whole."""
    if b == 1.0:
        assert quad_u(f_array, lo=a, hi=b) == integrate_u(f_scalar, lo=a, hi=b)
    assert (quad_x(f_array, a, b, breakpoints=breakpoints)
            == integrate_x(f_scalar, a, b, breakpoints=breakpoints))


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
import gmdinfo.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gmdinfo.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.parametrize("command", [None, *CLI_COMMANDS])
def test_cli_never_imports_scipy(command, tmp_path):
    csv = tmp_path / "x.csv"
    csv.write_text("x\n" + "\n".join(str(0.1 * i * i) for i in range(1, 200)) + "\n")
    argv = [arg.format(csv=csv) for arg in CLI_COMMANDS.get(command, [])]
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                         capture_output=True, text=True, check=True)
    assert json.loads(res.stdout) == []
