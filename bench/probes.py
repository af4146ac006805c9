"""Per-layer metrics of the traced run.

Two sources: sums over the latencies of a workload's plain pass, grouped
by the operation tags, and direct probes that call one layer's public
functions on fixed inputs.  Each probe call runs inside a span named
after the function it calls.
"""

import re
import subprocess
import sys
import time

import numpy as np

import gmdinfo as g

from stats import median
from tracing import CountingIntegrand, ModelCounter, counting_model
from workloads import (MC_ARGS, SAMPLE_DATASETS, SAMPLE_SIZES, draw, measure_specs,
                       run_cli_in_process, stock_models)

#: The PWM triples the pwm and quadrature probes integrate.
PWM_PROBES = ((1, 1.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 0.0), (1, 0.0, 1.5))
IMPORT_MODULES = {"cli.import_s": "gmdinfo",
                  "cli.import.scipy_integrate_s": "scipy.integrate",
                  "cli.import.scipy_special_s": "scipy.special"}
IMPORT_RUNS = 3
PROBE_N = 10**6


def _timed_ms(tracer, name: str, fn, reps: int = 1) -> float:
    """Median wall time of ``reps`` calls of ``fn``, each in a span."""
    times = []
    for _ in range(reps):
        with tracer.span(name):
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def _sum_by(ops, res, tag: str, where=lambda tags: True) -> dict:
    out = {}
    for op in ops:
        if op.key in res.latency_ms and tag in op.tags and where(op.tags):
            out[op.tags[tag]] = out.get(op.tags[tag], 0.0) + res.latency_ms[op.key]
    return out


# ---------------------------------------------------------------------------
# from the plain passes


def pop_verify_metrics(ops, res) -> dict:
    out = {f"identities.pop.{ident}.ms": ms
           for ident, ms in _sum_by(ops, res, "identity").items()}
    out.update({f"identities.pop.{model}.s": ms / 1e3
                for model, ms in _sum_by(ops, res, "model").items()})
    return out


def pop_measures_metrics(ops, res) -> dict:
    return {f"population.{route}.ms": ms for route, ms in _sum_by(ops, res, "route").items()}


def sample_verify_metrics(ops, res) -> dict:
    big = SAMPLE_SIZES[-1]
    out = {f"identities.sample.{ident}.ms": ms for ident, ms in
           _sum_by(ops, res, "identity", lambda tags: tags["n"] == big).items()}
    is_verify = lambda tags: "identity" in tags
    out.update({f"identities.sample.{ds}.ms": ms
                for ds, ms in _sum_by(ops, res, "dataset", is_verify).items()})
    out.update({f"identities.sample.n{n}.ms": ms
                for n, ms in _sum_by(ops, res, "n", is_verify).items()})
    return out


def cli_metrics(ops, res) -> dict:
    runs = {}
    for op in ops:
        if op.key in res.latency_ms:
            runs.setdefault(op.tags["command"], []).append(res.latency_ms[op.key] / 1e3)
    return {f"cli.{name}_s": median(secs) for name, secs in runs.items()}


# ---------------------------------------------------------------------------
# direct probes


def population_probe(tracer) -> dict:
    """I7/I8's nested-integral calls, once per stock model."""
    ge_w, gce_w, phi = g.parse_weight("Fbar"), g.parse_weight("F"), g.parse_phi("2*x")
    out = {"population.ge.ms": 0.0, "population.gce.ms": 0.0}
    for model in stock_models().values():
        out["population.ge.ms"] += _timed_ms(
            tracer, "population.ge_population", lambda: g.ge_population(model, ge_w, phi))
        out["population.gce.ms"] += _timed_ms(
            tracer, "population.gce_population", lambda: g.gce_population(model, gce_w, phi))
    return out


def pwm_population_probe(tracer) -> dict:
    """Per-call time and model points of ``pwm_population`` on the stock models."""
    counter = ModelCounter()
    total_ms, calls = 0.0, 0
    for model in stock_models().values():
        counted = counting_model(model, counter)
        for p, r, s in PWM_PROBES:
            idx = g.PwmIndex(p, r, s)
            total_ms += _timed_ms(tracer, "pwm.pwm_population",
                                  lambda: g.pwm_population(model, idx), reps=3)
            g.pwm_population(counted, idx)
            calls += 1
    return {"pwm.population.ms": total_ms / calls, "pwm.population.points": counter.points / calls}


def _quadrature_stats(tracer, name: str, jobs) -> dict:
    """Per-call time and integrand evaluations over (integrand, integrate) jobs."""
    total_ms = sum(_timed_ms(tracer, f"quadrature.{name}", lambda: integrate(f), reps=3)
                   for f, integrate in jobs)
    evals = 0
    for f, integrate in jobs:
        counted = CountingIntegrand(f)
        integrate(counted)
        evals += counted.evals
    return {f"quadrature.{name}.ms": total_ms / len(jobs),
            f"quadrature.{name}.evals": evals / len(jobs)}


def quadrature_probe(tracer) -> dict:
    """Per-call time and evaluations of the two quadrature entry points.

    u-domain: the stock models' PWM integrands Q^p u^r (1-u)^s; x-domain:
    their sf^2 and F*S integrands over the support, split where the
    population routes split them (support start and median).
    """
    u_jobs, x_jobs = [], []
    for m in stock_models().values():
        for p, r, s in PWM_PROBES:
            u_jobs.append((lambda u, p=p, r=r, s=s, m=m:
                           float(m.quantile(u)) ** p * u**r * (1.0 - u) ** s, g.integrate_u))
        hi, brk = m.support[1], (m.support[0], float(m.quantile(0.5)))

        def integrate_x(f, hi=hi, brk=brk):
            return g.integrate_x(f, 0.0, hi, breakpoints=brk)

        x_jobs.append((lambda x, m=m: float(m.sf(x)) ** 2, integrate_x))
        x_jobs.append((lambda x, m=m: float(m.cdf(x)) * float(m.sf(x)), integrate_x))
    return {**_quadrature_stats(tracer, "integrate_u", u_jobs),
            **_quadrature_stats(tracer, "integrate_x", x_jobs)}


def sample_layer_probe(tracer, seed: int) -> dict:
    """Estimators and sample construction at n = 1e6, and small-n call overhead."""
    raw = draw("exp", PROBE_N, seed)
    out = {"empirical.make_sample.ms": _timed_ms(
        tracer, "empirical.make_sample", lambda: g.make_sample(raw), reps=3)}
    sample = g.make_sample(raw)
    for mid, spec in measure_specs(float(np.median(sample.values))).items():
        out[f"measures.{mid}.ms"] = _timed_ms(
            tracer, "measures.measure_sample", lambda: g.measure_sample(sample, spec), reps=3)
    out["pwm.unbiased.ms"] = _timed_ms(
        tracer, "pwm.pwm_unbiased_beta", lambda: g.pwm_unbiased_beta(sample, 1), reps=3)
    idx = g.PwmIndex(1, 1.5, 0.0)
    out["pwm.plugin.ms"] = _timed_ms(
        tracer, "pwm.pwm_plugin", lambda: g.pwm_plugin(sample, idx), reps=3)

    small = [g.make_sample(draw(ds, 100, seed)) for ds in SAMPLE_DATASETS]
    gmd_spec = g.MeasureSpec("gmd")
    calls = 300 * len(small)

    def batch():
        for _ in range(300):
            for s in small:
                g.measure_sample(s, gmd_spec)

    out["measures.small.us_per_call"] = (
        _timed_ms(tracer, "measures.measure_sample", batch, reps=5) * 1e3 / calls)
    argv = ("mc", *MC_ARGS, "--seed", str(seed))
    out["measures.mc_table.ms"] = _timed_ms(
        tracer, "cli.main", lambda: run_cli_in_process(argv), reps=3)
    return out


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def import_seconds(log: str, modules) -> list:
    """Cumulative seconds spent importing each module tree in an importtime log.

    scipy loads its subpackages lazily, so the log has lines for
    ``scipy.special._ufuncs`` and the like but none for ``scipy.special``
    itself.  A module's time is therefore the sum over the outermost
    lines whose name is the module or lies under it.  The log lists
    children before their parent, one indent level deeper.
    """
    roots = []  # (depth, name, seconds, children), outermost pending first
    for line in log.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(2))
        children = []
        while roots and roots[-1][0] > depth:
            children.insert(0, roots.pop())
        roots.append((depth, m.group(3), int(m.group(1)) / 1e6, children))

    def total(nodes, module):
        return sum(sec if name == module or name.startswith(module + ".")
                   else total(kids, module) for _, name, sec, kids in nodes)

    return [total(roots, module) for module in modules]


def import_probe(tracer) -> dict:
    """Import times from ``python -X importtime -c 'import gmdinfo'``, median of runs.

    A module the import no longer loads reads 0.
    """
    runs = []
    for _ in range(IMPORT_RUNS):
        with tracer.span("cli.import"):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmdinfo"],
                                  capture_output=True, text=True, timeout=120, check=True)
        runs.append(import_seconds(proc.stderr, IMPORT_MODULES.values()))
    return {name: median(vals) for name, vals in zip(IMPORT_MODULES, zip(*runs))}
