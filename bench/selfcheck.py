"""Checks of the benchmark itself.

They take a few milliseconds and run at the start of every worker run;
``python3 bench/selfcheck.py`` (from the repository root, with
``PYTHONPATH=src``) runs them alone.  Each returns a list of problems.
"""

import sys

import numpy as np

import gmdinfo as g

from stats import TooFewBeyond, percentile
from tracing import COUNTED_METHODS, ModelCounter, counting_model
from workloads import PassResult, PopMeasures, edge_models, failures, stock_models


def check_counting_models() -> list:
    """Counting models return bit-identical values and count every call."""
    problems = []
    u = np.linspace(1e-9, 1.0 - 1e-9, 257)
    for tag, model in {**stock_models(), **edge_models(), "weibull0.3": g.Weibull(0.3)}.items():
        counter = ModelCounter()
        counted = counting_model(model, counter)
        if not isinstance(counted, type(model)) or counted.describe() != model.describe():
            problems.append(f"{tag}: counting model is not a {type(model).__name__}")
        x = np.concatenate([[0.0], model.quantile(u)])
        args = {"cdf": x, "sf": x, "quantile": u}
        for name in COUNTED_METHODS:
            for arg in (args[name], float(args[name][100])):
                plain, got = getattr(model, name)(arg), getattr(counted, name)(arg)
                if np.asarray(plain).tobytes() != np.asarray(got).tobytes():
                    problems.append(f"{tag}.{name}: values differ from the plain model")
        want_points = 2 * x.size + u.size + 3
        if counter.calls != dict.fromkeys(COUNTED_METHODS, 2) or counter.points != want_points:
            problems.append(f"{tag}: counted {counter.calls}, {counter.points} points")
    return problems


def check_injected_reference() -> list:
    """A wrong closed-form reference must fail both gmd routes on uniform(0,1)."""
    workload = PopMeasures(0)
    spec = workload.specs["uniform"]["gmd"]
    model = workload.models["uniform"]
    values = {f"gmd.{route}@uniform": g.measure_population(model, spec, route=route)
              for route in ("quantile", "direct")}
    res = PassResult(0.0, dict.fromkeys(values, 0.0), values, {}, [])
    problems = []
    if failures(workload, res):
        problems.append("true closed form for uniform gmd reported as a failure")
    workload.closed["uniform"]["gmd"] = (1.0 / 3.0) * (1.0 + 1e-6)
    if sorted(failures(workload, res)) != sorted(values):
        problems.append("injected wrong reference was not counted as failed")
    return problems


def check_p90_rule() -> list:
    problems = []
    try:
        percentile(range(99), 90)
        problems.append("p90 of 99 samples (9 beyond) was not refused")
    except TooFewBeyond:
        pass
    if percentile(range(100), 90) != (89, 100, 10):
        problems.append("p90 of 0..99 is not 89 with 10 beyond")
    return problems


def run_all() -> list:
    return check_counting_models() + check_injected_reference() + check_p90_rule()


if __name__ == "__main__":
    found = run_all()
    for problem in found:
        print(problem)
    print(f"selfcheck: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
