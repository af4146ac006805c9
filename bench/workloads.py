"""The benchmark's four workloads: seeded inputs, operation sets, checks.

An operation is one call into gmdinfo's public API or one CLI
invocation.  A pass issues a workload's whole operation set once, in a
closed loop: each call starts after the previous one returns.  Values
are checked after the pass, so the checks add nothing to the latencies.

Constructing a workload builds its inputs; that is the set-up that
``setup_s`` times.
"""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gmdinfo as g
import gmdinfo.cli

from tracing import counting_model

WORKLOADS = ("pop-verify", "pop-measures", "sample", "cli")

#: Run-time files (CSV inputs, spans, results) go here, inside the checkout.
OUT_DIR = os.path.join("bench", "out")

#: Refusals by design are not attempts (no identity form at this level, or a
#: measure whose integral does not exist for the model).
REFUSALS = (g.NotApplicableError, g.UnsupportedSpecError)

SAMPLE_DATASETS = ("exp", "pareto3", "exp_r3")
SAMPLE_SIZES = (10**3, 10**4, 10**5, 10**6)
MC_ARGS = ("--dist", "exponential", "--measure", "gmd", "--reps", "500",
           "--sizes", "100,1000")


def stock_models() -> dict:
    return {"uniform": g.Uniform(0.0, 1.0), "exp1": g.Exponential(1.0),
            "weibull1.5": g.Weibull(1.5), "weibull0.7": g.Weibull(0.7),
            "pareto4_2": g.Pareto(4.0, 2.0)}


def edge_models() -> dict:
    """Scale and tail extremes; the model defects of the seed show here."""
    return {"exp1e-6": g.Exponential(1e-6), "exp1e5": g.Exponential(1e5),
            "pareto2.2": g.Pareto(2.2)}


def measure_specs(t: float) -> dict:
    """One spec per measure id; ``t`` is the truncation point."""
    params = {
        "gmd": {}, "gmd_left": {"t": t}, "gmd_right": {"t": t},
        "j_dyn": {"t": t}, "h_dyn": {"t": t}, "s_gini": {"v": 2.0},
        "crj": {}, "cj": {}, "ce": {}, "crjw": {}, "wce": {},
        "crt": {"alpha": 2.0}, "wcrt": {"alpha": 2.0},
        "ct": {"alpha": 2.0}, "wct": {"alpha": 2.0},
        "sr": {"alpha": 2.0, "beta": 3.0}, "sp": {"alpha": 2.0, "beta": 3.0},
        "srw": {"alpha": 2.0, "beta": 3.0}, "spw": {"alpha": 2.0, "beta": 3.0},
        "ge": {"w": g.parse_weight("Fbar"), "phi": g.parse_phi("2*x")},
        "gce": {"w": g.parse_weight("F"), "phi": g.parse_phi("2*x")},
        "risk_premium": {"k": 3}, "gain_premium": {"k": 3}, "pwm": {"p": 1},
    }
    if set(params) != set(g.MEASURE_IDS):
        raise RuntimeError(
            f"measure ids changed: {sorted(set(params) ^ set(g.MEASURE_IDS))}")
    return {mid: g.MeasureSpec(mid, **kw) for mid, kw in params.items()}


def close(a: float, b: float, tol: float) -> bool:
    """Relative agreement, so the test means the same at every scale."""
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


@dataclass
class Op:
    key: str  # stable id; also the op id of its span
    span: str  # the layer function called
    call: object  # no-argument callable
    tags: dict = field(default_factory=dict)


@dataclass
class PassResult:
    wall_s: float
    latency_ms: dict  # key -> ms, attempted operations only
    values: dict  # key -> returned value
    errors: dict  # key -> exception text
    refused: list
    reference_ms: dict = field(default_factory=dict)  # key -> reference time around it


def reference_ms() -> float:
    """Time of one fixed reference computation, in ms.

    Interpreter-bound scalar work, like a quadrature callback's.  It is
    the benchmark's own code, so no change to gmdinfo can move it; its
    time tracks how fast the host runs this process at the moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 1500):
        u = i / 1500.0
        acc += math.log1p(-0.5 * u) * u**1.5 + float(np.exp(-u))
    return (time.perf_counter() - start) * 1e3


_SORT_INPUT = np.random.default_rng(0).random(1 << 16)


def mixed_reference_ms() -> float:
    """Geometric mean of reference_ms() and a numpy-bound reference, in ms.

    When the host slows down, vectorized numpy work and child processes
    slow down less than interpreter-bound work.  A reference that blends
    both kinds tracks the ``sample`` and ``cli`` operations better.
    """
    start = time.perf_counter()
    for _ in range(3):
        y = np.sort(_SORT_INPUT)
        float(np.cumsum(y)[-1] + y @ y)
    vector_ms = (time.perf_counter() - start) * 1e3
    return math.sqrt(reference_ms() * vector_ms)


def run_pass(ops, tracer=None, reference=None) -> PassResult:
    """Issue ``ops`` in order, each once, and record what they return.

    ``reference`` is given for the passes whose latencies are reported:
    that reference computation runs between operations, and each
    operation gets the mean of the two reference times around it.
    """
    res = PassResult(0.0, {}, {}, {}, [])
    before = reference() if reference else None
    t0 = time.perf_counter()
    for op in ops:
        refused = False
        start = time.perf_counter()
        try:
            if tracer is None:
                res.values[op.key] = op.call()
            else:
                with tracer.span(op.span, op.key):
                    res.values[op.key] = op.call()
        except REFUSALS:
            refused = True
            res.refused.append(op.key)
        except Exception as exc:  # a failed operation is counted, not fatal
            res.errors[op.key] = " ".join(f"{type(exc).__name__}: {exc}".split())
        latency = time.perf_counter() - start
        if reference:
            after = reference()
            res.reference_ms[op.key] = 0.5 * (before + after)
            before = after
        if not refused:
            res.latency_ms[op.key] = latency * 1e3
    res.wall_s = time.perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# population workloads


def _closed_forms(model) -> dict:
    """Closed-form population values; exponential ones scale with the mean."""
    out = {"pwm": model.mean()}  # the spec is M_{1,0,0} = E[X]
    if isinstance(model, g.Uniform) and (model.a, model.b) == (0.0, 1.0):
        out["gmd"] = 1.0 / 3.0
    if isinstance(model, g.Exponential):
        mu = model.mu
        out.update(gmd=mu, crj=-mu / 4, ce=-mu / 4, cj=-3 * mu / 4,
                   crt=mu / 2, s_gini=mu / 4, j_dyn=-mu / 4)
    return out


def _report_failure(rep) -> str:
    return f"rel residual {rep.rel_residual:.3g} > tol {rep.tolerance:g}"


class PopVerify:
    """Population ``verify`` of every identity, one call per (model, identity)."""

    name = "pop-verify"
    reference = staticmethod(reference_ms)

    def __init__(self, seed: int):
        self.seed = seed
        self.models = {**stock_models(), **edge_models()}

    def ops(self, counter=None) -> list:
        models = {tag: counting_model(m, counter) if counter else m
                  for tag, m in self.models.items()}
        pairs = [(tag, ident) for tag in models for ident in g.REGISTRY]
        order = np.random.default_rng(self.seed).permutation(len(pairs))
        return [Op(f"{ident.id}@{tag}", "identities.verify",
                   functools.partial(g.verify, ident, models[tag]),
                   {"identity": ident.id, "model": tag})
                for tag, ident in (pairs[i] for i in order)]

    def check(self, res: PassResult) -> dict:
        return {key: _report_failure(rep) for key, rep in res.values.items() if not rep.passed}


class PopMeasures:
    """``measure_population`` on both routes, checked against each other."""

    name = "pop-measures"
    reference = staticmethod(reference_ms)
    #: ge/gce are the nested integrals of I7/I8; pop-verify covers them.
    SKIP = ("ge", "gce")
    ONE_ROUTE = {"pwm": ("quantile",), "j_dyn": ("direct",), "h_dyn": ("direct",)}

    def __init__(self, seed: int):
        self.seed = seed
        self.models = {**stock_models(), **edge_models(), "weibull0.3": g.Weibull(0.3)}
        self.specs = {tag: measure_specs(float(m.quantile(0.5)))
                      for tag, m in self.models.items()}
        self.closed = {tag: _closed_forms(m) for tag, m in self.models.items()}

    def ops(self, counter=None) -> list:
        ops = []
        for tag, model in self.models.items():
            if counter:
                model = counting_model(model, counter)
            for mid, spec in self.specs[tag].items():
                if mid in self.SKIP:
                    continue
                for route in self.ONE_ROUTE.get(mid, ("quantile", "direct")):
                    ops.append(Op(f"{mid}.{route}@{tag}", "population.measure_population",
                                  functools.partial(g.measure_population, model, spec,
                                                    route=route),
                                  {"measure": mid, "route": route, "model": tag}))
        order = np.random.default_rng(self.seed).permutation(len(ops))
        return [ops[i] for i in order]

    def check(self, res: PassResult) -> dict:
        tol = g.POPULATION_TOL
        fails = {}
        for key, val in res.values.items():
            mid_route, tag = key.split("@")
            mid, route = mid_route.split(".")
            if not math.isfinite(val):
                fails[key] = f"non-finite {val!r}"
                continue
            ref = self.closed[tag].get(mid)
            if ref is not None and not close(val, ref, tol):
                fails[key] = f"{val!r} != closed form {ref!r}"
            if route == "quantile":
                other = res.values.get(f"{mid}.direct@{tag}")
                if other is not None and not close(val, other, tol):
                    why = f"routes disagree: quantile {val!r}, direct {other!r}"
                    fails.setdefault(key, why)
                    fails.setdefault(f"{mid}.direct@{tag}", why)
        return fails


# ---------------------------------------------------------------------------
# sample workload


def draw(dataset: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, SAMPLE_DATASETS.index(dataset), n])
    if dataset == "pareto3":
        return g.Pareto(3.0).sample(n, rng)
    raw = g.Exponential(1.0).sample(n, rng)
    return np.round(raw, 3) if dataset == "exp_r3" else raw  # exp_r3: heavy ties


def brute_force_gmd(x: np.ndarray) -> float:
    """Mean |x_i - x_j| over pairs i != j, by the O(n^2) definition."""
    return float(np.abs(x[:, None] - x[None, :]).sum() / (x.size * (x.size - 1.0)))


def sorted_gmd(x: np.ndarray) -> float:
    """GMD from prefix sums of the sorted data: sum_i ((i-1) x_(i) - S_(i-1))."""
    x = np.sort(x)
    prefix = np.concatenate([[0.0], np.cumsum(x)[:-1]])
    return float(2.0 * np.sum(np.arange(x.size) * x - prefix) / (x.size * (x.size - 1.0)))


def run_cli_in_process(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gmdinfo.cli.main(list(argv))
    return code, out.getvalue().encode()


def check_mc_table(stdout: bytes, population: float) -> str:
    """Empty when each row's population is right and its bias within 5 SE."""
    rows = [json.loads(line) for line in stdout.decode().splitlines()]
    if not rows:
        return "no rows"
    for row in rows:
        if not close(row["population"], population, g.POPULATION_TOL):
            return f"population {row['population']!r} != {population!r}"
        if abs(row["bias"]) > 5.0 * row["sd"] / math.sqrt(row["reps"]):
            return f"bias {row['bias']!r} beyond 5 standard errors at n={row['n']}"
    return ""


class SampleWorkload:
    """Sample ``verify`` per identity, a ``measure_sample`` sweep, and an mc table."""

    name = "sample"
    reference = staticmethod(mixed_reference_ms)

    def __init__(self, seed: int):
        self.seed = seed
        self.samples = {(ds, n): g.make_sample(draw(ds, n, seed))
                        for ds in SAMPLE_DATASETS for n in SAMPLE_SIZES}
        self.specs = {key: measure_specs(float(np.median(s.values)))
                      for key, s in self.samples.items()}
        n0 = SAMPLE_SIZES[0]
        self.gmd_ref = {ds: brute_force_gmd(self.samples[ds, n0].values)
                        for ds in SAMPLE_DATASETS}

    def ops(self, counter=None) -> list:
        identities = [ident for ident in g.REGISTRY
                      if ident.sample_sides is not None and ident.level != "population"]
        ops = []
        for (ds, n), sample in self.samples.items():
            tags = {"dataset": ds, "n": n}
            for ident in identities:
                ops.append(Op(f"{ident.id}@{ds}.n{n}", "identities.verify",
                              functools.partial(g.verify, ident, sample),
                              {**tags, "identity": ident.id}))
            for mid, spec in self.specs[ds, n].items():
                ops.append(Op(f"{mid}@{ds}.n{n}", "measures.measure_sample",
                              functools.partial(g.measure_sample, sample, spec),
                              {**tags, "measure": mid}))
        ops.append(Op("mc_table", "cli.main",
                      functools.partial(run_cli_in_process,
                                        ("mc", *MC_ARGS, "--seed", str(self.seed)))))
        return ops

    def check(self, res: PassResult) -> dict:
        fails = {}
        for key, val in res.values.items():
            if key == "mc_table":
                code, stdout = val
                why = f"exit code {code}" if code != 0 else check_mc_table(stdout, 1.0)
                if why:
                    fails[key] = why
            elif isinstance(val, g.IdentityReport):
                if not val.passed:
                    fails[key] = _report_failure(val)
            elif not math.isfinite(val[0]):
                fails[key] = f"non-finite {val[0]!r}"
        n0 = SAMPLE_SIZES[0]
        for ds in SAMPLE_DATASETS:
            key = f"gmd@{ds}.n{n0}"
            if key in res.values and not close(res.values[key][0], self.gmd_ref[ds],
                                               g.EXACT_SAMPLE_TOL):
                fails[key] = f"{res.values[key][0]!r} != brute force {self.gmd_ref[ds]!r}"
        for ds, n in self.samples:
            crj, ce = res.values.get(f"crj@{ds}.n{n}"), res.values.get(f"ce@{ds}.n{n}")
            if crj and ce and not close(crj[0], ce[0], g.EXACT_SAMPLE_TOL):
                fails[f"ce@{ds}.n{n}"] = f"ce {ce[0]!r} != crj {crj[0]!r}"
        return fails


# ---------------------------------------------------------------------------
# CLI workload


def run_cli(argv) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "gmdinfo", *argv],
                          capture_output=True, timeout=120, check=False)
    return proc.returncode, proc.stdout


class CliWorkload:
    """One-shot ``python -m gmdinfo`` runs; each flag set runs twice."""

    name = "cli"
    reference = staticmethod(mixed_reference_ms)
    CSV_ROWS = 10**4

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 99])
        self.mu = float(0.5 + 1.5 * rng.random())
        values = rng.exponential(1.0, self.CSV_ROWS)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.csv = os.path.join(OUT_DIR, f"cli-seed{seed}.csv")
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("x\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        self.csv_gmd = sorted_gmd(values)
        mu = repr(self.mu)
        self.commands = {
            "compute_model": ["compute", "--dist", "exponential", "--mean", mu,
                              "--measure", "gmd", "--measure", "crj", "--measure", "cj",
                              "--measure", "crt", "--alpha", "2",
                              "--measure", "s_gini", "--v", "2"],
            "compute_csv": ["compute", "--input", self.csv, "--measure", "gmd",
                            "--measure", "crj"],
            "verify": ["verify", "--dist", "uniform"],
            "mc": ["mc", "--dist", "exponential", "--measure", "gmd", "--seed", str(seed),
                   "--reps", "50", "--sizes", "50,200"],
        }

    def ops(self, counter=None) -> list:
        return [Op(f"{name}.{rerun}", "cli.subprocess", functools.partial(run_cli, argv),
                   {"command": name})
                for name, argv in self.commands.items() for rerun in ("a", "b")]

    def _content(self, name: str, stdout: bytes) -> str:
        text = stdout.decode()
        if name == "verify":
            last = text.splitlines()[-1] if text else ""
            npass, _, total = last.removeprefix("passed ").partition("/")
            ok = last.startswith("passed ") and npass == total and int(total) > 0
            return "" if ok else f"summary line {last!r}"
        if name == "mc":
            return check_mc_table(stdout, 1.0)
        got = {rec["measure"]: rec["value"] for rec in map(json.loads, text.splitlines())}
        mu = self.mu
        want = ({"gmd": mu, "crj": -mu / 4, "cj": -3 * mu / 4, "crt": mu / 2,
                 "s_gini": mu / 4} if name == "compute_model" else {"gmd": self.csv_gmd})
        for mid, ref in want.items():
            if mid not in got or not close(got[mid], ref, g.POPULATION_TOL):
                return f"{mid} = {got.get(mid)!r}, expected {ref!r}"
        return ""

    def check(self, res: PassResult) -> dict:
        fails = {}
        for key, (code, stdout) in res.values.items():
            name, rerun = key.split(".")
            if code != 0:
                fails[key] = f"exit code {code}"
            elif rerun == "a":
                why = self._content(name, stdout)
                if why:
                    fails[key] = why
            elif f"{name}.a" in res.values and res.values[f"{name}.a"][1] != stdout:
                fails[key] = "rerun output differs from the first run"
        return fails


def failures(workload, res: PassResult) -> dict:
    """Failed operations of one pass: exceptions, then failed checks."""
    return {**workload.check(res), **res.errors}


def make_workload(name: str, seed: int):
    classes = {cls.name: cls for cls in (PopVerify, PopMeasures, SampleWorkload, CliWorkload)}
    return classes[name](seed)
