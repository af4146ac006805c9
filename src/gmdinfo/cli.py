"""Command-line front end.

Three subcommands: ``compute`` evaluates measures on a data file or a
parametric model, ``verify`` runs the identity registry, and ``mc`` runs
seeded Monte Carlo convergence studies.  Output is JSON-lines or TSV;
every numeric is printed with 12 significant digits, and reruns with the
same flags are byte-identical.

Exit codes: 0 success / all identities pass, 1 identity failure,
2 input or parse error, 3 domain or parameter error.
"""

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional

import numpy as np

from .empirical import ECDF_CONVENTIONS, Sample, make_sample
from .errors import (
    BadParameterError,
    DomainError,
    InputFormatError,
    NoConvergenceError,
    TooFewObservationsError,
)
from .identities import IdentityReport, _verify_each
from .measures import MEASURE_IDS, MeasureSpec, measure_sample, parse_phi, parse_weight
from .models import MODEL_FAMILIES, ParametricModel, make_model
from .population import measure_population
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = ["main", "read_values", "cmd_compute", "cmd_verify", "cmd_mc"]

_MODEL_FLAGS = ("a", "b", "mean", "shape", "scale")

_VERIFY_FIELDS = tuple(field.name for field in dataclasses.fields(IdentityReport))
_COMPUTE_FIELDS = ("measure", "parameters", "value", "estimator_route", "n")
_MC_FIELDS = ("n", "reps", "mean", "bias", "sd", "rmse", "population")
_SELECTORS = {"w": parse_weight, "phi": parse_phi}  # measure flags given as text


# ---------------------------------------------------------------------------
# formatting


def _sig12(value: float) -> float:
    """Round to 12 significant digits — the output precision contract."""
    return float(f"{value:.12g}")


def _sig12_tree(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {key: _sig12_tree(val) for key, val in obj.items()}
    return obj


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        if not value:
            return "-"
        return ",".join(f"{k}={_cell(v)}" for k, v in value.items())
    return str(value)


def _emit(records, fieldnames, fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(fieldnames))
        for rec in records:
            print("\t".join(_cell(rec[name]) for name in fieldnames))
    else:
        for rec in records:
            print(json.dumps(_sig12_tree(rec)))


# ---------------------------------------------------------------------------
# input handling


def read_values(path: str) -> List[float]:
    """Read a one-column numeric CSV.

    Blank lines and ``#`` comments are skipped; a non-numeric first
    content line is treated as a header; UTF-8 with or without BOM;
    LF or CRLF line endings.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    values: List[float] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split(",")]
        if len(fields) > 1 and any(fields[1:]):
            raise InputFormatError(
                f"{path}: line {lineno}, column 2: expected a single numeric column"
            )
        token = fields[0]
        try:
            val = float(token)
        except ValueError:
            if not saw_content:
                saw_content = True  # header row
                continue
            raise InputFormatError(
                f"{path}: line {lineno}, column 1: cannot parse {token!r} as a number"
            ) from None
        if not math.isfinite(val):
            raise InputFormatError(
                f"{path}: line {lineno}, column 1: non-finite value {token!r}"
            )
        saw_content = True
        values.append(val)
    return values


def _build_model(args) -> ParametricModel:
    kwargs = {}
    for name in _MODEL_FLAGS:
        val = getattr(args, name)
        if val is not None:
            kwargs[name] = val
    return make_model(args.dist, **kwargs)


def _build_source(args, parser):
    if bool(args.input) == bool(args.dist):
        parser.error("exactly one of --input or --dist is required")
    if args.input:
        return make_sample(read_values(args.input))
    return _build_model(args)


def _quad_config(args) -> QuadratureConfig:
    if args.tol is None:
        return DEFAULT_CONFIG
    return QuadratureConfig(tol=args.tol)


def _measure_specs(args) -> List[MeasureSpec]:
    specs = []
    for mid in args.measure:
        if mid not in MEASURE_IDS:
            raise BadParameterError(
                f"unknown measure {mid!r}; expected one of {sorted(MEASURE_IDS)}"
            )
        entry = MEASURE_IDS[mid]
        kwargs = {}
        for name in entry.params + entry.optional:
            val = getattr(args, name)
            if val is not None:
                kwargs[name] = _SELECTORS[name](val) if name in _SELECTORS else val
        try:
            specs.append(MeasureSpec(mid, **kwargs))
        except DomainError as exc:
            raise BadParameterError(f"measure {mid!r}: {exc}") from exc
    return specs


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args, parser) -> int:
    source = _build_source(args, parser)
    if not args.measure:
        parser.error("compute requires at least one --measure")
    specs = _measure_specs(args)
    cfg = _quad_config(args)
    records = []
    for spec in specs:
        try:
            if isinstance(source, Sample):
                value, route = measure_sample(source, spec, conv=args.conv)
                n: Optional[int] = source.n
            else:
                value = measure_population(source, spec, cfg)
                route = "population-quadrature"
                n = None
        except DomainError as exc:
            raise BadParameterError(f"measure {spec.id!r}: {exc}") from exc
        records.append({
            "measure": spec.id,
            "parameters": spec.params_dict(),
            "value": value,
            "estimator_route": route,
            "n": n,
        })
    _emit(records, _COMPUTE_FIELDS, args.format)
    return 0


def cmd_verify(args, parser) -> int:
    source = _build_source(args, parser)
    cfg = _quad_config(args)
    reports, failed = _verify_each(source, cfg, conv=args.conv)
    if args.level:
        reports = [rep for rep in reports if rep.level == args.level]
    _emit([dataclasses.asdict(rep) for rep in reports], _VERIFY_FIELDS, args.format)
    npass = sum(1 for rep in reports if rep.passed)
    print(f"passed {npass}/{len(reports)}")
    for exc in failed:
        print(f"gmdinfo: error: {exc}", file=sys.stderr)
    if failed:
        return 3
    return 0 if npass == len(reports) else 1


def cmd_mc(args, parser) -> int:
    if args.input:
        parser.error("mc draws from a model; use --dist, not --input")
    if not args.dist:
        parser.error("mc requires --dist")
    if not args.measure:
        parser.error("mc requires exactly one --measure")
    model = _build_model(args)
    specs = _measure_specs(args)
    if len(specs) != 1:
        parser.error("mc takes exactly one --measure")
    spec = specs[0]
    if not 0 <= args.seed < 2**64:
        raise BadParameterError("seed must fit in an unsigned 64-bit integer")
    if args.reps < 1:
        raise BadParameterError("reps must be at least 1")
    cfg = _quad_config(args)
    population = measure_population(model, spec, cfg)
    records = []
    for n in args.sizes:
        if n < 2:
            raise TooFewObservationsError("need at least 2 observations")
        estimates = np.empty(args.reps, dtype=float)
        for rep in range(args.reps):
            # counter-based generator keyed by (seed, n, rep): replicate
            # streams are reproducible independently of execution order
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([args.seed, n, rep]))
            )
            sample = make_sample(model.sample(n, rng))
            estimates[rep] = measure_sample(sample, spec, conv=args.conv)[0]
        mean = float(np.mean(estimates))
        sd = float(np.std(estimates, ddof=1)) if args.reps > 1 else 0.0
        rmse = float(np.sqrt(np.mean((estimates - population) ** 2)))
        records.append({
            "n": int(n),
            "reps": int(args.reps),
            "mean": mean,
            "bias": mean - population,
            "sd": sd,
            "rmse": rmse,
            "population": population,
        })
    _emit(records, _MC_FIELDS, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser


def _sizes_arg(text: str):
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse sizes {text!r}; use a comma list like 100,1000"
        ) from None
    if not sizes:
        raise argparse.ArgumentTypeError("sizes must name at least one sample size")
    return sizes


def _add_source_flags(p) -> None:
    p.add_argument("--input", metavar="PATH",
                   help="CSV file with one numeric column")
    p.add_argument("--dist", choices=sorted(MODEL_FAMILIES + ("exp",)),
                   help="parametric model family")
    p.add_argument("--a", type=float, help="uniform lower endpoint")
    p.add_argument("--b", type=float, help="uniform upper endpoint")
    p.add_argument("--mean", type=float, help="exponential mean")
    p.add_argument("--shape", type=float, help="weibull/pareto shape")
    p.add_argument("--scale", type=float, help="weibull/pareto scale")


def _add_common_flags(p) -> None:
    p.add_argument("--conv", choices=ECDF_CONVENTIONS, default="hazen",
                   help="ECDF evaluation convention (default hazen)")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature absolute and relative tolerance")
    p.add_argument("--format", choices=("json", "tsv"), default="json",
                   help="output format (default json-lines)")


def _add_measure_flags(p) -> None:
    p.add_argument("--measure", action="append", metavar="ID",
                   help="measure id (repeatable); see the README for the list")
    p.add_argument("--t", type=float, help="truncation point")
    p.add_argument("--v", type=float, help="order of s_gini")
    p.add_argument("--k", type=int, help="tuple size for premia")
    p.add_argument("--alpha", type=float, help="first order parameter")
    p.add_argument("--beta", type=float, help="second order parameter")
    p.add_argument("--p", type=int, help="pwm power on x")
    p.add_argument("--r", type=float, help="pwm exponent on u")
    p.add_argument("--s", type=float, help="pwm exponent on 1-u")
    p.add_argument("--w", metavar="W", help="weight: number, 'const:c', 'F^j', 'Fbar^j'")
    p.add_argument("--phi", metavar="PHI", help="phi: forms like 'x', '2*x', '2*x^2'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmdinfo",
        description="Gini-mean-difference information measures: compute, "
                    "verify identities, and run Monte Carlo convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate measures on data or a model")
    _add_source_flags(p_compute)
    _add_measure_flags(p_compute)
    _add_common_flags(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="check the identity registry")
    _add_source_flags(p_verify)
    _add_common_flags(p_verify)
    p_verify.add_argument("--level", choices=("population", "sample"),
                          help="restrict reports to one level")
    p_verify.set_defaults(func=cmd_verify)

    p_mc = sub.add_parser("mc", help="Monte Carlo convergence table for one measure")
    _add_source_flags(p_mc)
    _add_measure_flags(p_mc)
    _add_common_flags(p_mc)
    p_mc.add_argument("--seed", type=int, required=True,
                      help="base seed for the replicate streams")
    p_mc.add_argument("--reps", type=int, default=500,
                      help="replications per sample size (default 500)")
    p_mc.add_argument("--sizes", type=_sizes_arg, default=(100, 1000),
                      help="comma list of sample sizes (default 100,1000)")
    p_mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a value that overflows is reported as an error line
            return args.func(args, parser)
    except InputFormatError as exc:
        print(f"gmdinfo: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gmdinfo: error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NoConvergenceError) as exc:
        print(f"gmdinfo: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
