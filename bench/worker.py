"""Benchmark worker: builds one workload's inputs and runs it in-process.

Started by ``bench/run.py`` with the thread variables pinned and
``PYTHONPATH=src``; prints one JSON object as its last line.

``--setup`` only builds the inputs and exits: the launcher times it from
process start to exit.  Otherwise the worker runs the self-checks, then
either whole passes of the workload with tracing off (a fixed number per
workload and ``--seconds``, at least two), or the
traced run: one plain pass, one traced pass with counting models, then
the per-layer probes.
"""

import argparse
import json
import os
import resource
import sys
import warnings

import numpy as np
import scipy

import gmdinfo as g

import probes
import selfcheck
from stats import TooFewBeyond, median, percentile
from tracing import ModelCounter, Tracer
from workloads import OUT_DIR, failures, make_workload, run_pass

#: Each operation is timed at least this often in a plain run.
MIN_PASSES = 2
#: Seconds one pass of each workload took at the seed commit (2-vCPU Xeon VM,
#: see README.md).  A plain run makes round(seconds / PASS_S) passes, at least
#: MIN_PASSES.  The count does not depend on how fast the code under test is,
#: so two commits run at the same --seconds take each operation's fastest time
#: over the same number of passes.
PASS_S = {"pop-verify": 18.0, "pop-measures": 1.5, "sample": 7.5, "cli": 7.0}
KNOWN_FAILURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "known_failures.json")


def _peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest child (the CLI runs)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _tally(workload, passes) -> dict:
    """Attempts and failures over passes, split into known seed defects and the rest."""
    with open(KNOWN_FAILURES, encoding="utf-8") as fh:
        known = set(json.load(fh)["workloads"].get(workload.name, {}))
    failed, reasons, attempted = 0, {}, 0
    for res in passes:
        fails = failures(workload, res)
        attempted += len(res.latency_ms)
        failed += len(fails)
        reasons.update(fails)
    return {"attempted": attempted, "failed": failed,
            "refused": sum(len(res.refused) for res in passes),
            "failures": dict(sorted(reasons.items())),
            "unexpected": sorted(set(reasons) - known),
            "fixed": sorted(known - set(reasons))}


def _fastest(passes, scale) -> dict:
    """Each operation's smallest ``latency_ms * scale(res, key)`` over the passes."""
    out = {}
    for res in passes:
        for key, ms in res.latency_ms.items():
            val = ms * scale(res, key)
            out[key] = min(val, out.get(key, val))
    return out


def _p90(values) -> dict:
    try:
        return dict(zip(("value", "n", "beyond"), percentile(values, 90)))
    except TooFewBeyond as exc:
        return {"refused": str(exc)}


def plain_run(workload, seconds: float) -> dict:
    """Whole passes with tracing off, timed per operation.

    The host runs this process at a speed that drifts by up to 2x, for
    seconds to minutes at a time, and no in-guest counter sees it.  Each
    operation is therefore timed in units of the workload's fixed
    reference computation, timed just before and after it
    (``workload.reference``), and its cost is the
    smallest such ratio over the run's passes (see PASS_S for their
    number).  ``wall_ref`` sums these over the operation set; the
    percentiles are over them too.  The raw fastest times in ms are kept
    alongside.
    """
    count = max(MIN_PASSES, round(seconds / PASS_S[workload.name]))
    passes = [run_pass(workload.ops(), reference=workload.reference) for _ in range(count)]
    cost = list(_fastest(passes, lambda res, key: 1.0 / res.reference_ms[key]).values())
    raw_ms = list(_fastest(passes, lambda res, key: 1.0).values())
    return {
        "passes": len(passes),
        "pass_wall_s": [res.wall_s for res in passes],
        "ops": len(cost),
        "reference_ms_median": median([ms for res in passes
                                       for ms in res.reference_ms.values()]),
        "op_p90_ref": _p90(cost),
        "raw": {"wall_s": sum(raw_ms) / 1e3, "op_p50_ms": median(raw_ms),
                "op_p90_ms": _p90(raw_ms)},
        "metrics": {"wall_ref": sum(cost),
                    "op_p50_ref": median(cost),
                    "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli")},
        **_tally(workload, passes),
    }


def _pass_of(name, seed, own, tracer, select=lambda op: True):
    """A workload's plain pass: the run's own, or a fresh one under a probe span."""
    if name in own:
        return own[name]
    ops = [op for op in make_workload(name, seed).ops() if select(op)]
    with tracer.span(f"probe.{name}"):
        return ops, run_pass(ops, tracer)


def traced_run(workload, seed: int, spans_path: str) -> dict:
    plain_ops = workload.ops()
    plain = run_pass(plain_ops)
    counter, tracer = ModelCounter(), Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", g.ClippedTailWarning)
        with tracer.span("pass", workload.name):
            traced = run_pass(workload.ops(counter), tracer)
    metrics = {
        "trace.plain_pass_s": plain.wall_s,
        "trace.traced_pass_s": traced.wall_s,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
        **{f"models.{name}.calls": n for name, n in counter.calls.items()},
        "models.points": counter.points,
        "quadrature.clip_warnings": sum(
            issubclass(w.category, g.ClippedTailWarning) for w in caught),
    }
    own = {workload.name: (plain_ops, plain)}
    metrics.update(probes.pop_verify_metrics(*_pass_of("pop-verify", seed, own, tracer)))
    metrics.update(probes.pop_measures_metrics(*_pass_of("pop-measures", seed, own, tracer)))
    metrics.update(probes.sample_verify_metrics(*_pass_of(
        "sample", seed, own, tracer, lambda op: op.span == "identities.verify")))
    metrics.update(probes.cli_metrics(*_pass_of(
        "cli", seed, own, tracer, lambda op: op.key.endswith(".a"))))
    for probe in (probes.population_probe, probes.pwm_population_probe,
                  probes.quadrature_probe, probes.import_probe):
        with tracer.span(f"probe.{probe.__name__}"):
            metrics.update(probe(tracer))
    with tracer.span("probe.sample_layer_probe"):
        metrics.update(probes.sample_layer_probe(tracer, seed))
    tracer.write(spans_path)
    return {"passes": 2, "metrics": metrics, "spans": spans_path,
            "self_ms_by_span": tracer.self_ms_by_name(),
            **_tally(workload, [plain, traced])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.abspath(g.__file__).startswith(src + os.sep):
        print(f"worker: gmdinfo imported from {g.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    if args.setup:
        return 0

    problems = selfcheck.run_all()
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = traced_run(workload, args.seed, spans)
    else:
        result = plain_run(workload, args.seconds)
    result.update(selfcheck=problems,
                  versions={"python": sys.version.split()[0],
                            "numpy": np.__version__, "scipy": scipy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
