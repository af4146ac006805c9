"""Benchmark launcher for gmdinfo.

Run from the repository root:

    python3 bench/run.py --workload pop-verify --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another.  The
launcher uses the standard library only.  It pins the BLAS/OpenMP thread
variables to 1, times ``setup_s`` over fresh worker interpreters, starts
one worker process for the measurement, prints a readable report and
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones named in BENCHMARK.json; with
``--trace 1`` they are its per-layer ones.  Each result, with the
machine it ran on, is also written under ``bench/out/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("pop-verify", "pop-measures", "sample", "cli")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("bench", "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: setup_s is the median over this many fresh interpreters, after one untimed
#: start that writes the bytecode caches.
SETUP_RUNS = 7
#: Each start's wall time is scaled to a host on which reference_ms() takes
#: this long, its time on the 2-vCPU Xeon VM of README.md in its fast state.
REFERENCE_MS = 4.5
#: A run must end within 180 s; the worker gets what set-up leaves of this.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _worker(args, extra, env, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc


def reference_ms() -> float:
    """Time of a fixed pure-Python loop, in ms: how fast the host runs us now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 20000):
        u = i / 20000.0
        acc += math.log1p(-0.5 * u) * u**1.5 + math.exp(-u)
    return (time.perf_counter() - start) * 1e3


def _setup_times(args, env) -> tuple:
    """Raw and scaled seconds of SETUP_RUNS fresh starts.

    The host's speed drifts (see plain_run in worker.py), so each start
    is also scaled by REFERENCE_MS over the mean of the reference times
    just before and after it: seconds at a fixed nominal host speed.
    """
    raw, scaled = [], []
    before = reference_ms()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = _worker(args, ["--setup"], env, timeout=60.0)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed with exit code {proc.returncode}")
        after = reference_ms()
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_MS / (0.5 * (before + after)))
        before = after
    return raw, scaled


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def run_workload(args, spec: dict) -> dict:
    env = _env()
    started = time.perf_counter()
    setup_raw, setup = ([], []) if args.trace else _setup_times(args, env)
    budget = RUN_BUDGET_S - (time.perf_counter() - started)
    proc = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   env, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_runs_s"] = setup
        result["setup_raw_runs_s"] = setup_raw
    names = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in names}
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine={**_machine(), **result.pop("versions")})
    result["correct"] = not result["unexpected"] and not result["selfcheck"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    m = result["machine"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"nproc {m['nproc']}  cpu {m['cpu']!r}  python {m['python']}  "
          f"numpy {m['numpy']}  scipy {m['scipy']}")
    print(f"passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  refused {result['refused']}  "
          f"fail_frac {result['failed'] / max(result['attempted'], 1):.4f} ratio")
    for key, why in result["failures"].items():
        tag = "UNEXPECTED" if key in result["unexpected"] else "known"
        print(f"  {tag} failure {key}: {why}")
    for key in result["fixed"]:
        print(f"  known failure now passing: {key}")
    for problem in result["selfcheck"]:
        print(f"  SELF-CHECK {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if "raw" in result:
        raw = result["raw"]
        print(f"raw fastest times: wall_s = {raw['wall_s']:.6g} s, "
              f"op_p50_ms = {raw['op_p50_ms']:.6g} ms; "
              f"reference computation median {result['reference_ms_median']:.4g} ms; "
              f"raw setup median {statistics.median(result['setup_raw_runs_s']):.4g} s")
        for name, p90 in (("op_p90_ref", result["op_p90_ref"]), ("op_p90_ms", raw["op_p90_ms"])):
            print(f"{name} = " + (f"{p90['value']:.6g} (n={p90['n']}, {p90['beyond']} beyond)"
                                  if "value" in p90 else f"refused: {p90['refused']}"))
    print(f"result written to {os.path.join(OUT_DIR, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gmdinfo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gmdinfo", "__init__.py")):
        print("bench: run from a gmdinfo checkout (src/gmdinfo not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                        spec))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    metrics = (results[0]["metrics"] if len(results) == 1 else
               {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()})
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
