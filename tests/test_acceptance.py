"""Acceptance gate.

One test per shipped guarantee, each enforcing its stated tolerance and
runtime budget and finishing with a single ``criterion N: PASS`` line
(the per-test pass/fail line is the ``pytest -v`` report row).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gmdinfo import (
    Exponential,
    MeasureSpec,
    Pareto,
    Uniform,
    Weibull,
    gmd,
    gmd_via_pwm,
    make_sample,
    mean_past_life,
    measure_population,
    measure_sample,
    pwm_unbiased_beta,
    verify_all,
)
from oracles import (
    brute_gain_premium,
    brute_gmd,
    brute_gmd_left,
    brute_gmd_right,
    brute_h_dyn,
    brute_j_dyn,
    brute_risk_premium,
)

CLI = [sys.executable, "-m", "gmdinfo"]


def pop(model, mid, route="auto", **params):
    return measure_population(model, MeasureSpec(mid, **params), route=route)


def sample_value(sample, mid, **params):
    return measure_sample(sample, MeasureSpec(mid, **params))[0]


def test_c1_closed_form_population_values():
    """Hand-integrated targets at 1e-8, under one second each."""
    cases = [
        (lambda: pop(Uniform(0.0, 1.0), "gmd"), 1.0 / 3.0),
        (lambda: pop(Exponential(1.0), "gmd"), 1.0),
        (lambda: pop(Exponential(0.5), "gmd"), 0.5),
        (lambda: pop(Exponential(2.0), "gmd"), 2.0),
        (lambda: pop(Exponential(1.0), "crj"), -0.25),
        (lambda: pop(Exponential(1.0), "cj"), -0.75),
        (lambda: pop(Uniform(0.0, 1.0), "crj"), -1.0 / 6.0),
        (lambda: pop(Uniform(0.0, 1.0), "cj"), -1.0 / 3.0),
        (lambda: pop(Exponential(1.0), "crt", alpha=2.0), 0.5),
        (lambda: pop(Exponential(1.0), "s_gini", v=2.0), 0.25),
    ]
    for t in (0.0, 0.5, 2.0):
        cases.append((lambda t=t: pop(Exponential(1.0), "j_dyn", t=t), -0.25))
    for t in (0.25, 0.5, 0.9):
        cases.append((lambda t=t: pop(Uniform(0.0, 1.0), "h_dyn", t=t), -t / 6.0))
    for thunk, target in cases:
        start = time.perf_counter()
        value = thunk()
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(target, abs=1e-8)
        assert elapsed < 1.0
    print("criterion 1: PASS")


def test_c2_identity_suite_population():
    """verify_all is 14/14 on every stock model, within 10 seconds total."""
    models = [
        Uniform(0.0, 1.0),
        Exponential(0.5), Exponential(1.0), Exponential(2.0),
        Weibull(0.5, 1.0), Weibull(1.0, 1.0), Weibull(2.0, 1.0),
        Pareto(3.0, 1.0),
    ]
    start = time.perf_counter()
    for model in models:
        reports = verify_all(model)
        assert len(reports) == 14, model.describe()
        bad = [(r.identity, r.abs_residual) for r in reports if not r.passed]
        assert not bad, f"{model.describe()}: {bad}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity sweep took {elapsed:.1f}s"
    print("criterion 2: PASS")


def test_c3_exact_sample_identities():
    """Machine-precision estimator algebra on 1000 random samples."""
    rng = np.random.default_rng(20260816)
    draws = [
        lambda rng, n: rng.random(n),
        lambda rng, n: rng.exponential(1.0, n),
        lambda rng, n: rng.weibull(0.7, n),
        lambda rng, n: (1.0 - rng.random(n)) ** (-1.0 / 3.0),
    ]
    for i in range(1000):
        n = int(rng.integers(2, 201))
        x = draws[i % len(draws)](rng, n)
        sample = make_sample(x)
        g = gmd(sample)
        tol = 1e-12 * max(1.0, abs(g))
        assert abs(gmd_via_pwm(sample) - g) <= tol
        assert abs(sample_value(sample, "risk_premium", k=2)
                   + sample_value(sample, "gain_premium", k=2) - g) <= tol
        crt2, route = measure_sample(sample, MeasureSpec("crt", alpha=2.0))
        assert route == "unbiased-pwm"
        assert abs(crt2 - 0.5 * g) <= tol
        shuffled = x.copy()
        rng.shuffle(shuffled)
        assert gmd(make_sample(shuffled)) == g
        assert abs(gmd(make_sample(x + 2.5)) - g) <= tol
    print("criterion 3: PASS")


def test_c4_brute_force_equivalence():
    """Pairwise/k-tuple estimators vs exhaustive enumeration, n <= 8."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    checks = 0
    for i in range(220):
        n = int(rng.integers(2, 9))
        if i % 3 == 0:  # force ties regularly
            x = rng.integers(0, 4, size=n).astype(float)
        else:
            x = rng.gamma(2.0, 1.0, size=n)
        sample = make_sample(x)
        x = sample.values
        assert abs(gmd(sample) - brute_gmd(x)) <= 1e-12
        checks += 1
        for k in (2, 3):
            if sample.n < k:
                continue
            for mid, brute in (("risk_premium", brute_risk_premium),
                               ("gain_premium", brute_gain_premium)):
                assert abs(sample_value(sample, mid, k=k) - brute(x, k)) <= 1e-12
            checks += 2
        distinct = np.unique(x)
        for t in 0.5 * (distinct[:-1] + distinct[1:]):
            t = float(t)
            if np.sum(x > t) >= 2:
                assert abs(
                    measure_sample(sample, MeasureSpec("gmd_left", t=t))[0]
                    - brute_gmd_left(x, t)) <= 1e-12
                assert abs(
                    measure_sample(sample, MeasureSpec("j_dyn", t=t))[0]
                    - brute_j_dyn(x, t)) <= 1e-12
                checks += 2
            if np.sum(x <= t) >= 2:
                assert abs(
                    measure_sample(sample, MeasureSpec("gmd_right", t=t))[0]
                    - brute_gmd_right(x, t)) <= 1e-12
                assert abs(
                    measure_sample(sample, MeasureSpec("h_dyn", t=t))[0]
                    - brute_h_dyn(x, t)) <= 1e-12
                checks += 2
    elapsed = time.perf_counter() - start
    assert checks > 2000, f"only {checks} comparisons ran"
    assert elapsed < 10.0, f"brute-force sweep took {elapsed:.1f}s"
    print("criterion 4: PASS")


def test_c5_consistency_protocol():
    """Bias and RMSE of five estimators shrink from n=100 to n=10000."""
    start = time.perf_counter()
    model = Exponential(1.0)
    measures = {
        "gmd": (lambda s: gmd(s), 1.0),
        "crj": (lambda s: sample_value(s, "crj"), -0.25),
        "ce": (lambda s: sample_value(s, "ce"), -0.25),
        "crt2": (lambda s: sample_value(s, "crt", alpha=2.0), 0.5),
        "s_gini2": (lambda s: sample_value(s, "s_gini", v=2.0), 0.25),
    }
    reps, seed = 500, 42
    stats = {}  # (measure, n) -> (bias, rmse)
    for n in (100, 10_000):
        estimates = {name: np.empty(reps) for name in measures}
        for rep in range(reps):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([seed, n, rep])))
            sample = make_sample(model.sample(n, rng))
            for name, (est, _) in measures.items():
                estimates[name][rep] = est(sample)
        for name, (_, target) in measures.items():
            err = estimates[name] - target
            stats[name, n] = (float(np.mean(err)),
                              float(np.sqrt(np.mean(err**2))))
    for name, (_, target) in measures.items():
        bias_small, rmse_small = stats[name, 100]
        bias_big, rmse_big = stats[name, 10_000]
        assert rmse_big < rmse_small, (name, rmse_small, rmse_big)
        assert abs(bias_big) < 0.01 * abs(target), (name, bias_big)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"consistency protocol took {elapsed:.1f}s"
    print("criterion 5: PASS")


def test_c6_unbiasedness_of_b1():
    """b_1 over 10^4 uniform samples of n=20 sits within 4 standard errors."""
    reps, n = 10_000, 20
    rng = np.random.default_rng(606060)
    estimates = np.empty(reps)
    for rep in range(reps):
        estimates[rep] = pwm_unbiased_beta(make_sample(rng.random(n)), 1)
    se = float(np.std(estimates, ddof=1)) / np.sqrt(reps)
    assert abs(float(np.mean(estimates)) - 1.0 / 3.0) < 4.0 * se
    print("criterion 6: PASS")


def test_c7_sign_correction_pin():
    """The decomposition of the head dispersion gap is +2*H_t + r(t);
    the sign-flipped form is pinned as NOT matching, permanently."""
    model, t = Uniform(0.0, 1.0), 0.5
    lhs = pop(model, "gmd_right", t=t, route="quantile")
    h = pop(model, "h_dyn", t=t)
    r = mean_past_life(model, t)
    assert lhs == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert 2.0 * h + r == pytest.approx(1.0 / 12.0, abs=1e-8)
    flipped = -2.0 * h - r
    assert flipped == pytest.approx(-1.0 / 12.0, abs=1e-8)
    assert abs(flipped - lhs) > 1e-3  # the literal published form cannot hold
    print("criterion 7: PASS")


def test_c8_cli_contract(tmp_path):
    """The documented example invocations, byte-for-byte reproducible."""
    data = tmp_path / "d.csv"
    data.write_text("1\n2\n3\n")

    def run(*argv):
        return subprocess.run(CLI + list(argv), capture_output=True, text=True)

    # compute examples
    res = run("compute", "--input", str(data), "--measure", "gmd")
    assert res.returncode == 0
    rec = json.loads(res.stdout.splitlines()[0])
    assert rec["measure"] == "gmd"
    assert rec["value"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    res = run("compute", "--dist", "exp", "--mean", "1", "--measure", "crj")
    assert res.returncode == 0
    rec = json.loads(res.stdout.splitlines()[0])
    assert rec["value"] == pytest.approx(-0.25, abs=1e-8)
    res = run("compute", "--input", str(data), "--measure", "crt", "--alpha", "1")
    assert res.returncode == 3
    assert "alpha must differ from 1" in res.stderr

    # verify examples
    res = run("verify", "--dist", "uniform", "--a", "0", "--b", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1] == "passed 14/14"
    res = run("verify", "--input", str(data), "--level", "sample")
    assert res.returncode == 0
    reports = [json.loads(line) for line in res.stdout.splitlines()
               if line.startswith("{")]
    assert reports and all(rep["level"] == "sample" for rep in reports)
    res = run("verify", "--dist", "pareto", "--shape", "1.5")
    assert res.returncode == 3
    assert "pareto shape must exceed 2" in res.stderr

    # mc examples
    argv = ("mc", "--dist", "exp", "--mean", "1", "--measure", "gmd",
            "--sizes", "100,1000", "--reps", "500", "--seed", "42")
    first = run(*argv)
    assert first.returncode == 0
    rows = [json.loads(line) for line in first.stdout.splitlines()]
    assert [row["n"] for row in rows] == [100, 1000]
    assert abs(rows[1]["bias"]) < abs(rows[0]["bias"])
    assert rows[1]["rmse"] < rows[0]["rmse"]
    second = run(*argv)
    assert second.stdout == first.stdout
    res = run("mc", "--dist", "exp", "--measure", "gmd",
              "--sizes", "1", "--seed", "42")
    assert res.returncode == 3
    assert "need at least 2 observations" in res.stderr
    print("criterion 8: PASS")
