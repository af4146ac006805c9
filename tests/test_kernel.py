"""The blocked rank-sum kernel behind every sample PWM estimator.

``pwm._rank_sums`` walks the sorted sample in blocks of ``pwm._BLOCK``
ranks.  These tests check it against the full-array estimators kept in
``oracles.py`` (and against exact binomial weights in rational
arithmetic) at sizes around the block edges, check that every PWM-form
measure and every fused identity side costs one walk, and that no
length-n temporary is made on those paths.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdinfo import (
    ECDF_CONVENTIONS,
    MEASURE_IDS,
    REGISTRY,
    BadParameterError,
    MeasureSpec,
    TooFewObservationsError,
    make_sample,
    measure_sample,
)
from gmdinfo import pwm
from gmdinfo.identities import _plugin_cov
from gmdinfo.pwm import _BLOCK, _fused, _rank_sums
from oracles import (
    exact_order_weighted_mean,
    full_plugin_cov,
    full_positions,
    full_pwm_plugin,
    full_rank_weighted_mean,
    full_step_integrals,
)

B = _BLOCK
SIZES = (1, 2, B - 1, B, B + 1, 2 * B + 3)
REL = 1e-12


def data(n: int, ties: bool, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).exponential(1.0, n)
    return np.sort(np.round(x, 1) if ties else x)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


exponent = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, -0.5]),
                     st.floats(-1.0, 5.0, exclude_min=True, allow_nan=False))
plugin_term = st.tuples(st.sampled_from([0, 1, 2]), exponent, exponent)
sample_args = dict(n=st.sampled_from(SIZES), ties=st.booleans(),
                   seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(conv=st.sampled_from(ECDF_CONVENTIONS),
       terms=st.lists(plugin_term, min_size=1, max_size=4), **sample_args)
def test_plugin_terms_match_full_array(n, ties, seed, conv, terms):
    x = data(n, ties, seed)
    if conv == "naive" and min(s for _, _, s in terms) < 0:
        with pytest.raises(BadParameterError, match="negative s exponent needs u_n < 1"):
            _rank_sums(x, conv, [(p, r, s, False) for p, r, s in terms])
        return
    means, steps = _rank_sums(x, conv, [(p, r, s, False) for p, r, s in terms])
    assert steps == []
    for (p, r, s), got in zip(terms, means):
        assert close(got, full_pwm_plugin(x, p, r, s, conv)), (p, r, s)


@settings(max_examples=40, deadline=None)
@given(orders=st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=4),
       **sample_args)
def test_exact_terms_match_full_array(n, ties, seed, orders):
    x = data(n, ties, seed)
    terms = [(1, 0, order, True) if top else (1, order, 0, True) for order, top in orders]
    if n <= max(order for order, _ in orders):
        with pytest.raises(TooFewObservationsError, match=f"needs n > .*, got n={n}"):
            _rank_sums(x, "hazen", terms)
        return
    means, _ = _rank_sums(x, "hazen", terms)
    for (order, top), got in zip(orders, means):
        assert close(got, full_rank_weighted_mean(x, order, reverse=top)), (order, top)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40])
@pytest.mark.parametrize("ties", [False, True])
def test_exact_terms_match_binomial_fractions(n, ties):
    x = data(n, ties, 1000 + n)
    for order in range(min(n, 6)):
        (b, a), _ = _rank_sums(x, "hazen", [(1, order, 0, True), (1, 0, order, True)])
        assert close(b, exact_order_weighted_mean(x, order, reverse=False))
        assert close(a, exact_order_weighted_mean(x, order, reverse=True))


_GAPS = [lambda F: (1 - F) - (1 - F) ** 2.0, lambda F: F - F**3.0,
         lambda F: (1 - F) ** 1.5 - (1 - F) ** 2.5, lambda F: F**0.5 + 0 * F]


@settings(max_examples=30, deadline=None)
@given(gaps=st.lists(st.sampled_from(_GAPS), min_size=1, max_size=4), **sample_args)
def test_gap_sums_match_full_array(n, ties, seed, gaps):
    x = data(n, ties, seed)
    means, steps = _rank_sums(x, "hazen", [(1, 0.0, 0.0, True)], gaps)
    assert close(means[0], float(np.mean(x)))
    for got, want in zip(steps, full_step_integrals(x, gaps)):
        assert close(got[0], want[0]) and close(got[1], want[1])


@settings(max_examples=30, deadline=None)
@given(conv=st.sampled_from(ECDF_CONVENTIONS), r=st.sampled_from([0.0, 1.0, 2.0]),
       s=st.sampled_from([0.0, 1.0, 2.0]), **sample_args)
def test_plugin_cov_matches_full_array(n, ties, seed, conv, r, s):
    x = data(n, ties, seed)
    u = full_positions(n, conv)
    cov = _fused(x, conv, lambda T: _plugin_cov(T, r, s))[0]
    want = full_plugin_cov(x, u**r * (1.0 - u) ** s)
    # a covariance is a difference: compare on the scale of its two products
    assert abs(cov - want) <= REL * float(np.mean(x))


def test_the_zero_moment_is_one_exactly():
    assert _rank_sums(data(2 * B + 3, False, 0), "naive", [(0, 0.0, 0.0, False)])[0] == [1.0]


# ---------------------------------------------------------------------------
# one walk per measure and per identity side, and no length-n temporary

_PARAMS = {"s_gini": {"v": 2.5}, "crt": {"alpha": 2.5}, "wcrt": {"alpha": 2.5},
           "ct": {"alpha": 2.5}, "wct": {"alpha": 2.5}, "sr": {"alpha": 1.5, "beta": 2.5},
           "sp": {"alpha": 1.5, "beta": 2.5}, "srw": {"alpha": 1.5, "beta": 2.5},
           "spw": {"alpha": 1.5, "beta": 2.5}, "risk_premium": {"k": 3},
           "gain_premium": {"k": 3}, "pwm": {"p": 2, "r": 1.5, "s": 0.5}}
PWM_FORM_IDS = sorted(mid for mid, entry in MEASURE_IDS.items() if entry.pwm is not None)
FUSED_SIDES = ("I2", "I3", "I9", "I10", "I11", "I12", "I14")
SIDES = {ident.id: ident.sample_sides for ident in REGISTRY}


@pytest.fixture(scope="module")
def million():
    return make_sample(np.random.default_rng(7).exponential(1.0, 10**6))


@pytest.fixture
def walks(monkeypatch):
    calls = []
    kernel = pwm._rank_sums

    def counted(*args, **kw):
        calls.append(args[2])
        return kernel(*args, **kw)

    monkeypatch.setattr(pwm, "_rank_sums", counted)
    return calls


@pytest.mark.parametrize("mid", [mid for mid in PWM_FORM_IDS if MEASURE_IDS[mid].sample is None])
def test_a_pwm_form_is_one_walk(mid, walks):
    sample = make_sample(np.random.default_rng(3).exponential(1.0, 3 * B))
    measure_sample(sample, MeasureSpec(mid, **_PARAMS.get(mid, {})))
    assert len(walks) == 1


@pytest.mark.parametrize("iid", FUSED_SIDES)
def test_a_fused_identity_side_is_one_walk(iid, walks):
    sample = make_sample(np.random.default_rng(3).exponential(1.0, 3 * B))
    SIDES[iid](sample, "hazen")
    assert len(walks) == 1


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mid", PWM_FORM_IDS)
def test_pwm_form_measures_make_no_length_n_temporary(mid, million):
    spec = MeasureSpec(mid, **_PARAMS.get(mid, {}))
    assert _traced_peak(lambda: measure_sample(million, spec)) <= 2 * 2**20


@pytest.mark.parametrize("iid", FUSED_SIDES)
def test_fused_identity_sides_make_no_length_n_temporary(iid, million):
    assert _traced_peak(lambda: SIDES[iid](million, "hazen")) <= 2 * 2**20


def test_cli_output_does_not_depend_on_blas_threads(tmp_path):
    path = tmp_path / "x.csv"
    x = np.random.default_rng(11).pareto(3.0, 5 * B + 7) + 1.0
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    argv = [sys.executable, "-m", "gmdinfo", "compute", "--input", str(path),
            "--measure", "crj", "--measure", "crt", "--alpha", "2.5", "--measure", "wcrt",
            "--alpha", "3", "--measure", "sr", "--alpha", "1.5", "--beta", "2.5",
            "--measure", "pwm", "--p", "2", "--r", "1.5", "--s", "0.5"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 5
