"""The blocked walks behind every sample estimator.

``pwm._rank_sums``, the step sums of I10/I11, the rank-linear sums of the
pairwise means, the generalized entropies and the truncation point of I5/I6
walk the sorted sample in blocks of ``_BLOCK`` ranks, and the first three read
their whole rows of 512 ranks from matrix products.  These tests check them
against the full-array estimators kept in ``oracles.py`` (and against exact
binomial weights in rational arithmetic, brute-force loops and the exhaustive
truncation rule) at sizes and tie layouts around the block edges, check that
every PWM-form measure and every identity side that reads PWM forms costs one
kernel walk, and that no sample measure or identity side makes a length-n
temporary.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

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
    PhiSelector,
    TooFewObservationsError,
    WeightSelector,
    generalized_cumulative_entropy,
    generalized_residual_entropy,
    gmd_via_pwm,
    make_sample,
    measure_sample,
    pairwise_max_mean,
    pairwise_min_mean,
    plotting_positions,
    verify_all,
)
from gmdinfo import identities, measures, pwm
from gmdinfo.empirical import _block_positions, _position_rule
from gmdinfo.identities import _cov, _pick_t, _step_sums
from gmdinfo.measures import _ge_values, _sample_values, _sorted_gmd
from gmdinfo.pwm import _BLOCK, _DEGREE, _rank_sums
from oracles import (
    brute_gce,
    brute_ge,
    brute_pick_t,
    exact_gce,
    exact_ge,
    exact_order_weighted_fraction,
    exact_order_weighted_mean,
    exact_plugin_mean,
    exact_step_integrals,
    full_gce,
    full_ge,
    full_plugin_cov,
    full_positions,
    full_pwm_plugin,
    full_rank_weighted_mean,
    full_step_integrals,
)

B = _BLOCK
SIZES = (1, 2, B - 1, B, B + 1, 2 * B + 3)
#: more whole blocks than one matrix product takes, and a last block past the last full row
CHUNKED = 9 * B + 517
#: the least n whose kernel walk reads rows: _TABLE_ROWS_FROM whole rows past _DEGREE ranks at
#: each end
ROWS_FROM = 2 * _DEGREE + pwm._TABLE_ROWS_FROM * pwm._ROW
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
    means = _rank_sums(x, conv, [(p, r, s, False) for p, r, s in terms])
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
    means = _rank_sums(x, "hazen", terms)
    for (order, top), got in zip(orders, means):
        assert close(got, full_rank_weighted_mean(x, order, reverse=top)), (order, top)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40, B - 1, B, B + 1, 2 * B + 1, 2 * B + 2,
                               2 * B + 3, ROWS_FROM - 1, ROWS_FROM, CHUNKED])
@pytest.mark.parametrize("kind", ["continuous", "ties", "huge-top"])
def test_exact_terms_match_binomial_fractions(n, kind):
    """b_r and a_s to 1e-15 of exact rationals, formed per block below ROWS_FROM and read from
    rows from it on.  With the top three values at 1e28-1e30, a_s is 0 on them for s >= 3: an
    a_3 that cancelled their terms instead of leaving them out would be off by far more than
    its own size."""
    x = data(n, kind == "ties", 1000 + n)
    if kind == "huge-top":
        x[max(n - 3, 0):] = (1e28, 1e29, 1e30)[-min(n, 3):]
    for order in range(min(n, 6)):
        b, a = _rank_sums(x, "hazen", [(1, order, 0, True), (1, 0, order, True)])
        for got, top in ((b, False), (a, True)):
            want = exact_order_weighted_mean(x, order, reverse=top)
            assert abs(got - want) <= 1e-15 * want, (order, top, got, want)


#: the monomial gaps F^a G^b, G = 1 - F, that _step_sums takes: I10's and I11's are sums of them
_GAPS = [(1, 1), (1, 2), (2, 1)]
#: sizes on both sides of the step rows' break-even, and one of two matrix products
STEP_SIZES = SIZES + (pwm._STEP_ROWS_FROM - 1, pwm._STEP_ROWS_FROM, CHUNKED)


@settings(max_examples=30, deadline=None)
@given(gaps=st.lists(st.sampled_from(_GAPS), min_size=1, max_size=4),
       **dict(sample_args, n=st.sampled_from(STEP_SIZES)))
def test_gap_sums_match_full_array(n, ties, seed, gaps):
    x = data(n, ties, seed)
    steps = _step_sums(x, gaps)
    assert len(steps) == len(gaps)
    wants = full_step_integrals(x, [lambda F, a=a, b=b: F**a * (1 - F) ** b for a, b in gaps])
    for got, want in zip(steps, wants):
        assert close(got[0], want[0]) and close(got[1], want[1])


@pytest.mark.parametrize("n", [3000, 30000, CHUNKED])
@pytest.mark.parametrize("kind", ["pareto", "exponential", "ties", "huge-top"])
def test_step_sides_match_exact_rationals(kind, n):
    """I10's and I11's step-ECDF sides to 1e-15 of exact rationals: each gap is a sum of
    non-negative monomials in F and 1 - F, with no difference to cancel.  n = 3000 takes the
    per-block walk; 30000 and CHUNKED read whole rows and walk a partial last row, on tied data
    too, and with the top three values at 1e28-1e30."""
    assert 3000 < pwm._STEP_ROWS_FROM < 30000
    rng = np.random.default_rng(n)
    x = rng.pareto(3.0, n) + 1.0 if kind == "pareto" else rng.exponential(1.0, n)
    x = np.sort(np.round(x, 1) if kind == "ties" else x)
    if kind == "huge-top":
        x[-3:] = (1e28, 1e29, 1e30)
    sample = make_sample(x)
    for iid, orders in (("I10", ((1, 2), (1, 3))), ("I11", ((1, 2), (2, 3)))):
        pairs = SIDES[iid](sample, "hazen")
        for j, (k, l) in enumerate(orders):
            (surv, surv_x), (dist, dist_x) = exact_step_integrals(x, k, l)
            for (got, _), want in zip(pairs[4 * j:4 * j + 4], (surv, dist, surv_x, dist_x)):
                want /= l - k
                assert abs(got - want) <= 1e-15 * want, (iid, k, l, got, want)


@pytest.mark.parametrize("n", [pwm._RANK_ROWS_FROM - 1, pwm._RANK_ROWS_FROM, CHUNKED])
@pytest.mark.parametrize("kind", ["continuous", "ties", "huge-top"])
def test_rank_linear_sums_match_exact_rationals(n, kind):
    """The pairwise min and max means, 2 a_1 and 2 b_1, and the sorted GMD of x and x^2 to
    1e-15 of exact rationals, walked per block below the break-even and read from rows from it
    on, a partial last row among them at CHUNKED."""
    assert pwm._RANK_ROWS_FROM < CHUNKED
    x = data(n, kind == "ties", 2000 + n)
    if kind == "huge-top":
        x[-3:] = (1e28, 1e29, 1e30)
    squares = [Fraction(v) ** 2 for v in x]
    gots = (pairwise_min_mean(x), pairwise_max_mean(x), _sorted_gmd(x), _sorted_gmd(x, 2.0))
    wants = (2 * exact_order_weighted_fraction(x, 1, True),
             2 * exact_order_weighted_fraction(x, 1, False),
             2 * (exact_order_weighted_fraction(x, 1, False)
                  - exact_order_weighted_fraction(x, 1, True)),
             2 * (exact_order_weighted_fraction(squares, 1, False)
                  - exact_order_weighted_fraction(squares, 1, True)))
    for k, (got, want) in enumerate(zip(gots, wants)):
        assert abs(got - want) <= 1e-15 * want, (k, got, float(want))


@settings(max_examples=30, deadline=None)
@given(conv=st.sampled_from(ECDF_CONVENTIONS), r=st.sampled_from([0.0, 1.0, 2.0]),
       s=st.sampled_from([0.0, 1.0, 2.0]), **sample_args)
def test_plugin_cov_matches_full_array(n, ties, seed, conv, r, s):
    x = data(n, ties, seed)
    u = full_positions(n, conv)
    (cov, route), = _sample_values(x, [_cov(r, s)], conv)
    want = full_plugin_cov(x, u**r * (1.0 - u) ** s)
    assert route == "plugin-pwm"
    # a covariance is a difference: compare on the scale of its two products
    assert abs(cov - want) <= REL * float(np.mean(x))


@pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
def test_values_near_the_largest_float_stay_finite_and_exact(conv):
    """Values near 1e300 summed over a block stay below the largest float, and so does every
    term, as no weight exceeds 1: b_r, a_s and the one-sided integer plug-ins are finite and
    within 1e-15 of exact rationals."""
    x = 1e300 * (1.0 + data(2 * B + 3, False, 5))
    orders = range(_DEGREE + 2)
    terms = ([(1, e, 0, True) for e in orders] + [(1, 0, e, True) for e in orders]
             + [(1, e, 0, False) for e in orders] + [(1, 0, e, False) for e in orders])
    means = _rank_sums(x, conv, terms)
    wants = ([exact_order_weighted_mean(x, e, reverse=False) for e in orders]
             + [exact_order_weighted_mean(x, e, reverse=True) for e in orders]
             + [exact_plugin_mean(x, e, 0, conv) for e in orders]
             + [exact_plugin_mean(x, 0, e, conv) for e in orders])
    for term, got, want in zip(terms, means, wants):
        assert np.isfinite(got) and abs(got - want) <= 1e-15 * want, (term, got, want)


@pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
def test_chunked_plugin_terms_match_exact_rationals(conv):
    """One-sided integer plug-ins of x^0, x^1 and x^2 at both ends, to 1e-15 of exact rationals
    at an n whose whole blocks take two matrix products, on tied data, where every rank of a
    row can hold the same value."""
    x = data(CHUNKED, True, 12)
    powers = {p: [Fraction(v) ** p for v in x] for p in (0, 1, 2)}
    terms = [(p, r, s, False) for p in (0, 1, 2) for r, s in ((3, 0), (0, 3), (1, 0), (0, 2))]
    for (p, r, s, _), got in zip(terms, _rank_sums(x, conv, terms)):
        want = exact_plugin_mean(powers[p], r, s, conv)
        assert abs(got - want) <= 1e-15 * want, (p, r, s, got, want)


@pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
def test_one_minus_u_past_the_table_is_exact(conv):
    """(1-u)^s of an order past the row table is formed per block from 1 - u, which is
    made from the ranks as u is; as 1.0 - u it lost about n eps of its relative accuracy at
    the top, where it is smallest, and so 4e-12 of M_{1,0,4} on data whose top two values
    are 1e20 and 1e22.  p = 2 reads x^2 as exact fractions."""
    x = data(5 * B + 2, False, 9)
    x[-2:] = (1e20, 1e22)
    squares = [Fraction(v) ** 2 for v in x]
    for s in (4, 5):
        means = _rank_sums(x, conv, [(1, 0.0, s, False), (2, 0.0, s, False)])
        for got, values in zip(means, (x, squares)):
            want = exact_plugin_mean(values, 0, s, conv)
            assert abs(got - want) <= 1e-15 * want, (s, got, want)

def test_the_row_table_is_exact():
    """(t/512)^j is t^j over a power of 2, so the rows' table holds it exactly, counted up and
    down, and so do its column sums."""
    row = pwm._ROW
    t = np.arange(row, dtype=float)
    assert pwm._TABLE.shape == (row, 2 * _DEGREE) and pwm._TABLE_SUMS[0] == row
    for j in range(1, _DEGREE + 1):
        for column, ranks in ((j - 1, t), (_DEGREE + j - 1, t[::-1])):
            assert np.array_equal(pwm._TABLE[:, column] * float(row) ** j, ranks**j)
            assert pwm._TABLE_SUMS[column + 1] * row**j == sum(int(k) ** j for k in ranks)


@pytest.mark.parametrize("n", [B - 1, B + 1, 3 * B + 5])
def test_rank_arrays_are_their_aranges(n, monkeypatch):
    """Bit for bit, at every block of n: the plotting positions, and the rank arrays from which
    the kernel forms 1 - u and the b and a weights, as the aranges they replace made them."""
    made = []
    ranks = pwm._ranks
    monkeypatch.setattr(pwm, "_ranks", lambda *args, **kw: made.append(ranks(*args, **kw))
                        or made[-1])
    x = data(n, False, n)
    for conv in ECDF_CONVENTIONS:
        c, d = _position_rule(n, conv)
        made.clear()
        _rank_sums(x, conv, [(1, 0, 1.5, False), (1, 5, 0, True), (1, 0, 5, True)])
        want = []
        for lo in range(0, n, B):
            hi = min(lo + B, n)
            assert np.array_equal(_block_positions(lo, hi, n, conv), np.arange(lo + c, hi + c) / d)
            want += [np.arange(d - lo - c, d - hi - c, -1.0), np.arange(lo, hi, dtype=float),
                     np.arange(n - 1.0 - lo, n - 1.0 - hi, -1.0)]
        assert len(made) == len(want)
        for got, arange in zip(made, want):
            assert got.dtype == arange.dtype and np.array_equal(got, arange)


def test_the_zero_moment_is_one_exactly():
    assert _rank_sums(data(2 * B + 3, False, 0), "naive", [(0, 0.0, 0.0, False)]) == [1.0]


# ---------------------------------------------------------------------------
# the generalized entropies and the truncation point, at the block edges

LAYOUTS = ("continuous", "straddling", "long-run", "all-equal", "all-zero")
WEIGHTS = (WeightSelector("const", c=2.5), WeightSelector("cdf-power", j=1.5),
           WeightSelector("sf-power", j=2.0))
PHI = PhiSelector(2.0, 1.5)
NEEDS = ((2, 0), (0, 2), (0, 0), (1, 1))


def layout(n: int, kind: str, block: int = B) -> np.ndarray:
    """Sorted data of size n whose tie runs sit as kind says against edges of the given block."""
    x = np.sort(np.random.default_rng(n).exponential(1.0, n))
    if kind == "straddling":  # a run of 7 across every block edge
        for edge in range(block, n, block):
            x[max(edge - 3, 0):edge + 4] = x[max(edge - 3, 0)]
    elif kind == "long-run":  # one run over more than two blocks, from mid-block
        x[block // 2:block // 2 + 2 * block + 3] = x[block // 2]
    elif kind == "top-run":  # the largest value fills more than two blocks
        x[-(2 * block + 3):] = x[-1]
    elif kind == "all-equal":
        x[:] = 1.7
    elif kind == "all-zero":
        x[:] = 0.0
    return x


def data_units(x: np.ndarray) -> float:
    """1e-12 in phi's units on x: the mean of phi (0 on all-zero data, where equality is asked)."""
    return 1e-12 * float(np.mean(PHI(x)))


@pytest.mark.parametrize("kind", LAYOUTS)
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3, 5 * B + 11])
def test_generalized_entropies_match_full_arrays_at_block_edges(n, kind):
    x = layout(n, kind)
    sample = make_sample(x)
    for conv in ECDF_CONVENTIONS:
        for w in WEIGHTS:
            got = generalized_residual_entropy(sample, w, PHI, conv)
            assert abs(got - full_ge(x, w, PHI, conv)) <= data_units(x), (conv, w)
            got = generalized_cumulative_entropy(sample, w, PHI, conv)
            assert abs(got - full_gce(x, w, PHI, conv)) <= data_units(x), (conv, w)


@pytest.mark.parametrize("kind", ["long-run", "top-run"])
def test_generalized_entropies_match_exact_sums_on_long_runs(kind):
    """Each tie run reads phi's sum at its own boundary, so a run over several blocks, or one
    that holds most of phi's mass, costs no accuracy against run-by-run sums in rationals."""
    x = layout(2 * B + 8, kind)
    sample = make_sample(x)
    for w in WEIGHTS:
        got = generalized_residual_entropy(sample, w, PHI)
        assert abs(got - exact_ge(x, w, PHI, "hazen")) <= data_units(x), w
        got = generalized_cumulative_entropy(sample, w, PHI)
        assert abs(got - exact_gce(x, w, PHI, "hazen")) <= data_units(x), w


@pytest.mark.parametrize("kind", LAYOUTS)
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3, 5 * B + 11])
def test_truncation_point_matches_the_exhaustive_rule_at_block_edges(n, kind):
    x = layout(n, kind)
    sample = make_sample(x)
    for need_above, need_below in NEEDS:
        assert _pick_t(sample, need_above, need_below) == brute_pick_t(x, need_above, need_below)


@pytest.mark.parametrize("kind", LAYOUTS)
@pytest.mark.parametrize("n", [3, 4, 5, 11, 23])
def test_small_blocks_match_brute_force_loops(n, kind, monkeypatch):
    """With blocks of 4 ranks, every layout crosses edges at sizes the per-rank loops can afford."""
    monkeypatch.setattr(measures, "_BLOCK", 4)
    monkeypatch.setattr(identities, "_BLOCK", 4)
    x = layout(n, kind, block=4)
    sample = make_sample(x)
    for conv in ECDF_CONVENTIONS:
        u = plotting_positions(n, conv)
        for w in WEIGHTS:
            got = generalized_residual_entropy(sample, w, PHI, conv)
            assert abs(got - brute_ge(x, u, w.at_probability, PHI)) <= data_units(x), (conv, w)
            got = generalized_cumulative_entropy(sample, w, PHI, conv)
            assert abs(got - brute_gce(x, u, w.at_probability, PHI)) <= data_units(x), (conv, w)
    for need_above, need_below in NEEDS + ((n // 2, n // 2), (n, 0), (0, n)):
        assert _pick_t(sample, need_above, need_below) == brute_pick_t(x, need_above, need_below)


#: per n and layout, the blocks of 4 ranks in which (ge, gce) find tie runs: those that hold a
#: tie or whose run at an edge goes on across it.  ge walks only the ranks below the top run,
#: so no block of all-equal data.
SEARCHED_BLOCKS = {(8, "no-ties"): (0, 0), (9, "no-ties"): (0, 0),
                   (8, "edge-pair"): (2, 2), (9, "edge-pair"): (2, 2),
                   (8, "bottom-pair"): (1, 1), (9, "bottom-pair"): (1, 1),
                   (8, "all-equal"): (0, 2), (9, "all-equal"): (0, 3)}


@pytest.mark.parametrize("n, kind", sorted(SEARCHED_BLOCKS))
def test_tie_free_blocks_match_brute_force_loops(n, kind, monkeypatch):
    """A block whose ranks are each their own run shares no run with its neighbours; the
    blocks with runs hand on (ge) or take up (gce) the sum at a run across an edge."""
    monkeypatch.setattr(measures, "_BLOCK", 4)
    searched, search = [], measures._runs

    def counted(*args):
        runs = search(*args)
        searched.append(runs is not None)
        return runs

    monkeypatch.setattr(measures, "_runs", counted)
    x = np.sort(np.random.default_rng(n).exponential(1.0, n))
    if kind == "edge-pair":  # ranks 4 and 5, across the first block edge
        x[4] = x[3]
    elif kind == "bottom-pair":  # ranks 1 and 2 only
        x[1] = x[0]
    elif kind == "all-equal":
        x[:] = 1.7
    sample = make_sample(x)
    for conv in ECDF_CONVENTIONS:
        u = plotting_positions(n, conv)
        for w in WEIGHTS + (WeightSelector("cdf-power"), WeightSelector("sf-power")):
            for phi in (PHI, PhiSelector(2.0)):
                searched.clear()
                got = generalized_residual_entropy(sample, w, phi, conv)
                assert abs(got - brute_ge(x, u, w.at_probability, phi)) <= data_units(x), (conv, w)
                ge_found = sum(searched)
                searched.clear()
                got = generalized_cumulative_entropy(sample, w, phi, conv)
                assert abs(got - brute_gce(x, u, w.at_probability, phi)) <= data_units(x), (conv, w)
                assert (ge_found, sum(searched)) == SEARCHED_BLOCKS[n, kind]


@pytest.mark.parametrize("kind", ["continuous", "straddling", "long-run", "top-run"])
def test_generalized_entropies_are_one_walk(kind, monkeypatch):
    """gce evaluates phi once per rank; ge once per distinct value of each block below the
    top run, which is once per rank where the block holds no tie, and once at x_(n)."""
    x = layout(3 * B + 5, kind)
    sample, seen = make_sample(x), []
    monkeypatch.setattr(PhiSelector, "__call__", lambda self, v: seen.append(v.shape[0]) or v)
    generalized_residual_entropy(sample, WEIGHTS[0], PHI)
    top = int(np.searchsorted(x, x[-1]))
    assert sum(seen) == 1 + sum(np.unique(x[lo:min(lo + B, top)]).shape[0]
                                for lo in range(0, top, B))
    seen.clear()
    generalized_cumulative_entropy(sample, WEIGHTS[0], PHI)
    assert sum(seen) == x.shape[0]


#: weights of each kind, at orders that are and are not 1
_GE_WEIGHTS = WEIGHTS + (WeightSelector("cdf-power"), WeightSelector("sf-power"))
_PHIS = (PHI, PhiSelector(2.0), PhiSelector(2.0, 2.0), PhiSelector(0.5, 0.7))


@pytest.mark.parametrize("n, kind", [(n, kind) for n in (2, 3)
                                     for kind in ("continuous", "top-run")]
                         + [(n, kind) for n in (B - 1, B, B + 1, 2 * B + 3)
                            for kind in ("continuous", "straddling", "long-run", "top-run")])
def test_one_ge_walk_of_several_phi_is_each_phi_alone(n, kind):
    """Bit for bit: the walk's weights A_j - w_j hold no phi."""
    x = layout(n, kind)
    for conv in ECDF_CONVENTIONS:
        for w in _GE_WEIGHTS:
            together = _ge_values(x, w, _PHIS, conv)
            assert together == [_ge_values(x, w, [phi], conv)[0] for phi in _PHIS], (conv, w)
            assert together[0] == generalized_residual_entropy(make_sample(x), w, PHI, conv)


def _draw(family: str, n: int, seed: int, rounding=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.pareto(3.0, n) + 1.0 if family == "pareto" else rng.exponential(1.0, n)
    return np.sort(x if rounding is None else np.round(x, rounding))


_FBAR, _CONST = WeightSelector("sf-power"), WeightSelector("const", c=2.5)
_EVERY_PAIR = [(w, phi) for w in (_FBAR, _CONST)
               for phi in (PhiSelector(2.0), PhiSelector(2.0, 2.0))]


@pytest.mark.parametrize("family, n, rounding, pairs, conv", [
    ("pareto", 10**5, None, [(_FBAR, PhiSelector(2.0))], "hazen"),
    ("pareto", 10**5, None, [(_FBAR, PhiSelector(2.0))], "naive"),
    ("exponential", 20000, None, _EVERY_PAIR, "hazen"), ("pareto", 10**5, 1, _EVERY_PAIR, "hazen"),
    ("exponential", 20000, 1, _EVERY_PAIR, "naive"), ("pareto", 5000, 2, _EVERY_PAIR, "mean-rank"),
    ("pareto", 8192, 2, [(_FBAR, PhiSelector(2.0))], "hazen")])
def test_ge_matches_exact_sums(family, n, rounding, pairs, conv):
    """ge to 1e-14 of run-by-run rational sums on data without ties, and to 1e-15 on tied
    data, whose runs each read one A: no long running sum loses digits, not even under naive,
    where every w_i/(n - e_i) below the top is 1/n and a plain running sum of them drifts."""
    x = _draw(family, n, n, rounding)
    sample = make_sample(x)
    for w, phi in pairs:
        got, want = generalized_residual_entropy(sample, w, phi, conv), exact_ge(x, w, phi, conv)
        assert abs(got - want) <= (1e-14 if rounding is None else 1e-15) * abs(want), (w, phi)


def _gce_miss(off: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 7: gce carries phi's running sum "
                                                 f"as one float, {off} off its exact sums")


@pytest.mark.parametrize("family, n, rounding, conv", [
    ("exponential", 20000, None, "hazen"),
    pytest.param("pareto", 10**5, None, "hazen", marks=_gce_miss("1.4e-14")),
    pytest.param("pareto", 10**5, 2, "hazen", marks=_gce_miss("1.4e-12"))])
def test_gce_matches_exact_sums(family, n, rounding, conv):
    """gce at ge's gates: 1e-14 of run-by-run rational sums without ties, 1e-15 with them."""
    x = _draw(family, n, n, rounding)
    got, want = (generalized_cumulative_entropy(make_sample(x), _FBAR, PhiSelector(2.0), conv),
                 exact_gce(x, _FBAR, PhiSelector(2.0), conv))
    assert abs(got - want) <= (1e-14 if rounding is None else 1e-15) * abs(want)


# ---------------------------------------------------------------------------
# one walk per measure and per identity side, and no length-n temporary

_PARAMS = {"s_gini": {"v": 2.5}, "crt": {"alpha": 2.5}, "wcrt": {"alpha": 2.5},
           "ct": {"alpha": 2.5}, "wct": {"alpha": 2.5}, "sr": {"alpha": 1.5, "beta": 2.5},
           "sp": {"alpha": 1.5, "beta": 2.5}, "srw": {"alpha": 1.5, "beta": 2.5},
           "spw": {"alpha": 1.5, "beta": 2.5}, "risk_premium": {"k": 3},
           "gain_premium": {"k": 3}, "pwm": {"p": 2, "r": 1.5, "s": 0.5}}
PWM_FORM_IDS = sorted(mid for mid, entry in MEASURE_IDS.items() if entry.pwm is not None)
FUSED_SIDES = ("I2", "I3", "I9", "I10", "I11", "I12", "I14")
SIDES = {ident.id: ident.sample_sides for ident in REGISTRY if ident.sample_sides is not None}
#: the parameters of the sample measures without a PWM form; t is near the median of exp(1)
_OTHER_PARAMS = {"gmd_left": {"t": 0.7}, "gmd_right": {"t": 0.7}, "j_dyn": {"t": 0.7},
                 "h_dyn": {"t": 0.7}, "ge": {"w": WEIGHTS[1], "phi": PHI},
                 "gce": {"w": WEIGHTS[2], "phi": PHI}}


@pytest.fixture(scope="module")
def million():
    return make_sample(np.random.default_rng(7).exponential(1.0, 10**6))


def _count_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record each call's arguments; returns the record."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """The kernel walks, patched where measures._sample_values looks the kernel up."""
    return _count_calls(monkeypatch, measures, "_rank_sums")


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


@pytest.mark.parametrize("iid", ["I10", "I11"])
def test_a_step_ecdf_side_is_one_kernel_walk_and_one_step_walk(iid, walks, monkeypatch):
    steps = _count_calls(monkeypatch, identities, "_step_sums")
    SIDES[iid](make_sample(np.random.default_rng(3).exponential(1.0, 3 * B)), "hazen")
    assert (len(walks), len(steps)) == (1, 1)


def test_i7_sample_side_is_one_ge_walk(monkeypatch):
    walks = _count_calls(monkeypatch, identities, "_ge_values")
    blocks = _count_calls(monkeypatch, measures, "_runs")
    SIDES["I7"](make_sample(np.random.default_rng(3).exponential(1.0, 3 * B)), "hazen")
    assert (len(walks), len(blocks)) == (1, 3)


def test_measure_sample_reads_a_form_twice(monkeypatch):
    """Once to list the form's moments, once on their means."""
    entry, reads = MEASURE_IDS["sr"], []

    def pwm_form(M, *args):
        reads.append(args)
        return entry.pwm(M, *args)

    monkeypatch.setitem(MEASURE_IDS, "sr", dataclasses.replace(entry, pwm=pwm_form))
    sample = make_sample(np.random.default_rng(3).exponential(1.0, 3 * B))
    measure_sample(sample, MeasureSpec("sr", alpha=1.5, beta=2.5))
    assert reads == [(1.5, 2.5)] * 2


#: every PWM-form measure without a sample route of its own, at a real order and at integer
#: orders, so that one walk holds b_e, a_e and plug-in terms of several orders at both ends
_FORMS = ([MeasureSpec(mid, **_PARAMS.get(mid, {})) for mid in PWM_FORM_IDS
           if MEASURE_IDS[mid].sample is None]
          + [MeasureSpec(mid, alpha=a) for a in (2.0, 3.0) for mid in ("crt", "ct", "wcrt", "wct")]
          + [MeasureSpec(mid, alpha=1.0, beta=3.0) for mid in ("sr", "sp", "srw", "spw")]
          + [MeasureSpec(mid, k=k) for k in (2, 4) for mid in ("risk_premium", "gain_premium")]
          + [MeasureSpec("s_gini", v=3.0), MeasureSpec("pwm", p=1, r=2.0),
             MeasureSpec("pwm", p=2, s=3.0), MeasureSpec("pwm", p=0, r=1.0)])


@pytest.mark.parametrize("n", [2, 5, B - 1, B + 1, 2 * B + 3, ROWS_FROM - 1, ROWS_FROM, CHUNKED])
@pytest.mark.parametrize("ties", [False, True])
def test_one_walk_of_every_form_is_each_form_alone(n, ties):
    """Bit for bit: the rows of every walk span the same ranks, which depend on n alone, so no
    term's sum depends on the other terms of its walk."""
    sample = make_sample(data(n, ties, n))
    for conv in ECDF_CONVENTIONS:
        together = _sample_values(sample.values, _FORMS, conv)
        assert together == [measure_sample(sample, spec, conv) for spec in _FORMS], conv


def test_rows_leave_at_most_517_ranks_to_the_blocks(monkeypatch):
    """From ROWS_FROM on, table terms and plain sums read their rows from one _row_moments
    call and form weights only on the _DEGREE ranks at each end and the partial last row: on
    at most 3 + 511 + 3 ranks, whatever n is.  Below it, every weight is formed per block."""
    rows, formed = _count_calls(monkeypatch, pwm, "_row_moments"), []
    for name in ("_ranks", "_block_positions"):  # the rank arrays every formed weight starts from
        made = getattr(pwm, name)
        monkeypatch.setattr(pwm, name, lambda *args, made=made, **kw: formed.append(
            len(got := made(*args, **kw))) or got)
    terms = [(p, e, 0, False) for p in (1, 2) for e in (1, 3)] + [
        (1, 2, 0, True), (1, 0, 3, True), (2, 0, 2, False), (1, 0, 0, True), (0, 0, 0, False)]
    for n in (ROWS_FROM - 1, ROWS_FROM, CHUNKED, 30 * B + 5):
        rows.clear()
        formed.clear()
        _rank_sums(data(n, False, n), "hazen", terms)
        if n < ROWS_FROM:
            assert not rows and max(formed) == B, n
            continue
        partial = _DEGREE + (n - 2 * _DEGREE) % pwm._ROW  # the ranks above the last row
        assert len(rows) == 1 and set(formed) == {_DEGREE, partial}, n
        assert _DEGREE + partial <= 517
    assert partial == 514


def test_gmd_via_pwm_is_one_walk(walks):
    gmd_via_pwm(make_sample(np.random.default_rng(3).exponential(1.0, 3 * B)))
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


@pytest.mark.parametrize("mid", sorted(set(MEASURE_IDS) - set(PWM_FORM_IDS)))
def test_other_sample_measures_make_no_length_n_temporary(mid, million):
    spec = MeasureSpec(mid, **_OTHER_PARAMS[mid])
    assert _traced_peak(lambda: measure_sample(million, spec)) <= 2 * 2**20


@pytest.mark.parametrize("iid", FUSED_SIDES)
def test_fused_identity_sides_make_no_length_n_temporary(iid, million):
    assert _traced_peak(lambda: SIDES[iid](million, "hazen")) <= 2 * 2**20


@pytest.mark.parametrize("iid", sorted(set(SIDES) - set(FUSED_SIDES)))
def test_other_identity_sides_make_no_length_n_temporary(iid, million):
    assert _traced_peak(lambda: SIDES[iid](million, "hazen")) <= 2 * 2**20


def test_the_first_verify_of_a_fresh_sample_makes_no_length_n_temporary():
    """The report label's content hash reads the values in place, not through a copy."""
    fresh = make_sample(np.random.default_rng(8).exponential(1.0, 10**6))
    assert _traced_peak(lambda: verify_all(fresh)) <= 2 * 2**20


#: a walk of every kind of term: b_r and a_s, one-sided integer plug-ins of each power of x up
#: to the monomials' degree and past it, and real and mixed exponents
_EVERY_KIND = ([(1, e, 0, True) for e in range(6)] + [(1, 0, e, True) for e in range(6)]
               + [(p, e, 0, False) for p in (0, 1, 2) for e in range(5)]
               + [(p, 0, e, False) for p in (0, 1, 2) for e in range(1, 5)]
               + [(1, 1.5, 0, False), (2, 0, 0.5, False), (1, 1, 1, False), (0, 2, 0.5, False)])


def test_kernel_means_do_not_depend_on_blas_threads():
    """Bit for bit, whether OpenBLAS may split the row products across one, two or four
    threads: at an n of two products and a partial row, every kind of kernel term, the step
    sums and the rank-linear sums."""
    script = ("import numpy as np; from gmdinfo.pwm import _rank_sums\n"
              "from gmdinfo.identities import _step_sums\n"
              "from gmdinfo.measures import _sorted_gmd, pairwise_max_mean, pairwise_min_mean\n"
              f"x = np.sort(np.random.default_rng(3).pareto(3.0, {CHUNKED}) + 1.0)\n"
              "for conv in ('hazen', 'naive', 'mean-rank'):\n"
              f"    print(repr(_rank_sums(x, conv, {_EVERY_KIND!r})))\n"
              f"print(repr(_step_sums(x, {_GAPS!r})))\n"
              "print(repr([pairwise_min_mean(x), pairwise_max_mean(x), _sorted_gmd(x),"
              " _sorted_gmd(x, 2.0)]))\n")
    means = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=False)
        assert res.returncode == 0, res.stderr
        means.append(res.stdout)
    assert means[0] == means[1] == means[2]
    assert means[0].count("\n") == 5


def test_cli_output_does_not_depend_on_blas_threads(tmp_path):
    """The kernel's means are the same to the bit, and so is the CLI's output, whether
    OpenBLAS may split a product across one thread or two."""
    script = ("import numpy as np; from gmdinfo.pwm import _rank_sums\n"
              f"for n in ({2 * B + 3}, 10**5):\n"
              "    x = np.sort(np.random.default_rng(n).pareto(3.0, n) + 1.0)\n"
              f"    print(repr(_rank_sums(x, 'hazen', {_EVERY_KIND!r})))\n")
    means = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=False)
        assert res.returncode == 0, res.stderr
        means.append(res.stdout)
    assert means[0] == means[1]
    assert means[0].count("\n") == 2
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
