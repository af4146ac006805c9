"""Sample container, plotting positions, ECDF, conditional means."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gmdinfo import (
    ECDF_CONVENTIONS,
    BadParameterError,
    EmptyTailError,
    NegativeValueError,
    NonFiniteError,
    Sample,
    TooFewObservationsError,
    conditional_mean_above,
    conditional_mean_below,
    ecdf_at,
    make_sample,
    plotting_positions,
    verify_all,
)
from gmdinfo import empirical
from oracles import run_ends


class TestSampleConstructor:
    """Sample checks its values itself, with make_sample's errors: built directly,
    Sample([3, 1, 2]) gave a gmd of -0.667, Sample([1, nan]) a crj of -0.5, and
    Sample([-3, 1]) was accepted."""

    @pytest.mark.parametrize("values, error", [
        (np.array([3.0, 1.0, 2.0]), BadParameterError),
        (np.array([1.0, np.nan]), NonFiniteError),
        (np.array([1.0, np.nan, 2.0]), NonFiniteError),
        (np.array([1.0, np.inf]), NonFiniteError),
        (np.array([-np.inf, 1.0]), NonFiniteError),
        (np.array([-3.0, 1.0]), NegativeValueError),
        (np.array([[1.0, 2.0], [3.0, 4.0]]), BadParameterError),
        (np.array([1.0]), TooFewObservationsError),
        (np.array([], dtype=float), TooFewObservationsError),
        (np.array([1, 2, 3]), BadParameterError),
        ([1.0, 2.0], BadParameterError),
    ], ids=["unsorted", "nan", "inner-nan", "inf", "-inf", "negative", "2-D", "one", "empty",
            "integers", "list"])
    def test_rejects(self, values, error):
        with pytest.raises(error):
            Sample(values)

    def test_accepts_ascending_values_with_ties_and_zero(self):
        x = np.array([0.0, 1.0, 1.0, 2.5])
        assert Sample(x).n == 4
        assert Sample(x).values is x
        assert make_sample(x[::-1]).values.tolist() == x.tolist()

class TestMakeSample:
    def test_sorts_input(self):
        s = make_sample([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.n == 3

    def test_accepts_any_array_like(self):
        s = make_sample(np.array([[2.0, 1.0], [4.0, 3.0]]))
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0, 4.0])

    def test_values_are_read_only(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_rejects_short_input(self):
        with pytest.raises(TooFewObservationsError, match="need at least 2"):
            make_sample([1.0])
        with pytest.raises(TooFewObservationsError):
            make_sample([])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            make_sample([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            make_sample([1.0, np.inf])

    def test_rejects_negative(self):
        with pytest.raises(NegativeValueError):
            make_sample([1.0, -0.5])

    def test_rejects_negative_infinity(self):
        with pytest.raises(NonFiniteError):
            make_sample([1.0, -np.inf])

    def test_digest_is_stable_and_content_based(self):
        a = make_sample([1.0, 2.0, 3.0])
        b = make_sample([3.0, 2.0, 1.0])
        c = make_sample([1.0, 2.0, 4.0])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.digest().startswith("sample(n=3, sha1=")

    def test_digest_value(self):
        h = hashlib.sha1(np.array([1.0, 2.0, 3.0]).tobytes()).hexdigest()[:8]
        assert make_sample([3.0, 1.0, 2.0]).digest() == f"sample(n=3, sha1={h})"

    def test_digest_hashes_once_per_sample(self, monkeypatch):
        calls = []
        sha1 = hashlib.sha1
        monkeypatch.setattr(empirical.hashlib, "sha1", lambda data: calls.append(1) or sha1(data))
        a = make_sample([1.0, 2.0, 3.0])
        assert a.digest() == a.digest() == a.digest()
        assert len(calls) == 1
        make_sample([1.0, 2.0, 3.0]).digest()
        assert len(calls) == 2

    def test_still_frozen(self):
        s = make_sample([1.0, 2.0])
        s.digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.values = np.array([5.0, 6.0])

    def test_keeps_no_array_beyond_its_values(self):
        s = make_sample(np.random.default_rng(0).exponential(1.0, size=200))
        verify_all(s)
        assert all(isinstance(v, str) for k, v in vars(s).items() if k != "values")


def _sorted_floats(elements, **kw):
    return st.lists(elements, min_size=2, max_size=80, **kw).map(
        lambda raw: np.sort(np.asarray(raw, dtype=float)))


class TestRunEnds:
    """oracles.run_ends(x), where the full-array ge/gce references gather their
    sums, is np.searchsorted(x, x, side="right") on sorted data."""

    @staticmethod
    def check(x):
        want = np.searchsorted(x, x, side="right")
        got = run_ends(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @given(_sorted_floats(st.integers(0, 4)))
    @example(np.array([1.0, 1.0]))
    def test_with_ties(self, x):
        self.check(x)

    @given(_sorted_floats(st.floats(0.0, 1e300), unique=True))
    @example(np.array([0.0, 5e-324]))
    def test_without_ties(self, x):
        self.check(x)

    @given(st.floats(0.0, 1e300), st.integers(2, 80))
    def test_all_equal(self, value, n):
        self.check(np.full(n, value))

    @pytest.mark.parametrize("x", [[0.0, 0.0], [1.0, 2.0], [0.0, 1e-300]])
    def test_two_points(self, x):
        self.check(np.array(x))


class TestPlottingPositions:
    def test_hazen(self):
        np.testing.assert_allclose(
            plotting_positions(4, "hazen"), [0.125, 0.375, 0.625, 0.875]
        )

    def test_naive(self):
        np.testing.assert_allclose(
            plotting_positions(4, "naive"), [0.25, 0.5, 0.75, 1.0]
        )

    def test_mean_rank(self):
        np.testing.assert_allclose(
            plotting_positions(4, "mean-rank"), [0.2, 0.4, 0.6, 0.8]
        )

    def test_default_is_hazen(self):
        np.testing.assert_array_equal(plotting_positions(5), plotting_positions(5, "hazen"))

    def test_strictly_interior_for_hazen_and_mean_rank(self):
        for conv in ("hazen", "mean-rank"):
            u = plotting_positions(50, conv)
            assert np.all(u > 0) and np.all(u < 1)

    def test_unknown_convention(self):
        with pytest.raises(BadParameterError, match="convention"):
            plotting_positions(3, "weibull-style")

    @pytest.mark.parametrize("n", [2.5, -3, -1.0])
    def test_n_that_is_not_a_non_negative_integer_is_refused(self, n):
        """2.5 gave three positions, the last 1.0, which hazen never reaches; -3 gave none."""
        with pytest.raises(BadParameterError,
                           match=re.escape(f"n must be a non-negative integer, got {n}")):
            plotting_positions(n)

    @pytest.mark.parametrize("n", [np.nan, np.inf])
    def test_non_finite_n_is_refused(self, n):
        with pytest.raises(NonFiniteError, match="n must be finite"):
            plotting_positions(n)

    @pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
    def test_no_positions_for_n_0_and_an_integral_float_n_is_read_as_its_integer(self, conv):
        assert plotting_positions(0, conv).shape == (0,)
        np.testing.assert_array_equal(plotting_positions(4.0, conv), plotting_positions(4, conv))


class TestEcdfAt:
    def test_naive_steps(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert ecdf_at(s, 2.0, "naive") == pytest.approx(2.0 / 3.0)
        assert ecdf_at(s, 2.5, "naive") == pytest.approx(2.0 / 3.0)
        assert ecdf_at(s, 3.0, "naive") == 1.0
        assert ecdf_at(s, 100.0, "naive") == 1.0

    def test_below_support_is_zero(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert ecdf_at(s, 0.5) == 0.0
        assert ecdf_at(s, 0.999999) == 0.0

    def test_hazen_value(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert ecdf_at(s, 2.0, "hazen") == pytest.approx(0.5)

    def test_ties_step_to_largest_rank(self):
        s = make_sample([1.0, 2.0, 2.0, 3.0])
        assert ecdf_at(s, 2.0, "naive") == pytest.approx(0.75)
        assert ecdf_at(s, 2.0, "mean-rank") == pytest.approx(0.6)

    def test_non_finite_point(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(NonFiniteError):
            ecdf_at(s, np.nan)

    @pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
    def test_equals_plotting_positions_at_every_rank(self, conv):
        s = make_sample(np.random.default_rng(3).gamma(2.0, 1.0, size=301))
        u = plotting_positions(s.n, conv)
        assert [ecdf_at(s, x, conv) for x in s.values] == u.tolist()

    @pytest.mark.parametrize("conv", ECDF_CONVENTIONS)
    def test_ties_read_the_last_rank_of_their_run(self, conv):
        s = make_sample(np.random.default_rng(4).integers(0, 9, size=120))
        u = plotting_positions(s.n, conv)
        ends = np.searchsorted(s.values, s.values, side="right")
        assert [ecdf_at(s, x, conv) for x in s.values] == u[ends - 1].tolist()

    def test_unknown_convention_below_support(self):
        with pytest.raises(BadParameterError, match="convention"):
            ecdf_at(make_sample([1.0, 2.0]), 0.0, "weibull-style")


class TestConditionalMeans:
    def test_mean_residual_values(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert conditional_mean_above(s, 1.5) == pytest.approx(1.0)
        assert conditional_mean_above(s, 0.0) == pytest.approx(2.0)

    def test_mean_past_values(self):
        s = make_sample([1.0, 2.0, 3.0])
        assert conditional_mean_below(s, 3.0) == pytest.approx(1.0)
        assert conditional_mean_below(s, 1.0) == pytest.approx(0.0)

    def test_strict_above_vs_inclusive_below(self):
        s = make_sample([1.0, 2.0, 2.0, 3.0])
        # above 2 keeps only the 3; below 2 keeps 1, 2, 2
        assert conditional_mean_above(s, 2.0) == pytest.approx(1.0)
        assert conditional_mean_below(s, 2.0) == pytest.approx((1.0 + 0.0 + 0.0) / 3.0)

    def test_empty_sides_raise(self):
        s = make_sample([1.0, 2.0, 3.0])
        with pytest.raises(EmptyTailError):
            conditional_mean_above(s, 3.0)
        with pytest.raises(EmptyTailError):
            conditional_mean_below(s, 0.5)

    def test_truncation_point_validation(self):
        s = make_sample([1.0, 2.0])
        with pytest.raises(BadParameterError):
            conditional_mean_above(s, -1.0)
        with pytest.raises(NonFiniteError):
            conditional_mean_below(s, np.inf)
