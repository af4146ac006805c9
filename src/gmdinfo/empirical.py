"""Sample container, plotting positions, and empirical conditional means.

Every estimator in the package is a function of the sorted sample only,
so make_sample sorts once, the container checks the order at construction,
and downstream code relies on it.
"""

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParameterError,
    EmptyTailError,
    NegativeValueError,
    NonFiniteError,
    TooFewObservationsError,
)

__all__ = [
    "ECDF_CONVENTIONS",
    "Sample",
    "make_sample",
    "plotting_positions",
    "ecdf_at",
    "conditional_mean_above",
    "conditional_mean_below",
]

#: ranks per block of every walk over a sorted sample.  A float64 temporary
#: of this length (64 KiB) stays in cache, where a length-n one is fresh
#: memory each time.  The walks call BLAS as np.dot of two 1-D arrays of at
#: most this length, one thread up to 10,000 elements in OpenBLAS, and as the
#: row products of pwm._row_moments (x^p or its steps in rows of 512 ranks times
#: a table), which OpenBLAS may split across threads but not along a row: the
#: kernel's means, the step sums and the rank-linear sums were measured identical
#: under 1, 2, 4 and 8 threads and are tested to the bit under 1, 2 and 4.  A
#: power of 2, so a chunk of blocks is whole rows of pwm._ROW ranks
_BLOCK = 1 << 13
#: the ranks 0.0 .. _BLOCK - 1 of every walk's rank arrays: first +- t is exact, as an arange
_RANKS = np.arange(_BLOCK, dtype=float)
_RANKS.flags.writeable = False

#: Recognized plotting-position conventions for rank i of n.
#: hazen keeps u_i strictly inside (0,1), so powers of u and 1-u never
#: vanish; it is the default everywhere.
ECDF_CONVENTIONS = ("hazen", "naive", "mean-rank")


@dataclass(frozen=True)
class Sample:
    """Validated, ascending, non-negative observations.

    Construct via :func:`make_sample`, which sorts raw data and makes
    ``values`` read-only.  ``values`` must be a 1-D float64 array of at
    least two finite, non-negative (all measures assume X >= 0) values in
    ascending order, or TooFewObservationsError, NonFiniteError,
    NegativeValueError or, for the type, shape or order,
    BadParameterError is raised.
    """

    values: np.ndarray

    def __post_init__(self):
        x = self.values
        if not isinstance(x, np.ndarray) or x.ndim != 1 or x.dtype != np.float64:
            raise BadParameterError("values must be a 1-D float64 array; use make_sample")
        if x.shape[0] < 2:
            raise TooFewObservationsError(f"need at least 2 observations, got {x.shape[0]}")
        if not (x[1:] >= x[:-1]).all():  # False at a NaN too
            if np.isnan(x).any():
                raise NonFiniteError("observations must be finite")
            raise BadParameterError("values must be ascending; use make_sample")
        if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # ascending: the ends suffice
            raise NonFiniteError("observations must be finite")
        if x[0] < 0:
            raise NegativeValueError("observations must be non-negative")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def digest(self) -> str:
        """Short content hash, used to label reports."""
        return self._digest

    @cached_property
    def _digest(self) -> str:  # hashed once per sample; a string, not an array, is kept
        h = hashlib.sha1(np.ascontiguousarray(self.values)).hexdigest()[:8]  # no copy
        return f"sample(n={self.n}, sha1={h})"


def make_sample(raw) -> Sample:
    """Sort raw observations, flattened, into a read-only :class:`Sample`, which checks
    them and raises as documented there."""
    values = np.sort(np.asarray(raw, dtype=float).ravel())  # NaN sorts to the top
    values.flags.writeable = False
    return Sample(values)


def _check_convention(conv: str) -> None:
    if conv not in ECDF_CONVENTIONS:
        raise BadParameterError(
            f"unknown ECDF convention {conv!r}; expected one of {ECDF_CONVENTIONS}"
        )


def _position_rule(n: int, conv: str):
    """(c, d) with u = (k + c)/d at the rank k + 1 of n: hazen (0.5, n), naive (1, n),
    mean-rank (1, n + 1)."""
    if conv == "hazen":
        return 0.5, n
    return 1.0, (n if conv == "naive" else n + 1.0)


def _ranks(first: float, length: int, down: bool = False) -> np.ndarray:
    """first + t, or first - t when down, for t < length <= _BLOCK, from _RANKS."""
    return first - _RANKS[:length] if down else _RANKS[:length] + first


def _block_positions(lo: int, hi: int, n: int, conv: str) -> np.ndarray:
    """u_i for the ranks lo+1..hi of n, hi - lo <= _BLOCK: hazen's i - 0.5 is exact."""
    c, d = _position_rule(n, conv)
    return _ranks(lo + c, hi - lo) / d


def _check_integer_order(name: str, value) -> int:
    """A count or an integer order, such as n or the p of M_{p,r,s}: a non-negative integer."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} must be finite")
    if value != int(value) or value < 0:
        raise BadParameterError(f"{name} must be a non-negative integer, got {value}")
    return int(value)


def plotting_positions(n: int, conv: str = "hazen") -> np.ndarray:
    """Plotting positions u_1 < ... < u_n for ranks 1..n; none for n = 0.

    hazen: (i - 0.5)/n;  naive: i/n;  mean-rank: i/(n + 1).
    Tied observations keep distinct consecutive positions.
    """
    n = _check_integer_order("n", n)
    _check_convention(conv)
    c, d = _position_rule(n, conv)
    return np.arange(c, n + c) / d


def ecdf_at(sample: Sample, x: float, conv: str = "hazen") -> float:
    """Right-continuous step estimate of F(x).

    Steps to u_i at the i-th order statistic (the largest rank among
    ties), 0 below the smallest observation.
    """
    if not np.isfinite(x):
        raise NonFiniteError("evaluation point must be finite")
    _check_convention(conv)
    k = int(np.searchsorted(sample.values, x, side="right"))
    return 0.0 if k == 0 else float(_block_positions(k - 1, k, sample.n, conv)[0])


def values_above(sample: Sample, t: float) -> np.ndarray:
    """Observations strictly above t (the left-truncated tail): a read-only view."""
    return sample.values[np.searchsorted(sample.values, t, "right"):]


def values_upto(sample: Sample, t: float) -> np.ndarray:
    """Observations at or below t (the right-truncated head): a read-only view."""
    return sample.values[:np.searchsorted(sample.values, t, "right")]


def _check_t(t) -> None:
    """A truncation point t: finite and non-negative."""
    if not np.isfinite(t):
        raise NonFiniteError("t must be finite")
    if t < 0:
        raise BadParameterError("t must be non-negative")


def conditional_mean_above(sample: Sample, t: float) -> float:
    """Empirical mean residual life m(t): mean of (x - t) over x > t."""
    _check_t(t)
    tail = values_above(sample, t)
    if tail.size == 0:
        raise EmptyTailError(f"no observation above t={t}")
    return _shifted_sum(tail, t) / tail.size


def conditional_mean_below(sample: Sample, t: float) -> float:
    """Empirical mean past life r(t): mean of (t - x) over x <= t."""
    _check_t(t)
    head = values_upto(sample, t)
    if head.size == 0:
        raise EmptyTailError(f"no observation at or below t={t}")
    return -_shifted_sum(head, t) / head.size


def _shifted_sum(values: np.ndarray, t: float) -> float:
    """sum of (x - t) over values, in blocks: no length-n temporary."""
    return sum(float(np.sum(values[lo:lo + _BLOCK] - t))
               for lo in range(0, values.shape[0], _BLOCK))
