"""Probability weighted moments M_{p,r,s} = E[X^p F(X)^r (1-F(X))^s]: index and sample routes.

A model's M_{p,r,s} is ``population.pwm_population``, the quantile form
``int_0^1 Q(u)^p u^r (1-u)^s du`` on the quantile evaluator.  Two sample
routes are provided here:

* ``pwm_plugin`` — the plug-in sample estimator that replaces F with
  plotting positions (valid for any real r, s >= 0, but biased);
* ``pwm_unbiased_beta`` / ``pwm_unbiased_alpha`` — the exact unbiased
  order-statistic estimators b_r of M_{1,r,0} and a_s of M_{1,0,s} for
  integer orders (Greenwood-style PWM estimators).

Every sample route is an L-statistic (1/n) sum_i x_(i)^p w_i.  The kernel
``_rank_sums`` computes any number of them in one walk over the sorted
sample in blocks of ``_BLOCK`` ranks (``empirical._BLOCK``): no length-n
array is made and nothing outlives the call.  A weight of integer order
1..``_DEGREE`` on one side, b_r, a_s, u^r or (1-u)^s, is a polynomial in the
rank.  From ``_TABLE_ROWS_FROM`` whole rows of ``_ROW`` ranks on, the rows
between the ``_DEGREE`` ranks at each end are read by ``_row_moments``'
row products: non-negative coefficients times the moments of x^p against
the columns of ``_TABLE``, so no weight is formed there.  Every other rank,
and every rank of real or mixed exponents and higher orders, forms each
power of u and 1-u and each b_r/a_s running-ratio product once per block;
the ranks where b_r or a_s is 0 get a weight of exactly 0.
``measures._sample_values`` reads every sample PWM form through one walk.
The package's other sample estimators walk the same blocks, so no sample
estimator makes a length-n array.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .empirical import (_BLOCK, _RANKS, Sample, _block_positions, _check_convention,
                        _check_integer_order, _position_rule, _ranks)
from .errors import BadParameterError, NonFiniteError, TooFewObservationsError

__all__ = [
    "PwmIndex",
    "pwm_plugin",
    "pwm_unbiased_beta",
    "pwm_unbiased_alpha",
]


@dataclass(frozen=True)
class PwmIndex:
    """The triple (p, r, s) indexing M_{p,r,s}.

    p is a non-negative integer (the power of X); r and s are real
    exponents on F and 1-F.  Exponents in (-1, 0) are admitted — the
    Tsallis/two-parameter families need M_{p,0,alpha-1} with alpha < 1 —
    since the endpoint singularity u^r (1-u)^s stays integrable there.
    """

    p: int
    r: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        _check_integer_order("p", self.p)
        for name, val in (("r", self.r), ("s", self.s)):
            if not math.isfinite(val):
                raise NonFiniteError(f"{name} must be finite")
            if val <= -1:
                raise BadParameterError(f"{name} must exceed -1, got {val}")


def pwm_plugin(sample: Sample, idx: PwmIndex, conv: str = "hazen") -> float:
    """Plug-in estimator (1/n) sum x_(i)^p u_i^r (1-u_i)^s.

    Negative exponents require plotting positions strictly inside
    (0,1); the naive convention puts u_n = 1 and is refused there.
    """
    _check_convention(conv)
    return _rank_sums(sample.values, conv, [(idx.p, idx.r, idx.s, False)])[0]


def pwm_unbiased_beta(sample: Sample, r) -> float:
    """Unbiased b_r for M_{1,r,0}, integer r >= 0.

    b_r = (1/n) sum_{i} x_(i) * (i-1)(i-2)...(i-r) / [(n-1)...(n-r)];
    the weight vanishes for i <= r, where it is exactly 0.  Up to order
    _DEGREE the rows of a large sample read it from the row table; else the
    product is built as running ratios, one order at a time, so no
    intermediate overflows for large n and any order up to n - 1 works.
    """
    return _rank_sums(sample.values, "hazen", [(1, _check_integer_order("r", r), 0, True)])[0]


def pwm_unbiased_alpha(sample: Sample, s) -> float:
    """Unbiased a_s for M_{1,0,s}, integer s >= 0.

    a_s = (1/n) sum_{i} x_(i) * (n-i)(n-i-1)...(n-i-s+1) / [(n-1)...(n-s)];
    the weight vanishes for i > n - s, where it is exactly 0.
    """
    return _rank_sums(sample.values, "hazen", [(1, 0, _check_integer_order("s", s), True)])[0]


# ---------------------------------------------------------------------------
# the sample kernel


#: the highest integer order whose one-sided weights _rank_sums reads from _TABLE
_DEGREE = 3
#: ranks per row of the row products.  A GEMM sums a row in one sequence, whose errors on
#: equal values all lean one way: so summed, a_3 was 3.1e-15 off exact rationals on tied
#: data, so plain sums are pairwise; rows of 8192 were 4.0e-15 off even so
_ROW = 1 << 9
_CHUNK = 8 * _BLOCK  # ranks per matrix product: a chunk's x^2 is 512 KiB
#: the sizes from which the walks read rows, measured: below them the blocks are as fast or
#: faster.  The step sums and the rank-linear sums from this many ranks, the kernel from this
#: many whole rows between its end ranks
_STEP_ROWS_FROM, _RANK_ROWS_FROM, _TABLE_ROWS_FROM = 3 * _BLOCK, 6 * _BLOCK, 48
_S, _SBAR = _RANKS[:_ROW] / _ROW, _RANKS[_ROW - 1::-1] / _ROW  # s = t/_ROW, sbar = 1 - (t+1)/_ROW
#: the columns [s, s^2, s^3, sbar, sbar^2, sbar^3] by multiplication: exact, as _ROW is a power
#: of 2, and at most 1, so a value times one overflows only where the value does (24 KiB)
_TABLE = np.column_stack([power for step in (_S, _SBAR)
                          for power in itertools.accumulate([step] * _DEGREE, np.multiply)])
_TABLE_SUMS = np.concatenate(([_ROW], _TABLE.sum(axis=0)))  # a row's moments of x^0, exact
#: column 3i + j - 1 is s^i sbar^j, i, j <= 2 and 0 < i + j <= 3, exact too (28 KiB)
_STEP_TABLE = np.column_stack([_S ** (c // 3) * _SBAR ** (c % 3) for c in range(1, 8)])
_TABLE.flags.writeable = _TABLE_SUMS.flags.writeable = _STEP_TABLE.flags.writeable = False


def _coefficients(base: np.ndarray, a, order: int, n: int, d: float) -> list:
    """The coefficients, lowest first, of the weight (a, order) as a polynomial in t/_ROW on
    rows whose first rank, t = 0, is q = base from the weight's end, an array of one base per
    row.  Each factor (q + a)/d, or (q - j)/(n - 1 - j) when a is None, is at0 + slope t/_ROW
    with at0 >= 0, so no coefficient is negative."""
    coef = [np.ones_like(base)]
    for j in range(order):
        div = n - 1.0 - j if a is None else d
        at0, slope = (base + (-j if a is None else a)) / div, _ROW / div
        coef.append(slope * coef[-1])
        for i in range(j, 0, -1):
            coef[i] = at0 * coef[i] + slope * coef[i - 1]
        coef[0] = at0 * coef[0]
    return coef


def _row_moments(values: np.ndarray, lo: int, hi: int, tables: dict, steps: bool = False) -> dict:
    """{p: (1 + columns, rows) array}, p -> table in tables: for each _ROW-rank row of x_(k)^p,
    lo <= k < hi, or of its steps x_(k)^p - x_(k-1)^p, its pairwise sum and its products with
    table's columns (None: the sum alone); a matrix product per _CHUNK ranks, x^p and the steps
    formed in buffers that every chunk reuses."""
    out, size = {p: [] for p in tables}, min(_CHUNK, hi - lo)
    power, step = (np.empty(size + steps) if set(tables) != {1} else None), np.empty(size * steps)
    for start in range(lo, hi, _CHUNK):
        x = values[start - steps:min(start + _CHUNK, hi)]
        for p, table in tables.items():
            y = (x if p == 1 else np.square(x, out=power[:len(x)]) if p == 2
                 else np.power(x, p, out=power[:len(x)]))
            y = (np.subtract(y[1:], y[:-1], out=step[:len(y) - 1]) if steps else y).reshape(-1, _ROW)
            total = np.add.reduce(y, axis=1)
            out[p].append(total[:, None] if table is None else np.column_stack((total, y @ table)))
    return {p: np.concatenate(got).T for p, got in out.items()}


def _rank_sums(values: np.ndarray, conv: str, terms) -> list:
    """Every term's mean, in the order of terms, from one blocked walk over sorted values.

    A term (p, r, s, exact) is (1/n) sum_i x_(i)^p w_i.  Not exact, w_i is
    the plug-in weight u_i^r (1-u_i)^s; exact (p = 1, integer orders, one
    of them 0), w_i is the unbiased b_r weight prod_{j=1..r} (i-j)/(n-j),
    or the a_s weight, the same product of ranks counted from the top.
    Where n holds at least _TABLE_ROWS_FROM whole rows of _ROW ranks between
    the min(_DEGREE, n) ranks at each end, the rows are read after the walk
    by _row_moments for the plain sums (order 0) and the table terms: a
    weight of integer order e, 1 <= e <= _DEGREE, on one side (b_e, a_e,
    u^e or (1-u)^e).  That weight is a product of e factors (q + a)/d,
    linear in the rank q counted from 0 at its end: (q - j)/(n - 1 - j)
    for j < e, or (q + c)/d with u = (k + c)/d, and 1-u the same from the
    top.  Past the end ranks every factor is non-negative, so on a row
    the weight is a polynomial in t/_ROW, t the row's own ranks, with
    non-negative coefficients (_coefficients) times the row's moments
    against _TABLE's columns: no weight is formed there.  Every other
    rank, and every rank of the other terms (real or mixed exponents,
    higher orders), is walked in blocks, each weight formed once per
    block and b_e and a_e as running ratio products, exactly 0 where the
    weight is.  The row span depends on n alone, so no term's sum
    depends on the other terms of its walk.
    conv is one of ECDF_CONVENTIONS: the public doors check it.
    """
    n = values.shape[0]
    c, d = _position_rule(n, conv)  # u = (k + c)/d, and 1 - u = (m + 1 + d - n - c)/d
    edge = min(_DEGREE, n)  # at each end, the ranks where a factor (q - j) can be negative
    rows = (n - 2 * edge) // _ROW
    first, last = (edge, edge + rows * _ROW) if rows >= _TABLE_ROWS_FROM else (0, 0)
    weights, factors, plain, negative = {}, [], {}, False  # weights, plain: the rows' terms
    for k, (p, r, s, exact) in enumerate(terms):
        order, top = r + s, s != 0  # the one non-zero order when the other is 0
        if exact and n <= order:
            raise TooFewObservationsError(f"{'a' if top else 'b'}_{int(order)} needs "
                                          f"n > {int(order)}, got n={n}")
        negative = negative or s < 0
        if exact:  # order 0, the mean, or b_e/a_e
            keys = [("x", 1), ("a" if top else "b", int(order))] if order else [("x", 1)]
        else:  # M_{0,0,0}: x^0 is all ones
            keys = [key for key in (("x", p), ("u", r), ("1-u", s)) if key[1]] or [("x", 0)]
        factors.append((k, keys))
        if 0 < order <= _DEGREE and order == int(order) and not (r and s):
            # the weight's factors: (q + a)/d, or (q - j)/(n - 1 - j) when a is None
            weights.setdefault((top, None if exact else 1.0 + d - n - c if top else c,
                                int(order)), []).append((k, p))
        elif len(keys) == 1 and keys[0][0] == "x":  # a plain sum
            plain[k] = keys[0][1]
    if negative and _block_positions(n - 1, n, n, conv)[0] >= 1.0:
        raise BadParameterError(
            "negative s exponent needs u_n < 1; use the hazen or mean-rank convention"
        )
    # the walk, in spans of at most _BLOCK ranks: the rows' terms walk only the ranks at each
    # end of the rows, the other terms every block
    rowed = set(plain).union(k for ks in weights.values() for k, _ in ks) if last else set()
    ends = [(k, keys) for k, keys in factors if k in rowed]
    blocks = [(k, keys) for k, keys in factors if k not in rowed]
    spans = [(lo, min(lo + _BLOCK, n), blocks) for lo in range(0, n, _BLOCK) if blocks]
    sums = [0.0] * len(terms)
    for lo, hi, group in ([(0, first, ends), (last, n, ends)] if ends else []) + spans:
        x = values[lo:hi]
        parts = {("x", 1): x}

        def part(key):
            """This block's x^e, u^e, (1-u)^e, b_e or a_e weight."""
            if key not in parts:
                kind, e = key
                if kind in ("x", "u", "1-u") and e != 1:
                    value = part((kind, 1)) ** e
                elif kind == "u":
                    value = _block_positions(lo, hi, n, conv)
                elif kind == "1-u":  # (d - k - c)/d from the ranks, exact as u is
                    value = _ranks(d - lo - c, hi - lo, down=True) / d
                else:  # the running ratio product
                    m = (_ranks(lo, hi - lo) if kind == "b"
                         else _ranks(n - 1.0 - lo, hi - lo, down=True))
                    value = m / (n - 1.0)
                    for j in range(2, e + 1):
                        value = value * ((m - (j - 1)) / (n - j))
                parts[key] = value
            return parts[key]

        for k, keys in group:
            y = part(keys[0])
            if len(keys) == 1:
                sums[k] += float(np.add.reduce(y))
                continue
            for key in keys[1:-1]:
                y = y * part(key)
            sums[k] += float(y.dot(part(keys[-1])))
    if last:  # each row's moments of x^p: its pairwise sum and one matrix product
        table = {p for ks in weights.values() for _, p in ks}  # the powers of x a table term reads
        moments = _row_moments(values, first, last, {p: _TABLE if p in table else None
                                                     for p in table | set(plain.values()) if p})
        starts = np.arange(first, last, _ROW, dtype=float)
        moments[0] = np.broadcast_to(_TABLE_SUMS[:, None], (_TABLE_SUMS.shape[0], starts.shape[0]))
        for (top, a, e), ks in weights.items():  # row j of the coefficients times moment j
            coef = np.array(_coefficients(n - _ROW - starts if top else starts, a, e, n, d))
            for k, p in ks:
                got = moments[p][[0, *range(1 + _DEGREE * top, 1 + _DEGREE * top + e)]]
                sums[k] += float((coef * got).sum())
        for k, p in plain.items():
            sums[k] += float(moments[p][0].sum())
    return [total / n for total in sums]
