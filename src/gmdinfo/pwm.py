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
rank, read as non-negative coefficients times the moments of x^p against
the rank monomials of ``_MONOMIALS`` (first and last block) or ``_TABLE``
(the whole blocks, by ``_row_moments``' row products), so no weight is formed;
the ranks where b_r or a_s is 0 are left out, not cancelled.  Real or mixed
exponents and higher orders form each power of u and 1-u and each b_r/a_s
running-ratio product once per block.  ``measures._sample_values`` reads
every sample PWM form through one walk.  The package's other sample
estimators walk the same blocks, so no sample estimator makes a length-n
array.
"""

import functools
import itertools
import math
import operator
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
    the weight vanishes for i <= r, and those ranks are left out.  Up to
    order _DEGREE the weight is read from the monomial table; above it,
    the product is built as running ratios, one order at a time, so no
    intermediate overflows for large n and any order up to n - 1 works.
    """
    return _rank_sums(sample.values, "hazen", [(1, _check_integer_order("r", r), 0, True)])[0]


def pwm_unbiased_alpha(sample: Sample, s) -> float:
    """Unbiased a_s for M_{1,0,s}, integer s >= 0.

    a_s = (1/n) sum_{i} x_(i) * (n-i)(n-i-1)...(n-i-s+1) / [(n-1)...(n-s)];
    the weight vanishes for i > n - s, and those ranks are left out.
    """
    return _rank_sums(sample.values, "hazen", [(1, 0, _check_integer_order("s", s), True)])[0]


# ---------------------------------------------------------------------------
# the sample kernel


#: the highest integer order whose weights _rank_sums reads from _MONOMIALS
_DEGREE = 3
#: row j - 1 is (t/_BLOCK)^j for t = 0.._BLOCK-1 and j = 1.._DEGREE, by multiplication: exact,
#: as _BLOCK is a power of 2, and at most 1, so a value times it overflows only where the
#: value does (row j = 0, all ones, is a plain sum)
_MONOMIALS = np.array(list(itertools.accumulate([_RANKS / _BLOCK] * _DEGREE,
                                                np.multiply)))
#: each row reversed, for weights counted from the top
_REVERSED = np.ascontiguousarray(_MONOMIALS[:, ::-1])
#: ranks per row of the whole blocks' matrix products.  A GEMM sums a row in one sequence,
#: whose errors on equal values all lean one way: so summed, a_3 was 3.1e-15 off exact
#: rationals on tied data, so plain sums are pairwise; rows of 8192 were 4.0e-15 off even so
_ROW = 1 << 9
_CHUNK = 8 * _BLOCK  # ranks per matrix product: a chunk's x^2 is 512 KiB
_STEP_ROWS_FROM, _RANK_ROWS_FROM = 3 * _BLOCK, 6 * _BLOCK  # below, blocks are as fast (measured)
_S, _SBAR = _RANKS[:_ROW] / _ROW, _RANKS[_ROW - 1::-1] / _ROW  # s = t/_ROW, sbar = 1 - (t+1)/_ROW
#: the columns [s, s^2, s^3, sbar, sbar^2, sbar^3], exact as _MONOMIALS is (24 KiB)
_TABLE = np.column_stack([power for step in (_S, _SBAR)
                          for power in itertools.accumulate([step] * _DEGREE, np.multiply)])
_TABLE_SUMS = np.concatenate(([_ROW], _TABLE.sum(axis=0)))  # a row's moments of x^0, exact
#: column 3i + j - 1 is s^i sbar^j, i, j <= 2 and 0 < i + j <= 3, exact too (28 KiB)
_STEP_TABLE = np.column_stack([_S ** (c // 3) * _SBAR ** (c % 3) for c in range(1, 8)])
_MONOMIALS.flags.writeable = _REVERSED.flags.writeable = _STEP_TABLE.flags.writeable = False
_TABLE.flags.writeable = _TABLE_SUMS.flags.writeable = False


def _coefficients(base, a, order: int, n: int, d: float, unit: int = _BLOCK) -> list:
    """The coefficients, lowest first, of the weight (a, order) as a polynomial in t/unit
    on a span of ranks whose first, t = 0, is q = base from the weight's end; base may be
    an array, one per span.  Each factor (q + a)/d, or (q - j)/(n - 1 - j) when a is None,
    is at0 + slope t/unit with at0 >= 0, so no coefficient is negative."""
    coef = [1.0]
    for j in range(order):
        div = n - 1.0 - j if a is None else d
        at0, slope = (base + (-j if a is None else a)) / div, unit / div
        coef.append(slope * coef[-1])
        for i in range(j, 0, -1):
            coef[i] = at0 * coef[i] + slope * coef[i - 1]
        coef[0] = at0 * coef[0]
    return coef


@functools.lru_cache(maxsize=16)
def _power_sums(length: int, degree: int) -> tuple:
    """The sums over t < length of (t/_BLOCK)^j, j = 0..degree: each an integer below 2^53
    over a power of 2, so exact."""
    s1 = length * (length - 1) // 2
    return tuple(total / _BLOCK**j for j, total in
                 enumerate((length, s1, s1 * (2 * length - 1) // 3, s1 * s1)[:degree + 1]))


def _moments(y, top: bool, degree: int, total: float) -> list:
    """The sums over t of y_t (t/_BLOCK)^j, j = 0..degree, t counted from the top when top,
    given y's sum, total."""
    length, out = y.shape[0], [total]
    for j in range(degree):
        out.append(float(y.dot(_REVERSED[j, -length:] if top else _MONOMIALS[j, :length])))
    return out


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
    A weight of integer order e, 1 <= e <= _DEGREE, on one side (b_e, a_e,
    u^e or (1-u)^e) is a product of e factors (q + a)/d, linear in the rank
    q counted from 0 at its end: (q - j)/(n - 1 - j) for j < e, or
    (q + c)/d with u = (k + c)/d, and 1-u the same from the top.  The
    min(_DEGREE, n) ranks at each end are added one by one, each term
    skipping the ranks where its own b_e or a_e is 0, so that no term's
    sum depends on the other terms of its walk; the spans start past them.
    There every factor is non-negative, so on a span of ranks the weight
    is a polynomial in t/unit, t the span's own ranks, with non-negative
    coefficients (_coefficients), times the sums of x^p (t/unit)^j: no
    weight is formed.  In the first and the last block they are x^p's dot
    products with the rows of _MONOMIALS (_REVERSED from the top), made
    once per block for all the terms (_moments).  The whole blocks between
    hold no edge rank: after the walk, one matrix product of x^p in rows of
    _ROW ranks with _TABLE per _CHUNK ranks, and each row's pairwise sum,
    give every row's sums at once.  Order 0 is a plain sum, and real or mixed
    exponents and higher orders form their weights per block, b_e and a_e
    as running ratio products.
    conv is one of ECDF_CONVENTIONS: the public doors check it.
    """
    n = values.shape[0]
    c, d = _position_rule(n, conv)  # u = (k + c)/d, and 1 - u = (m + 1 + d - n - c)/d
    weights, factors, rows, negative = {}, [], {}, False  # rows: the highest j per (p, top)
    edge = min(_DEGREE, n)  # at each end, the ranks that are added one by one
    for k, (p, r, s, exact) in enumerate(terms):
        order, top = r + s, s != 0  # the one non-zero order when the other is 0
        if exact and n <= order:
            raise TooFewObservationsError(f"{'a' if top else 'b'}_{int(order)} needs "
                                          f"n > {int(order)}, got n={n}")
        negative = negative or s < 0
        if 0 < order <= _DEGREE and order == int(order) and not (r and s):
            # the weight's factors: (q + a)/d, or (q - j)/(n - 1 - j) when a is None
            e = int(order)
            weights.setdefault((top, None if exact else 1.0 + d - n - c if top else c, e),
                               []).append((k, p))
            if e > rows.get((p, top), 0):
                rows[p, top] = e
        elif exact:  # order 0, the mean, or b_e/a_e formed per block
            factors.append((k, [("x", 1), ("a" if top else "b", int(order))] if order
                            else [("x", 1)]))
        else:
            keys = [key for key in (("x", p), ("u", r), ("1-u", s)) if key[1]]
            factors.append((k, keys or [("x", 0)]))  # M_{0,0,0}: x^0 is all ones
    if negative and _block_positions(n - 1, n, n, conv)[0] >= 1.0:
        raise BadParameterError(
            "negative s exponent needs u_n < 1; use the hazen or mean-rank convention"
        )
    sums = [0.0] * len(terms)
    for (top, a, e), ks in weights.items():  # the edge ranks; b_e and a_e are 0 below e
        for q in range(e if a is None else 0, edge):
            w, v = 1.0, values[n - 1 - q if top else q]  # v ** p overflows as x^p does
            for j in range(e):
                w *= (q - j) / (n - 1.0 - j) if a is None else (q + a) / d
            for k, p in ks:
                sums[k] += float(v ** p * w)
    # the whole blocks, _BLOCK <= lo < last, hold no edge rank: their table terms and plain
    # sums wait for the matrix products after the walk, and only the other terms visit them
    last = (n - edge) // _BLOCK * _BLOCK
    plain = {k: keys[0][1] for k, keys in factors if len(keys) == 1 and keys[0][0] == "x"}
    for lo in range(0, n, _BLOCK):
        whole = _BLOCK <= lo < last
        if whole and len(plain) == len(factors):
            continue
        x = values[lo:lo + _BLOCK]
        hi = lo + x.shape[0]
        parts = {("x", 1): x}

        def part(key):
            """This block's x^e, u^e, (1-u)^e, b_e or a_e weight, or the sum of one."""
            if key not in parts:
                kind, e = key
                if kind in ("x", "u", "1-u") and e != 1:
                    value = part((kind, 1)) ** e
                elif kind == "u":
                    value = _block_positions(lo, hi, n, conv)
                elif kind == "1-u":  # (d - k - c)/d from the ranks, exact as u is
                    value = _ranks(d - lo - c, hi - lo, down=True) / d
                elif kind == "sum":  # of the values of the key e
                    value = float(part(e).sum())
                else:  # the running ratio product
                    m = (_ranks(lo, hi - lo) if kind == "b"
                         else _ranks(n - 1.0 - lo, hi - lo, down=True))
                    value = m / (n - 1.0)
                    for j in range(2, e + 1):
                        value = value * ((m - (j - 1)) / (n - j))
                parts[key] = value
            return parts[key]

        if weights and not whole:  # the spans past the edge ranks
            spans, moments = ((max(lo, edge), hi), (lo, min(hi, n - edge))), {}
            for (top, a, e), ks in weights.items():
                start, stop = spans[top]
                if start >= stop:
                    continue
                coef = _coefficients(n - stop if top else start, a, e, n, d)
                for k, p in ks:
                    got = moments.get((p, top))
                    if got is None and p:
                        y = part(("x", p))[start - lo:stop - lo]
                        got = moments[p, top] = _moments(
                            y, top, rows[p, top],
                            part(("sum", ("x", p))) if stop - start == hi - lo else float(y.sum()))
                    elif got is None:
                        got = moments[p, top] = _power_sums(stop - start, rows[p, top])
                    sums[k] += sum(map(operator.mul, coef, got))
        for k, keys in factors:
            if whole and k in plain:
                continue
            if len(keys) == 1:  # the sum the spans above made, if they did
                total = parts.get(("sum", keys[0]))
                sums[k] += float(part(keys[0]).sum()) if total is None else total
                continue
            y = part(keys[0])
            for key in keys[1:-1]:
                y = y * part(key)
            sums[k] += float(np.dot(y, part(keys[-1])))
    if last > _BLOCK:  # each row's moments of x^p: its pairwise sum and one matrix product
        table = {p for p, _ in rows}  # the powers of x that a table term reads
        moments = _row_moments(values, _BLOCK, last, {p: _TABLE if p in table else None
                                                      for p in table | set(plain.values()) if p})
        starts = np.arange(_BLOCK, last, _ROW, dtype=float)
        moments[0] = np.broadcast_to(_TABLE_SUMS[:, None], (_TABLE_SUMS.shape[0], starts.shape[0]))
        for (top, a, e), ks in weights.items():  # row j of the coefficients times moment j
            coef = _coefficients(n - _ROW - starts if top else starts, a, e, n, d, _ROW)
            coef = np.array([np.broadcast_to(cj, starts.shape) for cj in coef])
            for k, p in ks:
                got = moments[p][[0, *range(1 + _DEGREE * top, 1 + _DEGREE * top + e)]]
                sums[k] += float((coef * got).sum())
        for k, p in plain.items():
            sums[k] += float(moments[p][0].sum())
    return [total / n for total in sums]

