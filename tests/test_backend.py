"""The row-reduction kernel against the reference Gauss–Jordan oracle.

The kernel takes integer rows and returns primitive integer rows with
positive pivot entries; ``integer_rref`` is the one place where the tests
cross between that contract and the oracle's ``Fraction`` rows.  A ℚ(i)
matrix reaches the kernel as the integer rows of its realification, so
Gaussian rows are reduced through ``Matrix(…, FIELD_QI).rref()``
(``qi_rref``) and compared with the oracle on the same Gaussian rows.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import example, given, settings, strategies as st
from rref_oracle import oracle_rref_rows

from persplit._core import rref_rows
from persplit.linalg import Matrix
from persplit.scalars import FIELD_QI, GI_ZERO, Gaussian

ZERO = Fraction(0)

SMALL_Q = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
BIG_Q = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
RATIONALS = st.one_of(st.just(ZERO), SMALL_Q, BIG_Q)
GAUSSIANS = st.one_of(st.just(GI_ZERO), st.builds(Gaussian, SMALL_Q, SMALL_Q))


@st.composite
def row_lists(draw, entries, zero):
    """Up to 6×6 rows, with zero rows and duplicate rows mixed in."""
    ncols = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(draw(st.integers(0, 6)))]
    for kind in draw(st.lists(st.sampled_from(("zero", "duplicate")), max_size=3)):
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, [zero] * ncols)
        elif rows:
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows, ncols


def integer_rref(rows, ncols, scales=None):
    """The kernel on ``Fraction`` rows, through its integer contract: row k
    is cleared of denominators (times ``scales[k]``, default 1, which keeps
    the row space), reduced by ``rref_rows``, checked to come back as
    primitive integer rows with positive pivot entries, and divided by
    each pivot entry.  Returns the RREF as ``Fraction`` rows and the pivots."""
    scales = scales or [1] * len(rows)
    ints = []
    for row, scale in zip(rows, scales):
        den = lcm(*[x.denominator for x in row])
        ints.append(tuple(x.numerator * (den // x.denominator) * scale for x in row))
    snapshot = list(ints)
    reduced, pivots = rref_rows(ints, ncols)
    assert ints == snapshot, "the kernel mutated its input"
    for row, p in zip(reduced, pivots):
        assert type(row) is tuple and all(type(x) is int for x in row)
        assert row[p] > 0 and gcd(*row) == 1
    return [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(reduced, pivots)], pivots


def qi_rref(rows, ncols):
    """The RREF of the ℚ(i) matrix of the Gaussian ``rows``, reduced on its
    stored realification: ``(the RREF's rows as read from .data, pivots)``.
    The matrix's stored rows must be left as they were."""
    m = Matrix(len(rows), ncols, rows, FIELD_QI)
    stored = m.integer_rows()
    reduced, pivots = m.rref()
    assert m.integer_rows() == stored, "the reduction mutated the matrix"
    return list(reduced.data), list(pivots)


def check_against_oracle(rows, ncols):
    snapshot = [list(r) for r in rows]
    if rows and rows[0] and isinstance(rows[0][0], Gaussian):
        out = qi_rref(rows, ncols)
    else:
        out = integer_rref(rows, ncols)
    assert rows == snapshot, "the kernel mutated its input"
    assert out == oracle_rref_rows(snapshot, ncols)
    return out


@settings(max_examples=200, deadline=None)
@given(row_lists(RATIONALS, ZERO))
@example(([], 0))
@example(([[], []], 0))
@example(([], 3))
@example(([[ZERO, ZERO], [ZERO, ZERO]], 2))
@example(([[Fraction(1, 999_983), Fraction(2, 3)], [Fraction(-5, 10**6), Fraction(7, 999_999)]],
          2))
def test_kernel_matches_oracle_over_q(case):
    rows, ncols = case
    check_against_oracle(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(row_lists(RATIONALS, ZERO), st.lists(st.integers(-6, 6).filter(bool), min_size=12,
                                           max_size=12))
def test_integer_kernel_ignores_row_scales(case, scales):
    """Rows scaled by any nonzero integers, negative or sharing a factor,
    reduce to the same primitive rows."""
    rows, ncols = case
    assert integer_rref(rows, ncols, scales[:len(rows)]) == integer_rref(rows, ncols)


def test_backends_agree_on_seeded_rational_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(ncols)) for _ in range(nrows)]
        assert integer_rref(rows, ncols) == oracle_rref_rows(rows, ncols)


def test_pure_kernel_does_not_mutate_input():
    for rows in ([(2, 4), (1, 2)],
                 [[1, 6], [0, 5]],
                 [[-3, 6, 9], [2, 0, 4]]):
        snapshot = [type(r)(r) for r in rows]
        rref_rows(rows, len(rows[0]))
        assert rows == snapshot
        assert all(type(r) is type(s) and r == s for r, s in zip(rows, snapshot))
    # Gaussian rows reach the kernel as the stored rows of a ℚ(i) matrix;
    # neither the rows nor the matrix may change
    check_against_oracle([[Gaussian(0, 2), Gaussian(1, 1)], [Gaussian(1, 0), GI_ZERO]], 2)


@settings(max_examples=100, deadline=None)
@given(row_lists(GAUSSIANS, GI_ZERO))
@example(([], 0))
@example(([[Gaussian(0, 2), Gaussian(1, 1)], [Gaussian(0, 1), Gaussian(Fraction(1, 2), Fraction(1, 2))]],
          2))
def test_kernel_matches_oracle_over_qi(case):
    rows, ncols = case
    reduced, _ = check_against_oracle(rows, ncols)
    assert all(type(x) is Gaussian for row in reduced for x in row)


@st.composite
def reduced_variants(draw, entries, zero):
    """An RREF (zero rows interleaved), the same rows permuted, or the
    RREF with one extra nonzero in another row's pivot column."""
    rows, ncols = draw(row_lists(entries, zero))
    rref, pivots = oracle_rref_rows(rows, ncols)
    rref = [list(r) for r in rref]
    kind = draw(st.sampled_from(("reduced", "permuted", "pivot column hit")))
    if kind == "permuted":
        rref = draw(st.permutations(rref))
    elif kind == "pivot column hit" and len(rref) >= 2:
        i, k = draw(st.lists(st.integers(0, len(rref) - 1), min_size=2, max_size=2,
                             unique=True))
        rref[i][pivots[k]] = draw(entries.filter(bool))
    if rref and draw(st.booleans()):
        rref.insert(draw(st.integers(0, len(rref))), [zero] * ncols)
    return kind, rref, ncols


@settings(max_examples=200, deadline=None)
@given(st.one_of(reduced_variants(RATIONALS, ZERO), reduced_variants(GAUSSIANS, GI_ZERO)))
@example(("permuted", [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], 2))
@example(("pivot column hit", [[Fraction(1), Fraction(3)], [Fraction(0), Fraction(1)]], 2))
@example(("pivot column hit", [[Fraction(1), Fraction(0)], [Fraction(5), Fraction(1)]], 2))
def test_kernel_on_reduced_permuted_and_perturbed_rrefs(case):
    kind, rows, ncols = case
    reduced, _ = check_against_oracle(rows, ncols)
    if kind == "reduced":
        assert reduced == [tuple(r) for r in rows if any(r)]
