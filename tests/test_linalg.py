import random

import pytest
from hypothesis import example, given, settings, strategies as st

from persplit.errors import DimensionMismatch, FieldMismatch, InputError
from persplit.linalg import (Matrix, Subspace, image_of, kernel, preimage,
                             quotient_map, rref)
from persplit.scalars import FIELD_Q, FIELD_QI, GI_ZERO, Gaussian, Rat, as_field

from oracle_helpers import frac_matrix
from rref_oracle import oracle_rref_rows
from test_backend import BIG_Q, RATIONALS, SMALL_Q


def field_zero(field):
    return Rat(0) if field == FIELD_Q else GI_ZERO


def field_one(field):
    return Rat(1) if field == FIELD_Q else Gaussian(1)


# --- reduced row echelon form ---------------------------------------------

def test_rref_rank_one_collapse():
    assert rref(frac_matrix([[2, 4], [1, 2]])) == frac_matrix([[1, 2]])


def test_rref_identity_fixed():
    ident = Matrix.identity(3)
    assert rref(ident) == ident


def test_rref_swap_oracle():
    assert rref(frac_matrix([[0, 1], [1, 0]])) == Matrix.identity(2)


def test_rref_unique_for_row_space():
    rng = random.Random(4)
    for _ in range(25):
        rows = [[Rat(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
        m = Matrix.from_rows(rows, 4)
        # random invertible row mix must not change the canonical form
        mix = frac_matrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        assert rref(mix @ m) == rref(m)


# --- kernel / image --------------------------------------------------------

def test_kernel_zero_map_is_full():
    assert kernel(Matrix.zero(2, 3)) == Subspace.full(3)


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(4)) == Subspace.zero(4)


def test_kernel_line_oracle():
    got = kernel(frac_matrix([[1, 1, 0]]))
    assert got == Subspace.span([[1, -1, 0], [0, 0, 1]], 3)
    assert got.dim == 2


def test_image_dimension_is_rank():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    img = image_of(m, Subspace.full(3))
    assert img.dim == m.rank() == 2


# --- subspace lattice ------------------------------------------------------

def test_intersect_axes_is_zero():
    x = Subspace.span([[1, 0]], 2)
    y = Subspace.span([[0, 1]], 2)
    assert x.intersect(y) == Subspace.zero(2)


def test_preimage_of_identity_is_same_subspace():
    s = Subspace.span([[1, 2, 0], [0, 0, 1]], 3)
    assert preimage(Matrix.identity(3), s) == s


def test_modularity_on_seeded_pairs():
    rng = random.Random(11)
    for _ in range(500):
        a = Subspace.span([[Rat(rng.randint(-3, 3)) for _ in range(6)]
                           for _ in range(rng.randint(0, 4))], 6)
        b = Subspace.span([[Rat(rng.randint(-3, 3)) for _ in range(6)]
                           for _ in range(rng.randint(0, 4))], 6)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
        assert a.sum(b) == b.sum(a)  # identical canonical bases


def test_containment_and_membership():
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace.span([[1, 1, 0]], 3)
    assert a.contains(b)
    assert not b.contains(a)
    assert a.contains_vector([2, -3, 0])
    assert not a.contains_vector([0, 0, 1])


def entry_drawers(draw, field, n):
    """Drawers of one entry and of one length-n vector over ``field``; over
    ℚ some entries have big numerators and denominators."""
    def entry():
        if field == FIELD_Q:
            return Rat(draw(st.one_of(SMALL, SMALL, BIG_Q)))
        return Gaussian(draw(SMALL), draw(SMALL))

    def vector():
        return tuple(entry() for _ in range(n))
    return entry, vector


@st.composite
def containment_cases(draw):
    """(a, b, v) in field^n, n ∈ 0..5: b is spanned by combinations of a's
    basis, sometimes with extra random rows, so that both verdicts are
    common; v is a row of b, a random vector or zero."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    n = draw(st.integers(0, 5))
    entry, vector = entry_drawers(draw, field, n)
    gens = [vector() for _ in range(draw(st.integers(0, 5)))]
    a = Subspace(n, Matrix(len(gens), n, tuple(gens), field), field)
    zero = field_zero(field)
    combos = [tuple(entry() for _ in range(a.dim)) for _ in range(draw(st.integers(0, 4)))]
    b_rows = [tuple(sum((c * row[j] for c, row in zip(combo, a.basis.data)), zero)
                    for j in range(n)) for combo in combos]
    b_rows += [vector() for _ in range(draw(st.integers(0, 2)))]
    b = Subspace(n, Matrix(len(b_rows), n, tuple(b_rows), field), field)
    v = draw(st.sampled_from(b.basis.data + (vector(), (zero,) * n)))
    return a, b, v


def _q(rows, n=3):
    return Subspace.span(rows, n)


@settings(max_examples=300, deadline=None)
@given(containment_cases())
@example((_q([[1, 0, 1], [0, 1, 0]]), Subspace.zero(3), (0, 0, 0)))              # b = 0
@example((Subspace.full(3), _q([[1, 2, 3]]), (5, Rat(1, 7), 0)))                   # a full
@example((_q([[1, 2, 0]]), _q([[1, 2, 0]]), (2, 4, 0)))                            # a == b
@example((_q([[1, 0, 1]]), _q([[1, 0, 1], [0, 1, 1]]), (0, 1, 1)))                 # dim b > dim a
@example((_q([[1, 0, 0], [0, 1, 1]]), _q([[0, 1, 0]]), (0, 1, 0)))                 # leads ⊆, b ⊄ a
@example((_q([[1, 0, 1]]), _q([[1, 0, 2]]), (1, 0, 2)))                            # leads ⊆, b ⊄ a
@example((_q([[1, 0, 0], [0, 1, 1]]), _q([[1, 0, 0], [0, 1, 0]]), (0, 1, 0)))      # only row 0 in a
@example((Subspace.zero(0), Subspace.zero(0), ()))
def test_containment_matches_sum_dimension(case):
    a, b, v = case
    snapshot = (a.basis.data, b.basis.data, list(v))
    assert a.contains(b) == (a.sum(b).dim == a.dim)
    vec = list(v)
    line = Subspace(a.ambient_dim, Matrix(1, a.ambient_dim, (tuple(v),), a.field), a.field)
    assert a.contains_vector(vec) == a.contains(line) == (a.sum(line).dim == a.dim)
    assert (a.basis.data, b.basis.data, vec) == snapshot, "containment mutated an operand"


@st.composite
def cut_cases(draw):
    """(S, R) in field^n, n ∈ 0..5: R's rows are combinations of S's
    annihilator, sometimes with extra random rows, so that cuts keeping
    all of S, part of it and none of it are all common."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    n = draw(st.integers(0, 5))
    entry, vector = entry_drawers(draw, field, n)
    gens = [vector() for _ in range(draw(st.integers(0, 5)))]
    s = Subspace(n, Matrix(len(gens), n, tuple(gens), field), field)
    ann = s.annihilator().basis.data
    zero = field_zero(field)
    combos = [tuple(entry() for _ in ann) for _ in range(draw(st.integers(0, 3)))]
    rows = [tuple(sum((c * row[j] for c, row in zip(combo, ann)), zero) for j in range(n))
            for combo in combos]
    rows += [vector() for _ in range(draw(st.integers(0, 2)))]
    return s, Matrix(len(rows), n, tuple(rows), field)


@settings(max_examples=300, deadline=None)
@given(cut_cases())
@example((_q([[1, 0, 1]]), Matrix.zero(0, 3)))                                     # no rows
@example((Subspace.zero(3), frac_matrix([[1, 2, 3]])))                              # S = 0
@example((Subspace.full(3), frac_matrix([[1, 2, 3], [2, 4, 6]])))                   # S full
@example((_q([[1, 0, 1], [0, 1, 0]]), frac_matrix([[1, 0, -1], [2, 0, -2]])))       # R·Sᵀ = 0
@example((_q([[1, 0, 0], [0, 1, 1]]), frac_matrix([[1, 0, 0], [0, 1, 0]])))         # cut is 0
@example((_q([[1, 0, 0], [0, 1, 1]]), frac_matrix([[0, 1, -1]])))                  # a proper cut
@example((Subspace.zero(0), Matrix.zero(1, 0)))
def test_cut_by_matches_intersection_with_kernel(case):
    s, rows = case
    snapshot = (s.basis.data, rows.data)
    assert s.cut_by(rows) == s.intersect(kernel(rows))
    assert (s.basis.data, rows.data) == snapshot, "cut_by mutated an operand"


def test_dimension_and_field_mismatches_raise():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(DimensionMismatch):
        a.sum(b)
    c = Subspace.full(2, FIELD_QI)
    with pytest.raises(FieldMismatch):
        a.sum(c)
    with pytest.raises(DimensionMismatch):
        a.cut_by(Matrix.zero(1, 3))
    with pytest.raises(FieldMismatch):
        a.cut_by(Matrix.zero(1, 2, FIELD_QI))


# --- quotients -------------------------------------------------------------

def test_quotient_map_projects_and_lifts():
    a = Subspace.full(3)
    b = Subspace.span([[1, 0, 0]], 3)
    q = quotient_map(a, b)
    assert q.dim == 2
    # section is a genuine right inverse
    for coords in ([1, 0], [0, 1], [2, -5]):
        assert tuple(q.projection.apply(q.section.transpose().apply(coords))) == tuple(coords)
    # b dies in the quotient
    assert not any(q.projection.apply([1, 0, 0]))


def test_quotient_map_requires_containment():
    a = Subspace.span([[1, 0]], 2)
    b = Subspace.span([[0, 1]], 2)
    with pytest.raises(InputError):
        quotient_map(a, b)


# --- complex field ---------------------------------------------------------

def test_conjugation_distributes_over_lattice():
    i = Gaussian(0, 1)
    a = Subspace.span([[1, i]], 2, FIELD_QI)
    b = Subspace.span([[1, -i]], 2, FIELD_QI)
    assert a.conjugate().conjugate() == a
    assert a.sum(b).conjugate() == a.conjugate().sum(b.conjugate())
    assert a.intersect(b).conjugate() == a.conjugate().intersect(b.conjugate())
    # the conjugate of an RREF basis is already the RREF of its conjugate
    for s in (a, b, a.sum(b), a.intersect(b), Subspace.span([[2, 1 + i, 0], [1, 0, i]], 3,
                                                             FIELD_QI)):
        assert s.conjugate().basis == rref(s.basis.conjugate())


def test_complexify_preserves_dimension():
    s = Subspace.span([[1, 2, 3], [0, 1, 1]], 3)
    c = s.complexify()
    assert c.dim == s.dim and c.field == FIELD_QI


def test_inverse_exact():
    m = frac_matrix([[1, 2], [3, 5]])
    assert m @ m.inverse() == Matrix.identity(2)
    with pytest.raises(InputError):
        frac_matrix([[1, 2], [2, 4]]).inverse()


# --- matrix product ----------------------------------------------------------

def naive_matmul(a, b):
    """Dense triple loop, every product formed."""
    zero = field_zero(a.field)
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.data[i][k] * b.data[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return Matrix(a.rows, b.cols, tuple(rows), a.field)


SMALL = st.sampled_from((0, 0, 0, 1, -1, 2, Rat(1, 3)))


@st.composite
def matrix_pairs(draw):
    """(a, b) of shapes (m, n) and (n, p), m, n, p ∈ 0..4, over Q or Q(i),
    sparse enough that zero rows and zero columns are common; over Q some
    entries have denominators up to 10^6 that differ within a row."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    m, n, p = (draw(st.integers(0, 4)) for _ in range(3))
    entry, _ = entry_drawers(draw, field, 0)

    a = Matrix(m, n, tuple(tuple(entry() for _ in range(n)) for _ in range(m)), field)
    b = Matrix(n, p, tuple(tuple(entry() for _ in range(p)) for _ in range(n)), field)
    return a, b


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
@example((Matrix.zero(0, 3), Matrix.zero(3, 2)))
@example((Matrix.zero(3, 0), Matrix.zero(0, 2)))
@example((frac_matrix([[1], [2]]), Matrix.zero(1, 0)))
@example((Matrix.zero(2, 0), Matrix.zero(0, 3)))
@example((Matrix.zero(2, 0, FIELD_QI), Matrix.zero(0, 3, FIELD_QI)))
@example((frac_matrix([[0, 0], [1, 2]]), frac_matrix([[0, 3], [0, 4]])))
@example((frac_matrix([[0, 0, 0], [1, 0, 2]]), frac_matrix([[1, 0], [5, 0], [0, 0]])))
# all-integer operands
@example((frac_matrix([[2, -3, 0], [0, 1, 7]]), frac_matrix([[1, 0], [-4, 5], [6, 0]])))
# one dense row with mixed denominators, against big denominators in b
@example((frac_matrix([[Rat(1, 2), Rat(-2, 3), Rat(5, 999_983)]]),
          frac_matrix([[Rat(7, 10**6), 1, Rat(-1, 6)], [Rat(3, 4), 0, Rat(2, 999_999)],
                       [1, Rat(1, 5), Rat(-9, 8)]])))
# an all-zero row of a and an all-zero column of b
@example((frac_matrix([[0, 0], [Rat(1, 3), 2]]), frac_matrix([[1, 0], [Rat(1, 2), 0]])))
# a row of a that is one 1, whose product is the row of b
@example((frac_matrix([[0, 1], [1, 1]]), frac_matrix([[Rat(1, 3), 0], [0, Rat(2, 5)]])))
def test_matmul_matches_dense_triple_loop(pair):
    a, b = pair
    before = ([list(r) for r in a.data], [list(r) for r in b.data])
    got = a @ b
    # each operand is used again: the second products read the integer
    # form and the transposes that the first ones cached
    again = a @ b
    flipped = b.transpose() @ a.transpose()
    flipped_again = b.transpose() @ a.transpose()
    assert ([list(r) for r in a.data], [list(r) for r in b.data]) == before, \
        "matmul mutated an operand"
    want = naive_matmul(a, b)
    assert got == want
    assert again == want
    assert flipped == flipped_again == naive_matmul(b.transpose(), a.transpose())
    assert flipped.transpose() == want
    assert (got.rows, got.cols, got.field) == (a.rows, b.cols, a.field)
    # the zero entries are the field's own zero, not a stand-in
    assert all(type(x) is type(field_zero(a.field)) for row in got.data for x in row)



# --- quotient_map against the span-and-sum construction -----------------------

def span_and_sum_quotient_map(a, b):
    """The construction ``quotient_map`` replaced: each candidate is tested
    with ``contains_vector`` and absorbed by a fresh span and sum."""
    n, field = a.ambient_dim, a.field
    comp_rows, current = [], b
    for row in a.basis.data:
        if not current.contains_vector(row):
            comp_rows.append(row)
            current = current.sum(Subspace.span([row], n, field))
    extra_rows = []
    zero, one = field_zero(field), field_one(field)
    for j in range(n):
        if current.is_full():
            break
        unit = tuple(one if k == j else zero for k in range(n))
        if not current.contains_vector(unit):
            extra_rows.append(unit)
            current = current.sum(Subspace.span([unit], n, field))
    full = Matrix(n, n, b.basis.data + tuple(comp_rows) + tuple(extra_rows), field)
    q = len(comp_rows)
    projection = Matrix(q, n, full.transpose().inverse().data[b.dim: b.dim + q], field)
    return projection, Matrix(q, n, tuple(comp_rows), field)


@st.composite
def nested_pairs(draw):
    """(a, b) with b ⊆ a ⊆ field^n, n ∈ 0..5, both spanned by random rows."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    n = draw(st.integers(0, 5))

    def entry():
        if field == FIELD_Q:
            return Rat(draw(SMALL))
        return Gaussian(draw(SMALL), draw(SMALL))

    gens = [tuple(entry() for _ in range(n)) for _ in range(draw(st.integers(0, 5)))]
    a = Subspace(n, Matrix(len(gens), n, tuple(gens), field), field)
    combos = [tuple(entry() for _ in range(a.dim)) for _ in range(draw(st.integers(0, 4)))]
    zero = field_zero(field)
    b_rows = tuple(tuple(sum((c * row[j] for c, row in zip(combo, a.basis.data)), zero)
                         for j in range(n)) for combo in combos)
    return a, Subspace(n, Matrix(len(b_rows), n, b_rows, field), field)


@st.composite
def coordinate_nested_pairs(draw):
    """(a, b) with b ⊆ a both spanned by unit vectors: the extended basis
    is a permutation matrix."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    n = draw(st.integers(0, 6))
    a_axes = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    b_axes = sorted(draw(st.sets(st.sampled_from(a_axes)))) if a_axes else []

    def span(axes):
        return Subspace.span([[int(k == j) for k in range(n)] for j in axes], n, field)

    return span(a_axes), span(b_axes)


@settings(max_examples=100, deadline=None)
@given(nested_pairs())
@example((Subspace.full(3), Subspace.span([[1, 0, 0]], 3)))
@example((Subspace.zero(2), Subspace.zero(2)))
@example((Subspace.full(0), Subspace.zero(0)))
def test_quotient_map_matches_span_and_sum_construction(pair):
    a, b = pair
    q = quotient_map(a, b)
    projection, section = span_and_sum_quotient_map(a, b)
    assert q.projection == projection
    assert q.section == section
    assert q.dim == a.dim - b.dim


@settings(max_examples=50, deadline=None)
@given(coordinate_nested_pairs())
@example((Subspace.span([[0, 1, 0], [0, 0, 1]], 3), Subspace.span([[0, 0, 1]], 3)))
@example((Subspace.span([[0, 1, 0], [0, 0, 1]], 3, FIELD_QI),
          Subspace.span([[0, 0, 1]], 3, FIELD_QI)))
def test_quotient_map_reads_a_permutation_basis_without_inverting(pair):
    """A coordinate pair, over ℚ or ℚ(i), is read off its pivots.  Every
    other pair takes the greedy, which always inverts the completed basis,
    so a pair that missed the pivot read would raise here.  The result
    equals the span-and-sum construction."""
    a, b = pair

    def no_inverse(self):
        raise AssertionError("inverse() called on a permutation basis")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "inverse", no_inverse)
        q = quotient_map(a, b)
    projection, section = span_and_sum_quotient_map(a, b)
    assert q.projection == projection and q.section == section
    assert q.projection.data == q.section.data


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([]))))
@example((0, []))
@example((3, []))
@example((3, [0, 1, 2]))
@example((4, [3, 1, 3, 0]))
def test_coordinate_subspace_equals_the_span_of_its_unit_rows(case):
    n, offsets = case
    units = [[int(k == j) for k in range(n)] for j in offsets]
    sub = Subspace.coordinate(offsets, n)
    assert sub == Subspace.span(units, n)


def test_coordinate_subspace_rejects_offsets_outside_the_ambient():
    for offsets in ([3], [-1, 0]):
        with pytest.raises(DimensionMismatch):
            Subspace.coordinate(offsets, 3)


# --- the integer form against a Fraction and a Gaussian oracle -----------------
#
# A matrix is stored as integer rows over positive denominators, a ℚ(i)
# matrix as the integer rows of its realification; these properties
# compute every result again from the ``Fraction`` or ``Gaussian``
# entries alone, with the reference Gauss–Jordan oracle and triple loops.

def oracle_product(a_rows, b_rows, ncols, zero=Rat(0)):
    return tuple(tuple(sum((x * b_rows[k][j] for k, x in enumerate(row)), zero)
                       for j in range(ncols)) for row in a_rows)


def oracle_rref(rows, ncols):
    return tuple(oracle_rref_rows(rows, ncols)[0])


def oracle_kernel(rows, ncols, zero=Rat(0), one=Rat(1)):
    reduced, pivots = oracle_rref_rows(rows, ncols)
    vectors = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [zero] * ncols
        vec[j] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][j]
        vectors.append(vec)
    return oracle_rref(vectors, ncols)


def check_lattice_against_oracle(field, n, p, a_rows, b_rows, c_rows):
    """Products, reductions, kernels, inverses and the subspace lattice of
    the matrices of ``a_rows`` (m×n), ``b_rows`` (n×p) and ``c_rows`` (k×n)
    over ``field``, each against the oracle on the same entries."""
    zero, one = field_zero(field), field_one(field)
    a = Matrix(len(a_rows), n, a_rows, field)
    b = Matrix(n, p, b_rows, field)
    c = Matrix(len(c_rows), n, c_rows, field)
    assert a.data == a_rows and all(type(x) is type(zero) for row in a.data for x in row)
    assert (a @ b).data == oracle_product(a_rows, b_rows, p, zero)
    assert a.transpose().data == (tuple(zip(*a_rows)) if a_rows else ((),) * n)
    assert a.stack(c).data == a_rows + c_rows
    assert a.rref()[0].data == oracle_rref(a_rows, n)
    assert kernel(a).basis.data == oracle_kernel(a_rows, n, zero, one)
    s, t = Subspace(n, c), Subspace(n, a)
    s_basis = oracle_rref(c_rows, n)
    assert s.basis.data == s_basis
    assert s.sum(t).basis.data == oracle_rref(c_rows + a_rows, n)
    assert s.contains(t) == (len(oracle_rref(c_rows + a_rows, n)) == len(s_basis))
    assert all(s.contains_vector(row) == (len(oracle_rref(c_rows + (row,), n)) == len(s_basis))
               for row in a_rows)
    # S ∩ T is cut out by the functionals vanishing on S or on T
    assert s.intersect(t).basis.data == oracle_kernel(
        oracle_kernel(c_rows, n, zero, one) + oracle_kernel(a_rows, n, zero, one), n, zero, one)
    # {v ∈ S : A·v = 0} is X·S for X the kernel of A·Sᵀ
    x = oracle_kernel(oracle_product(a_rows, tuple(zip(*s_basis)) if s_basis
                                     else ((),) * n, len(s_basis), zero),
                      len(s_basis), zero, one)
    assert s.cut_by(a).basis.data == oracle_rref(oracle_product(x, s_basis, n, zero), n)
    if len(a_rows) == n:
        ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        reduced, pivots = oracle_rref_rows([row + e for row, e in zip(a_rows, ident)], 2 * n)
        if pivots[:n] == list(range(n)):
            assert a.inverse().data == tuple(row[n:] for row in reduced)
        else:
            with pytest.raises(InputError):
                a.inverse()


@st.composite
def rational_cases(draw):
    """Entry rows of shapes m×n, n×p and k×n (each of m, n, p, k in 0..4,
    so 0×n and n×0 occur), with big denominators and zero rows mixed in."""
    m, n, p, k = (draw(st.integers(0, 4)) for _ in range(4))

    def rows(r, c):
        out = [tuple(draw(RATIONALS) for _ in range(c)) for _ in range(r)]
        if out and draw(st.booleans()):
            out[draw(st.integers(0, r - 1))] = (Rat(0),) * c
        return tuple(out)
    return n, p, rows(m, n), rows(n, p), rows(k, n)


@settings(max_examples=200, deadline=None)
@given(rational_cases())
@example((3, 0, ((Rat(1, 999_983), 0, Rat(-5, 10**6)),) * 2, ((),) * 3, ()))
@example((0, 2, (), (), ((),)))
def test_integer_form_matches_fraction_oracle(case):
    check_lattice_against_oracle(FIELD_Q, *case)


PARTS = st.one_of(st.just(Rat(0)), st.just(Rat(0)), SMALL_Q, BIG_Q)
NONZERO_PARTS = st.one_of(SMALL_Q, BIG_Q).filter(bool)


@st.composite
def gaussian_cases(draw):
    """Gaussian entry rows of shapes m×n, n×p and k×n (each of m, n, p, k
    in 0..4, so 0×n and n×0 occur).  A row is random, zero, a Gaussian
    combination of earlier rows, or zero before a lead entry whose
    imaginary part is nonzero, so that pivots fall on such entries."""
    m, n, p, k = (draw(st.integers(0, 4)) for _ in range(4))

    def entry():
        return Gaussian(draw(PARTS), draw(PARTS))

    def rows(r, c):
        out = []
        for _ in range(r):
            kind = draw(st.sampled_from(("random", "zero", "combination", "imaginary lead")))
            if kind == "zero":
                out.append((GI_ZERO,) * c)
            elif kind == "combination" and out:
                u, v = (out[draw(st.integers(0, len(out) - 1))] for _ in range(2))
                x, y = entry(), entry()
                out.append(tuple(x * s + y * t for s, t in zip(u, v)))
            else:
                row = [entry() for _ in range(c)]
                if kind == "imaginary lead" and c:
                    lead = draw(st.integers(0, c - 1))
                    row[:lead] = [GI_ZERO] * lead
                    row[lead] = Gaussian(draw(PARTS), draw(NONZERO_PARTS))
                out.append(tuple(row))
        return tuple(out)
    return n, p, rows(m, n), rows(n, p), rows(k, n)


def gaussian_rows(*rows):
    return tuple(tuple(as_field(x, FIELD_QI) for x in row) for row in rows)


I = Gaussian(0, 1)


@settings(max_examples=200, deadline=None)
@given(gaussian_cases())
# rank one, the second row i times the first; a pivot at an imaginary entry
@example((2, 2, gaussian_rows((I, 1), (1, -I)), gaussian_rows((1, I), (0, 2 + I)),
          gaussian_rows((I, 0))))
@example((3, 0, gaussian_rows((0, I, 1), (0, 0, 2 * I)), ((),) * 3, ()))
@example((0, 2, (), (), ((),)))
def test_gaussian_form_matches_gaussian_oracle(case):
    check_lattice_against_oracle(FIELD_QI, *case)
    n, _, a_rows, _, _ = case
    a = Matrix(len(a_rows), n, a_rows, FIELD_QI)
    assert a.conjugate().data == tuple(tuple(x.conj() for x in row) for row in a_rows)
    assert a.conjugate().conjugate() == a
    real = Matrix(len(a_rows), n, tuple(tuple(x.re for x in row) for row in a_rows))
    assert real.complexify().data == tuple(tuple(Gaussian(x.re) for x in row) for row in a_rows)
    assert real.complexify().rational() == real
    assert a.rational() == (real if all(not x.im for row in a_rows for x in row) else a)


@settings(max_examples=200, deadline=None)
@given(rational_cases())
def test_equal_entries_give_equal_and_hash_equal_matrices(case):
    """Whatever path built a matrix (entries, a product, a reduction, a
    kernel, a sum), equal entries mean == and equal hashes."""
    n, p, a_rows, b_rows, c_rows = case
    a, b = Matrix(len(a_rows), n, a_rows), Matrix(n, p, b_rows)
    built = [a, a @ b, a.rref()[0], kernel(a).basis, a.transpose(), -a, a.scale(Rat(-7, 3)),
             a + a - a, Matrix.identity(a.rows) @ a, a @ Matrix.identity(n),
             Subspace(n, a.stack(Matrix(len(c_rows), n, c_rows))).basis]
    for m in built:
        again = Matrix(m.rows, m.cols, m.data)
        assert again == m and hash(again) == hash(m)
    assert a + a - a == a and hash(a + a - a) == hash(a)
    assert Matrix.identity(a.rows) @ a == a == a @ Matrix.identity(n)
    assert -(-a) == a and a.scale(Rat(-7, 3)).scale(Rat(-3, 7)) == a
    assert rref(a.rref()[0]) == a.rref()[0]
    integers = Matrix(len(a_rows), n, [[x.numerator if x.denominator == 1 else x for x in row]
                                       for row in a_rows])
    assert integers == a and hash(integers) == hash(a)


INTEGERS = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))


@st.composite
def integer_entry_rows(draw):
    """An r×c matrix of ``int`` entries (r, c in 0..4, so 0×n and n×0
    occur): each row random, zero, negative or with a common factor, and
    at most one entry swapped for a ``Fraction`` or a ``bool``."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = []
    for _ in range(r):
        row = [draw(INTEGERS) for _ in range(c)]
        kind = draw(st.sampled_from(("random", "zero", "negative", "common factor")))
        if kind == "zero":
            row = [0] * c
        elif kind == "negative":
            row = [-abs(x) for x in row]
        elif kind == "common factor":
            factor = draw(st.integers(2, 12))
            row = [factor * x for x in row]
        rows.append(row)
    other = draw(st.sampled_from((None, "fraction", "bool")))
    if r and c and other:
        entry = (Rat(draw(INTEGERS), draw(st.integers(1, 9))) if other == "fraction"
                 else draw(st.booleans()))
        rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = entry
    return r, c, rows


@settings(max_examples=300, deadline=None)
@given(integer_entry_rows())
@example((0, 3, []))
@example((3, 0, [[], [], []]))
@example((3, 3, [[0, 0, 0], [-2, -4, -6], [6, 9, -12]]))
@example((2, 2, [[True, False], [2, 4]]))
@example((2, 2, [[Rat(4), 2], [Rat(-1, 2), 3]]))
def test_integer_entries_are_stored_as_from_ratios_stores_them(case):
    r, c, rows = case
    m = Matrix(r, c, rows)
    want = Matrix.from_ratios(r, c, [[(x.numerator, x.denominator) for x in row]
                                     for row in rows])
    assert m == want and hash(m) == hash(want)
    assert m.integer_rows() == want.integer_rows()
    # stored as ints, never as bools or Fractions
    assert all(type(x) is int for row, q in m.integer_rows() for x in (*row, q))
    assert m.data == tuple(tuple(Rat(x) for x in row) for row in rows)
