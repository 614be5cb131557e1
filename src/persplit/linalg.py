"""Dense exact matrices over Q or Q(i) and the subspace lattice.

Subspaces are stored by their reduced row-echelon basis, which is the
canonical form: two subspaces are equal iff their bases are identical.
Containment is one product on that basis: each basis row is 1 at its own
pivot and 0 at the others, so B ⊆ A exactly when B[:, pivots(A)] · A = B.
All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._core import rref_rows
from .errors import DimensionMismatch, FieldMismatch, InputError
from .scalars import FIELD_Q, FIELD_QI, Q_ZERO, Gaussian, as_field, field_one, field_zero


class Matrix:
    """Immutable dense matrix; rows of exact field elements."""

    __slots__ = ("rows", "cols", "data", "field", "_hash", "_transpose", "_integer")

    def __init__(self, rows, cols, data, field=FIELD_Q, *, _raw=False):
        if _raw:
            entries = data
        else:
            entries = tuple(tuple(as_field(x, field) for x in row) for row in data)
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise DimensionMismatch(f"expected {rows}x{cols} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", entries)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, data, cols=None, field=FIELD_Q):
        data = list(data)
        if cols is None:
            if not data:
                raise InputError("cannot infer width of an empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data, field)

    @classmethod
    def zero(cls, rows, cols, field=FIELD_Q):
        z = field_zero(field)
        return cls(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)),
                   field, _raw=True)

    @classmethod
    def identity(cls, n, field=FIELD_Q):
        z, o = field_zero(field), field_one(field)
        return cls(n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
                   field, _raw=True)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.field, self.data) == \
               (other.rows, other.cols, other.field, other.data)

    def __hash__(self):
        # formed once: a matrix keys memos, and hashing every Fraction is slow
        try:
            return self._hash
        except AttributeError:
            value = hash((self.rows, self.cols, self.field, self.data))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.data, other.data)),
                      self.field, _raw=True)

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.data, other.data)),
                      self.field, _raw=True)

    def __neg__(self):
        return Matrix(self.rows, self.cols,
                      tuple(tuple(-a for a in row) for row in self.data),
                      self.field, _raw=True)

    def scale(self, c):
        c = as_field(c, self.field)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * a for a in row) for row in self.data),
                      self.field, _raw=True)

    def __matmul__(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} @ {other.field}")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.field == FIELD_Q:
            out = _matmul_rational(self.data, other)
            return Matrix(self.rows, other.cols, out, self.field, _raw=True)
        # Row-times-matrix over the nonzero entries only: out_row += a · b_row.
        zero = field_zero(self.field)
        sparse = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.data]
        out = []
        for row in self.data:
            acc = [zero] * other.cols
            for a, bnz in zip(row, sparse):
                if a:
                    for j, b in bnz:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out), self.field, _raw=True)

    def transpose(self):
        # formed once: a basis or block is transposed by many products
        try:
            return self._transpose
        except AttributeError:
            value = Matrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else
                           tuple(() for _ in range(self.cols)), self.field, _raw=True)
            object.__setattr__(self, "_transpose", value)
            return value

    def _integer_form(self):
        """``(D, rows)`` over ℚ: D is the lcm of the denominators and each
        row lists ``(j, D·x)`` for its nonzero entries x.  Formed once, on
        the first product with this matrix as the right operand."""
        try:
            return self._integer
        except AttributeError:
            den = lcm(*[x.denominator for row in self.data for x in row if x])
            if den == 1:
                rows = tuple([(j, x.numerator) for j, x in enumerate(row) if x]
                             for row in self.data)
            else:
                rows = tuple([(j, x.numerator * (den // x.denominator))
                              for j, x in enumerate(row) if x] for row in self.data)
            value = (den, rows)
            object.__setattr__(self, "_integer", value)
            return value

    def apply(self, vector):
        """Apply to a coordinate tuple (column-vector convention)."""
        if len(vector) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vector)} for {self.cols} columns")
        zero = field_zero(self.field)
        vec = tuple(as_field(x, self.field) for x in vector)
        return tuple(sum((a * x for a, x in zip(row, vec) if a and x), zero)
                     for row in self.data)

    def row(self, i):
        return self.data[i]

    def stack(self, other):
        if self.cols != other.cols or self.field != other.field:
            raise DimensionMismatch("stack shape mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.data + other.data,
                      self.field, _raw=True)

    def rref(self):
        reduced, pivots = rref_rows(self.data, self.cols)
        return Matrix(len(reduced), self.cols, tuple(reduced), self.field, _raw=True), tuple(pivots)

    def rank(self):
        return self.rref()[0].rows

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        ident = Matrix.identity(n, self.field)
        aug = tuple(self.data[i] + ident.data[i] for i in range(n))
        reduced, pivots = rref_rows(aug, 2 * n)
        if len(reduced) < n or tuple(pivots) != tuple(range(n)):
            raise InputError("matrix is singular")
        return Matrix(n, n, tuple(row[n:] for row in reduced), self.field, _raw=True)

    def complexify(self):
        if self.field == FIELD_QI:
            return self
        return Matrix(self.rows, self.cols,
                      tuple(tuple(Gaussian(a) for a in row) for row in self.data),
                      FIELD_QI, _raw=True)

    def conjugate(self):
        if self.field == FIELD_Q:
            return self
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a.conj() for a in row) for row in self.data),
                      FIELD_QI, _raw=True)

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _matmul_rational(a_rows, b: Matrix):
    """Rows of A·B over ℚ, fraction-free: B's integer form is scaled by the
    lcm of its denominators (see ``Matrix._integer_form``), each row of A
    by the lcm of that row's, and the products are summed as integers over
    the nonzero entries only.  One ``Fraction`` is built per nonzero output
    entry; a row of A whose only term is a 1 copies the row of B."""
    ncols, b_rows = b.cols, b.data
    zero_row = (Q_ZERO,) * ncols
    b_den, sparse = b._integer_form()
    out = []
    for row in a_rows:
        terms = [(a, bnz, brow) for a, bnz, brow in zip(row, sparse, b_rows) if a and bnz]
        if not terms:
            out.append(zero_row)
            continue
        if len(terms) == 1 and terms[0][0] == 1:
            out.append(terms[0][2])
            continue
        a_den = lcm(*[a.denominator for a, _, _ in terms])
        acc = [0] * ncols
        for a, bnz, _ in terms:
            c = a.numerator if a_den == 1 else a.numerator * (a_den // a.denominator)
            for j, y in bnz:
                acc[j] += c * y
        den = a_den * b_den
        if den == 1:
            out.append(tuple([Fraction(x) if x else Q_ZERO for x in acc]))
        else:
            out.append(tuple([Fraction(x, den) if x else Q_ZERO for x in acc]))
    return tuple(out)


def rref(m: Matrix) -> Matrix:
    """The unique reduced row-echelon form of ``m`` with zero rows removed."""
    return m.rref()[0]


class Subspace:
    """A subspace of a coordinate space, canonically spanned.

    ``basis`` is the RREF matrix of any spanning set; equality of
    subspaces is equality of these bases.
    """

    __slots__ = ("ambient_dim", "basis", "field")

    def __init__(self, ambient_dim, basis: Matrix, field=None, *, _canonical=False):
        field = field or basis.field
        if basis.cols != ambient_dim:
            raise DimensionMismatch(f"basis width {basis.cols} != ambient {ambient_dim}")
        if basis.field != field:
            raise FieldMismatch(f"{basis.field} basis in {field} subspace")
        if not _canonical:
            basis = rref(basis)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, rows, ambient_dim, field=FIELD_Q):
        rows = list(rows)
        mat = Matrix(len(rows), ambient_dim, rows, field)
        return cls(ambient_dim, mat, field)

    @classmethod
    def zero(cls, ambient_dim, field=FIELD_Q):
        return cls(ambient_dim, Matrix.zero(0, ambient_dim, field), field, _canonical=True)

    @classmethod
    def full(cls, ambient_dim, field=FIELD_Q):
        return cls(ambient_dim, Matrix.identity(ambient_dim, field), field, _canonical=True)

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim, self.field, self.basis.data) == \
               (other.ambient_dim, other.field, other.basis.data)

    def __hash__(self):
        return hash((self.ambient_dim, self.field, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ambient_dim

    def contains_vector(self, vector):
        vec = tuple(as_field(x, self.field) for x in vector)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        return _spans(self.basis, _leads(self.basis.data), (vec,))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        rows = other.basis.data
        if not rows or self.is_full():
            return True
        if len(rows) > self.dim:
            return False
        leads = _leads(self.basis.data)
        # a vector of the span leads at one of the basis's pivots
        if not set(_leads(rows)) <= set(leads):
            return False
        return _spans(self.basis, leads, rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.ambient_dim, self.basis.stack(other.basis), self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim, self.field)
        if self.is_full() or other.is_full():
            return other if self.is_full() else self
        # x·A = y·B exactly when (x, −y) is in the kernel of [Aᵗ | Bᵗ], so
        # the x-parts of that kernel, times A, span the intersection.
        a, b = self.basis, other.basis
        combined = _hstack(a.transpose(), b.transpose())
        ker = kernel(combined)
        rows = [ker_row[: a.rows] for ker_row in ker.basis.data]
        coeff = Matrix(len(rows), a.rows, tuple(rows), self.field, _raw=True)
        return Subspace(self.ambient_dim, coeff @ a, self.field)

    def cut_by(self, rows: Matrix) -> "Subspace":
        """{v ∈ S : rows·v = 0}.  With v = x·S, the condition is
        rows·Sᵀ·xᵀ = 0, so the cut is X·S for X the kernel of rows·Sᵀ."""
        if rows.cols != self.ambient_dim:
            raise DimensionMismatch(f"rows of width {rows.cols} vs ambient {self.ambient_dim}")
        if rows.field != self.field:
            raise FieldMismatch(f"{rows.field} vs {self.field}")
        if self.is_zero() or not rows.rows:
            return self
        if self.is_full():
            return kernel(rows)
        product = rows @ self.basis.transpose()
        if product.is_zero():
            return self
        coeffs = kernel(product)
        if coeffs.is_zero():
            return Subspace.zero(self.ambient_dim, self.field)
        # X·S is already reduced: on S's pivot columns it reads X, which is
        # an RREF, and each row of X·S leads at the pivot of its first term.
        return Subspace(self.ambient_dim, coeffs.basis @ self.basis, self.field,
                        _canonical=True)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace: {f : B·f = 0}."""
        return kernel(self.basis)

    def complexify(self) -> "Subspace":
        if self.field == FIELD_QI:
            return self
        return Subspace(self.ambient_dim, self.basis.complexify(), FIELD_QI, _canonical=True)

    def conjugate(self) -> "Subspace":
        if self.field == FIELD_Q:
            return self
        # conjugation fixes 0 and 1, so the conjugate of an RREF is an RREF
        return Subspace(self.ambient_dim, self.basis.conjugate(), FIELD_QI, _canonical=True)

    def _check_compatible(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(f"ambient {self.ambient_dim} vs {other.ambient_dim}")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")


def _hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.field != b.field:
        raise DimensionMismatch("hstack shape mismatch")
    return Matrix(a.rows, a.cols + b.cols,
                  tuple(ra + rb for ra, rb in zip(a.data, b.data)), a.field, _raw=True)


def _leads(rows):
    """Column of the first nonzero entry of each (nonzero) row."""
    return [next(j for j, x in enumerate(row) if x) for row in rows]


def _spans(basis: Matrix, leads, rows) -> bool:
    """True iff every row lies in the row span of the RREF ``basis``.

    Each basis row is 1 at its own pivot and 0 at the others, so v is in
    the span exactly when v = Σ_k v[p_k]·basis_k: one product decides all
    rows at once."""
    coeffs = tuple(tuple(row[p] for p in leads) for row in rows)
    return (Matrix(len(rows), len(leads), coeffs, basis.field, _raw=True) @ basis).data \
        == tuple(rows)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m·v = 0}, canonical."""
    reduced, pivots = m.rref()
    n = m.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    zero, one = field_zero(m.field), field_one(m.field)
    rows = []
    for j in free:
        vec = [zero] * n
        vec[j] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.data[r][j]
        rows.append(tuple(vec))
    basis = Matrix(len(rows), n, tuple(rows), m.field, _raw=True)
    return Subspace(n, basis, m.field)


def image(m: Matrix) -> Subspace:
    """Column space of ``m`` (as a subspace of the target)."""
    return Subspace(m.rows, m.transpose(), m.field)


def image_of(m: Matrix, s: Subspace) -> Subspace:
    """Image m(S) in the target space."""
    if m.cols != s.ambient_dim:
        raise DimensionMismatch(f"map source {m.cols} vs subspace ambient {s.ambient_dim}")
    if m.field != s.field:
        raise FieldMismatch(f"{m.field} vs {s.field}")
    if s.is_full():
        return image(m)
    return Subspace(m.rows, s.basis @ m.transpose(), m.field)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : m·v ∈ S}."""
    if m.rows != s.ambient_dim:
        raise DimensionMismatch(f"map target {m.rows} vs subspace ambient {s.ambient_dim}")
    if m.field != s.field:
        raise FieldMismatch(f"{m.field} vs {s.field}")
    if s.is_full():
        return Subspace.full(m.cols, m.field)
    ann = s.annihilator()  # rows f with f·s = 0 for all s in S
    return kernel(ann.basis @ m)


class QuotientMap:
    """A surjection A → A/B with a recorded basis of the quotient.

    ``projection`` sends ambient coordinates to quotient coordinates
    (columns convention); ``section`` rows are the chosen representatives,
    so projection∘section = identity on quotient coordinates.
    """

    __slots__ = ("source", "kernel_space", "projection", "section")

    def __init__(self, source, kernel_space, projection, section):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "kernel_space", kernel_space)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "section", section)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    @property
    def dim(self):
        return self.projection.rows

    def project_vector(self, vector):
        return self.projection.apply(vector)

    def project_subspace(self, s: Subspace) -> Subspace:
        return image_of(self.projection, s)

    def lift_vector(self, coords):
        """Representative in the ambient space of quotient coordinates."""
        return self.section.transpose().apply(coords)


def quotient_map(a: Subspace, b: Subspace) -> QuotientMap:
    """Quotient a/b for b ⊆ a, with deterministic representatives."""
    a._check_compatible(b)
    if not a.contains(b):
        raise InputError("quotient_map requires b ⊆ a")
    n, field = a.ambient_dim, a.field
    # Extend b's basis greedily by rows of a, then by unit vectors, to a
    # full basis.  Each candidate is reduced against one running echelon
    # of everything accepted so far; it is accepted iff a remainder is left.
    echelon = list(zip(_leads(b.basis.data), b.basis.data))

    def independent(vec):
        vec = list(vec)
        for pivot, row in echelon:      # each row vanishes at earlier pivots
            c = vec[pivot]
            if c:
                for j in range(pivot, n):
                    vec[j] -= c * row[j]
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is not None:
            head = vec[pivot]
            echelon.append((pivot, tuple(x / head for x in vec)))
        return pivot is not None

    comp_rows = tuple(row for row in a.basis.data if independent(row))
    q = len(comp_rows)
    if all(_is_unit_vector(row) for row in b.basis.data + comp_rows):
        # Completed by the missing unit vectors, the basis is a permutation
        # matrix P, and (Pᵗ)⁻¹ = P: the coordinate rows are the rows.
        proj_rows = comp_rows
    else:
        extra_rows = []
        zero, one = field_zero(field), field_one(field)
        for j in range(n):
            if len(echelon) == n:
                break
            unit = tuple(one if k == j else zero for k in range(n))
            if independent(unit):
                extra_rows.append(unit)
        full = Matrix(n, n, b.basis.data + comp_rows + tuple(extra_rows), field, _raw=True)
        # Coordinates of a column vector v in the row basis: x = (fullᵗ)⁻¹ v.
        proj_rows = full.transpose().inverse().data[b.dim: b.dim + q]
    projection = Matrix(q, n, proj_rows, field, _raw=True)
    section = Matrix(q, n, comp_rows, field, _raw=True)
    return QuotientMap(a, b, projection, section)


def _is_unit_vector(row):
    """Exactly one nonzero entry, and it is 1."""
    nonzero = [x for x in row if x]
    return len(nonzero) == 1 and nonzero[0] == 1
