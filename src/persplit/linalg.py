"""Dense exact matrices over ℚ or ℚ(i) and the subspace lattice.

A matrix stores each row as integers over one positive denominator,
(n_1, …, n_k)/q with gcd(n_1, …, n_k, q) = 1.  Each rational row has
exactly one such form, so equality and hashing read it directly, and the
kernel, products and the subspace lattice run on these integers.

A ℚ(i) matrix is stored as the ℚ matrix of its realification: entry
a + bi becomes the 2×2 block φ(a + bi) = [[a, b], [−b, a]].  φ is a ring
embedding, so sums, products and inverses commute with it and run on the
stored rows unchanged.  Stored row 2r is φ(v) = (Re v_1, Im v_1, Re v_2, …)
for row v, and row 2r + 1 is φ(iv).  The ℚ-RREF of such row pairs is
again such pairs, the realification of the ℚ(i)-RREF: a ℚ(i)-RREF row r
with pivot p gives the rows φ(r) and φ(ir), with pivots 2p and 2p + 1 and
zeros at every other pivot column.  So the canonical form, equality and
hashing stay exact.  Let F negate the stored entries whose row index +
column index is odd; F of a block is the block of the conjugate, so

- the conjugate is F of the stored matrix;
- the ℚ(i) transpose is F of the stored transpose;
- the ℚ(i) kernel of m is F of the ℚ kernel of the stored rows, which
  vanish on φ(x) exactly when m·x̄ = 0.

Row and column indices at the API are ℚ(i) indices; entry j is stored at
2j and 2j + 1.  The ``Fraction`` or ``Gaussian`` entries of
``Matrix.data`` are built only when something reads them: the file
format, the CLI and tests.

Subspaces are stored by their reduced row-echelon basis, which is the
canonical form: two subspaces are equal iff their bases are identical.
An RREF row is 1 at its pivot, so in integer form it is the primitive
integer row over its (positive) pivot entry, which is what the kernel
returns.  Containment is one product on that basis: each basis row is 1
at its own pivot and 0 at the others, so B ⊆ A exactly when
B[:, pivots(A)] · A = B.  All operations are pure; values are immutable
after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from ._core import rref_rows
from .errors import DimensionMismatch, FieldMismatch, InputError
from .scalars import FIELD_Q, FIELD_QI, GI_ZERO, Q_ZERO, Gaussian, as_field

_set = object.__setattr__

# stored rows (and columns) per row (and column) of a matrix over the field
_BLOCK = {FIELD_Q: 1, FIELD_QI: 2}


def _ratio(x):
    """``(numerator, denominator)`` of a value placed in ℚ."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return as_field(x, FIELD_Q).as_integer_ratio()


def _complex_ratio(x):
    """The ``_ratio`` of the real and of the imaginary part of ``x``."""
    if isinstance(x, Gaussian):
        return x.re.as_integer_ratio(), x.im.as_integer_ratio()
    return _ratio(x), (0, 1)


def _canonical(ints, den):
    """The row ints/den (den > 0) as ``(numerators, denominator)`` in lowest terms."""
    g = gcd(den, *ints)
    if g == 1:
        return tuple(ints), den
    return tuple([x // g for x in ints]), den // g


def _integer_row(ratios):
    """The canonical form of a row given as (numerator, denominator) pairs."""
    den = lcm(*[d for _, d in ratios])
    return _canonical([n if d == den else n * (den // d) for n, d in ratios], den)


def _turn(nums):
    """The stored row φ(iv) from φ(v): each pair (a, b) becomes (−b, a)."""
    return tuple([x for a, b in zip(nums[::2], nums[1::2]) for x in (-b, a)])


def _flip(num):
    """F: the stored entries whose row index + column index is odd, negated."""
    out = []
    for r, row in enumerate(num):
        row = list(row)
        row[1 - r % 2::2] = [-x for x in row[1 - r % 2::2]]
        out.append(tuple(row))
    return tuple(out)


def _matrix(rows, cols, num, den, field=FIELD_Q):
    """A matrix from canonical stored rows: ``num[r]/den[r]``."""
    m = object.__new__(Matrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "field", field)
    _set(m, "_num", num)
    _set(m, "_den", den)
    return m


def _units(indices, n):
    """The unit rows e_j of length n, j in ``indices``, as integer tuples."""
    return tuple((0,) * j + (1,) + (0,) * (n - j - 1) for j in indices)


def _pairs(rows, cols, pairs, field=FIELD_Q):
    """A matrix from canonical ``(numerators, denominator)`` stored rows."""
    return _matrix(rows, cols, tuple(n for n, _ in pairs), tuple(q for _, q in pairs), field)


def _stored(m, indices):
    """The stored indices of the rows, or columns, of ``m`` at ``indices``."""
    if m.field == FIELD_Q:
        return indices
    return [s for j in indices for s in (2 * j, 2 * j + 1)]


class Matrix:
    """Immutable dense matrix over ℚ or ℚ(i).

    ``_num[r]`` and ``_den[r]`` hold stored row r in its canonical integer
    form: row r itself over ℚ, a row of the realification over ℚ(i)."""

    __slots__ = ("rows", "cols", "field", "_num", "_den", "_data", "_hash", "_transpose",
                 "_integer")

    def __init__(self, rows, cols, data, field=FIELD_Q):
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        if field == FIELD_Q and all(type(x) is int for row in data for x in row):
            # integer rows over denominator 1 are already canonical
            num, den = tuple(data), (1,) * rows
        else:
            ratio = _ratio if field == FIELD_Q else _complex_ratio
            m = Matrix.from_ratios(rows, cols, [[ratio(x) for x in row] for row in data], field)
            num, den = m._num, m._den
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "field", field)
        _set(self, "_num", num)
        _set(self, "_den", den)

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
    def from_ratios(cls, rows, cols, ratios, field=FIELD_Q):
        """The matrix whose entry (r, c) is read from ``ratios[r][c]``: over
        ℚ a pair (n, d), d > 0, for n/d; over ℚ(i) a pair of such pairs, for
        the real and the imaginary part.  Shapes are not checked."""
        if field == FIELD_Q:
            return _pairs(rows, cols, [_integer_row(row) for row in ratios])
        pairs = []
        for row in ratios:
            nums, den = _integer_row([part for entry in row for part in entry])
            pairs += ((nums, den), (_turn(nums), den))
        return _pairs(rows, cols, pairs, field)

    @classmethod
    def zero(cls, rows, cols, field=FIELD_Q):
        k = _BLOCK[field]
        return _matrix(rows, cols, ((0,) * (k * cols),) * (k * rows), (1,) * (k * rows), field)

    @classmethod
    def identity(cls, n, field=FIELD_Q):
        size = _BLOCK[field] * n      # φ(1) is the 2×2 identity
        return _matrix(n, n, _units(range(size), size), (1,) * size, field)

    @property
    def data(self):
        """The entries as tuples of field elements, ``Fraction``s over ℚ
        and ``Gaussian``s over ℚ(i), built on the first read and kept."""
        try:
            return self._data
        except AttributeError:
            if self.field == FIELD_Q:
                value = tuple(tuple([Fraction(x, q) if x else Q_ZERO for x in row])
                              for row, q in zip(self._num, self._den))
            else:
                value = tuple(tuple([Gaussian(Fraction(a, q), Fraction(b, q)) if a or b
                                     else GI_ZERO for a, b in zip(row[::2], row[1::2])])
                              for row, q in zip(self._num[::2], self._den[::2]))
            _set(self, "_data", value)
            return value

    def integer_rows(self):
        """Each stored row as ``(numerators, denominator)``: the entries are
        n/q, q > 0 and gcd(n_1, …, n_k, q) = 1.  Over ℚ(i) these are the
        rows of the realification, and row 2r lists the real and the
        imaginary part of each entry of row r in turn."""
        return tuple(zip(self._num, self._den))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.field, self._num, self._den) == \
            (other.rows, other.cols, other.field, other._num, other._den)

    def __hash__(self):
        # formed once: a matrix keys memos
        try:
            return self._hash
        except AttributeError:
            value = hash((self.rows, self.cols, self.field, self._num, self._den))
            _set(self, "_hash", value)
            return value

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign·other."""
        self._check_same_shape(other)
        pairs = []
        for a, p, b, q in zip(self._num, self._den, other._num, other._den):
            common = lcm(p, q)
            s, t = common // p, sign * (common // q)
            pairs.append(_canonical([s * x + t * y for x, y in zip(a, b)], common))
        return _pairs(self.rows, self.cols, pairs, self.field)

    def __neg__(self):
        return _matrix(self.rows, self.cols, tuple(tuple([-x for x in row]) for row in self._num),
                       self._den, self.field)

    def scale(self, c):
        """c·self, for c in the field."""
        if isinstance(c, Gaussian) and self.field == FIELD_QI:
            if c.im:
                # i·self: each stored row φ(v) becomes φ(iv)
                turned = _matrix(self.rows, self.cols, tuple(map(_turn, self._num)), self._den,
                                 self.field)
                return self.scale(c.re) + turned.scale(c.im)
            c = c.re
        cn, cd = _ratio(c)
        return _pairs(self.rows, self.cols, [_canonical([cn * x for x in row], cd * q)
                                             for row, q in zip(self._num, self._den)], self.field)

    def __matmul__(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} @ {other.field}")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return _matrix(self.rows, other.cols, *_matmul_rational(self, other), self.field)

    def transpose(self):
        # formed once: a basis or block is transposed by many products
        try:
            return self._transpose
        except AttributeError:
            value = self._transposed()
            _set(self, "_transpose", value)
            return value

    def _transposed(self):
        if not self.rows:
            return Matrix.zero(self.cols, 0, self.field)
        den = lcm(*self._den)
        if den == 1:
            value = _matrix(self.cols, self.rows, tuple(zip(*self._num)),
                            (1,) * len(self._num[0]), self.field)
        else:
            columns = zip(*[row if q == den else [x * (den // q) for x in row]
                            for row, q in zip(self._num, self._den)])
            value = _pairs(self.cols, self.rows, [_canonical(col, den) for col in columns],
                           self.field)
        # over ℚ(i) the stored transpose holds the conjugate blocks
        return value.conjugate()

    def _integer_form(self):
        """``(D, rows)``: D is the lcm of the stored row denominators and
        row k lists ``(j, D·x)`` for its nonzero entries x.  Formed once, on
        the first product with this matrix as the right operand."""
        try:
            return self._integer
        except AttributeError:
            den = lcm(*self._den)
            value = (den, tuple(
                [(j, x) for j, x in enumerate(row) if x] if q == den else
                [(j, x * (den // q)) for j, x in enumerate(row) if x]
                for row, q in zip(self._num, self._den)))
            _set(self, "_integer", value)
            return value

    def apply(self, vector):
        """Apply to a coordinate tuple (column-vector convention)."""
        if len(vector) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vector)} for {self.cols} columns")
        zero = Q_ZERO if self.field == FIELD_Q else GI_ZERO
        vec = tuple(as_field(x, self.field) for x in vector)
        return tuple(sum((a * x for a, x in zip(row, vec) if a and x), zero)
                     for row in self.data)

    def row(self, i):
        return self.data[i]

    def _take(self, indices):
        """The matrix of the rows at ``indices``."""
        indices = list(indices)
        stored = _stored(self, indices)
        return _matrix(len(indices), self.cols, tuple(self._num[i] for i in stored),
                       tuple(self._den[i] for i in stored), self.field)

    def _columns(self, columns):
        """The matrix of the columns at ``columns``, in that order."""
        stored = _stored(self, columns)
        return _pairs(self.rows, len(columns), [_canonical([row[j] for j in stored], q)
                                                for row, q in zip(self._num, self._den)],
                      self.field)

    def stack(self, other):
        if self.cols != other.cols or self.field != other.field:
            raise DimensionMismatch("stack shape mismatch")
        return _matrix(self.rows + other.rows, self.cols, self._num + other._num,
                       self._den + other._den, self.field)

    def rref(self):
        k = _BLOCK[self.field]
        reduced, pivots = rref_rows(self._num, k * self.cols)
        # a primitive RREF row over its pivot entry is in canonical form
        m = _matrix(len(reduced) // k, self.cols, tuple(reduced),
                    tuple(row[p] for row, p in zip(reduced, pivots)), self.field)
        if k == 2:
            # the stored pivots come in pairs 2p, 2p + 1
            pivots = [p // 2 for p in pivots[::2]]
        return m, tuple(pivots)

    def rank(self):
        return self.rref()[0].rows

    def is_zero(self):
        return not any(map(any, self._num))

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = _BLOCK[self.field] * self.rows
        # row i of [A | I] scaled by its denominator q_i: [n_i | q_i·e_i]
        aug = [row + (0,) * i + (q,) + (0,) * (n - i - 1)
               for i, (row, q) in enumerate(zip(self._num, self._den))]
        reduced, pivots = rref_rows(aug, 2 * n)
        if len(reduced) < n or tuple(pivots) != tuple(range(n)):
            raise InputError("matrix is singular")
        # row i is p·e_i on the left, so its right half over p is canonical
        return _matrix(self.rows, self.rows, tuple(row[n:] for row in reduced),
                       tuple(row[i] for i, row in enumerate(reduced)), self.field)

    def complexify(self):
        if self.field == FIELD_QI:
            return self
        # a real entry x is the block x·I
        num = []
        for row in self._num:
            even = tuple([v for x in row for v in (x, 0)])
            num += (even, _turn(even))
        return _matrix(self.rows, self.cols, tuple(num),
                       tuple(q for q in self._den for _ in (0, 1)), FIELD_QI)

    def conjugate(self):
        if self.field == FIELD_Q:
            return self
        return _matrix(self.rows, self.cols, _flip(self._num), self._den, self.field)

    def rational(self):
        """This matrix over ℚ when every entry is real, else itself.  Over
        ℚ(i) an entry is real when the F-odd entries of its block are zero."""
        if self.field == FIELD_Q:
            return self
        even = self._num[::2]
        if any(any(row[1::2]) for row in even):
            return self
        # zero entries dropped keep each row in lowest terms
        return _matrix(self.rows, self.cols, tuple(row[::2] for row in even), self._den[::2])

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _matmul_rational(a: Matrix, b: Matrix):
    """Canonical stored rows ``(numerators, denominators)`` of A·B, in
    integers: row i of A is n_i/q_i and B is M/D in its common-denominator
    form (see ``Matrix._integer_form``), so row i of A·B is n_i·M/(q_i·D),
    summed over the nonzero entries only and reduced by one gcd.  A row
    of A whose only term is a 1 copies the row of B."""
    ncols = _BLOCK[b.field] * b.cols
    b_den, sparse = b._integer_form()
    b_num, b_dens = b._num, b._den
    zero_row = (0,) * ncols
    num, den = [], []
    for row, q in zip(a._num, a._den):
        terms = [(x, bnz, k) for x, bnz, k in zip(row, sparse, count()) if x and bnz]
        if not terms:
            num.append(zero_row)
            den.append(1)
            continue
        if len(terms) == 1 and terms[0][0] == q:
            k = terms[0][2]
            num.append(b_num[k])
            den.append(b_dens[k])
            continue
        acc = [0] * ncols
        for x, bnz, _ in terms:
            for j, y in bnz:
                acc[j] += x * y
        d = q * b_den
        g = gcd(d, *acc) if d != 1 else 1
        if g == 1:
            num.append(tuple(acc))
            den.append(d)
        else:
            num.append(tuple([v // g for v in acc]))
            den.append(d // g)
    return tuple(num), tuple(den)


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
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "basis", basis)
        _set(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, rows, ambient_dim, field=FIELD_Q):
        rows = list(rows)
        mat = Matrix(len(rows), ambient_dim, rows, field)
        return cls(ambient_dim, mat, field)

    @classmethod
    def coordinate(cls, offsets, ambient_dim):
        """The span of the unit vectors e_j, j in ``offsets``, over ℚ.  The
        sorted unit rows are already its RREF, so nothing is reduced."""
        axes = sorted(set(offsets))
        if axes and not 0 <= axes[0] <= axes[-1] < ambient_dim:
            raise DimensionMismatch(f"unit vector outside ambient {ambient_dim}")
        units = _units(axes, ambient_dim)
        return cls(ambient_dim, _matrix(len(units), ambient_dim, units, (1,) * len(units)),
                   _canonical=True)

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
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.field, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field})"

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ambient_dim

    def contains_vector(self, vector):
        vector = tuple(vector)
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient mismatch")
        return self.contains_rows(Matrix(1, self.ambient_dim, (vector,), self.field))

    def contains_rows(self, rows: Matrix) -> bool:
        """True iff every row of ``rows``, any matrix of this width, lies
        in the subspace: one product against the canonical basis."""
        if rows.cols != self.ambient_dim:
            raise DimensionMismatch(f"rows of width {rows.cols} vs ambient {self.ambient_dim}")
        if rows.field != self.field:
            raise FieldMismatch(f"{rows.field} vs {self.field}")
        if self.is_full():
            return True
        return _spans(self.basis, _leads(self.basis), rows)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        rows = other.basis
        if not rows.rows or self.is_full():
            return True
        if rows.rows > self.dim:
            return False
        leads = _leads(self.basis)
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
        ker = kernel(_hstack(a.transpose(), b.transpose()))
        coeff = ker.basis._columns(range(a.rows))
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
    pairs = []
    for ra, p, rb, q in zip(a._num, a._den, b._num, b._den):
        common = lcm(p, q)
        s, t = common // p, common // q
        pairs.append(_canonical([x * s for x in ra] + [x * t for x in rb], common))
    return _pairs(a.rows, a.cols + b.cols, pairs, a.field)


def _leads(m: Matrix):
    """Column of the first nonzero entry of each (nonzero) row of ``m``."""
    k = _BLOCK[m.field]
    return [next(compress(count(), row)) // k for row in m._num[::k]]


def _spans(basis: Matrix, leads, rows: Matrix) -> bool:
    """True iff every row of ``rows`` lies in the row span of the RREF
    ``basis``, whose pivots are ``leads``.

    Each basis row is 1 at its own pivot and 0 at the others, so v is in
    the span exactly when v = Σ_k v[p_k]·basis_k: one product decides all
    rows at once."""
    return rows._columns(leads) @ basis == rows


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m·v = 0}, canonical.  Over ℚ(i) it is F of the ℚ
    kernel of the stored rows (see the module docstring)."""
    reduced, pivots = m.rref()
    pivots = _stored(m, pivots)
    n = _BLOCK[m.field] * m.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    # the vector of free column j is 1 at j and −R_r[j]/p_r at pivot r,
    # for R_r the primitive RREF row with pivot entry p_r; over the lcm
    # L of those p_r its numerators are integers
    heads = list(zip(reduced._num, reduced._den, pivots))
    pairs = []
    for j in free:
        terms = [(row[j], p, pc) for row, p, pc in heads if row[j]]
        scale = lcm(*[p for _, p, _ in terms])
        vec = [0] * n
        vec[j] = scale
        for x, p, pc in terms:
            vec[pc] = -x * (scale // p)
        pairs.append(_canonical(vec, scale))
    basis = _pairs(len(free) // _BLOCK[m.field], m.cols, pairs, m.field)
    return Subspace(m.cols, basis.conjugate(), m.field)


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

    __slots__ = ("projection", "section")

    def __init__(self, projection, section):
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "section", section)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientMap is immutable")

    @property
    def dim(self):
        return self.projection.rows


def quotient_map(a: Subspace, b: Subspace) -> QuotientMap:
    """Quotient a/b for b ⊆ a, with deterministic representatives: the
    rows of a that extend b's basis greedily.  When a and b are coordinate
    subspaces, those are a's unit rows outside b, in a's order, and they
    are read off the pivots with no elimination.  Completed by the missing
    unit vectors they form a permutation matrix P, and (Pᵗ)⁻¹ = P, so the
    projection equals the section."""
    a._check_compatible(b)
    if not a.contains(b):
        raise InputError("quotient_map requires b ⊆ a")
    if _unit_rows(a.basis) and _unit_rows(b.basis):
        inside = set(_leads(b.basis))
        section = a.basis._take([r for r, j in enumerate(_leads(a.basis)) if j not in inside])
        return QuotientMap(section, section)
    n, field = a.ambient_dim, a.field
    k = _BLOCK[field]
    # Extend b's basis greedily by rows of a, then by unit vectors, to a
    # full basis.  Each candidate is reduced against one running echelon
    # of everything accepted so far; it is accepted iff a remainder is left.
    # The stored rows are integer rows (scaling keeps the span), cleared
    # by cross-multiplication.  Over ℚ(i) a candidate is its row pair
    # (φ(v), φ(iv)), and the span S accepted so far is stable under i: if
    # φ(v) is independent of S, then φ(iv) is independent of S + ℚφ(v).
    echelon = [(next(compress(count(), row)), row) for row in b.basis._num]

    def independent(vec):
        for pivot, row in echelon:      # each row vanishes before its pivot
            c = vec[pivot]
            if c:
                h = row[pivot]
                g = gcd(h, c)
                h, c = h // g, c // g
                vec = [h * x - c * y for x, y in zip(vec, row)]
        pivot = next(compress(count(), vec), None)
        if pivot is not None:
            content = gcd(*vec)
            echelon.append((pivot, [x // content for x in vec]))
        return pivot is not None

    def accepted(m, r):
        return all(independent(m._num[s]) for s in range(k * r, k * r + k))

    section = a.basis._take([r for r in range(a.dim) if accepted(a.basis, r)])
    ident = Matrix.identity(n, field)
    extra = []
    for j in range(n):
        if len(echelon) == k * n:
            break
        if accepted(ident, j):
            extra.append(j)
    full = b.basis.stack(section).stack(ident._take(extra))
    # Coordinates of a column vector v in the row basis: x = (fullᵗ)⁻¹ v.
    projection = full.transpose().inverse()._take(range(b.dim, b.dim + section.rows))
    return QuotientMap(projection, section)


def _unit_rows(m: Matrix):
    """Each row has exactly one nonzero entry, and it is 1.  Over ℚ(i) the
    stored rows are checked: the block of i is not two unit rows."""
    for row, den in zip(m._num, m._den):
        # one nonzero entry, so the sum is that entry
        if den != 1 or row.count(0) != len(row) - 1 or sum(row) != 1:
            return False
    return True
