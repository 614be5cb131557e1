"""Row-reduction kernel: the reduced row echelon form (RREF) of a list of rows.

The RREF of a row space is unique, so it doubles as the canonical form
of every subspace in the engine.  The kernel works on integer rows: a
ℚ matrix stores each row as integers over one denominator, and
scaling a row does not change the row space, so ``rref_rows`` reads the
numerators alone.  It returns each RREF row as the primitive integer row
(coprime entries) with a positive pivot entry; dividing by that entry
gives the row of the rational RREF.  A ℚ(i) matrix is stored as the
integer rows of its realification (see ``linalg``), so this one
elimination serves both fields.  ``rref_rows`` takes one of two paths:

* rows that already have that form (zero rows aside) come back
  unchanged, after one pass that checks the echelon shape: leads strictly
  increase, every pivot column is zero outside its own row, and each
  pivot entry is positive on a primitive row;
* other rows are made primitive and reduced by Gauss–Jordan with
  cross-multiplication: at each pivot, every other row r is replaced by
  (h/g)·r − (e/g)·lead_row, where h is the pivot entry, e the entry of r
  in the pivot column and g = gcd(h, e), and the new row is divided by
  its content (the gcd of its entries).  No ``Fraction`` is built
  (Cohen, GTM 138, §2.2).  This is not Bareiss's elimination
  (*Math. Comp.* 22, 1968), whose exact division by the previous pivot
  bounds the entries without a gcd per row; that remains open under
  item 5, "Do less elimination", in ROADMAP.md.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd

BACKEND = "python"


def rref_rows(rows, ncols):
    """Reduced row echelon form of the integer ``rows``, zero rows dropped.

    Returns ``(reduced_rows, pivot_columns)``: primitive integer rows, as
    tuples, whose pivot entries are positive.  The input is not mutated.
    """
    nonzero, leads = [], []
    for row in rows:
        lead = next(compress(count(), row), -1)    # first nonzero column
        if lead >= 0:
            nonzero.append(row)
            leads.append(lead)
    if not nonzero:
        return [], []
    reduced = all(a < b for a, b in zip(leads, leads[1:])) and all(
        row[lead] > 0 and gcd(*row) == 1 for row, lead in zip(nonzero, leads))
    # Earlier rows' lead columns lie before a row's own lead, where it is
    # zero; it must also vanish in every later row's lead column.
    for i in range(len(nonzero) - 1 if reduced else 0):
        if any(map(nonzero[i].__getitem__, leads[i + 1:])):
            reduced = False
            break
    if reduced:
        return [tuple(row) for row in nonzero], leads
    return _rref_integer(nonzero, ncols)


def _primitive(row):
    content = gcd(*row)
    return list(row) if content == 1 else [x // content for x in row]


def _rref_integer(rows, ncols):
    """Fraction-free Gauss–Jordan over ℤ on nonzero integer rows, each made
    primitive first; every updated row is divided by its content."""
    work = [_primitive(row) for row in rows]
    nrows = len(work)
    pivots = []
    lead = 0
    for col in range(ncols):
        for r in range(lead, nrows):
            if work[r][col]:
                break
        else:
            continue
        work[lead], work[r] = work[r], work[lead]
        lead_row = work[lead]
        head = lead_row[col]
        for r in range(nrows):
            row = work[r]
            entry = row[col]
            if r == lead or not entry:
                continue
            g = gcd(head, entry)
            a, b = head // g, entry // g
            new = [a * x - b * y for x, y in zip(row, lead_row)]
            content = gcd(*new)    # 0 when the row became zero
            work[r] = [x // content for x in new] if content > 1 else new
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return [tuple(row) if row[col] > 0 else tuple([-x for x in row])
            for row, col in zip(work, pivots)], pivots

