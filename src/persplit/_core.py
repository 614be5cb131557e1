"""Row-reduction kernel: the reduced row echelon form (RREF) of a list of rows.

The RREF of a row space is unique, so it doubles as the canonical form
of every subspace in the engine.  ``rref_rows`` takes one of three paths:

* rows that already form an RREF (zero rows aside) come back unchanged,
  after one pass that checks the echelon shape;
* rows over ℚ are cleared of denominators and reduced with integer
  cross-multiplication, each new row divided by its content (the gcd of
  its entries), so no ``Fraction`` is built until the result is
  converted back (Bareiss, *Math. Comp.* 22, 1968; Cohen, GTM 138, §2.2);
* any other exact field (ℚ(i)) runs plain Gauss–Jordan elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import methodcaller

BACKEND = "python"

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ratio = methodcaller("as_integer_ratio")


def rref_rows(rows, ncols):
    """Reduced row echelon form of ``rows``, zero rows dropped.

    Returns ``(reduced_rows, pivot_columns)``; the rows are tuples and,
    over ℚ, their entries are ``Fraction``s unless the input was already
    reduced.  The input is not mutated.
    """
    nonzero, leads = [], []
    reduced = True       # so far: leads strictly increase, each lead entry is 1
    for row in rows:
        lead = next(compress(count(), row), -1)    # first nonzero column
        if lead < 0:
            continue
        if reduced and (leads and lead <= leads[-1] or row[lead] != 1):
            reduced = False
        nonzero.append(row)
        leads.append(lead)
    # Earlier rows' lead columns lie before a row's own lead, where it is
    # zero; it must also vanish in every later row's lead column.
    for i in range(len(nonzero) - 1 if reduced else 0):
        if any(map(nonzero[i].__getitem__, leads[i + 1:])):
            reduced = False
            break
    if reduced:
        return [tuple(row) for row in nonzero], leads
    work = _integer_rows(nonzero)
    if work is None:
        return _rref_field(nonzero, ncols)
    return _rref_integer(work, ncols)


def _integer_rows(rows):
    """Each rational row scaled to a primitive integer row (coprime
    entries), or ``None`` if some entry is not rational."""
    work = []
    try:
        for row in rows:
            ratios = list(map(_ratio, row))
            nums, dens = zip(*ratios)
            den = lcm(*dens)
            ints = list(nums) if den == 1 else [n * (den // d) for n, d in ratios]
            content = gcd(*ints)
            work.append([x // content for x in ints] if content != 1 else ints)
    except AttributeError:
        return None
    return work


def _rref_integer(work, ncols):
    """Fraction-free Gauss–Jordan over ℤ on primitive integer rows, which
    it reduces in place; the result is converted back to ``Fraction``s."""
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
    out = []
    for row, col in zip(work, pivots):
        head = row[col]
        fracs = [Fraction(x, head) if x else _ZERO for x in row]
        fracs[col] = _ONE
        out.append(tuple(fracs))
    return out, pivots


def _rref_field(rows, ncols):
    """Gauss–Jordan elimination over any exact field, dividing as it goes."""
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(lead, nrows) if work[r][col]), -1)
        if pivot_row < 0:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        lead_row = work[lead]
        head = lead_row[col]
        if head != 1:
            for j in range(col, ncols):
                lead_row[j] = lead_row[j] / head
        for r in range(nrows):
            row = work[r]
            if r != lead and row[col]:
                factor = row[col]
                for j in range(col, ncols):
                    row[j] = row[j] - factor * lead_row[j]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return [tuple(work[r]) for r in range(lead)], pivots
