"""Reference row reduction for the kernel tests.

Plain Gauss–Jordan elimination over any exact field, dividing as it
goes: the engine's kernel before it gained its already-reduced and
fraction-free integer paths.  Kept here, outside the engine, as the
oracle those paths are checked against.
"""


def oracle_rref_rows(rows, ncols):
    """Reduced row echelon form of ``rows``, zero rows dropped:
    ``(reduced_rows, pivot_columns)``.  The input is not mutated."""
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = -1
        for r in range(lead, nrows):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row < 0:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        head = work[lead][col]
        if head != 1:
            row = work[lead]
            for j in range(col, ncols):
                row[j] = row[j] / head
        lead_row = work[lead]
        for r in range(nrows):
            if r != lead and work[r][col]:
                factor = work[r][col]
                row = work[r]
                for j in range(col, ncols):
                    row[j] = row[j] - factor * lead_row[j]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return [tuple(work[r]) for r in range(lead)], pivots
