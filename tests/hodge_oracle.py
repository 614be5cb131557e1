"""Reference Hodge and duality checks for the Hodge tests.

Each check works piece by piece over ℚ(i): sub-Hodge structures by
intersecting S ⊗ ℚ(i) with every piece, morphisms by the image of every
piece, validation by summing the pieces, and the pairing by one product
per pair of pieces.  This is how the engine decided them before it moved
onto the rational projector operators of each degree; it is kept here,
outside the engine, as the oracle those operators are checked against.
"""

from persplit.linalg import Subspace, image_of
from persplit.scalars import FIELD_QI


def oracle_validate(big):
    """Messages for pieces that are dependent, do not span, or are not
    swapped by conjugation, degree by degree."""
    errors = []
    for d in big.space.degrees:
        n = big.space.dim(d)
        by_pq = big.degree_pieces(d)
        total = sum(s.dim for s in by_pq.values())
        acc = Subspace.zero(n, FIELD_QI)
        for s in by_pq.values():
            acc = acc.sum(s)
        if acc.dim != total:
            errors.append(f"degree {d}: pieces not independent")
        if acc.dim != n:
            errors.append(f"degree {d}: pieces do not span")
        for (p, q), s in by_pq.items():
            partner = by_pq.get((q, p))
            if partner is None or s.conjugate() != partner:
                errors.append(f"degree {d}: conj of piece ({p},{q}) is not piece ({q},{p})")
    return errors


def oracle_is_shs(sub, big, d):
    """S ⊗ ℚ(i) is the sum of its intersections with the pieces."""
    s_c = sub.complexify()
    return sum(s_c.intersect(piece).dim for piece in big.degree_pieces(d).values()) \
        == sub.dim


def oracle_is_hs_map(f, a, src, dst):
    """Every piece (p,q) maps into the target piece (p+a, q+a)."""
    for (d, p, q), piece in src.pieces.items():
        target = dst.pieces.get((d + f.shift, p + a, q + a))
        img = image_of(f.block(d).complexify(), piece)
        if img.dim and (target is None or not target.contains(img)):
            return False
    return True


def oracle_mixed_pair(space, pairing, big):
    """The first (d, (p,q), (p',q')) whose pieces pair nontrivially although
    (p',q') ≠ (n−p, n−q), or None."""
    n = pairing.center
    for d in space.degrees:
        blk = pairing.block(d).complexify()
        for (p, q), piece in big.degree_pieces(d).items():
            for (p2, q2), piece2 in big.degree_pieces(2 * n - d).items():
                if (p2, q2) != (n - p, n - q) and \
                        not (piece.basis @ blk @ piece2.basis.transpose()).is_zero():
                    return d, (p, q), (p2, q2)
    return None
