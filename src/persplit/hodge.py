"""Pure Hodge structures with Q(i)-coordinate bigradings.

A bigrading assigns to each degree d a weight and a conjugation-closed
decomposition of the complexified space into (p, q) pieces.  Checks:
sub-Hodge-structure membership, morphisms of Hodge structures, the
retraction splitting criterion, Hodge-theoretic verification of computed
splittings, and group invariants.

A Hodge structure is a representation of the Deligne torus (Deligne,
*Théorie de Hodge II*, 1971), so the checks run on operators instead of
on the pieces.  One inverse per degree, of the stacked piece bases,
gives the projectors π_pq of the decomposition; a Q(i) matrix is stored
as its realification over Q (see ``linalg``), so that inverse runs on
the integer kernel.  Conjugation swaps π_pq and π_qp, so the operators
R_pq = π_pq + π_qp and J_pq = i(π_pq − π_qp) for p < q, and π_pp itself,
are rational; as π_pq = (R_pq − iJ_pq)/2, they decide each check with
products over Q:

- S is a sub-Hodge structure iff R·S ⊆ S and J·S ⊆ S for every operator;
- f is a morphism of type (a, a) iff f·R_pq = R'_{p+a,q+a}·f, and the
  same for J and π_pp;
- a pairing Q couples (p, q) only with (n−p, n−q) iff
  R_pqᵀ·Q = Q·R_{n−p,n−q}, and the same for J and π_pp (``duality``).

A degree that is one (p, p) piece has π_pp = I, and its checks need no
arithmetic.  A degree whose pieces are not a basis swapped by conjugation
(exactly a degree where ``validate`` reports an error) has no operators:
``is_shs`` and ``is_hs_map`` raise ``PreconditionFailure`` on it, and
``pairing_respects_types`` returns False.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import (EngineDefect, GroupClosureBoundExceeded, HypothesisFailure,
                     InputError, PreconditionFailure)
from .graded import GradedMap, GradedSpace, memoized
from .instance import PerverseLefschetzInstance
from .linalg import Matrix, Subspace, _leads, _spans, image_of, kernel
from .scalars import FIELD_QI, GI_I


class HodgeBigrading:
    """weights: degree → weight; pieces: (d, p, q) → Subspace over Q(i)."""

    __slots__ = ("space", "weights", "pieces", "_memo")

    def __init__(self, space: GradedSpace, weights, pieces):
        weights = {int(d): int(w) for d, w in weights.items()}
        norm = {}
        for (d, p, q), sub in pieces.items():
            d, p, q = int(d), int(p), int(q)
            if sub.field != FIELD_QI:
                sub = sub.complexify()
            if sub.ambient_dim != space.dim(d):
                raise InputError(f"piece ({d},{p},{q}): ambient {sub.ambient_dim} "
                                 f"!= dim {space.dim(d)}")
            if d not in weights:
                raise InputError(f"piece in degree {d} without a declared weight")
            if p + q != weights[d]:
                raise InputError(f"piece ({d},{p},{q}) violates weight {weights[d]}")
            if sub.dim:
                norm[(d, p, q)] = sub
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "pieces", norm)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("HodgeBigrading is immutable")

    def __eq__(self, other):
        if not isinstance(other, HodgeBigrading):
            return NotImplemented
        return (self.space, self.weights, self.pieces) == \
            (other.space, other.weights, other.pieces)

    def degree_pieces(self, d):
        return {(p, q): sub for (dd, p, q), sub in self.pieces.items() if dd == d}

    def decomposition(self, d) -> "Decomposition":
        """Degree d split by its pieces; formed once per bigrading."""
        return memoized(self._memo, ("decomposition", d), lambda: _decompose(
            self.space.dim(d), sorted(self.degree_pieces(d).items())))

    def validate(self):
        """Pieces independent and spanning per degree; conj swaps (p,q)↔(q,p)."""
        errors = []
        for d in self.space.degrees:
            dec = self.decomposition(d)
            if dec.rank != dec.total:
                errors.append(f"degree {d}: pieces not independent")
            if dec.rank != self.space.dim(d):
                errors.append(f"degree {d}: pieces do not span")
            if dec.whole is not None:
                continue
            by_pq = self.degree_pieces(d)
            for (p, q), s in by_pq.items():
                partner = by_pq.get((q, p))
                # the conjugate of an RREF basis is the RREF basis of the conjugate
                if partner is None or s.basis.conjugate() != partner.basis:
                    errors.append(f"degree {d}: conj of piece ({p},{q}) is not piece ({q},{p})")
        return errors

    @classmethod
    def hodge_tate(cls, space: GradedSpace, weights=None):
        """Single full (w/2, w/2) piece per degree; weights default to d."""
        weights = weights or {d: d for d in space.degrees}
        pieces = {}
        for d in space.degrees:
            w = weights[d]
            if w % 2:
                raise InputError(f"Hodge–Tate weight {w} in degree {d} is odd")
            pieces[(d, w // 2, w // 2)] = Subspace.full(space.dim(d), FIELD_QI)
        return cls(space, weights, pieces)


@dataclass(frozen=True)
class Decomposition:
    """One degree of a bigrading: V ⊗ Q(i) = ⊕ V_pq.

    ``rank`` is the dimension of the span of the pieces and ``total`` the
    sum of their dimensions.  The rest is set only when the pieces are a
    basis (rank = total = dim V): ``coords`` is B⁻¹ for B the columns of
    the piece bases in sorted type order and ``types`` the type of each
    coordinate.  ``ops`` maps each type {p, q}, p ≤ q, to its operators over
    Q: (R_pq, J_pq) for p < q and (π_pp,) for p = q.  It is None unless the
    pieces are a basis and every operator is rational; for a basis, that
    holds exactly when conjugation swaps the pieces.  ``whole`` is (p, p)
    when the degree is one (p, p) piece; then its one operator is the
    identity."""

    rank: int
    total: int
    coords: "Matrix | None" = None
    types: tuple = ()
    ops: "dict | None" = None
    whole: "tuple | None" = None


def _decompose(n, pieces) -> Decomposition:
    """``pieces``: the ((p, q), Subspace) of one degree of dimension n, sorted."""
    types = tuple(pq for pq, sub in pieces for _ in range(sub.dim))
    total = len(types)
    if len(pieces) == 1 and total == n:
        # a piece spanning the degree has the identity as its RREF basis
        coords = Matrix.identity(n, FIELD_QI)
        (p, q), _ = pieces[0]
        if p == q:
            return Decomposition(n, n, coords, types, {(p, p): (Matrix.identity(n),)}, (p, p))
    else:
        # B⁻¹ exists exactly when the pieces are a basis
        stacked = reduce(Matrix.stack, [sub.basis for _, sub in pieces],
                         Matrix.zero(0, n, FIELD_QI))
        try:
            coords = stacked.transpose().inverse() if total == n else None
        except InputError:
            coords = None
        if coords is None:
            return Decomposition(stacked.rank(), total)
    projector, start = {}, 0
    for pq, sub in pieces:
        projector[pq] = sub.basis.transpose() @ coords._take(range(start, start + sub.dim))
        start += sub.dim
    zero = Matrix.zero(n, n, FIELD_QI)
    ops = {}
    for p, q in sorted({(min(pq), max(pq)) for pq in projector}):
        if p == q:
            ops[(p, q)] = (projector[(p, q)].rational(),)
        else:
            a, b = projector.get((p, q), zero), projector.get((q, p), zero)
            ops[(p, q)] = ((a + b).rational(), (a - b).scale(GI_I).rational())
    if any(op.field == FIELD_QI for pair in ops.values() for op in pair):
        ops = None      # conjugation does not swap the pieces
    return Decomposition(n, n, coords, types, ops)


def _operators(bigrading: HodgeBigrading, d: int) -> Decomposition:
    """Degree d of ``bigrading``, which must have its operators."""
    dec = bigrading.decomposition(d)
    if dec.ops is None:
        raise PreconditionFailure(
            f"invalid bigrading: degree {d}: pieces are not a basis swapped by conjugation")
    return dec


def is_shs(sub: Subspace, bigrading: HodgeBigrading, d: int) -> bool:
    """True iff S⊗Q(i) is the sum of its intersections with the pieces,
    that is, iff every operator of the degree maps S into itself.  Raises
    ``PreconditionFailure`` on a degree without operators."""
    if sub.ambient_dim != bigrading.space.dim(d):
        raise InputError("subspace/degree mismatch")
    dec = _operators(bigrading, d)
    if dec.whole is not None or sub.is_zero() or sub.is_full():
        return True
    basis = sub.basis
    # one product decides op·S ⊆ S for every operator at once
    images = reduce(Matrix.stack, [basis @ op.transpose()
                                   for ops in dec.ops.values() for op in ops])
    return _spans(basis, _leads(basis), images)


def is_hs_map(f: GradedMap, a: int, src: HodgeBigrading, dst: HodgeBigrading):
    """True iff every piece (p,q) maps into the target piece (p+a, q+a),
    that is, iff f intertwines the operators of each degree with those of
    the target at types shifted by (a, a).  Raises ``PreconditionFailure``
    on a degree without operators."""
    for d in src.space.degrees:
        block = f.block(d)
        s, t = _operators(src, d), _operators(dst, d + f.shift)
        if s.whole is not None and t.whole is not None:
            ok = t.whole == (s.whole[0] + a, s.whole[1] + a) or block.is_zero()
        else:
            ok = all(block @ left == right @ block
                     for left, right in _counterparts(s, t, lambda p, q: (p + a, q + a)))
        if not ok:
            return False
    return True


def pairing_respects_types(block: Matrix, bigrading: HodgeBigrading, d: int, n: int) -> bool:
    """Whether the pairing block V^d × V^{2n−d} couples each piece (p, q)
    only with (n−p, n−q): R_pqᵀ·Q = Q·R_{n−p,n−q}, and the same for J and
    π_pp.  False also when either degree has no operators, its pieces not
    being a basis swapped by conjugation; ``duality.duality_hs_check`` then
    searches the pieces."""
    s, t = bigrading.decomposition(d), bigrading.decomposition(2 * n - d)
    if s.ops is None or t.ops is None:
        return False
    if s.whole is not None and t.whole is not None:
        return t.whole == (n - s.whole[0], n - s.whole[1]) or block.is_zero()
    dual = lambda p, q: (n - q, n - p)     # reverses p < q, so J_{n−p,n−q} = −J_{n−q,n−p}
    return all(left.transpose() @ block == block @ right
               for left, right in _counterparts(s, t, dual, flip_j=True))


def _counterparts(s: Decomposition, t: Decomposition, partner, flip_j=False):
    """(operator of s, its counterpart in t, zero if t has no piece of that
    type) for every type {p, q}, p ≤ q, of s, matched by ``partner``.  The
    types of s suffice: t's pieces are a basis, so the operators of s
    account for all of it.  ``flip_j`` negates the counterpart of J, for a
    partner that reverses the order of p and q."""
    zero = Matrix.zero(t.rank, t.rank)
    for key, ops in sorted(s.ops.items()):
        right = t.ops.get(partner(*key), (zero, zero))
        for k, op in enumerate(ops):
            yield op, -right[k] if flip_j and k else right[k]


@dataclass(frozen=True)
class RetractionVerdict:
    conclusion_holds: bool
    detail: str = ""


def retraction_criterion(g: Matrix, p: Matrix, src: HodgeBigrading,
                         dst: HodgeBigrading, src_degree: int = 0,
                         dst_degree: int = 0) -> RetractionVerdict:
    """Retraction splitting criterion for a single pair of degrees.

    Hypotheses (checked, failures raise ``HypothesisFailure``): p∘g = id,
    p is a map of Hodge structures, and g(A) ⊆ B is a SHS.  Under them
    the conclusion — g is a map of Hodge structures — is a theorem, so a
    violation is reported as an engine defect.
    """
    n_src = src.space.dim(src_degree)
    if (p @ g) != Matrix.identity(n_src):
        raise HypothesisFailure("p ∘ g = identity")
    a_slice = _slice_bigrading(src, src_degree)
    b_slice = _slice_bigrading(dst, dst_degree)
    p_map = GradedMap(0, {0: p}, _single_space(p.cols), _single_space(p.rows))
    if not is_hs_map(p_map, 0, b_slice, a_slice):
        raise HypothesisFailure("p is a map of Hodge structures")
    img = image_of(g, Subspace.full(n_src))
    if not is_shs(img, dst, dst_degree):
        raise HypothesisFailure("g(A) is a sub-Hodge structure of B")
    g_map = GradedMap(0, {0: g}, _single_space(g.cols), _single_space(g.rows))
    ok = is_hs_map(g_map, 0, a_slice, b_slice)
    if not ok:
        raise EngineDefect(
            "retraction criterion conclusion failed although hypotheses hold")
    return RetractionVerdict(True, "g is a map of Hodge structures")


def _single_space(n):
    return GradedSpace({0: n})


def _slice_bigrading(big: HodgeBigrading, d: int) -> HodgeBigrading:
    """The degree-d slice re-rooted at degree 0."""
    return HodgeBigrading(
        _single_space(big.space.dim(d)),
        {0: big.weights[d]},
        {(0, p, q): sub for (dd, p, q), sub in big.pieces.items() if dd == d})


@dataclass(frozen=True)
class HodgeSplittingReport:
    passed: bool
    checks: tuple

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"Hodge splitting verification: {status} ({len(self.checks)} subspaces)"


def verify_hodge_splitting(inst: PerverseLefschetzInstance, result) -> HodgeSplittingReport:
    """Every computed E and G subspace must be a SHS.

    Preconditions: every filtration step is a SHS and η is a map of
    Hodge structures of bidegree (1, 1); violations raise
    ``PreconditionFailure``.  Given the preconditions, a failing subspace
    is impossible by the splitting theorem, so it raises ``EngineDefect``.
    """
    big = inst.hodge
    if big is None:
        raise PreconditionFailure("instance carries no Hodge bigrading")
    problems = big.validate()
    if problems:
        raise PreconditionFailure("invalid bigrading: " + "; ".join(problems))
    for (d, i), step in inst.filtration.steps.items():
        if not is_shs(step, big, d):
            raise PreconditionFailure(f"filtration step (d={d}, i={i}) is not a SHS")
    if not is_hs_map(inst.eta, 1, big, big):
        raise PreconditionFailure("operator is not a (1,1) map of Hodge structures")
    checks = []
    for (i, d), sub in sorted(result.embedded.items()):
        ok = is_shs(sub, big, d)
        checks.append((f"E^(-{i},{d})", ok))
        if not ok:
            raise EngineDefect(f"E^(-{i},{d}) is not a SHS despite valid Hodge input")
    for (k, d), sub in sorted(result.summands.items()):
        ok = is_shs(sub, big, d)
        checks.append((f"G_{k} V^{d}", ok))
        if not ok:
            raise EngineDefect(f"G_{k} V^{d} is not a SHS despite valid Hodge input")
    return HodgeSplittingReport(True, tuple(checks))


def group_invariants(generators, space: GradedSpace, bigrading: HodgeBigrading | None = None,
                     closure_bound: int = 10000):
    """Common fixed subspace of a finite group of degree-0 automorphisms.

    Returns ``(fixed: dict degree → Subspace, shs_verdict)`` where the
    verdict is True/False per ``is_shs`` when a bigrading is supplied and
    all generators are (0,0) maps of Hodge structures, else None.
    Closure is computed to verify finiteness up to ``closure_bound``.
    """
    gens = list(generators)
    for g in gens:
        if g.shift != 0:
            raise InputError("group generators must preserve degree")
    ident = GradedMap(0, {d: Matrix.identity(space.dim(d)) for d in space.degrees},
                      space)
    seen = {_freeze(space, ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                prod = g.compose(elem)
                key = _freeze(space, prod)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > closure_bound:
                        raise GroupClosureBoundExceeded(closure_bound)
                    nxt.append(prod)
        frontier = nxt
    fixed = {}
    for d in space.degrees:
        n = space.dim(d)
        acc = Subspace.full(n)
        for g in gens:
            acc = acc.intersect(kernel(g.block(d) - Matrix.identity(n)))
        fixed[d] = acc
    verdict = None
    if bigrading is not None:
        if all(is_hs_map(g, 0, bigrading, bigrading) for g in gens):
            verdict = all(is_shs(sub, bigrading, d) for d, sub in fixed.items())
            if not verdict:
                raise EngineDefect("invariant subspace of Hodge automorphisms is not a SHS")
    return fixed, verdict


def _freeze(space, gm: GradedMap):
    return tuple((d, gm.block(d)) for d in space.degrees)
