"""Pure Hodge structures with Q(i)-coordinate bigradings.

A bigrading assigns to each degree d a weight and a conjugation-closed
decomposition of the complexified space into (p, q) pieces.  Checks:
sub-Hodge-structure membership, morphisms of Hodge structures, the
retraction splitting criterion, Hodge-theoretic verification of computed
splittings, and group invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EngineDefect, GroupClosureBoundExceeded, HypothesisFailure,
                     InputError, PreconditionFailure)
from .graded import GradedMap, GradedSpace
from .instance import PerverseLefschetzInstance
from .linalg import Matrix, Subspace, image_of, kernel
from .scalars import FIELD_QI


class HodgeBigrading:
    """weights: degree → weight; pieces: (d, p, q) → Subspace over Q(i)."""

    __slots__ = ("space", "weights", "pieces")

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

    def __setattr__(self, name, value):
        raise AttributeError("HodgeBigrading is immutable")

    def __eq__(self, other):
        if not isinstance(other, HodgeBigrading):
            return NotImplemented
        return (self.space, self.weights, self.pieces) == \
            (other.space, other.weights, other.pieces)

    def degree_pieces(self, d):
        return {(p, q): sub for (dd, p, q), sub in self.pieces.items() if dd == d}

    def validate(self):
        """Pieces independent and spanning per degree; conj swaps (p,q)↔(q,p)."""
        errors = []
        for d in self.space.degrees:
            n = self.space.dim(d)
            by_pq = self.degree_pieces(d)
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

    def conjugated(self) -> "HodgeBigrading":
        """The bigrading with every piece (p,q) relabeled as (q,p)."""
        return HodgeBigrading(self.space, self.weights,
                              {(d, q, p): sub for (d, p, q), sub in self.pieces.items()})

    def is_hodge_tate(self):
        return all(p == q for (_, p, q) in self.pieces)

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


def is_shs(sub: Subspace, bigrading: HodgeBigrading, d: int) -> bool:
    """True iff S⊗Q(i) is the sum of its intersections with the pieces."""
    if sub.ambient_dim != bigrading.space.dim(d):
        raise InputError("subspace/degree mismatch")
    s_c = sub.complexify()
    total = 0
    for piece in bigrading.degree_pieces(d).values():
        total += s_c.intersect(piece).dim
    return total == sub.dim


def is_hs_map(f: GradedMap, a: int, src: HodgeBigrading, dst: HodgeBigrading):
    """True iff every piece (p,q) maps into the target piece (p+a, q+a)."""
    for (d, p, q), piece in src.pieces.items():
        target = dst.pieces.get((d + f.shift, p + a, q + a))
        img = image_of(f.block(d).complexify(), piece)
        if img.dim and (target is None or not target.contains(img)):
            return False
    return True


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
    return tuple((d, gm.block(d).data) for d in space.degrees)
