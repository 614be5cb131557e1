"""Intersection pairings: orthogonality characterization of the
splitting, duality-as-Hodge-isomorphism checks, induced pairings on
summands, and projectors.

The pairing couples complementary degrees d and 2n−d, where n is the
instance center; ``Q(a, b) = aᵀ · block(d) · b`` for column vectors
a ∈ V^d, b ∈ V^{2n−d}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompatibilityFailure, InputError, PreconditionFailure
from .graded import GradedMap, GradedSpace, memoized
from .hodge import HodgeBigrading, is_shs, pairing_respects_types
from .instance import PerverseLefschetzInstance
from .linalg import Matrix, Subspace, kernel


class IntersectionPairing:
    """Blockwise pairing V^d × V^{2n−d} → Q with center n."""

    __slots__ = ("center", "space", "blocks", "_hash", "_memo")

    def __init__(self, center: int, space: GradedSpace, blocks):
        norm = {}
        for d, m in blocks.items():
            d = int(d)
            if (m.rows, m.cols) != (space.dim(d), space.dim(2 * center - d)):
                raise InputError(f"pairing block {d}: shape {m.rows}x{m.cols}, expected "
                                 f"{space.dim(d)}x{space.dim(2 * center - d)}")
            norm[d] = m
        for d in space.degrees:
            if space.dim(d) and d not in norm:
                raise InputError(f"missing pairing block for degree {d}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionPairing is immutable")

    def __eq__(self, other):
        if not isinstance(other, IntersectionPairing):
            return NotImplemented
        return (self.center, self.space, self.blocks) == \
            (other.center, other.space, other.blocks)

    def __hash__(self):
        # formed on first use, as ``Matrix`` does: a pairing that is only
        # built and transported never hashes its blocks
        try:
            return self._hash
        except AttributeError:
            value = hash((self.center, frozenset(self.space.dims.items()),
                          frozenset(self.blocks.items())))
            object.__setattr__(self, "_hash", value)
            return value

    def block(self, d) -> Matrix:
        blk = self.blocks.get(d)
        if blk is None:
            return Matrix.zero(self.space.dim(d), self.space.dim(2 * self.center - d))
        return blk

    def value(self, d, a, b):
        from .scalars import Rat
        row = self.block(d).apply(b)
        return sum((x * y for x, y in zip(a, row)), Rat(0))

    def is_nondegenerate(self) -> bool:
        """Every block is square and invertible; ranked once per pairing."""
        return memoized(self._memo, ("is_nondegenerate",), lambda: all(
            blk.rows == blk.cols and blk.rank() == blk.rows
            for blk in map(self.block, self.space.degrees)))

    def is_symmetric_up_to_sign(self) -> bool:
        return all(self.block(d) == self.block(2 * self.center - d).transpose()
                   or self.block(d) == -self.block(2 * self.center - d).transpose()
                   for d in self.space.degrees)

    def perp(self, sub: Subspace, d: int) -> Subspace:
        """{a ∈ V^d : Q(a, s) = 0 for all s in sub ⊆ V^{2n−d}}."""
        if sub.ambient_dim != self.space.dim(2 * self.center - d):
            raise InputError("perp: subspace lives in the wrong degree")
        if sub.dim == 0:
            return Subspace.full(self.space.dim(d))
        return kernel(sub.basis @ self.block(d).transpose())

    def eta_self_adjoint(self, eta: GradedMap) -> bool:
        """Q(ηa, b) = Q(a, ηb) blockwise."""
        n2 = 2 * self.center
        for d in self.space.degrees:
            lhs = eta.block(d).transpose() @ self.block(d + 2)
            rhs = self.block(d) @ eta.block(n2 - d - 2)
            if lhs != rhs:
                return False
        return True

    def filtration_self_dual(self, inst: PerverseLefschetzInstance) -> bool:
        """(W_{≤i}V^d)^⊥ = W_{≤−i−1}V^{2n−d} at every stored step.

        The perp is the kernel of M = step·Q_{2n−d}ᵀ, so it equals the
        expected step E exactly when M·Eᵀ = 0 and dim V^{2n−d} − rank M =
        dim E: one product and one rank, and no kernel.  A zero step gives
        M no rows, so there E must be all of V^{2n−d}."""
        n2 = 2 * self.center
        for d in self.space.degrees:
            dual_d = n2 - d
            if self.space.dim(dual_d) == 0:
                continue
            indices = set(inst.filtration.jumps(d)) | {-i - 1 for i in
                                                       inst.filtration.jumps(dual_d)}
            for i in sorted(indices):
                step = inst.filtration.at(d, i)
                expected = inst.filtration.at(dual_d, -i - 1)
                m = step.basis @ self.block(dual_d).transpose()
                if not (m @ expected.basis.transpose()).is_zero() or \
                        expected.ambient_dim - m.rank() != expected.dim:
                    return False
        return True

    def transport(self, u_inv: GradedMap) -> "IntersectionPairing":
        """Pairing Q'(a, b) = Q(u⁻¹a, u⁻¹b) given the inverse automorphism."""
        n2 = 2 * self.center
        blocks = {}
        for d in self.space.degrees:
            blocks[d] = u_inv.block(d).transpose() @ self.block(d) @ u_inv.block(n2 - d)
        return IntersectionPairing(self.center, self.space, blocks)


@dataclass(frozen=True)
class DualityHSReport:
    passed: bool
    failure: "tuple | None" = None

    def __str__(self):
        if self.passed:
            return "pairing respects the Hodge bigrading"
        d, pq, pq2 = self.failure
        return f"pieces {pq} of V^{d} and {pq2} pair nontrivially"


def orthogonal_characterization(inst: PerverseLefschetzInstance,
                                pairing: IntersectionPairing,
                                i: int, d: int) -> Subspace:
    """E^{−i,d} via the pairing:
    W_{≤−i}V^d ∩ ⋂_{s>i} (η^s(W_{≤−s}V^{2n−d−2s}))^⊥, one cut by the
    stacked rows of every orthogonality condition.

    Uses neither the schedule's cut rows nor the graded pieces, so
    agreement with the schedule is independent evidence.  Requires both
    compatibility flags (η-self-adjointness and filtration self-duality)."""
    failed = inst.failed_compatibility(pairing)
    if failed is not None:
        raise CompatibilityFailure(failed)
    return inst.cut_by(inst.filtration.at(d, -i), [
        inst.orthogonal_rows(pairing, d, s) for s in range(i + 1, inst.amplitude + 1)])


def orthogonal_mismatch(inst: PerverseLefschetzInstance, pairing: IntersectionPairing,
                        embedded: dict):
    """The first slot (i, d), in sorted order, whose orthogonal
    characterization differs from ``embedded``, or None."""
    for (i, d), sub in sorted(embedded.items()):
        if orthogonal_characterization(inst, pairing, i, d) != sub:
            return i, d
    return None


def duality_hs_check(inst: PerverseLefschetzInstance, pairing: IntersectionPairing,
                     bigrading: HodgeBigrading) -> DualityHSReport:
    """Piece (p,q) of V^d may pair nontrivially only with (n−p, n−q) of
    V^{2n−d}.  Decided by the bigrading's operators; the pieces are searched
    only to name a failing pair, or when some degree has no operators (its
    pieces are not a basis swapped by conjugation)."""
    if not pairing.is_nondegenerate():
        raise PreconditionFailure("pairing is degenerate")
    n = pairing.center
    if all(pairing_respects_types(pairing.block(d), bigrading, d, n)
           for d in inst.space.degrees):
        return DualityHSReport(True)
    for d in inst.space.degrees:
        dual_d = 2 * n - d
        blk = pairing.block(d).complexify()
        for (p, q), piece in bigrading.degree_pieces(d).items():
            for (p2, q2), piece2 in bigrading.degree_pieces(dual_d).items():
                if (p2, q2) == (n - p, n - q):
                    continue
                prod = piece.basis @ blk @ piece2.basis.transpose()
                if not prod.is_zero():
                    return DualityHSReport(False, (d, (p, q), (p2, q2)))
    return DualityHSReport(True)


def induced_pairing_on_summand(inst: PerverseLefschetzInstance,
                               pairing: IntersectionPairing, result, k: int,
                               coordinates: dict | None = None) -> dict:
    """Restrict Q to G_k V^d × G_{−k} V^{2n−d} in canonical bases.

    ``coordinates`` may supply alternative basis-row matrices per
    (summand index, degree) — e.g. distinguished lifts instead of the
    echelon basis — for reporting in meaningful coordinates."""
    n2 = 2 * pairing.center
    coordinates = coordinates or {}
    out = {}
    for (kk, d), sub in sorted(result.summands.items()):
        if kk != k:
            continue
        left = coordinates.get((k, d), sub.basis)
        partner = result.summands.get((-k, n2 - d))
        if partner is None:
            out[d] = Matrix.zero(left.rows, 0)
            continue
        right = coordinates.get((-k, n2 - d), partner.basis)
        out[d] = left @ pairing.block(d) @ right.transpose()
    return out


@dataclass(frozen=True)
class ProjectorResult:
    matrix: Matrix            # endomorphism of V^d
    rank: int
    idempotent: bool
    tensor_types: tuple       # sorted Hodge types of the pairing-dual tensor
    expected_type: tuple


def projector(inst: PerverseLefschetzInstance, pairing: IntersectionPairing,
              result, k: int, d: int, target: Subspace) -> ProjectorResult:
    """Projector onto ``target`` ⊆ G_k V^d along the assembled
    decomposition, with Hodge type of its pairing-dual tensor.

    The complement inside G_k is cut out by pairing conditions against
    G_{−k}V^{2n−d}, which is canonical up to the choice made here
    (deterministic pivot solution)."""
    if not pairing.is_nondegenerate():
        raise PreconditionFailure("pairing is degenerate")
    big = inst.hodge
    if big is not None and not is_shs(target, big, d):
        raise PreconditionFailure("projector target is not a SHS")
    g_k = result.summands.get((k, d))
    if g_k is None or not g_k.contains(target):
        raise InputError("target must lie inside the chosen summand")
    n = inst.space.dim(d)
    # Kernel = other summands ⊕ pairing-cut complement inside G_k.
    complement = Subspace.zero(n)
    for (kk, dd), sub in result.summands.items():
        if dd == d and kk != k:
            complement = complement.sum(sub)
    if target.dim < g_k.dim:
        partner = result.summands.get((-k, 2 * pairing.center - d))
        inner = _pairing_complement(pairing, d, g_k, target, partner)
        complement = complement.sum(inner)
    if complement.dim + target.dim != n:
        raise InputError("target and complement do not decompose the space")
    basis = target.basis.stack(complement.basis)
    coords = basis.transpose().inverse()
    proj_coords = coords._take(range(target.dim))
    p_mat = target.basis.transpose() @ proj_coords
    idempotent = (p_mat @ p_mat) == p_mat
    types = _tensor_types(inst, pairing, p_mat, d) if big is not None else ()
    return ProjectorResult(p_mat, target.dim, idempotent, types,
                           (pairing.center, pairing.center))


def _pairing_complement(pairing, d, g_k, target, partner) -> Subspace:
    """{v ∈ G_k : Q(v, s_a) = 0} for dual vectors s_a ⊆ partner with
    Q(t_a, s_b) = δ_ab (pivot solution of the induced pairing)."""
    if partner is None:
        raise InputError("no dual summand available to cut a complement")
    m = target.basis @ pairing.block(d) @ partner.basis.transpose()
    reduced, pivots = m.rref()
    if reduced.rows < target.dim:
        raise InputError("induced pairing is degenerate on the target")
    sel = Matrix.identity(partner.dim)._take(pivots)
    duals = sel @ partner.basis  # rows s_c in ambient coordinates of V^{2n−d}
    conditions = duals @ pairing.block(d).transpose()
    return g_k.intersect(kernel(conditions))


def _tensor_types(inst, pairing, p_mat, d):
    """Hodge types of the tensor τ ∈ V^d ⊗ V^{2n−d} with p = τ·Qᵀ, read in
    the coordinates of the pieces of both degrees."""
    big = inst.hodge
    left = big.decomposition(d)
    right = big.decomposition(2 * pairing.center - d)
    if left.coords is None or right.coords is None:
        raise InputError("the Hodge pieces of a degree are not a basis")
    tau = (p_mat @ pairing.block(d).transpose().inverse()).complexify()
    coords = left.coords @ tau @ right.coords.transpose()
    types = set()
    for a, (pa, qa) in enumerate(left.types):
        for b, (pb, qb) in enumerate(right.types):
            if coords.data[a][b]:
                types.add((pa + pb, qa + qb))
    return tuple(sorted(types))
