"""Hard Lefschetz verification on graded pieces, primitive subspaces,
the Lefschetz decomposition, and split-model factories.

Primitive subspaces live in graded-piece coordinates (the recorded
quotient bases of ``GradedPieces``)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError, VerificationFailure
from .graded import Filtration, GradedMap, GradedPieces, GradedSpace, memoized
from .instance import PerverseLefschetzInstance
from .linalg import Matrix, Subspace, image_of, kernel, unit_axes
from .scalars import FIELD_Q


@dataclass(frozen=True)
class HardLefschetzReport:
    passed: bool
    checks: tuple      # ((i, d), ok) per verified isomorphism
    failure: "tuple | None" = None  # (i, d, kernel witness in Gr coords) or (i, d, None)

    def __str__(self):
        if self.passed:
            return f"hard Lefschetz holds ({len(self.checks)} blocks checked)"
        i, d, witness = self.failure
        return f"hard Lefschetz fails at (i={i}, d={d}); witness {witness}"


def check_hard_lefschetz(gp: GradedPieces) -> HardLefschetzReport:
    """e^i : Gr_{−i}V^d → Gr_i V^{d+2i} must be an isomorphism for all i ≥ 0."""
    checks = []
    pairs = set()
    for (d, i) in gp.slots:
        if i <= 0:
            pairs.add((-i, d))
        if i >= 0:
            pairs.add((i, d - 2 * i))
    for (i, d) in sorted(pairs):
        src, tgt = gp.dim(d, -i), gp.dim(d + 2 * i, i)
        if src != tgt:
            return HardLefschetzReport(False, tuple(checks), (i, d, None))
        if i:   # e^0 is the identity of Gr_0V^d: nothing to form or check
            ker = kernel(gp.e_power_block(d, -i, i))
            if not ker.is_zero():
                return HardLefschetzReport(False, tuple(checks), (i, d, ker.basis.data[0]))
        checks.append(((i, d), True))
    return HardLefschetzReport(True, tuple(checks))


def hard_lefschetz_report(gp: GradedPieces) -> HardLefschetzReport:
    """``check_hard_lefschetz(gp)``, run once per ``gp`` (kept in its ``_memo``)."""
    return memoized(gp._memo, ("hard_lefschetz",), lambda: check_hard_lefschetz(gp))


def require_hard_lefschetz(gp: GradedPieces):
    """Raise ``VerificationFailure`` with the report unless hard Lefschetz
    holds; the report is read from ``hard_lefschetz_report``."""
    report = hard_lefschetz_report(gp)
    if not report.passed:
        raise VerificationFailure(str(report))


def primitives(gp: GradedPieces) -> dict:
    """(i ≥ 0, d) → P^{−i,d} = Ker(e^{i+1} : Gr_{−i}V^d → Gr_{i+2}V^{d+2(i+1)})
    in Gr coordinates, one entry per nonzero Gr_{−i}V^d, computed once per
    ``gp`` (kept in its ``_memo``).  ``compute_splitting`` does not form
    this table: under hard Lefschetz e^{i+1} is onto, so it reads
    dim P^{−i,d} off the graded dimensions."""
    return memoized(gp._memo, ("primitives",), lambda: _primitive_table(gp))


def _primitive_table(gp: GradedPieces) -> dict:
    require_hard_lefschetz(gp)
    table = {}
    for (d, mi) in gp.slots:
        if mi > 0:
            continue
        i = -mi
        block = gp.e_power_block(d, -i, i + 1)
        table[(i, d)] = kernel(block)
    return table


def lefschetz_decomposition(gp: GradedPieces, pt: dict) -> dict:
    """(k, d) → list of e^j-images of primitives, jointly spanning Gr_kV^d.

    Raises if the pieces fail to be independent or to span.
    """
    out = {}
    max_i = max((i for (i, _) in pt), default=0)
    for (d, k) in gp.slots:
        pieces = []
        total = 0
        j = max(0, k)
        while 2 * j - k <= max_i:
            i = 2 * j - k
            src_d = d - 2 * j
            prim = pt.get((i, src_d))
            if prim is not None and prim.dim:
                block = gp.e_power_block(src_d, -i, j)
                pieces.append(image_of(block, prim))
                total += prim.dim
            j += 1
        span = Subspace.zero(gp.dim(d, k), FIELD_Q)
        for piece in pieces:
            span = span.sum(piece)
        if span.dim != total:
            raise VerificationFailure(f"Lefschetz pieces not independent at (k={k}, d={d})")
        if span.dim != gp.dim(d, k):
            raise VerificationFailure(f"Lefschetz pieces do not span at (k={k}, d={d})")
        out[(k, d)] = pieces
    return out


@dataclass(frozen=True)
class StringSpec:
    """Multiplicities of Lefschetz strings: each entry (i, d, mult) puts
    ``mult`` strings p, e·p, …, e^i·p with p of perverse index −i in
    total degree d."""

    entries: tuple  # of (i, d, mult)

    def __post_init__(self):
        for (i, d, mult) in self.entries:
            if i < 0 or mult < 1:
                raise InputError(f"bad string entry (i={i}, d={d}, mult={mult})")


@dataclass(frozen=True)
class SplitModelTruth:
    """Ground-truth splitting of a split model, for oracle comparisons."""

    embedded: dict   # (i, d) -> Subspace of V^d
    summands: dict   # (k, d) -> Subspace of V^d


def string_cells(spec: StringSpec):
    """Coordinate layout of the split model.

    Returns ``(dims, cells)`` where each cell is
    ``(sid, i, j, degree, perverse_index, offset)``: layer j of string
    ``sid`` occupies coordinate ``offset`` of degree ``d0 + 2j``."""
    dims = {}
    cells = []
    sid = 0
    for (i, d0, mult) in spec.entries:
        for _ in range(mult):
            for j in range(i + 1):
                deg = d0 + 2 * j
                off = dims.get(deg, 0)
                dims[deg] = off + 1
                cells.append((sid, i, j, deg, -i + 2 * j, off))
            sid += 1
    return dims, cells


def build_split_model(spec: StringSpec) -> tuple[PerverseLefschetzInstance, SplitModelTruth]:
    """Block-diagonal model instance realizing the given strings.

    Coordinates per degree are allocated string by string; η sends each
    string layer to the next by an identity column.  Every filtration step
    and truth subspace is a coordinate subspace (``Subspace.coordinate``),
    built from the cells of its degree with no row reduction.
    """
    dims, cells = string_cells(spec)
    space = GradedSpace(dims)
    position = {(sid, j): off for (sid, _, j, _, _, off) in cells}
    eta_blocks = {}
    for (sid, i, j, deg, idx, off) in cells:
        if j == i:
            continue
        blk = eta_blocks.setdefault(deg, [[0] * dims[deg]
                                          for _ in range(dims.get(deg + 2, 0))])
        blk[position[(sid, j + 1)]][off] = 1
    eta = GradedMap(2, {d: Matrix.from_rows(rows, dims[d])
                        for d, rows in eta_blocks.items()}, space)
    by_degree = {}
    for cell in cells:
        by_degree.setdefault(cell[3], []).append(cell)
    steps = {}
    for deg, deg_cells in by_degree.items():
        for cutoff in sorted({idx for (*_, idx, _) in deg_cells}):
            steps[(deg, cutoff)] = Subspace.coordinate(
                [off for (*_, idx, off) in deg_cells if idx <= cutoff], dims[deg])
    filtr = Filtration(space, steps)
    degrees = sorted(dims)
    center = (degrees[0] + degrees[-1]) // 2 if degrees else 0
    inst = PerverseLefschetzInstance(center=center, space=space,
                                     filtration=filtr, eta=eta)
    embedded, summands = {}, {}
    for (sid, i, j, deg, idx, off) in cells:
        if j == 0:
            embedded.setdefault((i, deg), []).append(off)
        summands.setdefault((idx, deg), []).append(off)
    truth = SplitModelTruth(
        {key: Subspace.coordinate(offs, dims[key[1]]) for key, offs in embedded.items()},
        {key: Subspace.coordinate(offs, dims[key[1]]) for key, offs in summands.items()},
    )
    return inst, truth


def _unipotent_twist(filtr: Filtration, seed: int, bound: int) -> tuple[GradedMap, GradedMap]:
    """``(u, u⁻¹)`` for the seeded W-filtered automorphism u that induces
    the identity on every graded piece, read off coordinates.

    Each step of ``filtr`` must be a coordinate subspace.  Then the
    sections of the graded pieces, in ascending filtration index, are unit
    rows e_{p(0)}, e_{p(1)}, …, and the adapted basis A, with columns
    e_{p(a)}, is a permutation.  The seeded integer matrix
    M = I + N has N[a][b] ≠ 0 only when b's piece lies below a's, so M is
    unit lower triangular, and u = A·Mᵀ·Aᵀ: u[p(a)][p(b)] = M[b][a], and
    u⁻¹[p(a)][p(b)] = M⁻¹[b][a] with M⁻¹ by integer forward substitution.
    Nothing is inverted or reduced."""
    report = filtr.report
    if not report.valid:
        raise VerificationFailure("; ".join(report.errors))
    rng = random.Random(seed)
    u_blocks, inv_blocks = {}, {}
    for d in filtr.space.degrees:
        n = filtr.space.dim(d)
        position, owners = [], []
        for i in sorted(i for (dd, i) in report.graded_dims if dd == d):
            axes = unit_axes(filtr.quotient(d, i).section)
            if axes is None:
                raise InputError(f"twist needs coordinate filtration steps; "
                                 f"W_{{≤{i}}}V^{d} is not one")
            position += axes
            owners += [i] * len(axes)
        coeff = [[0] * n for _ in range(n)]
        for a in range(n):
            coeff[a][a] = 1
            for b in range(n):
                if owners[b] < owners[a] and bound > 0:
                    coeff[a][b] = rng.randint(-bound, bound)
        inverse = []
        for a, row in enumerate(coeff):
            # row a of M⁻¹ is e_a − Σ_{b<a} M[a][b]·(row b of M⁻¹)
            inv = [0] * n
            inv[a] = 1
            for b in range(a):
                if row[b]:
                    inv = [x - row[b] * y for x, y in zip(inv, inverse[b])]
            inverse.append(inv)
        u_blocks[d] = _scatter(coeff, position)
        inv_blocks[d] = _scatter(inverse, position)
    return GradedMap(0, u_blocks, filtr.space), GradedMap(0, inv_blocks, filtr.space)


def _scatter(rows, position) -> Matrix:
    """A·Rᵀ·Aᵀ for the permutation A with columns e_{p(a)}: entry
    (p(a), p(b)) is R[b][a]."""
    n = len(position)
    out = [[0] * n for _ in range(n)]
    for row, pb in zip(rows, position):
        for x, pa in zip(row, position):
            out[pa][pb] = x
    return Matrix.from_rows(out, n)


def twist_model(inst: PerverseLefschetzInstance, seed: int, bound: int):
    """Conjugate η by a seeded Gr-trivial filtered automorphism u.

    Returns ``(twisted_instance, u)``; u is built from the filtration
    alone (see ``_unipotent_twist``), whose steps must be coordinate
    subspaces, as every split model's are.  The filtration is unchanged.
    Since u preserves it, η respects it exactly when uηu⁻¹ does, which the
    twisted instance's pieces decide when read.  The pairing, when present,
    is transported so its compatibility flags are preserved.  The Hodge
    bigrading is kept unchanged: right for Hodge–Tate bigradings, the only
    kind the generators make, whose one piece per degree every degree-0
    automorphism preserves.
    """
    u, u_inv = _unipotent_twist(inst.filtration, seed, bound)
    eta = GradedMap(2, {d: u.block(d + 2) @ blk @ u_inv.block(d)
                        for d, blk in inst.eta.blocks.items()}, inst.space)
    pairing = inst.pairing.transport(u_inv) if inst.pairing is not None else None
    twisted = PerverseLefschetzInstance(
        center=inst.center, space=inst.space, filtration=inst.filtration,
        eta=eta, hodge=inst.hodge, pairing=pairing, groups=inst.groups)
    return twisted, u


def apply_graded_auto(u: GradedMap, subspaces: dict) -> dict:
    """Push (key, d)-indexed subspaces forward along a degree-0 map."""
    return {key: image_of(u.block(key[1]), sub) for key, sub in subspaces.items()}
