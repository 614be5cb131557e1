"""The canonical splitting.

``psi_schedule`` computes the embedded primitive subspace E^{−i,d} by
the iterated-kernel schedule and checks its containments
η^{i+t}(S_{t−1}) ⊆ W_{≤i+t} itself, raising ``ContainmentViolation``.
Each step cuts by the instance's cached constraint rows
(``inst.cut_rows``), one kernel on the current basis.  The rows are not
reduced, since only the cut must be canonical, and once the cut is 0 the
later steps read no rows.
``certify_slot`` then proves the result canonical.  By products and
dimension counts alone it checks that E lies in W_{≤−i}, meets the
strong-primitivity conditions η^s·E ⊆ W_{≤s−1} for s > i and has the
dimension of the primitives, read off the graded dimensions; it reads
neither the cut rows nor any kernel, and only the canonical E passes.
``direct_characterization`` forms the same space in one cut by all the
stacked rows; it is a library function, not a step of the pipeline.
``assemble`` builds the summands G_k V^d and checks that they are direct
and rebuild W.  Every lift of the primitives passes those checks, so
they do not single out E.  That each E projects isomorphically onto its
primitives, and that η commutes with the splitting, are consequences of
the certificate, of assembly's ranks and of associativity: they are
recorded, not recomputed, so the pipeline forms no primitive kernel and
no image after the certificate.
More independent evidence comes from the orthogonal path in ``duality``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import AssemblyFailure, ContainmentViolation, EngineDefect, VerificationFailure
from .instance import PerverseLefschetzInstance
from .lefschetz import require_hard_lefschetz
from .linalg import Matrix, Subspace


@dataclass(frozen=True)
class ScheduleStep:
    t: int
    power: int
    target_index: int
    dim_after: int


@dataclass(frozen=True)
class SplittingResult:
    embedded: dict          # (i, d) -> E^{−i,d} ⊆ V^d
    summands: dict          # (k, d) -> G_k V^d ⊆ V^d
    schedule: dict          # (i, d) -> tuple of ScheduleStep
    checks: tuple = ()      # (name, ok, detail) from assembly


def slot_list(inst: PerverseLefschetzInstance):
    """All (i ≥ 0, d) with W_{≤−i}V^d ≠ 0."""
    slots = []
    for d in inst.space.degrees:
        jumps = inst.filtration.jumps(d)
        if not jumps:
            continue
        lowest = min(i for (dd, i) in inst.filtration_report.graded_dims if dd == d)
        for i in range(0, -lowest + 1):
            slots.append((i, d))
    return sorted(slots)


def psi_schedule(inst: PerverseLefschetzInstance, i: int, d: int):
    """E^{−i,d} by iterated kernels.

    Step 0 cuts W_{≤−i}V^d by η^{i+1}v ∈ W_{≤i+1} (kernel of the
    projection of η^{i+1} to Gr_{i+2}); step t ≥ 1 first asserts
    η^{i+t}(S_{t−1}) ⊆ W_{≤i+t}, by one product of that condition's rows
    with the basis of S_{t−1}, and then cuts by η^{i+t}v ∈ W_{≤i+t−1}.
    Once S_t is 0 every later condition holds on it, so each later step is
    recorded with dimension 0 and reads no rows, forms no product and
    makes no cut.  Returns ``(subspace, schedule_steps)``.
    """
    if i < 0:
        raise VerificationFailure("slot index i must be ≥ 0")
    require_hard_lefschetz(inst.pieces)
    r = inst.amplitude
    current = inst.cut_by(inst.filtration.at(d, -i), [inst.cut_rows(d, i + 1, i + 1)])
    steps = [ScheduleStep(0, i + 1, i + 2, current.dim)]
    for t in range(1, r - i + 1):
        power = i + t
        if current.is_zero():
            steps.append(ScheduleStep(t, power, i + t, 0))
            continue
        # column j of the product is zero iff basis row j satisfies
        # η^{i+t}v ∈ W_{≤i+t}; the witness is the first row that does not
        product = inst.cut_rows(d, power, i + t) @ current.basis.transpose()
        if not product.is_zero():
            witness_row = next(row for row, column in zip(current.basis.data, zip(*product.data))
                               if any(column))
            raise ContainmentViolation(i, d, t, witness_row)
        current = inst.cut_by(current, [inst.cut_rows(d, power, i + t - 1)])
        steps.append(ScheduleStep(t, power, i + t, current.dim))
    return current, tuple(steps)


def direct_characterization(inst: PerverseLefschetzInstance, i: int, d: int) -> Subspace:
    """E^{−i,d} as W_{≤−i}V^d ∩ {v : η^s v ∈ W_{≤s−1}V^{d+2s}, i < s ≤ r},
    one cut by the stacked rows of every condition."""
    require_hard_lefschetz(inst.pieces)
    return inst.cut_by(inst.filtration.at(d, -i), [
        inst.cut_rows(d, s, s - 1) for s in range(i + 1, inst.amplitude + 1)])


def certify_slot(inst: PerverseLefschetzInstance, i: int, d: int, e_sub: Subspace):
    """Check that ``e_sub`` is E^{−i,d}, with products and dimensions only:

    (a) E ⊆ W_{≤−i}V^d;
    (b) η^s E ⊆ W_{≤s−1}V^{d+2s} for i < s ≤ r, by one product E·(η^s)ᵀ
        against the canonical basis of that step;
    (c) dim E = dim P^{−i,d}, which is
        dim Gr_{−i}V^d − dim Gr_{i+2}V^{d+2i+2}: e^{i+1} maps Gr_{−i}V^d
        onto Gr_{i+2}V^{d+2i+2}, since the isomorphism e^{i+2} from
        Gr_{−i−2}V^{d−2} factors through it.

    Why this proves E canonical: let C be the set of v ∈ V^d that satisfy
    (a) and (b).  If v ∈ C lies in W_{≤−j} for some j > i, then
    η^j v ∈ W_{≤j−1}, so e^j[v] = 0 in Gr_j and, by hard Lefschetz,
    [v] = 0 in Gr_{−j}; so v ∈ W_{≤−j−1}, and by descent v = 0.  Hence C
    meets W_{≤−i−1} only in 0, and the projection to Gr_{−i} embeds C in
    the primitives (η^{i+1}v ∈ W_{≤i} gives e^{i+1}[v] = 0), so
    dim C ≤ dim P^{−i,d}.  (a)–(c) put E inside C with dim E = dim P^{−i,d},
    so E = C, and E projects isomorphically onto P^{−i,d}: the unique lift
    that the strong-primitivity conditions single out.  Hard Lefschetz is
    checked first, so only an engine fault can fail the certificate; a
    failure raises ``EngineDefect`` naming the slot and, for (b), the
    power s.
    """
    require_hard_lefschetz(inst.pieces)
    where = f"canonical-lift certificate fails at (i={i}, d={d})"
    if not inst.filtration.at(d, -i).contains(e_sub):
        raise EngineDefect(f"{where}: E ⊄ W_≤{-i}V^{d}")
    # a zero E meets (b) with nothing to multiply
    for s in range(i + 1, inst.amplitude + 1) if e_sub.dim else ():
        # row j of the product is η^s of basis row j of E
        images = e_sub.basis @ inst.eta.power_block(d, s).transpose()
        if not inst.filtration.at(d + 2 * s, s - 1).contains_rows(images):
            raise EngineDefect(f"{where}, s={s}: η^{s}E ⊄ W_≤{s - 1}V^{d + 2 * s}")
    prim_dim = inst.pieces.dim(d, -i) - inst.pieces.dim(d + 2 * i + 2, i + 2)
    if e_sub.dim != prim_dim:
        raise EngineDefect(f"{where}: dim E = {e_sub.dim}, dim P^(-{i},{d}) = {prim_dim}")


def assemble(inst: PerverseLefschetzInstance, embedded: dict,
             schedule: dict | None = None) -> SplittingResult:
    """Assemble G_k V^d = ⊕_j η^j(E^{−(2j−k),d−2j}) and check the result.

    Each G_k V^d is one RREF of the stacked rows E·(η^j)ᵀ; its rank equal
    to Σ dim E shows that the sum is direct and that each η^j is
    injective on its E.  In each degree, each G_k lies in W_{≤k}, the
    running dims Σ_{k′≤k} dim G_k′ equal dim W_{≤k}, and all the G_k
    together have rank dim V^d.  Then the whole sum is direct, so each
    partial sum ⊕_{k′≤k} G_k′ lies in W_{≤k} with its dimension and equals
    it.  Every lift of the primitives (any E ⊆ W_{≤−i} that projects onto
    P^{−i,d}) passes these checks, so they do not single out the
    canonical E; ``certify_slot`` does, and it also shows that each
    certified E^{−i,d} projects isomorphically onto P^{−i,d}.  That fact is
    recorded, one line per slot with Gr_{−i}V^d ≠ 0, and not recomputed:
    ``embedded`` must hold certified spaces.  Raises the hard Lefschetz
    report as ``VerificationFailure`` if it fails, and ``AssemblyFailure``
    on the first violated check.
    """
    gp = inst.pieces
    require_hard_lefschetz(gp)
    checks = []
    max_i = max((i for (i, _) in embedded), default=0)
    summands = {}
    grades = sorted({i for (_, i) in gp.slots})
    for d in inst.space.degrees:
        n = inst.space.dim(d)
        by_k = {}
        for k in range(min(grades, default=0) - 1, max(grades, default=0) + 1):
            rows, dims = [], []
            j = max(0, k)
            while 2 * j - k <= max_i:
                e_sub = embedded.get((2 * j - k, d - 2 * j))
                if e_sub is not None and e_sub.dim:
                    rows.append(e_sub.basis if j == 0 else
                                e_sub.basis @ inst.eta.power_block(d - 2 * j, j).transpose())
                    dims.append(e_sub.dim)
                j += 1
            if not rows:
                continue
            g_k = Subspace(n, reduce(Matrix.stack, rows))
            if g_k.dim != sum(dims):
                raise AssemblyFailure(f"G_{k} V^{d} summands not independent",
                                      f"dims {dims} sum to {g_k.dim}")
            by_k[k] = g_k
        running = 0
        for k in sorted(by_k):
            expected = inst.filtration.at(d, k)
            running += by_k[k].dim
            if running != expected.dim or not expected.contains(by_k[k]):
                raise AssemblyFailure(
                    f"partial sum ⊕_{{k'≤{k}}} G_k' V^{d} ≠ W_{{≤{k}}}V^{d}",
                    f"dims {running} vs {expected.dim}")
        rank = Subspace(n, reduce(Matrix.stack, [g.basis for g in by_k.values()],
                                  Matrix.zero(0, n))).dim
        if rank != n:
            raise AssemblyFailure(f"G summands do not span V^{d}", f"dim {rank} of {n}")
        for k, sub in by_k.items():
            summands[(k, d)] = sub
        checks.append((f"direct sum and filtration match in degree {d}", True, ""))
    for (i, d), e_sub in embedded.items():
        if not gp.dim(d, -i):
            if e_sub.dim:
                raise AssemblyFailure(f"E^(-{i},{d}) nonzero but Gr_(-{i})V^{d} = 0")
            continue
        checks.append((f"E^(-{i},{d}) ≅ P^(-{i},{d}) under projection", True, ""))
    return SplittingResult(dict(embedded), summands, dict(schedule or {}), tuple(checks))


def compute_splitting(inst: PerverseLefschetzInstance) -> SplittingResult:
    """Full pipeline: on every slot the schedule, which checks its own
    containments, and ``certify_slot``, which proves its result canonical;
    then ``assemble``, which builds and checks the summands G_k V^d.  No
    primitive kernel is formed."""
    require_hard_lefschetz(inst.pieces)   # validates the filtration before slot_list reads it
    embedded, schedule = {}, {}
    for (i, d) in slot_list(inst):
        e_sub, steps = psi_schedule(inst, i, d)
        certify_slot(inst, i, d, e_sub)
        embedded[(i, d)] = e_sub
        schedule[(i, d)] = steps
    return assemble(inst, embedded, schedule)


@dataclass(frozen=True)
class CommutationReport:
    passed: bool
    checks: tuple
    failure: "str | None" = None


def eta_commutation_check(inst: PerverseLefschetzInstance,
                          result: SplittingResult) -> CommutationReport:
    """The report that η^{j'}(η^j E^{−i,d}) = η^{j+j'}E^{−i,d} with full
    rank for j + j' ≤ i, one check per nonzero E and (j, j'), for a
    ``result`` of ``compute_splitting``.  Each fact is already decided, so
    no image is formed:

    * the equality holds because the operator's cached powers are
      associative products, η^{j+j'} = η^{j'}·η^j;
    * full rank: ``assemble`` found each G_k of rank Σ dim E, so each
      η^j is injective on its E for j ≤ i (hard Lefschetz, checked first,
      puts every such η^j E in some G_k);
    * the key restriction η^{i+1}E^{−i,d} ⊆ W_{≤i} is condition (b) of
      ``certify_slot`` at s = i + 1 (at i = r it holds trivially, as
      W_{≤r} is everything).

    The image-by-image comparison lives on as a test oracle."""
    checks = tuple(((i, d, j, jp), True)
                   for (i, d), e_sub in sorted(result.embedded.items()) if e_sub.dim
                   for j in range(i + 1) for jp in range(i - j + 1))
    return CommutationReport(True, checks)
