"""The canonical splitting.

``psi_schedule`` computes the embedded primitive subspace E^{−i,d} by
the iterated-kernel schedule and checks its containments
η^{i+t}(S_{t−1}) ⊆ W_{≤i+t} itself, raising ``ContainmentViolation``;
``direct_characterization`` computes the same space in one pass from the
strong-primitivity conditions η^s·E ⊆ W_{≤s−1} for s > i.  Both cut
W_{≤−i}V^d by the instance's cached constraint rows (``inst.cut_rows``),
each cut one kernel on the current basis: the schedule by one row block
per step, the direct characterization by all blocks stacked.  On shared
rows their results are equal as sets, so comparing them only checks that
the two cut orders agree; it is not an independent computation.  The
result is proved by ``assemble``: a direct sum that rebuilds W and
projects onto the primitives determines E uniquely.  Independent
evidence comes from the orthogonal path in ``duality``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssemblyFailure, ContainmentViolation, VerificationFailure
from .instance import PerverseLefschetzInstance
from .lefschetz import primitives, require_hard_lefschetz
from .linalg import Subspace
from .scalars import FIELD_Q


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
    Returns ``(subspace, schedule_steps)``.
    """
    if i < 0:
        raise VerificationFailure("slot index i must be ≥ 0")
    require_hard_lefschetz(inst.pieces)
    r = inst.amplitude
    current = inst.cut_by(inst.filtration.at(d, -i), [inst.cut_rows(d, i + 1, i + 1)])
    steps = [ScheduleStep(0, i + 1, i + 2, current.dim)]
    for t in range(1, r - i + 1):
        power = i + t
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


def assemble(inst: PerverseLefschetzInstance, embedded: dict,
             schedule: dict | None = None) -> SplittingResult:
    """Assemble G_k V^d = Σ_j η^j(E^{−(2j−k),d−2j}) and verify the result.

    Checks: the sum is direct; the partial sums rebuild the filtration;
    each E^{−i,d} projects isomorphically onto the primitive P^{−i,d}.
    Raises ``AssemblyFailure`` on the first violated check.
    """
    gp = inst.pieces
    prims = primitives(gp)
    checks = []
    max_i = max((i for (i, _) in embedded), default=0)
    summands = {}
    grades = sorted({i for (_, i) in gp.slots})
    for d in inst.space.degrees:
        n = inst.space.dim(d)
        by_k = {}
        for k in range(min(grades, default=0) - 1, max(grades, default=0) + 1):
            pieces = []
            total = 0
            j = max(0, k)
            while 2 * j - k <= max_i:
                i = 2 * j - k
                e_sub = embedded.get((i, d - 2 * j))
                if e_sub is not None and e_sub.dim:
                    pieces.append(inst.eta_image(d - 2 * j, j, e_sub))
                    total += e_sub.dim
                j += 1
            acc = Subspace.zero(n, FIELD_Q)
            for piece in pieces:
                acc = acc.sum(piece)
            if acc.dim != total:
                raise AssemblyFailure(f"G_{k} V^{d} summands not independent",
                                      f"dims {[p.dim for p in pieces]} sum to {acc.dim}")
            if acc.dim:
                by_k[k] = acc
        running = Subspace.zero(n, FIELD_Q)
        for k in sorted(by_k):
            running = running.sum(by_k[k])
            expected = inst.filtration.at(d, k)
            if running != expected:
                raise AssemblyFailure(
                    f"partial sum ⊕_{{k'≤{k}}} G_k' V^{d} ≠ W_{{≤{k}}}V^{d}",
                    f"dims {running.dim} vs {expected.dim}")
        if running.dim != n:
            raise AssemblyFailure(f"G summands do not span V^{d}",
                                  f"dim {running.dim} of {n}")
        for k, sub in by_k.items():
            summands[(k, d)] = sub
        checks.append((f"direct sum and filtration match in degree {d}", True, ""))
    for (i, d), e_sub in embedded.items():
        prim = prims.get(i, d)
        q = gp.quotient(d, -i)
        if prim is None or q is None:
            if e_sub.dim:
                raise AssemblyFailure(f"E^(-{i},{d}) nonzero but Gr_(-{i})V^{d} = 0")
            continue
        projected = q.project_subspace(e_sub)
        if projected.dim != e_sub.dim:
            raise AssemblyFailure(f"E^(-{i},{d}) does not inject into Gr_(-{i})V^{d}")
        if projected != prim:
            raise AssemblyFailure(
                f"E^(-{i},{d}) does not project onto the primitive subspace",
                f"dims {projected.dim} vs {prim.dim}")
        checks.append((f"E^(-{i},{d}) ≅ P^(-{i},{d}) under projection", True, ""))
    return SplittingResult(dict(embedded), summands, dict(schedule or {}), tuple(checks))


def compute_splitting(inst: PerverseLefschetzInstance) -> SplittingResult:
    """Full pipeline: the schedule (which checks its own containments) and
    the direct characterization on every slot, compared (on shared cut
    rows this only checks that the two cut orders agree), then
    ``assemble``, whose checks prove the result by uniqueness."""
    require_hard_lefschetz(inst.pieces)   # validates the filtration before slot_list reads it
    embedded, schedule = {}, {}
    for (i, d) in slot_list(inst):
        via_psi, steps = psi_schedule(inst, i, d)
        via_direct = direct_characterization(inst, i, d)
        if via_psi != via_direct:
            raise VerificationFailure(
                f"schedule and direct characterizations disagree at (i={i}, d={d}): "
                f"dims {via_psi.dim} vs {via_direct.dim}")
        embedded[(i, d)] = via_psi
        schedule[(i, d)] = steps
    return assemble(inst, embedded, schedule)


@dataclass(frozen=True)
class CommutationReport:
    passed: bool
    checks: tuple
    failure: "str | None" = None


def eta_commutation_check(inst: PerverseLefschetzInstance,
                          result: SplittingResult) -> CommutationReport:
    """η^{j'}(η^j E^{−i,d}) = η^{j+j'}E^{−i,d} with full rank for
    j + j' ≤ i, and η^{i+1}E^{−i,d} ⊆ W_{≤i}."""
    checks = []
    for (i, d), e_sub in sorted(result.embedded.items()):
        if not e_sub.dim:
            continue
        straight = [inst.eta_image(d, k, e_sub) for k in range(i + 1)]
        for j in range(i + 1):
            for jp in range(i - j + 1):
                stepped = inst.eta_image(d + 2 * j, jp, straight[j])
                ok = stepped == straight[j + jp] and stepped.dim == e_sub.dim
                checks.append(((i, d, j, jp), ok))
                if not ok:
                    return CommutationReport(False, tuple(checks),
                                             f"η-commutation fails at (i={i}, d={d}, "
                                             f"j={j}, j'={jp})")
        # η^{i+1}v ∈ W_{≤i} on all of E
        ok = (inst.cut_rows(d, i + 1, i) @ e_sub.basis.transpose()).is_zero()
        checks.append(((i, d, "key restriction"), ok))
        if not ok:
            return CommutationReport(False, tuple(checks),
                                     f"η^{i + 1}E^(-{i},{d}) ⊄ W_≤{i}")
    return CommutationReport(True, tuple(checks))
