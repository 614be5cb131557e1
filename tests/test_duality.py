from dataclasses import replace

import pytest

from persplit.corpus import (GeneratorProfile, canonical_lifts, quadric_cone,
                             random_instance)
from persplit.duality import (IntersectionPairing, duality_hs_check,
                              induced_pairing_on_summand,
                              orthogonal_characterization, orthogonal_mismatch,
                              projector)
from persplit.errors import (CompatibilityFailure, InputError,
                             PreconditionFailure)
from persplit.graded import Filtration, GradedMap, GradedSpace
from persplit.hodge import HodgeBigrading
from persplit.instance import PerverseLefschetzInstance
from persplit.linalg import Matrix, Subspace, image_of, kernel
from persplit.scalars import Rat
from persplit.splitting import compute_splitting, slot_list

from oracle_helpers import frac_matrix, weight_one_bigrading

PAIRED = GeneratorProfile(with_pairing=True)


def quadric(m):
    inst = quadric_cone(m).instance
    return inst, inst.pairing


# --- pairing structure ------------------------------------------------------

def test_quadric_pairing_flags():
    for m in (0, 1, 2):
        inst, q = quadric(m)
        assert q.is_nondegenerate()
        assert q.is_symmetric_up_to_sign()
        assert q.eta_self_adjoint(inst.eta)
        assert q.filtration_self_dual(inst)


def test_pairing_constructor_validation():
    space = GradedSpace({0: 1, 2: 2})
    with pytest.raises(InputError):  # block shape must couple d with 2n−d
        IntersectionPairing(1, space, {0: Matrix.identity(1),
                                       2: Matrix.identity(2)})
    with pytest.raises(InputError):  # every nonzero degree needs a block
        IntersectionPairing(1, space, {0: Matrix.zero(1, 2)})


def test_perp_recovers_middle_filtration_step():
    inst, q = quadric(1)
    deep = Subspace.span([[1, 0, 0]], 3)
    assert q.perp(deep, 4) == inst.filtration.at(4, 0)
    assert q.perp(Subspace.zero(3), 4) == Subspace.full(3)


def test_pairing_value_triple_products():
    _, q = quadric(1)
    # Q(D, D*D1) = D·D·D1 = −1 and Q(D1, D1*D2) = 0
    assert q.value(2, (1, 0, 0), (1, 0, 0)) == Rat(-1)
    assert q.value(2, (0, 1, 0), (0, 0, 1)) == Rat(0)


def test_transport_by_identity_is_identity():
    inst, q = quadric(2)
    ident = GradedMap(0, {d: Matrix.identity(inst.space.dim(d))
                          for d in inst.space.degrees}, inst.space)
    assert q.transport(ident) == q


def test_pairing_hashes_its_blocks_on_first_hash_only(monkeypatch):
    inst, q = quadric(2)
    hashed = []
    real = Matrix.__hash__
    monkeypatch.setattr(Matrix, "__hash__", lambda self: hashed.append(self) or real(self))
    minus = GradedMap(0, {d: -Matrix.identity(inst.space.dim(d)) for d in inst.space.degrees},
                      inst.space)
    built = IntersectionPairing(q.center, q.space, dict(q.blocks))
    moved = built.transport(minus)
    assert hashed == []
    assert moved == built == q
    assert hash(moved) == hash(built) == hash(q)
    assert len(hashed) == 3 * len(q.blocks)


# --- orthogonality characterization -----------------------------------------

def test_orthogonal_characterization_matches_kernel_oracle():
    for m in (1, 2, 3):
        inst, q = quadric(m)
        result = compute_splitting(inst)
        got = orthogonal_characterization(inst, q, 0, 2)
        assert got == result.embedded[(0, 2)]
        # independent oracle: the single condition is orthogonality to
        # the operator image of the deep class
        pushed = inst.eta.block(2).apply([1, 0, 0])
        condition = Matrix.from_rows([list(pushed)], 3) @ q.block(2).transpose()
        assert got == kernel(condition)


def test_orthogonal_characterization_top_slot_is_filtration_step():
    inst, q = quadric(1)
    r = inst.amplitude
    assert orthogonal_characterization(inst, q, r, 2) == inst.filtration.at(2, -r)


def test_orthogonal_characterization_requires_self_adjointness():
    inst, q = quadric(1)
    blocks = dict(q.blocks)
    blocks[0] = blocks[0].scale(Rat(2))
    lopsided = IntersectionPairing(3, inst.space, blocks)
    with pytest.raises(CompatibilityFailure, match="self-adjoint"):
        orthogonal_characterization(inst, lopsided, 0, 2)


def test_orthogonal_mismatch_checks_the_flags_once(monkeypatch):
    calls = []
    for name in ("eta_self_adjoint", "filtration_self_dual"):
        real = getattr(IntersectionPairing, name)
        monkeypatch.setattr(IntersectionPairing, name,
                            lambda self, arg, _real=real, _name=name:
                            calls.append(_name) or _real(self, arg))
    inst, q = quadric(2)
    result = compute_splitting(inst)
    assert len(result.embedded) > 1
    assert orthogonal_mismatch(inst, q, result.embedded) is None
    assert sorted(calls) == ["eta_self_adjoint", "filtration_self_dual"]


def test_orthogonal_mismatch_names_the_first_bad_slot():
    inst, q = quadric(1)
    embedded = dict(compute_splitting(inst).embedded)
    embedded[(0, 2)] = Subspace.full(3)
    assert orthogonal_mismatch(inst, q, embedded) == (0, 2)


def test_orthogonal_mismatch_failing_flag_raises():
    inst, q = quadric(1)
    blocks = dict(q.blocks)
    blocks[0] = blocks[0].scale(Rat(2))
    lopsided = IntersectionPairing(3, inst.space, blocks)
    with pytest.raises(CompatibilityFailure, match="self-adjoint"):
        orthogonal_mismatch(inst, lopsided, compute_splitting(inst).embedded)


def orthogonal_cut(inst, pairing, d, s):
    """(η^s(W_{≤−s}V^{2n−d−2s}))^⊥ ⊆ V^d, from the pairing's ``perp``."""
    src_d = 2 * pairing.center - d - 2 * s
    pushed = image_of(inst.eta.power_block(src_d, s), inst.filtration.at(src_d, -s))
    return pairing.perp(pushed, d)


def test_orthogonal_cuts_are_per_pairing():
    # one instance queried with two pairings must not mix their cached rows
    inst, q = quadric(1)
    blocks = dict(q.blocks)
    blocks[2] = Matrix.identity(3)
    other = IntersectionPairing(3, inst.space, blocks)
    cuts = [(d, s) for d in inst.space.degrees for s in range(1, inst.amplitude + 1)
            if inst.space.dim(d) and inst.space.dim(2 * q.center - d - 2 * s)]
    fresh = {id(p): {c: orthogonal_cut(quadric(1)[0], p, *c) for c in cuts}
             for p in (q, other)}
    assert fresh[id(q)] != fresh[id(other)]
    for pairing in (q, other, q):
        for c in cuts:
            rows = inst.orthogonal_rows(pairing, *c)
            assert kernel(rows) == fresh[id(pairing)][c]
            assert inst.orthogonal_rows(pairing, *c) is rows


def test_orthogonal_path_reads_neither_cut_rows_nor_pieces():
    # the orthogonal path is independent evidence only if it reads none of
    # the schedule's cached rows
    inst, q = quadric(1)
    for (i, d) in [(i, d) for d in inst.space.degrees for i in range(inst.amplitude + 1)
                   if inst.space.dim(d)]:
        orthogonal_characterization(inst, q, i, d)
    assert any(key[0] == "orthogonal_rows" for key in inst._memo)
    assert not any(key[0] == "cut_rows" for key in inst._memo)
    assert "pieces" not in vars(inst)


def test_compatibility_verdict_is_per_pairing():
    # a failing pairing keeps failing with its message on a repeat call,
    # and does not change the verdict for another pairing of the instance
    inst, q = quadric(1)
    blocks = dict(q.blocks)
    blocks[0] = blocks[0].scale(Rat(2))
    lopsided = IntersectionPairing(3, inst.space, blocks)
    for _ in range(2):
        with pytest.raises(CompatibilityFailure, match="self-adjoint"):
            orthogonal_characterization(inst, lopsided, 0, 2)
    assert orthogonal_mismatch(inst, q, compute_splitting(inst).embedded) is None


def test_three_path_agreement_on_paired_seeds():
    for seed in range(30):
        ri = random_instance(seed, PAIRED)
        inst = ri.instance
        q = inst.pairing
        # the transported pairing keeps both compatibility flags
        assert q.eta_self_adjoint(inst.eta)
        assert q.filtration_self_dual(inst)
        result = compute_splitting(inst)
        for (i, d) in slot_list(inst):
            assert orthogonal_characterization(inst, q, i, d) == \
                result.embedded[(i, d)]


def perp_self_dual(pairing, inst):
    """The self-duality flag by ``perp``'s kernel and a subspace compare."""
    n2 = 2 * pairing.center
    for d in inst.space.degrees:
        dual_d = n2 - d
        if not inst.space.dim(dual_d):
            continue
        for i in sorted(set(inst.filtration.jumps(d)) |
                        {-j - 1 for j in inst.filtration.jumps(dual_d)}):
            if pairing.perp(inst.filtration.at(d, i), dual_d) != \
                    inst.filtration.at(dual_d, -i - 1):
                return False
    return True


def self_duality_mutants(inst, pairing):
    """(instance, pairing) pairs that differ from the given ones in one
    place: a pairing block bumped at entry (0, 0) or zeroed, a stored step
    cut to the line of its first basis row, moved up one index, or
    preceded by that line one index lower."""
    for d, blk in pairing.blocks.items():
        if blk.rows and blk.cols:
            bump = Matrix.from_rows([[int(r == c == 0) for c in range(blk.cols)]
                                     for r in range(blk.rows)])
            for changed in (blk + bump, Matrix.zero(blk.rows, blk.cols)):
                yield inst, IntersectionPairing(pairing.center, inst.space,
                                                {**pairing.blocks, d: changed})
    steps = inst.filtration.steps
    for (d, i), sub in steps.items():
        if sub.is_zero():
            continue
        line = Subspace(sub.ambient_dim, sub.basis._take([0]))
        others = {key: s for key, s in steps.items() if key != (d, i)}
        for changed in ({**others, (d, i): line}, {**others, (d, i + 1): sub},
                        {**steps, (d, i - 1): line}):
            yield replace(inst, filtration=Filtration(inst.space, changed)), pairing


def test_self_duality_by_rank_matches_the_perp_oracle():
    cases = [quadric(m) for m in (0, 1, 2)]
    cases += [(ri.instance, ri.instance.pairing)
              for ri in (random_instance(seed, PAIRED) for seed in range(30))]
    verdicts = []
    for inst, q in cases:
        assert q.filtration_self_dual(inst) and perp_self_dual(q, inst)
        for mutant, pairing in self_duality_mutants(inst, q):
            verdict = pairing.filtration_self_dual(mutant)
            assert verdict == perp_self_dual(pairing, mutant)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# --- pairing versus the Hodge bigrading -------------------------------------

def _weight_one_instance(block):
    space = GradedSpace({1: 2})
    filtr = Filtration(space, {(1, 0): Subspace.full(2)})
    inst = PerverseLefschetzInstance(center=1, space=space, filtration=filtr,
                                     eta=GradedMap(2, {}, space))
    return inst, IntersectionPairing(1, space, {1: block})


def test_duality_hs_check_quadric_and_symplectic_pass():
    inst, q = quadric(1)
    assert duality_hs_check(inst, q, inst.hodge).passed
    winst, wq = _weight_one_instance(frac_matrix([[0, 1], [-1, 0]]))
    big = weight_one_bigrading(winst.space, 1)
    assert duality_hs_check(winst, wq, big).passed


def test_duality_hs_check_detects_mistyped_pairing():
    winst, wq = _weight_one_instance(frac_matrix([[1, 0], [0, -1]]))
    big = weight_one_bigrading(winst.space, 1)
    report = duality_hs_check(winst, wq, big)
    assert not report.passed
    d, pq, pq2 = report.failure
    assert d == 1 and pq == pq2  # a piece pairs with its own type


def test_duality_hs_check_requires_nondegeneracy():
    winst, wq = _weight_one_instance(frac_matrix([[1, 0], [0, 0]]))
    with pytest.raises(PreconditionFailure, match="degenerate"):
        duality_hs_check(winst, wq, weight_one_bigrading(winst.space, 1))


# --- induced pairings on summands -------------------------------------------

def test_induced_middle_pairing_in_lift_coordinates_is_operator_free():
    expected = frac_matrix([[0, 1], [1, 0]])
    for m in (0, 1, 2, 3, 7):
        inst, q = quadric(m)
        result = compute_splitting(inst)
        lifts = canonical_lifts(result)
        coords = {(0, 2): Matrix.from_rows(
            [list(lifts["D1"]), list(lifts["D2"])], 3)}
        induced = induced_pairing_on_summand(inst, q, result, 0, coords)
        assert induced[2] == expected


def test_induced_deep_pairing_records_operator_parameter():
    for m in (1, 2, 5):
        inst, q = quadric(m)
        result = compute_splitting(inst)
        pushed = inst.eta.block(2).apply([1, 0, 0])
        coords = {(1, 4): Matrix.from_rows([list(pushed)], 3)}
        induced = induced_pairing_on_summand(inst, q, result, -1, coords)
        assert induced[2] == Matrix.from_rows([[Rat(-m - 1)]], 1)


def test_induced_pairing_missing_partner_is_empty():
    inst, _ = quadric(1)
    q = inst.pairing
    result = compute_splitting(inst)
    partial = type(result)(dict(result.embedded),
                           {(0, 2): result.summands[(0, 2)]},
                           dict(result.schedule))
    induced = induced_pairing_on_summand(inst, q, partial, 0)
    assert induced[2].cols == 0


# --- projectors -------------------------------------------------------------

def test_projector_onto_middle_summand():
    inst, q = quadric(2)
    result = compute_splitting(inst)
    target = result.summands[(0, 2)]
    pr = projector(inst, q, result, 0, 2, target)
    assert pr.rank == 2 and pr.idempotent
    assert pr.tensor_types == ((3, 3),)
    # kills the deep class, fixes the target
    assert not any(pr.matrix.apply([1, 0, 0]))
    for row in target.basis.data:
        assert tuple(pr.matrix.apply(row)) == tuple(row)


def test_projector_onto_single_lift():
    inst, q = quadric(1)
    result = compute_splitting(inst)
    lifts = canonical_lifts(result)
    target = Subspace.span([list(lifts["D1"])], 3)
    pr = projector(inst, q, result, 0, 2, target)
    assert pr.rank == 1 and pr.idempotent
    assert pr.tensor_types == ((3, 3),)
    assert tuple(pr.matrix.apply(list(lifts["D1"]))) == tuple(lifts["D1"])


def test_projector_rejects_target_outside_summand():
    inst, q = quadric(1)
    result = compute_splitting(inst)
    with pytest.raises(InputError):
        projector(inst, q, result, 0, 2, Subspace.span([[1, 0, 0]], 3))
