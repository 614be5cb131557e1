import cProfile
import pstats
from fractions import Fraction
from types import CodeType

import pytest

from persplit import cli, fileformat, lefschetz, splitting
from persplit.corpus import (GeneratorProfile, canonical_lifts, quadric_cone,
                             random_instance)
from persplit.duality import orthogonal_mismatch
from persplit.errors import (AssemblyFailure, ContainmentViolation, EngineDefect,
                             VerificationFailure)
from persplit.fileformat import save
from persplit.graded import GradedMap, GradedPieces, validate_filtration
from persplit.instance import PerverseLefschetzInstance
from persplit.lefschetz import (StringSpec, apply_graded_auto, build_split_model,
                                check_hard_lefschetz, twist_model)
from persplit.linalg import Matrix, Subspace, image_of, kernel, quotient_map, rref
from persplit.splitting import (ScheduleStep, assemble, certify_slot, compute_splitting,
                                direct_characterization, eta_commutation_check,
                                psi_schedule, slot_list)

from oracle_helpers import oracle_commutation, oracle_summands
from test_graded import base_changed_split_model


def quadric_split(m):
    inst = quadric_cone(m).instance
    return inst, compute_splitting(inst)


# --- the schedule on the built-in example ----------------------------------

def test_embedded_middle_space_m1():
    inst, result = quadric_split(1)
    expected = Subspace.span([[Fraction(1, 2), 1, 0], [Fraction(1, 2), 0, 1]], 3)
    assert result.embedded[(0, 2)] == expected


def test_embedded_middle_space_m0():
    inst, result = quadric_split(0)
    expected = Subspace.span([[1, 1, 0], [0, 0, 1]], 3)
    assert result.embedded[(0, 2)] == expected
    lifts = canonical_lifts(result)
    assert lifts["D1"] == (1, 1, 0)   # the deep class plus the first ruling
    assert lifts["D2"] == (0, 0, 1)   # the second ruling lifts to itself


def test_deep_slot_is_whole_filtration_step():
    inst, result = quadric_split(1)
    assert result.embedded[(1, 2)] == Subspace.span([[1, 0, 0]], 3)


def test_splitting_depends_on_operator():
    _, r1 = quadric_split(1)
    _, r2 = quadric_split(2)
    assert r1.embedded[(0, 2)] != r2.embedded[(0, 2)]


def test_schedule_log_records_each_step():
    inst, result = quadric_split(1)
    steps = result.schedule[(0, 2)]
    assert steps[0].t == 0 and steps[0].power == 1 and steps[0].target_index == 2
    assert steps[-1].dim_after == result.embedded[(0, 2)].dim
    # step t >= 1 reuses power i+1 against the lower index — the subtle part
    assert steps[1].power == 1 and steps[1].target_index == 1


def test_assembled_summands_quadric():
    inst, result = quadric_split(1)
    assert result.summands[(-1, 2)] == Subspace.span([[1, 0, 0]], 3)
    assert result.summands[(0, 2)] == result.embedded[(0, 2)]
    # middle degree-4 summand is the pairing annihilator of the deep class
    assert result.summands[(0, 4)] == Subspace.span([[1, -1, 0], [1, 0, 1]], 3)
    assert result.summands[(1, 4)].dim == 1


# --- split models ----------------------------------------------------------

def test_split_model_schedule_cuts_longer_strings_late():
    inst, truth = build_split_model(StringSpec(((2, 0, 1), (1, 2, 2), (0, 4, 1))))
    result = compute_splitting(inst)
    got = {k: v for k, v in result.embedded.items() if v.dim}
    assert got == {k: v for k, v in truth.embedded.items() if v.dim}
    for (i, d), steps in result.schedule.items():
        dims = [s.dim_after for s in steps]
        assert dims == sorted(dims, reverse=True)  # cuts only shrink
        assert dims[-1] == result.embedded[(i, d)].dim
    # the head of the length-2 string survives step 0 of slot (0, 0)
    # and is removed exactly at step t = 2 − 0
    dims = [s.dim_after for s in result.schedule[(0, 0)]]
    assert dims == [1, 1, 0]


def test_twisted_equivariance():
    for seed in range(30):
        ri = random_instance(seed)
        result = compute_splitting(ri.instance)
        expected_e = apply_graded_auto(ri.twist, ri.truth.embedded)
        expected_g = apply_graded_auto(ri.twist, ri.truth.summands)
        got_e = {k: v for k, v in result.embedded.items() if v.dim}
        want_e = {k: v for k, v in expected_e.items() if v.dim}
        assert got_e == want_e
        assert result.summands == {k: v for k, v in expected_g.items() if v.dim}


def test_two_path_agreement_on_seeds():
    for seed in range(40):
        inst = random_instance(seed).instance
        for (i, d) in slot_list(inst):
            via_psi, _ = psi_schedule(inst, i, d)
            via_direct = direct_characterization(inst, i, d)
            assert via_psi == via_direct


def test_direct_characterization_vacuous_beyond_amplitude():
    inst = quadric_cone(1).instance
    r = inst.amplitude
    # i = r: every condition lands in a full filtration step
    assert direct_characterization(inst, r, 2) == inst.filtration.at(2, -r)


def test_projection_normalization_is_identity_on_primitives():
    from persplit.lefschetz import primitives
    inst, result = quadric_split(2)
    gp = inst.pieces
    prims = primitives(gp)
    for (i, d), e_sub in result.embedded.items():
        q = gp.quotient(d, -i)
        if q is None:
            continue
        assert image_of(q.projection, e_sub) == prims.get((i, d))


def test_uniqueness_perturbation_breaks_conditions():
    # adding a deep-direction component to the canonical lift violates
    # the strong-primitivity condition that characterizes it
    inst, result = quadric_split(1)
    good = result.embedded[(0, 2)]
    vec = list(good.basis.data[0])
    vec[0] += 1  # push along the deep class
    perturbed = Subspace.span([vec, list(good.basis.data[1])], 3)
    assert perturbed != good
    cond = inst.filtration.at(4, 0)
    img = image_of(inst.eta.block(2), perturbed)
    assert not cond.contains(img)
    # while the canonical one satisfies it
    assert cond.contains(image_of(inst.eta.block(2), good))


# --- assembly checks -------------------------------------------------------

def test_assemble_rejects_overlapping_embedded_spaces():
    inst, result = quadric_split(1)
    bad = dict(result.embedded)
    bad[(0, 2)] = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)  # contains the deep class
    with pytest.raises(AssemblyFailure):
        assemble(inst, bad)


def test_assemble_rejects_wrong_dimension():
    inst, result = quadric_split(1)
    bad = dict(result.embedded)
    bad[(0, 2)] = Subspace.span([[0, 1, 0]], 3)  # too small to rebuild W
    with pytest.raises(AssemblyFailure):
        assemble(inst, bad)


# Step t = 2 of slot (0, 4) of the twisted model below checks the rows e3,
# e4 against the cut {v : η²v ∈ W_{≤2}V^4} = {v_0 = 0}.  Cached as the
# cut rows, the annihilator of this smaller subspace holds e3 and not e4.
SHRUNK_CUT = Subspace.span([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]], 6)
SCHEDULE_WITNESS = tuple(Fraction(int(j == 4)) for j in range(6))


def shrink_schedule_cut(inst):
    inst._memo[("cut_rows", 4, 2, 2)] = SHRUNK_CUT.annihilator().basis
    return inst


def twisted_model():
    inst, _ = build_split_model(StringSpec(((4, 0, 1), (2, 2, 2), (0, 4, 2), (2, 0, 1))))
    return twist_model(inst, 3, 2)[0]


def test_schedule_witness_is_the_first_row_outside_the_cut():
    inst = twisted_model()
    cut = kernel(inst.cut_rows(4, 2, 2))
    assert cut.sum(SHRUNK_CUT) == cut != SHRUNK_CUT
    shrink_schedule_cut(inst)
    with pytest.raises(ContainmentViolation) as exc:
        psi_schedule(inst, 0, 4)
    assert (exc.value.i, exc.value.d, exc.value.t) == (0, 4, 2)
    assert exc.value.witness == SCHEDULE_WITNESS


def test_schedule_witness_is_the_first_of_several_rows_outside_the_cut():
    # neither e3 nor e4 satisfies these rows: the witness is e3, the first
    inst = twisted_model()
    inst._memo[("cut_rows", 4, 2, 2)] = Subspace.span([[0, 0, 0, 0, 1, 1]], 6).annihilator().basis
    with pytest.raises(ContainmentViolation) as exc:
        psi_schedule(inst, 0, 4)
    assert (exc.value.i, exc.value.d, exc.value.t) == (0, 4, 2)
    assert exc.value.witness == tuple(Fraction(int(j == 3)) for j in range(6))


def test_split_reports_the_schedule_witness(capsys, monkeypatch, tmp_path):
    path = tmp_path / "twisted.json"
    save(twisted_model(), path)
    load = fileformat.load
    monkeypatch.setattr(fileformat, "load", lambda p: shrink_schedule_cut(load(p)))
    code = cli.main(["split", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == ("verification failure: containment violated at slot (i=0, d=4), "
                            f"step t=2; witness {SCHEDULE_WITNESS}\n")


# --- the canonical-lift certificate -----------------------------------------

def split_sparse_model(length, mult, seed=11):
    """Strings (i, 2L − i − 2s, mult) for i ≤ L and s ∈ {0, 1}, twisted with
    bound 3."""
    entries = tuple((i, 2 * length - i - 2 * s, mult)
                    for i in range(length + 1) for s in (0, 1))
    return twist_model(build_split_model(StringSpec(entries))[0], seed, 3)[0]


def wrong_lifts():
    """(instance, result, slot, E + w) for every slot (i, d) and every
    basis row w of W_{≤−i−1}V^d, w added to E's first basis row: another
    lift of the same primitives, which breaks strong primitivity."""
    for length, mult in ((3, 2), (4, 1), (6, 1)):
        inst = split_sparse_model(length, mult)
        result = compute_splitting(inst)
        for (i, d), e_sub in sorted(result.embedded.items()):
            if not e_sub.dim:
                continue
            rows = [list(row) for row in e_sub.basis.data]
            for w in inst.filtration.at(d, -i - 1).basis.data:
                lifted = [[a + b for a, b in zip(rows[0], w)]] + rows[1:]
                yield inst, result, (i, d), Subspace.span(lifted, e_sub.ambient_dim)


def test_assembly_accepts_every_wrong_lift_and_the_certificate_rejects_it():
    count = 0
    for inst, result, (i, d), wrong in wrong_lifts():
        assert wrong != result.embedded[(i, d)]
        certify_slot(inst, i, d, result.embedded[(i, d)])
        assemble(inst, {**result.embedded, (i, d): wrong})
        with pytest.raises(EngineDefect) as exc:
            certify_slot(inst, i, d, wrong)
        assert str(exc.value).startswith(
            f"canonical-lift certificate fails at (i={i}, d={d}), s=")
        count += 1
    assert count == 17


def test_split_exits_3_on_a_wrong_lift(capsys, monkeypatch, tmp_path):
    inst, _, slot, wrong = next(wrong_lifts())
    path = tmp_path / "twisted.json"
    save(inst, path)
    schedule = splitting.psi_schedule

    def wrong_schedule(inst, i, d):
        e_sub, steps = schedule(inst, i, d)
        return (wrong if (i, d) == slot else e_sub), steps

    monkeypatch.setattr(splitting, "psi_schedule", wrong_schedule)
    code = cli.main(["split", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err == ("engine defect: canonical-lift certificate fails at "
                            "(i=0, d=4), s=2: η^2E ⊄ W_≤1V^8\n")


def test_certificate_catches_a_corrupted_cut_that_both_cut_orders_read():
    # Slot (2, 0) of the twisted model has E = ⟨(1, −1)⟩ and
    # W_{≤−3}V^0 = ⟨(1, 0)⟩.  Cached as the rows of the last cut
    # η⁴v ∈ W_{≤3}V^8, the annihilator of the wrong lift ⟨(2, −1)⟩ makes
    # the schedule and the one-pass characterization agree on that lift.
    inst = twisted_model()
    assert compute_splitting(twisted_model()).embedded[(2, 0)] == Subspace.span([[1, -1]], 2)
    wrong = Subspace.span([[2, -1]], 2)
    inst._memo[("cut_rows", 0, 4, 3)] = wrong.annihilator().basis
    assert psi_schedule(inst, 2, 0)[0] == direct_characterization(inst, 2, 0) == wrong
    with pytest.raises(EngineDefect) as exc:
        compute_splitting(inst)
    assert str(exc.value) == ("canonical-lift certificate fails at (i=2, d=0), s=4: "
                              "η^4E ⊄ W_≤3V^8")


def test_assembled_summands_match_the_image_by_image_oracle():
    instances = [split_sparse_model(length, mult, seed)
                 for length, mult in ((3, 2), (4, 1), (6, 1)) for seed in (0, 11)]
    instances += [random_instance(seed, profile).instance for seed in range(20)
                  for profile in (GeneratorProfile(), GeneratorProfile(with_pairing=True))]
    for inst in instances:
        result = compute_splitting(inst)
        assert result.summands == oracle_summands(inst, result.embedded)


def test_certificate_rejects_a_space_one_row_short():
    # a subspace of E still meets (a) and (b): only the dimension count (c)
    # tells it from E
    count = 0
    for inst in (twisted_model(), quadric_cone(1).instance, split_sparse_model(3, 2)):
        result = compute_splitting(inst)
        for (i, d), e_sub in sorted(result.embedded.items()):
            if not e_sub.dim:
                continue
            short = Subspace.span(e_sub.basis.data[1:], e_sub.ambient_dim)
            with pytest.raises(EngineDefect) as exc:
                certify_slot(inst, i, d, short)
            assert str(exc.value) == (f"canonical-lift certificate fails at (i={i}, d={d}): "
                                      f"dim E = {e_sub.dim - 1}, dim P^(-{i},{d}) = {e_sub.dim}")
            count += 1
    assert count >= 10


def test_containment_violation_carries_slot_data():
    exc = ContainmentViolation(1, 2, 3, (Fraction(1), Fraction(0)))
    assert (exc.i, exc.d, exc.t) == (1, 2, 3)
    assert "witness" in str(exc)


# --- commutation -----------------------------------------------------------

def test_quadric_commutation_report():
    inst, result = quadric_split(1)
    report = eta_commutation_check(inst, result)
    assert report.passed
    # the deep lift is carried isomorphically to the top summand
    moved = image_of(inst.eta.block(2), result.embedded[(1, 2)])
    assert moved == result.summands[(1, 4)]
    # key restriction: the middle lift lands in the pairing annihilator
    img = image_of(inst.eta.block(2), result.embedded[(0, 2)])
    assert inst.filtration.at(4, 0).contains(img)


def test_split_model_commutation():
    inst, _ = build_split_model(StringSpec(((3, 0, 2), (1, 2, 1))))
    result = compute_splitting(inst)
    assert eta_commutation_check(inst, result).passed


# --- facts the pipeline records instead of recomputing ----------------------

def implication_cases():
    """The quadric cones, the split-sparse ladder, default and paired random
    instances and a base-changed model."""
    cases = [quadric_cone(m).instance for m in (0, 1, 2, 3, 7)]
    cases += [split_sparse_model(length, mult) for length, mult in ((3, 2), (4, 1), (6, 1))]
    cases += [random_instance(seed, profile).instance for seed in range(20)
              for profile in (GeneratorProfile(), PAIRED)]
    return cases + [base_changed_split_model(((4, 0, 1), (2, 2, 2), (0, 4, 2), (2, 0, 1)), 3)]


def test_recorded_projections_and_commutation_match_their_oracles():
    """Each certified E projects isomorphically onto its kernel-built
    primitive, the kernel's dimension is the graded-dims count that the
    certificate reads, and the recorded commutation report equals the
    image-by-image one."""
    nontrivial = 0
    for inst in implication_cases():
        result = compute_splitting(inst)
        gp = inst.pieces
        prims = lefschetz.primitives(gp)
        recorded = [name for name, ok, _ in result.checks if name.endswith("under projection")]
        assert recorded == [f"E^(-{i},{d}) ≅ P^(-{i},{d}) under projection"
                            for (i, d) in result.embedded if gp.dim(d, -i)]
        assert len(recorded) == len(prims)
        for (i, d), prim in prims.items():
            assert prim.dim == gp.dim(d, -i) - gp.dim(d + 2 * i + 2, i + 2)
            e_sub = result.embedded[(i, d)]
            projected = image_of(gp.quotient(d, -i).projection, e_sub)
            assert projected.dim == e_sub.dim and projected == prim, (i, d)
            nontrivial += e_sub != inst.filtration.at(d, -i) and prim.dim > 0
        assert eta_commutation_check(inst, result) == oracle_commutation(inst, result)
    assert nontrivial


# --- hard Lefschetz, checked once --------------------------------------------

def test_hard_lefschetz_runs_once_per_split(monkeypatch):
    calls = []

    def counting(gp):
        calls.append(gp)
        return check_hard_lefschetz(gp)

    monkeypatch.setattr(lefschetz, "check_hard_lefschetz", counting)
    inst = quadric_cone(1).instance
    compute_splitting(inst)
    assert len(calls) == 1
    lefschetz.primitives(inst.pieces)
    assert len(calls) == 1


def test_hard_lefschetz_failure_keeps_its_witness():
    inst = quadric_cone(1).instance
    degenerate = PerverseLefschetzInstance(center=3, space=inst.space,
                                           filtration=inst.filtration,
                                           eta=GradedMap(2, {}, inst.space))
    report = check_hard_lefschetz(degenerate.pieces)
    assert not report.passed and report.failure[2] is not None
    with pytest.raises(VerificationFailure) as exc:
        compute_splitting(degenerate)
    assert str(exc.value) == str(report)
    with pytest.raises(VerificationFailure) as exc:
        assemble(degenerate, {})
    assert str(exc.value) == str(report)


def test_splitting_builds_no_fractions(tmp_path):
    """ℚ values stay integer rows inside the engine: on a loaded twisted
    split model, ``compute_splitting`` constructs no ``Fraction``."""
    path = tmp_path / "twisted.json"
    save(twisted_model(), path)
    inst = fileformat.load(path)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = compute_splitting(inst)
    finally:
        profile.disable()
    assert result.embedded
    new = Fraction.__new__.__code__
    calls = {key[:3]: stat[1] for key, stat in pstats.Stats(profile).stats.items()}
    assert calls.get((new.co_filename, new.co_firstlineno, new.co_name), 0) == 0


def test_splitting_runs_no_direct_pass_and_no_sums():
    """The certificate replaces the one-pass characterization, and
    assembly stacks rows instead of adding subspaces: ``compute_splitting``
    on a twisted model calls neither ``direct_characterization`` nor
    ``Subspace.sum``, and forms no primitive kernel."""
    inst = twisted_model()
    profile = cProfile.Profile()
    profile.enable()
    try:
        compute_splitting(inst)
    finally:
        profile.disable()
    calls = {key[:3]: stat[1] for key, stat in pstats.Stats(profile).stats.items()}

    def count(function):
        code = function.__code__
        return calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

    assert count(psi_schedule) == len(slot_list(inst))
    assert count(lefschetz._primitive_table) == 0
    assert count(direct_characterization) == 0
    assert count(Subspace.sum) == 0


def profiled(call):
    """``call()`` under cProfile, with its stats keyed by (file, line, name)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        value = call()
    finally:
        profile.disable()
    return value, {key[:3]: stat for key, stat in pstats.Stats(profile).stats.items()}


def code_key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def test_commutation_reads_no_cut_rows_and_each_graded_block_is_one_product():
    """On a cold twisted model with a pairing, each induced block e^s of
    the pieces is one product, formed once per (d, i, s) and not from
    other induced blocks; the commutation check repeats no certificate
    product and no assembly rank, so it reads no ``cut_rows`` and forms
    no image."""
    inst = random_instance(9, GeneratorProfile(with_pairing=True)).instance
    assert inst.pairing is not None
    result, stats = profiled(lambda: compute_splitting(inst))
    outer = GradedPieces.e_power_block.__code__
    body = next(c for c in outer.co_consts if isinstance(c, CodeType) and c.co_name == "compute")
    formed = [key for key in inst.pieces._memo if key[0] == "e_power_block"]
    assert formed and stats[code_key(body)][1] == len(formed)
    callers = {key[:3] for key in stats[code_key(outer)][4]}
    assert not callers & {code_key(outer), code_key(body)}
    report, stats = profiled(lambda: eta_commutation_check(inst, result))
    assert report.passed and any(j and jp for (_, _, j, jp), _ in report.checks)
    assert code_key(PerverseLefschetzInstance.cut_rows.__code__) not in stats
    assert code_key(image_of.__code__) not in stats


def test_random_instance_validates_its_filtration_once_and_each_quotient_once():
    """The generated split model and its twist share one filtration, which
    owns its report and quotient maps: generating an instance and
    splitting it validates the filtration once and forms each quotient
    map once."""
    for profile in (GeneratorProfile(), GeneratorProfile(with_hodge=True, with_pairing=True)):
        def generate_and_split():
            ri = random_instance(9, profile)
            compute_splitting(ri.instance)
            return ri.instance.filtration
        filtr, stats = profiled(generate_and_split)
        assert stats[code_key(validate_filtration.__code__)][1] == 1
        assert stats[code_key(quotient_map.__code__)][1] == len(filtr.report.graded_dims)


# --- constraint rows are reduced only where a result is read ----------------

PAIRED = GeneratorProfile(with_pairing=True)


def constraint_row_cases():
    """Twisted and base-changed models, with and without a pairing, and the
    quadric cones, whose steps are not coordinate subspaces."""
    cases = [twisted_model(), split_sparse_model(3, 2), split_sparse_model(4, 1),
             base_changed_split_model(((4, 0, 1), (2, 2, 2), (0, 4, 2), (2, 0, 1)), 3)]
    cases += [random_instance(seed, PAIRED).instance for seed in range(10)]
    cases += [base_changed_split_model(((0, 4, 1), (2, 2, 2), (4, 0, 1)), seed, paired=True)
              for seed in (0, 1)]
    return cases + [quadric_cone(m).instance for m in (0, 1, 2)]


def reduced_cut_rows(inst, d, s, level):
    """The RREF of ann(W_{≤level}V^{d+2s})·η^s; of η^s when that step is 0;
    no rows when it is full."""
    target = inst.filtration.at(d + 2 * s, level)
    if target.is_full():
        return Matrix.zero(0, inst.space.dim(d))
    power = inst.eta.power_block(d, s)
    return rref(power if target.is_zero() else target.annihilator().basis @ power)


def reduced_orthogonal_rows(inst, pairing, d, s):
    """The RREF of the basis of η^s(W_{≤−s}V^{2n−d−2s}) times Qᵀ, with no
    rows when that image is 0."""
    src_d = 2 * pairing.center - d - 2 * s
    pushed = image_of(inst.eta.power_block(src_d, s), inst.filtration.at(src_d, -s))
    if pushed.is_zero():
        return Matrix.zero(0, inst.space.dim(d))
    return rref(pushed.basis @ pairing.block(d).transpose())


def test_constraint_rows_span_their_reduced_definitions():
    for inst in constraint_row_cases():
        r = inst.amplitude
        for d in inst.space.degrees:
            for s in range(r + 2):
                for level in range(-r - 1, r + 2):
                    rows = inst.cut_rows(d, s, level)
                    assert rref(rows) == reduced_cut_rows(inst, d, s, level), (d, s, level)
                    # no rows exactly when there is no condition
                    assert not rows.rows or not rows.is_zero()
            for s in range(1, r + 2) if inst.pairing is not None else ():
                rows = inst.orthogonal_rows(inst.pairing, d, s)
                assert rref(rows) == reduced_orthogonal_rows(inst, inst.pairing, d, s), (d, s)
                assert not rows.rows or not rows.is_zero()


def unpruned_schedule(inst, i, d):
    """``psi_schedule``'s loop without its stop at S_t = 0: every step
    reads its rows, checks its containment and cuts."""
    current = inst.cut_by(inst.filtration.at(d, -i), [inst.cut_rows(d, i + 1, i + 1)])
    steps = [ScheduleStep(0, i + 1, i + 2, current.dim)]
    for t in range(1, inst.amplitude - i + 1):
        assert (inst.cut_rows(d, i + t, i + t) @ current.basis.transpose()).is_zero()
        current = inst.cut_by(current, [inst.cut_rows(d, i + t, i + t - 1)])
        steps.append(ScheduleStep(t, i + t, i + t, current.dim))
    return current, tuple(steps)


def test_schedule_past_a_zero_step_matches_the_unpruned_loop():
    early = 0
    for inst in constraint_row_cases():
        for (i, d) in slot_list(inst):
            schedule = psi_schedule(inst, i, d)
            assert schedule == unpruned_schedule(inst, i, d), (i, d)
            early += any(not step.dim_after for step in schedule[1][:-1])
    assert early


def test_canonical_forms_are_formed_only_where_they_are_read():
    """On a cold paired random instance, hard Lefschetz forms no e^0 block,
    the schedule reads no cut rows past a zero step, the orthogonal path
    pushes no image and the self-duality flag forms no kernel.  On a
    twisted model whose steps are proper, each distinct step's annihilator
    is formed once, however many cut rows share it."""
    inst = random_instance(9, PAIRED).instance
    report = lefschetz.hard_lefschetz_report(inst.pieces)
    assert report.passed and any(i == 0 for (i, _), _ in report.checks)
    assert not [key for key in inst.pieces._memo if key[0] == "e_power_block" and key[2:] == (0, 0)]
    cut_rows = code_key(PerverseLefschetzInstance.cut_rows.__code__)
    early = 0
    for (i, d) in slot_list(inst):
        (_, steps), stats = profiled(lambda: psi_schedule(inst, i, d))
        zero = next((step.t for step in steps if not step.dim_after), len(steps) - 1)
        # one read at step 0, two at each later step up to the first zero
        assert stats[cut_rows][1] == 1 + 2 * zero
        early += zero < len(steps) - 1
    assert early
    result = compute_splitting(inst)
    mismatch, stats = profiled(lambda: orthogonal_mismatch(inst, inst.pairing, result.embedded))
    assert mismatch is None and code_key(image_of.__code__) not in stats
    flag, stats = profiled(lambda: inst.pairing.filtration_self_dual(inst))
    assert flag and code_key(kernel.__code__) not in stats

    inst = split_sparse_model(3, 2)
    _, stats = profiled(lambda: compute_splitting(inst))
    formed = [key for key in inst._memo if key[0] == "annihilator"]
    assert formed and stats[code_key(Subspace.annihilator.__code__)][1] == len(formed)
    proper = [key for key in inst._memo if key[0] == "cut_rows" and not
              inst.filtration.at(key[1] + 2 * key[2], key[3]).is_zero() and not
              inst.filtration.at(key[1] + 2 * key[2], key[3]).is_full()]
    assert len(proper) > len(formed)
