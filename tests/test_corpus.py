import pytest

from persplit.corpus import (GeneratorProfile, H2_LABELS, H4_LABELS, MAX_INSTANCE_DIM,
                             TRIPLE, canonical_lifts, quadric_cone, quadric_cone_class,
                             random_instance, split_model_pairing,
                             triple_product, try_canonical_lifts)
from persplit.errors import InputError
from persplit.lefschetz import (StringSpec, build_split_model,
                                check_hard_lefschetz, string_cells)
from persplit.scalars import Rat
from persplit.splitting import compute_splitting


# --- the cup-product table --------------------------------------------------

def test_triple_products_cover_all_symmetric_triples():
    names = ("D", "D1", "D2")
    for a in names:
        for b in names:
            for c in names:
                assert tuple(sorted((a, b, c))) in TRIPLE
    assert triple_product("D1", "D", "D") == Rat(-1)
    assert triple_product("D2", "D1", "D") == Rat(1)
    assert triple_product("D", "D", "D") == Rat(2)


def test_quadric_cone_shape():
    qc = quadric_cone(1)
    inst = qc.instance
    assert inst.space.dims == {0: 1, 2: 3, 4: 3, 6: 1}
    assert inst.center == 3
    assert inst.space.labels[2] == H2_LABELS
    assert inst.space.labels[4] == H4_LABELS
    assert inst.hodge is not None and inst.pairing is not None


def test_quadric_cone_operator_blocks_encode_cup_products():
    inst = quadric_cone(1).instance
    # 1 ↦ D1 + D2
    assert tuple(inst.eta.block(0).apply([1])) == (0, 1, 1)
    # pairing block in middle degree is the triple-product table
    assert inst.pairing.value(2, quadric_cone_class("D"),
                              (1, 0, 0)) == Rat(-1)


def test_quadric_cone_rejects_negative_parameter():
    with pytest.raises(InputError):
        quadric_cone(-1)


def test_quadric_cone_lifts_match_closed_forms():
    # g(Δ1) = D1 + 1/(m+1)·D and g(Δ2) = D2 + m/(m+1)·D
    for m in (0, 1, 2, 5):
        result = compute_splitting(quadric_cone(m).instance)
        lifts = canonical_lifts(result)
        assert lifts["D1"] == (Rat(1, m + 1), 1, 0)
        assert lifts["D2"] == (Rat(m, m + 1), 0, 1)
        # their sum is the anticanonical-type combination D + D1 + D2
        total = tuple(a + b for a, b in zip(lifts["D1"], lifts["D2"]))
        assert total == (1, 1, 1)


def test_try_canonical_lifts_requires_divisor_labels():
    inst = quadric_cone(1).instance
    result = compute_splitting(inst)
    assert try_canonical_lifts(inst, result) == canonical_lifts(result)
    other, _ = build_split_model(StringSpec(((1, 2, 1),)))
    assert try_canonical_lifts(other, compute_splitting(other)) is None


# --- split-model pairing ----------------------------------------------------

def test_split_model_pairing_flags():
    spec = StringSpec(((2, 1, 1), (1, 2, 2), (0, 3, 1)))
    inst, _ = build_split_model(spec)
    _, cells = string_cells(spec)
    q = split_model_pairing(inst, cells)
    assert q.is_nondegenerate()
    assert q.eta_self_adjoint(inst.eta)
    assert q.filtration_self_dual(inst)


def test_split_model_pairing_couples_opposite_layers():
    spec = StringSpec(((2, 1, 1),))
    inst, _ = build_split_model(spec)
    _, cells = string_cells(spec)
    q = split_model_pairing(inst, cells)
    # layer 0 (degree 1) pairs with layer 2 (degree 5), value 1
    assert q.value(1, (1,), (1,)) == Rat(1)
    # the middle layer pairs with itself
    assert q.value(3, (1,), (1,)) == Rat(1)


# --- profiles and seeded generation -----------------------------------------

def test_profile_record_round_trip():
    prof = GeneratorProfile(max_strings=2, with_hodge=True)
    assert GeneratorProfile.from_record(prof.to_record()) == prof
    with pytest.raises(InputError):
        GeneratorProfile.from_record({"max_wings": 3})


def test_profiles_whose_instances_could_exceed_the_dimension_cap_are_refused():
    # the default, the benchmark's suite profile and the tests' dressed one
    for prof in (GeneratorProfile(), GeneratorProfile(max_strings=8, max_string_length=4,
                                                      max_mult=3, with_hodge=True,
                                                      with_pairing=True)):
        assert GeneratorProfile.from_record(prof.to_record()) == prof
    at_cap = {"max_strings": 64, "max_mult": 4, "max_string_length": 3}
    assert 64 * 4 * (3 + 1) == MAX_INSTANCE_DIM
    assert GeneratorProfile.from_record(at_cap).max_mult == 4
    for record in ({**at_cap, "max_string_length": 4}, {"max_mult": 100000}):
        with pytest.raises(InputError, match=f"more than {MAX_INSTANCE_DIM}"):
            GeneratorProfile.from_record(record)


def test_random_instance_deterministic_per_seed():
    a = random_instance(17)
    b = random_instance(17)
    assert a.instance.eta == b.instance.eta
    assert a.instance.filtration == b.instance.filtration
    assert random_instance(18).instance.eta != a.instance.eta


def test_random_instances_satisfy_hl():
    for seed in range(50):
        inst = random_instance(seed).instance
        assert check_hard_lefschetz(inst.pieces).passed


def test_random_instance_optional_structures():
    plain = random_instance(3)
    assert plain.instance.hodge is None and plain.instance.pairing is None
    dressed = random_instance(3, GeneratorProfile(with_hodge=True,
                                                  with_pairing=True))
    assert dressed.instance.hodge is not None
    assert dressed.instance.pairing is not None
    assert dressed.instance.pairing.eta_self_adjoint(dressed.instance.eta)


def test_random_instance_truth_is_recovered():
    from persplit.lefschetz import apply_graded_auto
    for seed in (0, 5, 11):
        ri = random_instance(seed, GeneratorProfile(with_pairing=True))
        result = compute_splitting(ri.instance)
        moved = apply_graded_auto(ri.twist, ri.truth.summands)
        assert result.summands == {k: v for k, v in moved.items() if v.dim}
