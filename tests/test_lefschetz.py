import hashlib
import random

import pytest

from persplit import fileformat
from persplit.corpus import GeneratorProfile, quadric_cone, random_instance
from persplit.errors import InputError, VerificationFailure
from persplit.graded import GradedMap
from persplit.instance import PerverseLefschetzInstance
from persplit.lefschetz import (StringSpec, apply_graded_auto,
                                build_split_model, check_hard_lefschetz,
                                lefschetz_decomposition, primitives,
                                string_cells, twist_model)
from persplit.linalg import Matrix, Subspace, image_of
from persplit.scalars import Rat
from persplit.splitting import compute_splitting


# --- hard Lefschetz --------------------------------------------------------

def test_quadric_cone_hl_passes_for_positive_m():
    for m in (1, 2):
        assert check_hard_lefschetz(quadric_cone(m).instance.pieces).passed


def test_quadric_cone_hl_passes_for_m_zero():
    # still holds because the remaining class has nonzero triple self-product
    assert check_hard_lefschetz(quadric_cone(0).instance.pieces).passed


def test_hl_failure_reports_witness():
    # kill the single deep-to-high block by hand: route the deep class to
    # the part of the next degree that dies in the graded piece
    inst = quadric_cone(1).instance
    blocks = dict(inst.eta.blocks)
    rows = [list(r) for r in blocks[2].data]
    # W_{<=0}H^4 = {b : D·b = 0} contains (1,-1,0); send D there instead
    for r, val in zip(range(3), (1, -1, 0)):
        rows[r][0] = Rat(val)
    blocks[2] = Matrix.from_rows(rows, 3)
    eta = GradedMap(2, blocks, inst.space)
    broken = PerverseLefschetzInstance(center=3, space=inst.space,
                                       filtration=inst.filtration, eta=eta)
    report = check_hard_lefschetz(broken.pieces)
    assert not report.passed
    i, d, witness = report.failure
    assert (i, d) == (1, 2) and witness is not None


def test_hl_invariant_under_twist():
    for seed in range(10):
        ri = random_instance(seed)
        assert check_hard_lefschetz(ri.instance.pieces).passed


# --- primitives ------------------------------------------------------------

def test_quadric_cone_primitive_dimensions():
    gp = quadric_cone(1).instance.pieces
    pt = primitives(gp)
    assert pt.get((0, 2)).dim == 2      # all of the middle graded piece
    assert pt.get((1, 2)).dim == 1      # the deep line
    assert pt.get((0, 4)).dim == 2


def test_single_string_primitives():
    inst, _ = build_split_model(StringSpec(((2, 0, 1),)))
    pt = primitives(inst.pieces)
    assert pt.get((2, 0)).dim == 1
    assert all(sub.dim == 0 for (i, d), sub in pt.items() if (i, d) != (2, 0))


def test_primitive_rank_nullity_identity_on_seeds():
    for seed in range(200):
        inst = random_instance(seed).instance
        gp = inst.pieces
        pt = primitives(gp)
        for (i, d), prim in pt.items():
            assert prim.dim == gp.dim(d, -i) - gp.dim(d - 2, -i - 2)


def test_primitives_require_hl():
    inst = quadric_cone(1).instance
    eta = GradedMap(2, {}, inst.space)  # zero operator cannot satisfy HL
    degenerate = PerverseLefschetzInstance(center=3, space=inst.space,
                                           filtration=inst.filtration, eta=eta)
    with pytest.raises(VerificationFailure):
        primitives(degenerate.pieces)


# --- Lefschetz decomposition -----------------------------------------------

def test_quadric_top_graded_piece_is_operator_image():
    inst = quadric_cone(1).instance
    gp = inst.pieces
    pt = primitives(gp)
    decomp = lefschetz_decomposition(gp, pt)
    pieces = decomp[(1, 4)]
    assert len(pieces) == 1 and pieces[0].dim == 1


def test_split_model_decomposition_is_string_layers():
    spec = StringSpec(((2, 0, 1), (0, 2, 1)))
    inst, truth = build_split_model(spec)
    gp = inst.pieces
    decomp = lefschetz_decomposition(gp, primitives(gp))
    for (k, d), pieces in decomp.items():
        total = sum(p.dim for p in pieces)
        assert total == gp.dim(d, k)


def test_decomposition_generating_function_identity_on_seeds():
    for seed in range(50):
        inst = random_instance(seed).instance
        gp = inst.pieces
        pt = primitives(gp)
        decomp = lefschetz_decomposition(gp, pt)  # raises if not direct/spanning
        for (k, d), pieces in decomp.items():
            expected = 0
            j = max(0, k)
            while True:
                prim = pt.get((2 * j - k, d - 2 * j))
                if prim is None and 2 * j - k > inst.amplitude:
                    break
                expected += prim.dim if prim else 0
                j += 1
            assert gp.dim(d, k) == expected


# --- split models ----------------------------------------------------------

def test_single_point_string():
    inst, truth = build_split_model(StringSpec(((0, 0, 1),)))
    assert inst.space.dims == {0: 1}
    assert inst.eta.is_zero()
    assert truth.summands == {(0, 0): Subspace.full(1)}


def test_two_step_string():
    inst, _ = build_split_model(StringSpec(((1, 2, 1),)))
    assert inst.space.dims == {2: 1, 4: 1}
    assert inst.eta.block(2) == Matrix.identity(1)
    report = inst.filtration_report
    assert report.graded_dims == {(2, -1): 1, (4, 1): 1}


def test_split_model_matching_quadric_graded_dims():
    spec = StringSpec(((0, 0, 1), (1, 2, 1), (0, 2, 2), (0, 4, 2), (0, 6, 1)))
    inst, _ = build_split_model(spec)
    assert inst.filtration_report.graded_dims == \
        quadric_cone(1).instance.filtration_report.graded_dims


def test_string_spec_rejects_bad_entries():
    with pytest.raises(InputError):
        StringSpec(((-1, 0, 1),))
    with pytest.raises(InputError):
        StringSpec(((1, 0, 0),))


def test_duplicate_string_entries_stay_disjoint():
    # regression: repeated (i, d) entries must produce parallel strings,
    # not cross-wired ones
    spec = StringSpec(((3, 3, 1), (3, 3, 2), (3, 3, 2)))
    inst, truth = build_split_model(spec)
    assert check_hard_lefschetz(inst.pieces).passed
    result = compute_splitting(inst)
    assert result.summands == truth.summands


# --- generator bytes ---------------------------------------------------------
#
# The split models and their twists are the benchmark's and the corpus's
# inputs.  Each digest below is the SHA-256 over the SHA-256s of
# ``fileformat.serialize`` of a family, in order: the split-sparse ladder
# (strings (i, 2L − i − 2s, mult), i ≤ L, s ∈ {0, 1}) twisted with bound 3
# at seeds 0–9, and ``random_instance`` at seeds 0–39 under three profiles.

GENERATOR_PROFILES = {
    "default": GeneratorProfile(),
    "dressed": GeneratorProfile(max_strings=8, max_string_length=4, max_mult=3,
                                with_hodge=True, with_pairing=True),
    "paired": GeneratorProfile(with_pairing=True),
}
GENERATOR_DIGESTS = {
    (3, 2): "49511ec863d8b5fc92b573fa9798ff47bcd6873094de162295b3c3c8c2a25ff5",
    (6, 1): "32a73a217d8c576670b2751c9fe9b7db74d8e3958b4dc983582741aba59e567f",
    (3, 4): "e5eeb7f51935f0d400af291590728f158af2d559bee1836fb5fd560898d2bab6",
    "default": "6020e624d7b724faf20949d610ea378fba27f37227c133f0d2ac0f4e0003119f",
    "dressed": "14fa12b583bd0acc793517b4386185898224c94e17ba62009a98cf4f0969a112",
    "paired": "17e394c6a1d7c5100aa0fd8f412e3b0c0df3264547d002b03a56866510c7131e",
}


def assert_spanned_by_own_rows(filtration, truth):
    subspaces = [*filtration.steps.values(), *truth.embedded.values(),
                 *truth.summands.values()]
    for sub in subspaces:
        assert sub == Subspace.span(sub.basis.data, sub.ambient_dim)


def test_generators_write_pinned_bytes_and_canonical_subspaces():
    got = {}
    for length, mult in ((3, 2), (6, 1), (3, 4)):
        entries = tuple((i, 2 * length - i - 2 * s, mult)
                        for i in range(length + 1) for s in (0, 1))
        model, truth = build_split_model(StringSpec(entries))
        assert_spanned_by_own_rows(model.filtration, truth)
        got[(length, mult)] = [twist_model(model, seed, 3)[0] for seed in range(10)]
    for name, profile in GENERATOR_PROFILES.items():
        runs = [random_instance(seed, profile) for seed in range(40)]
        for ri in runs:
            assert_spanned_by_own_rows(ri.instance.filtration, ri.truth)
        got[name] = [ri.instance for ri in runs]
    for family, instances in got.items():
        digest = hashlib.sha256()
        for inst in instances:
            digest.update(hashlib.sha256(fileformat.serialize(inst).encode("utf-8")).digest())
        assert digest.hexdigest() == GENERATOR_DIGESTS[family], family


# --- twists ----------------------------------------------------------------

def test_twist_bound_zero_is_identity():
    inst, truth = build_split_model(StringSpec(((2, 0, 1), (1, 2, 1))))
    twisted, u = twist_model(inst, seed=5, bound=0)
    assert twisted.eta == inst.eta
    for d in inst.space.degrees:
        assert u.block(d) == Matrix.identity(inst.space.dim(d))


def test_twist_preserves_graded_pieces_and_hl():
    inst, _ = build_split_model(StringSpec(((2, 0, 2), (1, 2, 1), (0, 0, 1))))
    twisted, u = twist_model(inst, seed=9, bound=4)
    assert twisted.filtration == inst.filtration
    a, b = inst.pieces, twisted.pieces
    for (d, i) in a.slots:
        assert a.e_power_block(d, i, 1) == b.e_power_block(d, i, 1)  # u is trivial on pieces
    assert check_hard_lefschetz(b).passed


def test_twist_is_filtered_automorphism():
    inst, _ = build_split_model(StringSpec(((2, 0, 1), (1, 2, 2))))
    _, u = twist_model(inst, seed=2, bound=3)
    for d in inst.space.degrees:
        for i in inst.filtration.jumps(d):
            step = inst.filtration.at(d, i)
            assert image_of(u.block(d), step) == step


def test_apply_graded_auto_matches_blocks():
    inst, truth = build_split_model(StringSpec(((1, 2, 1),)))
    twisted, u = twist_model(inst, seed=1, bound=2)
    moved = apply_graded_auto(u, truth.summands)
    for (k, d), sub in moved.items():
        assert sub == image_of(u.block(d), truth.summands[(k, d)])
