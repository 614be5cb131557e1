import cProfile
import pstats
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from persplit.corpus import quadric_cone
from persplit.duality import IntersectionPairing, duality_hs_check
from persplit.errors import (GroupClosureBoundExceeded, HypothesisFailure,
                             InputError, PreconditionFailure)
from persplit.graded import Filtration, GradedMap, GradedSpace
from persplit.hodge import (HodgeBigrading, retraction_criterion, group_invariants,
                            is_hs_map, is_shs, verify_hodge_splitting)
from persplit.instance import PerverseLefschetzInstance
from persplit.lefschetz import StringSpec, build_split_model
from persplit.linalg import Matrix, Subspace
from persplit.scalars import FIELD_Q, FIELD_QI, Gaussian, Rat
from persplit.splitting import compute_splitting

from hodge_oracle import oracle_is_hs_map, oracle_is_shs, oracle_mixed_pair, oracle_validate
from oracle_helpers import frac_matrix, random_unimodular, weight_one_bigrading
from test_replay import weight_one_tensor

I = Gaussian(0, 1)


def conjugated(big):
    """The bigrading with every piece (p,q) relabeled as (q,p)."""
    return HodgeBigrading(big.space, big.weights,
                          {(d, q, p): sub for (d, p, q), sub in big.pieces.items()})


def is_hodge_tate(big):
    return all(p == q for (_, p, q) in big.pieces)


# --- bigrading basics -------------------------------------------------------

def test_bigrading_validation_catches_broken_conjugation():
    space = GradedSpace({0: 2})
    big = HodgeBigrading(space, {0: 1}, {
        (0, 1, 0): Subspace.span([[1, I]], 2, FIELD_QI),
        (0, 0, 1): Subspace.span([[0, 1]], 2, FIELD_QI),
    })
    errors = big.validate()
    assert any("conj" in e for e in errors)
    good = weight_one_bigrading(space, 0)
    assert good.validate() == []


def test_bigrading_rejects_weight_mismatch():
    space = GradedSpace({0: 1})
    with pytest.raises(InputError):
        HodgeBigrading(space, {0: 2}, {(0, 1, 0): Subspace.full(1, FIELD_QI)})


def test_hodge_tate_construction():
    space = GradedSpace({0: 1, 2: 3})
    big = HodgeBigrading.hodge_tate(space)
    assert is_hodge_tate(big) and big.validate() == []
    with pytest.raises(InputError):
        HodgeBigrading.hodge_tate(space, {0: 0, 2: 3})


# --- sub-Hodge structures ---------------------------------------------------

def test_rational_line_in_weight_one_structure_is_not_shs():
    space = GradedSpace({0: 2})
    big = weight_one_bigrading(space, 0)
    assert not is_shs(Subspace.span([[1, 0]], 2), big, 0)
    assert is_shs(Subspace.full(2), big, 0)
    assert is_shs(Subspace.zero(2), big, 0)


def test_every_subspace_of_hodge_tate_is_shs():
    space = GradedSpace({0: 3})
    big = HodgeBigrading.hodge_tate(space)
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Rat(rng.randint(-3, 3)) for _ in range(3)]
                for _ in range(rng.randint(0, 3))]
        assert is_shs(Subspace.span(rows, 3), big, 0)


def test_checks_refuse_pieces_that_are_not_a_basis():
    # one (1,0) piece without its (0,1) partner: the pieces do not span
    space = GradedSpace({0: 2})
    big = HodgeBigrading(space, {0: 1}, {(0, 1, 0): Subspace.span([[1, I]], 2, FIELD_QI)})
    assert big.validate() and big.decomposition(0).ops is None
    for sub in (Subspace.zero(2), Subspace.span([[1, 0]], 2), Subspace.full(2)):
        with pytest.raises(PreconditionFailure, match="degree 0: pieces are not a basis"):
            is_shs(sub, big, 0)
    ident = GradedMap(0, {0: Matrix.identity(2)}, space)
    with pytest.raises(PreconditionFailure, match="degree 0"):
        is_hs_map(ident, 0, big, weight_one_bigrading(space, 0))


def test_hs_map_examples():
    space = GradedSpace({0: 2})
    big = weight_one_bigrading(space, 0)
    ident = GradedMap(0, {0: Matrix.identity(2)}, space)
    assert is_hs_map(ident, 0, big, big)
    # reflection sends (1, i) to (1, −i): swaps the two pieces
    refl = GradedMap(0, {0: frac_matrix([[1, 0], [0, -1]])}, space)
    assert not is_hs_map(refl, 0, big, big)
    # but it IS a map to the conjugated structure
    assert is_hs_map(refl, 0, big, conjugated(big))


# --- the retraction splitting criterion -------------------------------------

def test_retraction_criterion_identity():
    space = GradedSpace({0: 2})
    big = weight_one_bigrading(space, 0)
    ident = Matrix.identity(2)
    verdict = retraction_criterion(ident, ident, big, big)
    assert verdict.conclusion_holds


def test_retraction_criterion_rejects_non_retraction():
    space = GradedSpace({0: 2})
    big = weight_one_bigrading(space, 0)
    with pytest.raises(HypothesisFailure, match="identity"):
        retraction_criterion(Matrix.zero(2, 2), Matrix.identity(2), big, big)


def test_retraction_criterion_conjugated_target_breaks_p_hypothesis():
    # the identity between a structure and its conjugate: every map-level
    # hypothesis shape is present but p fails to respect the pieces
    space = GradedSpace({0: 2})
    big = weight_one_bigrading(space, 0)
    ident = Matrix.identity(2)
    with pytest.raises(HypothesisFailure, match="map of Hodge structures"):
        retraction_criterion(ident, ident, big, conjugated(big))


def test_retraction_criterion_non_shs_image():
    # g embeds a Hodge–Tate line along a direction mixing the (0,0) piece
    # with a weight-0 pair of off-diagonal pieces; the retraction p kills
    # the off-diagonal pieces, so only the image hypothesis fails
    src = GradedSpace({0: 1})
    dst = GradedSpace({0: 3})
    a = HodgeBigrading.hodge_tate(src, {0: 0})
    b = HodgeBigrading(dst, {0: 0}, {
        (0, 0, 0): Subspace.span([[1, 0, 0]], 3, FIELD_QI),
        (0, 1, -1): Subspace.span([[0, 1, I]], 3, FIELD_QI),
        (0, -1, 1): Subspace.span([[0, 1, -I]], 3, FIELD_QI),
    })
    assert b.validate() == []
    g = frac_matrix([[1], [1], [0]])
    p = frac_matrix([[1, 0, 0]])
    with pytest.raises(HypothesisFailure, match="sub-Hodge structure"):
        retraction_criterion(g, p, a, b, 0, 0)


def _pair_structure(vectors):
    """Weight-1 bigrading on Q^{2k} whose (1,0) piece is spanned by
    v_{2j} + i·v_{2j+1} for each consecutive pair of the given basis."""
    n = len(vectors)
    rows10 = []
    rows01 = []
    for j in range(0, n, 2):
        v, w = vectors[j], vectors[j + 1]
        rows10.append([Gaussian(a, 0) + I * Gaussian(b, 0) for a, b in zip(v, w)])
        rows01.append([Gaussian(a, 0) - I * Gaussian(b, 0) for a, b in zip(v, w)])
    space = GradedSpace({0: n})
    return HodgeBigrading(space, {0: 1}, {
        (0, 1, 0): Subspace.span(rows10, n, FIELD_QI),
        (0, 0, 1): Subspace.span(rows01, n, FIELD_QI),
    })


def test_retraction_criterion_on_seeded_pair_structures():
    """200 seeded instances where all hypotheses hold by construction:
    the conclusion must hold every time (an EngineDefect otherwise)."""
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.choice((2, 3))
        n = 2 * k
        u = random_unimodular(rng, n)
        basis = [list(row) for row in u.data]          # rows = basis of Q^n
        b_big = _pair_structure(basis)
        assert b_big.validate() == []
        m = rng.randint(1, k - 1)
        chosen = sorted(rng.sample(range(k), m))
        picked = [basis[2 * j + s] for j in chosen for s in (0, 1)]
        a_big = _pair_structure(
            [[Rat(1 if c == t else 0) for c in range(2 * m)]
             for t in range(2 * m)])
        # g: column t is the t-th picked basis vector
        g = Matrix.from_rows(
            [[picked[t][r] for t in range(2 * m)] for r in range(n)], 2 * m)
        # p: the matching coordinate rows of the dual basis
        u_cols = Matrix.from_rows([list(r) for r in u.data], n).transpose()
        dual = u_cols.inverse()
        keep = [2 * j + s for j in chosen for s in (0, 1)]
        p = Matrix.from_rows([list(dual.data[r]) for r in keep], n)
        verdict = retraction_criterion(g, p, a_big, b_big)
        assert verdict.conclusion_holds


# --- verifying computed splittings ------------------------------------------

def test_quadric_cone_splitting_is_hodge_compatible():
    inst = quadric_cone(2).instance
    assert inst.hodge is not None
    result = compute_splitting(inst)
    report = verify_hodge_splitting(inst, result)
    assert report.passed and len(report.checks) > 0


def test_hodge_and_duality_checks_do_no_gaussian_arithmetic():
    """ℚ(i) values stay integer rows of the realification inside the
    engine: on the split model tensored with a weight-one H¹, whose odd
    degrees hold conjugate pairs of pieces, the Hodge and duality checks
    multiply, add and divide no ``Gaussian``."""
    inst = weight_one_tensor()
    result = compute_splitting(inst)
    profile = cProfile.Profile()
    profile.enable()
    try:
        report = verify_hodge_splitting(inst, result)
        duality = duality_hs_check(inst, inst.pairing, inst.hodge)
    finally:
        profile.disable()
    assert report.passed and duality.passed
    assert not is_hodge_tate(inst.hodge)
    # some degree was decided by a pair of operators R_pq, J_pq
    assert any(len(ops) == 2 for d in inst.space.degrees
               for ops in inst.hodge.decomposition(d).ops.values())
    calls = {key[:3]: stat[1] for key, stat in pstats.Stats(profile).stats.items()}
    for name in ("__mul__", "__add__", "__truediv__"):
        code = getattr(Gaussian, name).__code__
        assert calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0) == 0, name


def test_verification_requires_bigrading():
    inst, _ = build_split_model(StringSpec(((1, 2, 1),)))
    result = compute_splitting(inst)
    with pytest.raises(PreconditionFailure, match="no Hodge bigrading"):
        verify_hodge_splitting(inst, result)


def test_verification_rejects_non_shs_filtration_step():
    inst, _ = build_split_model(StringSpec(((1, 2, 1), (0, 2, 1), (0, 4, 1))))
    result = compute_splitting(inst)
    pieces = {}
    for d in inst.space.degrees:
        for key, sub in weight_one_bigrading(inst.space, d).pieces.items():
            pieces[key] = sub
    bad = HodgeBigrading(inst.space, {d: 1 for d in inst.space.degrees}, pieces)
    dressed = PerverseLefschetzInstance(center=inst.center, space=inst.space,
                                        filtration=inst.filtration,
                                        eta=inst.eta, hodge=bad)
    with pytest.raises(PreconditionFailure, match="not a SHS"):
        verify_hodge_splitting(dressed, result)


# --- group invariants -------------------------------------------------------

def test_trivial_group_fixes_everything():
    space = GradedSpace({0: 2})
    big = HodgeBigrading.hodge_tate(space)
    fixed, verdict = group_invariants([], space, big)
    assert fixed[0] == Subspace.full(2) and verdict is True


def test_swap_involution_fixes_diagonal():
    space = GradedSpace({0: 2})
    swap = GradedMap(0, {0: frac_matrix([[0, 1], [1, 0]])}, space)
    big = HodgeBigrading.hodge_tate(space)
    fixed, verdict = group_invariants([swap], space, big)
    assert fixed[0] == Subspace.span([[1, 1]], 2)
    assert verdict is True


def test_negation_fixes_nothing():
    space = GradedSpace({0: 2})
    neg = GradedMap(0, {0: frac_matrix([[-1, 0], [0, -1]])}, space)
    fixed, verdict = group_invariants([neg], space, HodgeBigrading.hodge_tate(space))
    assert fixed[0].is_zero() and verdict is True


def test_non_hodge_generator_gives_no_verdict():
    space = GradedSpace({0: 2})
    refl = GradedMap(0, {0: frac_matrix([[1, 0], [0, -1]])}, space)
    fixed, verdict = group_invariants([refl], space, weight_one_bigrading(space, 0))
    assert fixed[0] == Subspace.span([[1, 0]], 2)
    assert verdict is None


def test_infinite_group_exceeds_closure_bound():
    space = GradedSpace({0: 2})
    shear = GradedMap(0, {0: frac_matrix([[1, 1], [0, 1]])}, space)
    with pytest.raises(GroupClosureBoundExceeded):
        group_invariants([shear], space, closure_bound=50)


# --- the operators against the per-piece oracle ------------------------------
#
# A random degree: weight w, conjugate pairs (p, w−p) + (w−p, p) of k0 and k1
# complex dimensions for p = 0, 1, and a (w/2, w/2) piece of dimension m.  In
# base coordinates a pair sits on coordinates (c, c+1) as (1, i) and (1, −i),
# and the (p, p) piece on unit vectors; a unimodular g then moves everything
# out of coordinate position.  A mutation breaks validity on purpose.

MUTATIONS = (None, "dependent", "missing", "unconjugated")


def _layout(w, k0, k1, m):
    """[(type, complex dim)] of one degree, zero dims dropped."""
    blocks = [((p, w - p), k) for p, k in ((0, k0), (1, k1)) if p < w - p]
    if w % 2 == 0:
        blocks.append(((w // 2, w // 2), m))
    return [(pq, k) for pq, k in blocks if k]


def _base_pieces(blocks, relabel=lambda pq: pq):
    """{type: rows} in base coordinates, and the coordinate blocks."""
    n = sum(2 * k if p != q else k for (p, q), k in blocks)
    unit = [[Gaussian(1 if j == c else 0) for j in range(n)] for c in range(n)]
    pieces, coords, c = {}, [], 0
    for (p, q), k in blocks:
        if p == q:
            pieces[relabel((p, q))] = [unit[c + j] for j in range(k)]
            coords.append(list(range(c, c + k)))
            c += k
            continue
        plus = [[a + I * b for a, b in zip(unit[c + 2 * j], unit[c + 2 * j + 1])] for j in range(k)]
        minus = [[a - I * b for a, b in zip(unit[c + 2 * j], unit[c + 2 * j + 1])] for j in range(k)]
        pieces[relabel((p, q))], pieces[relabel((q, p))] = plus, minus
        coords.extend([c + 2 * j, c + 2 * j + 1] for j in range(k))
        c += 2 * k
    return n, pieces, coords


def _mutate(pieces, mutation):
    keys = list(pieces)
    if mutation == "dependent" and len(keys) > 1:
        pieces[keys[0]] = pieces[keys[0]] + pieces[keys[1]][:1]
    elif mutation == "missing" and keys:
        del pieces[keys[-1]]
    elif mutation == "unconjugated":
        pair = next(((p, q) for p, q in keys if p > q), None)
        if pair is not None:
            row = pieces[pair][0]
            pieces[pair] = [[x.re + 2 * I * x.im for x in row]] + pieces[pair][1:]
    return pieces


def _bigrading(d, w, n, pieces, g):
    space = GradedSpace({d: n})
    gt = g.complexify().transpose()
    return HodgeBigrading(space, {d: w}, {
        (d, p, q): Subspace(n, Matrix(len(rows), n, rows, FIELD_QI) @ gt)
        for (p, q), rows in pieces.items()})


def _random_rows(rng, count, n):
    return [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(count)]


def _base_change(rng, n):
    return random_unimodular(rng, n) if n else Matrix.identity(0)


LAYOUTS = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(LAYOUTS, st.sampled_from(MUTATIONS), st.integers(0, 1), st.integers(0, 2 ** 16))
@example((0, 0, 0, 0), None, 0, 0)                 # a 0-dim degree
@example((2, 0, 0, 2), None, 0, 1)                 # one full (1,1) piece
@example((2, 0, 0, 2), None, 1, 2)                 # one full piece, a = 1
@example((3, 1, 1, 0), None, 1, 3)                 # two conjugate pairs, a = 1
@example((2, 1, 0, 1), "dependent", 0, 4)          # validate: not independent
@example((2, 1, 0, 1), "missing", 0, 5)            # validate: no span, no partner
@example((1, 2, 0, 0), "unconjugated", 0, 6)       # validate: conj is not the partner
def test_operators_match_the_per_piece_checks(layout, mutation, a, seed):
    rng = random.Random(seed)
    n, pieces, coords = _base_pieces(_layout(*layout))
    pieces = _mutate(pieces, mutation)
    g = _base_change(rng, n)
    big = _bigrading(0, layout[0], n, pieces, g)
    errors = big.validate()
    assert errors == oracle_validate(big)
    # the operators exist, all rational, exactly when the degree is valid
    ops = big.decomposition(0).ops
    assert (ops is None) == bool(errors)
    assert all(op.field == FIELD_Q for pair in (ops or {}).values() for op in pair)
    if mutation == "dependent" and len(pieces) > 1:
        assert "degree 0: pieces not independent" in errors

    def agrees(check, oracle, *args):
        if errors:
            with pytest.raises(PreconditionFailure, match="degree 0"):
                check(*args)
        else:
            assert check(*args) == oracle(*args)

    # sub-Hodge structures: random subspaces, and spans of coordinate blocks
    for _ in range(4):
        rows = _random_rows(rng, rng.randint(0, n + 1), n)
        if coords and rng.random() < 0.5:
            chosen = [c for block in coords if rng.random() < 0.5 for c in block]
            rows = [[Rat(1 if j == c else 0) for j in range(n)] for c in chosen]
            rows = [list(r) for r in (Matrix(len(rows), n, rows) @ g.transpose()).data] \
                if rows else []
        sub = Subspace.span(rows, n)
        agrees(is_shs, oracle_is_shs, sub, big, 0)
    # morphisms of type (a, a) onto the same pieces with types shifted, made
    # of complex scalars on each pair and any map on the (p, p) coordinates
    shifted = {(p + a, q + a): rows for (p, q), rows in pieces.items()}
    g2 = _base_change(rng, n)
    dst = _bigrading(0, layout[0] + 2 * a, n, shifted, g2)
    base = [[Rat(0)] * n for _ in range(n)]
    for block in coords:
        if len(block) == 2:
            x, y = Rat(rng.randint(-2, 2)), Rat(rng.randint(-2, 2))
            (c, c2) = block
            base[c][c], base[c][c2], base[c2][c], base[c2][c2] = x, -y, y, x
        else:
            for c in block:
                for c2 in block:
                    base[c][c2] = Rat(rng.randint(-2, 2))
    f = g2 @ Matrix(n, n, base) @ g.inverse() if n else Matrix.zero(0, 0)
    if n and rng.random() < 0.4:
        f = f + Matrix(n, n, _random_rows(rng, n, n))
    fmap = GradedMap(0, {0: f}, big.space)
    agrees(is_hs_map, oracle_is_hs_map, fmap, a, big, dst)
    agrees(is_hs_map, oracle_is_hs_map, fmap, a, big, big)


def _dual_relabel(n, mutation):
    """Labels of the pieces of degree 2n − d, which sit on the same base
    coordinates as those of degree d.  The identity pairing couples (1, i)
    with (1, −i) and not with itself, so the partner (n−p, n−q) of the piece
    (p, q) on (1, i) sits on (1, −i), and the piece on (1, i) is (n−q, n−p).
    "swap" gives it the type (n−p, n−q) instead."""
    def relabel(pq):
        p, q = pq
        return (n - p, n - q) if mutation == "swap" else (n - q, n - p)
    return relabel


@settings(max_examples=200, deadline=None)
@given(LAYOUTS, st.sampled_from((None, "swap", "retype", "drop")), st.booleans(),
       st.integers(0, 2 ** 16))
@example((0, 0, 0, 0), None, False, 0)             # 0-dim degrees
@example((2, 0, 0, 2), None, False, 1)             # one full (p, p) piece per degree
@example((2, 0, 0, 2), "retype", False, 2)         # (1,1) has no dual partner
@example((3, 1, 1, 0), "swap", False, 3)           # a pair pairs with the wrong type
@example((2, 1, 0, 1), "drop", False, 4)           # dual pieces are not a basis
@example((1, 1, 0, 0), None, True, 5)              # a perturbed pairing
def test_pairing_operators_match_the_per_piece_search(layout, mutation, perturb, seed):
    rng = random.Random(seed)
    center, d, dual_d = 2, 1, 3
    blocks = _layout(*layout)
    n, pieces, _ = _base_pieces(blocks)
    _, dual_pieces, _ = _base_pieces(blocks, _dual_relabel(center, mutation))
    c = center - layout[0] // 2
    if mutation == "retype" and (c, c) in dual_pieces and len(dual_pieces[(c, c)]) >= 2:
        first, second, *rest = dual_pieces.pop((c, c))
        dual_pieces[(c - 1, c + 1)] = [[x + I * y for x, y in zip(first, second)]]
        dual_pieces[(c + 1, c - 1)] = [[x - I * y for x, y in zip(first, second)]]
        if rest:
            dual_pieces[(c, c)] = rest
    if mutation == "drop" and dual_pieces:
        del dual_pieces[max(dual_pieces)]
    g, g2 = _base_change(rng, n), _base_change(rng, n)
    left = _bigrading(d, layout[0], n, pieces, g)
    right = _bigrading(dual_d, 2 * center - layout[0], n, dual_pieces, g2)
    space = GradedSpace({d: n, dual_d: n})
    big = HodgeBigrading(space, {d: layout[0], dual_d: 2 * center - layout[0]},
                         {**left.pieces, **right.pieces})
    q0 = Matrix.identity(n)
    if perturb and n:
        q0 = q0 + Matrix(n, n, _random_rows(rng, n, n))
    # Q(g·u, g2·v) = Q0(u, v)
    block = g.inverse().transpose() @ q0 @ g2.inverse() if n else Matrix.zero(0, 0)
    pairing = IntersectionPairing(center, space, {d: block, dual_d: block.transpose()})
    inst = PerverseLefschetzInstance(
        center=center, space=space, eta=GradedMap(2, {}, space),
        filtration=Filtration(space, {(e, 0): Subspace.full(n) for e in (d, dual_d)}))
    if not pairing.is_nondegenerate():
        with pytest.raises(PreconditionFailure, match="degenerate"):
            duality_hs_check(inst, pairing, big)
        return
    report = duality_hs_check(inst, pairing, big)
    expected = oracle_mixed_pair(space, pairing, big)
    assert (report.passed, report.failure) == (expected is None, expected)
    if mutation is None and not perturb:
        assert report.passed
