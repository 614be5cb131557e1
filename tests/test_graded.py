import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from persplit.corpus import (GeneratorProfile, quadric_cone, random_instance,
                             split_model_pairing)
from persplit.errors import InputError, VerificationFailure
from persplit.graded import (Filtration, GradedMap, GradedSpace, _power_ladder,
                             check_strict_compatibility, graded_pieces,
                             nilpotency_order, validate_filtration,
                             weight_filtration)
from persplit.instance import PerverseLefschetzInstance
from persplit.lefschetz import StringSpec, build_split_model, string_cells
from persplit.linalg import Matrix, Subspace, kernel, preimage
from persplit.scalars import FIELD_Q, FIELD_QI, Gaussian, Rat

from oracle_helpers import (enumerate_axiom_filtrations, frac_matrix,
                            random_nilpotent, random_unimodular,
                            small_subspace_lattice, weight_axioms_hold)
from test_backend import SMALL_Q
from weight_oracle import oracle_weight_filtration


def trivial_instance(dims):
    space = GradedSpace(dims)
    steps = {(d, 0): Subspace.full(n) for d, n in dims.items()}
    return space, Filtration(space, steps)


# --- filtration validation -------------------------------------------------

def test_trivial_filtration_valid_amplitude_zero():
    _, filtr = trivial_instance({0: 2, 2: 1})
    report = validate_filtration(filtr)
    assert report.valid and report.amplitude == 0
    assert report.graded_dims == {(0, 0): 2, (2, 0): 1}


def test_quadric_cone_amplitude_and_jumps():
    inst = quadric_cone(1).instance
    report = inst.filtration_report
    assert report.valid and report.amplitude == 1
    assert sorted({i for (_, i) in report.graded_dims}) == [-1, 0, 1]


def test_non_monotone_filtration_reported():
    space = GradedSpace({0: 2})
    filtr = Filtration(space, {(0, 0): Subspace.span([[1, 0]], 2),
                               (0, 1): Subspace.span([[0, 1]], 2)})
    report = validate_filtration(filtr)
    assert not report.valid
    assert any("non-monotone" in e for e in report.errors)


def test_non_exhaustive_filtration_reported():
    space = GradedSpace({0: 2})
    filtr = Filtration(space, {(0, 0): Subspace.span([[1, 0]], 2)})
    report = validate_filtration(filtr)
    assert not report.valid and any("exhaustive" in e for e in report.errors)


# --- strict compatibility --------------------------------------------------

def test_zero_operator_is_compatible():
    space, filtr = trivial_instance({0: 2, 2: 2})
    eta = GradedMap(2, {}, space)
    ok, witness = check_strict_compatibility(filtr, eta)
    assert ok and witness is None


def test_quadric_cone_operator_compatible():
    inst = quadric_cone(1).instance
    ok, _ = check_strict_compatibility(inst.filtration, inst.eta)
    assert ok


def test_broken_quadric_filtration_yields_witness():
    # Push the top-degree jump too high: the operator image of the
    # middle step then escapes the (now zero) allowed step below it.
    inst = quadric_cone(1).instance
    steps = dict(inst.filtration.steps)
    del steps[(6, 0)]
    steps[(6, 3)] = Subspace.full(1)
    broken = Filtration(inst.space, steps)
    ok, witness = check_strict_compatibility(broken, inst.eta)
    assert not ok
    d, i, vec = witness
    assert (d, i) == (4, 0) and any(vec)


def test_strict_compatibility_witness_in_a_non_coordinate_basis():
    # W_{≤0}V^0 has RREF rows (1, 0, −2), (0, 1, 2); W_{≤2}V^2 holds η of
    # the first row but not of the second, which is the witness.
    space = GradedSpace({0: 3, 2: 3})
    eta = GradedMap(2, {0: frac_matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])}, space)
    filtr = Filtration(space, {(0, 0): Subspace.span([[1, 1, 0], [0, 1, 2]], 3),
                               (0, 1): Subspace.full(3),
                               (2, 2): Subspace.span([[1, -2, -1], [1, 1, 1]], 3),
                               (2, 3): Subspace.full(3)})
    ok, witness = check_strict_compatibility(filtr, eta)
    assert not ok and witness == (0, 0, (Rat(0), Rat(1), Rat(2)))
    with pytest.raises(VerificationFailure) as exc:
        graded_pieces(filtr, eta)
    assert str(exc.value) == ("operator not compatible with filtration at (d=0, i=0); "
                              "witness (Fraction(0, 1), Fraction(1, 1), Fraction(2, 1))")


def base_changed_split_model(spec, seed, paired=False):
    """The split model of ``spec`` moved by a seeded unimodular g_d in
    every degree: steps g·W, operator g·η·g⁻¹ and, when ``paired``, the
    string pairing transported by g⁻¹ (the strings must be centred)."""
    spec = StringSpec(spec)
    inst, _ = build_split_model(spec)
    rng = random.Random(seed)
    g = {d: random_unimodular(rng, inst.space.dim(d)) for d in inst.space.degrees}
    filtr = Filtration(inst.space, {(d, i): Subspace(sub.ambient_dim, sub.basis @ g[d].transpose())
                                    for (d, i), sub in inst.filtration.steps.items()})
    blocks = {d: g[d + 2] @ blk @ g[d].inverse() for d, blk in inst.eta.blocks.items()}
    pairing = None
    if paired:
        g_inv = GradedMap(0, {d: m.inverse() for d, m in g.items()}, inst.space)
        pairing = split_model_pairing(inst, string_cells(spec)[1]).transport(g_inv)
    return PerverseLefschetzInstance(center=inst.center, space=inst.space, filtration=filtr,
                                     eta=GradedMap(2, blocks, inst.space), pairing=pairing)


def test_strict_compatibility_witness_after_a_base_change():
    # A seeded unimodular base change g of a split model moves W_{≤−2}V^0 to
    # the RREF rows (1, 0, 1), (0, 1, 1) and W_{≤0}V^2 to (1, 0, −1),
    # (0, 1, 0).  Bending gηg⁻¹ on V^0 by x·f, with x = (0, 0, 1) outside
    # W_{≤0}V^2 and f = (0, 1, 0) zero on the first row only, moves the
    # second row's image out of W_{≤0}V^2: the witness is that row.
    inst = base_changed_split_model(((2, 0, 2), (1, 0, 1)), 4)
    filtr = inst.filtration
    assert filtr.at(0, -2) == Subspace.span([[1, 0, 1], [0, 1, 1]], 3)
    assert filtr.at(2, 0) == Subspace.span([[1, 0, -1], [0, 1, 0]], 3)
    assert check_strict_compatibility(filtr, inst.eta) == (True, None)
    blocks = dict(inst.eta.blocks)
    blocks[0] = blocks[0] + frac_matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    eta = GradedMap(2, blocks, inst.space)
    ok, witness = check_strict_compatibility(filtr, eta)
    assert not ok and witness == (0, -2, (Rat(0), Rat(1), Rat(1)))
    with pytest.raises(VerificationFailure) as exc:
        graded_pieces(filtr, eta)
    assert str(exc.value) == ("operator not compatible with filtration at (d=0, i=-2); "
                              "witness (Fraction(0, 1), Fraction(1, 1), Fraction(1, 1))")


# --- graded pieces ---------------------------------------------------------

def test_quadric_cone_graded_dimensions():
    inst = quadric_cone(1).instance
    gp = inst.pieces
    assert gp.dim(2, -1) == 1
    assert gp.dim(2, 0) == 2
    assert gp.dim(4, 0) == 2
    assert gp.dim(4, 1) == 1


def test_trivial_filtration_pieces_recover_space():
    space, filtr = trivial_instance({0: 2})
    eta = GradedMap(2, {}, space)
    gp = graded_pieces(filtr, eta)
    assert gp.dim(0, 0) == 2
    # the quotient by the zero step is the identity chart
    q = gp.quotient(0, 0)
    assert tuple(q.projection.apply([3, -4])) == (3, -4)


def test_induced_block_lives_two_steps_up():
    # e raises the filtration index by exactly 2: a source at index -1
    # maps into index +1 of the next degree, as on the built-in example.
    inst = quadric_cone(1).instance
    gp = inst.pieces
    block = gp.e_power_block(2, -1, 1)
    assert (block.rows, block.cols) == (1, 1)
    assert block.data[0][0] != 0


def test_graded_dimension_bookkeeping_on_seeds():
    for seed in range(200):
        inst = random_instance(seed).instance
        report = inst.filtration_report
        for d in inst.space.degrees:
            total = sum(n for (dd, _), n in report.graded_dims.items() if dd == d)
            assert total == inst.space.dim(d)


def test_quotient_commutes_with_induced_operator():
    inst = quadric_cone(2).instance
    gp = inst.pieces
    for (d, i) in gp.slots:
        q = gp.quotient(d, i)
        tgt = gp.quotient(d + 2, i + 2)
        if tgt is None:
            continue
        block = gp.e_power_block(d, i, 1)
        for rep in q.section.data:
            via_quotient = block.apply(q.projection.apply(rep))
            via_operator = tgt.projection.apply(inst.eta.block(d).apply(rep))
            assert tuple(via_quotient) == tuple(via_operator)


# --- cached operator powers and preimage cuts -------------------------------

def naive_power_block(eta, d, s):
    out = Matrix.identity(eta.source.dim(d))
    for k in range(s):
        out = eta.block(d + 2 * k) @ out
    return out


def one_step_block(gp, d, i):
    """The induced block Gr_i V^d → Gr_{i+2} V^{d+2}: projection · η_d · sectionᵀ."""
    src, tgt = gp.quotient(d, i), gp.quotient(d + 2, i + 2)
    if src is None or tgt is None:
        return Matrix.zero(gp.dim(d + 2, i + 2), gp.dim(d, i))
    return tgt.projection @ gp.eta.block(d) @ src.section.transpose()


def naive_e_power_block(gp, d, i, s):
    """The composite of s one-step induced blocks, which must equal the
    induced block of η^s."""
    out = Matrix.identity(gp.dim(d, i))
    for k in range(s):
        out = one_step_block(gp, d + 2 * k, i + 2 * k) @ out
    return out


def gapped_instance():
    """Degrees 0, 2 and 6 with V^4 = 0, one operator block (0 → 2), so
    the blocks at 2 and 4 are missing and powers run through a zero
    space."""
    space = GradedSpace({0: 2, 2: 1, 6: 1})
    filtr = Filtration(space, {(0, -1): Subspace.span([[1, 0]], 2),
                               (0, 0): Subspace.full(2),
                               (2, 1): Subspace.full(1), (6, 0): Subspace.full(1)})
    eta = GradedMap(2, {0: frac_matrix([[0, 1]])}, space)
    return PerverseLefschetzInstance(center=3, space=space, filtration=filtr, eta=eta)


def power_cases():
    yield gapped_instance()
    yield quadric_cone(1).instance
    yield base_changed_split_model(((3, 0, 1), (2, 0, 1), (1, 2, 2)), 7)
    for seed in range(6):
        yield random_instance(seed).instance    # twisted split models


def test_power_block_matches_naive_product():
    for inst in power_cases():
        degs = inst.space.degrees
        r = inst.amplitude
        for d in range(degs[0] - 2, degs[-1] + 3):   # includes dimension-0 degrees
            for s in range(r + 2):
                assert inst.eta.power_block(d, s) == naive_power_block(inst.eta, d, s), (d, s)


def test_power_block_zero_power_and_missing_blocks():
    eta = gapped_instance().eta
    assert eta.power_block(0, 0) == Matrix.identity(2)
    assert eta.power_block(4, 0) == Matrix.identity(0)
    assert eta.power_block(0, 1) == frac_matrix([[0, 1]])
    assert eta.power_block(0, 2) == Matrix.zero(0, 2)    # V^4 = 0
    assert eta.power_block(0, 3) == Matrix.zero(1, 2)    # through V^4 into V^6
    assert eta.power_block(2, 1) == Matrix.zero(0, 1)


def test_power_block_is_cached():
    inst = quadric_cone(2).instance
    first = inst.eta.power_block(0, 2)
    assert inst.eta.power_block(0, 2) is first
    assert inst.eta.power_block(0, 0) is inst.eta.power_block(0, 0)


def test_e_power_block_matches_naive_product():
    for inst in power_cases():
        gp = inst.pieces
        r = inst.amplitude
        starts = set(gp.slots) | {(d, i - 1) for (d, i) in gp.slots}   # plus empty pieces
        for (d, i) in sorted(starts):
            for s in range(r + 2):
                assert gp.e_power_block(d, i, s) == naive_e_power_block(gp, d, i, s), (d, i, s)


def test_e_power_block_is_cached():
    gp = quadric_cone(1).instance.pieces
    first = gp.e_power_block(2, -1, 1)
    assert gp.e_power_block(2, -1, 1) is first
    assert gp.e_power_block(0, -1, 2) is gp.e_power_block(0, -1, 2)


def test_cut_is_preimage_of_filtration_step():
    for inst in power_cases():
        r = inst.amplitude
        for d in inst.space.degrees:
            for s in range(r + 2):
                for level in range(-r - 1, r + 2):
                    target = inst.filtration.at(d + 2 * s, level)
                    want = preimage(inst.eta.power_block(d, s), target)
                    rows = inst.cut_rows(d, s, level)
                    assert kernel(rows) == want, (d, s, level)
                    assert inst.cut_rows(d, s, level) is rows


# --- monodromy weight filtration ------------------------------------------

def test_weight_filtration_zero_operator():
    steps = weight_filtration(Matrix.zero(3, 3))
    assert steps[-1] == Subspace.zero(3)
    assert steps[0] == Subspace.full(3)


def test_weight_filtration_jordan_two():
    n = frac_matrix([[0, 1], [0, 0]])
    steps = weight_filtration(n)
    im = Subspace.span([[1, 0]], 2)
    assert steps[-2] == Subspace.zero(2)
    assert steps[-1] == im and steps[0] == im
    assert steps[1] == Subspace.full(2)


def test_weight_filtration_jordan_three_one():
    n = frac_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    steps = weight_filtration(n)
    dims = []
    prev = 0
    for i in (-2, -1, 0, 1, 2):
        cur = steps[i].dim
        dims.append(cur - prev)
        prev = cur
    assert dims == [1, 0, 2, 0, 1]


def test_weight_filtration_rejects_non_nilpotent():
    with pytest.raises(InputError):
        weight_filtration(Matrix.identity(2))
    assert nilpotency_order(Matrix.identity(2)) is None


def test_weight_filtration_satisfies_axioms_dim_le_3_exhaustive():
    """Every nilpotent 3×3 matrix with entries in {−1,0,1}."""
    checked = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        m = Matrix.from_rows([[Rat(x) for x in entries[k:k + 3]]
                              for k in (0, 3, 6)], 3)
        if nilpotency_order(m) is None:
            continue
        steps = weight_filtration(m)
        assert weight_axioms_hold(m, steps), entries
        checked += 1
    assert checked > 100  # the nilpotent stratum is not tiny


def test_weight_filtration_centered_shift():
    n = frac_matrix([[0, 1], [0, 0]])
    centered = weight_filtration(n, center=5)
    plain = weight_filtration(n, center=0)
    assert centered == {i + 5: sub for i, sub in plain.items()}


def test_weight_filtration_equivariance():
    rng = random.Random(3)
    from oracle_helpers import random_unimodular
    from persplit.linalg import image_of
    for _ in range(20):
        n = random_nilpotent(rng, 4)
        u = random_unimodular(rng, 4)
        conj = u @ n @ u.inverse()
        left = weight_filtration(conj)
        right = {i: image_of(u, sub) for i, sub in weight_filtration(n).items()}
        assert left == right


def test_weight_filtration_uniqueness_exhaustive_small():
    """For each nilpotent conjugacy type of size ≤ 3, the finite
    {−1,0,1}-span lattice contains exactly one axiom-satisfying chain."""
    reps = {
        1: [frac_matrix([[0]])],
        2: [Matrix.zero(2, 2), frac_matrix([[0, 1], [0, 0]])],
        3: [Matrix.zero(3, 3),
            frac_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
            frac_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
    }
    for dim, mats in reps.items():
        lattice = small_subspace_lattice(dim)
        for n in mats:
            order = nilpotency_order(n)
            top = max(order - 1, 0)
            index_range = list(range(-top - 1, top + 1))
            found = enumerate_axiom_filtrations(n, lattice, index_range)
            assert len(found) == 1
            computed = weight_filtration(n)
            ours = {i: computed[i] for i in index_range}
            assert found[0] == ours


# --- Deligne's recursion against the convolution oracle ----------------------

def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def jordan_nilpotent(parts, field=FIELD_Q):
    """Nilpotent Jordan form with blocks of the given sizes."""
    n = sum(parts)
    block_starts = {sum(parts[:k]) for k in range(len(parts))}
    return Matrix(n, n, [[1 if j == i + 1 and j not in block_starts else 0 for j in range(n)]
                         for i in range(n)], field)


def shears_matrix(n, shears, field=FIELD_Q):
    """Product of the elementary matrices I + c·E_{rc}: unimodular."""
    u = Matrix.identity(n, field)
    for r, col, c in shears:
        if r != col:
            u = Matrix(n, n, [[1 if i == j else c if (i, j) == (r, col) else 0
                               for j in range(n)] for i in range(n)], field) @ u
    return u


def conjugate(n_mat, u):
    return u @ n_mat @ u.inverse()


SMALL_GAUSSIAN_INT = st.builds(Gaussian, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def nilpotent_cases(draw):
    """(N, center): a strictly upper-triangular pattern, a Jordan form of a
    drawn partition type, the zero operator or the 0×0 matrix, over ℚ or
    ℚ(i), conjugated by a drawn unimodular matrix."""
    field = draw(st.sampled_from((FIELD_Q, FIELD_QI)))
    kind = draw(st.sampled_from(("triangular", "jordan", "zero", "empty")))
    n = 0 if kind == "empty" else draw(st.integers(1, 6))
    if kind == "triangular":
        entry = SMALL_Q if field == FIELD_Q else st.builds(Gaussian, SMALL_Q, SMALL_Q)
        n_mat = Matrix(n, n, [[draw(st.one_of(st.just(0), entry)) if j > i else 0
                               for j in range(n)] for i in range(n)], field)
    elif kind == "jordan":
        n_mat = jordan_nilpotent(draw(st.sampled_from(list(partitions(n)))), field)
    else:
        n_mat = Matrix.zero(n, n, field)
    coeff = st.integers(-2, 2) if field == FIELD_Q else SMALL_GAUSSIAN_INT
    index = st.integers(0, max(n - 1, 0))
    shears = draw(st.lists(st.tuples(index, index, coeff), max_size=2 * n))
    return conjugate(n_mat, shears_matrix(n, shears, field)), draw(st.integers(-3, 3))


@settings(max_examples=120, deadline=None)
@given(nilpotent_cases())
@example((Matrix.zero(0, 0), 0))
@example((Matrix.zero(0, 0, FIELD_QI), 4))
@example((Matrix.zero(3, 3), -2))
@example((Matrix.zero(2, 2, FIELD_QI), 1))
@example((jordan_nilpotent((3, 1), FIELD_QI), 0))
def test_recursion_matches_convolution_oracle(case):
    n_mat, center = case
    got = weight_filtration(n_mat, center)
    assert got == oracle_weight_filtration(n_mat, center)
    order = nilpotency_order(n_mat)
    assert sorted(got) == list(range(center - order, center + order))


def test_recursion_matches_oracle_on_every_partition_type_up_to_six():
    rng = random.Random(6)
    for n in range(1, 7):
        for parts in partitions(n):
            for field in (FIELD_Q, FIELD_QI):
                shears = [(rng.randrange(n), rng.randrange(n), rng.randint(-2, 2))
                          for _ in range(2 * n)]
                u = shears_matrix(n, shears, field)
                for n_mat in (jordan_nilpotent(parts, field),
                              conjugate(jordan_nilpotent(parts, field), u)):
                    for center in (0, 3):
                        got = weight_filtration(n_mat, center)
                        assert got == oracle_weight_filtration(n_mat, center), (parts, field)
                        # a block of size k has weights k − 1, k − 3, …, 1 − k
                        weights = [k - 1 - 2 * j for k in parts for j in range(k)]
                        assert [got[center + w].dim for w in range(-parts[0], parts[0])] == \
                            [sum(1 for x in weights if x <= w) for w in range(-parts[0], parts[0])]


def test_power_ladder_holds_each_power_once():
    n_mat = jordan_nilpotent((4, 2))
    ladder = _power_ladder(n_mat)
    assert len(ladder) == nilpotency_order(n_mat) == 4
    assert ladder[0] == Matrix.identity(6) and ladder[1] is n_mat
    for k in range(2, 4):
        assert ladder[k] == n_mat @ ladder[k - 1] and not ladder[k].is_zero()
    assert (n_mat @ ladder[-1]).is_zero()
    assert _power_ladder(Matrix.zero(0, 0)) == []
    assert _power_ladder(Matrix.zero(2, 2)) == [Matrix.identity(2)]
    assert _power_ladder(frac_matrix([[0, 1], [1, 0]])) is None
    with pytest.raises(InputError):
        _power_ladder(Matrix.zero(2, 3))


def test_weight_filtration_multiplies_by_n_only_to_build_the_ladder(monkeypatch):
    n_mat = jordan_nilpotent((5, 3, 1))
    left_factors = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        left_factors.append(self)
        return matmul(self, other)
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    weight_filtration(n_mat)
    # N², …, N⁵ once each (N⁵ = 0 ends the ladder); nothing else is N·X
    assert sum(1 for m in left_factors if m is n_mat) == 4
