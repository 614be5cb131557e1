"""Acceptance suite.

Each test emits one pass/fail line per criterion — printed immediately
(visible with ``-s`` or on failure) and repeated after the run via the
terminal-summary hook in ``conftest`` — and then asserts, so a red
criterion is visible both in the printed summary and in the pytest
report.
"""

import itertools
import random
import time
from fractions import Fraction

from persplit import cli
from persplit.corpus import (GeneratorProfile, TRIPLE, canonical_lifts,
                             quadric_cone, random_instance, triple_product)
from persplit.duality import (induced_pairing_on_summand,
                              orthogonal_characterization, projector)
from persplit.errors import EngineDefect, HypothesisFailure
from persplit.fileformat import save
from persplit.hodge import (HodgeBigrading, retraction_criterion, is_shs,
                            verify_hodge_splitting)
from persplit.lefschetz import apply_graded_auto
from persplit.linalg import Matrix, Subspace, kernel
from persplit.scalars import FIELD_QI, Gaussian, Rat
from persplit.splitting import (compute_splitting, direct_characterization,
                                psi_schedule, slot_list)

from oracle_helpers import (random_unimodular, small_subspace_lattice,
                            enumerate_axiom_filtrations, weight_axioms_hold)
from persplit.graded import GradedSpace, nilpotency_order, weight_filtration


def report(number, description, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number}: {description}"
    print(line)
    from conftest import record_acceptance_line
    record_acceptance_line(line)
    assert ok, f"criterion {number}: {description}"


def lift_vectors(m):
    """Closed-form canonical lifts in (D, D1, D2) coordinates."""
    m = Rat(m)
    return {"D1": (Rat(1) / (m + 1), Rat(1), Rat(0)),
            "D2": (m / (m + 1), Rat(0), Rat(1))}


def test_criterion_1_quadric_cone_golden():
    t0 = time.perf_counter()
    ok = True
    for m in (1, 2, 3, 7):
        result = compute_splitting(quadric_cone(m).instance)
        expected = lift_vectors(m)
        want = Subspace.span([list(expected["D1"]), list(expected["D2"])], 3)
        ok = ok and result.embedded[(0, 2)] == want
        ok = ok and canonical_lifts(result) == expected
        ok = ok and result.embedded[(1, 2)] == Subspace.span([[1, 0, 0]], 3)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, "quadric-cone golden lifts for m in {1,2,3,7} "
              f"({elapsed:.3f}s)", ok)


def test_criterion_2_small_resolution_golden():
    result = compute_splitting(quadric_cone(0).instance)
    lifts = canonical_lifts(result)
    ok = lifts["D1"] == (1, 1, 0) and lifts["D2"] == (0, 0, 1)
    report(2, "m = 0 small-resolution lifts D1 + D and D2", ok)


def test_criterion_3_no_naive_splitting():
    ok = True
    for m in (0, 1, 2, 3, 7, Fraction(3, 2)):
        lifts = canonical_lifts(compute_splitting(quadric_cone(m).instance))
        total = tuple(a + b for a, b in zip(lifts["D1"], lifts["D2"]))
        deviation = tuple(t - n for t, n in zip(total, (0, 1, 1)))
        ok = ok and deviation == (1, 0, 0)  # exactly the deep class D
    report(3, "lift sum deviates from the naive sum by exactly D", ok)


def test_criterion_4_kernel_characterization_cross_check():
    ok = True
    for m in (0, 1, 2, 3, 7):
        m = Rat(m)
        # condition row built from the raw cup-product table only
        coeffs = {"D1": m, "D2": Rat(1)}
        row = [sum((c * triple_product(name, "D", label) for name, c in
                    coeffs.items()), Rat(0)) for label in ("D", "D1", "D2")]
        independent = kernel(Matrix.from_rows([row], 3))
        result = compute_splitting(quadric_cone(m).instance)
        ok = ok and independent == result.embedded[(0, 2)]
    report(4, "independent cup-product kernel equals the schedule output", ok)


SUITE_SEEDS = 150
PLAIN = GeneratorProfile()
DRESSED = GeneratorProfile(with_pairing=True, with_hodge=True)


def test_criterion_5_three_path_equality():
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for profile in (PLAIN, DRESSED):
        for seed in range(SUITE_SEEDS):
            inst = random_instance(seed, profile).instance
            for (i, d) in slot_list(inst):
                via_psi, _ = psi_schedule(inst, i, d)
                via_direct = direct_characterization(inst, i, d)
                if via_psi != via_direct:
                    mismatches += 1
                if inst.pairing is not None:
                    if orthogonal_characterization(inst, inst.pairing,
                                                   i, d) != via_psi:
                        mismatches += 1
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and cases >= 300 and elapsed < 60.0
    report(5, f"three-path equality on {cases} seeded models "
              f"({mismatches} mismatches, {elapsed:.1f}s)", ok)


def test_criterion_6_equivariance():
    bad = 0
    cases = 0
    for profile in (PLAIN, DRESSED):
        for seed in range(SUITE_SEEDS):
            ri = random_instance(seed, profile)
            result = compute_splitting(ri.instance)
            want_e = {k: v for k, v in
                      apply_graded_auto(ri.twist, ri.truth.embedded).items()
                      if v.dim}
            want_g = {k: v for k, v in
                      apply_graded_auto(ri.twist, ri.truth.summands).items()
                      if v.dim}
            got_e = {k: v for k, v in result.embedded.items() if v.dim}
            if got_e != want_e or result.summands != want_g:
                bad += 1
            cases += 1
    report(6, f"E and G transform by the twist on {cases} seeded models", ok=(bad == 0))


def test_criterion_7_weight_filtration():
    # ≥ 500 nilpotent matrices of size ≤ 4 with entries in {−1,0,1}:
    # every strictly-upper-triangular pattern (one per conjugation orbit
    # representative), each also re-checked after a sampled conjugation.
    rng = random.Random(1)
    cases = 0
    failures = 0
    for n in (2, 3, 4):
        positions = [(r, c) for r in range(n) for c in range(r + 1, n)]
        for vals in itertools.product((-1, 0, 1), repeat=len(positions)):
            rows = [[Rat(0)] * n for _ in range(n)]
            for (r, c), v in zip(positions, vals):
                rows[r][c] = Rat(v)
            m = Matrix.from_rows(rows, n)
            u = random_unimodular(rng, n, 1)
            for mat in (m, u @ m @ u.inverse()):
                if not weight_axioms_hold(mat, weight_filtration(mat)):
                    failures += 1
            cases += 1
    # exhaustive uniqueness for size ≤ 3: one Jordan representative per
    # conjugacy class, the finite {−1,0,1}-span lattice admits exactly
    # one axiom-satisfying chain and it is the computed one
    reps = {
        1: [[[0]]],
        2: [[[0, 0], [0, 0]], [[0, 1], [0, 0]]],
        3: [[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]]],
    }
    unique = True
    for dim, mats in reps.items():
        lattice = small_subspace_lattice(dim)
        for rows in mats:
            mat = Matrix.from_rows([[Rat(x) for x in r] for r in rows], dim)
            top = max(nilpotency_order(mat) - 1, 0)
            index_range = list(range(-top - 1, top + 1))
            found = enumerate_axiom_filtrations(mat, lattice, index_range)
            computed = weight_filtration(mat)
            unique = unique and len(found) == 1 and \
                found[0] == {i: computed[i] for i in index_range}
    ok = failures == 0 and cases >= 500 and unique
    report(7, f"weight-filtration axioms on {cases} patterns x2 conjugates; "
              "uniqueness exhaustive for size <= 3", ok)


def test_criterion_8_hodge_tate_shadow(tmp_path, monkeypatch, capsys):
    hodge_profile = GeneratorProfile(with_hodge=True)
    bad = 0
    cases = 0
    for seed in range(100):
        inst = random_instance(seed, hodge_profile).instance
        result = compute_splitting(inst)
        # verify_hodge_splitting raises EngineDefect on any non-SHS subspace
        rep = verify_hodge_splitting(inst, result)
        if not rep.passed:
            bad += 1
        for (i, d), sub in result.embedded.items():
            if not is_shs(sub, inst.hodge, d):
                bad += 1
        for (k, d), sub in result.summands.items():
            if not is_shs(sub, inst.hodge, d):
                bad += 1
        cases += 1
    # the exit-code contract: an engine defect surfacing through the CLI
    # is reported as exit code 3
    path = tmp_path / "q.json"
    save(quadric_cone(1).instance, path)

    def defective(inst):
        raise EngineDefect("synthetic defect")
    monkeypatch.setattr(cli, "compute_splitting", defective)
    code = cli.main(["split", str(path)])
    capsys.readouterr()
    monkeypatch.undo()
    ok = bad == 0 and cases >= 100 and code == 3
    report(8, f"all subspaces are SHS on {cases} Hodge-Tate instances; "
              "defects map to exit code 3", ok)


def test_criterion_9_retraction_lemma():
    # ≥ 200 hypothesis-satisfying instances: B carries a weight-1 pair
    # structure on a random basis, A is the pulled-back structure on a
    # chosen sub-collection of pairs, g/p the inclusion/projection in
    # that basis, so p∘g = id, p is a HS map and g(A) is a SHS.
    i_unit = Gaussian(0, 1)

    def pair_structure(vectors):
        n = len(vectors)
        rows10, rows01 = [], []
        for j in range(0, n, 2):
            v, w = vectors[j], vectors[j + 1]
            rows10.append([Gaussian(a, 0) + i_unit * Gaussian(b, 0)
                           for a, b in zip(v, w)])
            rows01.append([Gaussian(a, 0) - i_unit * Gaussian(b, 0)
                           for a, b in zip(v, w)])
        return HodgeBigrading(GradedSpace({0: n}), {0: 1}, {
            (0, 1, 0): Subspace.span(rows10, n, FIELD_QI),
            (0, 0, 1): Subspace.span(rows01, n, FIELD_QI)})

    verified = 0
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.choice((2, 3))
        n = 2 * k
        u = random_unimodular(rng, n)
        basis = [list(row) for row in u.data]
        b_big = pair_structure(basis)
        m = rng.randint(1, k - 1)
        chosen = sorted(rng.sample(range(k), m))
        picked = [basis[2 * j + s] for j in chosen for s in (0, 1)]
        a_big = pair_structure([[Rat(1 if c == t else 0) for c in range(2 * m)]
                                for t in range(2 * m)])
        g = Matrix.from_rows([[picked[t][r] for t in range(2 * m)]
                              for r in range(n)], 2 * m)
        dual = Matrix.from_rows([list(r) for r in u.data], n).transpose().inverse()
        keep = [2 * j + s for j in chosen for s in (0, 1)]
        p = Matrix.from_rows([list(dual.data[r]) for r in keep], n)
        if retraction_criterion(g, p, a_big, b_big).conclusion_holds:
            verified += 1
    # the conjugate-structure configuration: g = id over Q with image a
    # SHS must be classified as a hypothesis failure, never verified
    space = GradedSpace({0: 2})
    plain = pair_structure([[Rat(1), Rat(0)], [Rat(0), Rat(1)]])
    conj = HodgeBigrading(plain.space, plain.weights,      # (p,q) relabeled (q,p)
                          {(d, q, p): sub for (d, p, q), sub in plain.pieces.items()})
    classified = False
    try:
        retraction_criterion(Matrix.identity(2), Matrix.identity(2), plain, conj)
    except HypothesisFailure as exc:
        classified = "map of Hodge structures" in str(exc)
    ok = verified == 200 and classified
    report(9, f"retraction lemma verified on {verified}/200 instances; "
              "conjugate configuration rejected as hypothesis failure", ok)


def test_criterion_10_duality_and_projectors():
    # induced pairing on the middle summands in distinguished-lift
    # coordinates is one exact matrix for every operator parameter
    matrices = set()
    ok = True
    for m in (1, 2, 3):
        inst = quadric_cone(m).instance
        result = compute_splitting(inst)
        lifts = canonical_lifts(result)
        coords = {(0, 2): Matrix.from_rows(
            [list(lifts["D1"]), list(lifts["D2"])], 3)}
        induced = induced_pairing_on_summand(inst, inst.pairing, result, 0,
                                             coords)
        matrices.add(induced[2])
        # projectors onto quadric-cone targets
        for target in (result.summands[(0, 2)],
                       Subspace.span([list(lifts["D1"])], 3)):
            pr = projector(inst, inst.pairing, result, 0, 2, target)
            ok = ok and pr.idempotent and (pr.matrix @ pr.matrix) == pr.matrix
            ok = ok and pr.tensor_types == ((3, 3),)
    ok = ok and len(matrices) == 1
    report(10, "induced pairing is operator-independent in lift coordinates; "
               "projectors idempotent with Hodge type (3,3)", ok)
