"""Shared oracle machinery for the test suite.

Everything here is computed independently of the engine paths under
test: brute-force subspace enumeration, axiom checkers for the
monodromy filtration, and small structured Hodge examples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce

from persplit.graded import GradedMap, nilpotency_order
from persplit.hodge import HodgeBigrading
from persplit.instance import PerverseLefschetzInstance
from persplit.linalg import (Matrix, Subspace, image_of, kernel, quotient_map)
from persplit.scalars import FIELD_QI, Gaussian, Rat


def frac_matrix(rows):
    return Matrix.from_rows([[Rat(x) for x in row] for row in rows])


def random_nilpotent(rng, n):
    """Random nilpotent n×n matrix with entries in {−1, 0, 1}, found by
    rejection sampling (strictly upper-triangular conjugated would bias
    the sample)."""
    while True:
        m = Matrix.from_rows([[Rat(rng.choice((-1, 0, 1))) for _ in range(n)]
                              for _ in range(n)], n)
        if nilpotency_order(m) is not None:
            return m


def filtration_at(steps, i, dim):
    stored = sorted(steps)
    below = [j for j in stored if j <= i]
    if not below:
        return Subspace.zero(dim)
    return steps[max(below)]


def weight_axioms_hold(n_mat, steps, center=0):
    """Both defining axioms of the monodromy filtration, checked from
    scratch: N·W_{≤i} ⊆ W_{≤i−2}, and N^j induces Gr_{c+j} ≅ Gr_{c−j}."""
    dim = n_mat.rows
    indices = sorted(steps)
    # monotone and exhaustive
    prev = Subspace.zero(dim)
    for i in indices:
        if not steps[i].contains(prev):
            return False
        prev = steps[i]
    if not prev.is_full():
        return False
    # N lowers the filtration by 2
    for i in indices:
        img = image_of(n_mat, steps[i])
        if not filtration_at(steps, i - 2, dim).contains(img):
            return False
    # N^j : Gr_{center+j} -> Gr_{center−j} is an isomorphism
    top = max(abs(i - center) for i in indices)
    power = Matrix.identity(dim)
    for j in range(0, top + 1):
        if j:
            power = n_mat @ power
        hi = filtration_at(steps, center + j, dim)
        hi_prev = filtration_at(steps, center + j - 1, dim)
        lo = filtration_at(steps, center - j, dim)
        lo_prev = filtration_at(steps, center - j - 1, dim)
        if hi.dim - hi_prev.dim != lo.dim - lo_prev.dim:
            return False
        if hi.dim == hi_prev.dim:
            continue
        q_hi = quotient_map(hi, hi_prev)
        q_lo = quotient_map(lo, lo_prev)
        cols = [q_lo.projection.apply(power.apply(rep)) for rep in q_hi.section.data]
        induced = Matrix(q_lo.dim, q_hi.dim, tuple(zip(*cols)))
        if not kernel(induced).is_zero():
            return False
    return True


def small_subspace_lattice(dim):
    """All subspaces spanned by subsets of the {−1,0,1}-vectors — the
    finite lattice used for exhaustive uniqueness searches."""
    vectors = []
    for entries in itertools.product((-1, 0, 1), repeat=dim):
        if any(entries) and next(x for x in entries if x) > 0:
            vectors.append([Rat(x) for x in entries])
    seen = {}
    for size in range(0, dim + 1):
        for combo in itertools.combinations(vectors, size):
            sub = Subspace.span(list(combo), dim)
            seen[sub.basis.data] = sub
    return list(seen.values())


def enumerate_axiom_filtrations(n_mat, lattice, index_range, center=0):
    """All monotone chains over ``lattice`` (indexed by ``index_range``)
    satisfying both monodromy-filtration axioms."""
    dim = n_mat.rows
    results = []

    def extend(pos, chain):
        if pos == len(index_range):
            steps = dict(zip(index_range, chain))
            if chain[-1].is_full() and weight_axioms_hold(n_mat, steps, center):
                results.append(steps)
            return
        prev = chain[-1] if chain else Subspace.zero(dim)
        for sub in lattice:
            if sub.dim >= prev.dim and sub.contains(prev):
                extend(pos + 1, chain + [sub])

    extend(0, [])
    return results


# ---------------------------------------------------------------------------
# weight-1 Hodge example (elliptic-curve type): rational plane with
# H^{1,0} = span{(1, i)}, H^{0,1} = span{(1, −i)}.


def weight_one_bigrading(space, d=0):
    i = Gaussian(0, 1)
    return HodgeBigrading(
        space, {d: 1},
        {(d, 1, 0): Subspace.span([[1, i]], 2, FIELD_QI),
         (d, 0, 1): Subspace.span([[1, -i]], 2, FIELD_QI)})


def random_unimodular(rng, n, bound=2):
    """Random integer matrix with determinant ±1 (product of shears)."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        shear = [[Rat(1) if r == c else
                  (Rat(rng.randint(-bound, bound)) if (r, c) == (a, b) else Rat(0))
                  for c in range(n)] for r in range(n)]
        m = Matrix.from_rows(shear, n) @ m
    return m


def oracle_summands(inst, embedded):
    """G_k V^d rebuilt one image at a time: each η^j(E^{−(2j−k),d−2j}) as
    its own subspace, added to G_k only if the sum stays direct, and the
    running sum of the G_k equal to W_{≤k}V^d at every nonzero G_k."""
    summands = {}
    grades = [k for (_, k) in inst.pieces.slots]
    max_i = max((i for (i, _) in embedded), default=0)
    for d in inst.space.degrees:
        n = inst.space.dim(d)
        running = Subspace.zero(n)
        for k in range(min(grades) - 1, max(grades) + 1):
            g_k = Subspace.zero(n)
            for j in range(max(0, k), (k + max_i) // 2 + 1):
                e_sub = embedded.get((2 * j - k, d - 2 * j))
                if e_sub is None:
                    continue
                piece = image_of(inst.eta.power_block(d - 2 * j, j), e_sub)
                assert piece.dim == e_sub.dim
                assert g_k.sum(piece).dim == g_k.dim + piece.dim
                g_k = g_k.sum(piece)
            if g_k.dim:
                running = running.sum(g_k)
                assert running == inst.filtration.at(d, k)
                summands[(k, d)] = g_k
        assert running.is_full()
    return summands


def oracle_commutation(inst, result):
    """The commutation report rebuilt image by image: for each nonzero
    E^{−i,d} and j + j' ≤ i, η^{j'}(η^j E) as an image of an image,
    compared with η^{j+j'}E and required to have dim E."""
    from persplit.splitting import CommutationReport
    checks = []
    for (i, d), e_sub in sorted(result.embedded.items()):
        if not e_sub.dim:
            continue
        straight = [e_sub] + [image_of(inst.eta.power_block(d, k), e_sub)
                              for k in range(1, i + 1)]
        for j in range(i + 1):
            for jp in range(i - j + 1):
                if j and jp:
                    stepped = image_of(inst.eta.power_block(d + 2 * j, jp), straight[j])
                else:
                    stepped = straight[j + jp]
                ok = stepped == straight[j + jp] and stepped.dim == e_sub.dim
                checks.append(((i, d, j, jp), ok))
                if not ok:
                    return CommutationReport(False, tuple(checks),
                                             f"η-commutation fails at (i={i}, d={d}, "
                                             f"j={j}, j'={jp})")
    return CommutationReport(True, tuple(checks))


def conjugation_twist(inst, seed, bound):
    """``(twisted_instance, u, u⁻¹)`` as a change of basis: the seeded
    M = I + N, drawn as ``lefschetz.twist_model`` draws it, acts on the
    adapted basis A of graded-piece sections, u = A·Mᵀ·A⁻¹ with both
    inverses by elimination, and η and the pairing are conjugated by u."""
    rng = random.Random(seed)
    gp = inst.pieces
    blocks = {}
    for d in inst.space.degrees:
        n = inst.space.dim(d)
        slots = sorted(i for (dd, i) in gp.slots if dd == d)
        sections = [gp.quotient(d, i).section for i in slots]
        owners = [i for i, section in zip(slots, sections) for _ in range(section.rows)]
        basis = reduce(Matrix.stack, sections, Matrix.zero(0, n))
        coeff = [[0] * n for _ in range(n)]
        for a in range(n):
            coeff[a][a] = 1
            for b in range(n):
                if owners[b] < owners[a] and bound > 0:
                    coeff[a][b] = rng.randint(-bound, bound)
        a_mat = basis.transpose()
        blocks[d] = a_mat @ Matrix.from_rows(coeff, n).transpose() @ a_mat.inverse()
    u = GradedMap(0, blocks, inst.space)
    u_inv = GradedMap(0, {d: blk.inverse() for d, blk in blocks.items()}, inst.space)
    eta = GradedMap(2, {d: u.block(d + 2) @ inst.eta.block(d) @ u_inv.block(d)
                        for d in inst.space.degrees}, inst.space)
    pairing = inst.pairing.transport(u_inv) if inst.pairing is not None else None
    twisted = PerverseLefschetzInstance(
        center=inst.center, space=inst.space, filtration=inst.filtration,
        eta=eta, hodge=inst.hodge, pairing=pairing, groups=inst.groups)
    return twisted, u, u_inv
