"""Built-in instances: the blown-up quadric-cone 3-fold with its exact
cup-product table, and seeded random generators for property suites."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .duality import IntersectionPairing
from .errors import InputError
from .graded import Filtration, GradedMap, GradedSpace
from .hodge import HodgeBigrading
from .instance import PerverseLefschetzInstance
from .lefschetz import (SplitModelTruth, StringSpec, build_split_model,
                        string_cells, twist_model)
from .linalg import Matrix, Subspace, kernel
from .scalars import Rat

H2_LABELS = ("D", "D1", "D2")
H4_LABELS = ("D*D1", "D*D2", "D1*D2")

# Symmetric triple products of the divisor classes D, D1, D2:
# squares of the ruling classes vanish, D·D1·D2 = 1, D·D·D_i = −1, D³ = 2.
TRIPLE = {
    ("D", "D", "D"): Rat(2),
    ("D", "D", "D1"): Rat(-1),
    ("D", "D", "D2"): Rat(-1),
    ("D", "D1", "D2"): Rat(1),
    ("D", "D1", "D1"): Rat(0),
    ("D", "D2", "D2"): Rat(0),
    ("D1", "D1", "D1"): Rat(0),
    ("D1", "D1", "D2"): Rat(0),
    ("D1", "D2", "D2"): Rat(0),
    ("D2", "D2", "D2"): Rat(0),
}


def triple_product(a: str, b: str, c: str) -> Rat:
    return TRIPLE[tuple(sorted((a, b, c)))]


# Degree-4 basis vectors are the products named in H4_LABELS.
_H4_FACTORS = (("D", "D1"), ("D", "D2"), ("D1", "D2"))


def _cup_h2_h2(a: str, b: str):
    """Product of two degree-2 classes in the chosen degree-4 basis.

    Determined by pairing against H² through the triple products; the
    Gram matrix of the two bases is unimodular so the solve is exact."""
    gram = Matrix.from_rows(
        [[triple_product(c, x, y) for (x, y) in _H4_FACTORS] for c in H2_LABELS], 3)
    rhs = [triple_product(c, a, b) for c in H2_LABELS]
    sol = gram.inverse().apply(rhs)
    return tuple(sol)


def _pair_h2_h4(a: str, factors) -> Rat:
    x, y = factors
    return triple_product(a, x, y)


@dataclass(frozen=True)
class QuadricConeInstance:
    instance: PerverseLefschetzInstance
    m: Rat

    @property
    def space(self):
        return self.instance.space


def quadric_cone(m) -> QuadricConeInstance:
    """The blow-up of the projective quadric cone at its vertex, with the
    degree-2 operator cup(m·D1 + D2), m ≥ 0."""
    m = Rat(m)
    if m < 0:
        raise InputError("the operator parameter m must be ≥ 0")
    dims = {0: 1, 2: 3, 4: 3, 6: 1}
    labels = {0: ("1",), 2: H2_LABELS, 4: H4_LABELS, 6: ("pt",)}
    space = GradedSpace(dims, labels)
    eta_coeffs = {"D": Rat(0), "D1": m, "D2": Rat(1)}
    # Block 0→2: 1 ↦ η.
    b0 = Matrix.from_rows([[eta_coeffs[c]] for c in H2_LABELS], 1)
    # Block 2→4: cup with η in the product bases.
    cols2 = []
    for c in H2_LABELS:
        acc = (Rat(0), Rat(0), Rat(0))
        for name, coeff in eta_coeffs.items():
            if coeff:
                prod = _cup_h2_h2(name, c)
                acc = tuple(x + coeff * y for x, y in zip(acc, prod))
        cols2.append(acc)
    b2 = Matrix.from_rows(list(zip(*cols2)), 3)
    # Block 4→6: pair with η via the triple products.
    row = []
    for factors in _H4_FACTORS:
        row.append(sum((coeff * _pair_h2_h4(name, factors)
                        for name, coeff in eta_coeffs.items()), Rat(0)))
    b4 = Matrix.from_rows([row], 3)
    eta = GradedMap(2, {0: b0, 2: b2, 4: b4}, space)
    # Pairing blocks V^d × V^{6−d} from the cup-product tables.
    q0 = Matrix.from_rows([[Rat(1)]], 1)
    q2 = Matrix.from_rows([[_pair_h2_h4(c, f) for f in _H4_FACTORS] for c in H2_LABELS], 3)
    pairing = IntersectionPairing(3, space, {0: q0, 2: q2, 4: q2.transpose(),
                                             6: q0.transpose()})
    # Perverse filtration: D sits one step below in H², its pairing
    # annihilator one step above in H⁴; the edge degrees are pure.
    w_m1_h2 = Subspace.span([[1, 0, 0]], 3)
    w_0_h4 = kernel(Matrix.from_rows([q2.data[0]], 3))
    steps = {
        (0, 0): Subspace.full(1),
        (2, -1): w_m1_h2,
        (2, 0): Subspace.full(3),
        (4, 0): w_0_h4,
        (4, 1): Subspace.full(3),
        (6, 0): Subspace.full(1),
    }
    filtr = Filtration(space, steps)
    hodge = HodgeBigrading.hodge_tate(space)
    inst = PerverseLefschetzInstance(center=3, space=space, filtration=filtr,
                                     eta=eta, hodge=hodge, pairing=pairing)
    return QuadricConeInstance(inst, m)


def canonical_lifts(result) -> dict:
    """The canonical lifts of the graded classes of D1 and D2.

    Each lift is the unique vector of the embedded degree-2 summand
    E^{0,2} whose (D1, D2) coordinates are the indicator of the class;
    returned as ``{"D1": vector, "D2": vector}`` in (D, D1, D2)
    coordinates."""
    e = result.embedded[(0, 2)]
    restricted = Matrix.from_rows([[row[1], row[2]] for row in e.basis.data], 2)
    solve = restricted.transpose().inverse()
    lifts = {}
    for name, target in (("D1", (Rat(1), Rat(0))), ("D2", (Rat(0), Rat(1)))):
        x = solve.apply(target)
        lifts[name] = tuple(sum((c * row[j] for c, row in zip(x, e.basis.data)),
                                Rat(0)) for j in range(3))
    return lifts


def try_canonical_lifts(inst: PerverseLefschetzInstance, result):
    """``canonical_lifts`` when the instance uses the divisor labels of
    the built-in quadric cone; None otherwise (used for reporting)."""
    if inst.space.labels.get(2) != H2_LABELS or (0, 2) not in result.embedded:
        return None
    if result.embedded[(0, 2)].dim != 2:
        return None
    return canonical_lifts(result)


def quadric_cone_class(name: str):
    """Coordinates of a named degree-2 class."""
    return tuple(Rat(1) if c == name else Rat(0) for c in H2_LABELS)


def split_model_pairing(inst: PerverseLefschetzInstance, cells) -> IntersectionPairing:
    """String pairing: layer j of an i-string pairs only with layer i−j of
    the same string, with value 1."""
    n = inst.center
    space = inst.space
    blocks = {d: [[0] * space.dim(2 * n - d) for _ in range(space.dim(d))]
              for d in space.degrees}
    position = {(sid, j): off for (sid, _, j, _, _, off) in cells}
    for (sid, i, j, deg, idx, off) in cells:
        blocks[deg][off][position[(sid, i - j)]] = 1
    return IntersectionPairing(
        n, space, {d: Matrix.from_rows(rows, space.dim(2 * n - d)) if rows
                   else Matrix.zero(0, space.dim(2 * n - d))
                   for d, rows in blocks.items()})


# least value of each count in a profile; the other fields are flags
_COUNT_MINIMUM = {"max_strings": 1, "max_string_length": 0, "degree_span": 0,
                  "max_mult": 1, "twist_bound": 0}


@dataclass(frozen=True)
class GeneratorProfile:
    """Bounds for the seeded instance generator."""

    max_strings: int = 4
    max_string_length: int = 3   # maximum i
    degree_span: int = 3         # degrees d0 ∈ {n−i, with n−i−d0 even offsets}
    max_mult: int = 2
    twist_bound: int = 3
    with_hodge: bool = False
    with_pairing: bool = False

    def to_record(self):
        return {
            "max_strings": self.max_strings,
            "max_string_length": self.max_string_length,
            "degree_span": self.degree_span,
            "max_mult": self.max_mult,
            "twist_bound": self.twist_bound,
            "with_hodge": self.with_hodge,
            "with_pairing": self.with_pairing,
        }

    @classmethod
    def from_record(cls, rec):
        known = {f for f in cls.__dataclass_fields__}
        bad = set(rec) - known
        if bad:
            raise InputError(f"unknown profile fields: {sorted(bad)}")
        for name, value in rec.items():
            low = _COUNT_MINIMUM.get(name)
            if low is None:
                if type(value) is not bool:
                    raise InputError(f"profile field {name!r} must be true or false, "
                                     f"got {value!r}")
            elif type(value) is not int:
                raise InputError(f"profile field {name!r} must be an integer, got {value!r}")
            elif value < low:
                raise InputError(f"profile field {name!r} must be ≥ {low}, got {value}")
        return cls(**rec)


@dataclass(frozen=True)
class RandomInstance:
    instance: PerverseLefschetzInstance
    truth: SplitModelTruth
    twist: GradedMap
    seed: int
    profile: GeneratorProfile


def random_instance(seed: int, profile: GeneratorProfile | None = None) -> RandomInstance:
    """Twisted split model with recorded ground truth, deterministic per seed."""
    profile = profile or GeneratorProfile()
    rng = random.Random(seed)
    n_strings = rng.randint(1, profile.max_strings)
    entries = []
    center = 2 * profile.degree_span  # keeps all degrees even and nonnegative
    for _ in range(n_strings):
        i = rng.randint(0, profile.max_string_length)
        if profile.with_pairing:
            d0 = center - i  # center-symmetric strings so a pairing exists
        else:
            d0 = center - i + 2 * rng.randint(-(profile.degree_span // 2),
                                              profile.degree_span // 2)
        mult = rng.randint(1, profile.max_mult)
        entries.append((i, d0, mult))
    spec = StringSpec(tuple(entries))
    inst, truth = build_split_model(spec)
    _, cells = string_cells(spec)
    # Weight d rounded up to even so odd-degree strings admit a Hodge–Tate
    # bigrading; the operator still shifts weight by exactly 2.
    hodge = (HodgeBigrading.hodge_tate(
        inst.space, {d: d + (d % 2) for d in inst.space.degrees})
        if profile.with_hodge else None)
    pairing = split_model_pairing(inst, cells) if profile.with_pairing else None
    if hodge is not None or pairing is not None:
        inst = PerverseLefschetzInstance(
            center=inst.center, space=inst.space, filtration=inst.filtration,
            eta=inst.eta, hodge=hodge, pairing=pairing)
    twisted, u = twist_model(inst, rng.randrange(2 ** 32), profile.twist_bound)
    return RandomInstance(twisted, truth, u, seed, profile)
