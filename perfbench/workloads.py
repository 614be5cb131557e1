"""The benchmark's four workloads: seeded input generators, the CLI
command each op runs, and the checks applied to every op's output.

Each workload has three size classes, S, M and L.  A pass is ten ops in
the fixed order ``PASS_SLOTS`` (3 S, 4 M, 3 L), so the median latency
falls inside the M class and the tail latency inside the L class.
Within a class, the listed parameters are used in turn.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from persplit import fileformat
from persplit.corpus import split_model_pairing
from persplit.graded import Filtration, GradedMap
from persplit.hodge import HodgeBigrading
from persplit.lefschetz import (StringSpec, apply_graded_auto, build_split_model,
                                string_cells, twist_model)
from persplit.linalg import Matrix, image_of

PASS_SLOTS = "SMLMSLMSLM"
TWIST_BOUND = 3


class Mismatch(Exception):
    """An op's output disagrees with what the generator knows."""


def require(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass
class Case:
    """One op: the CLI arguments, its input file and what to expect."""

    argv: list
    path: object          # pathlib.Path of the input file
    digest: str | None    # "sha256:..." of the file bytes, if the report pins it
    expect: object        # compared with the printed report by Workload.check
    truth: object = None  # callable giving the true (E, G), for the traced run


# ---------------------------------------------------------------------------
# exact helpers, independent of the engine's kernel


def frac_rref(rows, ncols):
    """Reduced row echelon form with zero rows dropped (plain Gauss-Jordan)."""
    work = [list(r) for r in rows]
    lead = 0
    for col in range(ncols):
        pivot = next((r for r in range(lead, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        head = work[lead][col]
        work[lead] = [x / head for x in work[lead]]
        for r in range(len(work)):
            if r != lead and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[lead])]
        lead += 1
    return [tuple(r) for r in work[:lead]]


def frac_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def frac_inverse(a):
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    return [row[n:] for row in frac_rref(aug, 2 * n)]


def unimodular(n, rng):
    """Dense integer matrix of determinant ±1: P·L·U with unit-triangular
    L, U whose off-diagonal entries are drawn from {-1, 0, 1}."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    lo = [[Fraction(1 if i == j else rng.randint(-1, 1) if j < i else 0) for j in range(n)]
          for i in range(n)]
    up = [[Fraction(1 if i == j else rng.randint(-1, 1) if j > i else 0) for j in range(n)]
          for i in range(n)]
    return frac_matmul(p, frac_matmul(lo, up))


def write_instance(inst, path):
    data = fileformat.serialize(inst).encode("utf-8")
    path.write_bytes(data)
    return "sha256:" + hashlib.sha256(data).hexdigest()


def transported(truth, maps):
    """Ground-truth (E, G) pushed along the degree-0 maps, in order."""
    emb, summ = truth.embedded, truth.summands
    for m in maps:
        emb, summ = apply_graded_auto(m, emb), apply_graded_auto(m, summ)
    return emb, summ


def _nonzero(subspaces):
    return {k: v for k, v in subspaces.items() if v.dim}


def check_splitting(result, truth):
    emb, summ = truth
    require(_nonzero(result.embedded) == _nonzero(emb),
            "embedded subspaces E differ from the transported ground truth")
    require(_nonzero(result.summands) == _nonzero(summ),
            "summands G differ from the transported ground truth")


def check_report(case, doc):
    require(doc.get("passed") is True, "report says passed: false")
    require(doc.get("instance_hash") == case.digest,
            "instance_hash differs from the hash of the generated file")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    classes = {}     # "S" / "M" / "L" -> list of parameters, used in turn

    def make(self, params, rng, path) -> Case:
        raise NotImplementedError

    def check(self, case, doc):
        raise NotImplementedError

    def check_trace(self, case, captured):
        """Compare the SplittingResults captured in the traced run."""
        results = captured["splittings"]
        require(len(results) == 1, f"{len(results)} splittings computed, expected 1")
        check_splitting(results[0], case.truth())


class SplitSparse(Workload):
    name = "split-sparse"
    why = ("split --json on twisted coordinate split models; sparse operator "
           "powers dominate, so matmul and power_block work shows here")
    # (L, mult): strings (i, 2L - i - 2s, mult) for i <= L and s in {0, 1}.
    # With s = 0 alone every degree holds one perverse index, and the twist
    # would be the identity; the second family makes it act.
    classes = {"S": [(3, 2)], "M": [(6, 1)], "L": [(3, 4)]}

    def make(self, params, rng, path):
        length, mult = params
        entries = tuple((i, 2 * length - i - 2 * s, mult)
                        for i in range(length + 1) for s in (0, 1))
        inst, truth = build_split_model(StringSpec(entries))
        inst, u = twist_model(inst, rng.randrange(2 ** 32), TWIST_BOUND)
        digest = write_instance(inst, path)
        dims = {(i, d): m for (i, d, m) in entries}
        return Case(["split", str(path), "--json"], path, digest, dims,
                    lambda: transported(truth, [u]))

    def check(self, case, doc):
        check_report(case, doc)
        got = {}
        for key, steps in doc["schedule"].items():
            i, d = key.strip("()").split(",")
            got[(-int(i), int(d))] = steps[-1]["dim_after"]
        require(set(case.expect) <= set(got), "schedule misses a slot of the model")
        require(all(dim == case.expect.get(slot, 0) for slot, dim in got.items()),
                "schedule dimensions differ from the string multiplicities")


VERIFY_CHECKS = (
    "operator commutation and key restriction",
    "every computed subspace is a sub-Hodge structure",
    "pairing is nondegenerate",
    "orthogonal characterization agrees with the schedule",
    "pairing couples only conjugate-complementary pieces",
)


class VerifyDense(Workload):
    name = "verify-dense"
    why = ("verify --hodge --pairing on base-changed even-length dressed models; "
           "filtrations in generic position exercise dense RREF, Hodge and duality")
    # multiplicities of the strings i = 0, 2, 4, 6 with d0 = 12 - i.  These
    # centred strings put one perverse index in each degree, so a twist would
    # be the identity; the dense base change g puts W in generic position.
    classes = {"S": [(1, 0, 0, 1)], "M": [(1, 1, 1, 1)], "L": [(2, 2, 2, 1)]}

    def make(self, params, rng, path):
        entries = tuple((i, 12 - i, m) for i, m in zip((0, 2, 4, 6), params) if m)
        spec = StringSpec(entries)
        inst, truth = build_split_model(spec)
        inst = replace(inst, hodge=HodgeBigrading.hodge_tate(inst.space),
                       pairing=split_model_pairing(inst, string_cells(spec)[1]))
        space = inst.space
        g_rows = {d: unimodular(space.dim(d), rng) for d in space.degrees}
        g = GradedMap(0, {d: Matrix.from_rows(r, len(r)) for d, r in g_rows.items()}, space)
        g_inv = GradedMap(0, {d: Matrix.from_rows(frac_inverse(r), len(r))
                              for d, r in g_rows.items()}, space)
        steps = {(d, i): image_of(g.block(d), sub)
                 for (d, i), sub in inst.filtration.steps.items()}
        eta = GradedMap(2, {d: g.block(d + 2) @ inst.eta.block(d) @ g_inv.block(d)
                            for d in space.degrees if space.dim(d + 2)}, space)
        inst = replace(inst, filtration=Filtration(space, steps), eta=eta,
                       pairing=inst.pairing.transport(g_inv))
        digest = write_instance(inst, path)
        return Case(["verify", str(path), "--hodge", "--pairing", "--json"], path, digest,
                    VERIFY_CHECKS, lambda: transported(truth, [g]))

    def check(self, case, doc):
        check_report(case, doc)
        verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
        require(all(verdicts.get(name) == "pass" for name in case.expect),
                "a Hodge, pairing or commutation check is missing or not passed")


SUITE_PROFILE = {"max_strings": 8, "max_string_length": 4, "max_mult": 3,
                 "with_hodge": True, "with_pairing": True}
SUITE_CHECKS = ("equivariance with the recorded twist", "operator commutation",
                "orthogonal characterization", "sub-Hodge structures",
                "two-path agreement and assembly")


class SuiteDressed(Workload):
    name = "suite-dressed"
    why = ("suite --seeds K with Hodge and pairing on small random instances; "
           "the only workload that reaches corpus generation")
    # K, the number of suite seeds.  suite always runs seeds 0..K-1, so the
    # benchmark's --seed does not reach this workload.
    classes = {"S": [1], "M": [2], "L": [4]}

    def make(self, params, rng, path):
        path.write_text(json.dumps(SUITE_PROFILE, sort_keys=True), encoding="utf-8")
        return Case(["suite", "--seeds", str(params), "--profile", str(path), "--json"],
                    path, None, params)

    def check(self, case, doc):
        k = case.expect
        require(doc.get("passed") is True and not doc["failures"], "suite reports failures")
        require(doc["seeds"] == k, f"suite ran {doc['seeds']} seeds, expected {k}")
        require(all(doc["profile"][key] == v for key, v in SUITE_PROFILE.items()),
                "suite used another profile")
        require(sorted(doc["checks"]) == sorted(SUITE_CHECKS), "suite check names differ")
        require(all(c["passed"] == c["total"] == k for c in doc["checks"].values()),
                "a suite check did not pass on every seed")

    def check_trace(self, case, captured):
        results, instances = captured["splittings"], captured["instances"]
        require(len(results) == len(instances) == case.expect,
                "one splitting per suite seed expected")
        for ri, result in zip(instances, results):
            check_splitting(result, transported(ri.truth, [ri.twist]))


def spread_order(items):
    """``items`` reordered by a golden-ratio stride, so that any run of
    consecutive entries samples the whole (size-ordered) list evenly."""
    n = len(items)
    stride = min((k for k in range(1, n + 1) if math.gcd(k, n) == 1),
                 key=lambda k: abs(k - 0.618 * n))
    return [items[(k * stride) % n] for k in range(n)]


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


class WeightFiltration(Workload):
    name = "weight-filtration"
    why = ("weight-filtration on conjugated Jordan forms of sizes 3-8; tiny "
           "matrices, so per-call kernel overhead dominates and power_block is unused")
    # Every partition type of sizes 3-8: M and L are the regular nilpotents
    # (6,) and (8,), and S cycles through the 61 other types.  The spread
    # order keeps a partial cycle's cost close to a full cycle's, and a
    # single type in M keeps the median where the latencies are dense.
    classes = {"S": spread_order([p for n in range(3, 9) for p in partitions(n)
                                  if p not in ((6,), (8,))]),
               "M": [(6,)],
               "L": [(8,)]}

    def make(self, params, rng, path):
        n = sum(params)
        jordan = [[Fraction(0)] * n for _ in range(n)]
        weights = []
        start = 0
        for k in params:   # chain v, Nv, ..., N^(k-1)v with weights k-1, k-3, ...
            for j in range(k):
                if j + 1 < k:
                    jordan[start + j + 1][start + j] = Fraction(1)
                weights.append(k - 1 - 2 * j)
            start += k
        u = unimodular(n, rng)
        conj = frac_matmul(frac_matmul(u, jordan), frac_inverse(u))
        path.write_text(json.dumps({"N": [[str(x) for x in row] for row in conj]}),
                        encoding="utf-8")
        columns = list(zip(*u))   # u·e_j, the chain vectors in the new basis
        order = max(params)
        truth = {str(w): frac_rref([columns[j] for j in range(n) if weights[j] <= w], n)
                 for w in range(-order, order)}
        return Case(["weight-filtration", str(path), "--operator", "N", "--json"],
                    path, None, truth)

    def check(self, case, doc):
        steps = {k: [tuple(Fraction(x) for x in row) for row in rows]
                 for k, rows in doc["steps"].items()}
        require(steps == case.expect, "weight filtration differs from u·W(Jordan)")

    def check_trace(self, case, captured):
        require(not captured["splittings"], "weight-filtration computed a splitting")


WORKLOADS = {w.name: w for w in (SplitSparse(), VerifyDense(), SuiteDressed(),
                                 WeightFiltration())}


def make_pass(workload, seed, tag, index, directory):
    """The ten cases of pass ``index``; ``tag`` separates the self-check and
    warm-up items from measured passes."""
    cases = []
    seen = {c: 0 for c in "SML"}
    for slot, cls in enumerate(PASS_SLOTS):
        options = workload.classes[cls]
        per_pass = PASS_SLOTS.count(cls)
        params = options[(index * per_pass + seen[cls]) % len(options)]
        seen[cls] += 1
        rng = random.Random(f"{workload.name}/{seed}/{tag}/{index}/{slot}")
        path = directory / f"{tag}-{index}-{slot}.json"
        cases.append(workload.make(params, rng, path))
    return cases


def make_one(workload, seed, tag, directory):
    """One S-class case, for the warm-up and the tracer self-check."""
    params = workload.classes["S"][0]
    rng = random.Random(f"{workload.name}/{seed}/{tag}")
    return workload.make(params, rng, directory / f"{tag}.json")
