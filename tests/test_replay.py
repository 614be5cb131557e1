"""Byte guard for the CLI: one SHA-256 over a fixed list of commands.

Each command runs in-process through ``cli.main`` in a scratch directory
with relative file names.  The digest covers, per command, its argv, exit
code, standard output and standard error, so any change to a report byte
or an exit code shows here.  ``EXPECTED`` was recorded before the Hodge
and duality checks moved onto rational projector operators; a deliberate
output change must record a new value and say so in CHANGES.md.

Besides the quadric cones, seeded random instances, a suite, two weight
filtrations and the negative inputs of ``test_cli``, the list holds one
instance that is not Hodge–Tate: a twisted split model tensored with a
weight-one H¹ (pieces span(1, i) and span(1, −i), pairing Q ⊗ ω), so its
odd degrees carry conjugate pairs.  Two variants of it fail: one whose
operator swaps the two pieces, one whose pairing couples (1,0) with (1,0).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time

from persplit import cli
from persplit.corpus import quadric_cone, split_model_pairing
from persplit.duality import IntersectionPairing
from persplit.fileformat import save, serialize_instance
from persplit.graded import Filtration, GradedMap, GradedSpace
from persplit.hodge import HodgeBigrading
from persplit.instance import PerverseLefschetzInstance
from persplit.lefschetz import StringSpec, build_split_model, string_cells, twist_model
from persplit.linalg import Matrix, Subspace
from persplit.scalars import FIELD_QI, Gaussian, Rat

EXPECTED = "1b20ee4eaeed57e0dc44e935989f6836a43c531948f38fe23c82fe48024d4ab3"

DRESSED = {"max_strings": 8, "max_string_length": 4, "max_mult": 3,
           "with_hodge": True, "with_pairing": True}
INSTANCE_COMMANDS = (("validate",), ("check-hl",), ("split", "--json", "--emit-basis"),
                     ("verify", "--hodge", "--pairing", "--json"))

I = Gaussian(0, 1)
OMEGA = ((0, 1), (-1, 0))          # the symplectic form of H¹
SWAP = ((1, 0), (0, -1))           # sends (1, i) to (1, −i)
SAME_TYPE = ((1, 0), (0, -1))      # pairs (1, i) with itself: 1 − i·i = 2


def _kron(a: Matrix, b, field=None) -> Matrix:
    """a ⊗ b for a Matrix a and a small nested tuple b."""
    field = field or a.field
    s, t = len(b), len(b[0])
    rows = [[a.data[i][j] * b[k][m] for j in range(a.cols) for m in range(t)]
            for i in range(a.rows) for k in range(s)]
    return Matrix(a.rows * s, a.cols * t, rows, field)


def _split_model():
    """A twisted split model on even degrees with a Hodge–Tate bigrading of
    weight d and the string pairing: it passes ``verify --hodge --pairing``."""
    spec = StringSpec(((0, 2, 2), (2, 0, 1)))
    inst, _ = build_split_model(spec)
    _, cells = string_cells(spec)
    inst = dataclasses.replace(inst, hodge=HodgeBigrading.hodge_tate(inst.space),
                               pairing=split_model_pairing(inst, cells))
    return twist_model(inst, 11, 2)[0]


def weight_one_tensor(eta_factor=((1, 0), (0, 1)), pairing_factor=OMEGA):
    """The split model tensored with H¹ = ℚ² in degree 1, weight 1,
    H^{1,0} = span(1, i), H^{0,1} = span(1, −i): degree d + 1 holds the
    conjugate pair (p+1, q) + (p, q+1) for each piece (p, q) of V^d.  The
    operator is η ⊗ ``eta_factor`` and the pairing Q ⊗ ``pairing_factor``."""
    base = _split_model()
    space = GradedSpace({d + 1: 2 * n for d, n in base.space.dims.items()})
    steps = {(d + 1, i): Subspace(2 * sub.ambient_dim,
                                  _kron(sub.basis, ((1, 0), (0, 1))))
             for (d, i), sub in base.filtration.steps.items()}
    eta = GradedMap(2, {d + 1: _kron(blk, eta_factor) for d, blk in base.eta.blocks.items()},
                    space)
    pieces = {}
    for (d, p, q), sub in base.hodge.pieces.items():
        pieces[(d + 1, p + 1, q)] = Subspace(2 * sub.ambient_dim,
                                             _kron(sub.basis, ((1, I),), FIELD_QI))
        pieces[(d + 1, p, q + 1)] = Subspace(2 * sub.ambient_dim,
                                             _kron(sub.basis, ((1, -I),), FIELD_QI))
    hodge = HodgeBigrading(space, {d + 1: w + 1 for d, w in base.hodge.weights.items()},
                           pieces)
    pairing = IntersectionPairing(
        base.center + 1, space,
        {d + 1: _kron(base.pairing.block(d), pairing_factor) for d in base.space.degrees})
    return PerverseLefschetzInstance(center=base.center + 1, space=space,
                                     filtration=Filtration(space, steps), eta=eta,
                                     hodge=hodge, pairing=pairing)


def without_one_piece(inst):
    """``inst`` with the last piece of its lowest degree dropped, so that the
    pieces of that degree no longer span it."""
    big = inst.hodge
    drop = max(key for key in big.pieces if key[0] == inst.space.degrees[0])
    return dataclasses.replace(inst, hodge=HodgeBigrading(
        inst.space, big.weights, {k: v for k, v in big.pieces.items() if k != drop}))


def _negative_files(root):
    """The malformed and failing inputs of ``test_cli``; name → path."""
    quadric = quadric_cone(1).instance
    doc = serialize_instance(quadric)
    files = {}

    def write(name, text):
        (root / name).write_text(text)
        files[name] = name

    write("no_eta.json", json.dumps(dict(doc, eta=[])))
    write("empty_step.json", json.dumps(dict(doc, filtration=[
        dict(step, basis=[]) if step["d"] == 0 else step for step in doc["filtration"]])))
    bad = json.loads(json.dumps(doc))
    bad["eta"][0]["matrix"][0][0] = "0.5"
    write("decimal.json", json.dumps(bad))
    write("truncated.json", "{")
    for name, d, scale in (("lopsided.json", 0, None), ("degenerate.json", 2, 0)):
        blocks = dict(quadric.pairing.blocks)
        blocks[d] = blocks[d].scale(Rat(2)) if scale is None else Matrix.zero(3, 3)
        save(dataclasses.replace(quadric, pairing=IntersectionPairing(3, quadric.space, blocks)),
             root / name)
        files[name] = name
    return files


def _commands(root):
    (root / "dressed.json").write_text(json.dumps(DRESSED))
    (root / "ops.json").write_text(json.dumps({
        "N": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        "M": [["1", "-1", "2", "0"], ["1", "-1", "3", "1/2"], ["0", "0", "0", "0"],
              ["0", "0", "0", "0"]]}))
    generate, instances = [], []
    for m in ("0", "1", "2", "3", "7"):
        name = f"quadric{m}.json"
        generate.append(("corpus", "quadric-cone", "--m", m, "-o", name))
        instances.append(name)
    for profile in (None, "dressed.json"):
        for seed in range(6):
            name = f"random{seed}-{'dressed' if profile else 'default'}.json"
            argv = ("corpus", "random", "--seed", str(seed), "-o", name)
            generate.append(argv + (("--profile", profile) if profile else ()))
            instances.append(name)
    for name, eta_factor, pairing_factor in (("h1.json", ((1, 0), (0, 1)), OMEGA),
                                             ("h1_swap.json", SWAP, OMEGA),
                                             ("h1_same_type.json", ((1, 0), (0, 1)),
                                              SAME_TYPE)):
        save(weight_one_tensor(eta_factor, pairing_factor), root / name)
        instances.append(name)
    save(without_one_piece(weight_one_tensor()), root / "h1_partial.json")
    instances.append("h1_partial.json")
    negatives = _negative_files(root)
    commands = list(generate)
    for name in instances:
        commands.extend((cmd[0], name) + cmd[1:] for cmd in INSTANCE_COMMANDS)
    for name in ("h1.json", "h1_swap.json", "h1_same_type.json", "h1_partial.json"):
        commands.append(("verify", name, "--hodge", "--pairing"))
        commands.append(("verify", name, "--pairing", "--json"))
    commands.append(("suite", "--seeds", "4", "--profile", "dressed.json", "--json"))
    commands.append(("weight-filtration", "ops.json", "--operator", "N", "--json"))
    commands.append(("weight-filtration", "ops.json", "--operator", "M", "--center", "2"))
    for name in negatives:
        commands.extend((cmd[0], name) + cmd[1:] for cmd in INSTANCE_COMMANDS)
        commands.append(("verify", name, "--pairing", "--json"))
    commands.append(("validate", "missing.json"))
    return commands


def replay(root):
    """[(argv, exit code, stdout, stderr)] for every command, in order."""
    outcomes = []
    for argv in _commands(root):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        outcomes.append((list(argv), code, out.getvalue(), err.getvalue()))
    return outcomes


def digest(outcomes):
    return hashlib.sha256(json.dumps(outcomes, ensure_ascii=False).encode()).hexdigest()


def test_replayed_commands_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.PROFILE_ENV, raising=False)
    start = time.perf_counter()
    outcomes = replay(tmp_path)
    elapsed = time.perf_counter() - start
    by_argv = {tuple(argv): (code, out, err) for argv, code, out, err in outcomes}
    # the non-Hodge–Tate instance passes; its two variants fail the Hodge
    # precondition and the duality check respectively
    assert by_argv[("verify", "h1.json", "--hodge", "--pairing", "--json")][0] == 0
    code, _, err = by_argv[("verify", "h1_swap.json", "--hodge", "--pairing", "--json")]
    assert code == 1 and "not a (1,1) map" in err
    code, out, _ = by_argv[("verify", "h1_same_type.json", "--hodge", "--pairing")]
    assert code == 1 and "pair nontrivially" in out
    assert digest(outcomes) == EXPECTED
    assert elapsed < 10.0
