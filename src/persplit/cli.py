"""Command-line interface.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 engine defect (a theorem-backed check failed although its hypotheses
held).  All output is deterministic; ``--json`` emits the machine
report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fileformat
from .corpus import (GeneratorProfile, quadric_cone, random_instance,
                     try_canonical_lifts)
from .duality import duality_hs_check, orthogonal_mismatch
from .errors import (EngineDefect, InputError, PersplitError,
                     VerificationFailure)
from .graded import weight_filtration
from .hodge import verify_hodge_splitting
from .lefschetz import apply_graded_auto, check_hard_lefschetz
from .linalg import Matrix
from .scalars import format_rational, parse_rational
from .splitting import compute_splitting, eta_commutation_check
from .version import __version__

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_DEFECT = 3

PROFILE_ENV = "PERSPLIT_PROFILE"


def _print_json(doc):
    sys.stdout.write(fileformat.canonical_text(doc))


def _emit(args, command, inst, checks, extra=None):
    if getattr(args, "json", False):
        _print_json(fileformat.make_report(command, inst, checks, extra=extra))
    else:
        for name, verdict, detail in checks:
            line = f"[{verdict.upper():>7}] {name}"
            if detail:
                line += f" — {detail}"
            print(line)
    return EXIT_PASS if all(v != "fail" for (_, v, _) in checks) else EXIT_VERIFICATION


def _basis_rows(inst, d, sub):
    return [inst.format_vector(d, row, reverse=True) for row in _display_basis(sub)]


def _display_basis(sub):
    """Echelon basis normalized on the trailing coordinates, which reads
    naturally when the leading coordinates are the deeper filtration
    ones (e.g. "D1 + 1/2 D" rather than "D + 2 D2")."""
    from .linalg import rref
    reversed_cols = Matrix.from_rows([row[::-1] for row in sub.basis.data],
                                     sub.ambient_dim, field=sub.field)
    reduced = rref(reversed_cols)
    return [row[::-1] for row in reversed(reduced.data)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    inst = fileformat.load(args.file)
    report = inst.filtration_report
    checks = [("filtration is monotone, exhaustive and bounded",
               "pass" if report.valid else "fail", "; ".join(report.errors))]
    if report.valid:
        try:
            inst.pieces  # also checks operator/filtration compatibility
            checks.append(("operator respects the filtration", "pass", ""))
        except VerificationFailure as exc:
            checks.append(("operator respects the filtration", "fail", str(exc)))
    else:
        checks.append(("operator respects the filtration", "skipped", ""))
    return _emit(args, "validate", inst, checks,
                 extra={"amplitude": report.amplitude} if report.valid else None)


def cmd_check_hl(args):
    inst = fileformat.load(args.file)
    report = check_hard_lefschetz(inst.pieces)
    checks = [(f"e^{i} : Gr_-{i} V^{d} -> Gr_{i} V^{d + 2 * i} is an isomorphism",
               "pass", "") for ((i, d), _) in report.checks]
    if not report.passed:
        i, d, witness = report.failure
        detail = ("graded dimensions differ" if witness is None
                  else f"kernel witness {[format_rational(x) for x in witness]}")
        checks.append((f"e^{i} : Gr_-{i} V^{d} -> Gr_{i} V^{d + 2 * i} is an isomorphism",
                       "fail", detail))
    return _emit(args, "check-hl", inst, checks)


def cmd_split(args):
    inst = fileformat.load(args.file)
    result = compute_splitting(inst)
    checks = [(name, "pass" if ok else "fail", detail)
              for (name, ok, detail) in result.checks]
    schedule_log = {
        f"(-{i},{d})": [{"t": s.t, "power": s.power, "target_index": s.target_index,
                         "dim_after": s.dim_after} for s in steps]
        for (i, d), steps in sorted(result.schedule.items())
    }
    extra = {"schedule": schedule_log}
    if args.emit_basis:
        extra["embedded"] = {f"E^(-{i},{d})": _basis_rows(inst, d, sub)
                             for (i, d), sub in sorted(result.embedded.items())}
        extra["summands"] = {f"G_{k} V^{d}": _basis_rows(inst, d, sub)
                             for (k, d), sub in sorted(result.summands.items())}
    code = _emit(args, "split", inst, checks, extra=extra)
    if args.emit_basis and not args.json:
        for key, rows in extra["embedded"].items():
            print(f"{key}: " + "; ".join(rows))
        for key, rows in extra["summands"].items():
            print(f"{key}: " + "; ".join(rows))
    return code


def cmd_verify(args):
    inst = fileformat.load(args.file)
    result = compute_splitting(inst)
    checks = [(name, "pass" if ok else "fail", detail)
              for (name, ok, detail) in result.checks]
    comm = eta_commutation_check(inst, result)
    checks.append(("operator commutation and key restriction",
                   "pass" if comm.passed else "fail", comm.failure or ""))
    lifts = try_canonical_lifts(inst, result)
    if lifts is not None:
        detail = "; ".join(
            f"g(Δ{name[-1]}) = {inst.format_vector(2, vec, reverse=True)}"
            for name, vec in sorted(lifts.items()))
        checks.append(("canonical lifts of the divisor classes", "pass", detail))
    if args.hodge:
        if inst.hodge is None:
            raise InputError("--hodge requested but the instance has no bigrading")
        hreport = verify_hodge_splitting(inst, result)
        checks.append(("every computed subspace is a sub-Hodge structure",
                       "pass" if hreport.passed else "fail", ""))
    if args.pairing:
        if inst.pairing is None:
            raise InputError("--pairing requested but the instance has no pairing")
        pairing = inst.pairing
        checks.append(("pairing is nondegenerate",
                       "pass" if pairing.is_nondegenerate() else "fail", ""))
        slot = orthogonal_mismatch(inst, pairing, result.embedded)
        checks.append(("orthogonal characterization agrees with the schedule",
                       "pass" if slot is None else "fail",
                       "" if slot is None else f"slot (-{slot[0]},{slot[1]})"))
        if inst.hodge is not None:
            dreport = duality_hs_check(inst, pairing, inst.hodge)
            checks.append(("pairing couples only conjugate-complementary pieces",
                           "pass" if dreport.passed else "fail",
                           "" if dreport.passed else str(dreport)))
    return _emit(args, "verify", inst, checks)


def _matrix_entry(x):
    """A rational string ``"a/b"`` or a JSON integer; floats (which lose
    or overflow their value), booleans and anything else are refused."""
    if isinstance(x, str):
        return parse_rational(x)
    if type(x) is int:
        return Fraction(x)
    raise ValueError(f"expected a rational string or an integer, got {json.dumps(x)}")


def cmd_weight_filtration(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or args.operator not in doc:
        raise InputError(f"no operator named {args.operator!r} in the file")
    raw = doc[args.operator]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise InputError(f"bad matrix for {args.operator!r}: expected a list of rows")
    try:
        mat = Matrix.from_rows([[_matrix_entry(x) for x in row] for row in raw])
    except ValueError as exc:
        raise InputError(f"bad matrix for {args.operator!r}: {exc}") from None
    if mat.rows != mat.cols:
        raise InputError("operator matrix must be square")
    steps = weight_filtration(mat, args.center)
    strings = {}
    out = {str(i): fileformat.matrix_record(sub.basis, strings)
           for i, sub in sorted(steps.items())}
    if args.json:
        _print_json({"command": "weight-filtration", "engine_version": __version__,
                     "center": args.center, "operator": args.operator, "steps": out})
    else:
        for i, rows in out.items():
            print(f"W_<={i}: dim {len(rows)}")
            for row in rows:
                print("   ", row)
    return EXIT_PASS


def _load_profile(path):
    if path is None:
        path = os.environ.get(PROFILE_ENV)
    if path is None:
        return GeneratorProfile()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"profile is not valid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise InputError("profile must be a JSON object")
    return GeneratorProfile.from_record(rec)


def _write_instance(inst, path):
    text = fileformat.serialize(inst)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_corpus_quadric_cone(args):
    try:
        m = parse_rational(args.m)
    except ValueError as exc:
        raise InputError(f"--m: {exc}") from None
    _write_instance(quadric_cone(m).instance, args.output)
    return EXIT_PASS


def cmd_corpus_random(args):
    ri = random_instance(args.seed, _load_profile(args.profile))
    _write_instance(ri.instance, args.output)
    return EXIT_PASS


def _suite_one(seed, profile):
    """Per-seed verdicts for the batch runner; raises EngineDefect through."""
    verdicts = {}
    ri = random_instance(seed, profile)
    inst = ri.instance
    # The schedule checks its own containments, the certificate proves
    # each E canonical and assembly checks the summands (all three raise
    # on failure); the verdict keeps its name, a fixed key of the report.
    result = compute_splitting(inst)
    verdicts["two-path agreement and assembly"] = True
    expected = apply_graded_auto(ri.twist, ri.truth.summands)
    verdicts["equivariance with the recorded twist"] = (
        result.summands == {k: v for k, v in expected.items() if v.dim})
    verdicts["operator commutation"] = eta_commutation_check(inst, result).passed
    if inst.pairing is not None:
        verdicts["orthogonal characterization"] = \
            orthogonal_mismatch(inst, inst.pairing, result.embedded) is None
    if inst.hodge is not None:
        verdicts["sub-Hodge structures"] = verify_hodge_splitting(inst, result).passed
    return verdicts


def cmd_suite(args):
    if args.seeds < 0:
        raise InputError(f"--seeds must be ≥ 0, got {args.seeds}")
    profile = _load_profile(args.profile)
    totals, failures = {}, []
    for seed in range(args.seeds):
        verdicts = _suite_one(seed, profile)
        for name, ok in verdicts.items():
            passed, total = totals.get(name, (0, 0))
            totals[name] = (passed + (1 if ok else 0), total + 1)
            if not ok:
                failures.append((seed, name))
    if args.json:
        _print_json({"command": "suite", "engine_version": __version__,
                     "seeds": args.seeds, "profile": profile.to_record(),
                     "checks": {n: {"passed": p, "total": t}
                                for n, (p, t) in sorted(totals.items())},
                     "failures": [{"seed": s, "check": n} for s, n in failures],
                     "passed": not failures})
    else:
        width = max((len(n) for n in totals), default=0)
        for name, (p, t) in sorted(totals.items()):
            print(f"{name:<{width}}  {p}/{t}")
        if failures:
            for seed, name in failures:
                print(f"FAIL seed {seed}: {name}")
    return EXIT_PASS if not failures else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="persplit",
        description="Exact canonical-splitting engine for filtered graded "
                    "spaces with a hard-Lefschetz operator.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="filtration and compatibility checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-hl", help="hard Lefschetz report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_hl)

    p = sub.add_parser("split", help="compute the canonical splitting")
    p.add_argument("file")
    p.add_argument("--emit-basis", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("verify", help="full invariant suite on one instance")
    p.add_argument("file")
    p.add_argument("--hodge", action="store_true")
    p.add_argument("--pairing", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weight-filtration",
                       help="monodromy filtration of a nilpotent matrix")
    p.add_argument("file", help="JSON object mapping names to rational matrices")
    p.add_argument("--operator", required=True)
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_weight_filtration)

    corpus = sub.add_parser("corpus", help="built-in instance factories")
    csub = corpus.add_subparsers(dest="factory", required=True)
    p = csub.add_parser("quadric-cone")
    p.add_argument("--m", required=True, help="rational parameter, ≥ 0")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_corpus_quadric_cone)
    p = csub.add_parser("random")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", help=f"profile JSON (default: ${PROFILE_ENV})")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_corpus_random)

    p = sub.add_parser("suite", help="batch property runner over seeds 0..n-1")
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--profile", help=f"profile JSON (default: ${PROFILE_ENV})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineDefect as exc:
        print(f"engine defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, UnicodeDecodeError) as exc:
        # a file that cannot be opened, read or decoded is bad input
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except PersplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
