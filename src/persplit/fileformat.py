"""JSON instance files and verification reports.

The on-disk format is JSON with canonical ordering (sorted object keys,
two-space indent) and string-encoded exact scalars, so serialized
instances are diff-able and round-trip bit-exactly.  Parse errors carry
JSON-pointer-style locations.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring

from .duality import IntersectionPairing
from .errors import ParseError
from .graded import Filtration, GradedMap, GradedSpace
from .hodge import HodgeBigrading
from .instance import PerverseLefschetzInstance
from .linalg import Matrix, Subspace
from .scalars import FIELD_Q, FIELD_QI, format_ratio, parse_scalar
from .version import __version__

FORMAT_NAME = "perverse-lefschetz-instance"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# serialization


def matrix_record(m: Matrix, strings: dict):
    """The entries of ``m``, row by row, formatted from the integer rows:
    ``strings`` maps a denominator q to the strings of the n/q formatted so
    far, keyed by n, so a document that shares one dict formats each
    distinct (n, q) once.  Over ℚ(i), stored row 2r lists the real and the
    imaginary part of each entry of row r; a real entry is its string, any
    other one ``{"re": …, "im": …}``."""
    complex_rows = m.field == FIELD_QI
    record = []
    for nums, q in m.integer_rows()[::2 if complex_rows else 1]:
        texts = strings.get(q)
        if texts is None:
            texts = strings[q] = {}
        row = []
        for n in nums:
            text = texts.get(n)
            if text is None:
                text = texts[n] = format_ratio(n, q)
            row.append(text)
        if complex_rows:
            row = [re if not im else {"re": re, "im": im_text}
                   for re, im_text, im in zip(row[::2], row[1::2], nums[1::2])]
        record.append(row)
    return record


def _blocks_record(blocks: dict, strings: dict):
    return [{"d": d, "matrix": matrix_record(blk, strings)} for d, blk in sorted(blocks.items())]


def serialize_instance(inst: PerverseLefschetzInstance) -> dict:
    strings = {}
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "center": inst.center,
        "degrees": [
            {"d": d, "dim": inst.space.dim(d),
             **({"labels": list(inst.space.labels[d])}
                if d in inst.space.labels else {})}
            for d in inst.space.degrees
        ],
        "filtration": [
            {"d": d, "i": i, "basis": matrix_record(sub.basis, strings)}
            for (d, i), sub in sorted(inst.filtration.steps.items())
        ],
        "eta": _blocks_record(inst.eta.blocks, strings),
    }
    if inst.hodge is not None:
        doc["hodge"] = [
            {"d": d, "p": p, "q": q, "basis": matrix_record(sub.basis, strings)}
            for (d, p, q), sub in sorted(inst.hodge.pieces.items())
        ]
    if inst.pairing is not None:
        doc["pairing"] = {"n": inst.pairing.center,
                          "blocks": _blocks_record(inst.pairing.blocks, strings)}
    if inst.groups is not None:
        doc["groups"] = [
            {"name": name, "generators": [_blocks_record(gen.blocks, strings) for gen in gens]}
            for name, gens in sorted(inst.groups.items())
        ]
    return doc


def canonical_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
    plus a newline, byte for byte, for a document whose object keys are
    strings (a non-string key raises ``TypeError``).  With an indent,
    ``json`` runs its pure-Python encoder; this writer formats strings
    with the C ``encode_basestring`` and builds the text in one join."""
    parts = []
    _write_json(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline, parts):
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {str}:      # such as a matrix row
            parts.append("[" + inner + ("," + inner).join(map(encode_basestring, value))
                         + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + encode_basestring(key) + ": ")
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif type(value) is int:
        parts.append(repr(value))
    else:
        parts.append(json.dumps(value))


def serialize(inst: PerverseLefschetzInstance) -> str:
    return canonical_text(serialize_instance(inst))


def instance_hash(inst: PerverseLefschetzInstance) -> str:
    return "sha256:" + hashlib.sha256(serialize(inst).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing


def _expect(cond, message, pointer):
    if not cond:
        raise ParseError(message, pointer)


def _get(obj, key, pointer, kind=None):
    _expect(isinstance(obj, dict), "expected an object", pointer)
    _expect(key in obj, f"missing field {key!r}", pointer)
    value = obj[key]
    if kind is not None:
        _expect(isinstance(value, kind) and not isinstance(value, bool),
                f"field {key!r} has the wrong type", f"{pointer}/{key}")
    return value


def _parse_matrix(rows, cols, obj, pointer, scalars, field=FIELD_Q):
    """The ``rows × cols`` matrix of the list ``obj``.  ``scalars`` maps each
    entry string already parsed in this file, over ``field``, to its
    value, so each distinct string is parsed once.  The value is kept as
    its (numerator, denominator) pair over ℚ and as the pairs of its real
    and imaginary part over ℚ(i), from which the integer rows are built."""
    _expect(isinstance(obj, list) and len(obj) == rows,
            f"expected {rows} rows", pointer)
    data = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == cols,
                f"expected {cols} entries", f"{pointer}/{r}")
        out = []
        for c, entry in enumerate(row):
            value = scalars.get(entry) if type(entry) is str else None
            if value is None:
                try:
                    value = parse_scalar(entry, field)
                except ValueError as exc:
                    raise ParseError(str(exc), f"{pointer}/{r}/{c}") from None
                value = value.as_integer_ratio() if field == FIELD_Q else \
                    (value.re.as_integer_ratio(), value.im.as_integer_ratio())
                if type(entry) is str:
                    scalars[entry] = value
            out.append(value)
        data.append(out)
    return Matrix.from_ratios(rows, cols, data, field)


def _parse_blocks(records, pointer, noun, dims, shape, scalars):
    """``{d: matrix}`` from a list of ``{"d", "matrix"}`` records; the
    block at degree d must have shape ``shape(d)``."""
    blocks = {}
    for k, rec in enumerate(records):
        ptr = f"{pointer}/{k}"
        d = _get(rec, "d", ptr, int)
        _expect(d in dims, f"{noun} block in unknown degree {d}", f"{ptr}/d")
        _expect(d not in blocks, f"duplicate {noun} block at degree {d}", ptr)
        blocks[d] = _parse_matrix(*shape(d), _get(rec, "matrix", ptr, list),
                                  f"{ptr}/matrix", scalars)
    return blocks


def parse_instance(doc) -> PerverseLefschetzInstance:
    _expect(isinstance(doc, dict), "top-level value must be an object", "")
    _expect(doc.get("format") == FORMAT_NAME,
            f"unknown format (expected {FORMAT_NAME!r})", "/format")
    _expect(doc.get("version") == FORMAT_VERSION,
            f"unsupported version (expected {FORMAT_VERSION})", "/version")
    center = _get(doc, "center", "", int)
    # entry string -> value, one dict per field and per parse
    rationals, gaussians = {}, {}

    dims, labels = {}, {}
    degs = _get(doc, "degrees", "", list)
    for k, rec in enumerate(degs):
        ptr = f"/degrees/{k}"
        d = _get(rec, "d", ptr, int)
        dim = _get(rec, "dim", ptr, int)
        _expect(dim >= 0, "dimension must be ≥ 0", f"{ptr}/dim")
        _expect(d not in dims, f"duplicate degree {d}", f"{ptr}/d")
        dims[d] = dim
        if "labels" in rec:
            ls = rec["labels"]
            _expect(isinstance(ls, list) and all(isinstance(x, str) for x in ls)
                    and len(ls) == dim, f"expected {dim} label strings", f"{ptr}/labels")
            labels[d] = tuple(ls)
    space = GradedSpace(dims, labels)

    steps = {}
    for k, rec in enumerate(_get(doc, "filtration", "", list)):
        ptr = f"/filtration/{k}"
        d = _get(rec, "d", ptr, int)
        i = _get(rec, "i", ptr, int)
        basis = _get(rec, "basis", ptr, list)
        _expect(d in dims, f"filtration step in unknown degree {d}", f"{ptr}/d")
        _expect((d, i) not in steps, f"duplicate filtration step ({d}, {i})", ptr)
        mat = _parse_matrix(len(basis), dims[d], basis, f"{ptr}/basis", rationals)
        steps[(d, i)] = Subspace(dims[d], mat)
    filtration = Filtration(space, steps)

    eta_blocks = _parse_blocks(_get(doc, "eta", "", list), "/eta", "operator", dims,
                               lambda d: (dims.get(d + 2, 0), dims[d]), rationals)
    eta = GradedMap(2, eta_blocks, space)

    hodge = None
    if "hodge" in doc:
        pieces, weights = {}, {}
        for k, rec in enumerate(_get(doc, "hodge", "", list)):
            ptr = f"/hodge/{k}"
            d = _get(rec, "d", ptr, int)
            p = _get(rec, "p", ptr, int)
            q = _get(rec, "q", ptr, int)
            _expect(d in dims, f"bigrading piece in unknown degree {d}", f"{ptr}/d")
            _expect(weights.setdefault(d, p + q) == p + q,
                    f"inconsistent weight in degree {d}", ptr)
            basis = _get(rec, "basis", ptr, list)
            mat = _parse_matrix(len(basis), dims[d], basis, f"{ptr}/basis", gaussians,
                                FIELD_QI)
            pieces[(d, p, q)] = Subspace(dims[d], mat)
        for d in space.degrees:
            _expect(d in weights, f"no bigrading pieces in degree {d}", "/hodge")
        hodge = HodgeBigrading(space, weights, pieces)

    pairing = None
    if "pairing" in doc:
        rec = doc["pairing"]
        n = _get(rec, "n", "/pairing", int)
        _expect(n == center, "pairing center differs from the instance center",
                "/pairing/n")
        blocks = _parse_blocks(_get(rec, "blocks", "/pairing", list), "/pairing/blocks",
                               "pairing", dims, lambda d: (dims[d], dims.get(2 * n - d, 0)),
                               rationals)
        pairing = IntersectionPairing(n, space, blocks)

    groups = None
    if "groups" in doc:
        groups = {}
        for k, rec in enumerate(_get(doc, "groups", "", list)):
            ptr = f"/groups/{k}"
            name = _get(rec, "name", ptr, str)
            gens = []
            for g, grec in enumerate(_get(rec, "generators", ptr, list)):
                gptr = f"{ptr}/generators/{g}"
                _expect(isinstance(grec, list), "expected a list of blocks", gptr)
                blocks = _parse_blocks(grec, gptr, "generator", dims,
                                       lambda d: (dims[d], dims[d]), rationals)
                gens.append(GradedMap(0, blocks, space))
            groups[name] = tuple(gens)

    return PerverseLefschetzInstance(center=center, space=space,
                                     filtration=filtration, eta=eta,
                                     hodge=hodge, pairing=pairing, groups=groups)


def parse(text: str) -> PerverseLefschetzInstance:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}", "") from None
    return parse_instance(doc)


def load(path) -> PerverseLefschetzInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(inst: PerverseLefschetzInstance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(inst))


# ---------------------------------------------------------------------------
# reports


def make_report(command: str, inst: PerverseLefschetzInstance, checks,
                *, seed=None, extra=None) -> dict:
    """Machine-readable verification report.

    ``checks`` is a list of ``(name, verdict, detail)`` with verdict one
    of "pass"/"fail"/"skipped"; the header pins engine version and the
    canonical instance hash so identical invocations are byte-identical.
    """
    doc = {
        "command": command,
        "engine_version": __version__,
        "instance_hash": instance_hash(inst),
        "checks": [{"name": n, "verdict": v, **({"detail": det} if det else {})}
                   for (n, v, det) in checks],
        "passed": all(v != "fail" for (_, v, _) in checks),
    }
    if seed is not None:
        doc["seed"] = seed
    if extra:
        doc.update(extra)
    return doc
