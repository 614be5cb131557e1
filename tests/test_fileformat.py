import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from persplit.corpus import GeneratorProfile, quadric_cone, random_instance
from persplit.errors import ParseError
from persplit.fileformat import (FORMAT_NAME, FORMAT_VERSION, canonical_text,
                                 instance_hash, load, make_report, parse,
                                 parse_instance, save, serialize, serialize_instance)
from persplit.graded import GradedMap
from persplit.linalg import Matrix
from persplit.scalars import Gaussian


FULL_PROFILE = GeneratorProfile(with_hodge=True, with_pairing=True)


def test_serialized_header_and_determinism():
    inst = quadric_cone(1).instance
    text = serialize(inst)
    doc = json.loads(text)
    assert doc["format"] == FORMAT_NAME and doc["version"] == FORMAT_VERSION
    assert serialize(inst) == text  # byte-identical on repeat
    assert text.endswith("\n")
    assert instance_hash(inst).startswith("sha256:")


def test_round_trip_quadric_cone():
    inst = quadric_cone(2).instance
    again = parse(serialize(inst))
    assert again.center == inst.center
    assert again.space == inst.space
    assert again.space.labels == inst.space.labels
    assert again.filtration == inst.filtration
    assert again.eta == inst.eta
    assert again.hodge == inst.hodge
    assert again.pairing == inst.pairing
    assert serialize(again) == serialize(inst)


def test_round_trip_seeded_instances_bit_exact():
    for seed in range(40):
        inst = random_instance(seed, FULL_PROFILE).instance
        assert serialize(parse(serialize(inst))) == serialize(inst)


def test_round_trip_groups():
    inst = quadric_cone(1).instance
    swap = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 3)
    gens = (GradedMap(0, {2: swap, 4: swap}, inst.space),)
    from persplit.instance import PerverseLefschetzInstance
    dressed = PerverseLefschetzInstance(
        center=inst.center, space=inst.space, filtration=inst.filtration,
        eta=inst.eta, groups={"ruling-swap": gens})
    again = parse(serialize(dressed))
    assert set(again.groups) == {"ruling-swap"}
    assert again.groups["ruling-swap"][0].block(2) == swap


def test_save_and_load(tmp_path):
    inst = quadric_cone(3).instance
    path = tmp_path / "instance.json"
    save(inst, path)
    assert load(path).eta == inst.eta


def test_parse_rejects_wrong_format_and_version():
    doc = serialize_instance(quadric_cone(1).instance)
    bad = dict(doc, format="something-else")
    with pytest.raises(ParseError) as exc:
        parse_instance(bad)
    assert exc.value.pointer == "/format"
    bad = dict(doc, version=99)
    with pytest.raises(ParseError) as exc:
        parse_instance(bad)
    assert exc.value.pointer == "/version"


def test_parse_error_pointers_locate_bad_entries():
    doc = serialize_instance(quadric_cone(1).instance)
    doc["eta"][0]["matrix"][0][0] = "1/0"
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer == "/eta/0/matrix/0/0"


def test_parse_error_names_the_first_of_repeated_bad_entries():
    # each distinct entry string is parsed once per file; a bad one is
    # still reported where it first occurs, in the order of the document
    doc = serialize_instance(quadric_cone(1).instance)
    doc["eta"][1]["matrix"][1][0] = "1/0"
    doc["filtration"][3]["basis"][1][2] = "1/0"
    doc["filtration"][3]["basis"][0][1] = "0"       # parsed before, and good
    doc["filtration"][4]["basis"][0][0] = "1/0"
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer == "/filtration/3/basis/1/2"
    assert "bad rational '1/0'" in str(exc.value)


def _respelled(text, ones):
    """A spelling of the rational ``text`` that is not the canonical one."""
    value = Fraction(text)
    if value == 0:
        return "-0"
    if value == 1:
        return next(ones)
    if value.denominator == 1:
        return f"{text}/1"
    return f"{2 * value.numerator}/{2 * value.denominator}"


def test_hash_is_the_hash_of_the_canonical_rewrite():
    # non-reduced entries, a basis that is not in echelon form and compact
    # whitespace all read as the instance they stand for, and hash as it
    inst = quadric_cone(Fraction(1, 2)).instance
    doc = serialize_instance(inst)
    step = doc["filtration"][3]                       # two rows in degree 4
    rows = [[Fraction(x) for x in row] for row in step["basis"]]
    mixed = [rows[1], [a + b for a, b in zip(rows[0], rows[1])]]
    assert mixed != rows
    step["basis"] = [[str(x) for x in row] for row in mixed]
    ones = itertools.cycle(("01", "1/1"))
    seen = set()

    def respell(entry):
        if isinstance(entry, dict):
            return {k: respell(v) for k, v in entry.items()}
        seen.add(entry)
        return _respelled(entry, ones)

    records = (doc["filtration"] + doc["hodge"]
               + doc["eta"] + doc["pairing"]["blocks"])
    for rec in records:
        key = "matrix" if "matrix" in rec else "basis"
        rec[key] = [[respell(x) for x in row] for row in rec[key]]
    assert {"0", "1", "-1", "1/2"} <= seen
    text = json.dumps(doc, separators=(",", ":"))
    assert all(form in text for form in ('"2/4"', '"-0"', '"01"', '"1/1"', '"-1/1"'))

    parsed = parse(text)
    assert serialize(parsed) == serialize(inst)
    assert instance_hash(parsed) == instance_hash(inst)
    # a string parsed over Q is parsed again over Q(i), not shared
    assert all(type(x) is Gaussian for sub in parsed.hodge.pieces.values()
               for row in sub.basis.data for x in row)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example(["say \"hi\"", "back\\slash", {"\"": "'"}])
@example(["\x00\x1f\x7f", "tab\tnew\nline\r", "\u2028\u2029"])
@example({"ключ": ["ü", "中文", "𝔽", "é"], "": None, "z": [True, False, 0, -12]})
@example([["1", "-2/3"], ["0", "0"]])
def test_canonical_text_matches_json_dumps(value):
    want = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_text(value) == want


def test_parse_rejects_duplicate_and_unknown_degrees():
    doc = serialize_instance(quadric_cone(1).instance)
    doc["degrees"].append({"d": 2, "dim": 3})
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer == "/degrees/4/d"
    doc = serialize_instance(quadric_cone(1).instance)
    doc["filtration"][0]["d"] = 8
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer.startswith("/filtration/0")


def test_parse_rejects_pairing_center_mismatch():
    doc = serialize_instance(quadric_cone(1).instance)
    doc["pairing"]["n"] = 2
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer == "/pairing/n"


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse("{not json")


def test_hodge_requires_pieces_in_every_degree():
    doc = serialize_instance(quadric_cone(1).instance)
    doc["hodge"] = [rec for rec in doc["hodge"] if rec["d"] != 6]
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert exc.value.pointer == "/hodge"


def test_make_report_structure():
    inst = quadric_cone(1).instance
    report = make_report("verify", inst,
                         [("hl", "pass", ""), ("hodge", "skipped", "no flag")],
                         seed=7)
    assert report["passed"] is True
    assert report["instance_hash"] == instance_hash(inst)
    assert report["seed"] == 7
    assert report["checks"][1] == {"name": "hodge", "verdict": "skipped",
                                   "detail": "no flag"}
    failing = make_report("verify", inst, [("hl", "fail", "witness")])
    assert failing["passed"] is False


def _grouped_doc():
    inst = quadric_cone(1).instance
    swap = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 3)
    from persplit.instance import PerverseLefschetzInstance
    dressed = PerverseLefschetzInstance(
        center=inst.center, space=inst.space, filtration=inst.filtration,
        eta=inst.eta, pairing=inst.pairing,
        groups={"swap": (GradedMap(0, {2: swap, 4: swap}, inst.space),)})
    return serialize_instance(dressed)


def _blocks_at(doc, where):
    if where == "eta":
        return doc["eta"]
    if where == "pairing":
        return doc["pairing"]["blocks"]
    return doc["groups"][0]["generators"][0]


@pytest.mark.parametrize("where, mutate, message", [
    ("eta", "duplicate", "/eta/3: duplicate operator block at degree 0"),
    ("eta", "unknown", "/eta/1/d: operator block in unknown degree 9"),
    ("eta", "shape", "/eta/1/matrix: expected 3 rows"),
    ("eta", "no matrix", "/eta/1: missing field 'matrix'"),
    ("pairing", "duplicate", "/pairing/blocks/4: duplicate pairing block at degree 0"),
    ("pairing", "unknown", "/pairing/blocks/1/d: pairing block in unknown degree 9"),
    ("pairing", "shape", "/pairing/blocks/1/matrix: expected 3 rows"),
    ("pairing", "no matrix", "/pairing/blocks/1: missing field 'matrix'"),
    ("generator", "duplicate",
     "/groups/0/generators/0/2: duplicate generator block at degree 2"),
    ("generator", "unknown", "/groups/0/generators/0/1/d: generator block in unknown degree 9"),
    ("generator", "shape", "/groups/0/generators/0/1/matrix: expected 3 rows"),
    ("generator", "no matrix", "/groups/0/generators/0/1: missing field 'matrix'"),
])
def test_block_lists_share_one_parser(where, mutate, message):
    # the eta, pairing and generator block lists give the same checks with
    # the same messages; a generator listing a degree twice is refused too
    doc = _grouped_doc()
    blocks = _blocks_at(doc, where)
    if mutate == "duplicate":
        blocks.append(dict(blocks[0]))
    elif mutate == "unknown":
        blocks[1]["d"] = 9
    elif mutate == "shape":
        blocks[1]["matrix"] = [["1"]]
    else:
        del blocks[1]["matrix"]
    with pytest.raises(ParseError) as exc:
        parse_instance(doc)
    assert str(exc.value) == message
