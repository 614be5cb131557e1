import dataclasses
import json
from collections import Counter

import pytest

from persplit import cli, fileformat
from persplit.corpus import quadric_cone
from persplit.duality import IntersectionPairing
from persplit.errors import EngineDefect
from persplit.fileformat import save, serialize_instance
from persplit.lefschetz import StringSpec, build_split_model
from persplit.linalg import Matrix
from persplit.scalars import Rat


@pytest.fixture
def quadric_file(tmp_path):
    path = tmp_path / "quadric.json"
    save(quadric_cone(1).instance, path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate / check-hl ----------------------------------------------------

def test_validate_passes_on_quadric(capsys, quadric_file):
    code, out, _ = run(capsys, "validate", quadric_file)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_json_reports_amplitude(capsys, quadric_file):
    code, out, _ = run(capsys, "validate", quadric_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["amplitude"] == 1
    assert doc["instance_hash"].startswith("sha256:")


def test_check_hl_passes(capsys, quadric_file):
    code, out, _ = run(capsys, "check-hl", quadric_file)
    assert code == 0 and "isomorphism" in out


def test_check_hl_failure_exits_one(capsys, tmp_path):
    # unbalanced graded dimensions: a single string cut off mid-way
    doc = serialize_instance(quadric_cone(1).instance)
    doc["eta"] = []  # zero operator cannot be an isomorphism on pieces
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-hl", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["split", "verify"])
def test_empty_filtration_step_is_a_verification_failure(capsys, tmp_path, command):
    # a degree of positive dimension whose only step is zero
    doc = serialize_instance(quadric_cone(1).instance)
    doc["filtration"] = [dict(step, basis=[]) if step["d"] == 0 else step
                         for step in doc["filtration"]]
    path = tmp_path / "empty_step.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and not out
    assert err.strip() == ("verification failure: degree 0: filtration is not "
                           "exhaustive (top step has dim 0 < 1)")


def test_verify_failing_pairing_flag_exits_one(capsys, tmp_path):
    inst = quadric_cone(1).instance
    blocks = dict(inst.pairing.blocks)
    blocks[0] = blocks[0].scale(Rat(2))
    path = tmp_path / "lopsided.json"
    save(dataclasses.replace(inst, pairing=IntersectionPairing(3, inst.space, blocks)), path)
    code, _, err = run(capsys, "verify", str(path), "--pairing", "--json")
    assert code == 1
    assert err.strip() == ("verification failure: pairing compatibility flag "
                           "violated: operator self-adjointness")


def _rank_calls_per_pairing_block(monkeypatch, capsys, *argv):
    """Run the CLI; return its outcome and how often each block of the
    loaded pairing was ranked."""
    loaded, ranked = [], []
    load, rank = fileformat.load, Matrix.rank
    monkeypatch.setattr(fileformat, "load", lambda path: loaded.append(load(path)) or loaded[-1])
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(id(self)) or rank(self))
    code, _, err = run(capsys, *argv)
    counts = Counter(ranked)
    return code, err, [counts[id(blk)] for blk in loaded[0].pairing.blocks.values()]


def test_verify_ranks_each_pairing_block_once(capsys, monkeypatch, quadric_file):
    code, _, per_block = _rank_calls_per_pairing_block(
        monkeypatch, capsys, "verify", quadric_file, "--hodge", "--pairing", "--json")
    assert code == 0
    assert per_block == [1, 1, 1, 1]


def test_verify_degenerate_pairing_ranks_once_and_exits_one(capsys, monkeypatch, tmp_path):
    inst = quadric_cone(1).instance
    blocks = dict(inst.pairing.blocks)
    blocks[2] = Matrix.zero(3, 3)
    path = tmp_path / "degenerate.json"
    save(dataclasses.replace(inst, pairing=IntersectionPairing(3, inst.space, blocks)), path)
    code, err, per_block = _rank_calls_per_pairing_block(
        monkeypatch, capsys, "verify", str(path), "--hodge", "--pairing", "--json")
    assert code == 1
    assert err.strip() == ("verification failure: pairing compatibility flag "
                           "violated: operator self-adjointness")
    assert per_block == [1, 1, 0, 0]    # the verdict is settled at the zero block


# --- split / verify ---------------------------------------------------------

def test_split_emit_basis_prints_published_lifts(capsys, quadric_file):
    code, out, _ = run(capsys, "split", quadric_file, "--emit-basis")
    assert code == 0
    assert "D1 + 1/2 D" in out
    assert "D2 + 1/2 D" in out
    assert "E^(-1,2): D" in out


def test_split_json_contains_schedule(capsys, quadric_file):
    code, out, _ = run(capsys, "split", quadric_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert "(-0,2)" in doc["schedule"]
    steps = doc["schedule"]["(-0,2)"]
    assert steps[0]["t"] == 0 and steps[-1]["dim_after"] == 2


def test_verify_full_flags(capsys, quadric_file):
    code, out, _ = run(capsys, "verify", quadric_file, "--hodge", "--pairing")
    assert code == 0
    assert "sub-Hodge structure" in out
    assert "orthogonal characterization" in out
    assert "g(Δ1) = D1 + 1/2 D" in out


def test_verify_flag_without_structure_is_input_error(capsys, tmp_path):
    inst, _ = build_split_model(StringSpec(((1, 2, 1),)))
    path = tmp_path / "plain.json"
    save(inst, path)
    code, _, err = run(capsys, "verify", str(path), "--hodge")
    assert code == 2 and "input error" in err


def test_json_output_is_deterministic(capsys, quadric_file):
    _, out1, _ = run(capsys, "verify", quadric_file, "--json")
    _, out2, _ = run(capsys, "verify", quadric_file, "--json")
    assert out1 == out2


# --- weight-filtration ------------------------------------------------------

def test_weight_filtration_command(capsys, tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"N": [["0", "1"], ["0", "0"]]}))
    code, out, _ = run(capsys, "weight-filtration", str(path),
                       "--operator", "N", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"]["-1"] == [["1", "0"]]
    assert len(doc["steps"]["1"]) == 2


def test_weight_filtration_rejects_non_nilpotent(capsys, tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"N": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, "weight-filtration", str(path), "--operator", "N")
    assert code == 2 and "nilpotent" in err


def test_weight_filtration_missing_operator(capsys, tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"M": [["0"]]}))
    code, _, err = run(capsys, "weight-filtration", str(path), "--operator", "N")
    assert code == 2


ENTRY_REFUSED = "expected a rational string or an integer"


@pytest.mark.parametrize("text, message", [
    ('{"N": [[1e400]]}', ENTRY_REFUSED),             # a float that overflows
    ('{"N": [[0.5]]}', ENTRY_REFUSED),               # a float, even an exact one
    ('{"N": [[true]]}', ENTRY_REFUSED),              # a boolean is not the integer 1
    ('{"N": [[null]]}', ENTRY_REFUSED),
    ('{"N": [["0", "1"], ["0"]]}', "expected 2x2 entries"),    # ragged
    ('{"N": null}', "expected a list of rows"),
    ('{"N": "0"}', "expected a list of rows"),       # a string is not a list of rows
], ids=["1e400", "0.5", "true", "null", "ragged", "null-matrix", "string-matrix"])
def test_weight_filtration_malformed_entries_are_input_errors(capsys, tmp_path, text, message):
    path = tmp_path / "ops.json"
    path.write_text(text)
    code, out, err = run(capsys, "weight-filtration", str(path), "--operator", "N")
    assert code == 2 and err.startswith("input error:") and message in err and not out


def test_weight_filtration_accepts_json_integers(capsys, tmp_path):
    as_strings, as_ints = tmp_path / "strings.json", tmp_path / "ints.json"
    as_strings.write_text(json.dumps({"N": [["0", "1"], ["0", "0"]]}))
    as_ints.write_text(json.dumps({"N": [[0, 1], [0, 0]]}))
    outputs = [run(capsys, "weight-filtration", str(path), "--operator", "N", "--json")
               for path in (as_strings, as_ints)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


# --- corpus / suite ---------------------------------------------------------

def test_corpus_quadric_cone_round_trips(capsys, tmp_path):
    out_path = tmp_path / "qc.json"
    code, _, _ = run(capsys, "corpus", "quadric-cone", "--m", "3/2",
                     "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_path), "--pairing")
    assert code == 0


def test_corpus_random_deterministic(capsys):
    code, out1, _ = run(capsys, "corpus", "random", "--seed", "4")
    assert code == 0
    _, out2, _ = run(capsys, "corpus", "random", "--seed", "4")
    assert out1 == out2


def test_corpus_random_honors_profile_env(capsys, tmp_path, monkeypatch):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"with_pairing": True, "with_hodge": True}))
    monkeypatch.setenv(cli.PROFILE_ENV, str(prof))
    code, out, _ = run(capsys, "corpus", "random", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert "pairing" in doc and "hodge" in doc


def test_suite_runs_and_reports(capsys, tmp_path):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"with_pairing": True, "with_hodge": True}))
    code, out, _ = run(capsys, "suite", "--seeds", "5", "--profile", str(prof),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]["two-path agreement and assembly"] == \
        {"passed": 5, "total": 5}
    assert doc["checks"]["orthogonal characterization"]["total"] == 5


# --- exit codes -------------------------------------------------------------

def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/path.json")
    assert code == 2 and "input error" in err


def test_unparseable_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


# A file that cannot be read, decoded or parsed is an input error (exit 2)
# with a one-line message, never a traceback.

def test_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 2 and not out
    assert err == f"input error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_bytes_that_are_not_utf8_are_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"center": "\xe9"}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and not out
    assert err == ("input error: 'utf-8' codec can't decode byte 0xe9 in position 12: "
                   "invalid continuation byte\n")


@pytest.mark.parametrize("argv, message", [
    (("validate", "FILE"), "not valid JSON"),
    (("weight-filtration", "FILE", "--operator", "N"), "not valid JSON"),
    (("suite", "--seeds", "1", "--profile", "FILE"), "profile is not valid JSON"),
])
def test_nesting_past_the_recursion_limit_is_not_valid_json(capsys, tmp_path, argv, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2 and not out
    assert err == (f"input error: {message}: maximum recursion depth exceeded "
                   "while decoding a JSON array from a unicode string\n")


def test_corpus_output_to_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "corpus", "quadric-cone", "--m", "1", "-o", str(tmp_path))
    assert code == 2 and not out
    assert err == f"input error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_engine_defect_exit_code_through_main(capsys, quadric_file, monkeypatch):
    def defective(inst):
        raise EngineDefect("synthetic defect")
    monkeypatch.setattr(cli, "compute_splitting", defective)
    code, _, err = run(capsys, "split", quadric_file)
    assert code == 3 and "engine defect" in err


# --- bounded input ------------------------------------------------------------

@pytest.mark.parametrize("text", ["0.5", "1e5", "1e40000000"])
def test_decimal_and_exponent_strings_are_input_errors(capsys, tmp_path, text):
    doc = serialize_instance(quadric_cone(1).instance)
    doc["eta"][0]["matrix"][0][0] = text
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(doc))
    operator = tmp_path / "ops.json"
    operator.write_text(json.dumps({"N": [["0", text], ["0", "0"]]}))
    for argv in (("validate", str(instance)),
                 ("weight-filtration", str(operator), "--operator", "N"),
                 ("corpus", "quadric-cone", "--m", text)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("input error:") and text in err and not out


@pytest.mark.parametrize("digits", [4300, 4301])
def test_entries_longer_than_the_digit_limit_are_refused_briefly(capsys, tmp_path, digits):
    accepted, big = "7" * 4300, "7" * digits
    instance = tmp_path / "instance.json"
    assert run(capsys, "corpus", "quadric-cone", "--m", accepted, "--output", str(instance))[0] == 0
    instance.write_text(instance.read_text().replace(accepted, big))
    argvs = [("validate", str(instance))]
    for k, entry in enumerate((big, "1/" + big)):     # numerator, then denominator
        operator = tmp_path / f"ops{k}.json"
        operator.write_text(json.dumps({"N": [["0", entry], ["0", "0"]]}))
        argvs += [("weight-filtration", str(operator), "--operator", "N"),
                  ("corpus", "quadric-cone", "--m", entry)]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        if digits == 4300:
            assert code == 0 and out and not err
        else:
            assert code == 2 and not out and err.startswith("input error:")
            assert len(err.encode()) < 200 and "4301 digits" in err


@pytest.mark.parametrize("record, message", [
    ({"max_strings": "a"}, "'max_strings' must be an integer"),
    ({"max_strings": 0}, "'max_strings' must be ≥ 1"),
    ({"max_mult": -1}, "'max_mult' must be ≥ 1"),
    ({"max_string_length": -1}, "'max_string_length' must be ≥ 0"),
    ({"degree_span": -2}, "'degree_span' must be ≥ 0"),
    ({"twist_bound": 1.5}, "'twist_bound' must be an integer"),
    ({"twist_bound": -1}, "'twist_bound' must be ≥ 0"),
    ({"max_mult": True}, "'max_mult' must be an integer"),
    ({"with_hodge": 1}, "'with_hodge' must be true or false"),
    ({"with_pairing": "yes"}, "'with_pairing' must be true or false"),
])
def test_bad_profile_fields_are_input_errors(capsys, tmp_path, record, message):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps(record))
    for argv in (("corpus", "random", "--seed", "1", "--profile", str(prof)),
                 ("suite", "--seeds", "1", "--profile", str(prof))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("input error:") and message in err and not out


def test_profile_bounds_are_inclusive(capsys, tmp_path):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"max_strings": 1, "max_mult": 1, "max_string_length": 0,
                                "degree_span": 0, "twist_bound": 0,
                                "with_hodge": False, "with_pairing": True}))
    code, _, _ = run(capsys, "suite", "--seeds", "2", "--profile", str(prof))
    assert code == 0
