"""Command line behavior: verbs, formats, goldens, and exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from pretopo.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"

MATRIX_GOLDEN = (
    "    {z1}  {z2}  {z1,z3}  {z2,z3,z4}  {z1,z3,z4,z5}\n"
    "z1   1     0       1         0             1      \n"
    "z2   0     1       0         1             0      \n"
    "z3   0     0       1         1             1      \n"
    "z4   0     0       0         1             1      \n"
    "z5   0     0       0         0             1      \n"
    "\n"
    "    {z1,z3}  {z2,z3,z4}  {z1,z3,z4,z5}  {z1}  {z2}\n"
    "z3     1         1             1         0     0  \n"
    "z1     1         0             1         1     0  \n"
    "z2     0         1             0         0     1  \n"
    "z4     0         1             1         0     0  \n"
    "z5     0         0             1         0     0  \n"
    "\n"
    "    {z1,z3}  {z2,z3,z4}  {z1,z3,z4,z5}  {z1}  {z2}\n"
    "z3     1         1             1         0     0  \n"
    "z1     1         0             1         1     0  \n"
    "z2     0         1             0         0     1  \n"
    "\n"
    "D = {z1,z2}\n"
    "|D| = 2\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_verb(capsys):
    code, out, err = run(capsys, "check", str(FIX / "e0.json"))
    assert code == 0 and err == ""
    assert out == (
        "items 4\n"
        "states 8\n"
        "knowledge structure true\n"
        "knowledge space true\n"
        "quasi ordinal false\n"
        "topology false\n"
    )


def test_check_rejects_a_family_missing_the_universe(capsys):
    code, out, err = run(capsys, "check", str(FIX / "notcover.json"))
    assert code == 1
    assert err.startswith("CoverError")


def test_base_verb(capsys):
    code, out, _ = run(capsys, "base", str(FIX / "e1_tau.json"))
    assert code == 0
    assert out == (
        "{z1,z2}\n{z1,z3}\n{z1,z4}\n{z2,z3}\n{z2,z4}\n{z3,z4}\nweight 6\n"
    )


def test_closure_verb(capsys):
    code, out, _ = run(capsys, "closure", str(FIX / "e0.json"), "z2,z3")
    assert code == 0
    assert out == (
        "set {z2,z3}\n"
        "closure {z2,z3}\n"
        "interior {}\n"
        "boundary {z2,z3}\n"
        "derived {}\n"
        "dense false\n"
    )


def test_closure_of_the_empty_set(capsys):
    code, out, _ = run(capsys, "closure", str(FIX / "e0.json"), "-")
    assert code == 0
    assert out.startswith("set {}\n")


def test_separation_verb(capsys):
    code, out, _ = run(capsys, "separation", str(FIX / "e0.json"))
    assert code == 0
    assert out == (
        "t0 true\n"
        "t1 false\n"
        "t2 false\n"
        "regular false\n"
        "t3 false\n"
        "normal false\n"
        "t4 false\n"
        "discriminative true\n"
        "bi-discriminative false\n"
        "completely discriminative false\n"
    )


def test_connectivity_verb(capsys):
    code, out, _ = run(capsys, "connectivity", str(FIX / "tight.json"))
    assert code == 0
    assert out == (
        "connected false\n"
        "separation {z1,z2} {z3,z4}\n"
        "clopen {z1} {z4} {z1,z2} {z3,z4} {z1,z2,z3} {z2,z3,z4}\n"
        "tight 1-connected true\n"
        "well graded true\n"
    )


def test_fringe_verb(capsys):
    code, out, _ = run(capsys, "fringe", str(FIX / "tight.json"), "z1,z2")
    assert code == 0
    assert out == (
        "state {z1,z2}\n"
        "inner {z2}\n"
        "outer {z3,z4}\n"
        "locally closed {z2,z3,z4}\n"
    )


def test_reduce_verb(capsys):
    code, out, _ = run(capsys, "reduce", str(FIX / "ord6.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classes {z1,z3} {z2} {z4} {z5,z6}"
    assert len(lines) == 13
    assert lines[1] == "{}"
    assert lines[-1] == "{z1+z3,z2,z4,z5+z6}"


def test_reduce_tells_apart_class_labels_that_collide(capsys, tmp_path):
    """The classes {a, b} and {a+b} would both be labelled 'a+b'."""
    f = tmp_path / "collide.json"
    f.write_text(
        json.dumps(
            {"universe": ["a", "b", "a+b"], "states": [[], ["a", "b"], ["a", "b", "a+b"]]}
        )
    )
    code, out, err = run(capsys, "reduce", str(f), "--format", "json")
    assert code == 0 and err == ""
    reduced = json.loads(out)["reduced"]
    assert reduced["universe"] == ["a+b#1", "a+b#2"]
    assert len(set(reduced["universe"])) == len(reduced["universe"])
    assert reduced["states"] == [[], ["a+b#1"], ["a+b#1", "a+b#2"]]


def test_order_verb_on_a_space(capsys):
    code, out, _ = run(capsys, "order", str(FIX / "ord6.json"))
    assert code == 0
    assert out == (
        "z1 <= z2\nz1 <= z3\nz3 <= z1\nz3 <= z2\nz5 <= z6\nz6 <= z5\n"
    )


def test_order_verb_on_a_quasi_order(capsys, tmp_path):
    f = tmp_path / "leq.json"
    f.write_text(json.dumps({
        "universe": ["a1", "a2", "a3"],
        "leq": [["a1", "a2"], ["a1", "a3"], ["a2", "a3"]],
    }))
    code, out, _ = run(capsys, "order", str(f))
    assert code == 0
    assert out == "{}\n{a1}\n{a1,a2}\n{a1,a2,a3}\n"


def test_order_verb_on_a_discrete_space(capsys, tmp_path):
    f = tmp_path / "power.json"
    f.write_text(json.dumps({
        "universe": ["a", "b"],
        "states": [[], ["a"], ["b"], ["a", "b"]],
    }))
    code, out, _ = run(capsys, "order", str(f))
    assert code == 0
    assert out == "(discrete order)\n"


def test_delineate_verb(capsys, tmp_path):
    f = tmp_path / "mm.json"
    f.write_text(json.dumps({
        "items": ["q1", "q2"],
        "skills": ["s1", "s2"],
        "mu": {"q1": [["s1"]], "q2": [["s1", "s2"]]},
    }))
    code, out, _ = run(capsys, "delineate", str(f))
    assert code == 0
    assert out == (
        "{}\n"
        "{q1}\n"
        "{q1,q2}\n"
        "knowledge space true\n"
        "characterization agrees true\n"
        "star condition true\n"
        "completely discriminative false\n"
    )
    code, out, _ = run(capsys, "delineate", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "states": [[], ["q1"], ["q1", "q2"]],
        "knowledge_space": True,
        "characterization_agrees": True,
        "star_condition": True,
        "completely_discriminative": False,
    }


def test_primary_items_matrix_golden(capsys):
    code, out, _ = run(
        capsys, "primary-items", str(FIX / "alg5.json"), "--method", "matrix"
    )
    assert code == 0
    assert out == MATRIX_GOLDEN


def test_primary_items_greedy(capsys):
    code, out, _ = run(
        capsys, "primary-items", str(FIX / "alg5.json"), "--method", "greedy"
    )
    assert code == 0
    assert out == (
        "picked z3 block {z1,z3} {z2,z3,z4} {z1,z3,z4,z5}\n"
        "picked z1 block {z1}\n"
        "picked z2 block {z2}\n"
        "D = {z1,z2}\n"
        "|D| = 2\n"
    )


def test_primary_items_exact(capsys):
    code, out, _ = run(
        capsys, "primary-items", str(FIX / "vertex_cover.json"), "--method", "exact"
    )
    assert code == 0
    assert out == "D = {z1,z2}\n|D| = 2\nd(Q) = 2\n"


def test_primary_items_matrix_needs_a_minimal_base(capsys, tmp_path):
    f = tmp_path / "redundant.json"
    f.write_text(json.dumps({
        "universe": ["z1", "z2"],
        "states": [["z1"], ["z2"], ["z1", "z2"]],
    }))
    code, _, err = run(capsys, "primary-items", str(f), "--method", "matrix")
    assert code == 1
    assert err.startswith("NotMinimalPreBase")


def test_map_verb(capsys, tmp_path):
    f = tmp_path / "pmap.json"
    f.write_text(json.dumps({
        "map": {"z1": "z1", "z2": "z2", "z3": "z3", "z4": "z4"}
    }))
    code, out, _ = run(
        capsys, "map", str(f), str(FIX / "e1_tau.json"), str(FIX / "e1_delta.json")
    )
    assert code == 0
    assert out == (
        "pre-continuous false\n"
        "witness {z3}\n"
        "pre-open false\n"
        "pre-closed false\n"
        "pre-quotient false\n"
        "pre-homeomorphism false\n"
    )


def test_product_verb(capsys, tmp_path):
    f = tmp_path / "small.json"
    f.write_text(json.dumps({
        "universe": ["a", "b"], "states": [[], ["a"], ["a", "b"]]
    }))
    code, out, _ = run(capsys, "product", str(f), str(f))
    assert code == 0
    assert out == "items 4\nstates 6\n"


def test_product_table_serializes_nothing(capsys, monkeypatch):
    """The table reports counts only: no state is serialized and no item
    set is built."""
    from pretopo.core import SetFamily

    def unused(self):
        raise AssertionError("the table output built the states")

    monkeypatch.setattr(SetFamily, "to_obj", unused)
    monkeypatch.setattr(SetFamily, "members", property(unused))
    code, out, _ = run(capsys, "product", str(FIX / "e1_tau.json"), str(FIX / "rnn.json"))
    assert code == 0
    assert out == "items 20\nstates 88565\n"


def test_mine_verb_table(capsys):
    code, out, _ = run(
        capsys, "mine", "-n", "2", "--suite", "closure-axioms,dense-ge-cellularity"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["closure-axioms", "holds", "checked=4", "violations=0"]
    assert lines[1].split() == [
        "dense-ge-cellularity", "holds", "checked=4", "violations=0",
    ]


def test_mine_verb_json_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "mine", "-n", "2", "--suite", "closure-axioms",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out) == json.loads(out_file.read_text())
    assert json.loads(out)[0]["theorem"] == "closure-axioms"


@pytest.mark.parametrize(
    "suite, ident",
    [("nope", "'nope'"), ("closure-axioms,", "''")],
    ids=["unknown-id", "empty-id"],
)
def test_mine_unknown_theorem_id_exits_two(capsys, suite, ident):
    code, out, err = run(capsys, "mine", "-n", "2", "--suite", suite)
    assert code == 2 and out == ""
    assert err == f"SchemaError: unknown theorem id: {ident}\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_mine_universe_size_below_one_exits_two(capsys, n):
    code, out, err = run(capsys, "mine", "-n", n)
    assert code == 2 and out == ""
    assert err == f"SchemaError: -n must be at least 1, got {n}\n"


def test_json_format_is_parseable(capsys):
    code, out, _ = run(
        capsys, "closure", str(FIX / "e0.json"), "z2,z3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["closure"] == ["z2", "z3"]
    assert obj["interior"] == []


def test_bad_json_exits_two(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"universe": ["a"], "states": [[],')
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert err.startswith("JSONDecodeError: line ")


@pytest.mark.parametrize(
    "content, error",
    [(b"\xff{}", "UnicodeDecodeError"), (b"[" * 100_000, "SchemaError")],
    ids=["not-utf8", "nested-too-deeply"],
)
def test_unreadable_json_exits_two(capsys, tmp_path, content, error):
    f = tmp_path / "unreadable.json"
    f.write_bytes(content)
    code, out, err = run(capsys, "check", str(f))
    assert code == 2 and out == ""
    assert err.startswith(error)


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2


def test_unknown_item_exits_two(capsys):
    code, _, err = run(capsys, "closure", str(FIX / "e0.json"), "z9")
    assert code == 2
    assert err.startswith("SchemaError")


def test_installed_entry_point_matches_in_process_output(capsys):
    expected = run(capsys, "separation", str(FIX / "e0.json"))[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pretopo.cli", "separation", str(FIX / "e0.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_bound_lasts_for_one_command(capsys, monkeypatch):
    import os

    import fixture_files as fixtures

    from pretopo import cardinal, miner

    monkeypatch.delenv("PRETOPO_BOUND", raising=False)
    main(["mine", "-n", "2", "--suite", "closure-axioms", "--bound", "3"])
    capsys.readouterr()
    assert "PRETOPO_BOUND" not in os.environ
    assert cardinal.cellularity(fixtures.space("e0")) >= 1
    assert len(miner.enumerate_spaces(4)) == 2271
    monkeypatch.setenv("PRETOPO_BOUND", "5")
    main(["mine", "-n", "2", "--suite", "closure-axioms", "--bound", "3"])
    assert os.environ["PRETOPO_BOUND"] == "5"


def test_bound_reaches_only_the_verbs_own_guards(capsys, monkeypatch):
    # --bound 3 covers the 3-point space stream; the cellularity guard
    # inside the check keeps its own default
    monkeypatch.delenv("PRETOPO_BOUND", raising=False)
    code, out, err = run(
        capsys, "mine", "-n", "3", "--suite", "dense-ge-cellularity", "--bound", "3"
    )
    assert code == 0 and err == ""
    assert "holds" in out and "checked=45" in out


@pytest.mark.parametrize(
    "verb, obj",
    [
        ("check", {"universe": [], "states": [[]]}),
        ("check", {"universe": ["a", "a"], "states": [[], ["a"]]}),
        ("delineate", {"items": ["q1"], "skills": [], "mu": {"q1": [["s1"]]}}),
    ],
    ids=["empty-universe", "duplicate-labels", "empty-skill-list"],
)
def test_malformed_universe_exits_two(capsys, tmp_path, verb, obj):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, verb, str(f))
    assert code == 2 and out == ""
    assert err.startswith("SchemaError")


def test_every_reader_rejects_an_empty_universe():
    from pretopo import ClosureOperatorTable, QuasiOrder, SchemaError, SetFamily, SkillMultimap

    for read, obj in (
        (SetFamily.from_obj, {"universe": [], "states": []}),
        (QuasiOrder.from_obj, {"universe": [], "leq": []}),
        (SkillMultimap.from_obj, {"items": [], "skills": ["s1"], "mu": {}}),
        (ClosureOperatorTable.from_obj, {"universe": [], "closure": []}),
    ):
        with pytest.raises(SchemaError):
            read(obj)


@pytest.mark.parametrize(
    "verb, obj",
    [
        ("check", {"universe": ["a", "b"], "states": [[], "ab", ["a"]]}),
        ("order", {"universe": ["a", "b"], "leq": ["ab"]}),
        ("order", {"universe": ["a", "b", "c"], "leq": [["a", "b", "c"]]}),
        ("delineate", {"items": ["q1"], "skills": ["a", "b"], "mu": {"q1": ["ab"]}}),
        (
            "delineate",
            {"items": ["q1"], "skills": ["s1"], "mu": {"q1": [["s1"]], "q9": [["s1"]]}},
        ),
    ],
    ids=[
        "string-state",
        "string-leq-entry",
        "three-label-leq-entry",
        "string-competency",
        "unknown-mu-key",
    ],
)
def test_malformed_subset_exits_two(capsys, tmp_path, verb, obj):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, verb, str(f))
    assert code == 2 and out == ""
    assert err.startswith("SchemaError")


@pytest.mark.parametrize(
    "target", [["z1"], {"z1": "z1"}, 1, None], ids=["array", "object", "number", "null"]
)
def test_malformed_point_map_target_exits_two(capsys, tmp_path, target):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"map": {"z1": target, "z2": "z1", "z3": "z1", "z4": "z1"}}))
    e0 = str(FIX / "e0.json")
    code, out, err = run(capsys, "map", str(f), e0, e0)
    assert code == 2 and out == ""
    assert err.startswith("SchemaError")


def test_closure_table_subsets_must_be_arrays():
    # no verb reads a closure table, so the reader is called directly
    from pretopo import ClosureOperatorTable, SchemaError

    good = [{"of": [], "is": []}, {"of": ["a"], "is": ["a"]}]
    assert ClosureOperatorTable.from_obj({"universe": ["a"], "closure": good})
    for entry in ({"of": "a", "is": ["a"]}, {"of": ["a"], "is": "a"}, ["a", "a"]):
        with pytest.raises(SchemaError):
            ClosureOperatorTable.from_obj({"universe": ["a"], "closure": [good[0], entry]})
