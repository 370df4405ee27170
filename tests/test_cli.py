"""Batch CLI: exit codes, reports, transforms, rank, dot, fuzz."""

import json

import pytest

from vebflow import cli
from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import transducer as tr
from vebflow.space import ClopenSet, Space, parse_clopen
from vebflow.term import parse_term

SP2 = Space(2)


def cs(text):
    return parse_clopen(SP2, text)


TERM = parse_term('q"q0" ~> join(q"q1", q"q2")')
FC = fl.Flowchart(TERM, SP2, {(): cs("{1}"), (1,): (cs("{10}"), cs("{11}"))})
SIMPLE = cm.Command(TERM, SP2, {
    (): cm.ArrowSite(cs("{1}"), tr.identity_map(SP2)),
    (1,): cm.JoinSite(((cs("{10}"), tr.identity_map(SP2)),
                       (cs("{11}"), tr.identity_map(SP2)))),
})


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fc_path(tmp_path):
    return write_doc(tmp_path, "f.fc", fl.encode_flowchart(FC))


@pytest.fixture
def cmd_path(tmp_path):
    return write_doc(tmp_path, "c.cmd", cm.encode_command(SIMPLE))


@pytest.fixture
def drop_path(tmp_path):
    return write_doc(tmp_path, "d.tr", tr.encode_transducer(tr.drop_first(SP2)))


# -- check -------------------------------------------------------------------

def test_check_term_all_pass(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'q"a" ~> join(q"b")')
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert out == "well_formed: pass\nnormal: pass\nclosed: pass\n"


def test_check_term_veblen_on_join(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'veb[0](join(q"a", q"b"))')
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    assert "well_formed: fail" in out


def test_check_term_open(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'x"v"')
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    assert "closed: fail" in out
    assert "well_formed: pass" in out


def test_check_flowchart_all_pass(capsys, fc_path):
    code, out, _ = run(capsys, ["check", fc_path])
    assert code == 0
    assert out.splitlines() == [
        "well_formed: pass",
        "normal: pass",
        "levels: pass",
        "monotone: pass",
        "total: pass",
        "deterministic: pass",
    ]


def test_check_flowchart_totality_witness(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{10}"), ClopenSet(SP2, ()))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    assert "total: fail witness " in out


def test_check_flowchart_determinism_witness(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{1}"), cs("{11}"))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    assert "deterministic: fail witness " in out


def test_check_transducer(capsys, drop_path):
    code, out, _ = run(capsys, ["check", drop_path])
    assert code == 0
    assert out == "productive: pass (2 states)\n"


def test_check_command_not_strongly_total(capsys, cmd_path):
    code, out, _ = run(capsys, ["check", cmd_path])
    assert code == 1
    assert "strongly_total: fail" in out
    assert "total: pass" in out


def test_check_command_all_pass(capsys, tmp_path):
    st = cm.make_strongly_total(SIMPLE)
    path = write_doc(tmp_path, "st.cmd", cm.encode_command(st))
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert "strongly_total: pass" in out
    assert "simple: pass" in out


@pytest.mark.parametrize("ref", [{"in": 5}, {"out": ["x"]}, {"in": "{5}"}, {"in": "{}"}, {"out": "{e}"}])
def test_check_command_bad_map_reference(capsys, tmp_path, ref):
    doc = cm.encode_command(SIMPLE)
    doc["assign"][""]["map"] = ref
    code, out, err = run(capsys, ["check", write_doc(tmp_path, "c.cmd", doc)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "reference" in err


# -- eval --------------------------------------------------------------------

def test_eval_flowchart_values(capsys, fc_path):
    code, out, _ = run(capsys, ["eval", fc_path, "11(0)"])
    assert (code, out) == (0, "q2\n")
    code, out, _ = run(capsys, ["eval", fc_path, "(0)"])
    assert (code, out) == (0, "q0\n")
    code, out, _ = run(capsys, ["eval", fc_path, "10(01)"])
    assert (code, out) == (0, "q1\n")


def test_eval_command(capsys, cmd_path):
    code, out, _ = run(capsys, ["eval", cmd_path, "11(0)"])
    assert (code, out) == (0, "q2\n")


def test_eval_no_true_path(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{10}"), ClopenSet(SP2, ()))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, _ = run(capsys, ["eval", path, "11(0)"])
    assert (code, out) == (1, "no-true-path\n")


def test_eval_ambiguous(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{1}"), cs("{1}"))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, _ = run(capsys, ["eval", path, "1(0)"])
    assert (code, out) == (1, "ambiguous: q1, q2\n")


@pytest.fixture(scope="module")
def deep_dir(tmp_path_factory, deep_chain):
    # deeper than the default recursion limit; written compactly, since
    # the indenting JSON encoder is slow on documents this size
    f = deep_chain(1500)
    tmp = tmp_path_factory.mktemp("deep")
    write_doc(tmp, "deep.fc", json.dumps(fl.encode_flowchart(f)))
    c = cm.flowchart_to_simple_command(f)
    write_doc(tmp, "deep.cmd", json.dumps(cm.encode_command(c)))
    return tmp


@pytest.mark.parametrize(
    "argv, want",
    [
        (["eval", "deep.fc", "(1)"], "no-true-path\n"),
        (["eval", "deep.cmd", "(1)"], "no-true-path\n"),
        (
            ["check", "deep.cmd"],
            "well_formed: pass\nnormal: fail\nsimple: pass\nstrongly_total: fail\n"
            "total: fail witness 1(0)\ndeterministic: pass\n",
        ),
    ],
    ids=["eval-fc", "eval-cmd", "check-cmd"],
)
def test_deep_chain_runs_to_its_verdict(capsys, monkeypatch, deep_dir, argv, want):
    monkeypatch.chdir(deep_dir)
    assert run(capsys, argv) == (1, want, "")


def test_eval_bad_point_literal(capsys, fc_path):
    code, _, err = run(capsys, ["eval", fc_path, "banana"])
    assert code == 2
    assert err.startswith("error:")


def test_eval_needs_runnable_document(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'q"a"')
    code, _, err = run(capsys, ["eval", path, "(0)"])
    assert code == 2
    assert "flowchart or command" in err


# -- transform ---------------------------------------------------------------

def test_transform_monotone_verify(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{0}"), cs("{11}"))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, err = run(capsys, ["transform", "monotone", path, "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    result = fl.decode_flowchart(json.loads(out))
    assert fl.is_monotone(result)


def test_transform_out_file(capsys, tmp_path, fc_path):
    target = tmp_path / "out.fc"
    code, out, _ = run(capsys, ["transform", "reduce", fc_path,
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    fl.decode_flowchart(json.loads(target.read_text(encoding="utf-8")))


def test_transform_reduce_verify(capsys, fc_path):
    code, _, err = run(capsys, ["transform", "reduce", fc_path, "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err


def test_transform_pullback_verify(capsys, tmp_path, fc_path):
    extra = write_doc(tmp_path, "m.tr",
                      tr.encode_transducer(tr.letter_double(SP2)))
    code, out, err = run(capsys, ["transform", "pullback", fc_path, extra,
                                  "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    fl.decode_flowchart(json.loads(out))


def test_transform_pullback_missing_extra(capsys, fc_path):
    code, _, err = run(capsys, ["transform", "pullback", fc_path])
    assert code == 2
    assert "transducer" in err


def test_transform_vaught_verify(capsys, tmp_path, drop_path):
    # fiber-constant input: value depends only on the dropped-letter tail
    f = fl.to_monotone(fl.pullback(FC, tr.drop_first(SP2)))
    path = write_doc(tmp_path, "fiber.fc", fl.encode_flowchart(f))
    code, out, err = run(capsys, ["transform", "vaught", path, drop_path,
                                  "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    fl.decode_flowchart(json.loads(out))


def test_transform_vaught_not_monotone(capsys, tmp_path, drop_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{0}"), cs("{11}"))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, _, err = run(capsys, ["transform", "vaught", path, drop_path])
    assert code == 3
    assert err.startswith("unsupported:")


def test_transform_vaught_non_surjective(capsys, tmp_path, fc_path):
    # every output starts with 1, so the image misses half the space
    delta = tr.Transducer.build(
        SP2, SP2, 0,
        {(0, 0): (1, (1, 0)), (0, 1): (1, (1, 1)),
         (1, 0): (1, (0,)), (1, 1): (1, (1,))},
    )
    extra = write_doc(tmp_path, "m.tr", tr.encode_transducer(delta))
    code, _, err = run(capsys, ["transform", "vaught", fc_path, extra])
    assert code == 3
    assert "surjective" in err


@pytest.mark.parametrize("op", ["pullback", "vaught"])
def test_transform_map_in_the_wrong_space(capsys, tmp_path, fc_path, op):
    # A one-state echo machine over Space(3) does not fit a Space(2) chart:
    # a usage error between the two documents, like a wrong second kind.
    sp3 = Space(3)
    echo = tr.Transducer.build(sp3, sp3, 0, {(0, a): (0, (a,)) for a in range(3)})
    extra = write_doc(tmp_path, "m.tr", tr.encode_transducer(echo))
    code, out, err = run(capsys, ["transform", op, fc_path, extra])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Space(3)" in err and err.count("\n") == 1


def test_transform_strongly_total_verify(capsys, tmp_path, cmd_path):
    target = tmp_path / "st.cmd"
    code, _, err = run(capsys, ["transform", "strongly-total", cmd_path,
                                "--verify", "--out", str(target)])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    result = cm.decode_command(json.loads(target.read_text(encoding="utf-8")))
    assert cm.is_strongly_total(result)


def test_transform_strongly_total_rejects_veblen(capsys, tmp_path):
    c = cm.Command(parse_term('veb[0](q"a")'), SP2,
                   {(): cm.VeblenSite(tr.identity_map(SP2))})
    path = write_doc(tmp_path, "v.cmd", cm.encode_command(c))
    code, _, err = run(capsys, ["transform", "strongly-total", path])
    assert code == 3
    assert err.startswith("unsupported:")


def test_transform_translation_both_ways(capsys, tmp_path, fc_path, cmd_path):
    code, out, err = run(capsys, ["transform", "to-command", fc_path,
                                  "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    cm.decode_command(json.loads(out))
    code, out, err = run(capsys, ["transform", "to-flowchart", cmd_path,
                                  "--verify"])
    assert code == 0
    assert "eval agreement: 64/64 points" in err
    fl.decode_flowchart(json.loads(out))


def test_transform_wrong_document_kind(capsys, fc_path, cmd_path):
    code, _, err = run(capsys, ["transform", "monotone", cmd_path])
    assert code == 2
    assert "flowchart" in err
    code, _, err = run(capsys, ["transform", "strongly-total", fc_path])
    assert code == 2
    assert "command" in err


def test_transform_monotone_rejects_non_normal(capsys, tmp_path):
    f = fl.Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{1}")})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, _, err = run(capsys, ["transform", "monotone", path])
    assert code == 3
    assert err.startswith("unsupported:")


def test_transform_verify_catches_mismatch(capsys, fc_path, monkeypatch):
    def broken(f):
        assign = dict(f.assign)
        assign[()] = f.at(()).complement()
        return fl.Flowchart(f.term, f.space, assign)

    monkeypatch.setattr(fl, "to_monotone", broken)
    code, _, err = run(capsys, ["transform", "monotone", fc_path, "--verify"])
    assert code == 1
    assert "first mismatch:" in err


# -- rank --------------------------------------------------------------------

def test_rank_single_constant(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'q"a"')
    code, out, _ = run(capsys, ["rank", path])
    assert (code, out) == (0, "e\t1\n")


def test_rank_nested_veblen(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'veb[1](veb[0](join(q"a")))')
    code, out, _ = run(capsys, ["rank", path])
    assert code == 0
    assert out == "e\t1\n0\tw\n0.0\tw + 1\n0.0.0\tw + 1\n"


def test_rank_veblen_omega_index(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'veb[w](q"a")')
    code, out, _ = run(capsys, ["rank", path])
    assert (code, out) == (0, "e\t1\n0\tw^(w)\n")


def test_rank_flowchart(capsys, fc_path):
    code, out, _ = run(capsys, ["rank", fc_path])
    assert code == 0
    assert out == "e\t1\n0\t1\n1\t1\n1.0\t1\n1.1\t1\n"


# -- dot ---------------------------------------------------------------------

def test_dot_is_deterministic(capsys, fc_path):
    code, first, _ = run(capsys, ["dot", fc_path])
    assert code == 0
    code, second, _ = run(capsys, ["dot", fc_path])
    assert first == second
    assert first.startswith("digraph term {")
    assert '"e" -> "1" [label="1"];' in first
    assert "S = {1}" in first


def test_dot_marks_empty_sets(capsys, tmp_path):
    f = fl.Flowchart(TERM, SP2, {(): cs("{1}"),
                                 (1,): (cs("{10}"), ClopenSet(SP2, ()))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    code, out, _ = run(capsys, ["dot", path])
    assert code == 0
    assert "∅" in out


def test_dot_plain_term(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'q"a" ~> join(q"b")')
    code, out, _ = run(capsys, ["dot", path])
    assert code == 0
    assert "digraph term {" in out
    assert "rank 1" in out
    assert "S =" not in out  # no annotations without an assignment


@pytest.mark.parametrize("cmd, lines", [("rank", 4001), ("dot", 8004)])
def test_deep_term_document(capsys, tmp_path, cmd, lines):
    # 2000 right-nested ~> nodes, deeper than the recursion limit:
    # 4001 nodes, and dot adds one line per edge plus three.
    path = write_doc(tmp_path, "deep.term", 'q"b" ~> ' * 2000 + 'q"a"')
    code, out, err = run(capsys, [cmd, path])
    assert (code, len(out.splitlines()), err) == (0, lines, "")


# -- fuzz --------------------------------------------------------------------

def test_fuzz_clean_run(capsys):
    code, first, _ = run(capsys, ["--seed", "3", "fuzz", "--iters", "2"])
    assert code == 0
    lines = first.splitlines()
    assert len(lines) == 6
    assert all(line.endswith(": 2 cases, ok") for line in lines)
    code, second, _ = run(capsys, ["--seed", "3", "fuzz", "--iters", "2"])
    assert (code, second) == (0, first)


def test_fuzz_zero_iterations(capsys):
    code, out, _ = run(capsys, ["fuzz", "--iters", "0"])
    assert (code, out) == (0, "")


def test_fuzz_catches_broken_transform(capsys, monkeypatch):
    monkeypatch.setattr(fl, "to_monotone", lambda f: f)
    code, out, _ = run(capsys, ["--seed", "1", "fuzz", "--iters", "25"])
    assert code == 1
    assert "monotone: FAIL seed=" in out


def test_fuzz_checks_eval_against_the_walker(capsys, monkeypatch):
    # Renaming every value keeps the error kinds and agrees with itself,
    # so only the comparison with the walker's leaves can catch it.
    real = fl.eval_outcome

    def renamed(f, x):
        out = real(f, x)
        return ("value", out[1] + "'") if out[0] == "value" else out

    monkeypatch.setattr(fl, "eval_outcome", renamed)
    code, out, _ = run(capsys, ["--seed", "1", "fuzz", "--iters", "3"])
    assert code == 1
    failing = [line for line in out.splitlines() if not line.endswith(": 3 cases, ok")]
    assert len(failing) == 1 and failing[0].startswith("decisions: FAIL seed=")


# -- plumbing ----------------------------------------------------------------

def test_unknown_extension(capsys, tmp_path):
    path = write_doc(tmp_path, "x.json", "{}")
    code, _, err = run(capsys, ["check", path])
    assert code == 2
    assert "unknown document extension" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["check", str(tmp_path / "nope.term")])
    assert code == 2
    assert err.startswith("error:")


def test_invalid_json_document(capsys, tmp_path):
    path = write_doc(tmp_path, "x.fc", "not json at all")
    code, _, err = run(capsys, ["check", path])
    assert code == 2
    assert "not valid JSON" in err


DEEP_ORDINAL = "w^(" * 3000 + "1" + ")" * 3000


def _with_root_level(doc, key):
    """`doc` with its root set entry at level DEEP_ORDINAL."""
    root = doc["assign"][""]
    entry = {"set": root, "level": DEEP_ORDINAL}
    doc["assign"][""] = entry if key is None else {**root, key: entry}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("x.fc", "[" * 100000, "JSON nested too deeply"),
        ("x.fc", '{"assign": ' + '{"a": ' * 5000 + "1" + "}" * 5001, "JSON nested too deeply"),
        ("x.fc", _with_root_level(fl.encode_flowchart(FC), None), "ordinal nested too deeply"),
        (
            "x.fc",
            json.dumps({"kind": "flowchart", "space": 2, "assign": {}, "term": {"nodes": [
                {"addr": [], "kind": "veblen", "payload": DEEP_ORDINAL},
                {"addr": [0], "kind": "const", "payload": "a"},
            ]}}),
            "ordinal nested too deeply",
        ),
        ("x.cmd", _with_root_level(cm.encode_command(SIMPLE), "test"), "ordinal nested too deeply"),
        ("x.term", "veb[%s](q\"a\")" % DEEP_ORDINAL, "ordinal nested too deeply"),
    ],
    ids=["fc-array", "fc-assign", "fc-level", "fc-veblen", "cmd-level", "term-index"],
)
def test_deeply_nested_input_is_a_document_error(capsys, tmp_path, name, text, message):
    path = write_doc(tmp_path, name, text)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("x.fc", _with_root_level(fl.encode_flowchart(FC), None)),
        ("x.cmd", _with_root_level(cm.encode_command(SIMPLE), "test")),
    ],
    ids=["fc", "cmd"],
)
def test_bad_set_entry_names_its_address_not_its_text(capsys, tmp_path, name, text):
    path = write_doc(tmp_path, name, text)
    code, out, err = run(capsys, ["check", path])
    assert (code, out) == (2, "")
    assert err == "error: bad set entry at address '': ordinal nested too deeply at line 1, column 304\n"


def test_bad_set_entry_message_is_capped(capsys, tmp_path):
    doc = fl.encode_flowchart(FC)
    # A 10 000-letter word with a stray letter at its end.
    doc["assign"]["1"] = ["{0}", "{%sx}" % ("01" * 5000)]
    path = write_doc(tmp_path, "x.fc", json.dumps(doc))
    code, out, err = run(capsys, ["check", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad set entry at address '1': ") and len(err) < 250


# 3000 brackets deep: past the interpreter's recursion limit, read by the
# parser's loop.  The parentheses wrap one leaf; join( and veb[0]( nest
# 3000 inner nodes over it.  name -> (text, nodes, rank of the leaf)
DEEP_TERMS = {
    "term-parens": ("(" * 3000 + 'q"a"' + ")" * 3000, 1, "1"),
    "term-join": ("join(" * 3000 + 'q"a"' + ")" * 3000, 3001, "1"),
    "term-veb": ("veb[0](" * 3000 + 'q"a"' + ")" * 3000, 3001, "3001"),
}


@pytest.mark.parametrize("text, nodes, leaf_rank", DEEP_TERMS.values(), ids=DEEP_TERMS.keys())
def test_deeply_nested_term_text_is_read(capsys, tmp_path, text, nodes, leaf_rank):
    path = write_doc(tmp_path, "x.term", text)
    code, out, err = run(capsys, ["check", path])
    assert (code, err) == (0, "")
    assert out == "well_formed: pass\nnormal: pass\nclosed: pass\n"
    code, out, err = run(capsys, ["rank", path])
    assert (code, err) == (0, "")
    assert out.count("\n") == nodes and out.endswith("\t%s\n" % leaf_rank)
    code, out, err = run(capsys, ["dot", path])
    assert (code, err) == (0, "")
    assert out.startswith("digraph term {") and out.count(" -> ") == nodes - 1


def test_bad_grid_parameters(capsys, tmp_path):
    path = write_doc(tmp_path, "t.term", 'q"a"')
    code, _, err = run(capsys, ["--grid-prefix", "0", "check", path])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("option", ["--grid-period", "--depth"])
def test_every_grid_parameter_must_be_positive(capsys, tmp_path, option):
    path = write_doc(tmp_path, "t.term", 'q"a"')
    code, out, err = run(capsys, [option, "0", "check", path])
    assert (code, out, err) == (2, "", "error: grid parameters must be positive\n")


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])  # missing path
    assert exc.value.code == 2
