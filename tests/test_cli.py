"""Batch CLI: exit codes, reports, transforms, rank, dot, fuzz."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vebflow import cli
from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import generate as gen
from vebflow import transducer as tr
from vebflow.errors import UndecidedImageError, UnsupportedError
from vebflow.ordinal import ONE
from vebflow.space import MAX_ALPHABET, ClopenSet, Space, parse_clopen, render_point, sample_grid
from vebflow.term import Const, JoinL, borel_rank, encode_tree, parse_term, render_term, syntax_tree

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


@pytest.mark.parametrize("back", [False, True], ids=["chain", "cycle"])
def test_check_long_silent_chain(capsys, tmp_path, back):
    # 20 000 states, each passing silently to the next; the last echoes,
    # or passes silently back to state 0, which closes a silent cycle.
    n = 20000
    trans = [{"from": s, "in": 0, "to": s + 1, "out": "e"} for s in range(n - 1)]
    trans.append({"from": n - 1, "in": 0, "to": 0 if back else n - 1, "out": "e" if back else "0"})
    doc = {"states": n, "init": 0, "in_space": 1, "out_space": 1, "trans": trans}
    code, out, err = run(capsys, ["check", write_doc(tmp_path, "chain.tr", json.dumps(doc))])
    if back:
        assert (code, out) == (2, "")
        assert err == "error: transducer has a silent cycle (not productive)\n"
    else:
        assert (code, out, err) == (0, "productive: pass (20000 states)\n", "")


@pytest.mark.parametrize("blank", ["", " "])
def test_check_transducer_blank_output_word(capsys, tmp_path, blank):
    doc = tr.encode_transducer(tr.drop_first(SP2))
    doc["trans"][3]["out"] = blank
    code, out, err = run(capsys, ["check", write_doc(tmp_path, "x.tr", json.dumps(doc))])
    assert (code, out) == (2, "")
    assert err.startswith("error: transition for state 1 letter 1: ")


# -- alphabet size ---------------------------------------------------------------

def _alphabet_doc(ext, k):
    """A document naming alphabet size k: a one-set chart, a constant-leaf
    command, a command whose inline map emits into Space(k), or a machine
    reading Space(k) or emitting into it."""
    one_set = {"nodes": [{"addr": [], "kind": "arrow"}, {"addr": [0], "kind": "const", "payload": "a"},
                         {"addr": [1], "kind": "const", "payload": "b"}]}
    if ext == "fc":
        return {"kind": "flowchart", "space": k, "term": one_set, "assign": {"": "{0}"}}
    if ext == "cmd":
        leaf = {"nodes": [{"addr": [], "kind": "const", "payload": "a"}]}
        return {"kind": "command", "space": k, "term": leaf, "assign": {}}
    machine = {"states": 1, "init": 0, "in_space": 1, "out_space": 1,
               "trans": [{"from": 0, "in": 0, "to": 0, "out": "0"}]}
    if ext == "map.cmd":
        machine["in_space"] = 2
        machine["trans"].append({"from": 0, "in": 1, "to": 0, "out": "0"})
        machine["out_space"] = k
        return {"kind": "command", "space": 2, "term": one_set,
                "assign": {"": {"test": "{0}", "map": machine}}}
    machine["in_space" if ext == "in.tr" else "out_space"] = k
    return machine


@pytest.mark.parametrize("ext", ["fc", "cmd", "map.cmd", "in.tr", "out.tr"])
@pytest.mark.parametrize("k", [2**70, MAX_ALPHABET + 1])
def test_alphabet_past_the_cap_is_unsupported(capsys, tmp_path, ext, k):
    path = write_doc(tmp_path, "wide." + ext, _alphabet_doc(ext, k))
    assert run(capsys, ["check", path]) == (3, "", "unsupported: alphabet size %d exceeds 100000\n" % k)


@pytest.mark.parametrize("ext, want, message", [
    # The one-set term is not normal, so those documents fail that check.
    ("fc", 1, ""),
    ("cmd", 0, ""),
    ("map.cmd", 1, ""),
    ("in.tr", 2, "error: missing transition for state 0 letter 1\n"),
    ("out.tr", 0, ""),
])
def test_alphabet_at_the_cap_is_checked(capsys, tmp_path, ext, want, message):
    assert MAX_ALPHABET == 10**5
    path = write_doc(tmp_path, "wide." + ext, _alphabet_doc(ext, MAX_ALPHABET))
    code, out, err = run(capsys, ["check", path])
    assert (code, err) == (want, message)
    assert ("normal: fail" in out) == (want == 1)


def _one_as_true(doc, *path):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    assert node[last] == 1
    node[last] = True
    return doc


_LEAF = parse_term('q"a"')
_ECHO1 = tr.encode_transducer(tr.identity_map(Space(1)))
_DROP = tr.encode_transducer(tr.drop_first(SP2))
_DROP_FROM_1 = dict(_DROP, init=1)


@pytest.mark.parametrize(
    "name, doc",
    [
        ("x.fc", _one_as_true(fl.encode_flowchart(fl.Flowchart(_LEAF, Space(1), {})), "space")),
        ("x.cmd", _one_as_true(cm.encode_command(cm.Command(_LEAF, Space(1), {})), "space")),
        ("x.tr", _one_as_true(_ECHO1, "states")),
        ("x.tr", _one_as_true(_DROP_FROM_1, "init")),
        ("x.tr", _one_as_true(_ECHO1, "in_space")),
        ("x.tr", _one_as_true(_ECHO1, "out_space")),
        ("x.tr", _one_as_true(_DROP, "trans", 2, "from")),
        ("x.tr", _one_as_true(_DROP, "trans", 1, "in")),
        ("x.tr", _one_as_true(_DROP, "trans", 0, "to")),
    ],
    ids=["fc-space", "cmd-space", "states", "init", "in_space", "out_space", "from", "in", "to"],
)
def test_boolean_is_not_an_integer(capsys, tmp_path, name, doc):
    # Each document is valid with 1 in place of true.
    code, out, err = run(capsys, ["check", write_doc(tmp_path, name, doc)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "integer" in err


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


@pytest.mark.parametrize("entry", [None, {"map": "identity"}, {"map": "transpose"}],
                         ids=["no-entry", "entry", "bad-map"])
def test_check_open_term_command(capsys, tmp_path, entry):
    # The variable sits where the closed term has its q"q0" leaf; the
    # term is refused before any site is read, whatever sits there.
    doc = cm.encode_command(SIMPLE)
    doc["term"] = encode_tree(syntax_tree(parse_term('x"v" ~> join(q"q1", q"q2")')))
    if entry is not None:
        doc["assign"]["0"] = entry
    code, out, err = run(capsys, ["check", write_doc(tmp_path, "c.cmd", doc)])
    assert (code, out, err) == (2, "", "error: commands need closed terms\n")


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


@pytest.mark.parametrize("op", ["monotone", "pullback", "vaught"])
def test_transform_builds_its_grid_only_to_verify(capsys, monkeypatch, tmp_path, fc_path,
                                                  drop_path, op):
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_grid(*args)

    monkeypatch.setattr(cli, "sample_grid", counted)
    # The vaught transform needs a monotone chart that is constant on
    # the fibers of the map.
    fiber = fl.to_monotone(fl.pullback(FC, tr.drop_first(SP2)))
    fiber_path = write_doc(tmp_path, "fiber.fc", fl.encode_flowchart(fiber))
    argv = {
        "monotone": ["transform", "monotone", fc_path],
        "pullback": ["transform", "pullback", fc_path, drop_path],
        "vaught": ["transform", "vaught", fiber_path, drop_path],
    }[op]
    code, _, err = run(capsys, argv + ["--out", str(tmp_path / "o.json")])
    assert (code, err, calls) == (0, "", [])
    code, _, err = run(capsys, argv + ["--verify"])
    assert code == 0 and "eval agreement: 64/64 points" in err
    assert calls == [(SP2, 4, 2)]


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


def test_transform_vaught_names_a_point_outside_the_range(capsys, tmp_path, fc_path):
    # const_zero's range is one point, which is not clopen: the map is
    # refused as not onto, with a point its range misses.
    extra = write_doc(tmp_path, "z.tr", tr.encode_transducer(tr.const_zero(SP2, SP2)))
    assert run(capsys, ["transform", "vaught", fc_path, extra]) == (
        3, "", "unsupported: the name map is not surjective: 1(0) is outside its range\n")


def _chart_over(k):
    space = Space(k)
    sets = {(): parse_clopen(space, "{1}"), (1,): (parse_clopen(space, "{10}"), parse_clopen(space, "{11}"))}
    return fl.encode_flowchart(fl.Flowchart(TERM, space, sets))


GRID_REFUSAL = "unsupported: a sample grid over 16 letters with prefixes up to 4 and periods up to 2 exceeds 2000000 points\n"


def test_oversized_grid_is_refused_before_any_output(capsys, tmp_path):
    path = write_doc(tmp_path, "wide.fc", _chart_over(16))
    target = tmp_path / "out.fc"
    assert run(capsys, ["transform", "monotone", path, "--verify"]) == (3, "", GRID_REFUSAL)
    assert run(capsys, ["transform", "monotone", path, "--verify", "--out", str(target)]) == (3, "", GRID_REFUSAL)
    assert not target.exists()
    # Without --verify no grid is built, so the transform runs.
    code, out, _ = run(capsys, ["transform", "monotone", path])
    assert code == 0 and out
    # fuzz shares the grid, so it refuses too.
    assert run(capsys, ["--space", "16", "fuzz", "--iters", "1"]) == (3, "", GRID_REFUSAL)


def test_grid_cap_admits_eleven_letters_at_the_default_lengths(capsys, monkeypatch):
    # 11^4 * (11 + 11^2) = 1 932 612 points at most, under the cap;
    # 12^4 * (12 + 12^2) = 3 234 816, past it.  A grid past 2^21 in one
    # factor is refused whatever the other.
    monkeypatch.setattr(cli, "sample_grid", lambda *args: [])
    args = cli._parser().parse_args(["fuzz"])
    assert cli._grid(args, Space(11)) == []
    with pytest.raises(cli.UnsupportedError, match="over 12 letters"):
        cli._grid(args, Space(12))
    for prefix, period, k in ((10**9, 1, 2), (1, 10**9, 2), (1, 2 * 10**6 + 1, 1)):
        args = cli._parser().parse_args(["--grid-prefix", str(prefix), "--grid-period", str(period), "fuzz"])
        with pytest.raises(cli.UnsupportedError, match="exceeds 2000000 points"):
            cli._grid(args, Space(k))


@pytest.mark.parametrize("option", [["--grid-prefix", "1000000000"], ["--grid-period", "2000000"]])
def test_one_letter_grid_is_its_one_point(capsys, tmp_path, option):
    # Over one letter the grid is the point (0) at any lengths: no word
    # longer than the one period 0 is built.
    space = Space(1)
    f = fl.Flowchart(TERM, space, {(): parse_clopen(space, "{0}"), (1,): (parse_clopen(space, "{0}"), ClopenSet(space, ()))})
    path = write_doc(tmp_path, "one.fc", fl.encode_flowchart(f))
    code, _, err = run(capsys, option + ["transform", "monotone", path, "--verify"])
    assert (code, err) == (0, "eval agreement: 1/1 points\n")
    assert [str(x) for x in sample_grid(space, 10**9, 2 * 10**6)] == ["(0)"]


def test_verify_on_two_letters_prints_the_same_agreement_line(capsys, tmp_path):
    path = write_doc(tmp_path, "f.fc", _chart_over(2))
    code, _, err = run(capsys, ["transform", "monotone", path, "--verify"])
    assert (code, err) == (0, "eval agreement: 64/64 points\n")


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


def test_transform_verify_mismatch_is_the_same_under_any_hash_seed(tmp_path):
    # Points under 0 are ambiguous between a, c and e; the reduced chart
    # sends them to a.  The labels of an ambiguous outcome are printed
    # as eval prints them, sorted, not in the order a set holds them.
    term = parse_term('join(q"a", q"c", q"e")')
    f = fl.Flowchart(term, SP2, {(): (cs("{0}"), cs("{0, 1}"), cs("{0}"))})
    path = write_doc(tmp_path, "f.fc", fl.encode_flowchart(f))
    src = str(Path(__file__).resolve().parent.parent / "src")
    errs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [sys.executable, "-m", "vebflow.cli", "transform", "reduce", path, "--verify"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert done.returncode == 1
        errs.append(done.stderr)
    assert errs[0] == errs[1]
    assert "first mismatch: (0): ambiguous: a, c, e vs a\n" in errs[0]


# -- one chart path ----------------------------------------------------------
# The CLI answers a command through its chart; what it reports must be
# what the library's own deciders and evaluators say of the document.


def _seeded_docs(k):
    """Seeded flowcharts and commands over Space(k): random ones, and
    simple commands translated from total deterministic charts, which
    the padding construction accepts."""
    space = Space(k)
    for seed in range(8):
        rng = random.Random(seed)
        yield "fc", gen.random_flowchart(rng, gen.random_term(rng, 3), space, 3)
        yield "cmd", gen.random_command(rng, gen.random_term(rng, 3), space, 3)
        term = gen.random_normal_term(rng, 3, veblen=False)
        yield "cmd", cm.flowchart_to_simple_command(gen.random_total_det_flowchart(rng, term, space, 3))


def _encoded(doc):
    return fl.encode_flowchart(doc) if isinstance(doc, fl.Flowchart) else cm.encode_command(doc)


def _verify_err(triples):
    """The stderr `transform --verify` owes (point, source, result) outcomes."""
    triples = list(triples)
    bad = [t for t in triples if t[1] != t[2]]
    err = "eval agreement: %d/%d points\n" % (len(triples) - len(bad), len(triples))
    if bad:
        x, a, b = bad[0]
        err += "first mismatch: %s: %s vs %s\n" % (
            render_point(x), cli._render_outcome(a), cli._render_outcome(b))
    return err


@pytest.mark.parametrize("k", [2, 3])
def test_check_and_eval_report_what_the_library_says(capsys, tmp_path, k):
    points = sample_grid(Space(k), 2, 1)
    verdicts = set()
    for n, (ext, doc) in enumerate(_seeded_docs(k)):
        lib = fl if ext == "fc" else cm
        path = write_doc(tmp_path, "d%d.%s" % (n, ext), _encoded(doc))
        total, tw = lib.is_total(doc)
        det, dw = lib.is_deterministic(doc)
        verdicts |= {(ext, total), (ext, det)}
        _, out, _ = run(capsys, ["check", path])
        assert out.splitlines()[-2:] == [
            "total: pass" if total else "total: fail witness %s" % render_point(tw),
            "deterministic: pass" if det else "deterministic: fail witness %s" % render_point(dw),
        ]
        for x in points:
            want = lib.eval_outcome(doc, x)
            got = run(capsys, ["eval", path, render_point(x)])
            assert got == (0 if want[0] == "value" else 1, cli._render_outcome(want) + "\n", "")
    # Both verdicts come up for both kinds.
    assert verdicts == {(ext, ok) for ext in ("fc", "cmd") for ok in (True, False)}


@pytest.mark.parametrize("k", [2, 3])
def test_command_transforms_verify_what_the_library_says(capsys, tmp_path, k):
    grid = sample_grid(Space(k), 4, 2)
    out = str(tmp_path / "out.json")
    codes = []
    for n, (ext, c) in enumerate(_seeded_docs(k)):
        if ext != "cmd":
            continue
        path = write_doc(tmp_path, "c%d.cmd" % n, _encoded(c))
        for op, build in (("to-flowchart", cm.command_to_flowchart), ("strongly-total", cm.make_strongly_total)):
            got = run(capsys, ["transform", op, path, "--verify", "--out", out])
            try:
                result = build(c)
            except UnsupportedError as e:
                codes.append(3)
                assert got == (3, "", "unsupported: %s\n" % e)
                continue
            outcome = fl.eval_outcome if op == "to-flowchart" else cm.eval_outcome
            err = _verify_err((x, cm.eval_outcome(c, x), outcome(result, x)) for x in grid)
            codes.append(0 if err.count("\n") == 1 else 1)
            assert got == (codes[-1], "", err)
            assert json.loads(Path(out).read_text(encoding="utf-8")) == _encoded(result)
    assert {0, 3} <= set(codes)


@pytest.mark.parametrize("name", ["identity", "drop-first", "parity-merge"])
def test_pullback_and_vaught_keep_their_agreement_lines(capsys, tmp_path, name):
    m = {"identity": tr.identity_map(SP2), "drop-first": tr.drop_first(SP2), "parity-merge": tr.parity_merge()}[name]
    map_path = write_doc(tmp_path, "m.tr", tr.encode_transducer(m))
    grid = sample_grid(SP2, 4, 2)
    codes = []
    for seed in range(6):
        rng = random.Random(seed)
        f = gen.random_total_det_flowchart(rng, gen.random_normal_term(rng, 3), SP2, 3)
        f = fl.to_monotone(f).replace_sets(lambda addr, s: s.with_level(ONE))
        path = write_doc(tmp_path, "f%d.fc" % seed, fl.encode_flowchart(f))
        # pullback reads the source at the map's image of each grid point;
        # vaught reads the result there.
        g = fl.pullback(f, m)
        want = _verify_err((x, fl.eval_outcome(f, tr.apply(m, x)), fl.eval_outcome(g, x)) for x in grid)
        assert run(capsys, ["transform", "pullback", path, map_path, "--verify"])[1:] == (
            json.dumps(fl.encode_flowchart(g), sort_keys=True, indent=2) + "\n", want)
        code, _, err = run(capsys, ["transform", "vaught", path, map_path, "--verify"])
        try:
            g = fl.vaught_transform(f, m, 6)
        except UndecidedImageError as e:
            codes.append(3)
            assert (code, err) == (3, "unsupported: %s\n" % e)
            continue
        want = _verify_err((x, fl.eval_outcome(f, x), fl.eval_outcome(g, tr.apply(m, x))) for x in grid)
        codes.append(0 if want.count("\n") == 1 else 1)
        assert (code, err) == (codes[-1], want)
    assert 0 in codes


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


def test_rank_flowchart(capsys, tmp_path, fc_path):
    code, out, _ = run(capsys, ["rank", fc_path])
    assert code == 0
    assert out == "e\t1\n0\t1\n1\t1\n1.0\t1\n1.1\t1\n"
    # rank walks the term's own table, which is in address order
    # whatever the order of the document's node list.
    doc = fl.encode_flowchart(FC)
    doc["term"]["nodes"].reverse()
    assert run(capsys, ["rank", write_doc(tmp_path, "reversed.fc", doc)]) == (0, out, "")


# -- dot ---------------------------------------------------------------------

def test_dot_is_deterministic(capsys, fc_path):
    code, first, _ = run(capsys, ["dot", fc_path])
    assert code == 0
    code, second, _ = run(capsys, ["dot", fc_path])
    assert first == second
    assert first.startswith("digraph term {")
    assert 'n0 -> n2 [label="1"];' in first
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


@pytest.mark.parametrize("text", ['q"a\\"b"', 'q"c\\\\d"', 'x"a\\"b"'])
def test_dot_captions_a_leaf_as_its_term_text(capsys, tmp_path, text):
    # The caption is the leaf's term text, quotes and backslashes
    # escaped, and then escaped again for DOT.
    path = write_doc(tmp_path, "t.term", text)
    code, out, err = run(capsys, ["dot", path])
    assert (code, err) == (0, "")
    assert render_term(parse_term(text)) == text
    assert '[label="%s\\nrank ' % cli._dot_escape(text) in out


@pytest.mark.parametrize("cmd, lines", [("rank", 4001), ("dot", 8004)])
def test_deep_term_document(capsys, tmp_path, cmd, lines):
    # 2000 right-nested ~> nodes, deeper than the recursion limit:
    # 4001 nodes, and dot adds one line per edge plus three.
    path = write_doc(tmp_path, "deep.term", 'q"b" ~> ' * 2000 + 'q"a"')
    code, out, err = run(capsys, [cmd, path])
    assert (code, len(out.splitlines()), err) == (0, lines, "")


# -- written documents -------------------------------------------------------
#
# cli._emit writes the bytes of json.dumps(doc, sort_keys=True, indent=2)
# with its own writer; these tests hold the two side by side.

ODD_LABELS = ("é", 'a"b', "c\\d", "日本", "plain")
ODD_TERM = parse_term('q"é" ~> join(q"a\\"b", q"c\\\\d")')
RAISED_TERM = parse_term('veb[1](q"é" ~> join(q"a\\"b", q"c\\\\d"))')


def _stdlib_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _at_rank(f):
    """f with every set declared at its node's rank."""
    return f.replace_sets(lambda addr, s: s.with_level(borel_rank(f.term, addr)))


def _raised_chart(space):
    """A chart on RAISED_TERM whose sets sit at level w, the rank under veb[1]."""
    sets = {(0,): parse_clopen(space, "{1}"),
            (0, 1): (parse_clopen(space, "{10}"), parse_clopen(space, "{11}"))}
    return _at_rank(fl.Flowchart(RAISED_TERM, space, sets))


def _out_map_command(space):
    """A command on ODD_TERM whose maps are written inline: out_map machines."""
    def c(text):
        return parse_clopen(space, text)
    return cm.Command(ODD_TERM, space, {
        (): cm.ArrowSite(c("{1}"), tr.out_map(c("{11}"))),
        (1,): cm.JoinSite(((c("{10}"), tr.identity_map(space)), (c("{11}"), tr.out_map(c("{0}"))))),
    })


def _written_documents(seed):
    """Seeded chart, command and machine documents over 2, 3 and 12
    letters (12 writes dotted words), on labels holding non-ASCII
    characters, quotes and backslashes."""
    rng = random.Random(seed)
    for k in (2, 3, 12):
        space = Space(k)
        term = gen.random_term(rng, 3, labels=ODD_LABELS)
        yield fl.encode_flowchart(_at_rank(gen.random_flowchart(rng, term, space, 3)))
        yield cm.encode_command(gen.random_command(rng, term, space, 3))
        yield tr.encode_transducer(rng.choice(gen.map_palette(space)))
        yield fl.encode_flowchart(_raised_chart(space))
        yield cm.encode_command(_out_map_command(space))
        yield tr.encode_transducer(tr.out_map(parse_clopen(space, "{1}")))
        yield fl.encode_flowchart(fl.Flowchart(Const("é"), space, {}))
    sp12 = Space(12)
    sets = {(): parse_clopen(sp12, "{11.3}"), (1,): (parse_clopen(sp12, "{0}"), parse_clopen(sp12, "{0.10, 1}"))}
    yield fl.encode_flowchart(fl.Flowchart(ODD_TERM, sp12, sets))


@pytest.mark.parametrize("seed", range(6))
def test_emit_writes_the_bytes_of_the_stdlib(capsys, tmp_path, seed):
    target = tmp_path / "out.json"
    texts = []
    for doc in _written_documents(seed):
        want = _stdlib_text(doc)
        cli._emit(doc, None)
        assert capsys.readouterr().out == want
        cli._emit(doc, str(target))
        assert target.read_bytes() == want.encode("ascii")
        texts.append(want)
    # The documents hold what the writer must get right.
    joined = "".join(texts)
    for part in ('"level": "w"', '"assign": {}', '"trans": [', "\\u00e9", '\\"', "\\\\", "11.3"):
        assert part in joined, part


def test_emit_writes_other_scalars_through_the_stdlib():
    doc = {"b": [True, None, 1.5, []], "a": {"": False, "z": {}}, "c": (1, "\n")}
    assert cli._json_text(doc) + "\n" == _stdlib_text(doc)


def test_every_transform_writes_the_bytes_of_the_stdlib(capsys, tmp_path):
    chart = fl.Flowchart(ODD_TERM, SP2, {(): cs("{1}"), (1,): (cs("{10}"), cs("{11}"))})
    fiber = fl.to_monotone(fl.pullback(chart, tr.drop_first(SP2)))
    docs = {
        "chart": write_doc(tmp_path, "chart.fc", fl.encode_flowchart(chart)),
        "raised": write_doc(tmp_path, "raised.fc", fl.encode_flowchart(_raised_chart(SP2))),
        "fiber": write_doc(tmp_path, "fiber.fc", fl.encode_flowchart(fiber)),
        "command": write_doc(tmp_path, "c.cmd", cm.encode_command(_out_map_command(SP2))),
        "simple": write_doc(tmp_path, "s.cmd", cm.encode_command(cm.flowchart_to_simple_command(chart))),
        "drop": write_doc(tmp_path, "d.tr", tr.encode_transducer(tr.drop_first(SP2))),
    }
    drop = tr.drop_first(SP2)
    cases = [
        ("monotone", "raised", None, fl.to_monotone(_raised_chart(SP2))),
        ("reduce", "raised", None, fl.to_reduced(_raised_chart(SP2))),
        ("pullback", "chart", "drop", fl.pullback(chart, drop)),
        ("vaught", "fiber", "drop", fl.vaught_transform(fiber, drop, 6)),
        ("strongly-total", "simple", None, cm.make_strongly_total(cm.flowchart_to_simple_command(chart))),
        ("to-flowchart", "command", None, cm.command_to_flowchart(_out_map_command(SP2))),
        ("to-command", "chart", None, cm.flowchart_to_simple_command(chart)),
    ]
    assert {op for op, *_ in cases} == set(cli._TRANSFORMS)
    for op, source, extra, result in cases:
        target = tmp_path / ("%s.json" % op)
        argv = ["transform", op, docs[source]] + ([docs[extra]] if extra else []) + ["--out", str(target)]
        assert run(capsys, argv) == (0, "", ""), op
        encode = fl.encode_flowchart if isinstance(result, fl.Flowchart) else cm.encode_command
        assert target.read_text(encoding="utf-8") == _stdlib_text(encode(result)), op


# -- levels ------------------------------------------------------------------
#
# Every rank is at least 1, so the level check reads a node's rank only
# for a set declared above 1.

def test_charts_at_level_one_decode_without_a_rank_table():
    doc = fl.encode_flowchart(fl.Flowchart(RAISED_TERM, SP2, {(0,): cs("{1}"), (0, 1): (cs("{10}"), cs("{11}"))}))
    f = fl.decode_flowchart(json.loads(json.dumps(doc)))
    assert "_ranks" not in f.term.__dict__
    g = fl.decode_flowchart(fl.encode_flowchart(_raised_chart(SP2)))
    assert "_ranks" in g.term.__dict__


def test_a_set_at_its_node_rank_passes_check(capsys, tmp_path):
    path = write_doc(tmp_path, "raised.fc", fl.encode_flowchart(_raised_chart(SP2)))
    code, out, err = run(capsys, ["check", path])
    assert (code, err) == (0, "")
    assert "levels: pass\n" in out


@pytest.mark.parametrize("cmd", ["check", "rank", "dot"])
def test_a_set_above_its_node_rank_is_refused(capsys, tmp_path, cmd):
    doc = fl.encode_flowchart(_raised_chart(SP2))
    doc["assign"]["0.1"][1]["level"] = "w + 1"
    path = write_doc(tmp_path, "over.fc", doc)
    assert run(capsys, [cmd, path]) == (2, "", "error: declared level exceeds the node rank\n")


def test_a_malformed_veblen_payload_is_refused_every_time(capsys, tmp_path):
    # parse_ordinal keeps what it reads, but not its errors: the second
    # reading parses the payload again and refuses it the same way.
    doc = fl.encode_flowchart(_raised_chart(SP2))
    doc["term"]["nodes"][0]["payload"] = "w^(1"
    path = write_doc(tmp_path, "bad.fc", doc)
    first = run(capsys, ["check", path])
    assert first[0] == 2 and first[2].startswith("error: bad veblen index: ")
    assert run(capsys, ["check", path]) == first


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


def test_fuzz_checks_reduced_output_off_the_grid(capsys, monkeypatch):
    # Every `~>` test also takes in [0000011], which no grid point
    # enters, so the grid check passes and only `equivalent` can fail.
    real = fl.to_reduced
    deep = parse_clopen(Space(2), "{0000011}")

    def widened(f):
        g = real(f)
        return g.replace_sets(lambda addr, s: s if isinstance(g.tree.label(addr), JoinL) else s.union(deep))

    monkeypatch.setattr(fl, "to_reduced", widened)
    code, out, _ = run(capsys, ["--seed", "1", "fuzz", "--iters", "25"])
    assert code == 1
    failing = [line for line in out.splitlines() if not line.endswith(": 25 cases, ok")]
    assert len(failing) == 1 and failing[0].startswith("reduced: FAIL seed=")


# A point of [0000011] starts 0000 then 011, which no prefix of at most 4
# letters followed by a period of at most 2 spells: no grid point is in it.
_DEEP = parse_clopen(SP2, "{0000011}")


def _arrows_without(f, cut):
    """f with `cut` taken out of every `~>` test.  In a normal
    Veblen-free term a `~>` node's left child is a leaf, so the points
    moved there meet no join."""
    return f.replace_sets(lambda addr, s: s if isinstance(f.tree.label(addr), JoinL) else s.difference(cut))


def test_fuzz_checks_monotone_output_off_the_grid(capsys, monkeypatch):
    # The output stays within its domains and is still a fixed point of
    # the (patched) transform, so only `equivalent` can fail.
    real = fl.to_monotone
    monkeypatch.setattr(fl, "to_monotone", lambda f: real(f).replace_sets(lambda addr, s: s.difference(_DEEP)))
    code, out, _ = run(capsys, ["--seed", "1", "fuzz", "--iters", "25"])
    assert code == 1
    failing = [line for line in out.splitlines() if not line.endswith(": 25 cases, ok")]
    assert len(failing) == 1 and failing[0].startswith("monotone: FAIL seed=")
    assert failing[0].endswith(" monotone output differs off the grid")


@pytest.mark.parametrize("patched, cut, message", [
    ("flowchart_to_simple_command", _DEEP, " translation round trip differs off the grid"),
    ("make_strongly_total", _DEEP, " strongly-total output differs off the grid"),
    # Cut on the grid, the second pair is caught at a grid point.
    ("make_strongly_total", cs("{1}"), " strongly-total eval mismatch at "),
], ids=["round-trip-off-grid", "strongly-total-off-grid", "strongly-total-on-grid"])
def test_fuzz_checks_translation_output(capsys, monkeypatch, patched, cut, message):
    real = getattr(cm, patched)

    def broken(doc):
        if patched == "flowchart_to_simple_command":
            return real(_arrows_without(doc, cut))
        return cm.flowchart_to_simple_command(_arrows_without(cm.command_to_flowchart(real(doc)), cut))

    monkeypatch.setattr(cm, patched, broken)
    code, out, _ = run(capsys, ["--seed", "1", "fuzz", "--iters", "25"])
    assert code == 1
    failing = [line for line in out.splitlines() if not line.endswith(": 25 cases, ok")]
    assert len(failing) == 1 and failing[0].startswith("translation: FAIL seed=")
    assert message in failing[0]


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


@pytest.mark.parametrize("text", ["{10,}", "{,}", "{10, ,11}"])
def test_empty_set_element_names_its_address(capsys, tmp_path, text):
    doc = fl.encode_flowchart(FC)
    doc["assign"]["1"] = ["{0}", text]
    code, out, err = run(capsys, ["check", write_doc(tmp_path, "x.fc", doc)])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad set entry at address '1': empty element")


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


def test_fuzz_builds_its_sample_grid_once(capsys, monkeypatch):
    shapes = []

    def counted(space, max_prefix, max_period):
        shapes.append((space, max_prefix, max_period))
        return sample_grid(space, max_prefix, max_period)

    monkeypatch.setattr(cli, "sample_grid", counted)
    code, out, _ = run(capsys, ["--grid-prefix", "3", "fuzz", "--iters", "2"])
    assert code == 0 and out.count(": 2 cases, ok") == len(cli._SUITES)
    assert shapes == [(SP2, 3, 2)]
