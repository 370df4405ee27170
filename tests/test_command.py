"""Commands with reassignment: val, evaluation, translation, padding."""

import json
import random

import pytest

from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import generate as gen
from vebflow.command import (
    ArrowSite,
    Command,
    JoinSite,
    VeblenSite,
    command_to_flowchart,
    decode_command,
    encode_command,
    eval_command,
    eval_outcome,
    flowchart_to_simple_command,
    is_simple,
    is_strongly_total,
    make_strongly_total,
    true_paths,
    true_positions,
    val,
)
from vebflow.errors import (
    DocumentError,
    InvalidAddressError,
    NoTruePathError,
    OpenTermError,
    SpaceMismatchError,
    UnsupportedError,
)
from vebflow.generate import (
    random_command,
    random_normal_term,
    random_term,
    random_total_det_flowchart,
)
from vebflow.ordinal import ONE, ZERO
from vebflow.space import ClopenSet, Space, member, parse_clopen, parse_point, sample_grid
from vebflow.term import ArrowL, Const, JoinL, VeblenL, parse_term
from vebflow.transducer import (
    apply,
    compose,
    const_zero,
    drop_first,
    encode_map,
    identity_map,
    letter_double,
    out_map,
)

SP2 = Space(2)
GRID = sample_grid(SP2, 4, 2)
IDENT = identity_map(SP2)


def cs(text, space=SP2):
    return parse_clopen(space, text)


def pt(text, space=SP2):
    return parse_point(space, text)


TERM = parse_term('q"q0" ~> join(q"q1", q"q2")')
SIMPLE = Command(TERM, SP2, {
    (): ArrowSite(cs("{1}"), IDENT),
    (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
})
FC = fl.Flowchart(TERM, SP2, {(): cs("{1}"), (1,): (cs("{10}"), cs("{11}"))})


# -- construction -----------------------------------------------------------

def test_rejects_bad_sites():
    with pytest.raises(ValueError, match="join node \\(1,\\) needs 2 \\(test, map\\) pairs"):
        Command(TERM, SP2, {(): ArrowSite(cs("{1}"), IDENT)})  # join missing
    with pytest.raises(ValueError, match="join node \\(1,\\) needs 2 \\(test, map\\) pairs"):
        Command(TERM, SP2, {
            (): ArrowSite(cs("{1}"), IDENT),
            (1,): JoinSite(((cs("{10}"), IDENT),)),  # arity
        })
    with pytest.raises(ValueError, match="leaf \\(0,\\) takes no site"):
        Command(TERM, SP2, {
            (): ArrowSite(cs("{1}"), IDENT),
            (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
            (0,): VeblenSite(IDENT),  # leaf takes no site
        })
    with pytest.raises(ValueError, match="outside the tree: \\[\\(1, 2\\), \\(2,\\)\\]"):
        Command(TERM, SP2, {
            (): ArrowSite(cs("{1}"), IDENT),
            (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
            (2,): VeblenSite(IDENT),
            (1, 2): VeblenSite(IDENT),
        })


def test_space_wiring_checked():
    # the arrow edge jumps into Space(1); the join tests then live there
    into1 = Command(
        TERM, SP2,
        {
            (): ArrowSite(cs("{1}"), _const_into_sp1()),
            (1,): JoinSite(((ClopenSet.full(Space(1)), identity_map(Space(1))),
                            (ClopenSet.empty(Space(1)), identity_map(Space(1))))),
        },
    )
    assert into1.space_at((1,)) == Space(1)
    with pytest.raises(SpaceMismatchError):
        Command(TERM, SP2, {
            (): ArrowSite(cs("{1}"), _const_into_sp1()),
            (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
        })


def _const_into_sp1():
    from vebflow.transducer import const_zero

    return const_zero(SP2, Space(1))


def _space_changing_command():
    """Spaces change along a Veblen edge, a ~> node's right edge and a
    join member, and a fallthrough edge keeps its node's space."""
    sp1, sp3 = Space(1), Space(3)
    t = parse_term('veb[0](q"a" ~> join(q"b", q"c" ~> q"d"))')
    return Command(t, SP2, {
        (): VeblenSite(const_zero(SP2, sp3)),
        (0,): ArrowSite(ClopenSet.full(sp3), const_zero(sp3, sp1)),
        (0, 1): JoinSite(((ClopenSet.full(sp1), identity_map(sp1)),
                          (ClopenSet.full(sp1), const_zero(sp1, SP2)))),
        (0, 1, 1): ArrowSite(cs("{1}"), const_zero(SP2, sp3)),
    })


def test_space_at_is_the_output_space_of_the_map_into_the_node(deep_chain):
    c = _space_changing_command()
    sp1, sp3 = Space(1), Space(3)
    assert {addr: c.space_at(addr) for addr in c.tree.nodes} == {
        (): SP2, (0,): sp3, (0, 0): sp3, (0, 1): sp1, (0, 1, 0): sp1,
        (0, 1, 1): SP2, (0, 1, 1, 0): SP2, (0, 1, 1, 1): sp3,
    }
    for c in (c, flowchart_to_simple_command(deep_chain(2000))):
        assert c.space_at(()) is c.space
        for addr in list(c.tree.nodes)[1:]:
            assert c.space_at(addr) == c.edge_map(addr).output_space
        for off in ((5,), (0, 2), (-1,)):
            with pytest.raises(InvalidAddressError, match="no node at address"):
                c.space_at(off)


def test_open_term_with_a_duplicate_site_reports_the_duplicate():
    t = parse_term('x"v" ~> q"b"')
    site = ArrowSite(cs("{1}"), IDENT)
    with pytest.raises(ValueError, match="duplicate site at \\(\\)"):
        Command(t, SP2, [((), site), ((), site)])
    with pytest.raises(OpenTermError, match="commands need closed terms"):
        Command(t, SP2, [((), site)])


# -- val -----------------------------------------------------------------------

def test_val_identity_at_root_and_for_simple_commands():
    assert val(SIMPLE, ()) == IDENT
    for addr in ((0,), (1,), (1, 0), (1, 1)):
        assert val(SIMPLE, addr) == IDENT


def test_val_single_composition():
    c = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), letter_double(SP2)),
        (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
    })
    assert val(c, (1,)) == letter_double(SP2)
    assert val(c, (1, 0)) == letter_double(SP2)
    assert val(c, (0,)) == IDENT


def test_val_composition_law():
    rng = random.Random(139)
    for _ in range(40):
        term = random_term(rng, 3, veblen=False)
        c = random_command(rng, term, SP2, 3)
        for addr in c.tree.addresses():
            if addr:
                assert val(c, addr) == compose(c.edge_map(addr), val(c, addr[:-1]))


def test_val_invalid_address():
    with pytest.raises(InvalidAddressError):
        val(SIMPLE, (5,))


def test_edge_map_only_on_edges():
    c = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), letter_double(SP2)),
        (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), drop_first(SP2)))),
    })
    assert c.edge_map((0,)) == IDENT
    assert c.edge_map((1,)) == letter_double(SP2)
    assert c.edge_map((1, 1)) == drop_first(SP2)
    v = Command(parse_term('veb[0](q"a")'), SP2, {(): VeblenSite(drop_first(SP2))})
    assert v.edge_map((0,)) == drop_first(SP2)
    for cmd, addr in ((c, ()), (c, (5,)), (c, (2,)), (c, (-1,)), (c, (1, 2)), (c, (0, 0)),
                      (v, (3,)), (v, (0, 0))):
        with pytest.raises(InvalidAddressError, match="no edge into"):
            cmd.edge_map(addr)


# -- evaluation -------------------------------------------------------------------

def test_simple_command_matches_flowchart():
    for x in GRID:
        assert eval_outcome(SIMPLE, x) == fl.eval_outcome(FC, x)


def test_reassignment_decides_later_test():
    # after redirecting into the complement of [1], the test [0] passes
    t = parse_term('q"a" ~> (q"b" ~> join(q"c"))')
    moved = Command(t, SP2, {
        (): ArrowSite(cs("{1}"), out_map(cs("{1}"))),
        (1,): ArrowSite(cs("{0}"), IDENT),
        (1, 1): JoinSite(((ClopenSet.full(SP2), IDENT),)),
    })
    kept = Command(t, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): ArrowSite(cs("{0}"), IDENT),
        (1, 1): JoinSite(((ClopenSet.full(SP2), IDENT),)),
    })
    x = pt("1(0)")
    assert eval_command(moved, x) == "c"
    assert eval_command(kept, x) == "b"
    assert eval_command(moved, pt("(0)")) == "a"


def test_true_paths_and_no_true_path():
    assert true_paths(SIMPLE, pt("10(0)")) == [((1, 0), "q1")]
    starved = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): JoinSite(((cs("{10}"), IDENT), (ClopenSet.empty(SP2), IDENT))),
    })
    with pytest.raises(NoTruePathError):
        eval_command(starved, pt("11(0)"))
    assert eval_outcome(starved, pt("11(0)")) == ("no-true-path",)


def test_eval_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        eval_command(SIMPLE, pt("(0)", space=Space(3)))


def test_translations_share_the_term_tree():
    rng = random.Random(173)
    for _ in range(30):
        term = gen.random_normal_term(rng, 4, veblen=False)
        f = gen.random_total_det_flowchart(rng, term, SP2, 3)
        c = flowchart_to_simple_command(f)
        assert c.tree is f.tree
        assert command_to_flowchart(c).tree is c.tree
        assert make_strongly_total(c).tree is c.tree


def test_eval_on_deep_simple_command(deep_chain):
    c = flowchart_to_simple_command(deep_chain(2000))
    assert eval_outcome(c, pt("(1)")) == ("no-true-path",)


# -- the lowering against the walker it replaced ----------------------------------
#
# Before evaluation went through command_to_flowchart, a command carried
# its current value down the tree and tested that, and val recomposed
# the edge maps from the root on every call.  Both are kept here as the
# reference for the one-pass lowering.

def ref_val(c, addr):
    out = identity_map(c.space)
    for i in range(1, len(addr) + 1):
        out = compose(c.edge_map(addr[:i]), out)
    return out


def ref_true_positions(c, x):
    out = []

    def walk(addr, value):
        out.append(addr)
        label = c.tree.label(addr)
        if isinstance(label, ArrowL):
            site = c.at(addr)
            if member(value, site.test):
                walk(addr + (1,), apply(site.then_map, value))
            else:
                walk(addr + (0,), value)
        elif isinstance(label, JoinL):
            for n, (test, m) in enumerate(c.at(addr).members):
                if member(value, test):
                    walk(addr + (n,), apply(m, value))
        elif isinstance(label, VeblenL):
            walk(addr + (0,), apply(c.at(addr).child_map, value))

    walk((), x)
    return sorted(out)


def ref_eval_outcome(c, x):
    labels = set()
    for addr in ref_true_positions(c, x):
        label = c.tree.label(addr)
        if isinstance(label, Const):
            labels.add(label.label)
    if not labels:
        return ("no-true-path",)
    if len(labels) > 1:
        return ("ambiguous", frozenset(labels))
    return ("value", labels.pop())


def test_lowering_matches_reference_walker(monkeypatch):
    # random_command draws its maps from map_palette; widen the palette
    # with two out_map retractions so that reassignments also land
    # points in a set's complement
    palette = gen.map_palette(SP2) + [out_map(cs("{1}")), out_map(cs("{01, 10}"))]
    monkeypatch.setattr(gen, "map_palette", lambda space: palette)
    rng = random.Random(173)
    commands = [random_command(rng, random_term(rng, 3), SP2, 3) for _ in range(60)]
    sp1 = Space(1)
    commands.append(Command(parse_term('q"a" ~> join(q"b", veb[0](q"c"))'), SP2, {
        (): ArrowSite(cs("{1}"), const_zero(SP2, sp1)),
        (1,): JoinSite(((ClopenSet.full(sp1), identity_map(sp1)),
                        (ClopenSet.full(sp1), identity_map(sp1)))),
        (1, 1): VeblenSite(identity_map(sp1)),
    }))
    for c in commands:
        for addr in c.tree.addresses():
            assert val(c, addr) == ref_val(c, addr)
        for x in GRID:
            assert true_positions(c, x) == ref_true_positions(c, x)
            assert eval_outcome(c, x) == ref_eval_outcome(c, x)


# -- predicates -----------------------------------------------------------------------

def test_is_strongly_total_examples():
    c = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): JoinSite(((cs("{0}"), IDENT), (cs("{1}"), IDENT))),
    })
    assert is_strongly_total(c)
    assert not is_strongly_total(SIMPLE)  # [10] u [11] = [1] != full

    t = parse_term('q"a" ~> q"b"')
    d = Command(t, SP2, {(): ArrowSite(cs("{1}"), IDENT)})
    assert is_strongly_total(d)  # vacuous


def test_is_simple_examples():
    assert is_simple(SIMPLE)
    c = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): JoinSite(((cs("{10}"), drop_first(SP2)), (cs("{11}"), IDENT))),
    })
    assert not is_simple(c)
    # a Veblen edge map does not affect simplicity
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    v = Command(t, SP2, {
        (0,): ArrowSite(cs("{1}"), IDENT),
        (0, 1): JoinSite(((ClopenSet.full(SP2), IDENT),)),
        (): VeblenSite(drop_first(SP2)),
    })
    assert is_simple(v)


def _is_simple_by_comparison(c):
    # The reference: each ~>/join edge map against a freshly built identity.
    for addr, site in c.assign:
        ident = identity_map(c.space_at(addr))
        if isinstance(site, ArrowSite) and site.then_map != ident:
            return False
        if isinstance(site, JoinSite) and any(m != ident for _, m in site.members):
            return False
    return True


@pytest.mark.parametrize("k", [2, 3])
def test_is_simple_matches_machine_comparison(k):
    sp = Space(k)
    rng = random.Random(1300 + k)
    seen = set()
    for _ in range(150):
        term = random_term(rng, 3)
        c = random_command(rng, term, sp, 3)
        seen.add(is_simple(c))
        assert is_simple(c) == _is_simple_by_comparison(c)
        for _, site in c.assign:
            if isinstance(site, JoinSite):
                maps = [m for _, m in site.members]
            else:
                maps = [site.then_map if isinstance(site, ArrowSite) else site.child_map]
            for m in maps:
                assert (encode_map(m, sp) == "identity") == (m == identity_map(sp))
    assert seen == {True, False}


def test_totality_and_determinism_via_flowchart():
    ok, w = cm.is_total(SIMPLE)
    assert ok and w is None
    det, dw = cm.is_deterministic(SIMPLE)
    assert det and dw is None


# -- command_to_flowchart ----------------------------------------------------------------

def test_translation_of_simple_command_keeps_sets():
    f = command_to_flowchart(SIMPLE)
    assert f == FC


def test_translation_preimages_reassigned_tests():
    t = parse_term('q"a" ~> (q"b" ~> join(q"c"))')
    c = Command(t, SP2, {
        (): ArrowSite(cs("{1}"), letter_double(SP2)),
        (1,): ArrowSite(cs("{00}"), IDENT),
        (1, 1): JoinSite(((ClopenSet.full(SP2), IDENT),)),
    })
    f = command_to_flowchart(c)
    a = dict(f.assign)
    assert a[()] == cs("{1}")
    assert a[(1,)] == cs("{0}")  # preimage of [00] under doubling


def test_translation_eval_agreement_random():
    rng = random.Random(149)
    for _ in range(80):
        term = random_term(rng, 3, veblen=False)
        c = random_command(rng, term, SP2, 3)
        f = command_to_flowchart(c)
        assert fl.check_levels(f)
        for x in GRID:
            assert fl.eval_outcome(f, x) == eval_outcome(c, x)


# -- flowchart_to_simple_command ----------------------------------------------------------

def test_transport_of_running_example():
    c = flowchart_to_simple_command(FC)
    assert is_simple(c)
    site = c.at(())
    assert site.test == cs("{1}")
    join = c.at((1,))
    assert [t for t, _ in join.members] == [cs("{10}"), cs("{11}")]
    for x in GRID:
        assert eval_outcome(c, x) == fl.eval_outcome(FC, x)


def test_transport_round_trip():
    rng = random.Random(151)
    for _ in range(80):
        term = random_term(rng, 4, veblen=False)
        f = fl.Flowchart(term, SP2, dict(_random_assign(rng, term)))
        back = command_to_flowchart(flowchart_to_simple_command(f))
        assert back == f


def _random_assign(rng, term):
    from vebflow.generate import random_flowchart

    return random_flowchart(rng, term, SP2, 3).assign


def test_transport_allows_index_zero_veblen():
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    f = fl.Flowchart(t, SP2, {(0,): cs("{1}"), (0, 1): (ClopenSet.full(SP2),)})
    c = flowchart_to_simple_command(f)
    assert eval_command(c, pt("1(0)")) == "b"


def test_transport_rejects_higher_veblen():
    t = parse_term('veb[1](q"a" ~> join(q"b"))')
    f = fl.Flowchart(t, SP2, {(0,): cs("{1}"), (0, 1): (ClopenSet.full(SP2),)})
    with pytest.raises(UnsupportedError):
        flowchart_to_simple_command(f)


def test_trace_equality_for_simple_commands():
    rng = random.Random(157)
    for _ in range(60):
        term = random_term(rng, 4, veblen=False)
        f = fl.Flowchart(term, SP2, dict(_random_assign(rng, term)))
        c = flowchart_to_simple_command(f)
        for x in GRID:
            assert true_positions(c, x) == fl.true_positions(f, x)


# -- make_strongly_total -------------------------------------------------------------------

def test_padding_keeps_strongly_total_input_strongly_total():
    c = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): JoinSite(((cs("{0}"), IDENT), (cs("{1}"), IDENT))),
    })
    p = make_strongly_total(c)
    assert is_strongly_total(p)
    for x in GRID:
        assert eval_outcome(p, x) == eval_outcome(c, x)


def test_padding_example_family():
    p = make_strongly_total(SIMPLE)
    assert is_strongly_total(p)
    join = p.at((1,))
    tests = [t for t, _ in join.members]
    # member 0 absorbed the complement of the domain [1]
    assert tests[0] == cs("{0, 10}")
    assert tests[1] == cs("{11}")
    for x in GRID:
        assert eval_outcome(p, x) == eval_outcome(SIMPLE, x)


def test_padding_sweep_random_total_simple_commands():
    rng = random.Random(163)
    done = 0
    while done < 100:
        term = random_normal_term(rng, 3, veblen=False)
        f = random_total_det_flowchart(rng, term, SP2, 3)
        c = flowchart_to_simple_command(f)
        p = make_strongly_total(c)
        assert is_strongly_total(p)
        assert is_simple(p)
        for x in GRID:
            assert eval_outcome(p, x) == eval_outcome(c, x)
        done += 1


def test_padding_preconditions():
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    v = Command(t, SP2, {
        (0,): ArrowSite(cs("{1}"), IDENT),
        (0, 1): JoinSite(((ClopenSet.full(SP2), IDENT),)),
        (): VeblenSite(IDENT),
    })
    with pytest.raises(UnsupportedError):
        make_strongly_total(v)  # veblen in the term

    nonsimple = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), drop_first(SP2)),
        (1,): JoinSite(((cs("{10}"), IDENT), (cs("{11}"), IDENT))),
    })
    with pytest.raises(UnsupportedError):
        make_strongly_total(nonsimple)

    starved = Command(TERM, SP2, {
        (): ArrowSite(cs("{1}"), IDENT),
        (1,): JoinSite(((cs("{10}"), IDENT), (ClopenSet.empty(SP2), IDENT))),
    })
    with pytest.raises(UnsupportedError, match="not total"):
        make_strongly_total(starved)


def test_padding_rejects_uncovered_but_rescued_join():
    # total (member 0 of the root join carries everyone to a leaf), yet
    # the inner family misses 0... inside its own domain; padding that
    # hole would hand those points a brand new route
    rescued = Command(parse_term('join(q"a", join(q"b"))'), SP2, {
        (): JoinSite(((ClopenSet.full(SP2), IDENT), (ClopenSet.full(SP2), IDENT))),
        (1,): JoinSite(((cs("{1}"), IDENT),)),
    })
    assert cm.is_total(rescued)[0]
    with pytest.raises(UnsupportedError, match="misses part of its domain"):
        make_strongly_total(rescued)


# -- codec -------------------------------------------------------------------------------------

def test_encode_command_shape():
    doc = encode_command(SIMPLE)
    assert doc["kind"] == "command"
    assert doc["space"] == 2
    assert doc["assign"][""] == {"test": "{1}", "map": "identity"}
    assert doc["assign"]["1"] == [
        {"test": "{10}", "map": "identity"},
        {"test": "{11}", "map": "identity"},
    ]


def test_codec_round_trip_byte_stable():
    rng = random.Random(167)
    for _ in range(100):
        term = random_term(rng, 3, veblen=False)
        c = random_command(rng, term, SP2, 3)
        doc = encode_command(c)
        text = json.dumps(doc, sort_keys=True)
        d = decode_command(json.loads(text))
        assert d == c
        assert json.dumps(encode_command(d), sort_keys=True) == text


def test_decode_accepts_identity_else_edge():
    doc = json.loads(json.dumps(encode_command(SIMPLE)))
    doc["assign"][""]["else"] = "identity"
    assert decode_command(doc) == SIMPLE


def test_decode_rejects_non_identity_else_edge():
    doc = json.loads(json.dumps(encode_command(SIMPLE)))
    doc["assign"][""]["else"] = "drop-first"
    with pytest.raises(DocumentError, match="identity"):
        decode_command(doc)


def test_decode_wires_the_tree_once(monkeypatch):
    # The sites and edge maps of the reading walk make the command; no
    # second walk rebuilds them.
    rng = random.Random(31)
    commands = [random_command(rng, random_term(rng, 3), SP2, 3) for _ in range(20)]
    wire = cm._wire
    calls = []
    monkeypatch.setattr(cm, "_wire", lambda *args: calls.append(args) or wire(*args))
    for c in commands:
        calls.clear()
        assert decode_command(json.loads(json.dumps(encode_command(c)))) == c
        assert len(calls) == 1


def test_decode_rejects_malformed():
    good = encode_command(SIMPLE)

    b = json.loads(json.dumps(good)); del b["assign"]["1"]
    with pytest.raises(DocumentError, match="missing site"):
        decode_command(b)

    b = json.loads(json.dumps(good)); b["assign"]["1"] = b["assign"]["1"][:1]
    with pytest.raises(DocumentError, match="join node \\(1,\\) needs 2 site records"):
        decode_command(b)

    b = json.loads(json.dumps(good)); b["assign"]["0"] = {"map": "identity"}
    with pytest.raises(DocumentError, match="leaf \\(0,\\) takes no site"):
        decode_command(b)

    b = json.loads(json.dumps(good)); b["assign"][""]["weird"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        decode_command(b)

    b = json.loads(json.dumps(good)); del b["assign"][""]["test"]
    with pytest.raises(DocumentError, match="test"):
        decode_command(b)

    b = json.loads(json.dumps(good)); b["space"] = 0
    with pytest.raises(DocumentError, match="alphabet_size must be an int >= 1"):
        decode_command(b)

    with pytest.raises(DocumentError, match="a command document has kind 'command'"):
        decode_command({"kind": "flowchart"})

    b = json.loads(json.dumps(good)); b["space"] = "2"
    with pytest.raises(DocumentError, match="command document needs an integer space"):
        decode_command(b)

    b = json.loads(json.dumps(good)); del b["assign"]
    with pytest.raises(DocumentError, match="command document needs an assign object"):
        decode_command(b)

    b = json.loads(json.dumps(good))
    b["assign"]["2"] = {"map": "identity"}
    b["assign"]["1.2"] = {"map": "identity"}
    with pytest.raises(DocumentError, match="outside the tree: \\[\\(1, 2\\), \\(2,\\)\\]"):
        decode_command(b)


def test_decode_resolves_maps_in_working_spaces():
    # an arrow edge that narrows to Space(1); the join sets are written
    # in that space, and "identity" resolves there too
    t = parse_term('q"a" ~> join(q"b")')
    c = Command(t, SP2, {
        (): ArrowSite(cs("{1}"), _const_into_sp1()),
        (1,): JoinSite(((ClopenSet.full(Space(1)), identity_map(Space(1))),)),
    })
    doc = encode_command(c)
    assert decode_command(json.loads(json.dumps(doc))) == c


def test_equal_test_literals_are_shared_within_a_working_space_only():
    # The root works in Space(2); the join under the arrow's right edge
    # works in Space(1), through a map into it.  Each space reads "{e}"
    # as its own full set, and equal literals are one set per space.
    t = parse_term('q"a" ~> join(q"b", q"c")')
    sp1 = Space(1)
    c = Command(t, SP2, {
        (): ArrowSite(ClopenSet.full(SP2), _const_into_sp1()),
        (1,): JoinSite(((ClopenSet.full(sp1), identity_map(sp1)),
                        (ClopenSet.full(sp1), identity_map(sp1)))),
    })
    doc = json.loads(json.dumps(encode_command(c)))
    assert doc["assign"][""]["test"] == doc["assign"]["1"][0]["test"] == "{e}"
    got = decode_command(doc)
    root, join = got.at(()).test, got.at((1,)).members
    assert join[0][0] is join[1][0]
    assert root is not join[0][0]
    assert root.space == SP2 and join[0][0].space == sp1
    assert got == c


# -- refusals no other test reaches ------------------------------------------

VEB = parse_term('veb[0](q"a")')


def _doc_with_site(c, key, entry):
    doc = json.loads(json.dumps(encode_command(c)))
    doc["assign"][key] = entry
    return doc


@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: Command(parse_term('x"a" ~> q"b"'), SP2, {}),
        OpenTermError, "commands need closed terms", id="open-term",
    ),
    pytest.param(lambda: SIMPLE.at((0,)), InvalidAddressError, "no site at (0,)", id="no-site"),
    pytest.param(
        lambda: SIMPLE.space_at((2,)), InvalidAddressError, "no node at address (2,)",
        id="no-node",
    ),
    pytest.param(
        lambda: Command(TERM, SP2, {(): VeblenSite(IDENT), (1,): SIMPLE.at((1,))}),
        ValueError, "~> node () needs a test and a map", id="arrow-site",
    ),
    pytest.param(
        lambda: Command(VEB, SP2, {(): ArrowSite(cs("{1}"), IDENT)}),
        ValueError, "veblen node () needs a map", id="veblen-site",
    ),
    pytest.param(
        lambda: Command(TERM, SP2, {(): ArrowSite("{1}", IDENT), (1,): SIMPLE.at((1,))}),
        ValueError, "test at () is not a set", id="test-not-a-set",
    ),
    pytest.param(
        lambda: Command(VEB, SP2, {(): VeblenSite("identity")}),
        ValueError, "map at () is not a transducer", id="map-not-a-transducer",
    ),
    pytest.param(
        lambda: Command(VEB, SP2, {(): VeblenSite(identity_map(Space(3)))}),
        SpaceMismatchError, "map at () reads Space(3) but the node works in Space(2)",
        id="map-reads-another-space",
    ),
    pytest.param(
        lambda: true_positions(SIMPLE, pt("(2)", Space(3))),
        SpaceMismatchError, "point in Space(3), command in Space(2)", id="point-space",
    ),
    pytest.param(
        lambda: decode_command(_doc_with_site(SIMPLE, "", "x")),
        DocumentError, "a site record is a JSON object, got 'x'", id="site-record",
    ),
    pytest.param(
        lambda: decode_command(
            _doc_with_site(Command(VEB, SP2, {(): VeblenSite(IDENT)}), "", {"map": {"in": "{1}"}})
        ),
        DocumentError, "map at () reads Space(1) but the node works in Space(2)",
        id="decoded-map-reads-another-space",
    ),
])
def test_refusal_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
