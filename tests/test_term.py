"""Term AST, syntax trees, predicates, ranks, parsing, codecs."""

import random

import pytest

from vebflow.errors import DocumentError, InvalidAddressError, ParseError
from vebflow.generate import random_term
from vebflow.ordinal import CnfOrdinal, OMEGA, ONE, ZERO, add, cmp, omega_pow, parse_ordinal, render_ordinal
from vebflow.term import (
    Arrow,
    ArrowL,
    Const,
    Join,
    JoinL,
    SyntaxTree,
    Var,
    Veblen,
    VeblenL,
    apply_fixed_point,
    borel_rank,
    borel_ranks,
    constant_labels,
    decode_tree,
    encode_tree,
    has_veblen,
    is_closed,
    is_normal,
    is_well_formed,
    neck,
    parse_term,
    render_term,
    syntax_tree,
    term_from_tree,
)

TWO = CnfOrdinal.from_int(2)


# -- syntax_tree embedding --------------------------------------------

def test_syntax_tree_single_constant():
    st = syntax_tree(Const("q"))
    assert st.nodes == {(): Const("q")}


def test_syntax_tree_arrow_over_join():
    st = syntax_tree(parse_term("1 ~> join(0, 2)"))
    assert st.nodes == {
        (): ArrowL(),
        (0,): Const("1"),
        (1,): JoinL(),
        (1, 0): Const("0"),
        (1, 1): Const("2"),
    }


def test_syntax_tree_veblen():
    st = syntax_tree(Veblen(ONE, Const("q")))
    assert st.nodes == {(): VeblenL(ONE), (0,): Const("q")}


def test_term_from_tree_inverts_syntax_tree():
    rng = random.Random(3)
    for _ in range(500):
        t = random_term(rng, 5)
        assert term_from_tree(syntax_tree(t)) == t


# -- predicates --------------------------------------------------------

def test_well_formed_examples():
    assert not is_well_formed(Veblen(ZERO, Join((Const("a"), Const("b")))))
    assert is_well_formed(Const("q"))
    assert is_well_formed(Veblen(ONE, Arrow(Const("a"), Join((Const("b"),)))))


def test_normal_examples():
    assert is_normal(Arrow(Const("a"), Join((Const("b"),))))
    assert not is_normal(Arrow(Const("a"), Const("b")))
    assert not is_normal(Arrow(Join((Const("a"),)), Join((Const("b"),))))


def test_closed_and_has_veblen():
    assert is_closed(Const("a"))
    assert not is_closed(Var("x"))
    assert not is_closed(Arrow(Const("a"), Join((Var("y"),))))
    assert has_veblen(Veblen(ZERO, Const("a")))
    assert not has_veblen(Arrow(Const("a"), Join((Const("b"),))))


def test_constant_labels():
    t = parse_term('q"a" ~> join(q"b", q"a")')
    assert constant_labels(t) == {"a", "b"}


def test_join_requires_a_child():
    with pytest.raises(ValueError):
        Join(())


# -- fixed-point rewrite ------------------------------------------------

def test_fixed_point_examples():
    q = Const("q")
    assert apply_fixed_point(Veblen(ZERO, Veblen(ONE, q))) == Veblen(ONE, q)
    t = Veblen(ONE, Veblen(ZERO, q))
    assert apply_fixed_point(t) == t
    assert apply_fixed_point(Veblen(ZERO, Veblen(ONE, Veblen(TWO, q)))) == Veblen(TWO, q)


def test_fixed_point_keeps_equal_indices():
    t = Veblen(ONE, Veblen(ONE, Const("q")))
    assert apply_fixed_point(t) == t


def test_fixed_point_rewrites_under_other_nodes():
    inner = Veblen(ZERO, Veblen(ONE, Const("q")))
    t = Arrow(inner, Join((inner,)))
    got = apply_fixed_point(t)
    assert got == Arrow(Veblen(ONE, Const("q")), Join((Veblen(ONE, Const("q")),)))


def test_fixed_point_idempotent_and_preserves_well_formed():
    rng = random.Random(11)
    for _ in range(2000):
        t = random_term(rng, 6)
        once = apply_fixed_point(t)
        assert apply_fixed_point(once) == once
        assert is_well_formed(once)


def _exhaustive_rewrite(t):
    """One-step-at-a-time oracle for the collapse rule."""
    def step(t):
        match t:
            case Veblen(b, Veblen(a, s)) if cmp(b, a) < 0:
                return Veblen(a, s), True
            case Arrow(l, r):
                nl, ch = step(l)
                if ch:
                    return Arrow(nl, r), True
                nr, ch = step(r)
                return Arrow(l, nr), ch
            case Join(children):
                kids = list(children)
                for i, c in enumerate(kids):
                    nc, ch = step(c)
                    if ch:
                        kids[i] = nc
                        return Join(tuple(kids)), True
                return t, False
            case Veblen(i, c):
                nc, ch = step(c)
                return Veblen(i, nc), ch
            case _:
                return t, False

    changed = True
    while changed:
        t, changed = step(t)
    return t


def test_fixed_point_matches_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(1000):
        t = random_term(rng, 5)
        assert apply_fixed_point(t) == _exhaustive_rewrite(t)


# -- neck ----------------------------------------------------------------

def test_neck_examples():
    a, b = Const("a"), Const("b")
    assert neck(Const("q")) == ([], Const("q"))
    assert neck(Veblen(TWO, Veblen(ONE, Arrow(a, b)))) == ([TWO, ONE], Arrow(a, b))
    assert neck(Veblen(ZERO, Const("q"))) == ([ZERO], Const("q"))


def test_neck_reassembles():
    rng = random.Random(17)
    for _ in range(500):
        t = random_term(rng, 5)
        head, body = neck(t)
        assert not isinstance(body, Veblen)
        rebuilt = body
        for idx in reversed(head):
            rebuilt = Veblen(idx, rebuilt)
        assert rebuilt == t


# -- borel_rank -----------------------------------------------------------

def test_rank_examples():
    t1 = Arrow(Const("a"), Join((Const("b"),)))
    assert borel_rank(t1, ()) == ONE

    t2 = Veblen(ZERO, Join((Const("a"),)))
    assert borel_rank(t2, (0,)) == TWO

    t3 = Veblen(ONE, Veblen(ZERO, Join((Const("a"),))))
    assert borel_rank(t3, (0, 0)) == add(OMEGA, ONE)
    # more of the same walk: the join node itself is not a Veblen label
    assert borel_rank(t3, ()) == ONE
    assert borel_rank(t3, (0,)) == OMEGA
    assert borel_rank(t3, (0, 0, 0)) == add(OMEGA, ONE)


def test_rank_rejects_invalid_address():
    t = Arrow(Const("a"), Join((Const("b"),)))
    with pytest.raises(InvalidAddressError):
        borel_rank(t, (2,))
    with pytest.raises(InvalidAddressError):
        borel_rank(t, (0, 0))


def test_rank_weakly_increasing_along_paths():
    rng = random.Random(19)
    for _ in range(500):
        t = random_term(rng, 5)
        st = syntax_tree(t)
        for addr in st.addresses():
            for cut in range(len(addr) + 1):
                assert cmp(borel_rank(t, addr[:cut]), borel_rank(t, addr)) <= 0


def test_borel_ranks_match_borel_rank():
    rng = random.Random(23)
    for _ in range(300):
        t = random_term(rng, 6)
        ranks = borel_ranks(t)
        assert sorted(ranks) == syntax_tree(t).addresses()
        for addr, rank in ranks.items():
            assert rank == borel_rank(t, addr)


# -- parse / render --------------------------------------------------------

def test_parse_examples():
    assert parse_term('q"a" ~> join(q"b", q"c")') == Arrow(
        Const("a"), Join((Const("b"), Const("c")))
    )
    assert parse_term('veb[w](q"a")') == Veblen(OMEGA, Const("a"))
    assert parse_term('join(q"a")') == Join((Const("a"),))


def test_parse_sugar_and_associativity():
    assert parse_term("7") == Const("7")
    assert parse_term('q"a" ~> q"b" ~> q"c"') == Arrow(
        Const("a"), Arrow(Const("b"), Const("c"))
    )
    assert parse_term('(q"a" ~> q"b") ~> q"c"') == Arrow(
        Arrow(Const("a"), Const("b")), Const("c")
    )
    assert parse_term('x"v"') == Var("v")
    assert parse_term('veb[w^2 + 1](q"a")').index == parse_ordinal("w^2 + 1")


def test_parse_alphabet_restriction():
    parse_term('q"a"', alphabet={"a"})
    with pytest.raises(ParseError):
        parse_term('q"b"', alphabet={"a"})
    with pytest.raises(ParseError):
        parse_term("3", alphabet={"a"})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_term('q"a" ~> ')
    assert e.value.line == 1
    for text in ("", "join()", 'veb[w](join(q"a")', 'q"a" q"b"', "~> 1", 'q"a'):
        with pytest.raises(ParseError):
            parse_term(text)


def test_render_parse_identity_on_random_terms():
    rng = random.Random(23)
    for _ in range(10_000):
        t = random_term(rng, 6, closed=False)
        assert parse_term(render_term(t)) == t


def test_render_quotes_awkward_labels():
    t = Const('a"b\\c')
    assert parse_term(render_term(t)) == t


def test_deep_terms_do_not_recurse():
    # Deeper than the interpreter's recursion limit.  The dataclasses'
    # own __repr__ recurses, so the deep term is never printed.
    depth = 2000
    t = Arrow(Var("x"), Join((Const("b"),)))
    for _ in range(depth):
        t = Veblen(ONE, t)
    assert is_well_formed(t)
    assert is_normal(t)
    assert not is_closed(t)
    assert has_veblen(t)
    assert constant_labels(t) == {"b"}
    st = syntax_tree(t)
    assert len(st) == depth + 4
    assert st.label((0,) * depth) == ArrowL()
    assert st.label((0,) * depth + (1, 0)) == Const("b")


def test_term_from_tree_on_deep_chain():
    # A 2000-deep ~> chain; compared through its flat syntax tree.
    t = Const("a")
    for n in range(2000):
        t = Arrow(Const("ab"[n % 2]), t)
    st = syntax_tree(t)
    back = term_from_tree(st)
    assert syntax_tree(back) == st
    assert back.left == Const("b") and back.right.left == Const("a")


def test_text_form_of_deep_chain():
    # A 2000-deep right-nested ~> chain renders and parses without
    # recursion; compared through syntax trees, as above.
    t = Const("a")
    for n in range(2000):
        t = Arrow(Const("ab"[n % 2]), t)
    text = render_term(t)
    assert text == 'q"b" ~> q"a" ~> ' * 1000 + 'q"a"'
    assert syntax_tree(parse_term(text)) == syntax_tree(t)


def test_deep_terms_compare_and_hash(deep_chain):
    # Two 2000-deep ~> charts built apart: == and hash read the terms'
    # syntax trees instead of recursing.
    a, b = deep_chain(2000), deep_chain(2000)
    assert a.term is not b.term
    assert a.term == b.term and a == b
    assert hash(a.term) == hash(b.term) and hash(a) == hash(b)
    assert a.term != Arrow(Const("b"), a.term)


def test_fixed_point_on_deep_tower():
    # 2000 Veblen nodes, veb[0] on veb[1] on veb[0] ... down to veb[1](q"a"):
    # every veb[0] sits on a veb[1] and collapses into it.
    t = Const("a")
    for n in range(2000):
        t = Veblen(ZERO if n % 2 else ONE, t)
    want = Const("a")
    for _ in range(1000):
        want = Veblen(ONE, want)
    assert apply_fixed_point(t) == want


# -- the stored table against the walk it replaced ---------------------------
#
# Before a term kept its syntax tree, every predicate walked the term
# again through _subterms, and leaves were labelled by copies.  That walk
# and its predicates are kept here as the reference for the one table.

def ref_subterms(t):
    out = [((), t)]
    for addr, s in out:
        if isinstance(s, Arrow):
            out.append((addr + (0,), s.left))
            out.append((addr + (1,), s.right))
        elif isinstance(s, Join):
            out.extend((addr + (n,), c) for n, c in enumerate(s.children))
        elif isinstance(s, Veblen):
            out.append((addr + (0,), s.child))
    return out


def ref_node_label(t):
    if isinstance(t, Const):
        return Const(t.label)
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Arrow):
        return ArrowL()
    if isinstance(t, Join):
        return JoinL()
    return VeblenL(t.index)


def ref_syntax_tree(t):
    return {addr: ref_node_label(s) for addr, s in ref_subterms(t)}


def ref_is_well_formed(t):
    return not any(isinstance(s, Veblen) and isinstance(s.child, Join) for _, s in ref_subterms(t))


def ref_is_normal(t):
    return all(
        not isinstance(s, Arrow)
        or (isinstance(s.left, (Const, Var, Veblen)) and isinstance(s.right, Join))
        for _, s in ref_subterms(t)
    )


def ref_is_closed(t):
    return not any(isinstance(s, Var) for _, s in ref_subterms(t))


def ref_has_veblen(t):
    return any(isinstance(s, Veblen) for _, s in ref_subterms(t))


def ref_constant_labels(t):
    return {s.label for _, s in ref_subterms(t) if isinstance(s, Const)}


def ref_borel_ranks(t):
    ranks, below = {}, {}
    for addr, s in ref_subterms(t):
        rank = below[addr[:-1]] if addr else ONE
        ranks[addr] = rank
        below[addr] = add(rank, omega_pow(s.index)) if isinstance(s, Veblen) else rank
    return ranks


def ref_encode_tree(t):
    nodes = []
    for addr, s in sorted(ref_subterms(t), key=lambda pair: pair[0]):
        entry = {"addr": list(addr)}
        match s:
            case Const(label):
                entry.update(kind="const", payload=label)
            case Var(name):
                entry.update(kind="var", payload=name)
            case Arrow():
                entry["kind"] = "arrow"
            case Join():
                entry["kind"] = "join"
            case Veblen(index, _):
                entry.update(kind="veblen", payload=render_ordinal(index))
        nodes.append(entry)
    return {"nodes": nodes}


def test_table_matches_the_walk_it_replaced():
    rng = random.Random(43)
    for i in range(3000):
        t = random_term(rng, 5, closed=i % 2 == 0)
        if i % 7 == 0:
            t = Veblen(ZERO, Join((t,)))
        if i % 11 == 0:
            t = Arrow(Join((t,)), t)
        st = syntax_tree(t)
        assert st.nodes == ref_syntax_tree(t)
        assert list(st.nodes) == st.addresses()  # parents first, in address order
        assert is_well_formed(t) == ref_is_well_formed(t)
        assert is_normal(t) == ref_is_normal(t)
        assert is_closed(t) == ref_is_closed(t)
        assert has_veblen(t) == ref_has_veblen(t)
        assert constant_labels(t) == ref_constant_labels(t)
        ranks = ref_borel_ranks(t)
        assert borel_ranks(t) == ranks
        assert all(borel_rank(t, addr) == rank for addr, rank in ranks.items())
        assert encode_tree(st) == ref_encode_tree(t)


def test_eq_and_hash_agree_with_the_text_form():
    rng = random.Random(47)
    terms = [random_term(rng, 2, labels=("a", "b"), closed=i % 3 != 0) for i in range(150)]
    equal_pairs = 0
    for i, a in enumerate(terms):
        copy = parse_term(render_term(a))
        assert copy is not a and copy == a and hash(copy) == hash(a)
        for b in terms[i + 1 :]:
            same = render_term(a) == render_term(b)
            assert (a == b) == same and (a != b) != same
            if same:
                assert hash(a) == hash(b)
                equal_pairs += 1
    assert equal_pairs > 0


def test_syntax_tree_is_built_once_and_kept():
    rng = random.Random(53)
    for _ in range(50):
        t = random_term(rng, 4, closed=False)
        assert syntax_tree(t) is syntax_tree(t)
    # A document is decoded to a fresh term, which builds its own tree.
    st = syntax_tree(parse_term('q"a" ~> join(q"b")'))
    assert syntax_tree(term_from_tree(st)) is not st


# -- tree-side predicate agreement -----------------------------------------

def _wf_tree(st):
    for addr, label in st.nodes.items():
        if isinstance(label, VeblenL) and isinstance(
            st.nodes.get(addr + (0,)), JoinL
        ):
            return False
    return True


def _normal_tree(st):
    for addr, label in st.nodes.items():
        if isinstance(label, ArrowL):
            left = st.nodes[addr + (0,)]
            if not isinstance(left, (Const, Var, VeblenL)):
                return False
            if not isinstance(st.nodes[addr + (1,)], JoinL):
                return False
    return True


def test_predicates_agree_with_tree_characterizations():
    rng = random.Random(29)
    for i in range(10_000):
        # mix arbitrary ASTs (incl. ill-formed shapes built by hand) in
        t = random_term(rng, 6, closed=False)
        if i % 7 == 0:
            t = Veblen(ZERO, Join((t,)))
        if i % 11 == 0:
            t = Arrow(Join((t,)), t)
        st = syntax_tree(t)
        assert is_well_formed(t) == _wf_tree(st)
        assert is_normal(t) == _normal_tree(st)


def test_tree_addresses_prefix_closed_and_leaves_are_leaf_labels():
    rng = random.Random(31)
    for _ in range(2000):
        st = syntax_tree(random_term(rng, 5, closed=False))
        addrs = set(st.nodes)
        for a in addrs:
            assert a[:-1] in addrs or a == ()
            if st.is_leaf(a):
                assert isinstance(st.label(a), (Const, Var))


# -- codec -------------------------------------------------------------------

def test_encode_single_constant():
    doc = encode_tree(syntax_tree(Const("a")))
    assert doc == {"nodes": [{"addr": [], "kind": "const", "payload": "a"}]}


def test_round_trip_arrow_join_tree():
    st = syntax_tree(parse_term("1 ~> join(0, 2)"))
    assert decode_tree(encode_tree(st)) == st


def test_round_trip_random_trees():
    rng = random.Random(37)
    for _ in range(1000):
        st = syntax_tree(random_term(rng, 6, closed=False))
        assert decode_tree(encode_tree(st)) == st


def test_decode_rejects_unknown_kind():
    with pytest.raises(DocumentError, match="unknown kind"):
        decode_tree({"nodes": [{"addr": [], "kind": 7}]})


def test_decode_rejects_shape_violations():
    with pytest.raises(DocumentError, match="missing root node"):
        decode_tree({"nodes": []})
    with pytest.raises(DocumentError, match="arity mismatch: arrow \\(\\) has 0 children"):
        decode_tree({"nodes": [{"addr": [], "kind": "arrow"}]})
    with pytest.raises(DocumentError, match="not prefix closed at \\(0, 0\\)"):
        decode_tree(
            {
                "nodes": [
                    {"addr": [], "kind": "const", "payload": "a"},
                    {"addr": [0, 0], "kind": "const", "payload": "b"},
                ]
            }
        )
    with pytest.raises(DocumentError, match="duplicate address \\(\\)"):
        decode_tree(
            {
                "nodes": [
                    {"addr": [], "kind": "const", "payload": "a"},
                    {"addr": [], "kind": "const", "payload": "a"},
                ]
            }
        )
    with pytest.raises(DocumentError, match="bad veblen index"):
        decode_tree({"nodes": [{"addr": [], "kind": "veblen", "payload": "q"}]})
    with pytest.raises(DocumentError, match="a tree document is"):
        decode_tree("nope")


@pytest.mark.parametrize(
    "root, children, message",
    [
        ("const", 1, "arity mismatch: leaf \\(\\) has children"),
        ("var", 2, "arity mismatch: leaf \\(\\) has children"),
        ("arrow", 1, "arity mismatch: arrow \\(\\) has 1 children"),
        ("arrow", 3, "arity mismatch: arrow \\(\\) has 3 children"),
        ("join", 0, "arity mismatch: join \\(\\) has no children"),
        ("veblen", 0, "arity mismatch: veblen \\(\\) has 0 children"),
        ("veblen", 2, "arity mismatch: veblen \\(\\) has 2 children"),
    ],
)
def test_decode_rejects_arity_mismatch(root, children, message):
    payload = {"const": "a", "var": "x", "veblen": "1"}
    root_node = {"addr": [], "kind": root}
    if root in payload:
        root_node["payload"] = payload[root]
    doc = {
        "nodes": [root_node]
        + [{"addr": [i], "kind": "const", "payload": "b"} for i in range(children)]
    }
    with pytest.raises(DocumentError, match=message):
        decode_tree(doc)


def test_term_from_tree_holds_trees_to_the_decoder_rules():
    cases = [
        ({}, "missing root node"),
        ({(): Const("a"), (0, 0): Const("b")}, "not prefix closed at \\(0, 0\\)"),
        ({(): JoinL(), (1,): Const("a")}, "child indices of \\(\\) have gaps"),
        ({(): ArrowL(), (0,): Const("a")}, "arity mismatch: arrow \\(\\) has 1 children"),
        ({(): Var("x"), (0,): Const("a")}, "arity mismatch: leaf \\(\\) has children"),
        ({(): "bogus"}, "unknown label at \\(\\)"),
    ]
    for nodes, message in cases:
        with pytest.raises(DocumentError, match=message):
            term_from_tree(SyntaxTree(nodes))


def test_decode_rejects_child_index_gap():
    for children in ([1], [0, 2]):
        doc = {
            "nodes": [{"addr": [], "kind": "join"}]
            + [{"addr": [i], "kind": "const", "payload": "a"} for i in children]
        }
        with pytest.raises(DocumentError, match="child indices of \\(\\) have gaps"):
            decode_tree(doc)
