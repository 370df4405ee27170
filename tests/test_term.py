"""Term AST, syntax trees, predicates, ranks, parsing, codecs."""

import random
import re

import pytest

from vebflow.errors import DocumentError, InvalidAddressError, ParseError
from vebflow.generate import random_ordinal, random_term
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


# -- the text reader against the recursive one it replaced -------------------
#
# Before parse_term was one loop over a stack of open brackets, terms and
# ordinals were read by two recursive-descent parsers with a scanner
# each, and a veb[...] index was cut out as a substring and handed to
# parse_ordinal.  That reader is kept here as the reference for the loop;
# its error positions are dropped, since only acceptance and the parsed
# term are compared.

class RefOrdScanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError("expected %r" % ch)
        self.i += 1

    def nat(self):
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            raise ParseError("expected a natural number")
        return int(self.text[start : self.i])


def ref_parse_prod(sc):
    ch = sc.peek()
    if ch == "w":
        sc.i += 1
        exp = ONE
        if sc.peek() == "^":
            sc.i += 1
            if sc.peek() == "(":
                sc.i += 1
                exp = ref_parse_sum(sc)
                sc.expect(")")
            else:
                exp = CnfOrdinal.from_int(sc.nat())
        coeff = 1
        if sc.peek() == "*":
            sc.i += 1
            coeff = sc.nat()
            if coeff == 0:
                raise ParseError("coefficient must be positive")
        return CnfOrdinal(((exp, coeff),))
    if ch.isdigit():
        return CnfOrdinal.from_int(sc.nat())
    raise ParseError("expected 'w' or a natural number")


def ref_parse_sum(sc):
    total = ref_parse_prod(sc)
    while sc.peek() == "+":
        sc.i += 1
        total = add(total, ref_parse_prod(sc))
    return total


def ref_parse_ordinal(text):
    sc = RefOrdScanner(text)
    result = ref_parse_sum(sc)
    sc.skip_ws()
    if sc.i != len(sc.text):
        raise ParseError("trailing input after ordinal")
    return result


class RefTermScanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def error(self, message):
        raise ParseError(message)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def try_word(self, word):
        self.skip_ws()
        if self.text.startswith(word, self.i):
            self.i += len(word)
            return True
        return False

    def expect(self, word):
        if not self.try_word(word):
            self.error("expected %r" % word)

    def string_literal(self):
        if self.peek() != '"':
            self.error("expected a string literal")
        self.i += 1
        out = []
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch == "\\":
                if self.i + 1 >= len(self.text):
                    self.error("unterminated escape")
                nxt = self.text[self.i + 1]
                if nxt not in ('"', "\\"):
                    self.error("unknown escape \\%s" % nxt)
                out.append(nxt)
                self.i += 2
            elif ch == '"':
                self.i += 1
                return "".join(out)
            else:
                out.append(ch)
                self.i += 1
        self.error("unterminated string literal")


def ref_parse_atom(sc, alphabet):
    ch = sc.peek()
    if ch == "(":
        sc.i += 1
        t = ref_parse_term_at(sc, alphabet)
        sc.expect(")")
        return t
    if sc.try_word("join"):
        sc.expect("(")
        children = [ref_parse_term_at(sc, alphabet)]
        while sc.peek() == ",":
            sc.i += 1
            children.append(ref_parse_term_at(sc, alphabet))
        sc.expect(")")
        return Join(tuple(children))
    if sc.try_word("veb"):
        sc.expect("[")
        start = sc.i
        depth = 0
        while sc.i < len(sc.text):
            c = sc.text[sc.i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "]" and depth == 0:
                break
            sc.i += 1
        if sc.i >= len(sc.text):
            sc.error("unterminated veb index")
        index = ref_parse_ordinal(sc.text[start : sc.i])
        sc.i += 1
        sc.expect("(")
        child = ref_parse_term_at(sc, alphabet)
        sc.expect(")")
        return Veblen(index, child)
    if ch == "q":
        sc.i += 1
        label = sc.string_literal()
        if alphabet is not None and label not in alphabet:
            sc.error("unknown constant %r (not in the declared alphabet)" % label)
        return Const(label)
    if ch == "x":
        sc.i += 1
        return Var(sc.string_literal())
    if ch.isdigit():
        start = sc.i
        while sc.i < len(sc.text) and sc.text[sc.i].isdigit():
            sc.i += 1
        label = sc.text[start : sc.i]
        if alphabet is not None and label not in alphabet:
            sc.error("unknown constant %r (not in the declared alphabet)" % label)
        return Const(label)
    sc.error("expected a term")


def ref_parse_term_at(sc, alphabet):
    atoms = [ref_parse_atom(sc, alphabet)]
    while sc.try_word("~>"):
        atoms.append(ref_parse_atom(sc, alphabet))
    t = atoms.pop()
    while atoms:
        t = Arrow(atoms.pop(), t)
    return t


def ref_parse_term(text, alphabet=None):
    alpha = None if alphabet is None else frozenset(alphabet)
    sc = RefTermScanner(text)
    try:
        t = ref_parse_term_at(sc, alpha)
    except RecursionError:
        raise ParseError("term nested too deeply") from None
    sc.skip_ws()
    if sc.i != len(sc.text):
        sc.error("trailing input after term")
    return t


def _mutants(rng, texts, count, chars):
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            out.append(text[:i] + text[i + 1 :])
        else:
            out.append(text[:i] + rng.choice(chars) + text[i + (edit == 2) :])
    return out


def _oracle_texts(seed, terms, mutants):
    """Rendered random terms, some respaced or with bare-number labels,
    then single-character deletions, insertions and replacements."""
    rng = random.Random(seed)
    texts = []
    for n in range(terms):
        text = render_term(random_term(rng, 6, labels=("a", "b", "7", "10"), closed=False))
        if n % 3 == 1:
            text = re.sub(r'q"(\d+)"', r"\1", text)
        if n % 3 == 2:
            text = re.sub(" ", lambda m: rng.choice(("", " ", "\n", "\t ")), text)
        texts.append(text)
    return texts + _mutants(rng, texts, mutants, '()[],~>"\\ \nqxwjoinveb0179^*+')


def _read(parse, *args):
    try:
        return parse(*args)
    except ParseError:
        return None


@pytest.mark.parametrize("seed", [1, 2])
def test_parse_term_matches_the_recursive_reader(seed):
    texts = _oracle_texts(seed, 2500, 1500)
    accepted = 0
    for n, text in enumerate(texts):
        alphabet = ("a", "b", "7") if n % 4 == 3 else None
        want, got = _read(ref_parse_term, text, alphabet), _read(parse_term, text, alphabet)
        assert (want is None) == (got is None), text
        if want is not None:
            assert got == want and render_term(got) == render_term(want), text
            accepted += 1
    # Both outcomes are well represented.
    assert 2500 < accepted < len(texts) - 500


def test_parse_ordinal_matches_the_recursive_reader():
    rng = random.Random(5)
    texts = [render_ordinal(random_ordinal(rng, 3)) for _ in range(1500)]
    texts += _mutants(rng, texts, 1500, "w^()*+ 0123")
    accepted = 0
    for text in texts:
        want, got = _read(ref_parse_ordinal, text), _read(parse_ordinal, text)
        assert want == got, text
        accepted += got is not None
    assert 1500 < accepted < len(texts) - 500


def test_parse_term_reads_veblen_indices_in_place():
    t = parse_term('veb[ w^( w^2*3 + 1 ) *2 + w + 4 ](q"a") ~> veb[0](1)')
    assert t.left.index == parse_ordinal("w^(w^2*3 + 1)*2 + w + 4")
    assert t.right.index == ZERO
    for text in ('veb[w^(1]](q"a")', 'veb[w](q"a")]', "veb[w", 'veb[w)](q"a")', 'veb[](q"a")'):
        with pytest.raises(ParseError):
            parse_term(text)


def test_parse_errors_give_line_and_column():
    with pytest.raises(ParseError, match="expected a natural number at line 2, column 8"):
        parse_term('q"a" ~>\n veb[w^](q"b")')
    with pytest.raises(ParseError, match="unknown constant '9' .* at line 1, column 14"):
        parse_term("join(7, 10, 9)", alphabet=("7", "10"))


def _deep(wrap, depth=3000):
    t = Const("a")
    for _ in range(depth):
        t = wrap(t)
    return t


@pytest.mark.parametrize(
    "wrap, text",
    [
        (lambda t: Join((t,)), "join(" * 3000 + 'q"a"' + ")" * 3000),
        (lambda t: Veblen(ZERO, t), "veb[0](" * 3000 + 'q"a"' + ")" * 3000),
        (lambda t: Arrow(t, Const("b")), "(" * 2999 + 'q"a" ~> q"b"' + ') ~> q"b"' * 2999),
    ],
    ids=["join", "veb", "left-nested-arrow"],
)
def test_text_form_round_trips_at_depth_3000(wrap, text):
    t = _deep(wrap)
    assert render_term(t) == text
    assert parse_term(text) == t
    assert len(syntax_tree(parse_term(text))) == len(syntax_tree(t))


def test_parentheses_nest_to_any_depth():
    assert parse_term("(" * 3000 + 'q"a"' + ")" * 3000) == Const("a")
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_term("(" * 3000 + 'q"a"' + ")" * 2999)


def test_repr_is_the_text_form_at_any_depth():
    t = _deep(lambda t: Veblen(ONE, t), 2000)
    assert repr(t) == "parse_term(%r)" % render_term(t)
    assert eval(repr(t), {"parse_term": parse_term}) == t
    assert repr(Arrow(Const("a"), Join((Var("v"),)))) == """parse_term('q"a" ~> join(x"v")')"""
    assert repr(Const("a")) == "Const(label='a')"


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
    # A document is decoded to a fresh term, which keeps a copy of the
    # table it was checked against, in address order.
    st = syntax_tree(parse_term('q"a" ~> join(q"b")'))
    assert syntax_tree(term_from_tree(st)) is not st
    shuffled = 0
    for _ in range(100):
        t = parse_term(render_term(random_term(rng, 4)))
        doc = encode_tree(syntax_tree(t))
        rng.shuffle(doc["nodes"])
        st = decode_tree(doc)
        shuffled += list(st.nodes) != sorted(st.nodes)
        back = term_from_tree(st)
        # Kept at once: the first syntax_tree call builds nothing.
        assert "_tree" in vars(back)
        assert list(syntax_tree(back).nodes) == sorted(st.nodes)
        assert borel_ranks(back) == borel_ranks(t)
        assert apply_fixed_point(back) == apply_fixed_point(t)
        st.nodes.clear()
        assert syntax_tree(back) == syntax_tree(t) and back == t
    assert shuffled > 50


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
