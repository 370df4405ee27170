"""Cantor-space plumbing: points, clopen sets, literals, the sample grid."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from vebflow.errors import EmptySetError, ParseError, SpaceMismatchError
from vebflow.generate import random_clopen
from vebflow.ordinal import CnfOrdinal, ONE, add, cmp, parse_ordinal
from vebflow.space import (
    _TWO,
    ClopenSet,
    _Bits,
    _Shape,
    _canonical,
    _canonical_antichain,
    _combine,
    _level,
    _shape,
    _trie,
    _words,
    Space,
    UpPoint,
    enumerate_cylinders,
    least_point,
    member,
    parse_clopen,
    parse_point,
    parse_word,
    render_clopen,
    render_point,
    render_word,
    sample_grid,
)

SP2 = Space(2)
SP3 = Space(3)


def cs(*words, space=SP2):
    return ClopenSet(space, tuple(words))


def pt(text, space=SP2):
    return parse_point(space, text)


# -- canonical forms ----------------------------------------------------

def test_point_canonicalization():
    assert pt("00(0)") == pt("(0)")
    assert pt("(0101)") == pt("(01)")
    assert pt("0(10)") == pt("(01)")
    assert pt("1(01)") != pt("(01)")
    # 01(10) reads 0,1,1,0,1,0,...: no shorter prefix works, so it stays
    assert render_point(pt("01(10)")) == "01(10)"
    # but 0(10) reads 0,1,0,1,...: pure periodic
    assert render_point(pt("0(10)")) == "(01)"


def test_point_letters():
    x = pt("01(10)")
    assert [x.letter(i) for i in range(6)] == [0, 1, 1, 0, 1, 0]


def test_point_validation():
    with pytest.raises(ValueError):
        UpPoint(SP2, (2,), (0,))
    with pytest.raises(ValueError):
        UpPoint(SP2, (), ())


def test_antichain_canonicalization():
    # complete sibling family merges to the parent
    assert cs((0,), (1,)) == ClopenSet.full(SP2)
    # nested redundant word is absorbed by its prefix
    assert cs((0,), (0, 1)).antichain == ((0,),)
    assert cs((1, 1), (0,)).antichain == ((0,), (1, 1))
    # deep merge cascades
    assert cs((0,), (1, 0), (1, 1)) == ClopenSet.full(SP2)


def test_clopen_equality_ignores_level():
    a = cs((0,))
    b = cs((0,)).with_level(CnfOrdinal.from_int(3))
    assert a == b
    assert hash(a) == hash(b)
    assert b.declared_level == CnfOrdinal.from_int(3)


def test_space_validation():
    for size in (0, True, False, 2.0):
        with pytest.raises(ValueError):
            Space(size)
    with pytest.raises(ValueError):
        ClopenSet(SP2, ((2,),))


# -- membership ----------------------------------------------------------

def test_member_full_space():
    for text in ("(0)", "(1)", "0110(10)"):
        assert member(pt(text), ClopenSet.full(SP2))


def test_member_prefix_examples():
    a = cs((0, 1))
    # 0-(10)... reads 0,1,0,1,...: its first two letters land in [01]
    assert member(pt("0(10)"), a)
    # 0-(01)... reads 0,0,1,0,1,...: it does not
    assert not member(pt("0(01)"), a)
    assert member(pt("01(0)"), a)


def test_member_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        member(pt("(0)", space=SP3), cs((0,)))


# -- Boolean algebra -------------------------------------------------------

def test_boolean_examples():
    assert cs((0,)).union(cs((1,))) == ClopenSet.full(SP2)
    assert cs((1,)).complement() == cs((0,))
    assert cs((0,), (1, 1)).difference(cs((0,))) == cs((1, 1))


def test_subset_and_empty():
    assert cs((0, 0)).is_subset(cs((0,)))
    assert not cs((0,)).is_subset(cs((0, 0)))
    assert ClopenSet.empty(SP2).is_empty
    assert cs((0,),).intersect(cs((1,))).is_empty
    assert ClopenSet.full(SP2).is_full


def test_level_propagation():
    three = CnfOrdinal.from_int(3)
    a = cs((0,)).with_level(three)
    b = cs((1, 1))
    assert a.union(b).declared_level == three
    assert a.intersect(b).declared_level == three
    assert a.complement().declared_level == CnfOrdinal.from_int(4)
    assert b.difference(a).declared_level == CnfOrdinal.from_int(4)


GRID2 = sample_grid(SP2, 4, 2)
GRID3 = sample_grid(SP3, 3, 2)


def _pointwise_equal(a, b, grid):
    return all(member(x, a) == member(x, b) for x in grid)


def test_boolean_laws_structural_and_pointwise():
    rng = random.Random(41)
    for space, grid in ((SP2, GRID2), (SP3, GRID3)):
        full = ClopenSet.full(space)
        for _ in range(120):
            a = random_clopen(rng, space, 4)
            b = random_clopen(rng, space, 4)
            c = random_clopen(rng, space, 4)
            demorgan1 = a.union(b).complement()
            demorgan2 = a.complement().intersect(b.complement())
            dist1 = a.intersect(b.union(c))
            dist2 = a.intersect(b).union(a.intersect(c))
            cases = [
                (demorgan1, demorgan2),
                (dist1, dist2),
                (a.complement().complement(), a),
                (a.union(a.complement()), full),
                (a.difference(b), a.intersect(b.complement())),
            ]
            for left, right in cases:
                assert left == right
                assert _pointwise_equal(left, right, grid)


def test_member_respects_set_operations():
    rng = random.Random(43)
    for _ in range(100):
        a = random_clopen(rng, SP2, 4)
        b = random_clopen(rng, SP2, 4)
        for x in GRID2:
            assert member(x, a.union(b)) == (member(x, a) or member(x, b))
            assert member(x, a.intersect(b)) == (member(x, a) and member(x, b))
            assert member(x, a.complement()) == (not member(x, a))
            assert member(x, a.difference(b)) == (member(x, a) and not member(x, b))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(tuple),
        max_size=4,
    ).map(tuple)
)
def test_double_complement_is_identity(words):
    a = ClopenSet(SP2, words)
    assert a.complement().complement() == a


# -- enumerate_cylinders / least_point --------------------------------------

def test_enumerate_cylinders_examples():
    assert enumerate_cylinders(ClopenSet.full(SP2)) == [()]
    assert enumerate_cylinders(cs((0,), (1, 1))) == [(0,), (1, 1)]
    assert enumerate_cylinders(ClopenSet.empty(SP2)) == []


def test_least_point():
    assert least_point(ClopenSet.full(SP2)) == pt("(0)")
    assert least_point(cs((1,))) == pt("1(0)")
    assert least_point(cs((0, 1), (1, 0))) == pt("01(0)")
    with pytest.raises(EmptySetError):
        least_point(ClopenSet.empty(SP2))


def test_least_point_is_least_on_grid():
    rng = random.Random(47)
    for _ in range(200):
        a = random_clopen(rng, SP2, 3)
        if a.is_empty:
            continue
        lp = least_point(a)
        assert member(lp, a)
        for x in GRID2:
            if member(x, a):
                # lexicographic comparison on a long expansion
                lhs = [lp.letter(i) for i in range(12)]
                rhs = [x.letter(i) for i in range(12)]
                assert lhs <= rhs


# -- literals -----------------------------------------------------------------

def test_word_literals():
    assert render_word(()) == "e"
    assert parse_word("e") == ()
    assert parse_word("011") == (0, 1, 1)
    assert render_word((0, 1, 1)) == "011"
    assert parse_word("10.2.3") == (10, 2, 3)
    assert render_word((10, 2, 3)) == "10.2.3"
    with pytest.raises(ParseError):
        parse_word("0x1")


@pytest.mark.parametrize("blank", ["", " ", "\t\n"])
def test_blank_text_is_not_a_word(blank):
    # e is the one spelling of the empty word.
    with pytest.raises(ParseError, match="the empty word is e"):
        parse_word(blank)


@pytest.mark.parametrize("text", ["0()", "( )", "1(e)", "(e)"])
def test_empty_period_keeps_its_message(text):
    with pytest.raises(ParseError, match="^the period of a point literal is nonempty$"):
        parse_point(SP2, text)


def test_point_literals():
    assert render_point(pt("(0)")) == "(0)"
    assert render_point(pt("00(0)")) == "(0)"
    assert parse_point(SP2, " 1(0) ") == UpPoint(SP2, (1,), (0,))
    for bad in ("", "01", "(e)", "()", "1)", "(0", "2(0)"):
        with pytest.raises((ParseError, ValueError)):
            parse_point(SP2, bad)


def test_clopen_literals():
    assert parse_clopen(SP2, "{}") == ClopenSet.empty(SP2)
    assert parse_clopen(SP2, "{e}") == ClopenSet.full(SP2)
    assert parse_clopen(SP2, "{0, 11}") == cs((0,), (1, 1))
    assert render_clopen(cs((0,), (1, 1))) == "{0, 11}"
    assert render_clopen(ClopenSet.empty(SP2)) == "{}"
    assert render_clopen(ClopenSet.full(SP2)) == "{e}"
    three = CnfOrdinal.from_int(3)
    assert parse_clopen(SP2, "{0}", level=three).declared_level == three
    with pytest.raises(ParseError):
        parse_clopen(SP2, "0, 11")
    with pytest.raises(ValueError):
        parse_clopen(SP2, "{2}")
    assert parse_clopen(SP2, "{ }") == ClopenSet.empty(SP2)
    for text in ("{10,}", "{,}", "{10, ,11}", "{,0}", "{e,}"):
        with pytest.raises(ParseError, match="empty element"):
            parse_clopen(SP2, text)


def test_clopen_literal_round_trip_random():
    rng = random.Random(53)
    for _ in range(2000):
        a = random_clopen(rng, SP2, 4)
        assert parse_clopen(SP2, render_clopen(a)) == a


def test_point_literal_round_trip_random():
    rng = random.Random(59)
    for _ in range(2000):
        prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
        period = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        x = UpPoint(SP2, prefix, period)
        assert parse_point(SP2, render_point(x)) == x


# -- the sample grid -----------------------------------------------------------

def test_sample_grid_size_and_canonicity():
    # Exhaustive enumeration at k=2, prefix  <= 4, period <= 2: 64 distinct
    # canonical points (prefixes that end like the period fold away, and
    # non-primitive periods collapse).
    assert len(GRID2) == 64
    assert len(set(GRID2)) == 64
    for x in GRID2:
        assert len(x.prefix) <= 4
        assert len(x.period) <= 2
        # canonical: prefix cannot be shortened
        assert UpPoint(SP2, x.prefix, x.period) == x


def test_sample_grid_matches_the_checking_constructor():
    # The grid wraps its pairs unchecked; each must be the point the
    # constructor builds from it, field by field.
    for k in (1, 2, 3):
        space = Space(k)
        for max_prefix in range(5):
            for max_period in range(1, 4):
                for x in sample_grid(space, max_prefix, max_period):
                    y = UpPoint(space, x.prefix, x.period)
                    assert (x.space, x.prefix, x.period) == (y.space, y.prefix, y.period)
                    assert type(x.prefix) is tuple and type(x.period) is tuple


def test_canonical_matches_the_constructor():
    rng = random.Random(311)
    moved = 0
    for _ in range(2000):
        k = rng.randint(1, 3)
        # A period repeated and a prefix ending in its tail: both folds
        # have work to do.
        base = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        period = base * rng.randint(1, 3)
        prefix = tuple(rng.randrange(k) for _ in range(rng.randrange(3)))
        prefix += period[len(period) - rng.randrange(len(period) + 1):]
        x = UpPoint(Space(k), prefix, period)
        assert _canonical(prefix, period) == (x.prefix, x.period)
        moved += (x.prefix, x.period) != (prefix, period)
    assert moved > 1000


def test_unchecked_point_is_the_checked_point():
    x = UpPoint._of(SP2, (0, 1), (1, 0))
    assert x == UpPoint(SP2, (0, 1), (1, 0)) == pt("01(10)")
    assert hash(x) == hash(pt("01(10)"))
    assert x.letter(5) == 0


def test_sample_grid_separates_distinct_points():
    seen = {}
    for x in GRID2:
        key = tuple(x.letter(i) for i in range(16))
        assert key not in seen, (x, seen.get(key))
        seen[key] = x


# -- the word-list algebra the tries replaced, kept as an oracle ---------------

def _oracle_canonical(k, words):
    # Rescan the pool after every change: drop extensions, merge one
    # complete sibling family at a time.
    pool = {tuple(w) for w in words}
    changed = True
    while changed:
        changed = False
        drop = {w for w in pool if any(w[:i] in pool for i in range(len(w)))}
        if drop:
            pool -= drop
            changed = True
        parents = {}
        for w in pool:
            if w:
                parents.setdefault(w[:-1], set()).add(w[-1])
        for parent, kids in parents.items():
            if len(kids) == k:
                pool -= {parent + (a,) for a in kids}
                pool.add(parent)
                changed = True
                break
    return tuple(sorted(pool))


def _oracle_intersect(k, us, vs):
    out = []
    for u in us:
        for v in vs:
            if u[: len(v)] == v:
                out.append(u)
            elif v[: len(u)] == u:
                out.append(v)
    return _oracle_canonical(k, out)


def _oracle_complement(k, words):
    out = []

    def walk(node, below):
        if () in below:
            return
        if not below:
            out.append(node)
            return
        for a in range(k):
            walk(node + (a,), [w[1:] for w in below if w[0] == a])

    walk((), list(words))
    return _oracle_canonical(k, out)


def _oracle_member(x, words):
    return any(all(x.letter(i) == c for i, c in enumerate(w)) for w in words)


# Fixed examples and seed, so the suite's run time and outcome do not vary.
ORACLE = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def _oracle_cases(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    letter = st.integers(min_value=0, max_value=k - 1)
    words = st.lists(st.lists(letter, max_size=5).map(tuple), max_size=8)
    prefix = draw(st.lists(letter, max_size=5))
    period = draw(st.lists(letter, min_size=1, max_size=3))
    return k, draw(words), draw(words), UpPoint(Space(k), prefix, period)


@ORACLE
@given(_oracle_cases())
def test_trie_algebra_matches_word_oracle(case):
    k, u, v, x = case
    space = Space(k)
    a, b = ClopenSet(space, u), ClopenSet(space, v)
    us, vs = _oracle_canonical(k, u), _oracle_canonical(k, v)
    assert a.antichain == us
    assert _canonical_antichain(k, u) == us
    assert (a == b) == (us == vs)
    if a == b:
        assert hash(a) == hash(b)
    assert a.union(b).antichain == _oracle_canonical(k, us + vs)
    assert a.intersect(b).antichain == _oracle_intersect(k, us, vs)
    assert a.complement().antichain == _oracle_complement(k, us)
    assert a.is_subset(b) == (not _oracle_intersect(k, us, _oracle_complement(k, vs)))
    assert member(x, a) == _oracle_member(x, us)
    if us:
        assert least_point(a) == UpPoint(space, min(us), (0,))


# -- the small-scope oracle: every shallow pair, and sets about the packing depth

# The packing depth per alphabet: the largest D with k^D <= 4096 (none
# over one letter, where every set is empty or full).
PACKED = {1: 0, 2: 12, 3: 7}


def _check_set(a, us, points):
    """a's antichain, complement, membership and least point against the
    word oracles, us being its canonical antichain by them."""
    space = a.space
    k = space.alphabet_size
    assert a.antichain == us
    assert a.complement().antichain == _oracle_complement(k, us)
    for x in points:
        assert member(x, a) == _oracle_member(x, us)
    if us:
        assert least_point(a) == UpPoint(space, min(us), (0,))
    else:
        assert a.is_empty


def _check_pair(a, b, union, meet, minus, subset, same):
    """The union, intersection and difference of a and b against the
    oracle's antichains, and inclusion and equality against its verdicts."""
    assert a.union(b).antichain == union
    assert a.intersect(b).antichain == meet
    assert a.difference(b).antichain == minus
    assert a.is_subset(b) == subset
    assert (a == b) == same == (b == a)


def _oracle_pair(k, us, vs):
    """What _check_pair expects of two sets with canonical antichains us
    and vs, by the word oracles alone."""
    minus = _oracle_intersect(k, us, _oracle_complement(k, vs))
    return (_oracle_canonical(k, us + vs), _oracle_intersect(k, us, vs), minus, not minus, us == vs)


def test_every_pair_of_sets_of_height_three_matches_the_oracle():
    # The 256 sets of height <= 3 over two letters, each given by the
    # length-3 cylinders it holds; the expected results of a pair are the
    # canonical antichains of the unions, intersections and differences
    # of those cylinder sets.
    cells = list(itertools.product((0, 1), repeat=3))
    tables = [frozenset(c for n, c in enumerate(cells) if m >> n & 1) for m in range(256)]
    canon = {t: _oracle_canonical(2, t) for t in tables}
    sets = [ClopenSet(SP2, t) for t in tables]
    for a, t in zip(sets, tables):
        _check_set(a, canon[t], GRID2)
    checked = 0
    for i, (a, t) in enumerate(zip(sets, tables)):
        for j, (b, u) in enumerate(zip(sets, tables)):
            want = (canon[t | u], canon[t & u], canon[t - u], t <= u, t == u)
            if (i * 256 + j) % 97 == 0:
                # The cylinder algebra is the word oracles' own answer.
                assert want == _oracle_pair(2, canon[t], canon[u])
            _check_pair(a, b, *want)
            checked += 1
    assert checked == 256 * 256


def test_packing_depth_and_the_unit_leaf_of_a_table():
    # The depth is the largest D with k^D <= 4096, and the search for it
    # ends over one letter and past 4096 letters, where nothing packs.
    depths = {k: _shape(k).depth for k in (1, 2, 3, 4, 4096, 4097, 10**5)}
    assert depths == {1: 0, 2: 12, 3: 7, 4: 6, 4096: 1, 4097: 0, 10**5: 0}
    assert all(_shape(k).depth == depth for k, depth in PACKED.items())
    assert ClopenSet(Space(1), [(0,) * 20]).trie is True
    assert ClopenSet(Space(5000), [(4999,)]).trie.__class__ is tuple
    a = cs((0, 1), (1, 1, 0))
    t = a.trie
    # A table is not an int: the kernel's leaf tests must not pass it.
    assert t.__class__ is _Bits and not isinstance(t, (int, bool))
    # Tables compare by their bits and shape numbers, so a shape made
    # anew for the same letters and depth (once _shape dropped the old
    # one) keeps equal tables equal.
    assert t == _Bits(t.bits, _Shape(2, 12)) and t != _Bits(t.bits, _Shape(2, 11))
    assert hash(a) == hash((SP2, a.antichain))
    # The union's unit leaf False is the empty table, so the union of it
    # with a table's complement (make_strongly_total pads a join member
    # with the complement of its domain this way) is the complement,
    # not the full space; the intersection's unit True is the full one.
    assert _combine(False, t, True, True) == a.complement().trie == _combine(True, t, False, True)
    assert _combine(False, t, True) is t and _combine(True, t, False) is t


def _past(k, words, depth):
    """The same set, given by words one of which is longer than `depth`:
    the first word's cylinder split along its extension by zeros."""
    w, out = words[0], list(words[1:])
    for n in range(len(w), depth + 1):
        out.extend(w + (0,) * (n - len(w)) + (b,) for b in range(1, k))
    out.append(w + (0,) * (depth + 1 - len(w)))
    return out


def _about(rng, k, height):
    """Up to eight random words of length height-3 .. height, one of them
    of length height, and a second word list that shares some of them,
    some extended by a letter."""
    def word(n):
        return tuple(rng.randrange(k) for _ in range(n))

    us = [word(height)] + [word(rng.randint(max(height - 3, 0), height)) for _ in range(rng.randint(0, 7))]
    vs = [w + word(rng.randint(0, 1)) for w in us if rng.random() < 0.4]
    vs += [word(rng.randint(max(height - 3, 0), height)) for _ in range(rng.randint(0, 4))]
    return us, vs


def test_sets_about_the_packing_depth_match_the_oracle():
    # Seeded sets of height D-1, D and D+1 over two and three letters,
    # and over one letter; each pair is checked as built and again with
    # each side rebuilt from words past the packing depth, so that a
    # packed set meets the same set held as a trie.
    rng = random.Random(61)
    checked = mixed = 0
    for k, count in ((1, 20), (2, 60), (3, 40)):
        space = Space(k)
        depth = PACKED[k]
        points = [UpPoint(space, [rng.randrange(k) for _ in range(rng.randint(0, depth + 2))],
                          [rng.randrange(k) for _ in range(rng.randint(1, 2))]) for _ in range(40)]
        for height in sorted({max(depth - 1, 1), max(depth, 1), depth + 1}):
            for _ in range(count):
                us, vs = _about(rng, k, height)
                a, b = ClopenSet(space, us), ClopenSet(space, vs) if vs else ClopenSet.empty(space)
                us, vs = _oracle_canonical(k, us), _oracle_canonical(k, vs)
                want = _oracle_pair(k, us, vs)
                _check_set(a, us, points)
                _check_pair(a, b, *want)
                checked += 1
                if not us or not vs:
                    continue
                deep_a, deep_b = ClopenSet(space, _past(k, us, depth)), ClopenSet(space, _past(k, vs, depth))
                assert deep_a == a and hash(deep_a) == hash(a)
                _check_set(deep_a, us, points)
                for x, y in ((a, deep_b), (deep_a, b), (deep_a, deep_b)):
                    _check_pair(x, y, *want)
                    mixed += 1
    assert checked == 20 + 3 * (60 + 40) and mixed > 400


# -- deep and wide sets ----------------------------------------------------------

def test_deep_set_literal_does_not_recurse():
    # One 3000-letter word: a trie far deeper than the recursion limit.
    word = "01" * 1500
    a = parse_clopen(SP2, "{%s}" % word)
    assert render_clopen(a) == "{%s}" % word
    c = a.complement()
    assert len(c.antichain) == 3000
    inside = pt(word + "(0)")
    assert member(inside, a) and not member(inside, c)
    assert member(pt("(1)"), c) and not member(pt("(1)"), a)
    assert least_point(a) == inside
    assert c.complement() == a and hash(c.complement()) == hash(a)
    assert c.union(a).is_full and c.intersect(a).is_empty
    assert a.is_subset(c.complement()) and not c.is_subset(a)
    # The difference walks a's trie under full's True leaf, negating it.
    full = ClopenSet.full(SP2)
    assert full.difference(a) == a.complement()
    assert a.difference(a).is_empty
    assert c.difference(a) == c


LEVELS = (ONE, CnfOrdinal.from_int(2), CnfOrdinal.from_int(5), parse_ordinal("w"), parse_ordinal("w + 1"))


def _operand(rng, space):
    """Empty, full, or up to six random words of length up to 5, at a
    random level."""
    pick = rng.randrange(8)
    if pick < 2:
        s = (ClopenSet.empty, ClopenSet.full)[pick](space)
    else:
        k = space.alphabet_size
        words = [[rng.randrange(k) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
        s = ClopenSet(space, words)
    return s.with_level(rng.choice(LEVELS))


def test_set_operations_give_reduced_tries_and_the_level_rule():
    rng = random.Random(59)
    for space in (SP2, SP3):
        k = space.alphabet_size
        for _ in range(400):
            a = _operand(rng, space)
            # One pair in five has the same trie on both sides, and two
            # in five share subtries: b is built from a.
            pick = rng.randrange(5)
            if pick == 0:
                b = a.with_level(rng.choice(LEVELS))
            elif pick < 3:
                b = (a.union, a.intersect)[pick - 1](_operand(rng, space)).with_level(rng.choice(LEVELS))
            else:
                b = _operand(rng, space)
            if rng.random() < 0.5:
                a, b = b, a
            la, lb = a.declared_level, b.declared_level
            top = la if cmp(la, lb) >= 0 else lb
            bumped = add(lb, ONE)
            below = la if cmp(la, bumped) >= 0 else bumped
            us, vs = a.antichain, b.antichain
            for result, level, words in (
                (a.union(b), top, _oracle_canonical(k, us + vs)),
                (a.intersect(b), top, _oracle_intersect(k, us, vs)),
                (a.difference(b), below, _oracle_intersect(k, us, _oracle_complement(k, vs))),
                (a.complement(), add(la, ONE), _oracle_complement(k, us)),
            ):
                assert result.trie == _trie(k, _words(result.trie))
                assert result.antichain == words
                assert result.declared_level == level
            # Inclusion and equality, both ways, against the word oracle.
            assert a.is_subset(b) == (not _oracle_intersect(k, us, _oracle_complement(k, vs)))
            assert b.is_subset(a) == (not _oracle_intersect(k, vs, _oracle_complement(k, us)))
            assert (a == b) == (us == vs) == (b == a)


def test_level_fast_paths_keep_the_rule():
    # Equal levels that are one object return at once, and a level-1
    # set subtracted counts as the shared _TWO: both must agree with
    # max(a, b), b counted one higher under negation.  from_int(1) is
    # ONE as a different object, so it takes the slow path.
    levels = (ONE, CnfOrdinal.from_int(1), _TWO, parse_ordinal("w"), parse_ordinal("w + 1"),
              parse_ordinal("w^2"))
    for la, lb in itertools.product(levels, repeat=2):
        a, b = ClopenSet.full(SP2, la), ClopenSet.empty(SP2, lb)
        for negate in (False, True):
            right = add(lb, ONE) if negate else lb
            want = la if cmp(la, right) >= 0 else right
            assert cmp(_level(a, b, negate), want) == 0, (la, lb, negate)
    assert cmp(_TWO, CnfOrdinal.from_int(2)) == 0


def test_all_words_of_length_12_merge_to_the_full_space():
    words = tuple(itertools.product((0, 1), repeat=12))
    start = time.perf_counter()
    assert ClopenSet(SP2, words) == ClopenSet.full(SP2)
    assert time.perf_counter() - start < 1.0


# -- refusals no other test reaches ------------------------------------------

@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: ClopenSet.full(SP2).union(ClopenSet.full(SP3)),
        SpaceMismatchError, "sets live in Space(2) and Space(3)", id="spaces",
    ),
    pytest.param(lambda: parse_word("1..2"), ParseError, "bad word '1..2'", id="dotted-word"),
])
def test_refusal_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
