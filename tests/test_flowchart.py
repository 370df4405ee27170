"""Flowchart semantics: domains, evaluation, decisions, transforms, codec."""

import json
import random

import pytest

from vebflow.errors import (
    AmbiguousLabelsError,
    DocumentError,
    InvalidAddressError,
    NonNormalTermError,
    NoTruePathError,
    NotMonotoneError,
    OpenTermError,
    ParseError,
    SpaceMismatchError,
    UnsupportedError,
    VebflowError,
)
from vebflow.flowchart import (
    Flowchart,
    check_levels,
    decode_flowchart,
    domain_assignment,
    encode_flowchart,
    equivalent,
    eval_flowchart,
    eval_outcome,
    is_deterministic,
    is_monotone,
    is_total,
    parse_address,
    pullback,
    render_address,
    to_monotone,
    to_reduced,
    true_paths,
    true_positions,
    vaught_transform,
)
from vebflow import command as cm
from vebflow.generate import (
    random_command,
    random_flowchart,
    random_normal_term,
    random_term,
    random_total_det_flowchart,
)
from vebflow.ordinal import CnfOrdinal, ONE, parse_ordinal
from vebflow.space import ClopenSet, Space, member, parse_clopen, parse_point, sample_grid
from vebflow.term import Arrow, ArrowL, Const, Join, JoinL, Var, parse_term, syntax_tree
from vebflow.transducer import (
    Transducer,
    apply,
    compose,
    drop_first,
    identity_map,
    letter_double,
    parity_merge,
)

SP2 = Space(2)
GRID = sample_grid(SP2, 4, 2)


def cs(text, space=SP2):
    return parse_clopen(space, text)


def pt(text, space=SP2):
    return parse_point(space, text)


TERM = parse_term('q"q0" ~> join(q"q1", q"q2")')
FC = Flowchart(TERM, SP2, {(): cs("{1}"), (1,): (cs("{10}"), cs("{11}"))})


# -- construction ------------------------------------------------------------

def test_rejects_open_terms():
    with pytest.raises(OpenTermError):
        Flowchart(Var("x"), SP2, {})


def test_rejects_shape_violations():
    with pytest.raises(ValueError):
        Flowchart(TERM, SP2, {(1,): (cs("{10}"), cs("{11}"))})  # no arrow set
    with pytest.raises(ValueError):
        Flowchart(TERM, SP2, {(): cs("{1}")})  # no join family
    with pytest.raises(ValueError):
        Flowchart(TERM, SP2, {(): (cs("{1}"),), (1,): (cs("{10}"), cs("{11}"))})
    with pytest.raises(ValueError):
        Flowchart(TERM, SP2, {(): cs("{1}"), (1,): (cs("{10}"),)})  # arity
    with pytest.raises(ValueError):
        Flowchart(
            TERM, SP2,
            {(): cs("{1}"), (1,): (cs("{10}"), cs("{11}")), (0,): cs("{1}")},
        )  # leaf carries a set
    with pytest.raises((ValueError, SpaceMismatchError)):
        Flowchart(TERM, SP2, {(): cs("{1}", space=Space(3)),
                              (1,): (cs("{10}"), cs("{11}"))})
    with pytest.raises(ValueError, match="outside the tree: \\[\\(1, 2\\), \\(2,\\)\\]"):
        Flowchart(TERM, SP2, {
            (): cs("{1}"),
            (1,): (cs("{10}"), cs("{11}")),
            (2,): cs("{1}"),
            (1, 2): cs("{1}"),
        })


# -- domains -------------------------------------------------------------------

def test_domain_assignment_running_example():
    d = domain_assignment(FC)
    assert d[()] == ClopenSet.full(SP2)
    assert d[(0,)] == cs("{0}")
    assert d[(1,)] == cs("{1}")
    assert d[(1, 0)] == cs("{10}")
    assert d[(1, 1)] == cs("{11}")


def test_domain_assignment_veblen_passthrough():
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    f = Flowchart(t, SP2, {(0,): cs("{1}"), (0, 1): (cs("{11}"),)})
    d = domain_assignment(f)
    assert d[(0,)] == d[()] == ClopenSet.full(SP2)
    assert d[(0, 0)] == cs("{0}")
    assert d[(0, 1)] == cs("{1}")


# -- evaluation ------------------------------------------------------------------

def test_true_paths_examples():
    assert true_paths(FC, pt("(0)")) == [((0,), "q0")]
    assert true_paths(FC, pt("10(0)")) == [((1, 0), "q1")]


def test_true_paths_nondeterministic():
    f = Flowchart(TERM, SP2, {(): ClopenSet.full(SP2),
                              (1,): (ClopenSet.full(SP2), ClopenSet.full(SP2))})
    for x in (pt("(0)"), pt("1(0)")):
        assert true_paths(f, x) == [((1, 0), "q1"), ((1, 1), "q2")]


def test_eval_examples():
    assert eval_flowchart(FC, pt("11(0)")) == "q2"
    assert eval_flowchart(FC, pt("(0)")) == "q0"
    assert eval_flowchart(FC, pt("10(1)")) == "q1"


def test_eval_no_true_path_on_uncovered_join():
    f = Flowchart(TERM, SP2, {(): cs("{1}"),
                              (1,): (cs("{10}"), ClopenSet.empty(SP2))})
    with pytest.raises(NoTruePathError):
        eval_flowchart(f, pt("11(0)"))
    assert eval_outcome(f, pt("11(0)")) == ("no-true-path",)


def test_eval_duplicate_labels_tolerated():
    t = parse_term('q"q0" ~> join(q"q1", q"q1")')
    f = Flowchart(t, SP2, {(): cs("{1}"),
                           (1,): (ClopenSet.full(SP2), ClopenSet.full(SP2))})
    assert eval_flowchart(f, pt("1(0)")) == "q1"


def test_eval_ambiguous():
    f = Flowchart(TERM, SP2, {(): cs("{1}"),
                              (1,): (cs("{1}"), cs("{1}"))})
    with pytest.raises(AmbiguousLabelsError) as e:
        eval_flowchart(f, pt("1(0)"))
    assert e.value.labels == frozenset({"q1", "q2"})
    assert eval_outcome(f, pt("1(0)")) == ("ambiguous", frozenset({"q1", "q2"}))


def test_eval_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        eval_flowchart(FC, pt("(0)", space=Space(3)))


# -- totality and determinism -------------------------------------------------------

def test_is_total_examples():
    ok, w = is_total(FC)
    assert ok and w is None

    f = Flowchart(TERM, SP2, {(): cs("{1}"),
                              (1,): (cs("{10}"), ClopenSet.empty(SP2))})
    ok, w = is_total(f)
    assert not ok
    assert w == pt("11(0)")

    t = parse_term('q"a" ~> q"b"')
    g = Flowchart(t, SP2, {(): cs("{1}")})
    assert is_total(g) == (True, None)


def test_is_total_sees_past_a_stalled_branch():
    # the inner join misses 0... but the overlapping first member of the
    # root join carries every point to a leaf anyway
    t = parse_term('join(q"a", join(q"b"))')
    f = Flowchart(t, SP2, {
        (): (ClopenSet.full(SP2), ClopenSet.full(SP2)),
        (1,): (cs("{1}"),),
    })
    assert is_total(f) == (True, None)
    assert eval_outcome(f, pt("(0)")) == ("value", "a")


def test_is_deterministic_examples():
    ok, w = is_deterministic(FC)
    assert ok and w is None

    f = Flowchart(TERM, SP2, {(): cs("{1}"), (1,): (cs("{1}"), cs("{1}"))})
    ok, w = is_deterministic(f)
    assert not ok
    assert w == pt("1(0)")

    t = parse_term('q"q0" ~> join(q"q1", q"q1")')
    g = Flowchart(t, SP2, {(): cs("{1}"),
                           (1,): (ClopenSet.full(SP2), ClopenSet.full(SP2))})
    assert is_deterministic(g) == (True, None)


def test_deciders_on_deep_chain():
    # A 2000-deep ~> chain, each node testing {1}, ending in a join whose
    # one member {0} misses every point that gets there.
    depth = 2000
    t = Join((Const("a"),))
    for n in range(depth):
        t = Arrow(Const("ab"[n % 2]), t)
    assign = {(1,) * n: cs("{1}") for n in range(depth)}
    assign[(1,) * depth] = (cs("{0}"),)
    f = Flowchart(t, SP2, assign)
    assert is_total(f) == (False, pt("1(0)"))
    assert is_deterministic(f) == (True, None)


def test_eval_on_deep_chain(deep_chain):
    f = deep_chain(2000)
    x = pt("(1)")
    assert true_positions(f, x) == [(1,) * n for n in range(2001)]
    assert eval_outcome(f, x) == ("no-true-path",)


def _labels_at(f, x):
    return {q for _, q in true_paths(f, x)}


def test_decisions_agree_with_grid_evaluation():
    # the grid oracle is exact here: every assigned set is built from
    # words of length <= 3, so any nonempty failure region contains a
    # point with prefix <= 3 and period 1, which the grid enumerates
    rng = random.Random(97)
    for _ in range(150):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)

        tot, tw = is_total(f)
        grid_tot = not any(eval_outcome(f, x) == ("no-true-path",) for x in GRID)
        assert tot == grid_tot
        if not tot:
            assert eval_outcome(f, tw) == ("no-true-path",)

        det, dw = is_deterministic(f)
        grid_det = all(len(_labels_at(f, x)) <= 1 for x in GRID)
        assert det == grid_det
        if not det:
            assert len(_labels_at(f, dw)) > 1


# -- compiled evaluation against the walker ---------------------------------------

def walk_outcome(f, x):
    """eval_outcome read off the pointwise walker: the labels of the
    leaves true_paths reaches.  The reference for the compiled
    evaluator, which reads the reach sets instead."""
    labels = {q for _, q in true_paths(f, x)}
    if not labels:
        return ("no-true-path",)
    if len(labels) > 1:
        return ("ambiguous", frozenset(labels))
    return ("value", labels.pop())


def walk_eval(f, x):
    """What eval_flowchart returns, or the type and message of what it
    raises, according to the walker."""
    want = walk_outcome(f, x)
    if want[0] == "value":
        return want[1]
    if want[0] == "no-true-path":
        return NoTruePathError, "no true path at %s" % x
    return AmbiguousLabelsError, "true paths carry distinct labels: %s" % ", ".join(sorted(want[1]))


def _raised(fn, f, x):
    try:
        return fn(f, x)
    except VebflowError as e:
        return type(e), str(e)


def assert_eval_matches_walker(f, grid):
    for x in grid:
        assert eval_outcome(f, x) == walk_outcome(f, x), x
        assert _raised(eval_flowchart, f, x) == walk_eval(f, x), x


@pytest.mark.parametrize("k, seed", [(2, 103), (3, 104)])
def test_compiled_eval_matches_walker_on_random_charts(k, seed):
    # random_term draws Veblen nodes and non-normal shapes as well
    space = Space(k)
    grid = GRID if k == 2 else sample_grid(space, 3, 2)
    rng = random.Random(seed)
    for _ in range(120):
        assert_eval_matches_walker(random_flowchart(rng, random_term(rng, 4), space, 3), grid)


@pytest.mark.parametrize("k, seed", [(2, 105), (3, 106)])
def test_compiled_eval_matches_walker_on_random_commands(k, seed):
    space = Space(k)
    grid = GRID if k == 2 else sample_grid(space, 3, 2)
    rng = random.Random(seed)
    for _ in range(60):
        c = random_command(rng, random_term(rng, 3), space, 3)
        f = cm.command_to_flowchart(c)
        assert_eval_matches_walker(f, grid)
        for x in grid:
            assert cm.eval_outcome(c, x) == walk_outcome(f, x)
            assert _raised(cm.eval_command, c, x) == walk_eval(f, x)


@pytest.mark.parametrize("k, seed", [(2, 107), (3, 108)])
def test_outcome_trie_reads_back_in_any_order(k, seed):
    # The outcome trie is filled cell by cell as points walk it.  One
    # chart walks the grid forward and an equal, freshly built chart
    # walks it backward, so the two fill their cells in opposite
    # orders; a second pass reads every answer from filled cells.
    space = Space(k)
    grid = GRID if k == 2 else sample_grid(space, 3, 2)
    rng = random.Random(seed)
    for _ in range(60):
        f = random_flowchart(rng, random_term(rng, 4), space, 4)
        g = Flowchart(f.term, f.space, f.assign)
        for _ in range(2):
            assert_eval_matches_walker(f, grid)
            assert_eval_matches_walker(g, grid[::-1])


def test_outcome_trie_sees_past_the_grid():
    # A near-miss pair: the charts agree on all 64 grid points (none
    # enters [0000011], see test_equivalent_sees_past_the_grid) and
    # differ there.  The points share the walk down to 000001.
    t = parse_term('join(q"a", q"b")')
    f = Flowchart(t, SP2, {(): (cs("{0}"), cs("{1, 0000011}"))})
    g = Flowchart(t, SP2, {(): (cs("{0}"), cs("{1}"))})
    assert all(eval_outcome(f, x) == eval_outcome(g, x) for x in GRID)
    points = [pt("0000010(0)"), pt("0000011(0)"), pt("(0)")]
    assert_eval_matches_walker(f, points)
    assert_eval_matches_walker(g, points)
    assert eval_outcome(f, pt("0000011(0)")) == ("ambiguous", frozenset("ab"))
    assert eval_outcome(g, pt("0000011(0)")) == ("value", "a")


def test_outcome_trie_keeps_one_cell_per_word():
    # {00, 10} is a root whose two children are one shared trie node.  A
    # cell merged into its child would read the second letter first,
    # and put 01(0) into the set.
    f = Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{00, 10}")})
    points = [pt(text) for text in ("00(1)", "01(0)", "10(1)", "11(0)")]
    assert_eval_matches_walker(f, points)
    assert [eval_outcome(f, x)[1] for x in points] == ["b", "a", "b", "a"]


def test_compiled_eval_rejects_points_of_another_space():
    x = pt("(0)", space=Space(3))
    c = cm.flowchart_to_simple_command(FC)
    for fn, doc in ((eval_outcome, FC), (eval_flowchart, FC), (true_positions, FC),
                    (cm.eval_outcome, c), (cm.eval_command, c)):
        with pytest.raises(SpaceMismatchError):
            fn(doc, x)


# -- whole-space equivalence -----------------------------------------------------------

def test_equivalent_examples():
    assert equivalent(FC, FC)
    # the same function written with the join family in the other order
    swapped = Flowchart(parse_term('q"q0" ~> join(q"q2", q"q1")'), SP2,
                        {(): cs("{1}"), (1,): (cs("{11}"), cs("{10}"))})
    assert equivalent(FC, swapped)
    # a label that no point reaches counts as absent
    dead = Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): ClopenSet.empty(SP2)})
    assert equivalent(dead, Flowchart(Const("a"), SP2, {}))
    assert not equivalent(dead, Flowchart(Const("b"), SP2, {}))
    # charts over different spaces are never equivalent
    assert not equivalent(Flowchart(Const("a"), SP2, {}), Flowchart(Const("a"), Space(3), {}))


def test_equivalent_sees_past_the_grid():
    # No grid point enters [0000011]: a period of length <= 2 starting
    # within the first five letters cannot continue 0, 1, 1.
    t = parse_term('q"a" ~> q"b"')
    f = Flowchart(t, SP2, {(): cs("{0000011}")})
    g = Flowchart(t, SP2, {(): ClopenSet.empty(SP2)})
    assert all(eval_outcome(f, x) == eval_outcome(g, x) == ("value", "a") for x in GRID)
    assert eval_outcome(f, pt("0000011(0)")) == ("value", "b")
    assert not equivalent(f, g)


def test_domain_true_position_equivalence():
    rng = random.Random(101)
    for _ in range(150):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        doms = domain_assignment(f)
        tree = syntax_tree(term)
        for x in GRID:
            trace = set(true_positions(f, x))
            for addr in tree.addresses():
                assert (addr in trace) == member(x, doms[addr])


# -- to_monotone ----------------------------------------------------------------------

def test_to_monotone_fixes_widened_family():
    f = Flowchart(TERM, SP2, {(): cs("{1}"),
                              (1,): (cs("{10, 00}"), cs("{11}"))})
    m = to_monotone(f)
    assert dict(m.assign)[(1,)] == (cs("{10}"), cs("{11}"))
    assert dict(m.assign)[()] == cs("{1}")


def test_to_monotone_identity_on_monotone_input():
    m = to_monotone(FC)
    assert m == FC
    assert is_monotone(m)


def test_to_monotone_rejects_non_normal():
    t = parse_term('q"a" ~> q"b"')
    f = Flowchart(t, SP2, {(): cs("{1}")})
    with pytest.raises(NonNormalTermError):
        to_monotone(f)


def test_to_monotone_properties_random():
    rng = random.Random(103)
    for _ in range(120):
        term = random_normal_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        m = to_monotone(f)
        assert is_monotone(m)
        assert to_monotone(m) == m
        doms = domain_assignment(m)
        for addr, sets in m.assign:
            family = sets if isinstance(sets, tuple) else (sets,)
            for s in family:
                assert s.is_subset(doms[addr])
        for x in GRID:
            assert eval_outcome(f, x) == eval_outcome(m, x)


LEVELS = (ONE, CnfOrdinal.from_int(2), CnfOrdinal.from_int(4), parse_ordinal("w"), parse_ordinal("w*2 + 1"))


def _same_domains(got, want):
    assert got.keys() == want.keys()
    for addr, d in want.items():
        assert got[addr] == d and got[addr].declared_level == d.declared_level, addr


def test_to_monotone_domains_match_a_fresh_compile():
    # to_monotone's result takes its domain tries from its source; they
    # must be the sets and levels a compile from scratch gives.
    rng = random.Random(107)
    for space in (SP2, Space(3)):
        for n in range(200):
            term = random_normal_term(rng, 4)
            if n % 2:
                f = random_flowchart(rng, term, space, 3)
                f = f.replace_sets(lambda addr, s: s.with_level(rng.choice(LEVELS)))
            else:
                f = random_total_det_flowchart(rng, term, space, 3)
            m = to_monotone(f)
            _same_domains(domain_assignment(m), domain_assignment(Flowchart(m.term, space, m.assign)))
            # A chart rewritten from the result compiles its own domains.
            g = m.replace_sets(lambda addr, s: s.complement())
            _same_domains(domain_assignment(g), domain_assignment(Flowchart(g.term, space, g.assign)))


# -- to_reduced ------------------------------------------------------------------------

def test_to_reduced_example():
    t = parse_term('q"q0" ~> join(q"q1", q"q2")')
    f = Flowchart(t, SP2, {(): ClopenSet.full(SP2),
                           (1,): (cs("{0, 10}"), cs("{1}"))})
    r = to_reduced(f)
    assert dict(r.assign)[(1,)] == (cs("{0, 10}"), cs("{11}"))


def test_derived_charts_share_the_term_tree():
    rng = random.Random(109)
    for _ in range(30):
        f = random_flowchart(rng, random_normal_term(rng, 4), SP2, 3)
        assert f.tree is syntax_tree(f.term)
        for g in (to_monotone(f), to_reduced(f), f.replace_sets(lambda addr, s: s)):
            assert g.tree is f.tree


def test_to_reduced_properties_random():
    rng = random.Random(107)
    for _ in range(120):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        r = to_reduced(f)
        tree = syntax_tree(term)
        fa, ra = dict(f.assign), dict(r.assign)
        for addr, sets in ra.items():
            if not isinstance(tree.label(addr), JoinL):
                assert sets == fa[addr]
                continue
            old = fa[addr]
            union_old = ClopenSet.empty(SP2)
            union_new = ClopenSet.empty(SP2)
            for s in old:
                union_old = union_old.union(s)
            for s in sets:
                union_new = union_new.union(s)
            assert union_old == union_new
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert sets[i].intersect(sets[j]).is_empty
        # a deterministic input evaluates identically
        det, _ = is_deterministic(f)
        if det:
            for x in GRID:
                assert eval_outcome(f, x) == eval_outcome(r, x)


def test_to_reduced_keeps_values_within_original_label_set():
    rng = random.Random(109)
    for _ in range(120):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        r = to_reduced(f)
        for x in GRID:
            got = eval_outcome(r, x)
            if got[0] == "value":
                assert got[1] in _labels_at(f, x)


def test_to_reduced_can_change_nondeterministic_values():
    # both members cover everything; reduction starves the second
    f = Flowchart(TERM, SP2, {(): ClopenSet.full(SP2),
                              (1,): (ClopenSet.full(SP2), ClopenSet.full(SP2))})
    r = to_reduced(f)
    x = pt("(0)")
    assert eval_outcome(f, x) == ("ambiguous", frozenset({"q1", "q2"}))
    assert eval_outcome(r, x) == ("value", "q1")


# -- pullback ------------------------------------------------------------------------

def test_pullback_identity_law():
    assert pullback(FC, identity_map(SP2)) == FC


def test_pullback_letter_double_example():
    g = pullback(FC, letter_double(SP2))
    a = dict(g.assign)
    assert a[()] == cs("{1}")
    assert a[(1,)] == (ClopenSet.empty(SP2), cs("{1}"))


def test_pullback_agreement_and_functoriality():
    rng = random.Random(113)
    maps = [drop_first(SP2), letter_double(SP2), parity_merge()]
    for _ in range(60):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        for theta in maps:
            g = pullback(f, theta)
            for x in GRID:
                assert eval_outcome(g, x) == eval_outcome(f, apply(theta, x))
        t1, t2 = maps[0], maps[1]
        assert pullback(pullback(f, t2), t1) == pullback(f, compose(t2, t1))


def test_pullback_preserves_totality_and_determinism():
    rng = random.Random(127)
    for _ in range(60):
        term = random_normal_term(rng, 3, veblen=False)
        f = random_total_det_flowchart(rng, term, SP2, 3)
        g = pullback(f, drop_first(SP2))
        assert is_total(g)[0]
        assert is_deterministic(g)[0]


def test_pullback_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        pullback(FC, identity_map(Space(3)))


# -- vaught_transform -----------------------------------------------------------------

def test_vaught_identity_law():
    m = to_monotone(FC)
    assert vaught_transform(m, identity_map(SP2), 6) == m


def test_vaught_drop_first_example():
    t = parse_term('q"q0" ~> join(q"q1", q"q2")')
    f = Flowchart(t, SP2, {(): cs("{01}"),
                           (1,): (cs("{010}"), cs("{011}"))})
    assert is_monotone(f)
    g = vaught_transform(f, drop_first(SP2), 6)
    a = dict(g.assign)
    assert a[()] == cs("{1}")
    assert a[(1,)] == (cs("{10}"), cs("{11}"))


def test_vaught_rejects_non_monotone():
    f = Flowchart(TERM, SP2, {(): cs("{1}"),
                              (1,): (cs("{0}"), cs("{11}"))})
    with pytest.raises(NotMonotoneError):
        vaught_transform(f, drop_first(SP2), 6)


def test_vaught_rejects_non_surjective_map():
    # a machine pinning the first output letter to 1: image = [1]
    delta = Transducer.build(
        SP2, SP2, 0,
        {(0, 0): (1, (1, 0)), (0, 1): (1, (1, 1)),
         (1, 0): (1, (0,)), (1, 1): (1, (1,))},
    )
    m = to_monotone(FC)
    with pytest.raises(UnsupportedError, match="surjective"):
        vaught_transform(m, delta, 6)


def test_vaught_determination_on_fiber_constant_corpus():
    rng = random.Random(131)
    deltas = [drop_first(SP2), parity_merge(), identity_map(SP2)]
    for _ in range(40):
        term = random_normal_term(rng, 3, veblen=False)
        g = random_total_det_flowchart(rng, term, SP2, 3)
        for delta in deltas:
            f = to_monotone(pullback(g, delta))
            sd = vaught_transform(f, delta, 8)
            for p in GRID:
                assert eval_outcome(sd, apply(delta, p)) == eval_outcome(f, p)


# -- check_levels -----------------------------------------------------------------------

def test_check_levels_examples():
    assert check_levels(FC)

    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    lvl2 = cs("{1}").with_level(CnfOrdinal.from_int(2))
    f2 = Flowchart(t, SP2, {(0,): lvl2, (0, 1): (cs("{11}"),)})
    assert check_levels(f2)

    lvl3 = cs("{1}").with_level(CnfOrdinal.from_int(3))
    f3 = Flowchart(t, SP2, {(0,): lvl3, (0, 1): (cs("{11}"),)})
    assert not check_levels(f3)


# -- addresses and codec -------------------------------------------------------------------

def test_address_literals():
    assert render_address(()) == ""
    assert render_address((1, 0, 2)) == "1.0.2"
    assert parse_address("") == ()
    assert parse_address("1.0.2") == (1, 0, 2)
    assert parse_address("10.0.100") == (10, 0, 100)
    with pytest.raises((ValueError, DocumentError)):
        parse_address("1..2")


@pytest.mark.parametrize("key", ["01", "²", "١"])
def test_address_keys_are_canonical_ascii_decimals(key):
    for text in (key, "1." + key):
        with pytest.raises(DocumentError, match="bad address key"):
            parse_address(text)


# Each of these once read as another literal ({1_0.1} as {10.1}, {+1.2}
# as {12}, w^١ as w, ...), so decoding and encoding again changed it.
@pytest.mark.parametrize(
    "read, text",
    [
        (lambda t: parse_clopen(SP2, t), "{1_0.1}"),
        (lambda t: parse_clopen(SP2, t), "{+1.2}"),
        (lambda t: parse_clopen(SP2, t), "{1 .0}"),
        (lambda t: parse_clopen(SP2, t), "{١}"),
        (lambda t: parse_clopen(SP2, t), "{²}"),
        (lambda t: parse_point(SP2, t), "١(0)"),
        (lambda t: parse_point(SP2, t), "1(-0)"),
        (parse_ordinal, "w^١"),
        (parse_ordinal, "w*١"),
        (parse_ordinal, "١"),
        (parse_term, "١"),
        (parse_term, 'veb[w^١](q"a")'),
    ],
)
def test_literals_read_ascii_digits_only(read, text):
    with pytest.raises(ParseError):
        read(text)


@pytest.mark.parametrize("literal", ["{1_0.1}", "{+1.2}", "{١}"])
def test_decoders_refuse_sugared_digits_in_set_entries(literal):
    doc = encode_flowchart(FC)
    doc["assign"][""] = literal
    with pytest.raises(DocumentError, match="bad set entry at address ''"):
        decode_flowchart(doc)


def test_equal_set_entries_decode_to_one_set():
    doc = encode_flowchart(FC)
    doc["assign"][""] = "{10}"
    doc["assign"]["1"] = ["{10}", {"set": "{10}", "level": "1"}]
    f = decode_flowchart(doc)
    (_, root), (_, (first, second)) = f.assign
    assert root is first
    # A dict entry is another entry, though it writes the same set.
    assert second == first and second is not first
    # The sets are immutable, so sharing them changes no output.
    assert encode_flowchart(f)["assign"] == {"": "{10}", "1": ["{10}", "{10}"]}


def test_decoders_reject_a_second_key_for_an_address():
    # "01" beside "1" would name (1,) twice, and one entry would be lost.
    for doc, decode in (
        (encode_flowchart(FC), decode_flowchart),
        (cm.encode_command(cm.flowchart_to_simple_command(FC)), cm.decode_command),
    ):
        doc["assign"]["01"] = doc["assign"]["1"]
        with pytest.raises(DocumentError, match="bad address key '01'"):
            decode(doc)


def test_encode_flowchart_shape():
    doc = encode_flowchart(FC)
    assert doc["kind"] == "flowchart"
    assert doc["space"] == 2
    assert doc["assign"][""] == "{1}"
    assert doc["assign"]["1"] == ["{10}", "{11}"]
    assert "nodes" in doc["term"]


def test_codec_round_trip_byte_stable():
    rng = random.Random(137)
    for _ in range(200):
        term = random_term(rng, 4)
        f = random_flowchart(rng, term, SP2, 3)
        doc = encode_flowchart(f)
        text = json.dumps(doc, sort_keys=True)
        g = decode_flowchart(json.loads(text))
        assert g == f
        assert json.dumps(encode_flowchart(g), sort_keys=True) == text


def test_total_det_charts_keep_levels_through_codec():
    # The criterion-1 corpus: Veblen-free normal terms, so every rank is 1.
    rng = random.Random(416)
    for _ in range(500):
        f = random_total_det_flowchart(rng, random_normal_term(rng, 4, veblen=False), SP2, 3)
        assert check_levels(f)
        text = json.dumps(encode_flowchart(f), sort_keys=True)
        g = decode_flowchart(json.loads(text))
        assert json.dumps(encode_flowchart(g), sort_keys=True) == text


def test_codec_levels_survive_round_trip():
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    lvl2 = cs("{1}").with_level(CnfOrdinal.from_int(2))
    f = Flowchart(t, SP2, {(0,): lvl2, (0, 1): (cs("{11}"),)})
    doc = encode_flowchart(f)
    assert doc["assign"]["0"] == {"set": "{1}", "level": "2"}
    g = decode_flowchart(doc)
    assert dict(g.assign)[(0,)].declared_level == CnfOrdinal.from_int(2)


def test_decode_rejects_malformed_documents():
    good = encode_flowchart(FC)

    b = json.loads(json.dumps(good)); del b["assign"]["1"]
    with pytest.raises(DocumentError, match="join node \\(1,\\) needs a family of 2 sets"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["assign"][""] = ["{1}"]
    with pytest.raises(DocumentError, match="~> node \\(\\) needs exactly one set"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["assign"]["0"] = "{1}"
    with pytest.raises(DocumentError, match="node \\(0,\\) takes no assignment"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["assign"]["1"] = ["{10}"]
    with pytest.raises(DocumentError, match="join node \\(1,\\) needs a family of 2 sets"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["assign"][""] = "{2}"
    with pytest.raises(DocumentError, match="bad set entry"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["space"] = 0
    with pytest.raises(DocumentError, match="alphabet_size must be an int >= 1"):
        decode_flowchart(b)

    with pytest.raises(DocumentError, match="a flowchart document has kind 'flowchart'"):
        decode_flowchart("nope")

    b = json.loads(json.dumps(good)); b["space"] = 2.0
    with pytest.raises(DocumentError, match="flowchart document needs an integer space"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good)); b["assign"] = ["{1}"]
    with pytest.raises(DocumentError, match="flowchart document needs an assign object"):
        decode_flowchart(b)

    b = json.loads(json.dumps(good))
    b["assign"]["2"] = "{1}"
    b["assign"]["1.2"] = "{1}"
    with pytest.raises(DocumentError, match="outside the tree: \\[\\(1, 2\\), \\(2,\\)\\]"):
        decode_flowchart(b)


def test_decode_rejects_level_violations():
    t = parse_term('veb[0](q"a" ~> join(q"b"))')
    lvl2 = cs("{1}").with_level(CnfOrdinal.from_int(2))
    f = Flowchart(t, SP2, {(0,): lvl2, (0, 1): (cs("{11}"),)})
    doc = json.loads(json.dumps(encode_flowchart(f)))
    doc["assign"]["0"]["level"] = "3"
    with pytest.raises(DocumentError, match="level"):
        decode_flowchart(doc)


# -- refusals no other test reaches ------------------------------------------

def _doc_with_level(level):
    t = parse_term('q"a" ~> q"b"')
    doc = json.loads(json.dumps(encode_flowchart(Flowchart(t, SP2, {(): cs("{1}")}))))
    doc["assign"][""] = {"set": "{1}", "level": level}
    return doc


@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: Flowchart(parse_term('join(q"a")'), SP2, {(): ("{1}",)}),
        ValueError, "assignment at () is not a set", id="not-a-set",
    ),
    pytest.param(
        lambda: Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{1}")}).at((0,)),
        InvalidAddressError, "no assignment at (0,)", id="no-assignment",
    ),
    pytest.param(
        lambda: Flowchart(parse_term('q"a" ~> q"b"'), SP2, [((), cs("{1}")), ((), cs("{0}"))]),
        ValueError, "duplicate assignment at ()", id="duplicate",
    ),
    pytest.param(
        lambda: decode_flowchart(_doc_with_level(1)),
        DocumentError, "a level is an ordinal string", id="level-not-a-string",
    ),
    pytest.param(
        lambda: Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{1}")})
        .replace_sets(lambda addr, s: ClopenSet.full(Space(3))),
        SpaceMismatchError, "set at () lives in Space(3), flowchart in Space(2)",
        id="rewrite-into-another-space",
    ),
    pytest.param(
        lambda: Flowchart(parse_term('join(q"a", q"b")'), SP2, {(): (cs("{1}"), cs("{0}"))})
        .replace_sets(lambda addr, s: "{1}"),
        ValueError, "assignment at () is not a set", id="rewrite-to-a-non-set",
    ),
])
def test_refusal_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
