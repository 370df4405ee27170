"""Ordinal arithmetic against an independent expanded-form oracle.

The oracle never touches CnfOrdinal internals.  An ordinal below
epsilon_0 is written as a weakly decreasing tuple of exponents, one
entry per omega-power summand (so w^2*3 is (e2, e2, e2)), with each
exponent recursively in the same shape.  Comparison is lexicographic
with the proper prefix smaller, and addition is concatenation that
drops every left entry strictly below the right-hand leading entry.
Both facts are the textbook characterization of CNF, derivable by hand
for the sizes enumerated here.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vebflow.errors import ParseError
from vebflow.ordinal import (
    CnfOrdinal,
    OMEGA,
    ONE,
    ZERO,
    add,
    cmp,
    omega_pow,
    parse_ordinal,
    rank_sum,
    render_ordinal,
)

# -- the oracle -------------------------------------------------------

E0 = ()
E1 = (E0,)
E2 = (E0, E0)
E3 = (E0, E0, E0)
EW = (E1,)
EW1 = (E1, E0)
EW2 = (E1, E0, E0)
EW3 = (E1, E0, E0, E0)
EW_2 = (E1, E1)

EXPONENT_POOL = [E0, E1, E2, E3, EW, EW1, EW2, EW3, EW_2]


def x_cmp(e, f):
    for a, b in zip(e, f):
        c = x_cmp(a, b)
        if c:
            return c
    return (len(e) > len(f)) - (len(e) < len(f))


def x_add(e, f):
    if not f:
        return e
    kept = tuple(t for t in e if x_cmp(t, f[0]) >= 0)
    return kept + tuple(f)


def to_ordinal(e):
    """Bridge an expanded form into the package representation."""
    terms = []
    for exp, block in itertools.groupby(e):
        terms.append((to_ordinal(exp), len(list(block))))
    return CnfOrdinal(tuple(terms))


def pool_ordinals():
    """Every expanded form with <= 2 distinct exponents from the pool,
    coefficients 1..3."""
    out = [()]
    for a in EXPONENT_POOL:
        for c1 in (1, 2, 3):
            out.append((a,) * c1)
            for b in EXPONENT_POOL:
                if x_cmp(a, b) > 0:
                    for c2 in (1, 2, 3):
                        out.append((a,) * c1 + (b,) * c2)
    return out


POOL = pool_ordinals()


def test_pool_is_large_enough():
    # ~350 forms -> ~124k ordered pairs, past the requested 1e4.
    assert len(POOL) ** 2 >= 10_000


def test_cmp_matches_oracle_on_all_pool_pairs():
    ords = [to_ordinal(e) for e in POOL]
    for (e, x), (f, y) in itertools.product(zip(POOL, ords), repeat=2):
        assert cmp(x, y) == x_cmp(e, f)


def test_add_matches_oracle_on_all_pool_pairs():
    ords = [to_ordinal(e) for e in POOL]
    for (e, x), (f, y) in itertools.product(zip(POOL, ords), repeat=2):
        assert add(x, y) == to_ordinal(x_add(e, f))


def test_rank_sum_matches_oracle_on_random_lists():
    rng = random.Random(7)
    for _ in range(2000):
        picks = [rng.randrange(len(POOL)) for _ in range(rng.randrange(5))]
        expect = E1  # rank_sum of [] is 1
        for i in picks:
            expect = x_add(expect, (POOL[i],))
        got = rank_sum([to_ordinal(POOL[i]) for i in picks])
        assert got == to_ordinal(expect)


# -- pinned examples --------------------------------------------------

W2 = omega_pow(CnfOrdinal.from_int(2))


def test_cmp_examples():
    assert cmp(add(W2, OMEGA), add(W2, ONE)) > 0
    assert cmp(ZERO, ZERO) == 0
    assert cmp(ONE, OMEGA) < 0


def test_add_absorption_examples():
    # w^2 + w, then + w^2 again: the tail is absorbed.
    assert add(add(W2, OMEGA), W2) == CnfOrdinal(((CnfOrdinal.from_int(2), 2),))
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == CnfOrdinal(((ONE, 1), (ZERO, 1)))
    assert add(ZERO, OMEGA) == OMEGA
    assert add(OMEGA, ZERO) == OMEGA


def test_omega_pow_examples():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert omega_pow(OMEGA) == CnfOrdinal(((OMEGA, 1),))


def test_rank_sum_examples():
    assert rank_sum([]) == ONE
    assert rank_sum([ZERO]) == CnfOrdinal.from_int(2)
    # 1 + w^1 + w^0 = w + 1
    assert rank_sum([ONE, ZERO]) == CnfOrdinal(((ONE, 1), (ZERO, 1)))
    # left absorption: 1 + w^0 + w^1 = w
    assert rank_sum([ZERO, ONE]) == OMEGA


def test_parse_render_examples():
    x = parse_ordinal("w^2*3 + w + 1")
    assert x == CnfOrdinal(
        ((CnfOrdinal.from_int(2), 3), (ONE, 1), (ZERO, 1))
    )
    assert render_ordinal(x) == "w^2*3 + w + 1"
    y = parse_ordinal("w^(w)")
    assert y == omega_pow(OMEGA)
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("17") == CnfOrdinal.from_int(17)
    assert render_ordinal(ZERO) == "0"


def test_parse_rejects_garbage():
    for text in ("", "w^", "w*0", "+", "1 +", "w^2 w", "(w", "-1"):
        with pytest.raises(ParseError):
            parse_ordinal(text)


def test_parse_rejects_unclosed_and_stray_brackets():
    for text in ("w^(1", "w^(w^(1)", "w^(1))", "w^()", "w^(1]", "²", "w^²"):
        with pytest.raises(ParseError):
            parse_ordinal(text)


def test_parse_errors_give_line_and_column():
    with pytest.raises(ParseError, match="expected '\\)' at line 2, column 3"):
        parse_ordinal("w^(w\n  ]")
    with pytest.raises(ParseError, match="coefficient must be positive at line 1, column 4"):
        parse_ordinal("w*0")


def test_parse_shares_zero_and_one():
    # Levels read from documents then meet cmp's identity path.
    assert parse_ordinal("1") is ONE
    assert parse_ordinal(" 0 ") is ZERO
    assert parse_ordinal("w^1").terms[0][0] is ONE
    assert parse_ordinal("1 + 0") is ONE


def test_parse_bounds_exponent_nesting():
    # ==, hash, cmp and render recurse once per level of nesting.
    deep = "w^(" * 100 + "1" + ")" * 100
    x = parse_ordinal(deep)
    assert x == parse_ordinal(deep) and hash(x) == hash(parse_ordinal(deep))
    assert render_ordinal(x) == deep.replace("w^(1)", "w")
    with pytest.raises(ParseError, match="ordinal nested too deeply at line 1, column 304"):
        parse_ordinal("w" + "^(w" * 101 + ")" * 101)
    with pytest.raises(ParseError, match="ordinal nested too deeply"):
        parse_ordinal("w^(" * 3000 + "1" + ")" * 3000)


def test_non_canonical_sums_normalize_through_parse():
    assert parse_ordinal("1 + w") == OMEGA
    assert parse_ordinal("w + w") == CnfOrdinal(((ONE, 2),))


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        CnfOrdinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        CnfOrdinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(ValueError):
        CnfOrdinal(((ONE, 1), (ONE, 1)))  # equal exponents


def _checked(o):
    """o rebuilt through the checking constructor, exponents first."""
    return CnfOrdinal(tuple((_checked(e), c) for e, c in o.terms))


def test_arithmetic_and_the_reader_build_without_checks(monkeypatch):
    pairs = [(to_ordinal(e), to_ordinal(f)) for e in POOL[::5] for f in POOL[::7]]
    texts = [render_ordinal(a) for a, _ in pairs[::9]]
    texts += ["1 + w", "w^(w^2 + 1)*3 + w*2 + 7", "2 + w^(w) + w^(w + 1)*4 + 12"]
    checks = []
    check = CnfOrdinal.__post_init__
    monkeypatch.setattr(CnfOrdinal, "__post_init__", lambda self: checks.append(self) or check(self))
    built = [add(a, b) for a, b in pairs]
    built += [omega_pow(a) for a, _ in pairs]
    built += [rank_sum([a, b]) for a, b in pairs[::3]]
    built += [parse_ordinal(t) for t in texts]
    assert checks == []
    # Every sequence built unchecked is one the constructor accepts.
    for o in built:
        assert _checked(o) == o
    assert len(checks) > len(built)
    with pytest.raises(TypeError):
        omega_pow(2)


def test_int_bridge():
    assert CnfOrdinal.from_int(0) == ZERO
    assert CnfOrdinal.from_int(1) == ONE
    assert CnfOrdinal.from_int(5).as_int() == 5
    assert ZERO.as_int() == 0
    assert OMEGA.is_finite is False
    assert ONE.is_finite is True
    with pytest.raises(ValueError):
        OMEGA.as_int()


# -- hypothesis: algebraic laws on randomly built ordinals ------------

def shallow_ordinals(depth):
    if depth == 0:
        return st.integers(min_value=0, max_value=3).map(CnfOrdinal.from_int)
    exp = shallow_ordinals(depth - 1)
    pair = st.tuples(exp, st.integers(min_value=1, max_value=3))
    return st.lists(pair, max_size=3).map(
        lambda ps: _fold_terms(ps)
    )


def _fold_terms(pairs):
    acc = ZERO
    for exp, coeff in pairs:
        acc = add(acc, CnfOrdinal(((exp, coeff),)))
    return acc


ORD = shallow_ordinals(2)


@settings(max_examples=300, deadline=None)
@given(ORD, ORD, ORD)
def test_add_associative(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@settings(max_examples=300, deadline=None)
@given(ORD, ORD)
def test_cmp_total_and_antisymmetric(x, y):
    assert cmp(x, y) == -cmp(y, x)
    if cmp(x, y) == 0:
        assert x == y


@settings(max_examples=300, deadline=None)
@given(ORD, ORD)
def test_add_weakly_monotone_left_strictly_right(x, y):
    assert cmp(add(x, y), x) >= 0
    if cmp(y, ZERO) > 0:
        # adding a positive ordinal on the right strictly grows the sum
        assert cmp(add(x, y), x) > 0


@settings(max_examples=300, deadline=None)
@given(ORD)
def test_render_parse_round_trip(x):
    assert parse_ordinal(render_ordinal(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.lists(ORD, max_size=5), ORD)
def test_rank_sum_weakly_increasing_in_extension(xs, extra):
    assert cmp(rank_sum(xs + [extra]), rank_sum(xs)) >= 0


# -- refusals no other test reaches ------------------------------------------

@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: CnfOrdinal(((1, 1),)), TypeError, "exponent must be a CnfOrdinal, got 1",
        id="exponent",
    ),
    pytest.param(
        lambda: CnfOrdinal.from_int(-1), ValueError, "ordinals are non-negative", id="negative",
    ),
])
def test_refusal_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
