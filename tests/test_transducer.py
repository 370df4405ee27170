"""Finite-state continuous maps: apply, preimage, exact image, codecs."""

import json
import random
from collections import deque

import pytest

from vebflow.errors import (
    DocumentError,
    EmptySetError,
    SpaceMismatchError,
    UndecidedImageError,
    UnsupportedError,
)
from vebflow import command as cm
from vebflow import transducer
from vebflow.flowchart import Flowchart, vaught_transform
from vebflow.generate import map_palette, random_clopen, random_term
from vebflow.ordinal import ONE, omega_pow
from vebflow.space import (
    ClopenSet,
    Space,
    UpPoint,
    _node,
    least_point,
    member,
    parse_clopen,
    parse_point,
    sample_grid,
)
from vebflow.term import ArrowL, JoinL, VeblenL, parse_term, syntax_tree
from vebflow.transducer import (
    Transducer,
    apply,
    compose,
    const_zero,
    decode_map,
    decode_transducer,
    drop_first,
    encode_map,
    encode_transducer,
    identity_map,
    image,
    in_map,
    letter_double,
    out_map,
    parity_merge,
    preimage,
)

SP1 = Space(1)
SP2 = Space(2)
GRID = sample_grid(SP2, 4, 2)


def cs(text, space=SP2):
    return parse_clopen(space, text)


def pt(text, space=SP2):
    return parse_point(space, text)


# -- machine validation ---------------------------------------------------

def test_silent_cycle_rejected():
    delta = {(0, 0): (0, ()), (0, 1): (0, (1,))}
    with pytest.raises(ValueError, match="silent cycle"):
        Transducer.build(SP2, SP2, 0, delta)


def test_silent_cycle_through_two_states_rejected():
    delta = {
        (0, 0): (1, ()),
        (0, 1): (1, (1,)),
        (1, 0): (0, ()),
        (1, 1): (0, (0,)),
    }
    with pytest.raises(ValueError, match="silent cycle"):
        Transducer.build(SP2, SP2, 0, delta)


def test_silent_edges_without_cycle_allowed():
    f = drop_first(SP2)
    assert apply(f, pt("10(1)")) == pt("0(1)")


def test_bad_output_letter_rejected():
    with pytest.raises(ValueError):
        Transducer.build(SP2, SP2, 0, {(0, 0): (0, (2,)), (0, 1): (0, (1,))})


def test_build_normalizes_state_numbering():
    # same machine written with scrambled state names
    a = Transducer.build(SP2, SP2, 5, {(5, 0): (9, ()), (5, 1): (9, ()),
                                        (9, 0): (9, (0,)), (9, 1): (9, (1,))})
    assert a == drop_first(SP2)


# -- apply ------------------------------------------------------------------

def test_apply_identity():
    for text in ("(0)", "01(10)", "1(0)"):
        assert apply(identity_map(SP2), pt(text)) == pt(text)


def test_identity_map_is_built_once_per_space():
    for k in (1, 2, 3):
        m = identity_map(Space(k))
        assert identity_map(Space(k)) is m
        echo = {(0, a): (0, (a,)) for a in range(k)}
        assert m == Transducer.build(Space(k), Space(k), 0, echo)


def test_identity_map_is_its_own_normal_form_without_renumbering(monkeypatch):
    # Its one row is written out already numbered, so neither building
    # it nor asking for its normal form runs `_numbered`.
    calls = []
    numbered = transducer._numbered
    monkeypatch.setattr(transducer, "_numbered", lambda *a: calls.append(a) or numbered(*a))
    fresh = [identity_map.__wrapped__(Space(k)) for k in range(1, 7)]
    assert all(m._normal is m and m._identity for m in fresh)
    assert calls == []
    for k, m in enumerate(fresh, 1):
        echo = {(0, a): (0, (a,)) for a in range(k)}
        assert m == Transducer.build(Space(k), Space(k), 0, echo) == identity_map(Space(k))


def test_apply_in_map_example():
    f = in_map(cs("{0, 11}"))
    assert f.input_space == SP2
    assert apply(f, pt("1(0)")) == pt("11(0)")
    assert apply(f, pt("(0)")) == pt("(0)")


def test_apply_letter_double_example():
    assert apply(letter_double(SP2), pt("(01)")) == pt("(0011)")


def test_apply_parity_merge():
    # pairs (0,1),(1,0),(1,0),... give 1,1,1,...
    assert apply(parity_merge(), pt("01(10)")) == pt("(1)")
    assert apply(parity_merge(), pt("(00)")) == pt("(0)")
    assert apply(parity_merge(), pt("(01)")) == pt("(1)")


def test_apply_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        apply(in_map(cs("{10}")), pt("(0)"))


def test_apply_agrees_with_direct_simulation():
    rng = random.Random(61)
    machines = [identity_map(SP2), drop_first(SP2), letter_double(SP2),
                parity_merge(), compose(drop_first(SP2), letter_double(SP2)),
                out_map(cs("{01}")), in_map(cs("{0, 11}"))]
    for f in machines:
        for _ in range(60):
            prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            period = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            x = UpPoint(f.input_space, prefix, period)
            y = apply(f, x)
            # drive the machine letter by letter and compare a long window
            state = f.init
            out = []
            i = 0
            while len(out) < 24:
                state, w = f.step(state, x.letter(i))
                out.extend(w)
                i += 1
            assert [y.letter(j) for j in range(24)] == out[:24]


def ref_apply(f, x):
    # apply as it was before it passed the identity through and built
    # its point unchecked: every step through f.step, the result through
    # UpPoint's checking constructor.
    if x.space != f.input_space:
        raise SpaceMismatchError("point in %r, map reads %r" % (x.space, f.input_space))
    state = f.init
    out = []
    for a in x.prefix:
        state, w = f.step(state, a)
        out.extend(w)
    seen = {}
    phase = 0
    while (state, phase) not in seen:
        seen[(state, phase)] = len(out)
        state, w = f.step(state, x.period[phase])
        out.extend(w)
        phase = (phase + 1) % len(x.period)
    cut = seen[(state, phase)]
    return UpPoint(f.output_space, tuple(out[:cut]), tuple(out[cut:]))


def test_apply_matches_reference():
    rng = random.Random(67)
    machines = []
    for k in (1, 2, 3):
        sp = Space(k)
        palette = map_palette(sp)
        machines += palette + [compose(m, n) for m in palette for n in palette]
        for _ in range(3):
            v = random_clopen(rng, sp, 3)
            if not v.is_full:
                machines.append(out_map(v))
            if not v.is_empty:
                machines.append(in_map(v))
    machines += [Transducer(*t) for t in NON_NORMAL if _outcome(lambda: ref_check(*t)) is None]
    while len(machines) < 160:
        machines.append(_random_machine(rng, k_out=rng.randint(1, 3)))
    grids = {k: sample_grid(Space(k), 3, 3) for k in (1, 2, 3)}
    points = 0
    for f in machines:
        for x in grids[f.input_space.alphabet_size]:
            got, want = apply(f, x), ref_apply(f, x)
            assert (got.space, got.prefix, got.period) == (want.space, want.prefix, want.period)
            assert type(got.prefix) is tuple and type(got.period) is tuple
            points += 1
    assert points > 10000


def test_apply_passes_the_identity_through():
    for k in (1, 2, 3):
        for x in sample_grid(Space(k), 2, 2):
            assert apply(identity_map(Space(k)), x) is x


# -- compose -------------------------------------------------------------------

def test_compose_example():
    f = compose(drop_first(SP2), letter_double(SP2))
    assert apply(f, pt("(01)")) == pt("(0110)")


def test_compose_extensionally_associative():
    f, g, h = drop_first(SP2), letter_double(SP2), parity_merge()
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    for x in GRID:
        assert apply(left, x) == apply(right, x)


def test_compose_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        compose(in_map(cs("{10}")), identity_map(SP2))


# -- the normal form and the productivity check against the code they replaced
#
# Before transducer._numbered, Transducer.build, _normalized and the
# product machine in compose each numbered states in a breadth-first
# loop of their own, and the constructor looked for silent cycles by a
# colour DFS.  They are kept here as the reference.

def ref_build(input_space, init, delta):
    # Transducer.build's numbering: the steps table it stored.
    k_in = input_space.alphabet_size
    number = {init: 0}
    order = [init]
    queue = deque([init])
    while queue:
        s = queue.popleft()
        for a in range(k_in):
            if (s, a) not in delta:
                raise ValueError("missing transition (%r, %d)" % (s, a))
            nxt, _ = delta[(s, a)]
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return tuple(
        tuple((number[delta[(s, a)][0]], tuple(delta[(s, a)][1])) for a in range(k_in))
        for s in order
    )


def ref_check(input_space, output_space, init, steps):
    # The constructor's checks, with silent cycles found by a colour DFS.
    k_in = input_space.alphabet_size
    n = len(steps)
    if not (0 <= init < n):
        raise ValueError("initial state out of range")
    for row in steps:
        if len(row) != k_in:
            raise ValueError("every state must handle every input letter")
        for nxt, out in row:
            if not (0 <= nxt < n):
                raise ValueError("transition target out of range")
            output_space.check_word(out)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def silent_succs(s):
        return [nxt for nxt, out in steps[s] if not out]

    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(silent_succs(start)))]
        color[start] = 1
        while stack:
            s, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    raise ValueError("transducer has a silent cycle (not productive)")
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(silent_succs(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[s] = 2
                stack.pop()


def ref_normalized(f):
    order = [f.init]
    seen = {f.init}
    for s in order:
        for nxt, _ in f.steps[s]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    if order == list(range(len(f.steps))):
        return f
    delta = {(s, a): step for s, row in enumerate(f.steps) for a, step in enumerate(row)}
    return Transducer(f.input_space, f.output_space, 0, ref_build(f.input_space, f.init, delta))


def ref_is_identity(f):
    return (
        len(f.steps) == 1
        and f.input_space == f.output_space
        and all(step == (0, (a,)) for a, step in enumerate(f.steps[0]))
    )


def _product(outer, inner):
    # The product-machine construction compose uses when neither side
    # is the identity.
    delta = {}
    start = (inner.init, outer.init)
    queue = [start]
    for si, so in queue:
        for a in range(inner.input_space.alphabet_size):
            si2, w = inner.step(si, a)
            so2, out = outer.run_word(so, w)
            delta[((si, so), a)] = ((si2, so2), out)
            if (si2, so2) not in queue:
                queue.append((si2, so2))
    steps = ref_build(inner.input_space, start, delta)
    return Transducer(inner.input_space, outer.output_space, 0, steps)


def ref_compose(outer, inner):
    if ref_is_identity(inner):
        return ref_normalized(outer)
    if ref_is_identity(outer):
        return ref_normalized(inner)
    return _product(outer, inner)


def _outcome(make):
    try:
        return make()
    except ValueError as e:
        return "rejected: %s" % e


def _raw_table(rng):
    # 1-4 states over Space(1..3) and a random initial state; the table
    # may miss a transition, emit a letter outside the output alphabet,
    # leave states unreachable, and hold silent cycles.
    k_in, k_out, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
    delta = {}
    for s in range(n):
        for a in range(k_in):
            size = rng.choice((0, 1, 1, 2))
            out = tuple(rng.randrange(k_out + (rng.random() < 0.03)) for _ in range(size))
            delta[(s, a)] = (rng.randrange(n), out)
    if rng.random() < 0.03:
        del delta[rng.choice(sorted(delta))]
    return Space(k_in), Space(k_out), n, rng.randrange(n), delta


# Built directly, not in normal form: init 1; an unreachable state; a
# silent self-loop; two parallel silent edges; an unreachable silent
# cycle.  The last two differ only in whether state 2 is silent.
NON_NORMAL = [
    (SP2, SP2, 1, (((0, (1,)), (0, (0,))), ((0, (0,)), (1, (1,))))),
    (SP2, SP2, 0, (((0, (1,)), (0, (0,))), ((0, (0,)), (1, (1,))))),
    (SP2, SP2, 0, (((0, ()), (0, (1,))),)),
    (SP2, SP2, 0, (((1, ()), (1, ())), ((1, (0,)), (1, (1,))))),
    (SP1, SP2, 0, (((0, (1,)),), ((2, ()),), ((1, ()),))),
    (SP1, SP2, 0, (((0, (1,)),), ((2, ()),), ((1, (0,)),))),
]


def test_build_matches_reference():
    rng = random.Random(1301)
    seen = set()
    for _ in range(3000):
        sp_in, sp_out, n, init, delta = _raw_table(rng)
        got = _outcome(lambda: Transducer.build(sp_in, sp_out, init, delta))
        if isinstance(got, Transducer):
            got = (got.init, got.steps)

        def ref():
            steps = ref_build(sp_in, init, delta)
            ref_check(sp_in, sp_out, 0, steps)
            return 0, steps

        want = _outcome(ref)
        assert got == want
        seen.add(want if isinstance(want, str) else "accepted")
    assert {"accepted", "rejected: transducer has a silent cycle (not productive)"} <= seen
    assert any(m.startswith("rejected: missing") for m in seen)
    assert any(m.startswith("rejected: letter") for m in seen)


def test_constructor_and_normal_form_match_reference():
    rng = random.Random(1302)
    tables = list(NON_NORMAL)
    while len(tables) < 1500:
        sp_in, sp_out, n, init, delta = _raw_table(rng)
        if len(delta) == n * sp_in.alphabet_size:
            steps = tuple(tuple(delta[(s, a)] for a in range(sp_in.alphabet_size)) for s in range(n))
            tables.append((sp_in, sp_out, init, steps))
    outcomes = []
    for sp_in, sp_out, init, steps in tables:
        got = _outcome(lambda: Transducer(sp_in, sp_out, init, steps))
        want = _outcome(lambda: ref_check(sp_in, sp_out, init, steps))
        if isinstance(got, Transducer):
            assert want is None
            norm, ref = got._normal, ref_normalized(got)
            assert (norm.init, norm.steps) == (ref.init, ref.steps)
            assert (norm is got) == (ref is got)
            assert got._identity == ref_is_identity(got)
            outcomes.append(norm is got)
        else:
            assert got == want
            outcomes.append(got)
    assert outcomes[:6] == [
        False,
        False,
        "rejected: transducer has a silent cycle (not productive)",
        True,
        "rejected: transducer has a silent cycle (not productive)",
        False,
    ]
    assert set(outcomes) >= {True, False}


def _normal_kept(f):
    # Set on the machine already, not computed by this read.
    return f.__dict__.get("_normal") is f


def test_built_and_composed_machines_are_their_own_normal_form():
    rng = random.Random(1304)
    machines = []
    for k in (1, 2, 3):
        sp = Space(k)
        machines += map_palette(sp) + [const_zero(sp, SP1)]
        for _ in range(4):
            v = random_clopen(rng, sp, 3)
            if not v.is_full:
                machines.append(out_map(v))
            if not v.is_empty:
                machines.append(in_map(v))
    while len(machines) < 60:
        machines.append(_random_machine(rng))
    machines += [decode_transducer(encode_transducer(m)) for m in machines]
    products = [
        compose(outer, inner)
        for outer in machines
        for inner in machines
        if inner.output_space == outer.input_space and not (inner._identity or outer._identity)
    ]
    assert len(products) > 500
    for f in machines + products:
        assert _normal_kept(f)
        want = ref_normalized(f)
        assert (f.init, f.steps) == (want.init, want.steps)


def test_a_machine_built_directly_renumbers_on_request():
    kept = []
    for t in NON_NORMAL:
        f = _outcome(lambda: Transducer(*t))
        if isinstance(f, str):
            continue
        assert "_normal" not in f.__dict__
        norm, want = f._normal, ref_normalized(f)
        assert (norm.init, norm.steps) == (want.init, want.steps)
        assert (norm is f) == (want is f)
        assert f._normal is norm and _normal_kept(norm)
        kept.append(norm is f)
    assert kept == [False, False, True, False]


def _mapped_command(rng, palette):
    # A random command whose every site takes a map from the palette.
    term = random_term(rng, 3)
    tree = syntax_tree(term)
    assign = {}
    for addr in tree.addresses():
        label = tree.label(addr)
        if isinstance(label, ArrowL):
            assign[addr] = cm.ArrowSite(random_clopen(rng, SP2, 3), rng.choice(palette))
        elif isinstance(label, JoinL):
            assign[addr] = cm.JoinSite(tuple(
                (random_clopen(rng, SP2, 3), rng.choice(palette)) for _ in tree.children(addr)
            ))
        elif isinstance(label, VeblenL):
            assign[addr] = cm.VeblenSite(rng.choice(palette))
    return cm.Command(term, SP2, assign)


def test_lowering_renumbers_only_product_machines(monkeypatch):
    # Palette machines are reused across commands and products are
    # composed again further down the tree: only product machines are
    # renumbered, and each distinct pair of normal forms once.
    rng = random.Random(1305)
    palette = map_palette(SP2) + [out_map(cs("{01}")), out_map(cs("{1, 00}"))]
    commands = [_mapped_command(rng, palette) for _ in range(60)]
    numbered, composed, products = [], [], []
    real_numbered, real_compose = transducer._numbered, cm.compose

    def counted_compose(outer, inner):
        composed.append(1)
        if not (outer._identity or inner._identity):
            products.append((outer._normal, inner._normal))
        return real_compose(outer, inner)

    transducer._product.cache_clear()
    monkeypatch.setattr(transducer, "_numbered", lambda *a: numbered.append(a) or real_numbered(*a))
    monkeypatch.setattr(cm, "compose", counted_compose)
    for c in commands:
        cm.command_to_flowchart(c)
    assert len(composed) > len(products) > 20
    assert len(numbered) == len(set(products)) < len(products)


def test_cached_product_equals_uncached():
    # Random machines, and NON_NORMAL's valid tables built directly.
    rng = random.Random(1306)
    machines = [Transducer(*t) for t in NON_NORMAL if _outcome(lambda: ref_check(*t)) is None]
    machines += [_random_machine(rng, k_out=rng.randint(1, 3)) for _ in range(40)]
    pairs = 0
    for outer in machines:
        for inner in machines:
            if inner.output_space != outer.input_space or outer._identity or inner._identity:
                continue
            got = compose(outer, inner)
            want = transducer._product.__wrapped__(outer._normal, inner._normal)
            assert got == want and got.steps == want.steps
            assert got._normal is got
            pairs += 1
    assert pairs > 300


def test_equal_machines_share_one_product():
    # Two separate builds are equal, not identical: the table answers
    # the second pair with the first pair's product machine.
    first = compose(drop_first(SP2), drop_first(SP2))
    again = compose(drop_first(SP2), drop_first(SP2))
    assert drop_first(SP2) is not drop_first(SP2)
    assert again is first
    # A directly built machine shares the entry of its normal form.
    steps = (((1, (1,)), (1, (1,))), ((0, (0,)), (0, (0,))))
    renumbered = Transducer(SP2, SP2, 1, steps)
    assert renumbered._normal is not renumbered
    assert compose(renumbered, first) is compose(renumbered._normal, first)


def test_product_table_is_bounded():
    rng = random.Random(1307)
    transducer._product.cache_clear()
    pairs = set()
    while len(pairs) <= 300:
        outer, inner = _random_machine(rng, k_out=1), _random_machine(rng, k_out=1)
        if outer.input_space != SP1 or outer._identity or inner._identity:
            continue
        compose(outer, inner)
        pairs.add((outer._normal, inner._normal))
    info = transducer._product.cache_info()
    assert info.misses >= len(pairs) > 256
    assert info.currsize <= 256


def test_range_refusal_is_raised_on_every_call(monkeypatch):
    # const_zero's range is one point: the surjectivity check refuses
    # with a point outside it, on every call.
    zero = const_zero(SP2, SP2)
    f = Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{1}")})
    messages = []
    for _ in range(3):
        with pytest.raises(UnsupportedError) as info:
            vaught_transform(f, zero, 6)
        messages.append(str(info.value))
    assert messages == ["the name map is not surjective: 1(0) is outside its range"] * 3
    # A check made once is kept: the second reads the first.
    assert transducer._outside_range(zero._normal) == pt("1(0)")
    assert transducer._outside_range(zero._normal) is transducer._outside_range(zero._normal)
    assert transducer._outside_range(identity_map(SP2)) is None
    # A budget refusal is not stored, so every call raises it again.
    transducer._outside_range.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(transducer, "_COVER_BUDGET", 1)
        for _ in range(2):
            with pytest.raises(UndecidedImageError, match="exceeded the configuration budget"):
                transducer._outside_range(zero._normal)
    assert transducer._outside_range(zero._normal) == pt("1(0)")


def test_compose_matches_reference():
    rng = random.Random(1303)
    machines = [Transducer(*t) for t in NON_NORMAL if _outcome(lambda: ref_check(*t)) is None]
    for k in (1, 2, 3):
        sp = Space(k)
        machines += map_palette(sp) + [const_zero(sp, sp), const_zero(sp, SP1)]
        for _ in range(4):
            v = random_clopen(rng, sp, 3)
            if not v.is_full:
                machines.append(out_map(v))
            if not v.is_empty:
                machines.append(in_map(v))
    while len(machines) < 90:
        sp_in, sp_out, n, init, delta = _raw_table(rng)
        m = _outcome(lambda: Transducer.build(sp_in, sp_out, init, delta))
        if isinstance(m, Transducer):
            machines.append(m)
    pairs = 0
    for outer in machines:
        for inner in machines:
            if inner.output_space != outer.input_space:
                continue
            got, want = compose(outer, inner), ref_compose(outer, inner)
            assert got == want
            assert ((got is outer), (got is inner)) == ((want is outer), (want is inner))
            pairs += 1
    assert pairs > 2000
def test_compose_with_identity_matches_product():
    rng = random.Random(88)
    machines = map_palette(SP2) + [drop_first(SP2), letter_double(SP2), parity_merge()]
    while len(machines) < 14:
        v = random_clopen(rng, SP2, 3)
        if not (v.is_empty or v.is_full):
            machines.append(out_map(v))
    ident = identity_map(SP2)
    for m in machines:
        assert compose(m, ident) == _product(m, ident)
        assert compose(ident, m) == _product(ident, m)
        # A normalised machine comes back as itself.
        assert compose(m, ident) is m
        assert compose(ident, m) is (ident if m == ident else m)
    assert compose(ident, ident) == _product(ident, ident) == ident


def test_compose_of_identities_does_no_renumbering(monkeypatch):
    idents = [identity_map(Space(k)) for k in (1, 2, 3)]
    calls = []
    numbered = transducer._numbered
    monkeypatch.setattr(transducer, "_numbered", lambda *a: calls.append(a) or numbered(*a))
    for ident in idents:
        assert compose(ident, ident) is ident
    assert calls == []


def test_compose_with_identity_normalises_the_other_side():
    # Two states, started in state 1: the product machine renumbers it.
    steps = (((0, (1,)), (0, (0,))), ((0, (0,)), (1, (1,))))
    t = Transducer(SP2, SP2, 1, steps)
    normal = Transducer.build(
        SP2, SP2, 1, {(s, a): step for s, row in enumerate(steps) for a, step in enumerate(row)}
    )
    ident = identity_map(SP2)
    for outer, inner in ((t, ident), (ident, t)):
        got = compose(outer, inner)
        assert got == _product(outer, inner) == normal
        assert got != t
        assert all(apply(got, x) == apply(t, x) for x in GRID)


# -- in_map ---------------------------------------------------------------------

def test_in_map_examples():
    f = in_map(cs("{0, 11}"))
    # first letter picks the cylinder, the rest is copied
    assert apply(f, pt("0(01)")) == pt("0(01)")
    assert apply(f, pt("1(01)")) == pt("11(01)")

    g = in_map(ClopenSet.full(SP2))
    assert g.input_space == SP1
    assert apply(g, pt("(0)", space=SP1)) == pt("(0)")

    h = in_map(cs("{10}"))
    assert h.input_space == SP1
    assert apply(h, pt("(0)", space=SP1)) == pt("10(0)")


def test_in_map_rejects_empty():
    with pytest.raises(EmptySetError):
        in_map(ClopenSet.empty(SP2))


def test_in_map_lands_in_v_and_is_injective():
    rng = random.Random(67)
    for _ in range(100):
        v = random_clopen(rng, SP2, 3)
        if v.is_empty:
            continue
        f = in_map(v)
        dom_grid = sample_grid(f.input_space, 3, 2)
        seen = {}
        for x in dom_grid:
            assert member(apply(f, x), v)
        if f.input_space.alphabet_size <= SP2.alphabet_size:
            # m <= k: verbatim copying, so the map is injective
            for x in dom_grid:
                y = apply(f, x)
                assert seen.setdefault(y, x) == x


def test_in_map_preimage_of_v_is_full():
    rng = random.Random(71)
    for _ in range(100):
        v = random_clopen(rng, SP2, 3)
        if v.is_empty:
            continue
        f = in_map(v)
        assert preimage(f, v).is_full


# -- out_map ----------------------------------------------------------------------

def test_out_map_fixes_complement():
    f = out_map(cs("{1}"))
    for text in ("(0)", "01(10)", "00(1)"):
        assert apply(f, pt(text)) == pt(text)


def test_out_map_examples():
    assert apply(out_map(cs("{1}")), pt("1(0)")) == pt("(0)")
    assert apply(out_map(cs("{01}")), pt("01(1)")) == pt("(0)")  # 00(0) folds


def test_out_map_of_empty_is_identity():
    assert out_map(ClopenSet.empty(SP2)) == identity_map(SP2)


def test_out_map_rejects_full():
    with pytest.raises(EmptySetError):
        out_map(ClopenSet.full(SP2))


def test_out_map_is_a_retraction():
    rng = random.Random(73)
    for _ in range(60):
        v = random_clopen(rng, SP2, 3)
        if v.is_full:
            continue
        f = out_map(v)
        for x in GRID:
            y = apply(f, x)
            assert not member(y, v)
            assert apply(f, y) == y


# -- preimage -----------------------------------------------------------------------

def test_preimage_identity():
    from vebflow.ordinal import CnfOrdinal

    a = cs("{0, 11}")
    assert preimage(identity_map(SP2), a) == a
    for k in (2, 3):
        sp = Space(k)
        # The same map as a two-state machine, which the product walk handles.
        echo = Transducer(sp, sp, 0, tuple(tuple((1 - s, (a,)) for a in range(k)) for s in (0, 1)))
        rng = random.Random(900 + k)
        for n in range(150):
            a = random_clopen(rng, sp, 4).with_level(CnfOrdinal.from_int(1 + n % 4))
            got = preimage(identity_map(sp), a)
            assert got == a and got.declared_level == a.declared_level
            ref = preimage(echo, a)
            assert ref == got and ref.declared_level == got.declared_level
        with pytest.raises(SpaceMismatchError):
            preimage(identity_map(sp), cs("{0}", space=SP1))


def test_identity_check_matches_machine_comparison():
    # encode_map names a machine "identity" exactly when it is == to
    # identity_map of the node's space.
    rng = random.Random(1201)
    spaces = [SP1, SP2, Space(3)]
    machines = []
    for sp in spaces:
        machines += map_palette(sp)
        machines += [const_zero(sp, sp), const_zero(sp, SP1), out_map(ClopenSet.empty(sp))]
        for _ in range(12):
            v = random_clopen(rng, sp, 3)
            if not v.is_full:
                machines.append(out_map(v))
            if not v.is_empty:
                machines.append(in_map(v))
    seen = set()
    for m in machines:
        for sp in spaces:
            old = m == identity_map(sp)
            seen.add(old)
            assert (encode_map(m, sp) == "identity") == old
            if m.input_space == sp:
                assert m._identity == old
    assert seen == {True, False}


def test_preimage_letter_double_examples():
    f = letter_double(SP2)
    assert preimage(f, cs("{00}")) == cs("{0}")
    assert preimage(f, cs("{01}")).is_empty


def test_preimage_keeps_level():
    from vebflow.ordinal import CnfOrdinal

    three = CnfOrdinal.from_int(3)
    a = cs("{00}").with_level(three)
    assert preimage(letter_double(SP2), a).declared_level == three


def test_preimage_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        preimage(in_map(cs("{10}")), cs("{0}", space=SP1))


def test_preimage_exactness_on_grid():
    rng = random.Random(79)
    machines = [identity_map(SP2), drop_first(SP2), letter_double(SP2),
                parity_merge(), out_map(cs("{01}")),
                compose(letter_double(SP2), drop_first(SP2))]
    for f in machines:
        for _ in range(40):
            a = random_clopen(rng, SP2, 4)
            pre = preimage(f, a)
            for x in GRID:
                assert member(x, pre) == member(apply(f, x), a)


def _oracle_preimage(f, a):
    # The input-tree search the trie product replaced: extend input words
    # until their output enters a cylinder of `a` or leaves all of them.
    words = set(a.antichain)
    prefixes = {w[:i] for w in words for i in range(len(w))}
    if not words:
        return ClopenSet.empty(f.input_space)
    if () in words:
        return ClopenSet.full(f.input_space)

    def advance(pos, emitted):
        for c in emitted:
            pos += (c,)
            if pos in words:
                return "accept"
            if pos not in prefixes:
                return "reject"
        return pos

    out = []
    stack = [(f.init, (), ())]
    while stack:
        state, w, pos = stack.pop()
        for letter in range(f.input_space.alphabet_size):
            nxt, emitted = f.step(state, letter)
            verdict = advance(pos, emitted)
            if verdict == "accept":
                out.append(w + (letter,))
            elif verdict != "reject":
                stack.append((nxt, w + (letter,), verdict))
    return ClopenSet(f.input_space, tuple(out))


def _random_machine(rng, k_out=2, max_states=4):
    # Silent steps only go to a higher state, so no cycle is silent.
    k_in, n = rng.randint(1, 3), rng.randint(1, max_states)
    delta = {}
    for s in range(n):
        for a in range(k_in):
            nxt = rng.randrange(n)
            size = rng.randint(0 if nxt > s else 1, 2)
            delta[(s, a)] = (nxt, tuple(rng.randrange(k_out) for _ in range(size)))
    return Transducer.build(Space(k_in), Space(k_out), 0, delta)


def test_preimage_matches_input_search():
    rng = random.Random(83)
    machines = [identity_map(SP2), drop_first(SP2), letter_double(SP2),
                parity_merge(), out_map(cs("{01}")), in_map(cs("{0, 10, 110}"))]
    machines += [_random_machine(rng) for _ in range(40)]
    for f in machines:
        for _ in range(20):
            a = random_clopen(rng, SP2, 4)
            assert preimage(f, a) == _oracle_preimage(f, a)


# -- image --------------------------------------------------------------------------

def test_image_identity():
    a = cs("{0, 11}")
    assert image(identity_map(SP2), a, 6) == a


def test_image_in_map_full_domain_is_v():
    # the antichain has k words here, so copying is verbatim and onto
    for text in ("{0, 11}", "{00, 1}", "{01, 1}"):
        v = cs(text)
        assert len(v.antichain) == 2
        f = in_map(v)
        assert image(f, ClopenSet.full(f.input_space), 8) == v


def test_image_in_map_refuses_when_domain_is_thin():
    # a one-word antichain gives a one-point domain: the image is a
    # single stream, not clopen
    f = in_map(cs("{10}"))
    with pytest.raises(UndecidedImageError):
        image(f, ClopenSet.full(f.input_space), 8)


def test_image_refuses_non_clopen():
    # constant-zero map: the image of anything nonempty is one point
    with pytest.raises(UndecidedImageError, match="undecided"):
        image(const_zero(SP2, SP2), cs("{1}"), 8)
    # letter doubling: images are the doubled streams, never clopen
    with pytest.raises(UndecidedImageError):
        image(letter_double(SP2), ClopenSet.full(SP2), 8)
    with pytest.raises(UndecidedImageError):
        image(letter_double(SP2), cs("{0}"), 8)


def test_image_empty_and_parity_merge():
    assert image(parity_merge(), ClopenSet.full(SP2), 6).is_full
    assert image(parity_merge(), cs("{1}"), 6).is_full
    assert image(parity_merge(), cs("{10}"), 6) == cs("{1}")
    assert image(drop_first(SP2), cs("{01}"), 6) == cs("{1}")
    assert image(identity_map(SP2), ClopenSet.empty(SP2), 6).is_empty


def test_image_soundness_on_samples():
    rng = random.Random(83)
    machines = [identity_map(SP2), drop_first(SP2), parity_merge(),
                out_map(cs("{01}")), out_map(cs("{1}")),
                compose(drop_first(SP2), drop_first(SP2))]
    for f in machines:
        for _ in range(12):
            a = random_clopen(rng, SP2, 3)
            try:
                img = image(f, a, 7)
            except UndecidedImageError:
                continue
            for x in GRID:
                if member(x, a):
                    assert member(apply(f, x), img)


def test_image_grid_completeness():
    """Every grid point of a decided image has a preimage among
    ultimately periodic points with prefix <= 6 and period <= 4: the
    documented name bound.  This palette keeps preimage names short
    (identity regions, one-letter prepends, pump targets); parity-merge
    is excluded because its preimages double name lengths past the
    bound, and it is covered by the exact-equality cases above."""
    rng = random.Random(89)
    machines = [identity_map(SP2), drop_first(SP2),
                out_map(cs("{01}")), out_map(cs("{1}")),
                compose(drop_first(SP2), drop_first(SP2))]
    wide = sample_grid(SP2, 6, 4)
    for f in machines:
        for _ in range(12):
            a = random_clopen(rng, SP2, 3)
            try:
                img = image(f, a, 7)
            except UndecidedImageError:
                continue
            hits = set()
            for x in wide:
                if member(x, a):
                    hits.add(apply(f, x))
            for y in GRID:
                if member(y, img):
                    assert y in hits, (f, a, y)


# The image as a breadth-first read of output cylinders, each decided by
# a reachability search (does the image meet it?) and a subset
# construction (does it cover it?): the reference `image` is compared
# against.  ('E', s, u) denotes u . Range(s); ('M', s, r) the tails z
# with r.z in Range(s).

def ref_match_reach(f, state, u):
    if not u:
        return True
    k_in = f.input_space.alphabet_size
    seen = {(state, 0)}
    queue = deque([(state, 0)])
    while queue:
        s, pos = queue.popleft()
        for a in range(k_in):
            s2, w = f.steps[s][a]
            t = min(len(w), len(u) - pos)
            if tuple(w[:t]) != u[pos : pos + t]:
                continue
            pos2 = pos + len(w)
            if pos2 >= len(u):
                return True
            if (s2, pos2) not in seen:
                seen.add((s2, pos2))
                queue.append((s2, pos2))
    return False


def ref_normalize_configs(f, configs):
    k_in = f.input_space.alphabet_size
    out = set()
    seen = set()
    stack = list(configs)
    while stack:
        cfg = stack.pop()
        if cfg in seen:
            continue
        seen.add(cfg)
        tag, s, w = cfg
        if tag == "E" and w:
            out.add((s, w))
            continue
        if tag == "E":
            for a in range(k_in):
                s2, e = f.steps[s][a]
                stack.append(("E", s2, e))
        else:
            r = w
            for a in range(k_in):
                s2, e = f.steps[s][a]
                t = min(len(e), len(r))
                if e[:t] != r[:t]:
                    continue
                if len(e) >= len(r):
                    stack.append(("E", s2, e[len(r):]))
                else:
                    stack.append(("M", s2, r[len(e):]))
    return frozenset(out)


def ref_covers(f, starts, v):
    initial = []
    for s, o in starts:
        t = min(len(o), len(v))
        if o[:t] != v[:t]:
            continue
        if len(o) >= len(v):
            initial.append(("E", s, o[len(v):]))
        else:
            initial.append(("M", s, v[len(o):]))
    k_out = f.output_space.alphabet_size
    start = ref_normalize_configs(f, initial)
    if not start:
        return False
    seen = {start}
    queue = deque([start])
    while queue:
        configs = queue.popleft()
        for c in range(k_out):
            nxt = ref_normalize_configs(f, [("E", s, u[1:]) for s, u in configs if u[0] == c])
            if not nxt:
                return False
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if len(seen) > 20000:
                    raise UndecidedImageError("image coverage exceeded the configuration budget")
    return True


def ref_intersects(f, starts, v):
    for s, o in starts:
        t = min(len(o), len(v))
        if o[:t] != v[:t]:
            continue
        if len(o) >= len(v) or ref_match_reach(f, s, v[len(o):]):
            return True
    return False


def ref_image(f, a, depth_bound):
    if a.space != f.input_space:
        raise SpaceMismatchError("set in %r, map reads %r" % (a.space, f.input_space))
    if a.is_empty:
        return ClopenSet.empty(f.output_space, a.declared_level)
    starts = [f.run_word(f.init, w) for w in a.antichain]
    result = []
    queue = deque([()])
    k_out = f.output_space.alphabet_size
    while queue:
        v = queue.popleft()
        if not ref_intersects(f, starts, v):
            continue
        if ref_covers(f, starts, v):
            result.append(v)
            continue
        if len(v) >= depth_bound:
            raise UndecidedImageError(
                "image undecided at depth %d (possibly not clopen)" % depth_bound
            )
        for c in range(k_out):
            queue.append(v + (c,))
    return ClopenSet(f.output_space, tuple(result), a.declared_level)


def _image_outcome(image_fn, f, a, depth_bound):
    try:
        got = image_fn(f, a, depth_bound)
    except UndecidedImageError as e:
        return type(e), str(e)
    return got, got.declared_level


@pytest.mark.parametrize("k", [1, 2, 3])
def test_image_matches_reference(k):
    rng = random.Random(1000 + k)
    space = Space(k)
    maps = map_palette(space) + [const_zero(space, space)]
    for _ in range(4):
        v = random_clopen(rng, space, 3)
        for build in (in_map, out_map):
            if not (v.is_empty if build is in_map else v.is_full):
                maps.append(build(v))
    maps += [_random_machine(rng, k, 3) for _ in range(10)]
    kinds = set()
    for f in maps:
        for _ in range(6):
            a = random_clopen(rng, f.input_space, 3)
            if rng.random() < 0.3:
                a = a.with_level(omega_pow(ONE))
            for depth_bound in (0, 1, 2, 3, 6, 8):
                got = _image_outcome(image, f, a, depth_bound)
                assert got == _image_outcome(ref_image, f, a, depth_bound), (f, a, depth_bound)
                kinds.add(got[0] is UndecidedImageError)
    if k > 1:
        assert kinds == {True, False}  # refusals and answers both occur


def test_image_configuration_budget(monkeypatch):
    # One image call may explore at most _COVER_BUDGET configuration
    # sets.  This image needs three (its root, the empty set and the
    # covering set below letter 1); the reference, which budgets each
    # cylinder's coverage search apart, needs one per search.
    monkeypatch.setattr(transducer, "_COVER_BUDGET", 1)
    with pytest.raises(UndecidedImageError, match="exceeded the configuration budget"):
        image(drop_first(SP2), cs("{01}"), 6)
    assert ref_image(drop_first(SP2), cs("{01}"), 6) == cs("{1}")


# The layered `image` that the one-walk `image` replaced: a forward walk
# indexing each configuration set's children and parents, a reverse walk
# from the empty set for the mixed sets, a loop over the layers of mixed
# sets at each depth, and a bottom-up build over those layers.  Kept as
# the differential reference for the walk.

def ref_layered_image(f, a, depth_bound):
    if a.space is not f.input_space and a.space != f.input_space:
        raise SpaceMismatchError("set in %r, map reads %r" % (a.space, f.input_space))
    settle = transducer._settle
    k_out = f.output_space.alphabet_size
    root = settle(f, [f.run_word(f.init, w) for w in a.antichain])
    kids = {}
    parents = {}
    stack = [root]
    while stack:
        configs = stack.pop()
        if configs in kids:
            continue
        kids[configs] = row = [
            settle(f, [(s, u[1:]) for s, u in configs if u[0] == c]) for c in range(k_out)
        ]
        if len(kids) > transducer._COVER_BUDGET:
            raise UndecidedImageError("image coverage exceeded the configuration budget")
        for kid in row:
            parents.setdefault(kid, []).append(configs)
            stack.append(kid)
    reach = {frozenset()}
    stack = [frozenset()]
    while stack:
        for p in parents.get(stack.pop(), ()):
            if p not in reach:
                reach.add(p)
                stack.append(p)
    mixed = reach - {frozenset()}
    layers = []
    layer = mixed & {root}
    while layer and len(layers) < depth_bound and layer not in layers:
        layers.append(layer)
        layer = mixed & {kid for configs in layer for kid in kids[configs]}
    if layer:
        raise UndecidedImageError(
            "image undecided at depth %d (possibly not clopen)" % depth_bound
        )
    trie = {configs: configs not in reach for configs in kids}
    for layer in reversed(layers):
        for configs in layer:
            trie[configs] = _node([trie[kid] for kid in kids[configs]])
    return ClopenSet._of(f.output_space, trie[root], a.declared_level)


def _image_sample():
    """1500 machines, each with a clopen set of depth at most 4."""
    rng = random.Random(11)
    pairs = []
    for _ in range(1500):
        f = _random_machine(rng)
        pairs.append((f, random_clopen(rng, f.input_space, 4)))
    return pairs


def test_image_walk_matches_layered_image(monkeypatch):
    pairs = _image_sample()
    refused = 0
    for f, a in pairs:
        for depth_bound in (0, 1, 2, 3, 6, 8, 40):
            got = _image_outcome(image, f, a, depth_bound)
            assert got == _image_outcome(ref_layered_image, f, a, depth_bound), (f, a, depth_bound)
        refused += got[0] is UndecidedImageError
    # At bound 40 the 966 refusals are exactly the images that are not
    # clopen; the other 534 are returned.
    assert refused == 966
    for budget in range(1, 11):
        monkeypatch.setattr(transducer, "_COVER_BUDGET", budget)
        for f, a in pairs:
            for depth_bound in (0, 6, 40):
                got = _image_outcome(image, f, a, depth_bound)
                assert got == _image_outcome(ref_layered_image, f, a, depth_bound), (f, a, depth_bound, budget)


def test_image_walk_pinned_cases(monkeypatch):
    # A mixed cycle reached through a set still open on the walk's
    # stack: letter doubling's root is counted covering below itself,
    # comes out mixed, and so the height is infinite.
    double = letter_double(SP2)
    _, height = transducer._walk(double, transducer._settle(double, [(0, ())]))
    assert height == float("inf")
    for depth_bound in (0, 6, 40):
        got = _image_outcome(image, double, ClopenSet.full(SP2), depth_bound)
        assert got == _image_outcome(ref_layered_image, double, ClopenSet.full(SP2), depth_bound)
        assert got == (UndecidedImageError, "image undecided at depth %d (possibly not clopen)" % depth_bound)
    # A clopen image seven letters deep: refused at bound 6, returned at 7.
    ident, deep = identity_map(SP2), cs("{0000000}")
    for depth_bound in (6, 7):
        assert _image_outcome(image, ident, deep, depth_bound) == _image_outcome(ref_layered_image, ident, deep, depth_bound)
    with pytest.raises(UndecidedImageError, match="undecided at depth 6"):
        image(ident, deep, 6)
    assert image(ident, deep, 7) == deep
    # The empty set: its image is empty at any bound, and the walk
    # reaches one configuration set, the empty one.
    monkeypatch.setattr(transducer, "_COVER_BUDGET", 1)
    for f in (ident, double, parity_merge()):
        got = image(f, ClopenSet.empty(SP2), 0)
        assert got.is_empty and got == ref_layered_image(f, ClopenSet.empty(SP2), 0)


def test_outside_range_names_a_point_the_range_misses():
    # A non-onto map's witness lies outside the range: some prefix of it
    # names a cylinder the range misses.  The witness follows the walk's
    # leftmost path to an empty leaf, which is not always short: on these
    # machines it needs up to 27 letters.  An onto map's range covers
    # the whole output space.
    rng = random.Random(1511)
    machines = [identity_map(SP2), drop_first(SP2), letter_double(SP2), parity_merge(),
                const_zero(SP2, SP2), const_zero(SP2, SP1), in_map(cs("{10}")),
                in_map(cs("{0, 11}")), out_map(cs("{01}"))]
    machines += [_random_machine(rng) for _ in range(300)]
    onto = set()
    for f in machines:
        missed = transducer._outside_range(f._normal)
        starts = [(f.init, ())]
        if missed is None:
            assert ref_covers(f, starts, ()), f
        else:
            word = tuple(missed.letter(i) for i in range(64))
            assert any(not ref_intersects(f, starts, word[:n]) for n in range(65)), (f, missed)
        onto.add(missed is None)
    assert onto == {True, False}


def zero_pump():
    """0x -> 0^w and 1x -> x: onto, but not open, as the image of [0] is
    the one point 0^w."""
    return Transducer.build(SP2, SP2, 0, {
        (0, 0): (1, (0,)), (0, 1): (2, ()),
        (1, 0): (1, (0,)), (1, 1): (1, (0,)),
        (2, 0): (2, (0,)), (2, 1): (2, (1,)),
    })


def ref_not_open(f):
    """The shortlex-least input word whose cylinder's image is not clopen
    (refused by the layered image at bound 40), or None."""
    words = {f.init: ()}
    order = [f.init]
    for s in order:
        w = words[s]
        got = _image_outcome(ref_layered_image, f, ClopenSet(f.input_space, [w]), 40)
        if got[0] is UndecidedImageError:
            return w
        for a in range(f.input_space.alphabet_size):
            nxt = f.step(s, a)[0]
            if nxt not in words:
                words[nxt] = w + (a,)
                order.append(nxt)
    return None


def test_is_open_names_the_least_cylinder_whose_image_is_not_open(monkeypatch):
    maps = [
        (identity_map(SP2), (True, None)),
        (drop_first(SP2), (True, None)),
        (parity_merge(), (True, None)),
        (letter_double(SP2), (False, ())),
        (const_zero(SP2, SP2), (False, ())),
        (zero_pump(), (False, (0,))),
    ]
    for f, want in maps:
        assert transducer.is_open(f._normal) == want
    # On random machines the verdict and the word are the reference's.
    rng = random.Random(1601)
    verdicts = set()
    for _ in range(150):
        f = _random_machine(rng)
        opened, word = transducer.is_open(f._normal)
        assert word == ref_not_open(f), f
        verdicts.add(opened)
    assert verdicts == {True, False}
    # A verdict is kept per normal form; a budget refusal is not stored.
    pump = zero_pump()
    assert transducer.is_open(pump._normal) is transducer.is_open(pump._normal)
    transducer.is_open.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(transducer, "_COVER_BUDGET", 1)
        for _ in range(2):
            with pytest.raises(UndecidedImageError, match="exceeded the configuration budget"):
                transducer.is_open(pump._normal)
    assert transducer.is_open(pump._normal) == (False, (0,))


def test_vaught_refuses_a_map_that_is_not_open():
    # zero_pump is onto, so only the openness check refuses it.  Before
    # that check the transform returned a chart giving b at
    # zero_pump(0(0)) = (0), where the source gives a.
    f = Flowchart(parse_term('q"a" ~> q"b"'), SP2, {(): cs("{1}")})
    pump = zero_pump()
    assert transducer._outside_range(pump._normal) is None
    with pytest.raises(UnsupportedError) as info:
        vaught_transform(f, pump, 6)
    assert str(info.value) == "the name map is not open: the image of [0] is not open"


# -- codec ---------------------------------------------------------------------------

def test_transducer_document_shape():
    doc = encode_transducer(drop_first(SP2))
    assert doc == {
        "states": 2,
        "init": 0,
        "in_space": 2,
        "out_space": 2,
        "trans": [
            {"from": 0, "in": 0, "to": 1, "out": "e"},
            {"from": 0, "in": 1, "to": 1, "out": "e"},
            {"from": 1, "in": 0, "to": 1, "out": "0"},
            {"from": 1, "in": 1, "to": 1, "out": "1"},
        ],
    }


def test_transducer_codec_round_trip_byte_stable():
    machines = [identity_map(SP2), drop_first(SP2), letter_double(SP2),
                parity_merge(), const_zero(SP2, SP2),
                in_map(cs("{0, 11}")), out_map(cs("{01}")),
                compose(parity_merge(), letter_double(SP2))]
    for f in machines:
        doc = encode_transducer(f)
        text = json.dumps(doc, sort_keys=True)
        g = decode_transducer(json.loads(text))
        assert g == f
        assert json.dumps(encode_transducer(g), sort_keys=True) == text


def test_decode_transducer_rejects_malformed():
    good = encode_transducer(drop_first(SP2))
    bad_cases = []
    b = json.loads(json.dumps(good)); b["init"] = 5; bad_cases.append(b)
    b = json.loads(json.dumps(good)); b["trans"] = b["trans"][:-1]; bad_cases.append(b)
    b = json.loads(json.dumps(good)); b["trans"].append(b["trans"][0]); bad_cases.append(b)
    b = json.loads(json.dumps(good)); b["trans"][0]["in"] = 9; bad_cases.append(b)
    b = json.loads(json.dumps(good)); b["trans"][0]["out"] = "2"; bad_cases.append(b)
    b = json.loads(json.dumps(good)); del b["states"]; bad_cases.append(b)
    b = json.loads(json.dumps(good)); b["trans"][0]["extra"] = 1; bad_cases.append(b)
    bad_cases.append("nope")
    bad_cases.append({"states": 1, "init": 0, "in_space": 2, "out_space": 2,
                      "trans": [{"from": 0, "in": 0, "to": 0, "out": "e"},
                                {"from": 0, "in": 1, "to": 0, "out": "e"}]})
    for b in bad_cases:
        with pytest.raises(DocumentError):
            decode_transducer(b)


@pytest.mark.parametrize("blank", ["", " "])
def test_blank_output_word_is_a_document_error(blank):
    doc = encode_transducer(drop_first(SP2))
    doc["trans"][2]["out"] = blank
    with pytest.raises(DocumentError, match="^transition for state 1 letter 0: "):
        decode_transducer(doc)


def test_map_references():
    assert encode_map(identity_map(SP2), SP2) == "identity"
    assert decode_map("identity", SP2) == identity_map(SP2)
    assert decode_map("drop-first", SP2) == drop_first(SP2)
    assert decode_map("double", SP2) == letter_double(SP2)
    assert decode_map("parity-merge", SP2) == parity_merge()
    assert decode_map({"in": "{0, 11}"}, SP2) == in_map(cs("{0, 11}"))
    assert decode_map({"out": "{01}"}, SP2) == out_map(cs("{01}"))
    inline = encode_map(drop_first(SP2), SP2)
    assert isinstance(inline, dict)
    assert decode_map(inline, SP2) == drop_first(SP2)
    with pytest.raises(DocumentError):
        decode_map("transpose", SP2)
    with pytest.raises(DocumentError):
        decode_map("parity-merge", Space(3))
    with pytest.raises(DocumentError):
        decode_map(17, SP2)


@pytest.mark.parametrize(
    "ref", [{"in": 5}, {"out": ["x"]}, {"in": "{5}"}, {"in": "{}"}, {"out": "{e}"}, {"in": "{"}]
)
def test_bad_in_out_references_are_document_errors(ref):
    with pytest.raises(DocumentError, match="reference"):
        decode_map(ref, SP2)


# -- refusals no other test reaches ------------------------------------------

COPY_ROW = ((0, (0,)), (0, (1,)))


def _one_state_doc(**changes):
    doc = encode_transducer(identity_map(SP2))
    doc.update(changes)
    return doc


def _with_transition(**changes):
    doc = _one_state_doc()
    doc["trans"][0].update(changes)
    return doc


@pytest.mark.parametrize("build, error, message", [
    pytest.param(
        lambda: Transducer(SP2, SP2, 1, (COPY_ROW,)),
        ValueError, "initial state out of range", id="init",
    ),
    pytest.param(
        lambda: Transducer(SP2, SP2, 0, (COPY_ROW[:1],)),
        ValueError, "every state must handle every input letter", id="row-width",
    ),
    pytest.param(
        lambda: Transducer(SP2, SP2, 0, (((1, (0,)), (0, (1,))),)),
        ValueError, "transition target out of range", id="target",
    ),
    pytest.param(
        lambda: image(identity_map(SP2), ClopenSet.full(Space(3)), 4),
        SpaceMismatchError, "set in Space(3), map reads Space(2)", id="image-space",
    ),
    pytest.param(
        lambda: decode_transducer(_one_state_doc(states=0)),
        DocumentError, "a transducer needs at least one state", id="no-states",
    ),
    pytest.param(
        lambda: decode_transducer(_one_state_doc(trans={})),
        DocumentError, "trans must be a list of transitions", id="doc-trans",
    ),
    pytest.param(
        lambda: decode_transducer(_with_transition(to=1)),
        DocumentError, "transition {'from': 0, 'in': 0, 'to': 1, 'out': '0'} targets an unknown state",
        id="doc-target",
    ),
    pytest.param(
        lambda: decode_transducer(_with_transition(out=0)),
        DocumentError, "output words are written as word literals", id="doc-word",
    ),
])
def test_refusal_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
