"""Differential tests: the chart deciders, the domain compile, the
shrink-to-domain transform, the padding construction and the
retraction onto a complement against set-algebra references.

The references are the earlier forms of the code: domains built by
ClopenSet difference and intersection, reach sets as ClopenSet unions,
the deciders as Boolean operations on those sets, a padding
construction that checks every join's hole before it pads any join,
the one-loop padding construction and the shrink-to-domain transform
by ClopenSet intersection, and out_map built from V's antichain and
its prefixes; the set kernel and the preimage walk as they were
before each became one pass over a stack of frames; and the document
decoder that checked a node table's rules, then built its term from a
table of built subterms, and parsed every label and set entry afresh;
the Vaught transform that pushed every assigned set forward on its own,
and the sample grid that canonicalized every prefix and period pair
and dropped the repeats; and the facts a term, a syntax tree, a map
and a command keep, against the walks that found them afresh on every
call: the label scans of is_closed and has_veblen, the probing child
list, the identity test by comparison with identity_map, and each
site's edge maps rebuilt from the site.
"""

import json
import random

import pytest

from test_transducer import _random_machine, ref_covers

from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import transducer
from vebflow.command import ArrowSite, Command, JoinSite
from vebflow.errors import (
    DocumentError,
    InvalidAddressError,
    NonNormalTermError,
    NotMonotoneError,
    OpenTermError,
    ParseError,
    SpaceMismatchError,
    UndecidedImageError,
    UnsupportedError,
)
from vebflow.flowchart import Flowchart
from vebflow.generate import (
    map_palette,
    random_clopen,
    random_command,
    random_flowchart,
    random_normal_term,
    random_term,
    random_total_det_flowchart,
)
from vebflow.ordinal import ONE, CnfOrdinal, add, cmp, parse_ordinal, render_ordinal
from vebflow.space import (
    ClopenSet,
    Space,
    _combine,
    _leftmost,
    _level,
    _lockstep,
    _node,
    _shape,
    _tree,
    _Bits,
    UpPoint,
    least_point,
    parse_clopen,
    render_point,
    sample_grid,
)
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
    decode_tree,
    encode_tree,
    has_veblen,
    is_closed,
    is_normal,
    parse_term,
    render_term,
    syntax_tree,
    term_from_tree,
)
from vebflow.transducer import (
    Transducer,
    compose,
    const_zero,
    drop_first,
    encode_transducer,
    identity_map,
    image,
    in_map,
    letter_double,
    out_map,
    parity_merge,
    preimage,
)

SPACES = (Space(2), Space(3))
LEVELS = (ONE, CnfOrdinal.from_int(2), parse_ordinal("w"), parse_ordinal("w*2 + 1"))


# -- references ----------------------------------------------------------------


def ref_domains(f, known=None):
    """The domain assignment, top down; with `known` (the domains of the
    chart f was shrunk from) the tries are taken from there and only the
    levels are computed."""
    tree = f.tree
    domains = {(): ClopenSet.full(f.space)}
    for addr in tree.addresses():
        if not addr:
            continue
        parent, i = addr[:-1], addr[-1]
        label = tree.label(parent)
        d = domains[parent]
        if isinstance(label, ArrowL):
            s, negate = f.at(parent), i == 0
        elif isinstance(label, JoinL):
            s, negate = f.at(parent)[i], False
        else:
            domains[addr] = d
            continue
        if known is not None:
            domains[addr] = ClopenSet._of(f.space, known[addr].trie, _level(d, s, negate))
        elif negate:
            domains[addr] = d.difference(s)
        else:
            domains[addr] = d.intersect(s)
    return domains


def ref_is_monotone(f):
    domains = ref_domains(f)
    return all(
        s.is_subset(domains[addr])
        for addr, sets in f.assign
        for s in (sets if isinstance(sets, tuple) else (sets,))
    )


def ref_reach(f):
    tree = f.tree
    reach = {}
    for addr, d in ref_domains(f).items():
        label = tree.label(addr)
        if isinstance(label, Const):
            q = label.label
            reach[q] = reach[q].union(d) if q in reach else d
    return reach


def ref_is_total(f):
    reached = ClopenSet.empty(f.space)
    for d in ref_reach(f).values():
        reached = reached.union(d)
    if reached.is_full:
        return True, None
    return False, _leftmost(f.space, reached.trie, False)


def ref_is_deterministic(f):
    seen = clash = ClopenSet.empty(f.space)
    for d in ref_reach(f).values():
        clash = clash.union(seen.intersect(d))
        seen = seen.union(d)
    if clash.is_empty:
        return True, None
    return False, least_point(clash)


def ref_equivalent(f, g):
    if f.space != g.space:
        return False
    fr, gr = ref_reach(f), ref_reach(g)
    empty = ClopenSet.empty(f.space)
    return all(fr.get(q, empty) == gr.get(q, empty) for q in fr.keys() | gr.keys())


def ref_make_strongly_total(c):
    """Refuse a term with Veblen nodes, a command that is not simple or
    not total, and then any join with a hole; pad in a second loop."""
    if has_veblen(c.term):
        raise UnsupportedError("the padding construction needs a veblen-free term")
    if not cm.is_simple(c):
        raise UnsupportedError("the padding construction needs a simple command")
    f = cm.command_to_flowchart(c)
    total, witness = ref_is_total(f)
    if not total:
        raise UnsupportedError("the command is not total (no true path at %s)" % witness)
    domains = ref_domains(f)
    for addr, sets in f.assign:
        if not isinstance(sets, tuple):
            continue
        hole = domains[addr]
        for s in sets:
            hole = hole.difference(s)
        if not hole.is_empty:
            raise UnsupportedError(
                "the join family at %s misses part of its domain (least point %s)"
                % (fl.render_address(addr) or "e", render_point(least_point(hole)))
            )
    ident = identity_map(c.space)
    assign = {}
    for addr, site in c.assign:
        d = domains[addr]
        if isinstance(site, ArrowSite):
            assign[addr] = ArrowSite(d.intersect(site.test).with_level(ONE), ident)
        else:
            members = []
            for n, (test, _) in enumerate(site.members):
                shrunk = d.intersect(test)
                if n == 0:
                    shrunk = shrunk.union(d.complement())
                members.append((shrunk.with_level(ONE), ident))
            assign[addr] = JoinSite(tuple(members))
    return Command(c.term, c.space, assign)


def ref_make_strongly_total_one_loop(c):
    """Refuse as above, then check each join's hole as the join is
    padded, with every set shrunk by ClopenSet intersection."""
    if has_veblen(c.term):
        raise UnsupportedError("the padding construction needs a veblen-free term")
    if not cm.is_simple(c):
        raise UnsupportedError("the padding construction needs a simple command")
    f = cm.command_to_flowchart(c)
    total, witness = fl.is_total(f)
    if not total:
        raise UnsupportedError("the command is not total (no true path at %s)" % witness)
    domains = fl.domain_assignment(f)
    ident = identity_map(c.space)
    assign = {}
    for addr, site in c.assign:
        d = domains[addr]
        if isinstance(site, ArrowSite):
            assign[addr] = ArrowSite(d.intersect(site.test).with_level(ONE), ident)
            continue
        hole, members = d, []
        for test, _ in site.members:
            hole = hole.difference(test)
            members.append(d.intersect(test))
        if not hole.is_empty:
            raise UnsupportedError(
                "the join family at %s misses part of its domain (least point %s)"
                % (fl.render_address(addr) or "e", render_point(least_point(hole)))
            )
        members[0] = members[0].union(d.complement())
        assign[addr] = JoinSite(tuple((s.with_level(ONE), ident) for s in members))
    return Command(c.term, c.space, assign)


def ref_to_monotone(f):
    """Every set met with its node's domain by ClopenSet intersection."""
    if not is_normal(f.term):
        raise NonNormalTermError("the shrink-to-domain transform needs a normal term")
    domains = ref_domains(f)
    return f.replace_sets(lambda addr, s: domains[addr].intersect(s))


def ref_vaught_transform(f, delta, depth_bound):
    """One image per assigned set, each computed afresh.  Surjectivity is
    decided by the reference coverage search; the point named outside
    the range is the library's, checked against the reference in
    test_transducer.py."""
    if delta.input_space != f.space:
        raise SpaceMismatchError(
            "map reads %r, flowchart lives in %r" % (delta.input_space, f.space)
        )
    if not ref_is_monotone(f):
        raise NotMonotoneError("the Vaught transform needs a monotone flowchart")
    if not ref_covers(delta, [(delta.init, ())], ()):
        missed = transducer._outside_range(delta._normal)
        raise UnsupportedError("the name map is not surjective: %s is outside its range" % render_point(missed))
    new = fl._map_sets(f, lambda addr, s: image(delta, s, depth_bound))
    return Flowchart(f.term, delta.output_space, new)


def ref_sample_grid(space, max_prefix, max_period):
    """Every prefix with every period, canonicalized and deduplicated."""
    k = space.alphabet_size
    prefixes = [()]
    frontier = [()]
    for _ in range(max_prefix):
        frontier = [w + (a,) for w in frontier for a in range(k)]
        prefixes.extend(frontier)
    periods = []
    frontier = [()]
    for _ in range(max_period):
        frontier = [w + (a,) for w in frontier for a in range(k)]
        periods.extend(frontier)
    seen = set()
    out = []
    for p in prefixes:
        for w in periods:
            x = UpPoint(space, p, w)
            key = (x.prefix, x.period)
            if key not in seen:
                seen.add(key)
                out.append(x)
    out.sort(key=lambda x: (x.prefix, x.period))
    return out


def ref_out_map(v):
    """Walk the proper prefixes of V's antichain words in order; the
    pump states are collected from the table afterwards."""
    space = v.space
    if v.is_empty:
        return identity_map(space)
    comp = v.complement()
    k = space.alphabet_size
    words = set(v.antichain)
    prefixes = {w[:i] for w in words for i in range(len(w))}
    delta = {}
    for p in sorted(prefixes):
        for a in range(k):
            w = p + (a,)
            if w in words:
                target = least_point(comp.intersect(ClopenSet(space, (p,))))
                delta[(("t",) + p, a)] = (("pump", target.period), target.prefix + target.period)
            elif w in prefixes:
                delta[(("t",) + p, a)] = (("t",) + w, ())
            else:
                delta[(("t",) + p, a)] = ("copy", w)
    for a in range(k):
        delta[("copy", a)] = ("copy", (a,))
    pumps = {nxt for nxt, _ in delta.values() if isinstance(nxt, tuple) and nxt and nxt[0] == "pump"}
    for pump in pumps:
        for a in range(k):
            delta[(pump, a)] = (pump, pump[1])
    return Transducer.build(space, space, ("t",), delta)


def ref_combine(x, y, absorb, negate=False):
    """The set kernel as two visits per pair: expand each pair into a
    row of leaves, subtries and the indices of pairs still to build,
    then reduce the rows in post-order."""
    unit = not absorb
    decides, keeps = (unit, absorb) if negate else (absorb, unit)
    if x is absorb or y is decides:
        return absorb
    if y is keeps:
        return x
    if x is y:
        return absorb if negate else x
    if x is unit and not negate:
        return y
    units = (unit,) * len(y)
    passes = None if negate else unit
    index = {(id(x), id(y)): 0}
    rows = [None]
    stack = [(x, y, 0)]
    while stack:
        top = stack.pop()
        if top.__class__ is int:
            i = top
            row = [rows[c] if c.__class__ is int else c for c in rows[i]]
        else:
            p, q, i = top
            if rows[i] is not None:
                continue
            row = []
            stack.append(i)
            pending = False
            for c, d in zip(units if p is unit else p, q):
                if c is absorb or d is decides:
                    row.append(absorb)
                elif d is keeps:
                    row.append(c)
                elif c is passes:
                    row.append(d)
                elif c is d:
                    row.append(absorb if negate else d)
                else:
                    key = (id(c), id(d))
                    j = index.get(key)
                    if j is None:
                        j = index[key] = len(rows)
                        rows.append(None)
                    elif rows[j] is not None:
                        row.append(rows[j])
                        continue
                    stack.append((c, d, j))
                    row.append(j)
                    pending = True
            if pending:
                rows[i] = row
                continue
            stack.pop()
        rows[i] = _node(row)
    return rows[0]


def ref_preimage(f, a):
    """The preimage walk that revisits a pair once its children are
    built, making every letter's step and descent again."""
    if f._identity:
        return a
    memo = {}
    stack = [(f.init, a.trie)] if a.trie.__class__ is tuple else []
    while stack:
        state, node = stack[-1]
        key = (state, id(node))
        if key in memo:
            stack.pop()
            continue
        kids = []
        ready = True
        for letter in range(f.input_space.alphabet_size):
            nxt, out = f.step(state, letter)
            sub = node
            for c in out:
                sub = sub[c]
                if sub.__class__ is bool:
                    break
            if sub.__class__ is tuple:
                pair = (nxt, sub)
                sub = memo.get((nxt, id(sub)))
                if sub is None:
                    stack.append(pair)
                    ready = False
            kids.append(sub)
        if ready:
            stack.pop()
            memo[key] = _node(kids)
    trie = memo[(f.init, id(a.trie))] if memo else a.trie
    return ClopenSet._of(f.input_space, trie, a.declared_level)


def ref_is_closed(t):
    return not any(isinstance(label, Var) for label in syntax_tree(t).nodes.values())


def ref_has_veblen(t):
    return any(isinstance(label, VeblenL) for label in syntax_tree(t).nodes.values())


def ref_children(tree, addr):
    """Probe child indices 0, 1, ... until one is missing."""
    out = []
    n = 0
    while addr + (n,) in tree.nodes:
        out.append(addr + (n,))
        n += 1
    return out


def ref_is_identity(f):
    ident = identity_map(f.input_space)
    return f is ident or f == ident


def ref_read_nodes(doc):
    """The node table of a tree document, one fresh label per node."""
    if not isinstance(doc, dict) or "nodes" not in doc or not isinstance(doc["nodes"], list):
        raise DocumentError("a tree document is {'nodes': [...]}")
    nodes = {}
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or "addr" not in entry or "kind" not in entry:
            raise DocumentError("each node needs 'addr' and 'kind'")
        raw_addr = entry["addr"]
        if not isinstance(raw_addr, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in raw_addr
        ):
            raise DocumentError("addresses are lists of naturals, got %r" % (raw_addr,))
        addr = tuple(raw_addr)
        if addr in nodes:
            raise DocumentError("duplicate address %r" % (addr,))
        kind = entry["kind"]
        if kind not in ("const", "var", "arrow", "join", "veblen"):
            raise DocumentError("unknown kind %r" % (kind,))
        payload = entry.get("payload")
        if kind == "const":
            if not isinstance(payload, str):
                raise DocumentError("const payload must be a string")
            nodes[addr] = Const(payload)
        elif kind == "var":
            if not isinstance(payload, str):
                raise DocumentError("var payload must be a string")
            nodes[addr] = Var(payload)
        elif kind == "arrow":
            nodes[addr] = ArrowL()
        elif kind == "join":
            nodes[addr] = JoinL()
        else:
            if not isinstance(payload, str):
                raise DocumentError("veblen payload must be an ordinal string")
            try:
                nodes[addr] = VeblenL(parse_ordinal(payload))
            except ParseError as e:
                raise DocumentError("bad veblen index: %s" % e) from None
    return SyntaxTree(nodes)


def ref_term_from_tree(st):
    """Check every node rule over the whole table, then build the term
    deepest addresses first, each subterm kept in a table until its
    parent takes it."""
    nodes = st.nodes
    if () not in nodes:
        raise DocumentError("missing root node")
    arity = dict.fromkeys(nodes, 0)
    for addr in nodes:
        if addr:
            if addr[:-1] not in nodes:
                raise DocumentError("addresses are not prefix closed at %r" % (addr,))
            arity[addr[:-1]] += 1
    gapped = {a[:-1] for a in nodes if a and a[-1] > 0 and a[:-1] + (a[-1] - 1,) not in nodes}
    for addr, label in nodes.items():
        n = arity[addr]
        if addr in gapped:
            raise DocumentError("child indices of %r have gaps" % (addr,))
        if isinstance(label, (Const, Var)) and n:
            raise DocumentError("arity mismatch: leaf %r has children" % (addr,))
        if isinstance(label, ArrowL) and n != 2:
            raise DocumentError("arity mismatch: arrow %r has %d children" % (addr, n))
        if isinstance(label, JoinL) and not n:
            raise DocumentError("arity mismatch: join %r has no children" % (addr,))
        if isinstance(label, VeblenL) and n != 1:
            raise DocumentError("arity mismatch: veblen %r has %d children" % (addr, n))
        if not isinstance(label, (Const, Var, ArrowL, JoinL, VeblenL)):
            raise DocumentError("unknown label at %r" % (addr,))
    built = {}
    for addr in sorted(nodes, key=len, reverse=True):
        label = nodes[addr]
        if isinstance(label, ArrowL):
            built[addr] = Arrow(built.pop(addr + (0,)), built.pop(addr + (1,)))
        elif isinstance(label, JoinL):
            built[addr] = Join(tuple(built.pop(c) for c in st.children(addr)))
        elif isinstance(label, VeblenL):
            built[addr] = Veblen(label.index, built.pop(addr + (0,)))
        else:
            built[addr] = label
    return built[()]


def _ref_parse_address(text):
    if text == "":
        return ()
    parts = text.split(".")
    if not all(p.isascii() and p.isdigit() and (p == "0" or p[0] != "0") for p in parts):
        raise DocumentError("bad address key %r" % text)
    return tuple(int(p) for p in parts)


def _ref_decode_set(space, entry, addr):
    try:
        if isinstance(entry, str):
            return parse_clopen(space, entry)
        if isinstance(entry, dict) and set(entry) <= {"set", "level"} and "set" in entry:
            level = ONE
            if "level" in entry:
                if not isinstance(entry["level"], str):
                    raise DocumentError("a level is an ordinal string")
                level = parse_ordinal(entry["level"])
            if not isinstance(entry["set"], str):
                raise DocumentError("a set is written as a literal string")
            return parse_clopen(space, entry["set"], level)
    except (ParseError, ValueError) as e:
        where = fl._clip(fl.render_address(addr), 40)
        raise DocumentError("bad set entry at address %r: %s" % (where, fl._clip(str(e), 160))) from None
    raise DocumentError("malformed set entry at address %r" % fl._clip(fl.render_address(addr), 40))


def ref_decode_flowchart(doc):
    """The flowchart decoder over the references above: every set entry
    parsed where it stands, levels checked node by node with borel_rank."""
    if not isinstance(doc, dict) or doc.get("kind") != "flowchart":
        raise DocumentError("a flowchart document has kind 'flowchart'")
    if type(doc.get("space")) is not int:
        raise DocumentError("flowchart document needs an integer space")
    try:
        space = Space(doc["space"])
    except ValueError as e:
        raise DocumentError(str(e)) from None
    term = ref_term_from_tree(ref_read_nodes(doc.get("term")))
    raw = doc.get("assign")
    if not isinstance(raw, dict):
        raise DocumentError("flowchart document needs an assign object")
    assign = {}
    for key, entry in raw.items():
        addr = _ref_parse_address(key)
        if isinstance(entry, list):
            assign[addr] = tuple(_ref_decode_set(space, e, addr) for e in entry)
        else:
            assign[addr] = _ref_decode_set(space, entry, addr)
    try:
        f = Flowchart(term, space, assign)
    except (ValueError, OpenTermError, SpaceMismatchError) as e:
        raise DocumentError(str(e)) from None
    for addr, sets in f.assign:
        family = sets if isinstance(sets, tuple) else (sets,)
        if any(cmp(s.declared_level, borel_rank(term, addr)) > 0 for s in family):
            raise DocumentError("declared level exceeds the node rank")
    return f


# -- inputs --------------------------------------------------------------------


def cs(text, space=Space(2)):
    return parse_clopen(space, text)


def near_miss_pairs():
    """Charts that agree on the whole 64-point grid and differ at
    0000011(0), which no grid point enters."""
    sp = Space(2)
    t = parse_term('join(q"a", q"b")')
    yield (Flowchart(t, sp, {(): (cs("{0}"), cs("{1, 0000011}"))}),
           Flowchart(t, sp, {(): (cs("{0}"), cs("{1}"))}))
    t = parse_term('q"a" ~> q"b"')
    yield (Flowchart(t, sp, {(): cs("{0000011}")}), Flowchart(t, sp, {(): ClopenSet.empty(sp)}))


def seeded_charts(rng, space, n):
    """Arbitrary charts, many of them not total or not deterministic,
    some with raised declared levels; total deterministic charts; and
    to_monotone's results, each with the chart it was shrunk from."""
    for i in range(n):
        term = random_term(rng, 4) if i % 2 else random_normal_term(rng, 4)
        f = random_flowchart(rng, term, space, 3)
        if i % 3 == 0:
            f = f.replace_sets(lambda addr, s: s.with_level(rng.choice(LEVELS)))
        yield f, None
        if is_normal(term):
            yield fl.to_monotone(f), f
        yield random_total_det_flowchart(rng, random_normal_term(rng, 3), space, 3), None


def _domains_text(domains):
    return {a: (d.antichain, render_ordinal(d.declared_level)) for a, d in domains.items()}


# -- the deciders and the domain compile -----------------------------------------


def test_deciders_match_the_set_algebra():
    rng = random.Random(14)
    verdicts = set()
    for space in SPACES:
        charts = list(seeded_charts(rng, space, 150))
        for (f, source), (g, _) in zip(charts, charts[1:] + charts[:1]):
            total, det = fl.is_total(f), fl.is_deterministic(f)
            assert total == ref_is_total(f)
            assert det == ref_is_deterministic(f)
            verdicts.add((total[0], det[0]))
            known = None if source is None else ref_domains(source)
            assert _domains_text(fl.domain_assignment(f)) == _domains_text(ref_domains(f, known))
            for other in (g, f, fl.to_reduced(f)):
                assert fl.equivalent(f, other) == ref_equivalent(f, other)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_deciders_match_past_the_grid():
    for f, g in near_miss_pairs():
        for chart in (f, g):
            assert fl.is_total(chart) == ref_is_total(chart)
            assert fl.is_deterministic(chart) == ref_is_deterministic(chart)
        assert fl.equivalent(f, g) is ref_equivalent(f, g) is False
    f, _ = next(near_miss_pairs())
    assert render_point(fl.is_deterministic(f)[1]) == "0000011(0)"


def monotone_family(rng, space, n):
    """Seeded charts with to_monotone's results, the results shrunk
    again, and charts rewritten from a result, which compile their own
    domains."""
    for f, _ in seeded_charts(rng, space, n):
        yield f
        if is_normal(f.term):
            m = fl.to_monotone(f)
            yield fl.to_monotone(m)
            yield m.replace_sets(lambda addr, s: s.complement())
            yield m.replace_sets(lambda addr, s: s.with_level(rng.choice(LEVELS)))


def test_domain_levels_and_monotonicity_match_the_set_algebra():
    rng = random.Random(16)
    verdicts = set()
    for space in SPACES:
        for f in monotone_family(rng, space, 60):
            assert _domains_text(fl.domain_assignment(f)) == _domains_text(ref_domains(f))
            got = fl.is_monotone(f)
            assert got is ref_is_monotone(f)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_is_monotone_walks_no_set_of_a_shrunk_chart(monkeypatch):
    # to_monotone's sets are the child domains of the compile its result
    # shares, so each passes by identity, while the chart it was shrunk
    # from is walked.  Agreement with ref_is_monotone on monotone_family
    # is test_domain_levels_and_monotonicity_match_the_set_algebra.
    calls = []
    lockstep = fl._lockstep

    def counted(x, y, subset):
        calls.append(subset)
        return lockstep(x, y, subset)

    monkeypatch.setattr(fl, "_lockstep", counted)
    rng = random.Random(23)
    shrunk = walked = 0
    for space in SPACES:
        for f, source in seeded_charts(rng, space, 60):
            if source is None:
                continue
            del calls[:]
            fl.is_monotone(source)
            walked += bool(calls)
            for g in (f, fl.to_monotone(f)):
                del calls[:]
                assert fl.is_monotone(g) is True
                assert calls == []
                shrunk += 1
    assert shrunk > 50 and walked > 20


def test_deciders_agree_in_either_order():
    # Both deciders read the chart's running unions, whichever builds
    # them; a fresh chart on the same assignment compiles its own.
    rng = random.Random(29)
    charts = [f for space in SPACES for f, _ in seeded_charts(rng, space, 80)]
    charts += [f for pair in near_miss_pairs() for f in pair]
    verdicts = set()
    for f in charts:
        want = ref_is_total(f), ref_is_deterministic(f)
        g = Flowchart(f.term, f.space, f.assign)
        det = fl.is_deterministic(f)
        assert (fl.is_total(f), det) == want
        total = fl.is_total(g)
        assert (total, fl.is_deterministic(g)) == want
        verdicts.add((total[0], det[0]))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_is_total_decides_on_the_last_running_union(monkeypatch):
    calls = []
    combine = fl._combine

    def counted(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(fl, "_combine", counted)
    rng = random.Random(31)
    for space in SPACES:
        for f, _ in seeded_charts(rng, space, 40):
            reached = ClopenSet.empty(space)
            for d in ref_reach(f).values():
                reached = reached.union(d)
            unions = f._unions
            assert len(unions) == len(f._reach)
            assert _lockstep(unions[-1], reached.trie, False)
            del calls[:]
            got = fl.is_total(f)
            assert calls == []
            assert got == ((True, None) if unions[-1] is True else (False, _leftmost(space, unions[-1], False)))
            assert f._unions is unions


def _shrunk(shrink, f):
    """The shrunk chart's document, or the refusal's message."""
    try:
        return json.dumps(fl.encode_flowchart(shrink(f)), sort_keys=True)
    except NonNormalTermError as e:
        return "refused: %s" % e


def test_to_monotone_matches_the_intersections():
    # The shrunk sets are read off the compile; here they are computed
    # as domain ∩ set, levels included.
    rng = random.Random(19)
    kinds = set()
    for space in SPACES:
        for f, _ in seeded_charts(rng, space, 60):
            got = _shrunk(fl.to_monotone, f)
            assert got == _shrunk(ref_to_monotone, f)
            kinds.add(got.startswith("refused"))
        for f in monotone_family(rng, space, 40):
            assert _shrunk(fl.to_monotone, f) == _shrunk(ref_to_monotone, f)
    assert kinds == {True, False}


def test_to_monotone_shares_its_source_compile():
    rng = random.Random(17)
    for space in SPACES:
        for f, source in seeded_charts(rng, space, 40):
            assert not any(isinstance(d, ClopenSet) for d in f._domains.values())
            if source is not None:
                assert f._domains is source._domains
                assert fl.to_monotone(f)._domains is source._domains


# -- the Vaught transform ------------------------------------------------------


def _pushed(f, delta, depth_bound, transform):
    """The pushed chart's document, levels included, or the refusal."""
    try:
        return json.dumps(fl.encode_flowchart(transform(f, delta, depth_bound)), sort_keys=True)
    except (NotMonotoneError, UndecidedImageError, UnsupportedError) as e:
        return "refused: %s: %s" % (type(e).__name__, e)


def test_vaught_transform_matches_one_image_per_set():
    # Criterion 6's corpus at its own bound and at bounds too small for
    # some images, with raised levels on tries that repeat; non-monotone
    # charts; and const_zero, which is not onto Space(2) (its range is
    # one point, so the map is refused) but is onto Space(1).
    rng = random.Random(419)
    sp = Space(2)
    deltas = (identity_map(sp), drop_first(sp), parity_merge(), const_zero(sp, sp), const_zero(sp, Space(1)))
    outcomes = set()
    for delta in deltas:
        for _ in range(60):
            term = random_normal_term(rng, 3, veblen=False)
            source = random_total_det_flowchart(rng, term, delta.output_space, 3)
            f = fl.to_monotone(fl.pullback(source, delta))
            raised = f.replace_sets(lambda addr, s: s.with_level(rng.choice(LEVELS)))
            rough = random_flowchart(rng, term, sp, 3)
            for chart, bound in ((f, 6), (f, rng.choice((1, 2))), (raised, 6), (rough, 6)):
                got = _pushed(chart, delta, bound, fl.vaught_transform)
                assert got == _pushed(chart, delta, bound, ref_vaught_transform)
                outcomes.add(got.split(":")[1] if got.startswith("refused") else "pushed")
    assert outcomes == {"pushed", " NotMonotoneError", " UndecidedImageError", " UnsupportedError"}


def test_sample_grid_matches_the_deduplicating_grid():
    for k in range(1, 5):
        for max_prefix in range(5):
            for max_period in range(1, 4):
                space = Space(k)
                assert sample_grid(space, max_prefix, max_period) == ref_sample_grid(space, max_prefix, max_period)


# -- the padding construction --------------------------------------------------


def _padded(pad, c):
    """The padded command's document, or the refusal's message."""
    try:
        return json.dumps(cm.encode_command(pad(c)), sort_keys=True)
    except UnsupportedError as e:
        return "refused: %s" % e


def seeded_commands(rng, space, n):
    """Simple commands that pad, that are not total, or whose joins have
    holes; and commands that are not simple or have Veblen nodes."""
    for i in range(n):
        term = random_normal_term(rng, 3, veblen=False)
        yield cm.flowchart_to_simple_command(random_total_det_flowchart(rng, term, space, 3))
        yield cm.flowchart_to_simple_command(random_flowchart(rng, term, space, 3))
        if i % 4 == 0:
            yield random_command(rng, random_term(rng, 3), space, 3)


def test_padding_matches_the_two_loop_construction():
    rng = random.Random(15)
    kinds = set()
    for space in SPACES:
        for c in seeded_commands(rng, space, 150):
            got = _padded(cm.make_strongly_total, c)
            assert got == _padded(ref_make_strongly_total, c)
            kinds.add(got.split(" (")[0] if got.startswith("refused") else "padded")
    assert {"padded", "refused: the command is not total"} <= kinds
    assert any(k.startswith("refused: the join family at") for k in kinds)


def test_padding_matches_the_one_loop_construction():
    rng = random.Random(20)
    holes = 0
    for space in SPACES:
        for c in seeded_commands(rng, space, 150):
            got = _padded(cm.make_strongly_total, c)
            assert got == _padded(ref_make_strongly_total_one_loop, c)
            holes += got.startswith("refused: the join family at")
    assert holes > 0


def test_padding_names_the_first_join_with_a_hole():
    # Total through the root's full members; both inner joins have holes.
    sp = Space(2)
    ident = identity_map(sp)
    full = ClopenSet.full(sp)
    c = Command(parse_term('join(join(q"a"), join(q"b"))'), sp, {
        (): JoinSite(((full, ident), (full, ident))),
        (0,): JoinSite(((cs("{1}"), ident),)),
        (1,): JoinSite(((cs("{0}"), ident),)),
    })
    want = "refused: the join family at 0 misses part of its domain (least point (0))"
    assert _padded(cm.make_strongly_total, c) == _padded(ref_make_strongly_total, c) == want


@pytest.mark.parametrize("test", ["{}", "{0}", "{0000011}"])
def test_padding_refuses_a_simple_command_that_is_not_total(test):
    sp = Space(2)
    ident = identity_map(sp)
    c = Command(parse_term('q"a" ~> join(q"b")'), sp, {
        (): ArrowSite(cs("{e}"), ident),
        (1,): JoinSite(((cs(test), ident),)),
    })
    got = _padded(cm.make_strongly_total, c)
    assert got == _padded(ref_make_strongly_total, c)
    assert got.startswith("refused: the command is not total (no true path at ")


# -- the retraction onto a complement ------------------------------------------


def test_out_map_matches_the_antichain_construction():
    rng = random.Random(18)
    built = 0
    for k in (2, 3, 4):
        space = Space(k)
        for n in range(600):
            v = random_clopen(rng, space, 1 + n % 5)
            if v.is_full:
                continue
            got = encode_transducer(out_map(v))
            assert got == encode_transducer(ref_out_map(v)), v
            built += got["states"] > 1
    assert built > 500


# -- the set kernel and the preimage walk --------------------------------------

MODES = ((True, False), (False, False), (False, True), (True, True))


def _same_dag(got, ref, inputs):
    """Is `got` the trie `ref` with the same node sharing: one lockstep
    walk that pairs their inner nodes one to one, and takes a node of
    the operands (`inputs`, by id) only where `ref` takes that node?"""
    there, back = {}, {}
    stack = [(got, ref)]
    while stack:
        g, r = stack.pop()
        if g.__class__ is bool or r.__class__ is bool:
            if g is not r:
                return False
            continue
        if id(g) in there or id(r) in back:
            if there.get(id(g)) != id(r) or back.get(id(r)) != id(g):
                return False
            continue
        there[id(g)], back[id(r)] = id(r), id(g)
        if len(g) != len(r) or (id(g) in inputs or id(r) in inputs) and (g is not r):
            return False
        stack.extend(zip(g, r))
    return True


def _inner(t):
    """The ids of a trie's distinct inner nodes."""
    seen = set()
    stack = [t]
    while stack:
        n = stack.pop()
        if n.__class__ is tuple and id(n) not in seen:
            seen.add(id(n))
            stack.extend(n)
    return seen


def _check_kernel(x, y):
    inputs = _inner(x) | _inner(y)
    for absorb, negate in MODES:
        got, ref = _combine(x, y, absorb, negate), ref_combine(x, y, absorb, negate)
        assert (got is x, got is y) == (ref is x, ref is y)
        assert _lockstep(got, ref, False)
        assert len(_inner(got)) == len(_inner(ref))
        assert _same_dag(got, ref, inputs)


def past_packing(rng, s):
    """s with one more cylinder, one letter longer than the packing
    depth, so that a set that is not a leaf is held as a trie deeper
    than any packed table, and the trie kernel's walks run on it."""
    if s.trie.__class__ is bool:
        return s
    k = s.space.alphabet_size
    word = tuple(rng.randrange(k) for _ in range(_shape(k).depth + 1))
    return ClopenSet(s.space, s.antichain + (word,))


def kernel_operands(rng, space, n):
    """Pairs of seeded tries, and pairs whose right trie is built from
    the left one, so that the two share subtries."""
    for _ in range(n):
        a = past_packing(rng, random_clopen(rng, space, 5)).trie
        c = past_packing(rng, random_clopen(rng, space, 5)).trie
        yield a, c
        for absorb, negate in MODES:
            b = _combine(a, c, absorb, negate)
            yield a, b
            yield b, a
        if a.__class__ is tuple:
            yield a, rng.choice(a)
        yield a, a


def test_kernel_matches_the_two_visit_kernel():
    rng = random.Random(17)
    walked = 0
    for k in (1, 2, 3, 4):
        for x, y in kernel_operands(rng, Space(k), 120):
            _check_kernel(x, y)
            walked += x.__class__ is tuple and y.__class__ is tuple
    assert walked > 1200


def test_kernel_on_a_deep_pair():
    # Two 3000-letter words that share a 2999-letter prefix, and their
    # complements: a stack of frames 3000 deep, far past the recursion
    # limit.
    space = Space(2)
    rng = random.Random(29)
    stem = tuple(rng.randrange(2) for _ in range(2999))
    a, b = ClopenSet(space, [stem + (0,)]), ClopenSet(space, [stem + (1,)])
    sets = [a.trie, b.trie, a.complement().trie, b.complement().trie]
    for x in sets:
        for y in sets:
            _check_kernel(x, y)
    # The two cylinders merge into the stem's, 2999 letters deep.
    assert _lockstep(_combine(a.trie, b.trie, True), ClopenSet(space, [stem]).trie, False)


def test_preimage_matches_the_revisiting_walk():
    rng = random.Random(31)
    walked = packed = 0
    for k in (1, 2, 3, 4):
        space = Space(k)
        retracts = (random_clopen(rng, space, 3) for _ in range(8))
        machines = map_palette(space) + [out_map(v) for v in retracts if not v.is_full]
        machines += [_random_machine(rng, k) for _ in range(30)]
        for f in machines:
            for _ in range(12):
                b = random_clopen(rng, space, 5)
                a = past_packing(rng, b)
                got, ref = preimage(f, a), ref_preimage(f, a)
                assert (got is a) == (ref is a)
                assert got == ref
                assert got.declared_level is ref.declared_level
                assert len(_inner(got.trie)) == len(_inner(ref.trie))
                assert _same_dag(got.trie, ref.trie, _inner(a.trie))
                walked += got.trie.__class__ is tuple
                if b.trie.__class__ is _Bits:
                    # A packed table is walked as the trie it keeps:
                    # the result is the walk's over that expansion.
                    want = ref_preimage(f, ClopenSet._of(space, _tree(b.trie), b.declared_level))
                    assert preimage(f, b) == want
                    packed += 1
    assert walked > 300 and packed > 300


# -- the document decoder ------------------------------------------------------


def _decoded(decode, doc):
    """A decoder's value, or the type and message of its refusal."""
    try:
        return decode(doc)
    except Exception as e:
        return type(e), str(e)


def _documents(rng, n):
    """Flowchart and command documents, Veblen nodes included, some with
    raised levels and some with their node lists shuffled; each with
    the canonical text it was encoded as."""
    for i in range(n):
        space = SPACES[i // 2 % 2]
        term = random_term(rng, 4) if i % 3 else random_normal_term(rng, 4)
        if i % 2:
            f = random_flowchart(rng, term, space, 3)
            if i % 4 == 1:
                f = f.replace_sets(lambda addr, s: s.with_level(rng.choice(LEVELS)))
            doc = fl.encode_flowchart(f)
        else:
            doc = cm.encode_command(random_command(rng, term, space, 3))
        text = json.dumps(doc, sort_keys=True)
        doc = json.loads(text)
        if i % 5 == 0:
            rng.shuffle(doc["term"]["nodes"])
        yield doc, text


def test_decoder_matches_the_reference_decoder():
    rng = random.Random(37)
    accepted = veblen = 0
    for doc, text in _documents(rng, 500):
        want_term = ref_term_from_tree(ref_read_nodes(doc["term"]))
        if doc["kind"] == "flowchart":
            got, want = _decoded(fl.decode_flowchart, doc), _decoded(ref_decode_flowchart, doc)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got == want
            assert json.dumps(fl.encode_flowchart(got), sort_keys=True) == text
            assert json.dumps(fl.encode_flowchart(want), sort_keys=True) == text
        else:
            got = cm.decode_command(doc)
            assert json.dumps(cm.encode_command(got), sort_keys=True) == text
        # Terms compare through the table they keep, so the built
        # structure is compared through the text it renders to.
        assert got.term == want_term and render_term(got.term) == render_term(want_term)
        assert [got.term.__class__, *got.tree.nodes.items()] == [
            want_term.__class__,
            *sorted(syntax_tree(want_term).nodes.items()),
        ]
        accepted += 1
        veblen += has_veblen(got.term)
    assert accepted > 400 and veblen > 100


_BAD_SETS = (
    "{5}", "{1_0}", "{+1}", "{١}", "{", "{1,}", 5, ["{1}"], {"set": 3}, {"set": "{1}", "level": "w^"},
)
_BAD_PAYLOADS = ("w^", "w^١", "1_0", "", 3, None)
# Each kind turned into one whose arity its children break.
_WRONG_KIND = {
    "const": ("arrow", None), "arrow": ("veblen", "0"), "join": ("const", "z"), "veblen": ("arrow", None),
}


def _mutant(rng, doc, fault):
    """The document with one fault of the given kind, or None when the
    document has no place for it."""
    doc = json.loads(json.dumps(doc))
    nodes, assign = doc["term"]["nodes"], doc["assign"]
    keys = sorted(assign)
    if fault == "drop":
        del nodes[rng.randrange(len(nodes))]
    elif fault == "duplicate":
        nodes.insert(rng.randrange(len(nodes) + 1), dict(rng.choice(nodes)))
    elif fault == "gap":
        # Move a last child, with its subtree, one index up.
        addrs = {tuple(e["addr"]) for e in nodes}
        last = sorted(a for a in addrs if a and a[:-1] + (a[-1] + 1,) not in addrs)
        if not last:
            return None
        moved = rng.choice(last)
        for e in nodes:
            if tuple(e["addr"][: len(moved)]) == moved:
                e["addr"][len(moved) - 1] += 1
    elif fault == "arity":
        e = rng.choice(nodes)
        e["kind"], payload = _WRONG_KIND[e["kind"]]
        e.pop("payload", None)
        if payload is not None:
            e["payload"] = payload
    elif fault == "payload":
        e = rng.choice([e for e in nodes if e["kind"] == "veblen"] or nodes)
        e["kind"], e["payload"] = "veblen", rng.choice(_BAD_PAYLOADS)
    elif not keys:
        return None
    elif fault == "key":
        key = rng.choice(keys)
        assign["0" + key if key else "+"] = assign.pop(key)
    else:
        key = rng.choice(keys)
        entry, i = assign[key], None
        if isinstance(entry, list):
            i = rng.randrange(len(entry))
            entry = entry[i]
        if fault == "set":
            bad = rng.choice(_BAD_SETS)
        else:
            # One above the node's rank.
            term = ref_term_from_tree(ref_read_nodes(doc["term"]))
            level = add(borel_rank(term, fl.parse_address(key)), ONE)
            bad = {"set": entry if isinstance(entry, str) else entry["set"], "level": render_ordinal(level)}
        if i is None:
            assign[key] = bad
        else:
            assign[key][i] = bad
    return doc


def test_decoder_refuses_single_faults_as_the_reference_does():
    rng = random.Random(41)
    term_faults = ("drop", "duplicate", "gap", "arity", "payload")
    refused = dict.fromkeys(term_faults + ("set", "level", "key"), 0)
    for doc, _ in _documents(rng, 500):
        if doc["kind"] == "flowchart" and isinstance(_decoded(ref_decode_flowchart, doc), tuple):
            continue
        for fault in refused if doc["kind"] == "flowchart" else term_faults + ("key",):
            bad = _mutant(rng, doc, fault)
            if bad is None:
                continue
            if doc["kind"] == "flowchart":
                want = _decoded(ref_decode_flowchart, bad)
                assert _decoded(fl.decode_flowchart, bad) == want, (fault, bad)
            elif fault == "key":
                key = next(k for k in bad["assign"] if k not in doc["assign"])
                want = (DocumentError, "bad address key %r" % key)
                assert _decoded(cm.decode_command, bad) == want, bad
            else:
                # A command's term is decoded before its sites; a fault
                # that leaves a valid term (a dropped last join member)
                # is a fault of the sites.
                want = _decoded(lambda d: ref_term_from_tree(ref_read_nodes(d["term"])), bad)
                if not isinstance(want, tuple):
                    continue
                assert _decoded(cm.decode_command, bad) == want, (fault, bad)
            assert isinstance(want, tuple) and want[0] is DocumentError, (fault, bad, want)
            refused[fault] += 1
    assert min(refused.values()) > 50, refused


# -- the facts kept on terms, trees, maps and commands -----------------------------


def _deep_texts(depth):
    """Term texts `depth` nodes deep, far past the recursion limit."""
    yield 'q"a" ~> ' * depth + 'q"b"'
    yield "veb[1](" * depth + 'x"v"' + ")" * depth
    yield 'join(q"a", ' * depth + 'q"b"' + ")" * depth


def kept_fact_terms(rng, n):
    """Random terms, open and closed; each decoded from its document
    with the node list shuffled; each collapsed to its fixed point; and
    2000-deep chains."""
    for i in range(n):
        t = random_term(rng, 4, closed=i % 2 == 0)
        yield t
        doc = encode_tree(syntax_tree(t))
        rng.shuffle(doc["nodes"])
        yield term_from_tree(decode_tree(doc))
        yield apply_fixed_point(t)
    for text in _deep_texts(2000):
        yield parse_term(text)


def test_kept_kinds_and_arities_match_the_walks():
    rng = random.Random(53)
    for t in kept_fact_terms(rng, 300):
        st = syntax_tree(t)
        assert is_closed(t) == ref_is_closed(t)
        assert has_veblen(t) == ref_has_veblen(t)
        for addr in st.nodes:
            kids = ref_children(st, addr)
            assert st.children(addr) == kids
            assert st.arity[addr] == len(kids)
        assert st.arity.keys() == st.nodes.keys()
    # A table read from a shuffled document, outside any term, counts
    # its children as the probe does.
    doc = encode_tree(syntax_tree(parse_term('join(q"a", q"b" ~> q"c", veb[w](q"d"))')))
    rng.shuffle(doc["nodes"])
    st = decode_tree(doc)
    assert all(st.children(addr) == ref_children(st, addr) for addr in st.nodes)


def test_children_off_the_tree_are_none():
    st = syntax_tree(parse_term('join(q"a", q"b") ~> q"c"'))
    assert st.children((0,)) == [(0, 0), (0, 1)]
    for addr in ((1,), (0, 1), (2,), (0, 2), (7, 7), (1, 0)):
        assert st.children(addr) == [] == ref_children(st, addr)


def _space_changing_command():
    """A root working in Space(3) whose right edge lands in Space(2)."""
    v = cs("{00, 10, 110}")
    term = parse_term('q"a" ~> (q"b" ~> join(q"c", q"d"))')
    sp3 = Space(3)
    assign = {
        (): ArrowSite(ClopenSet(sp3, [(2,)]), in_map(v)),
        (1,): ArrowSite(cs("{1}"), drop_first(Space(2))),
        (1, 1): JoinSite(((cs("{0}"), identity_map(Space(2))), (cs("{1}"), parity_merge()))),
    }
    return Command(term, sp3, assign)


def kept_fact_commands(rng, n, deep_chain):
    """Random commands, on fixed-point terms among them; each decoded
    from its document; translated charts; one whose edges change the
    working space; and a 2000-deep one."""
    for i in range(n):
        space = SPACES[i % 2]
        term = random_term(rng, 4)
        c = random_command(rng, apply_fixed_point(term) if i % 3 == 0 else term, space, 3)
        yield c
        yield cm.decode_command(json.loads(json.dumps(cm.encode_command(c))))
        f = random_total_det_flowchart(rng, random_normal_term(rng, 3, veblen=False), space, 3)
        yield cm.flowchart_to_simple_command(f)
    yield _space_changing_command()
    yield cm.flowchart_to_simple_command(deep_chain(2000))


def test_kept_edge_maps_match_the_sites(deep_chain):
    rng = random.Random(59)
    for c in kept_fact_commands(rng, 120, deep_chain):
        for addr, site in c.assign:
            want = cm._edge_maps(site, c.space_at(addr))
            assert c._edges[addr] == want
            for n, m in enumerate(want):
                assert c.edge_map(addr + (n,)) is c._edges[addr][n]
                assert c.space_at(addr + (n,)) == m.output_space
        assert c._edges.keys() == {addr for addr, _ in c.assign}
        assert cm.is_simple(c) == all(
            ref_is_identity(m)
            for addr, site in c.assign
            if not isinstance(site, cm.VeblenSite)
            for m in cm._edge_maps(site, c.space_at(addr))
        )


def test_edge_map_refuses_what_is_not_an_edge():
    c = _space_changing_command()
    for addr in ((), (2,), (0, 0), (1, 1, 2), (5, 5)):
        with pytest.raises(InvalidAddressError):
            c.edge_map(addr)
    assert c.edge_map((0,)) is identity_map(Space(3))
    assert c.edge_map((1, 1, 1)) == parity_merge()


def _echo(space):
    """The identity machine built afresh: equal to identity_map's, not it."""
    k = space.alphabet_size
    return Transducer.build(space, space, 0, {(0, a): (0, (a,)) for a in range(k)})


def test_identity_flag_matches_the_comparison():
    rng = random.Random(61)
    for space in (Space(1),) + SPACES:
        echo = _echo(space)
        assert echo is not identity_map(space) and echo == identity_map(space)
        palette = map_palette(space) + [echo]
        if space.alphabet_size > 1:
            palette.append(out_map(ClopenSet(space, [(0,)])))
        maps = palette + [compose(f, g) for f in palette for g in palette]
        echo_row = tuple((0, (a,)) for a in range(space.alphabet_size))
        # An echo into a larger space, and a two-state echo: the
        # identity map, but not identity_map's machine.
        maps.append(Transducer(space, Space(space.alphabet_size + 1), 0, (echo_row,)))
        maps.append(Transducer(space, space, 0, (echo_row, echo_row)))
        maps += [_random_machine(rng) for _ in range(30)]
        for f in maps:
            assert f._identity == ref_is_identity(f), f
        # The fresh echo is the identity to compose and preimage ...
        for g in palette:
            if g.input_space == space:
                assert compose(echo, g) == g and compose(g, echo) == g
        assert compose(echo, echo) is echo
        s = random_clopen(rng, space, 3)
        assert preimage(echo, s) is s
    # ... and to is_simple, on every ~> and join edge.
    term = parse_term('q"a" ~> join(q"b", veb[0](q"c"))')
    sp = Space(2)
    echo = _echo(sp)
    sites = {(): ArrowSite(cs("{1}"), echo), (1,): JoinSite(((cs("{0}"), echo), (cs("{1}"), echo))),
             (1, 1): cm.VeblenSite(drop_first(sp))}
    assert cm.is_simple(Command(term, sp, sites))
    sites[(1,)] = JoinSite(((cs("{0}"), echo), (cs("{1}"), letter_double(sp))))
    assert not cm.is_simple(Command(term, sp, sites))


def test_with_level_keeps_the_set_at_its_own_level():
    for s in (cs("{0, 11}"), ClopenSet.full(Space(2)), cs("{1}").with_level(LEVELS[2])):
        assert s.with_level(s.declared_level) is s
        for level in LEVELS:
            if level is not s.declared_level:
                t = s.with_level(level)
                assert t is not s and t.trie is s.trie and t.declared_level is level
                assert t == s and t.with_level(level) is t
    with pytest.raises(ValueError):
        cs("{1}").with_level(CnfOrdinal())


def test_building_a_command_counts_no_children(monkeypatch, deep_chain):
    rng = random.Random(67)
    terms = [random_normal_term(rng, 4, veblen=False) for _ in range(30)]
    charts = [random_total_det_flowchart(rng, t, Space(2), 3) for t in terms]
    charts.append(deep_chain(300))
    commands = [random_command(rng, random_term(rng, 4), SPACES[i % 2], 3) for i in range(30)]
    docs = [cm.encode_command(c) for c in commands]
    calls = []
    children = SyntaxTree.children
    monkeypatch.setattr(SyntaxTree, "children", lambda self, addr: calls.append(addr) or children(self, addr))
    for f in charts:
        Flowchart(f.term, f.space, f.assign)
        cm.flowchart_to_simple_command(f)
    for c, doc in zip(commands, docs):
        Command(c.term, c.space, c.assign)
        cm.decode_command(doc)
    assert calls == []


def test_lowering_reads_the_kept_edge_maps(monkeypatch):
    rng = random.Random(71)
    commands = [random_command(rng, random_term(rng, 4), SPACES[i % 2], 3) for i in range(30)]
    for _ in range(10):
        term = random_normal_term(rng, 4, veblen=False)
        f = random_flowchart(rng, term, Space(2), 3)
        commands += [cm.flowchart_to_simple_command(g) for g in (f, fl.to_monotone(f))]
    commands.append(_space_changing_command())
    calls = []
    edge_maps = cm._edge_maps
    monkeypatch.setattr(cm, "_edge_maps", lambda *args: calls.append(args) or edge_maps(*args))
    for c in commands:
        cm.is_simple(c)
        cm.command_to_flowchart(c)
        for addr in c.tree.nodes:
            cm.val(c, addr)
    assert calls == []


def test_a_second_is_closed_walks_nothing():
    for text in ('q"a" ~> join(q"b", veb[w](q"c"))', 'x"v" ~> q"a"', 'q"a"'):
        t = parse_term(text)
        closed, veblen = is_closed(t), has_veblen(t)
        # Swap in a table with the opposite answers: the kept kinds
        # answer, so the table is not read again.
        other = Var("v") if closed else Const("a")
        if not veblen:
            other = Veblen(ONE, other)
        object.__setattr__(t, "_tree", syntax_tree(other))
        assert (is_closed(t), has_veblen(t)) == (closed, veblen)
