"""Commands: flowcharts with reassignment maps along the tree edges.

A command decorates a closed term's syntax tree with a test set per
branching node and a continuous map per edge.  Walking the tree, the
machine holds a current value, initially the input point: a ~> node
tests the value against its set and either falls through (the edge
keeps the value: that map is pinned to the identity) or applies its
reassignment and goes right; a join node branches to every member whose
test passes, applying that member's map; a Veblen edge applies its map
unconditionally.  val gives the composite map accumulated along a path.

The value at a node is val applied to the input, so testing it against
U is testing the input against preimage(val, U).  Evaluation is defined
by that translation: a command is lowered once, top down, to val at
every address and the flowchart of its pulled-back tests
(command_to_flowchart), and the flowchart evaluators run on that chart.

A simple command reassigns nothing at ~>/join edges, which makes it a
flowchart in disguise; translation in both directions is provided, plus
the padding construction that upgrades a total simple command to a
strongly total one (every join family covering the whole space) with
the same evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DocumentError,
    InvalidAddressError,
    OpenTermError,
    SpaceMismatchError,
    UnsupportedError,
)
from .ordinal import ONE
from .space import ClopenSet, Space, UpPoint, least_point, render_point
from .term import (
    Address,
    ArrowL,
    ConstL,
    JoinL,
    SyntaxTree,
    Term,
    VeblenL,
    decode_tree,
    encode_tree,
    has_veblen,
    is_closed,
    syntax_tree,
    term_from_tree,
)
from .transducer import Transducer, compose, decode_map, encode_map, identity_map, preimage
from . import flowchart as fc

__all__ = [
    "ArrowSite",
    "JoinSite",
    "VeblenSite",
    "Command",
    "val",
    "true_positions",
    "true_paths",
    "eval_command",
    "eval_outcome",
    "is_strongly_total",
    "is_simple",
    "is_total",
    "is_deterministic",
    "command_to_flowchart",
    "flowchart_to_simple_command",
    "make_strongly_total",
    "encode_command",
    "decode_command",
]


@dataclass(frozen=True)
class ArrowSite:
    """Test set and the reassignment taken on success.

    The fallthrough edge (child 0) always keeps the identity map.
    """

    test: ClopenSet
    then_map: Transducer


@dataclass(frozen=True)
class JoinSite:
    """One (test, reassignment) pair per join member."""

    members: tuple[tuple[ClopenSet, Transducer], ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((t, m) for t, m in self.members))


@dataclass(frozen=True)
class VeblenSite:
    """The unconditional reassignment on a Veblen edge."""

    child_map: Transducer


Site = ArrowSite | JoinSite | VeblenSite


@dataclass(frozen=True)
class Command:
    """A closed term plus sites; leaves carry nothing.

    The constructor checks the space wiring: each node has a working
    space (the root works in `space`), every test must live in its
    node's working space, every map must read it, and a child's working
    space is the output space of the edge map leading to it.
    """

    term: Term
    space: Space
    assign: tuple[tuple[Address, Site], ...]

    def __post_init__(self):
        if not is_closed(self.term):
            raise OpenTermError("commands need closed terms")
        raw = self.assign
        if isinstance(raw, dict):
            raw = raw.items()
        cooked: dict[Address, Site] = {}
        for addr, site in raw:
            addr = tuple(addr)
            if addr in cooked:
                raise ValueError("duplicate site at %r" % (addr,))
            cooked[addr] = site
        tree = syntax_tree(self.term)
        spaces: dict[Address, Space] = {(): self.space}
        for addr in tree.addresses():
            here = spaces[addr]
            label = tree.label(addr)
            site = cooked.get(addr)
            if isinstance(label, ArrowL):
                if not isinstance(site, ArrowSite):
                    raise ValueError("~> node %r needs a test and a map" % (addr,))
                self._check_test(site.test, here, addr)
                self._check_map(site.then_map, here, addr)
                spaces[addr + (0,)] = here
                spaces[addr + (1,)] = site.then_map.output_space
            elif isinstance(label, JoinL):
                arity = len(tree.children(addr))
                if not isinstance(site, JoinSite) or len(site.members) != arity:
                    raise ValueError(
                        "join node %r needs %d (test, map) pairs" % (addr, arity)
                    )
                for n, (test, m) in enumerate(site.members):
                    self._check_test(test, here, addr)
                    self._check_map(m, here, addr)
                    spaces[addr + (n,)] = m.output_space
            elif isinstance(label, VeblenL):
                if not isinstance(site, VeblenSite):
                    raise ValueError("veblen node %r needs a map" % (addr,))
                self._check_map(site.child_map, here, addr)
                spaces[addr + (0,)] = site.child_map.output_space
            elif site is not None:
                raise ValueError("leaf %r takes no site" % (addr,))
        extra = set(cooked) - set(tree.addresses())
        if extra:
            raise ValueError("sites at addresses outside the tree: %r" % sorted(extra))
        object.__setattr__(self, "assign", tuple(sorted(cooked.items())))
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_at", cooked)
        object.__setattr__(self, "_spaces", spaces)

    @staticmethod
    def _check_test(test, space, addr):
        if not isinstance(test, ClopenSet):
            raise ValueError("test at %r is not a set" % (addr,))
        if test.space != space:
            raise SpaceMismatchError(
                "test at %r lives in %r but the node works in %r" % (addr, test.space, space)
            )

    @staticmethod
    def _check_map(m, space, addr):
        if not isinstance(m, Transducer):
            raise ValueError("map at %r is not a transducer" % (addr,))
        if m.input_space != space:
            raise SpaceMismatchError(
                "map at %r reads %r but the node works in %r" % (addr, m.input_space, space)
            )

    @property
    def tree(self) -> SyntaxTree:
        return self._tree

    def at(self, addr: Address) -> Site:
        try:
            return self._at[addr]
        except KeyError:
            raise InvalidAddressError("no site at %r" % (addr,)) from None

    def space_at(self, addr: Address) -> Space:
        """The working space of a node (value spaces change along edges)."""
        try:
            return self._spaces[addr]
        except KeyError:
            raise InvalidAddressError("no node at address %r" % (addr,)) from None

    def edge_map(self, addr: Address) -> Transducer:
        """The reassignment applied when stepping from addr[:-1] to addr."""
        parent, i = addr[:-1], addr[-1]
        label = self.tree.label(parent)
        site = self.at(parent) if not isinstance(label, ConstL) else None
        if isinstance(label, ArrowL):
            return identity_map(self.space_at(parent)) if i == 0 else site.then_map
        if isinstance(label, JoinL):
            return site.members[i][1]
        if isinstance(label, VeblenL):
            return site.child_map
        raise InvalidAddressError("no edge into %r" % (addr,))

    @cached_property
    def _lowered(self) -> tuple[dict[Address, Transducer], fc.Flowchart]:
        """val at every address, and the flowchart of every test pulled
        back to the input, from one top-down pass on first use."""
        vals: dict[Address, Transducer] = {(): identity_map(self.space)}
        sets: dict[Address, fc.NodeSets] = {}
        # Sorted addresses put every parent before its children.
        for addr in self._tree.addresses():
            acc = vals[addr]
            label = self._tree.label(addr)
            if isinstance(label, ArrowL):
                site = self._at[addr]
                sets[addr] = preimage(acc, site.test).with_level(ONE)
                vals[addr + (0,)] = acc
                vals[addr + (1,)] = compose(site.then_map, acc)
            elif isinstance(label, JoinL):
                members = self._at[addr].members
                sets[addr] = tuple(preimage(acc, test).with_level(ONE) for test, _ in members)
                for n, (_, m) in enumerate(members):
                    vals[addr + (n,)] = compose(m, acc)
            elif isinstance(label, VeblenL):
                vals[addr + (0,)] = compose(self._at[addr].child_map, acc)
        return vals, fc.Flowchart(self.term, self.space, sets)

    def __repr__(self):
        return "Command(%d sites, %r)" % (len(self.assign), self.space)


def val(c: Command, addr: Address) -> Transducer:
    """The composite reassignment along the path to an address.

    val at the root is the identity; each step composes the edge map on
    the outside.
    """
    if addr not in c.tree:
        raise InvalidAddressError("no node at address %r" % (addr,))
    return c._lowered[0][addr]


# ---------------------------------------------------------------------------
# Evaluation: the flowchart evaluators, run on the translation.


def true_positions(c: Command, x: UpPoint) -> list[Address]:
    if x.space != c.space:
        raise SpaceMismatchError("point in %r, command in %r" % (x.space, c.space))
    return fc.true_positions(command_to_flowchart(c), x)


def true_paths(c: Command, x: UpPoint) -> list[tuple[Address, str]]:
    return fc.true_paths(command_to_flowchart(c), x)


def eval_command(c: Command, x: UpPoint) -> str:
    return fc.eval_flowchart(command_to_flowchart(c), x)


def eval_outcome(c: Command, x: UpPoint) -> tuple:
    """("value", label) | ("no-true-path",) | ("ambiguous", labels)."""
    return fc.eval_outcome(command_to_flowchart(c), x)


# ---------------------------------------------------------------------------
# Predicates.


def is_strongly_total(c: Command) -> bool:
    """Does every join family cover its node's whole working space?"""
    for addr, site in c.assign:
        if isinstance(site, JoinSite):
            space = c.space_at(addr)
            covered = ClopenSet.empty(space)
            for test, _ in site.members:
                covered = covered.union(test)
            if not covered.is_full:
                return False
    return True


def is_simple(c: Command) -> bool:
    """Does every ~>/join edge keep the identity map?  (Veblen edges
    are unconstrained.)"""
    for addr, site in c.assign:
        ident = identity_map(c.space_at(addr))
        if isinstance(site, ArrowSite) and site.then_map != ident:
            return False
        if isinstance(site, JoinSite) and any(m != ident for _, m in site.members):
            return False
    return True


def is_total(c: Command) -> tuple[bool, UpPoint | None]:
    """Totality, decided on the translated flowchart (single source of
    truth for the covering criterion)."""
    return fc.is_total(command_to_flowchart(c))


def is_deterministic(c: Command) -> tuple[bool, UpPoint | None]:
    return fc.is_deterministic(command_to_flowchart(c))


# ---------------------------------------------------------------------------
# Translations.


def command_to_flowchart(c: Command) -> fc.Flowchart:
    """Pull every test back to the input: S = preimage(val, U).

    The command's evaluators run on this chart, built once per command;
    its declared levels are all 1 (every set here is clopen).
    """
    return c._lowered[1]


def flowchart_to_simple_command(f: fc.Flowchart) -> Command:
    """Transport the sets unchanged and reassign nothing.

    Veblen nodes with a positive index stand for jump operators, which
    have no continuous realization; only index 0 (whose edge may keep
    the identity) is accepted.
    """
    tree = f.tree
    for addr in tree.addresses():
        label = tree.label(addr)
        if isinstance(label, VeblenL) and not label.index.is_zero:
            raise UnsupportedError(
                "veblen node %r has positive index; only continuous reassignments exist here"
                % (addr,)
            )
    ident = identity_map(f.space)
    assign: dict[Address, Site] = {}
    for addr, sets in f.assign:
        if isinstance(sets, tuple):
            assign[addr] = JoinSite(tuple((s, ident) for s in sets))
        else:
            assign[addr] = ArrowSite(sets, ident)
    for addr in tree.addresses():
        if isinstance(tree.label(addr), VeblenL):
            assign[addr] = VeblenSite(ident)
    return Command(f.term, f.space, assign)


def make_strongly_total(c: Command) -> Command:
    """Pad a total simple command so every join family covers the space.

    Working over the domain assignment D of the transported flowchart:
    every test is first shrunk into its node's domain, then the
    0-indexed join member absorbs the complement of the domain.  Points
    inside D_sigma never meet the padding, so evaluation is unchanged;
    points outside D_sigma are off every true path through sigma, so
    routing them into member 0 is harmless.  All maps stay the
    identity and the result's levels are 1.

    Every join family must already cover its own domain.  A family
    that leaves a hole inside D_sigma cannot be padded into a cover of
    the space without giving the hole's points a new route, even when
    an overlapping branch elsewhere keeps the command total.
    """
    if has_veblen(c.term):
        raise UnsupportedError("the padding construction needs a veblen-free term")
    if not is_simple(c):
        raise UnsupportedError("the padding construction needs a simple command")
    f = command_to_flowchart(c)
    total, witness = fc.is_total(f)
    if not total:
        raise UnsupportedError("the command is not total (no true path at %s)" % witness)
    domains = fc.domain_assignment(f)
    for addr, sets in f.assign:
        if not isinstance(sets, tuple):
            continue
        hole = domains[addr]
        for s in sets:
            hole = hole.difference(s)
        if not hole.is_empty:
            raise UnsupportedError(
                "the join family at %s misses part of its domain (least point %s)"
                % (addr, render_point(least_point(hole)))
            )
    ident = identity_map(c.space)
    assign: dict[Address, Site] = {}
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


# ---------------------------------------------------------------------------
# Documents.
#
#   {"kind": "command", "space": k, "term": {...},
#    "assign": {"": {"test": "{1}", "map": "identity"},
#               "1": [{"test": "{10}", "map": "identity"}, ...],
#               "0": {"map": "drop-first"}}}
#
# ~> nodes take {"test", "map"} (the fallthrough edge may be spelled
# out as "else", which must be "identity"), join nodes a list of such
# records, Veblen nodes {"map"}.  Map references are resolved against
# the node's working space.


def encode_command(c: Command) -> dict:
    assign: dict[str, object] = {}
    for addr, site in c.assign:
        space = c.space_at(addr)
        key = fc.render_address(addr)
        if isinstance(site, ArrowSite):
            assign[key] = {
                "test": fc._encode_set(site.test),
                "map": encode_map(site.then_map, space),
            }
        elif isinstance(site, JoinSite):
            assign[key] = [
                {"test": fc._encode_set(test), "map": encode_map(m, space)}
                for test, m in site.members
            ]
        else:
            assign[key] = {"map": encode_map(site.child_map, space)}
    return {
        "kind": "command",
        "space": c.space.alphabet_size,
        "term": encode_tree(syntax_tree(c.term)),
        "assign": assign,
    }


def _decode_site_record(entry, space: Space, want_test: bool):
    if not isinstance(entry, dict):
        raise DocumentError("a site record is a JSON object, got %r" % (entry,))
    allowed = {"test", "map", "else"} if want_test else {"map"}
    if not set(entry) <= allowed:
        raise DocumentError("unknown keys in site record: %r" % sorted(set(entry) - allowed))
    if want_test:
        if "test" not in entry:
            raise DocumentError("site record needs a test")
        if entry.get("else", "identity") != "identity":
            raise DocumentError("the fallthrough edge of a ~> node must keep the identity map")
        test = fc._decode_set(space, entry["test"])
    else:
        test = None
    m = decode_map(entry.get("map", "identity"), space)
    return test, m


def decode_command(doc) -> Command:
    if not isinstance(doc, dict) or doc.get("kind") != "command":
        raise DocumentError("a command document has kind 'command'")
    if not isinstance(doc.get("space"), int):
        raise DocumentError("command document needs an integer space")
    try:
        space = Space(doc["space"])
    except ValueError as e:
        raise DocumentError(str(e)) from None
    term = term_from_tree(decode_tree(doc.get("term")))
    raw = doc.get("assign")
    if not isinstance(raw, dict):
        raise DocumentError("command document needs an assign object")
    tree = syntax_tree(term)
    # Working spaces depend on the decoded maps, so decode top-down.
    entries = {fc.parse_address(key): entry for key, entry in raw.items()}
    spaces: dict[Address, Space] = {(): space}
    assign: dict[Address, Site] = {}
    for addr in tree.addresses():
        if addr not in spaces:
            raise DocumentError("space wiring is dangling at %r" % (addr,))
        here = spaces[addr]
        label = tree.label(addr)
        if isinstance(label, ConstL):
            if addr in entries:
                raise DocumentError("leaf %r takes no site" % (addr,))
            continue
        if addr not in entries:
            raise DocumentError("missing site at %r" % (addr,))
        entry = entries[addr]
        if isinstance(label, ArrowL):
            test, m = _decode_site_record(entry, here, want_test=True)
            assign[addr] = ArrowSite(test, m)
            spaces[addr + (0,)] = here
            spaces[addr + (1,)] = m.output_space
        elif isinstance(label, JoinL):
            arity = len(tree.children(addr))
            if not isinstance(entry, list) or len(entry) != arity:
                raise DocumentError("join node %r needs %d site records" % (addr, arity))
            members = []
            for n, rec in enumerate(entry):
                test, m = _decode_site_record(rec, here, want_test=True)
                members.append((test, m))
                spaces[addr + (n,)] = m.output_space
            assign[addr] = JoinSite(tuple(members))
        else:
            _, m = _decode_site_record(entry, here, want_test=False)
            assign[addr] = VeblenSite(m)
            spaces[addr + (0,)] = m.output_space
    extra = set(entries) - set(tree.addresses())
    if extra:
        raise DocumentError("sites at addresses outside the tree: %r" % sorted(extra))
    try:
        return Command(term, space, assign)
    except (ValueError, OpenTermError, SpaceMismatchError) as e:
        raise DocumentError(str(e)) from None
