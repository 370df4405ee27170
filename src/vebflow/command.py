"""Commands: flowcharts with reassignment maps along the tree edges.

A command decorates a closed term's syntax tree with a test set per
branching node and a continuous map per edge.  Walking the tree, the
machine holds a current value, initially the input point: a ~> node
tests the value against its set and either falls through (the edge
keeps the value: that map is pinned to the identity) or applies its
reassignment and goes right; a join node branches to every member whose
test passes, applying that member's map; a Veblen edge applies its map
unconditionally.  val gives the composite map accumulated along a path.

Each node works in the output space of the map on the edge into it,
so the edge maps are all a command keeps of its wiring.  One top-down
walk, _wire, refuses an open term, then gives every node its site and
the maps on its edges out, reading each node's working space off the
map into it.  Command(...) is the checking constructor and the way in
for outside input: it runs the walk with _fit checking each site
against its node and keeps the maps.  decode_command runs the walk
once, to read each site in its node's space, fits every site after
it, and wraps the sites and maps with Command._of.
flowchart_to_simple_command and make_strongly_total wrap theirs the
same way, without _fit, since they build their sites from a valid
chart.  _of is only for sites built from a valid chart or command, or
already fitted.

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
from .space import ClopenSet, Space, UpPoint, _combine, _leftmost, render_point
from .term import (
    Address,
    ArrowL,
    Const,
    JoinL,
    Term,
    encode_tree,
    has_veblen,
    is_closed,
    syntax_tree,
)
from .transducer import (
    Transducer,
    compose,
    decode_map,
    encode_map,
    identity_map,
    preimage,
)
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
class Command(fc._Assigned):
    """A closed term plus sites; leaves carry nothing.

    The constructor checks the space wiring: the root works in `space`,
    and every site must fit its node's working space (see _wire).
    """

    _noun = "site"

    def __post_init__(self):
        cooked: dict[Address, Site] = fc._cook(self.assign, self._noun)
        _, edges = _wire(
            self.term,
            self.space,
            cooked,
            lambda addr, label, here, arity: _fit(cooked.get(addr), addr, label, here, arity),
        )
        self._keep(cooked)
        object.__setattr__(self, "_edges", edges)

    @classmethod
    def _of(cls, term: Term, space: Space, sites: dict[Address, Site], edges) -> "Command":
        """Wrap the sites and edge maps one _wire walk gave, unchecked:
        for sites built from a valid chart or command, or already
        fitted to their nodes."""
        out = super()._of(term, space, sites)
        object.__setattr__(out, "_edges", edges)
        return out

    def space_at(self, addr: Address) -> Space:
        """The working space of a node: the output space of the map on
        the edge into it, the command's space at the root."""
        if addr not in self.tree:
            raise InvalidAddressError("no node at address %r" % (addr,))
        return _here(self._edges, addr, self.space)

    def edge_map(self, addr: Address) -> Transducer:
        """The reassignment applied when stepping from addr[:-1] to addr."""
        if not addr or addr not in self.tree:
            raise InvalidAddressError("no edge into %r" % (addr,))
        return self._edges[addr[:-1]][addr[-1]]

    @cached_property
    def _lowered(self) -> tuple[dict[Address, Transducer], fc.Flowchart]:
        """val at every address, and the flowchart of every test pulled
        back to the input, from one top-down pass on first use."""
        vals: dict[Address, Transducer] = {(): identity_map(self.space)}
        sets: dict[Address, fc.NodeSets] = {}
        # Sorted addresses put every parent before its children.
        for addr, site in self.assign:
            acc = vals[addr]
            if isinstance(site, ArrowSite):
                sets[addr] = preimage(acc, site.test).with_level(ONE)
            elif isinstance(site, JoinSite):
                sets[addr] = tuple(preimage(acc, test).with_level(ONE) for test, _ in site.members)
            for n, m in enumerate(self._edges[addr]):
                vals[addr + (n,)] = compose(m, acc)
        # Every pulled-back test lives in the input space.
        return vals, fc.Flowchart._of(self.term, self.space, sets)

    def __repr__(self):
        return "Command(%d sites, %r)" % (len(self.assign), self.space)


def _wire(term: Term, space: Space, keys, site_at):
    """Give every node of a closed term its site and the maps on its
    edges out (_edge_maps), top down.

    An open term is refused before any site is read.  The root works in
    `space`, a child in the output space of the map on the edge into it
    (a ~> node's fallthrough edge keeps the space).  site_at(addr,
    label, here, arity) gives the site of each node but a constant
    leaf.  `keys` are the addresses given a site; a constant leaf or an
    address outside the tree among them raises ValueError.
    """
    if not is_closed(term):
        raise OpenTermError("commands need closed terms")
    tree = syntax_tree(term)
    sites: dict[Address, Site] = {}
    edges: dict[Address, tuple[Transducer, ...]] = {}
    arity = tree.arity
    # A term's table is in address order: every parent before its children.
    for addr, label in tree.nodes.items():
        if isinstance(label, Const):
            if addr in keys:
                raise ValueError("leaf %r takes no site" % (addr,))
            continue
        here = _here(edges, addr, space)
        site = sites[addr] = site_at(addr, label, here, arity[addr])
        edges[addr] = _edge_maps(site, here)
    extra = set(keys) - tree.nodes.keys()
    if extra:
        raise ValueError("sites at addresses outside the tree: %r" % sorted(extra))
    return sites, edges


def _here(edges, addr: Address, space: Space) -> Space:
    """The working space of a node: the output space of the map on the
    edge into it, `space` at the root."""
    return edges[addr[:-1]][addr[-1]].output_space if addr else space


def _edge_maps(site: Site, here: Space) -> tuple[Transducer, ...]:
    """The map on each edge out of a node working in `here`, in child
    order; a ~> node's fallthrough edge keeps the value."""
    if isinstance(site, ArrowSite):
        return (identity_map(here), site.then_map)
    if isinstance(site, JoinSite):
        return tuple(m for _, m in site.members)
    return (site.child_map,)


def _fit(site, addr: Address, label, here: Space, arity: int) -> Site:
    """Check a site against its node: the node's kind and arity, every
    test living in the node's working space, every map reading it."""
    if isinstance(label, ArrowL):
        if not isinstance(site, ArrowSite):
            raise ValueError("~> node %r needs a test and a map" % (addr,))
        edges = ((site.test, site.then_map),)
    elif isinstance(label, JoinL):
        if not isinstance(site, JoinSite) or len(site.members) != arity:
            raise ValueError("join node %r needs %d (test, map) pairs" % (addr, arity))
        edges = site.members
    else:
        if not isinstance(site, VeblenSite):
            raise ValueError("veblen node %r needs a map" % (addr,))
        edges = ((None, site.child_map),)
    for test, m in edges:
        if test is not None:
            if not isinstance(test, ClopenSet):
                raise ValueError("test at %r is not a set" % (addr,))
            if test.space is not here and test.space != here:
                raise SpaceMismatchError(
                    "test at %r lives in %r but the node works in %r" % (addr, test.space, here)
                )
        if not isinstance(m, Transducer):
            raise ValueError("map at %r is not a transducer" % (addr,))
        if m.input_space is not here and m.input_space != here:
            raise SpaceMismatchError(
                "map at %r reads %r but the node works in %r" % (addr, m.input_space, here)
            )
    return site


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
    if x.space is not c.space and x.space != c.space:
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
    return all(
        m._identity
        for addr, site in c.assign
        if not isinstance(site, VeblenSite)
        for m in c._edges[addr]
    )


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
    its declared levels are all 1 (every set here is clopen).  It
    compiles its own domains, and must not take them from a chart the
    command was translated from: transform --verify and the round-trip
    checks compare the two sides' compiles, which sharing would make
    one compile compared with itself.
    """
    return c._lowered[1]


def flowchart_to_simple_command(f: fc.Flowchart) -> Command:
    """Transport the sets unchanged and reassign nothing.

    Veblen nodes with a positive index stand for jump operators, which
    have no continuous realization; only index 0 (whose edge may keep
    the identity) is accepted.
    """
    ident = identity_map(f.space)

    # _wire walks in address order, so the first refusal is the least
    # address's.  Every node works in f.space, where f's sets live.
    def site(addr, label, here, arity):
        if isinstance(label, ArrowL):
            return ArrowSite(f._at[addr], ident)
        if isinstance(label, JoinL):
            return JoinSite(tuple((s, ident) for s in f._at[addr]))
        if not label.index.is_zero:
            raise UnsupportedError(
                "veblen node %r has positive index; only continuous reassignments exist here"
                % (addr,)
            )
        return VeblenSite(ident)

    return Command._of(f.term, f.space, *_wire(f.term, f.space, (), site))


def make_strongly_total(c: Command) -> Command:
    """Pad a total simple command so every join family covers the space.

    Working over the domains D of the transported flowchart, whose sets
    are the command's tests: every test is first shrunk into its node's
    domain, then the 0-indexed join member absorbs the complement of
    the domain.  The shrunk tests are the child domains the flowchart's
    compile already holds (D ∩ S at a ~> node's right child, D ∩ S_i at
    join child i), so they are read off it.  Points inside D_sigma
    never meet the padding, so evaluation is unchanged; points outside
    D_sigma are off every true path through sigma, so routing them
    into member 0 is harmless.  All maps stay the identity and the
    result's levels are 1.

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
    tries, space = f._domains, c.space
    ident = identity_map(space)
    assign: dict[Address, Site] = {}
    for addr, site in c.assign:
        if isinstance(site, ArrowSite):
            assign[addr] = ArrowSite(ClopenSet._of(space, tries[addr + (1,)], ONE), ident)
            continue
        d = tries[addr]
        kids = [tries[addr + (i,)] for i in range(len(site.members))]
        covered = False
        for kid in kids:
            covered = _combine(covered, kid, True)
        hole = _combine(d, covered, False, True)
        if hole is not False:
            raise UnsupportedError(
                "the join family at %s misses part of its domain (least point %s)"
                % (fc.render_address(addr) or "e", render_point(_leftmost(space, hole, True)))
            )
        # Member 0 absorbs the complement of the domain.
        kids[0] = _combine(kids[0], d, True, True)
        assign[addr] = JoinSite(tuple((ClopenSet._of(space, t, ONE), ident) for t in kids))
    # c's term is closed and Veblen-free: every node but a leaf has a site.
    return Command._of(c.term, space, *_wire(c.term, space, (), lambda addr, *_: assign[addr]))


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
        "term": encode_tree(c.tree),
        "assign": assign,
    }


def _decode_site_record(entry, space: Space, addr: Address, known: dict, want_test: bool):
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
        test = fc._decode_set(space, entry["test"], addr, known)
    else:
        test = None
    m = decode_map(entry.get("map", "identity"), space)
    return test, m


def decode_command(doc) -> Command:
    """Decode the JSON side of a command: record keys, the `else` edge,
    map references and set literals, each read in its node's working
    space, each distinct set literal once per space.  An open term is
    refused before any site is read.  The sites and edge maps of that
    one reading walk make the Command once each site is fitted to its
    node, in address order after the walk, so a map that does not read
    its node's space is reported after every decoding error, whatever
    its address."""
    space, term, raw = fc._decode_header(doc, "command")
    entries = {fc.parse_address(key): entry for key, entry in raw.items()}
    # The set entries decoded so far, per working space.
    known: dict[Space, dict] = {}

    def read(addr, label, here, arity):
        if addr not in entries:
            raise DocumentError("missing site at %r" % (addr,))
        entry = entries[addr]
        sets = known.setdefault(here, {})
        if isinstance(label, ArrowL):
            return ArrowSite(*_decode_site_record(entry, here, addr, sets, want_test=True))
        if isinstance(label, JoinL):
            if not isinstance(entry, list) or len(entry) != arity:
                raise DocumentError("join node %r needs %d site records" % (addr, arity))
            return JoinSite(tuple(_decode_site_record(r, here, addr, sets, want_test=True) for r in entry))
        return VeblenSite(_decode_site_record(entry, here, addr, sets, want_test=False)[1])

    try:
        sites, edges = _wire(term, space, entries, read)
        tree = syntax_tree(term)
        for addr, site in sites.items():
            _fit(site, addr, tree.nodes[addr], _here(edges, addr, space), tree.arity[addr])
    except (ValueError, OpenTermError, SpaceMismatchError) as e:
        raise DocumentError(str(e)) from None
    return Command._of(term, space, sites, edges)
