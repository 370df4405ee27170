"""Flowcharts: set assignments on syntax trees, and their evaluation.

A flowchart attaches one test set to every sequencing (~>) node and a
finite family of sets to every join node of a closed term's syntax
tree; leaves and Veblen nodes implicitly carry the full space.
Evaluating at a point walks the tree: a sequencing node branches on
membership in its set (left on out, right on in), a join node branches
to every member whose set contains the point, a Veblen node passes
through.  The labels of the leaves reached this way are the value.

The domain assignment D gives each address the set of points that
reach it.  A chart is compiled once, on first use: D, and for each
label the union of the domains of the leaves carrying it, its reach
set.  The reach sets are the chart's multi-terminal decision diagram
sliced per label, so evaluation reads one letter per trie level of
each label's set, and totality, determinism and whole-space
equivalence are Boolean operations on them, decided exactly, with
least-point witnesses on failure.  The pointwise walker
(true_positions, true_paths) reports which nodes a point passes; it
serves traces and is not used by evaluation.

Transformations: to_monotone shrinks every assigned set into its
domain (normal terms only), to_reduced makes join families pairwise
disjoint by successive differences, pullback substitutes a continuous
map into every set, and vaught_transform pushes a flowchart forward
along an open surjection of name spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DocumentError,
    AmbiguousLabelsError,
    InvalidAddressError,
    NonNormalTermError,
    NoTruePathError,
    NotMonotoneError,
    OpenTermError,
    ParseError,
    SpaceMismatchError,
    UnsupportedError,
)
from .ordinal import ONE, cmp, parse_ordinal, render_ordinal
from .space import ClopenSet, Space, UpPoint, _leftmost, _level, least_point, member, parse_clopen, render_clopen
from .term import (
    Address,
    ArrowL,
    Const,
    JoinL,
    SyntaxTree,
    Term,
    VeblenL,
    _read_nodes,
    borel_ranks,
    encode_tree,
    is_closed,
    is_normal,
    syntax_tree,
    term_from_tree,
)
from .transducer import Transducer, image, preimage

__all__ = [
    "Flowchart",
    "domain_assignment",
    "true_positions",
    "true_paths",
    "eval_flowchart",
    "eval_outcome",
    "equivalent",
    "is_total",
    "is_deterministic",
    "is_monotone",
    "to_monotone",
    "to_reduced",
    "pullback",
    "vaught_transform",
    "check_levels",
    "encode_flowchart",
    "decode_flowchart",
    "render_address",
    "parse_address",
]


NodeSets = ClopenSet | tuple[ClopenSet, ...]


@dataclass(frozen=True)
class Flowchart:
    """A closed term plus a set assignment over its syntax tree.

    `assign` maps addresses of ~> nodes to one set and addresses of
    join nodes to a tuple of sets, one per child.  Accepts a dict and
    freezes it into a sorted tuple of pairs.  Declared levels are NOT
    enforced here (check_levels is the separate judgement); shapes and
    spaces are.
    """

    term: Term
    space: Space
    assign: tuple[tuple[Address, NodeSets], ...]

    def __post_init__(self):
        if not is_closed(self.term):
            raise OpenTermError("flowcharts need closed terms")
        cooked: dict[Address, NodeSets] = _cook(self.assign, "assignment")
        tree = self.tree
        for addr in tree.addresses():
            label = tree.label(addr)
            if isinstance(label, ArrowL):
                got = cooked.get(addr)
                if not isinstance(got, ClopenSet):
                    raise ValueError("~> node %r needs exactly one set" % (addr,))
                self._check_set(got, addr)
            elif isinstance(label, JoinL):
                got = cooked.get(addr)
                arity = len(tree.children(addr))
                if not isinstance(got, tuple) or len(got) != arity:
                    raise ValueError(
                        "join node %r needs a family of %d sets" % (addr, arity)
                    )
                for s in got:
                    self._check_set(s, addr)
            elif addr in cooked:
                raise ValueError("node %r takes no assignment" % (addr,))
        extra = set(cooked) - set(tree.addresses())
        if extra:
            raise ValueError("assignment at addresses outside the tree: %r" % sorted(extra))
        object.__setattr__(self, "assign", tuple(sorted(cooked.items())))
        object.__setattr__(self, "_at", cooked)

    def _check_set(self, s, addr):
        if not isinstance(s, ClopenSet):
            raise ValueError("assignment at %r is not a set" % (addr,))
        if s.space != self.space:
            raise SpaceMismatchError(
                "set at %r lives in %r, flowchart in %r" % (addr, s.space, self.space)
            )

    @property
    def tree(self) -> SyntaxTree:
        """The term's own syntax tree, shared with every chart on it."""
        return syntax_tree(self.term)

    def at(self, addr: Address) -> NodeSets:
        try:
            return self._at[addr]
        except KeyError:
            raise InvalidAddressError("no assignment at %r" % (addr,)) from None

    def replace_sets(self, rewrite) -> "Flowchart":
        """A copy with every assigned set passed through `rewrite(addr, s)`."""
        return _map_sets(self, rewrite, self.space)

    @cached_property
    def _domains(self) -> dict[Address, ClopenSet]:
        """The domain assignment, computed top down on first use.

        A chart made by to_monotone keeps its source's domains as sets;
        it takes their tries and recomputes only the declared levels.
        """
        tree = self.tree
        source = self.__dict__.pop("_same_domains", None)
        known = source._domains if source is not None else None
        domains: dict[Address, ClopenSet] = {(): ClopenSet.full(self.space)}
        for addr in tree.addresses():
            if not addr:
                continue
            parent, i = addr[:-1], addr[-1]
            label = tree.label(parent)
            d = domains[parent]
            if isinstance(label, ArrowL):
                s, negate = self._at[parent], i == 0
            elif isinstance(label, JoinL):
                s, negate = self._at[parent][i], False
            else:
                domains[addr] = d
                continue
            if known is not None:
                domains[addr] = ClopenSet._of(self.space, known[addr].trie, _level(d, s, negate))
            elif negate:
                domains[addr] = d.difference(s)
            else:
                domains[addr] = d.intersect(s)
        return domains

    @cached_property
    def _reach(self) -> dict[str, ClopenSet]:
        """Each label's reach set: the union of the domains of the leaves
        carrying it, in address order of first appearance."""
        tree = self.tree
        reach: dict[str, ClopenSet] = {}
        for addr, d in self._domains.items():
            label = tree.label(addr)
            if isinstance(label, Const):
                q = label.label
                reach[q] = reach[q].union(d) if q in reach else d
        return reach

    def __repr__(self):
        return "Flowchart(%d assigned nodes, %r)" % (len(self.assign), self.space)


def _cook(raw, what: str) -> dict:
    """An assignment given as a dict or as (address, value) pairs, keyed
    by address tuples, each address once; list values become tuples."""
    if isinstance(raw, dict):
        raw = raw.items()
    cooked = {}
    for addr, value in raw:
        addr = tuple(addr)
        if addr in cooked:
            raise ValueError("duplicate %s at %r" % (what, addr))
        cooked[addr] = tuple(value) if isinstance(value, (tuple, list)) else value
    return cooked


def _map_sets(f: Flowchart, rewrite, space: Space) -> Flowchart:
    """The chart over `space` whose every assigned set is `rewrite(addr, s)`."""
    new: dict[Address, NodeSets] = {}
    for addr, sets in f.assign:
        if isinstance(sets, tuple):
            new[addr] = tuple(rewrite(addr, s) for s in sets)
        else:
            new[addr] = rewrite(addr, sets)
    return Flowchart(f.term, space, new)


# ---------------------------------------------------------------------------
# Domains and evaluation.


def domain_assignment(f: Flowchart) -> dict[Address, ClopenSet]:
    """The set of points reaching each address.

    The root gets the full space.  A ~> node sends its set's complement
    left and its set right, a join node intersects with each family
    member, a Veblen node passes its domain through unchanged.  Returns
    a copy of the chart's compiled domains.
    """
    return dict(f._domains)


def true_positions(f: Flowchart, x: UpPoint) -> list[Address]:
    """All addresses the point reaches, branching down from the root."""
    if x.space != f.space:
        raise SpaceMismatchError("point in %r, flowchart in %r" % (x.space, f.space))
    tree = f.tree
    out: list[Address] = []
    stack: list[Address] = [()]
    while stack:
        addr = stack.pop()
        out.append(addr)
        label = tree.label(addr)
        if isinstance(label, ArrowL):
            stack.append(addr + ((1,) if member(x, f.at(addr)) else (0,)))
        elif isinstance(label, JoinL):
            stack.extend(addr + (n,) for n, s in enumerate(f.at(addr)) if member(x, s))
        elif isinstance(label, VeblenL):
            stack.append(addr + (0,))
    return sorted(out)


def true_paths(f: Flowchart, x: UpPoint) -> list[tuple[Address, str]]:
    """The leaves reached, with their constant labels."""
    tree = f.tree
    out = []
    for addr in true_positions(f, x):
        label = tree.label(addr)
        if isinstance(label, Const):
            out.append((addr, label.label))
    return out


def _labels_at(f: Flowchart, x: UpPoint) -> list[str]:
    """The labels of the leaves the point reaches: those whose reach
    trie leads to True along the point's letters."""
    if x.space != f.space:
        raise SpaceMismatchError("point in %r, flowchart in %r" % (x.space, f.space))
    labels = []
    for q, s in f._reach.items():
        node = s.trie
        i = 0
        while node.__class__ is tuple:
            node = node[x.letter(i)]
            i += 1
        if node:
            labels.append(q)
    return labels


def eval_flowchart(f: Flowchart, x: UpPoint) -> str:
    """The unique true-path label; all true paths must agree on it."""
    labels = _labels_at(f, x)
    if not labels:
        raise NoTruePathError("no true path at %s" % x)
    if len(labels) > 1:
        raise AmbiguousLabelsError(labels)
    return labels[0]


def eval_outcome(f: Flowchart, x: UpPoint) -> tuple:
    """Evaluation as a comparable token, errors included.

    ("value", label) | ("no-true-path",) | ("ambiguous", frozenset).
    Lets transforms assert exact agreement of outputs and error kinds.
    """
    labels = _labels_at(f, x)
    if not labels:
        return ("no-true-path",)
    if len(labels) > 1:
        return ("ambiguous", frozenset(labels))
    return ("value", labels[0])


def equivalent(f: Flowchart, g: Flowchart) -> bool:
    """Do two charts evaluate alike at every point of the space?

    Exactly when they live in the same space and every label has the
    same reach set in both, a label missing from one chart reaching
    nothing there.  Decided on the whole space, not on a sample.
    """
    if f.space != g.space:
        return False
    empty = ClopenSet.empty(f.space)
    return all(
        f._reach.get(q, empty) == g._reach.get(q, empty) for q in f._reach.keys() | g._reach.keys()
    )


# ---------------------------------------------------------------------------
# Decision procedures.


def is_total(f: Flowchart) -> tuple[bool, UpPoint | None]:
    """Does every point have a true path?

    The points with a true path are those reaching some leaf: the union
    of the reach sets.  A join family that misses part of its domain is
    not by itself a failure; the point may still ride an overlapping
    sibling branch to a leaf.  On failure the witness is the least point
    with no true path, read off the union's leftmost False leaf.
    """
    reached = ClopenSet.empty(f.space)
    for d in f._reach.values():
        reached = reached.union(d)
    if reached.is_full:
        return True, None
    return False, _leftmost(f.space, reached.trie, False)


def is_deterministic(f: Flowchart) -> tuple[bool, UpPoint | None]:
    """Can two true paths ever disagree on the label?

    Exactly when the reach sets of distinct labels never meet;
    same-label overlap is allowed.  Each label's reach set is met with
    the union of the labels before it.  On failure the witness is the
    least point reached by two distinct labels.
    """
    seen = clash = ClopenSet.empty(f.space)
    for d in f._reach.values():
        clash = clash.union(seen.intersect(d))
        seen = seen.union(d)
    if clash.is_empty:
        return True, None
    return False, least_point(clash)


def is_monotone(f: Flowchart) -> bool:
    """Is every assigned set contained in its node's domain?"""
    domains = f._domains
    for addr, sets in f.assign:
        family = sets if isinstance(sets, tuple) else (sets,)
        if not all(s.is_subset(domains[addr]) for s in family):
            return False
    return True


# ---------------------------------------------------------------------------
# Transformations.


def to_monotone(f: Flowchart) -> Flowchart:
    """Shrink every assigned set into its domain: S' = D ∩ S.

    Only for normal terms; there the shrunken sets keep their levels
    within rank (the out-branch of a ~> node leads into a leaf or a
    Veblen node, whose rank absorbs the bump).  Evaluation is unchanged
    pointwise, errors included, because domains are invariant: the
    result keeps f's domain tries and recomputes only their levels.
    """
    if not is_normal(f.term):
        raise NonNormalTermError("the shrink-to-domain transform needs a normal term")
    domains = f._domains
    g = f.replace_sets(lambda addr, s: domains[addr].intersect(s))
    # Read once, by g's first domain compile, and dropped there.
    object.__setattr__(g, "_same_domains", f)
    return g


def to_reduced(f: Flowchart) -> Flowchart:
    """Make every join family pairwise disjoint by successive differences.

    R*_n = R_n minus the union of the earlier members; unions per node
    are unchanged, and so is evaluation whenever the input was
    deterministic.  Levels are kept: differences of clopen sets are
    clopen.
    """
    new: dict[Address, NodeSets] = {}
    for addr, sets in f.assign:
        if not isinstance(sets, tuple):
            new[addr] = sets
            continue
        seen = ClopenSet.empty(f.space)
        family = []
        for s in sets:
            family.append(s.difference(seen).with_level(s.declared_level))
            seen = seen.union(s)
        new[addr] = tuple(family)
    return Flowchart(f.term, f.space, new)


def pullback(f: Flowchart, theta: Transducer) -> Flowchart:
    """Substitute a continuous map into every test: sets become preimages.

    The result lives over theta's input space and computes x -> f(theta(x)).
    """
    if theta.output_space != f.space:
        raise SpaceMismatchError(
            "map lands in %r, flowchart lives in %r" % (theta.output_space, f.space)
        )
    return _map_sets(f, lambda addr, s: preimage(theta, s), theta.input_space)


def vaught_transform(f: Flowchart, delta: Transducer, depth_bound: int) -> Flowchart:
    """Push a monotone flowchart over names forward along an open surjection.

    Every assigned set A becomes the image delta[A]: for clopen A the
    fiber intersection is relatively open, and a nonempty open subset of
    a Polish fiber is non-meager, so the category transform and the
    direct image agree.  Monotonicity of the input is required;
    surjectivity is spot-checked as image(delta, full) = full.  Raises
    UndecidedImageError if any image is unresolved at the depth bound.
    """
    if delta.input_space != f.space:
        raise SpaceMismatchError(
            "map reads %r, flowchart lives in %r" % (delta.input_space, f.space)
        )
    if not is_monotone(f):
        raise NotMonotoneError("the Vaught transform needs a monotone flowchart")
    onto = image(delta, ClopenSet.full(f.space), depth_bound)
    if not onto.is_full:
        raise UnsupportedError("the name map is not surjective; its range is %s" % onto)
    return _map_sets(f, lambda addr, s: image(delta, s, depth_bound), delta.output_space)


def check_levels(f: Flowchart) -> bool:
    """Is every declared level within its node's rank?"""
    ranks = borel_ranks(f.term)
    for addr, sets in f.assign:
        rank = ranks[addr]
        family = sets if isinstance(sets, tuple) else (sets,)
        if any(cmp(s.declared_level, rank) > 0 for s in family):
            return False
    return True


# ---------------------------------------------------------------------------
# Documents.
#
#   {"kind": "flowchart", "space": k, "term": {"nodes": [...]},
#    "assign": {"": "{1}", "1": ["{10}", "{11}"]}}
#
# Addresses are dotted ASCII decimals without leading zeros ("" is the
# root), so each address has one key.  A set is its literal when at
# level 1, else {"set": literal, "level": ordinal}.


def render_address(addr: Address) -> str:
    return ".".join(str(i) for i in addr)


def parse_address(text: str) -> Address:
    if text == "":
        return ()
    parts = text.split(".")
    if not all(p.isascii() and p.isdigit() and (p == "0" or p[0] != "0") for p in parts):
        raise DocumentError("bad address key %r" % text)
    return tuple(int(p) for p in parts)


def _encode_set(s: ClopenSet):
    if s.declared_level == ONE:
        return render_clopen(s)
    return {"set": render_clopen(s), "level": render_ordinal(s.declared_level)}


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _decode_set(space: Space, entry, addr: Address) -> ClopenSet:
    """The set an entry at `addr` writes.  An error names the address
    and the parser's reason, which carries its line and column, on one
    capped line; the entry itself may be any size."""
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
        where = _clip(render_address(addr), 40)
        raise DocumentError("bad set entry at address %r: %s" % (where, _clip(str(e), 160))) from None
    raise DocumentError("malformed set entry at address %r" % _clip(render_address(addr), 40))


def encode_flowchart(f: Flowchart) -> dict:
    assign = {}
    for addr, sets in f.assign:
        if isinstance(sets, tuple):
            assign[render_address(addr)] = [_encode_set(s) for s in sets]
        else:
            assign[render_address(addr)] = _encode_set(sets)
    return {
        "kind": "flowchart",
        "space": f.space.alphabet_size,
        "term": encode_tree(f.tree),
        "assign": assign,
    }


def _decode_header(doc, kind: str) -> tuple[Space, Term, dict]:
    """What every document kind checks first: its kind, an integer space,
    the term, and an assign object."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DocumentError("a %s document has kind '%s'" % (kind, kind))
    if not isinstance(doc.get("space"), int):
        raise DocumentError("%s document needs an integer space" % kind)
    try:
        space = Space(doc["space"])
    except ValueError as e:
        raise DocumentError(str(e)) from None
    term = term_from_tree(_read_nodes(doc.get("term")))
    raw = doc.get("assign")
    if not isinstance(raw, dict):
        raise DocumentError("%s document needs an assign object" % kind)
    return space, term, raw


def decode_flowchart(doc) -> Flowchart:
    """Decode and validate: shapes, spaces, and the level discipline."""
    space, term, raw = _decode_header(doc, "flowchart")
    assign: dict[Address, NodeSets] = {}
    for key, entry in raw.items():
        addr = parse_address(key)
        if isinstance(entry, list):
            assign[addr] = tuple(_decode_set(space, e, addr) for e in entry)
        else:
            assign[addr] = _decode_set(space, entry, addr)
    try:
        f = Flowchart(term, space, assign)
    except (ValueError, OpenTermError, SpaceMismatchError) as e:
        raise DocumentError(str(e)) from None
    if not check_levels(f):
        raise DocumentError("declared level exceeds the node rank")
    return f
