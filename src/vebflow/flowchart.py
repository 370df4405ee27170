"""Flowcharts: set assignments on syntax trees, and their evaluation.

A flowchart attaches one test set to every sequencing (~>) node and a
finite family of sets to every join node of a closed term's syntax
tree; leaves and Veblen nodes implicitly carry the full space.
Evaluating at a point walks the tree: a sequencing node branches on
membership in its set (left on out, right on in), a join node branches
to every member whose set contains the point, a Veblen node passes
through.  The labels of the leaves reached this way are the value.

The domain assignment D gives each address the set of points that
reach it.  A chart is compiled once, on first use, to tries alone: the
trie of each domain, and for each label the union of the domains of
the leaves carrying it, its reach trie; domain_assignment adds the
declared levels.  The reach tries are the chart's multi-terminal
decision diagram sliced per label.  Totality, determinism and
whole-space equivalence are decided on those tries, exactly, with
least-point witnesses on failure; totality and determinism share the
running unions of the reach tries, kept with the compile.  Evaluation
walks the outcome trie, the product of the reach tries, which is
expanded one cell at a time as points walk it: one walk per point,
ending at the outcome _outcome gives the labels reached.  The pointwise
walker (true_positions, true_paths) reports which nodes a point passes;
it serves traces and is not used by evaluation.

Transformations: to_monotone shrinks every assigned set into its
domain (normal terms only); the shrunk sets are the child domains of
the compile, which the result shares, so is_monotone finds them in
place.  to_reduced makes join families pairwise disjoint by successive
differences, pullback substitutes a continuous map into every set, and
vaught_transform pushes a flowchart forward along an open surjection
of name spaces.

Flowchart(...) is the checking constructor and the only way in for
outside input: replace_sets and decode_flowchart go through it.  The
transforms and a command's lowering wrap their results with
Flowchart._of instead, unchecked; _of is only for sets built from a
valid chart over the same term, each in the result's space.
"""

from __future__ import annotations

import re
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
from .space import ClopenSet, Space, Trie, UpPoint, _check_alphabet, _child, _combine, _leftmost, _level, _lockstep, member, parse_clopen, render_clopen, render_point, render_word
from .term import (
    Address,
    ArrowL,
    Const,
    JoinL,
    SyntaxTree,
    Term,
    VeblenL,
    _read_nodes,
    borel_rank,
    encode_tree,
    is_closed,
    is_normal,
    syntax_tree,
    term_from_tree,
)
from .transducer import Transducer, _outside_range, image, is_open, preimage

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
class _Assigned:
    """The store a chart and a command share: a closed term, a space,
    and one value per assigned node, kept sorted by address in `assign`
    and keyed by address in `_at`.  `_noun` names a value in messages."""

    term: Term
    space: Space
    assign: tuple

    _noun = "assignment"

    def _keep(self, at: dict) -> None:
        object.__setattr__(self, "assign", tuple(sorted(at.items())))
        object.__setattr__(self, "_at", at)

    @classmethod
    def _of(cls, term: Term, space: Space, at: dict):
        """Wrap an assignment unchecked: for values built from a valid
        chart or command on the same term, each fitted to its node and
        in its node's space, keyed by address tuples."""
        out = object.__new__(cls)
        object.__setattr__(out, "term", term)
        object.__setattr__(out, "space", space)
        out._keep(at)
        return out

    @property
    def tree(self) -> SyntaxTree:
        """The term's own syntax tree, shared with every chart on it."""
        return syntax_tree(self.term)

    def at(self, addr: Address):
        try:
            return self._at[addr]
        except KeyError:
            raise InvalidAddressError("no %s at %r" % (self._noun, addr)) from None


@dataclass(frozen=True)
class Flowchart(_Assigned):
    """A closed term plus a set assignment over its syntax tree.

    `assign` maps addresses of ~> nodes to one set and addresses of
    join nodes to a tuple of sets, one per child.  Accepts a dict and
    freezes it into a sorted tuple of pairs.  Declared levels are NOT
    enforced here (check_levels is the separate judgement); shapes and
    spaces are.
    """

    def __post_init__(self):
        if not is_closed(self.term):
            raise OpenTermError("flowcharts need closed terms")
        cooked: dict[Address, NodeSets] = _cook(self.assign, self._noun)
        tree = self.tree
        nodes = tree.nodes
        arities = tree.arity
        # A term's table is in address order.
        for addr, label in nodes.items():
            if isinstance(label, ArrowL):
                got = cooked.get(addr)
                if not isinstance(got, ClopenSet):
                    raise ValueError("~> node %r needs exactly one set" % (addr,))
                self._check_set(got, addr)
            elif isinstance(label, JoinL):
                got = cooked.get(addr)
                arity = arities[addr]
                if not isinstance(got, tuple) or len(got) != arity:
                    raise ValueError(
                        "join node %r needs a family of %d sets" % (addr, arity)
                    )
                for s in got:
                    self._check_set(s, addr)
            elif addr in cooked:
                raise ValueError("node %r takes no assignment" % (addr,))
        extra = cooked.keys() - nodes.keys()
        if extra:
            raise ValueError("assignment at addresses outside the tree: %r" % sorted(extra))
        self._keep(cooked)

    def _check_set(self, s, addr):
        if not isinstance(s, ClopenSet):
            raise ValueError("assignment at %r is not a set" % (addr,))
        if s.space is not self.space and s.space != self.space:
            raise SpaceMismatchError(
                "set at %r lives in %r, flowchart in %r" % (addr, s.space, self.space)
            )

    def replace_sets(self, rewrite) -> "Flowchart":
        """A copy with every assigned set passed through `rewrite(addr, s)`,
        checked like any outside assignment."""
        return Flowchart(self.term, self.space, _map_sets(self, rewrite))

    @cached_property
    def _domains(self) -> dict[Address, Trie]:
        """Each address's domain trie, computed top down on first use."""
        domains: dict[Address, Trie] = {(): True}
        for addr, parent, s, negate in _edges(self):
            domains[addr] = _combine(domains[parent], s.trie, False, negate)
        return domains

    @cached_property
    def _reach(self) -> dict[str, Trie]:
        """Each label's reach trie: the union of the domains of the leaves
        carrying it, in address order of first appearance."""
        tree = self.tree
        reach: dict[str, Trie] = {}
        for addr, d in self._domains.items():
            label = tree.label(addr)
            if isinstance(label, Const):
                q = label.label
                reach[q] = _combine(reach.get(q, False), d, True)
        return reach

    @cached_property
    def _unions(self) -> tuple[Trie, ...]:
        """The running unions of the reach tries, in _reach order: entry n
        is the union of the first n + 1.  The last is the set of points
        with a true path; is_total and is_deterministic both read them."""
        unions = []
        seen: Trie = False
        for t in self._reach.values():
            seen = _combine(seen, t, True)
            unions.append(seen)
        return tuple(unions)

    @cached_property
    def _outcomes(self):
        """The root of the outcome trie, expanded lazily by eval_outcome.

        A cell is a list: one slot per letter, None until first used,
        and last the tuple of the labels' reach-trie nodes at the cell's
        word, in _reach order; below a packed table, the node is the
        table's part at the word (`space._child`), so evaluation at a
        few points does not expand a deep table.  A slot holds the next
        cell, or the outcome token once every node there is a leaf.
        Each cell stands for one word: none is ever merged with another.
        """
        return _cell(self, tuple(self._reach.values()))

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


def _map_sets(f: Flowchart, rewrite) -> dict[Address, NodeSets]:
    """The assignment whose every set is `rewrite(addr, s)`."""
    new: dict[Address, NodeSets] = {}
    for addr, sets in f.assign:
        if isinstance(sets, tuple):
            new[addr] = tuple(rewrite(addr, s) for s in sets)
        else:
            new[addr] = rewrite(addr, sets)
    return new


# ---------------------------------------------------------------------------
# Domains and evaluation.


def _edges(f: Flowchart):
    """Each tree edge as (addr, parent, set, negate), parents first.  A
    ~> node sends its set's complement left and its set right, a join
    node meets each family member, a Veblen node passes the full space."""
    nodes = f.tree.nodes
    full = ClopenSet.full(f.space)
    # A term's table is in address order: the root first, and every
    # parent before its children.
    for addr in nodes:
        if not addr:
            continue
        parent, i = addr[:-1], addr[-1]
        label = nodes[parent]
        if isinstance(label, ArrowL):
            yield addr, parent, f._at[parent], i == 0
        elif isinstance(label, JoinL):
            yield addr, parent, f._at[parent][i], False
        else:
            yield addr, parent, full, False


def domain_assignment(f: Flowchart) -> dict[Address, ClopenSet]:
    """The set of points reaching each address (the root's is the full
    space): the compiled domain tries, at the levels _edges gives them."""
    tries = f._domains
    domains = {(): ClopenSet.full(f.space)}
    for addr, parent, s, negate in _edges(f):
        domains[addr] = ClopenSet._of(f.space, tries[addr], _level(domains[parent], s, negate))
    return domains


def true_positions(f: Flowchart, x: UpPoint) -> list[Address]:
    """All addresses the point reaches, branching down from the root."""
    if x.space is not f.space and x.space != f.space:
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


def _outcome(labels) -> tuple:
    """The outcome of a point whose true paths end at these distinct
    labels: ("value", label) | ("no-true-path",) | ("ambiguous", frozenset)."""
    if not labels:
        return ("no-true-path",)
    if len(labels) > 1:
        return ("ambiguous", frozenset(labels))
    return ("value", next(iter(labels)))


def _cell(f: Flowchart, nodes: tuple):
    """The outcome-trie cell over these reach-trie nodes, or the outcome
    when they are all leaves."""
    for n in nodes:
        if n.__class__ is not bool:
            return [None] * f.space.alphabet_size + [nodes]
    return _outcome([q for q, n in zip(f._reach, nodes) if n])


def eval_flowchart(f: Flowchart, x: UpPoint) -> str:
    """The unique true-path label; all true paths must agree on it."""
    token = eval_outcome(f, x)
    if token[0] == "value":
        return token[1]
    if token[0] == "no-true-path":
        raise NoTruePathError("no true path at %s" % x)
    raise AmbiguousLabelsError(token[1])


def eval_outcome(f: Flowchart, x: UpPoint) -> tuple:
    """Evaluation as a comparable token, errors included.

    ("value", label) | ("no-true-path",) | ("ambiguous", frozenset).
    Lets transforms assert exact agreement of outputs and error kinds.
    The point's letters walk down the outcome trie to its token, and
    each empty slot on the way is filled: every inner node steps down
    by the letter, and every leaf stays.
    """
    if x.space is not f.space and x.space != f.space:
        raise SpaceMismatchError("point in %r, flowchart in %r" % (x.space, f.space))
    cell = f._outcomes
    # The prefix's letters, then the period's, over and over.
    letters, i = x.prefix, 0
    while cell.__class__ is list:
        if i == len(letters):
            letters, i = x.period, 0
        a = letters[i]
        nxt = cell[a]
        if nxt is None:
            nodes = tuple(
                n[a] if n.__class__ is tuple else n if n.__class__ is bool else _child(n, a) for n in cell[-1]
            )
            nxt = cell[a] = _cell(f, nodes)
        cell = nxt
        i += 1
    return cell


def equivalent(f: Flowchart, g: Flowchart) -> bool:
    """Do two charts evaluate alike at every point of the space?

    Exactly when they live in the same space and every label has the
    same reach trie in both, a label missing from one chart reaching
    nothing there.  Decided on the whole space, not on a sample.
    """
    if f.space != g.space:
        return False
    return all(
        _lockstep(f._reach.get(q, False), g._reach.get(q, False), False)
        for q in f._reach.keys() | g._reach.keys()
    )


# ---------------------------------------------------------------------------
# Decision procedures.


def is_total(f: Flowchart) -> tuple[bool, UpPoint | None]:
    """Does every point have a true path?

    The points with a true path are those reaching some leaf: the union
    of the reach tries, the last of the chart's running unions
    (Flowchart._unions).  A join family that misses part of its domain
    is not by itself a failure; the point may still ride an overlapping
    sibling branch to a leaf.  On failure the witness is the least point
    with no true path, read off the union's leftmost False leaf.
    """
    # A closed term has a leaf, so the chart reaches at least one label.
    reached = f._unions[-1]
    if reached is True:
        return True, None
    return False, _leftmost(f.space, reached, False)


def is_deterministic(f: Flowchart) -> tuple[bool, UpPoint | None]:
    """Can two true paths ever disagree on the label?

    Exactly when the reach tries of distinct labels never meet;
    same-label overlap is allowed.  Each label's reach trie is met with
    the running union before it, which the chart's compile holds
    (Flowchart._unions, shared with is_total).  On failure the witness
    is the least point reached by two distinct labels, read off the
    clash trie's leftmost True leaf.
    """
    clash: Trie = False
    for seen, t in zip((False,) + f._unions, f._reach.values()):
        clash = _combine(clash, _combine(seen, t, False), True)
    if clash is False:
        return True, None
    return False, _leftmost(f.space, clash, True)


def is_monotone(f: Flowchart) -> bool:
    """Is every assigned set contained in its node's domain?

    A set whose trie is the compiled domain of its own child edge (the
    right child of a ~> node, child i for join member i) is D ∩ S by
    _edges, so it lies in D and is not walked: every set of
    to_monotone's result is one of these.  Every other set is checked
    by one inclusion walk against its node's domain.
    """
    domains = f._domains
    for addr, sets in f.assign:
        d = domains[addr]
        for i, s in enumerate(sets) if isinstance(sets, tuple) else ((1, sets),):
            t = s.trie
            if t is not domains[addr + (i,)] and not _lockstep(t, d, True):
                return False
    return True


# ---------------------------------------------------------------------------
# Transformations.


def to_monotone(f: Flowchart) -> Flowchart:
    """Shrink every assigned set into its domain: S' = D ∩ S.

    D ∩ S is the domain of the ~> node's right child, and D ∩ S_i that
    of join child i (_edges), so the shrunk sets are read off f's
    compile, at the levels domain_assignment gives them.  Only for
    normal terms; there the shrunken sets keep their levels within rank
    (the out-branch of a ~> node leads into a leaf or a Veblen node,
    whose rank absorbs the bump).  Evaluation is unchanged pointwise,
    errors included, because domains are invariant: the result shares
    f's compiled domain tries.
    """
    if not is_normal(f.term):
        raise NonNormalTermError("the shrink-to-domain transform needs a normal term")
    domains = domain_assignment(f)
    new: dict[Address, NodeSets] = {}
    for addr, sets in f.assign:
        if isinstance(sets, tuple):
            new[addr] = tuple(domains[addr + (i,)] for i in range(len(sets)))
        else:
            new[addr] = domains[addr + (1,)]
    g = Flowchart._of(f.term, f.space, new)
    object.__setattr__(g, "_domains", f._domains)
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
        seen: Trie = False
        family = []
        for n, s in enumerate(sets, 1):
            family.append(ClopenSet._of(f.space, _combine(s.trie, seen, False, True), s.declared_level))
            # The union after the last member would never be read.
            if n < len(sets):
                seen = _combine(seen, s.trie, True)
        new[addr] = tuple(family)
    return Flowchart._of(f.term, f.space, new)


def pullback(f: Flowchart, theta: Transducer) -> Flowchart:
    """Substitute a continuous map into every test: sets become preimages.

    The result lives over theta's input space and computes x -> f(theta(x)).
    """
    if theta.output_space != f.space:
        raise SpaceMismatchError(
            "map lands in %r, flowchart lives in %r" % (theta.output_space, f.space)
        )
    new = _map_sets(f, lambda addr, s: preimage(theta, s))
    return Flowchart._of(f.term, theta.input_space, new)


def vaught_transform(f: Flowchart, delta: Transducer, depth_bound: int) -> Flowchart:
    """Push a monotone flowchart over names forward along an open surjection.

    Every assigned set A becomes the image delta[A]: for clopen A the
    fiber intersection is relatively open, and a nonempty open subset of
    a Polish fiber is non-meager, so the category transform and the
    direct image agree.  Monotonicity of the input is required, a map
    that is not onto is refused with a point outside its range
    (`transducer._outside_range`), and then a map that is not open with
    an input cylinder whose image is not open (`transducer.is_open`),
    both kept per normal form.  Each distinct
    trie is pushed forward once per call, in assignment order, and each
    result keeps its own set's declared level: the empty and full tries
    go to the empty and full sets.  Raises UndecidedImageError at the
    first set whose image is unresolved at the depth bound.
    """
    if delta.input_space != f.space:
        raise SpaceMismatchError(
            "map reads %r, flowchart lives in %r" % (delta.input_space, f.space)
        )
    if not is_monotone(f):
        raise NotMonotoneError("the Vaught transform needs a monotone flowchart")
    missed = _outside_range(delta._normal)
    if missed is not None:
        raise UnsupportedError("the name map is not surjective: %s is outside its range" % render_point(missed))
    opened, word = is_open(delta._normal)
    if not opened:
        raise UnsupportedError("the name map is not open: the image of [%s] is not open" % render_word(word))
    out = delta.output_space
    # Keyed by id: the tries are f's, alive for the whole call.
    images: dict[int, Trie] = {id(False): False, id(True): True}

    def push(addr, s):
        t = images.get(id(s.trie))
        if t is None:
            t = images[id(s.trie)] = image(delta, s, depth_bound).trie
        return ClopenSet._of(out, t, s.declared_level)

    return Flowchart._of(f.term, out, _map_sets(f, push))


def check_levels(f: Flowchart) -> bool:
    """Is every declared level within its node's rank?  Every rank is at
    least 1, so only a set declared above 1 reads its node's rank, and a
    chart with none builds no rank table."""
    for addr, sets in f.assign:
        family = sets if isinstance(sets, tuple) else (sets,)
        for s in family:
            if s.declared_level is not ONE and cmp(s.declared_level, borel_rank(f.term, addr)) > 0:
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
#
# A document is decoded in one pass over each table: the node table
# gives one label per distinct kind and payload (term._read_nodes), and
# each distinct set entry is parsed once, so equal entries decode to
# one shared, immutable ClopenSet.  Output bytes are those of the sets
# and labels, so sharing changes none.

# A dotted address key: ASCII decimals without leading zeros.
_ADDRESS_KEY = re.compile(r"(?:0|[1-9][0-9]*)(?:\.(?:0|[1-9][0-9]*))*")


def render_address(addr: Address) -> str:
    return ".".join(str(i) for i in addr)


def parse_address(text: str) -> Address:
    if text == "":
        return ()
    if not _ADDRESS_KEY.fullmatch(text):
        raise DocumentError("bad address key %r" % text)
    return tuple(map(int, text.split(".")))


def _encode_set(s: ClopenSet):
    if s.declared_level == ONE:
        return render_clopen(s)
    return {"set": render_clopen(s), "level": render_ordinal(s.declared_level)}


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _decode_set(space: Space, entry, addr: Address, known: dict) -> ClopenSet:
    """The set an entry at `addr` writes.  An entry that is a string, or
    an object of strings, is parsed once: `known` holds the sets decoded
    so far in `space`, by entry."""
    if isinstance(entry, str):
        key = entry
    elif isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values()):
        key = frozenset(entry.items())
    else:
        return _parse_set(space, entry, addr)
    s = known.get(key)
    if s is None:
        s = known[key] = _parse_set(space, entry, addr)
    return s


def _parse_set(space: Space, entry, addr: Address) -> ClopenSet:
    """An error names the address and the parser's reason, which carries
    its line and column, on one capped line; the entry itself may be
    any size."""
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
    """What every document kind checks first: its kind, an integer space
    (an alphabet past space.MAX_ALPHABET is unsupported), the term, and
    an assign object."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DocumentError("a %s document has kind '%s'" % (kind, kind))
    if type(doc.get("space")) is not int:
        raise DocumentError("%s document needs an integer space" % kind)
    _check_alphabet(doc["space"])
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
    known: dict = {}
    for key, entry in raw.items():
        addr = parse_address(key)
        if isinstance(entry, list):
            assign[addr] = tuple(_decode_set(space, e, addr, known) for e in entry)
        else:
            assign[addr] = _decode_set(space, entry, addr, known)
    try:
        f = Flowchart(term, space, assign)
    except (ValueError, OpenTermError, SpaceMismatchError) as e:
        raise DocumentError(str(e)) from None
    if not check_levels(f):
        raise DocumentError("declared level exceeds the node rank")
    return f
