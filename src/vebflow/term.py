"""Terms over a finite label alphabet, their syntax trees, and Borel ranks.

A term is built from constants, variables, a binary sequencing operator
(written ~> in the text form), finite joins, and unary Veblen symbols
veb[a] indexed by ordinals below epsilon_0.  The syntax tree embeds a
term into the finitely branching address tree: addresses are tuples of
child indices, the root is ().

The syntax tree is a term's one stored form: one table, built on first
request without recursion and kept on the term, which every reader of
the term shares.  A leaf is its own label; inner nodes carry ArrowL,
JoinL or VeblenL.

Two shape predicates matter downstream.  A term is well formed when no
Veblen node sits directly on a join.  It is normal when every ~> node
has a leaf or a Veblen node on the left and a join on the right; the
monotone transform is only available over normal terms.

The node rules of a tree (a root, prefix closure, no gaps in child
indices, each label's arity) are stated once, in _assemble, which
builds the term from its table, sorted once, in one walk forward and
one back, and raises a DocumentError naming the rule a table breaks;
term_from_tree, decode_tree and the document decoders go through it.
A document's node table is read with one label per distinct kind and
payload, and parse_ordinal keeps what it has read, so a Veblen index
repeated within or across documents is parsed once.  A term
keeps its Borel ranks and the kinds of its labels, as it keeps its
syntax tree, and the tree keeps each node's arity, counted by the
walk that builds it.

The text form is read by one loop over an explicit stack of open
brackets, on the scanner the ordinal reader uses, so veb[...] indices
are read in place and text nested to any depth parses.  render_term
writes it back without recursion, and the repr of an inner node is
that text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DocumentError, InvalidAddressError, ParseError
from .ordinal import ONE, CnfOrdinal, _Scanner, add, cmp, omega_pow, parse_ordinal, render_ordinal

__all__ = [
    "Const",
    "Var",
    "Arrow",
    "Join",
    "Veblen",
    "Term",
    "ArrowL",
    "JoinL",
    "VeblenL",
    "SyntaxTree",
    "Address",
    "syntax_tree",
    "term_from_tree",
    "is_well_formed",
    "is_normal",
    "is_closed",
    "has_veblen",
    "apply_fixed_point",
    "neck",
    "borel_rank",
    "borel_ranks",
    "constant_labels",
    "parse_term",
    "render_term",
    "encode_tree",
    "decode_tree",
]

Address = tuple[int, ...]


class _Node:
    @cached_property
    def _tree(self) -> SyntaxTree:
        """The node's syntax tree, built on first request and kept."""
        nodes: dict[Address, NodeLabel] = {}
        arity: dict[Address, int] = {}
        # Children are pushed last first, so addresses come out sorted.
        stack: list[tuple[Address, Term]] = [((), self)]
        while stack:
            addr, s = stack.pop()
            if isinstance(s, Arrow):
                nodes[addr] = _ARROW
                arity[addr] = 2
                stack += [(addr + (1,), s.right), (addr + (0,), s.left)]
            elif isinstance(s, Join):
                nodes[addr] = _JOIN
                arity[addr] = n = len(s.children)
                stack += [(addr + (i,), s.children[i]) for i in range(n - 1, -1, -1)]
            elif isinstance(s, Veblen):
                nodes[addr] = VeblenL(s.index)
                arity[addr] = 1
                stack.append((addr + (0,), s.child))
            else:
                nodes[addr] = s
                arity[addr] = 0
        tree = SyntaxTree(nodes)
        tree.arity = arity
        return tree

    @cached_property
    def _kinds(self) -> frozenset[type]:
        """The classes of the labels in the term's table, collected once."""
        return frozenset(map(type, self._tree.nodes.values()))

    @cached_property
    def _ranks(self) -> dict[Address, CnfOrdinal]:
        """borel_rank at every address, in one top-down pass, kept."""
        ranks: dict[Address, CnfOrdinal] = {}
        below: dict[Address, CnfOrdinal] = {}  # the rank each node passes to its children
        for addr, label in self._tree.nodes.items():
            rank = below[addr[:-1]] if addr else ONE
            ranks[addr] = rank
            below[addr] = add(rank, omega_pow(label.index)) if isinstance(label, VeblenL) else rank
        return ranks


class _Inner(_Node):
    """Arrow, Join and Veblen compare and hash through their syntax
    trees and print through their text form, so none of the three
    recurses, however deep the term."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return syntax_tree(self).nodes == syntax_tree(other).nodes

    def __hash__(self):
        return hash(frozenset(syntax_tree(self).nodes.items()))

    def __repr__(self):
        return "parse_term(%r)" % render_term(self)


@dataclass(frozen=True)
class Const(_Node):
    label: str


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Arrow(_Inner):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Inner):
    children: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("a join needs at least one child")


@dataclass(frozen=True, eq=False, repr=False)
class Veblen(_Inner):
    index: CnfOrdinal
    child: "Term"


Term = Const | Var | Arrow | Join | Veblen


# Labels of the inner nodes of a syntax tree; a leaf is its own label.


@dataclass(frozen=True)
class ArrowL:
    pass


@dataclass(frozen=True)
class JoinL:
    pass


@dataclass(frozen=True)
class VeblenL:
    index: CnfOrdinal


NodeLabel = Const | Var | ArrowL | JoinL | VeblenL

# ArrowL and JoinL carry nothing, so one instance of each serves every tree.
_ARROW = ArrowL()
_JOIN = JoinL()


class SyntaxTree:
    """A finite prefix-closed set of addresses, each carrying a node label."""

    def __init__(self, nodes: dict[Address, NodeLabel]):
        self.nodes = dict(nodes)

    @cached_property
    def arity(self) -> dict[Address, int]:
        """Each node's number of children (0, 1, ... present without a
        gap), counted on first request and kept; a term's own tree is
        given the counts its builder makes."""
        nodes = self.nodes
        arity = {}
        for addr in nodes:
            n = 0
            while addr + (n,) in nodes:
                n += 1
            arity[addr] = n
        return arity

    def addresses(self) -> list[Address]:
        return sorted(self.nodes)

    def label(self, addr: Address) -> NodeLabel:
        try:
            return self.nodes[addr]
        except KeyError:
            raise InvalidAddressError("no node at address %r" % (addr,)) from None

    def children(self, addr: Address) -> list[Address]:
        return [addr + (n,) for n in range(self.arity.get(addr, 0))]

    def is_leaf(self, addr: Address) -> bool:
        return addr + (0,) not in self.nodes

    def __contains__(self, addr: Address) -> bool:
        return addr in self.nodes

    def __len__(self):
        return len(self.nodes)

    def __eq__(self, other):
        return isinstance(other, SyntaxTree) and self.nodes == other.nodes

    def __repr__(self):
        return "SyntaxTree(%d nodes)" % len(self.nodes)


def syntax_tree(t: Term) -> SyntaxTree:
    """Embed a term into the address tree: the term's stored table.

    A constant or variable occupies the single address ().  An arrow puts
    its left subtree under 0 and its right subtree under 1, a join puts
    child n under n, and a Veblen node puts its child under 0.
    """
    return t._tree


def _assemble(nodes: dict[Address, NodeLabel], veblen) -> tuple[Term, SyntaxTree]:
    """Build a term bottom up, without recursion, from a node table in
    any order; veblen(index, child) builds Veblen nodes.  Returns the
    term and the table in address order with its child counts.  Raises
    DocumentError naming the node rule the table breaks.

    The forward walk counts each node's children: a child must find its
    parent already counted, with exactly its index, else the first
    address without its parent, in table order, or the gap is named.
    In reverse, every subtree comes before its parent and leaves one
    term on the stack, child 0 on top, so each node checks its count
    against its label and takes its children off the top.
    """
    if () not in nodes:
        raise DocumentError("missing root node")
    items = sorted(nodes.items())
    arity: dict[Address, int] = {}
    for addr, _ in items:
        if addr:
            parent = addr[:-1]
            n = arity.get(parent)
            if n != addr[-1]:
                for orphan in nodes:
                    if orphan and orphan[:-1] not in nodes:
                        raise DocumentError("addresses are not prefix closed at %r" % (orphan,))
                raise DocumentError("child indices of %r have gaps" % (parent,))
            arity[parent] = n + 1
        arity[addr] = 0
    stack: list[Term] = []
    for addr, label in reversed(items):
        n = arity[addr]
        if isinstance(label, (Const, Var)):
            if n:
                raise DocumentError("arity mismatch: leaf %r has children" % (addr,))
            stack.append(label)
        elif isinstance(label, ArrowL):
            if n != 2:
                raise DocumentError("arity mismatch: arrow %r has %d children" % (addr, n))
            stack.append(Arrow(stack.pop(), stack.pop()))
        elif isinstance(label, JoinL):
            if not n:
                raise DocumentError("arity mismatch: join %r has no children" % (addr,))
            stack[-n:] = [Join(tuple(reversed(stack[-n:])))]
        elif isinstance(label, VeblenL):
            if n != 1:
                raise DocumentError("arity mismatch: veblen %r has %d children" % (addr, n))
            stack.append(veblen(label.index, stack.pop()))
        else:
            raise DocumentError("unknown label at %r" % (addr,))
    tree = SyntaxTree(items)
    tree.arity = arity
    return stack[0], tree


def term_from_tree(st: SyntaxTree) -> Term:
    """Rebuild the term from its syntax tree (inverse of syntax_tree).

    The tree is held to the node rules as it is built bottom up, in one
    pass and without recursion.  A copy of it, in address order, is
    kept as the root term's syntax tree with the child counts the build
    makes, so it is not walked again.
    """
    t, tree = _assemble(st.nodes, Veblen)
    # _tree is a cached_property: the instance attribute is its cache.
    object.__setattr__(t, "_tree", tree)
    return t


def is_well_formed(t: Term) -> bool:
    """No Veblen symbol applied directly to a join."""
    nodes = syntax_tree(t).nodes
    veblens = [addr for addr, label in nodes.items() if isinstance(label, VeblenL)]
    return not any(isinstance(nodes[addr + (0,)], JoinL) for addr in veblens)


def is_normal(t: Term) -> bool:
    """Every arrow tests a leaf or Veblen node and continues into a join."""
    nodes = syntax_tree(t).nodes
    arrows = [addr for addr, label in nodes.items() if isinstance(label, ArrowL)]
    return all(
        isinstance(nodes[addr + (0,)], (Const, Var, VeblenL)) and isinstance(nodes[addr + (1,)], JoinL)
        for addr in arrows
    )


def is_closed(t: Term) -> bool:
    return Var not in t._kinds


def has_veblen(t: Term) -> bool:
    return VeblenL in t._kinds


def constant_labels(t: Term) -> set[str]:
    return {label.label for label in syntax_tree(t).nodes.values() if isinstance(label, Const)}


def _collapse(index: CnfOrdinal, child: Term) -> Term:
    # child is already rewritten, so one step down reaches the fixed point.
    if isinstance(child, Veblen) and cmp(index, child.index) < 0:
        return child
    return Veblen(index, child)


def apply_fixed_point(t: Term) -> Term:
    """Collapse towers veb[b](veb[a](s)) with b < a down to veb[a](s).

    Rewrites bottom-up to a fixed point, over the syntax tree and
    without recursion; the result has no such tower anywhere.  Equal
    indices are left alone.
    """
    return _assemble(syntax_tree(t).nodes, _collapse)[0]


def neck(t: Term) -> tuple[list[CnfOrdinal], Term]:
    """Peel the maximal chain of Veblen symbols at the root."""
    indices: list[CnfOrdinal] = []
    while isinstance(t, Veblen):
        indices.append(t.index)
        t = t.child
    return indices, t


def borel_rank(t: Term, addr: Address) -> CnfOrdinal:
    """Rank of a node: 1 + sum of w^a over Veblen labels strictly above it.

    Only Veblen symbols on proper initial segments of the address
    contribute; the node's own label does not.
    """
    try:
        return t._ranks[addr]
    except KeyError:
        raise InvalidAddressError("no node at address %r" % (addr,)) from None


def borel_ranks(t: Term) -> dict[Address, CnfOrdinal]:
    """borel_rank at every address of t, in address order: a fresh copy
    of the table the term keeps, computed in one top-down pass on first
    request."""
    return dict(t._ranks)


# ---------------------------------------------------------------------------
# Text form.
#
#   term := atom ("~>" atom)*  (folded from the right)
#   atom := "(" term ")" | join | veb | qconst | var | nat
#   join := "join(" term ("," term)* ")"
#   veb := "veb[" ord "](" term ")"
#   qconst := 'q' string-literal          var := 'x' string-literal
#
# A bare natural number is sugar for a q-constant with that label; the
# renderer always emits the canonical q"..." form.


def _string(sc: _Scanner) -> str:
    """A double-quoted literal; a backslash escapes '"' or itself."""
    if sc.peek() != '"':
        sc.error("expected a string literal")
    sc.i += 1
    out = []
    while sc.i < len(sc.text):
        ch = sc.text[sc.i]
        if ch == '"':
            sc.i += 1
            return "".join(out)
        if ch == "\\":
            if sc.i + 1 >= len(sc.text):
                sc.error("unterminated escape")
            ch = sc.text[sc.i + 1]
            if ch not in ('"', "\\"):
                sc.error("unknown escape \\%s" % ch)
            sc.i += 1
        out.append(ch)
        sc.i += 1
    sc.error("unterminated string literal")


def _leaf(sc: _Scanner, alphabet) -> Term:
    """A variable x"...", a constant q"..." or a bare natural number."""
    ch = sc.peek()
    if ch == "q" or ch == "x":
        sc.i += 1
        label = _string(sc)
        if ch == "x":
            return Var(label)
    elif "0" <= ch <= "9":
        label = sc.digits()
    else:
        sc.error("expected a term")
    if alphabet is not None and label not in alphabet:
        sc.error("unknown constant %r (not in the declared alphabet)" % label)
    return Const(label)


def parse_term(text: str, alphabet=None) -> Term:
    """Parse the term DSL, nested to any depth.

    One loop over an explicit stack of open brackets.  Each entry holds
    the bracket's kind ("(", "join" or "veb"), its Veblen index, the join
    members read so far, and the ~> chain the bracket sits in.  When
    `alphabet` (an iterable of labels) is given, constants outside it
    are rejected; otherwise any label is accepted.
    """
    alpha = None if alphabet is None else frozenset(alphabet)
    sc = _Scanner(text)
    stack: list[tuple[str, CnfOrdinal | None, list[Term], list[Term]]] = []
    chain: list[Term] = []  # the atoms of the innermost ~> chain so far
    while True:
        ch = sc.peek()
        if ch == "v" and sc.try_word("veb"):
            sc.expect("[")
            index = sc.ordinal()
            sc.expect("]")
            sc.expect("(")
            stack.append(("veb", index, [], chain))
        elif ch == "j" and sc.try_word("join"):
            sc.expect("(")
            stack.append(("join", None, [], chain))
        elif ch == "(":
            sc.i += 1
            stack.append(("(", None, [], chain))
        else:
            chain.append(_leaf(sc, alpha))
            # Each chain that no ~> continues ends, and so does its bracket.
            while not sc.try_word("~>"):
                t = chain.pop()
                while chain:
                    t = Arrow(chain.pop(), t)
                if not stack:
                    if sc.peek():
                        sc.error("trailing input after term")
                    return t
                kind, index, members, outer = stack[-1]
                if kind == "join" and sc.try_word(","):
                    members.append(t)
                    break
                sc.expect(")")
                stack.pop()
                chain = outer
                if kind == "join":
                    t = Join((*members, t))
                elif kind == "veb":
                    t = Veblen(index, t)
                chain.append(t)
            continue
        chain = []


def _quote(label: str) -> str:
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def render_term(t: Term) -> str:
    """Canonical text; parse_term(render_term(t)) == t.

    A loop over an explicit stack of pending text pieces and subterms,
    so terms deeper than the recursion limit render too.
    """
    out: list[str] = []
    stack: list[str | Term] = [t]
    while stack:
        item = stack.pop()
        match item:
            case str():
                out.append(item)
            case Const(label):
                out.append("q" + _quote(label))
            case Var(name):
                out.append("x" + _quote(name))
            case Arrow(left, right):
                if isinstance(left, Arrow):
                    stack += [right, ") ~> ", left, "("]
                else:
                    stack += [right, " ~> ", left]
            case Join(children):
                stack.append(")")
                for n in range(len(children) - 1, -1, -1):
                    stack.append(children[n])
                    if n:
                        stack.append(", ")
                stack.append("join(")
            case Veblen(index, child):
                stack += [")", child, "veb[%s](" % render_ordinal(index)]
    return "".join(out)


# ---------------------------------------------------------------------------
# Coded documents: {"nodes": [{"addr": [...], "kind": ..., "payload": ...}]}.

_KINDS = ("const", "var", "arrow", "join", "veblen")


def encode_tree(st: SyntaxTree) -> dict:
    nodes = []
    for addr in st.addresses():
        label = st.label(addr)
        entry: dict = {"addr": list(addr)}
        match label:
            case Const(lbl):
                entry["kind"] = "const"
                entry["payload"] = lbl
            case Var(name):
                entry["kind"] = "var"
                entry["payload"] = name
            case ArrowL():
                entry["kind"] = "arrow"
            case JoinL():
                entry["kind"] = "join"
            case VeblenL(index):
                entry["kind"] = "veblen"
                entry["payload"] = render_ordinal(index)
        nodes.append(entry)
    return {"nodes": nodes}


def decode_tree(doc) -> SyntaxTree:
    """Decode and validate a coded document.

    Checks the closed kind set, address shapes, prefix-closedness and
    per-kind arities; any violation raises DocumentError.  The table
    keeps its document order and the child counts of the check.
    """
    st = _read_nodes(doc)
    st.arity = _assemble(st.nodes, Veblen)[1].arity
    return st


# How a payload that is not a string is refused, for each kind that takes one.
_PAYLOADS = {
    "const": "const payload must be a string",
    "var": "var payload must be a string",
    "veblen": "veblen payload must be an ordinal string",
}


def _read_nodes(doc) -> SyntaxTree:
    """The node table of a coded document, in document order: entry
    shapes, addresses, kinds and payloads are checked here, the shape of
    the tree is not.  Equal (kind, payload) pairs share one label."""
    if not isinstance(doc, dict) or "nodes" not in doc or not isinstance(doc["nodes"], list):
        raise DocumentError("a tree document is {'nodes': [...]}")
    nodes: dict[Address, NodeLabel] = {}
    labels: dict[tuple[str, str], NodeLabel] = {}
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or "addr" not in entry or "kind" not in entry:
            raise DocumentError("each node needs 'addr' and 'kind'")
        raw_addr = entry["addr"]
        if not isinstance(raw_addr, list):
            raise DocumentError("addresses are lists of naturals, got %r" % (raw_addr,))
        for i in raw_addr:
            if not (type(i) is int and i >= 0):
                raise DocumentError("addresses are lists of naturals, got %r" % (raw_addr,))
        addr = tuple(raw_addr)
        if addr in nodes:
            raise DocumentError("duplicate address %r" % (addr,))
        kind = entry["kind"]
        if kind not in _KINDS:
            raise DocumentError("unknown kind %r" % (kind,))
        if kind == "arrow":
            nodes[addr] = _ARROW
            continue
        if kind == "join":
            nodes[addr] = _JOIN
            continue
        payload = entry.get("payload")
        if not isinstance(payload, str):
            raise DocumentError(_PAYLOADS[kind])
        label = labels.get((kind, payload))
        if label is None:
            if kind == "const":
                label = Const(payload)
            elif kind == "var":
                label = Var(payload)
            else:
                try:
                    label = VeblenL(parse_ordinal(payload))
                except ParseError as e:
                    raise DocumentError("bad veblen index: %s" % e) from None
            labels[(kind, payload)] = label
        nodes[addr] = label
    return SyntaxTree(nodes)
