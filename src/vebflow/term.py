"""Terms over a finite label alphabet, their syntax trees, and Borel ranks.

A term is built from constants, variables, a binary sequencing operator
(written ~> in the text form), finite joins, and unary Veblen symbols
veb[a] indexed by ordinals below epsilon_0.  The syntax tree embeds a
term into the finitely branching address tree: addresses are tuples of
child indices, the root is ().

Two shape predicates matter downstream.  A term is well formed when no
Veblen node sits directly on a join.  It is normal when every ~> node
has a leaf or a Veblen node on the left and a join on the right; the
monotone transform is only available over normal terms.

The node rules of a tree (a root, prefix closure, no gaps in child
indices, each label's arity) are stated once, in _check_nodes, which
decode_tree, term_from_tree and the document decoders all go through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DocumentError, InvalidAddressError, ParseError
from .ordinal import ONE, CnfOrdinal, add, cmp, omega_pow, parse_ordinal, rank_sum, render_ordinal

__all__ = [
    "Const",
    "Var",
    "Arrow",
    "Join",
    "Veblen",
    "Term",
    "ConstL",
    "VarL",
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


@dataclass(frozen=True)
class Const:
    label: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Arrow:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Join:
    children: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("a join needs at least one child")


@dataclass(frozen=True)
class Veblen:
    index: CnfOrdinal
    child: "Term"


Term = Const | Var | Arrow | Join | Veblen


# Node labels of the syntax tree.  The numeric codec kinds are
# const=0, var=1, arrow=2, join=3, veblen=4, mirrored by the string
# kinds in encode_tree.


@dataclass(frozen=True)
class ConstL:
    label: str


@dataclass(frozen=True)
class VarL:
    name: str


@dataclass(frozen=True)
class ArrowL:
    pass


@dataclass(frozen=True)
class JoinL:
    pass


@dataclass(frozen=True)
class VeblenL:
    index: CnfOrdinal


NodeLabel = ConstL | VarL | ArrowL | JoinL | VeblenL


class SyntaxTree:
    """A finite prefix-closed set of addresses, each carrying a node label."""

    def __init__(self, nodes: dict[Address, NodeLabel]):
        self.nodes = dict(nodes)

    def addresses(self) -> list[Address]:
        return sorted(self.nodes)

    def label(self, addr: Address) -> NodeLabel:
        try:
            return self.nodes[addr]
        except KeyError:
            raise InvalidAddressError("no node at address %r" % (addr,)) from None

    def children(self, addr: Address) -> list[Address]:
        out = []
        n = 0
        while addr + (n,) in self.nodes:
            out.append(addr + (n,))
            n += 1
        return out

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


def _subterms(t: Term) -> list[tuple[Address, Term]]:
    """Every (address, subterm) pair of t, breadth first, without recursion."""
    out: list[tuple[Address, Term]] = [((), t)]
    for addr, s in out:
        if isinstance(s, Arrow):
            out.append((addr + (0,), s.left))
            out.append((addr + (1,), s.right))
        elif isinstance(s, Join):
            out.extend((addr + (n,), c) for n, c in enumerate(s.children))
        elif isinstance(s, Veblen):
            out.append((addr + (0,), s.child))
    return out


def _node_label(t: Term) -> NodeLabel:
    if isinstance(t, Const):
        return ConstL(t.label)
    if isinstance(t, Var):
        return VarL(t.name)
    if isinstance(t, Arrow):
        return ArrowL()
    if isinstance(t, Join):
        return JoinL()
    return VeblenL(t.index)


def syntax_tree(t: Term) -> SyntaxTree:
    """Embed a term into the address tree.

    A constant or variable occupies the single address ().  An arrow puts
    its left subtree under 0 and its right subtree under 1, a join puts
    child n under n, and a Veblen node puts its child under 0.
    """
    return SyntaxTree({addr: _node_label(s) for addr, s in _subterms(t)})


def term_from_tree(st: SyntaxTree) -> Term:
    """Rebuild the term from its syntax tree (inverse of syntax_tree).

    The tree is held to decode_tree's rules, then built bottom up
    without recursion.
    """
    arity = _check_nodes(st.nodes)
    built: dict[Address, Term] = {}
    for addr in sorted(st.nodes, key=len, reverse=True):
        label = st.nodes[addr]
        if isinstance(label, ConstL):
            built[addr] = Const(label.label)
        elif isinstance(label, VarL):
            built[addr] = Var(label.name)
        elif isinstance(label, ArrowL):
            built[addr] = Arrow(built.pop(addr + (0,)), built.pop(addr + (1,)))
        elif isinstance(label, JoinL):
            built[addr] = Join(tuple(built.pop(addr + (n,)) for n in range(arity[addr])))
        else:
            built[addr] = Veblen(label.index, built.pop(addr + (0,)))
    return built[()]


def is_well_formed(t: Term) -> bool:
    """No Veblen symbol applied directly to a join."""
    return not any(isinstance(s, Veblen) and isinstance(s.child, Join) for _, s in _subterms(t))


def is_normal(t: Term) -> bool:
    """Every arrow tests a leaf or Veblen node and continues into a join."""
    return all(
        not isinstance(s, Arrow)
        or (isinstance(s.left, (Const, Var, Veblen)) and isinstance(s.right, Join))
        for _, s in _subterms(t)
    )


def is_closed(t: Term) -> bool:
    return not any(isinstance(s, Var) for _, s in _subterms(t))


def has_veblen(t: Term) -> bool:
    return any(isinstance(s, Veblen) for _, s in _subterms(t))


def constant_labels(t: Term) -> set[str]:
    return {s.label for _, s in _subterms(t) if isinstance(s, Const)}


def apply_fixed_point(t: Term) -> Term:
    """Collapse towers veb[b](veb[a](s)) with b < a down to veb[a](s).

    Rewrites bottom-up to a fixed point; the result has no such tower
    anywhere.  Equal indices are left alone.
    """
    match t:
        case Const(_) | Var(_):
            return t
        case Arrow(left, right):
            return Arrow(apply_fixed_point(left), apply_fixed_point(right))
        case Join(children):
            return Join(tuple(apply_fixed_point(c) for c in children))
        case Veblen(index, child):
            new = Veblen(index, apply_fixed_point(child))
            while (
                isinstance(new, Veblen)
                and isinstance(new.child, Veblen)
                and cmp(new.index, new.child.index) < 0
            ):
                new = new.child
            return new


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
    indices: list[CnfOrdinal] = []
    node = t
    for step in addr:
        if isinstance(node, Veblen):
            indices.append(node.index)
        match node:
            case Arrow(left, right):
                if step == 0:
                    node = left
                elif step == 1:
                    node = right
                else:
                    raise InvalidAddressError("no child %d of an arrow node" % step)
            case Join(children):
                if step < len(children):
                    node = children[step]
                else:
                    raise InvalidAddressError("join node has no child %d" % step)
            case Veblen(_, child):
                if step == 0:
                    node = child
                else:
                    raise InvalidAddressError("no child %d of a veblen node" % step)
            case _:
                raise InvalidAddressError("address %r walks past a leaf" % (addr,))
    return rank_sum(indices)


def borel_ranks(t: Term) -> dict[Address, CnfOrdinal]:
    """borel_rank at every address of t, in one top-down pass."""
    ranks: dict[Address, CnfOrdinal] = {}
    below: dict[Address, CnfOrdinal] = {}  # the rank each node passes to its children
    for addr, s in _subterms(t):
        rank = below[addr[:-1]] if addr else ONE
        ranks[addr] = rank
        below[addr] = add(rank, omega_pow(s.index)) if isinstance(s, Veblen) else rank
    return ranks


# ---------------------------------------------------------------------------
# Text form.
#
#   term := qconst | var | arrow | join | veb
#   qconst := 'q' string-literal          var := 'x' string-literal
#   arrow := atom "~>" term  (right associative)
#   join := "join(" term ("," term)* ")"
#   veb := "veb[" ord "](" term ")"
#
# A bare natural number is sugar for a q-constant with that label; the
# renderer always emits the canonical q"..." form.


class _TermScanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, message: str):
        line = self.text.count("\n", 0, self.i) + 1
        col = self.i - self.text.rfind("\n", 0, self.i)
        raise ParseError(message, line=line, col=col)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def try_word(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.i):
            self.i += len(word)
            return True
        return False

    def expect(self, word: str):
        if not self.try_word(word):
            self.error("expected %r" % word)

    def string_literal(self) -> str:
        if self.peek() != '"':
            self.error("expected a string literal")
        self.i += 1
        out = []
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch == "\\":
                if self.i + 1 >= len(self.text):
                    self.error("unterminated escape")
                nxt = self.text[self.i + 1]
                if nxt not in ('"', "\\"):
                    self.error("unknown escape \\%s" % nxt)
                out.append(nxt)
                self.i += 2
            elif ch == '"':
                self.i += 1
                return "".join(out)
            else:
                out.append(ch)
                self.i += 1
        self.error("unterminated string literal")


def _parse_atom(sc: _TermScanner, alphabet) -> Term:
    ch = sc.peek()
    if ch == "(":
        sc.i += 1
        t = _parse_term(sc, alphabet)
        sc.expect(")")
        return t
    if sc.try_word("join"):
        sc.expect("(")
        children = [_parse_term(sc, alphabet)]
        while sc.peek() == ",":
            sc.i += 1
            children.append(_parse_term(sc, alphabet))
        sc.expect(")")
        return Join(tuple(children))
    if sc.try_word("veb"):
        sc.expect("[")
        start = sc.i
        depth = 0
        while sc.i < len(sc.text):
            c = sc.text[sc.i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "]" and depth == 0:
                break
            sc.i += 1
        if sc.i >= len(sc.text):
            sc.error("unterminated veb index")
        index = parse_ordinal(sc.text[start : sc.i])
        sc.i += 1
        sc.expect("(")
        child = _parse_term(sc, alphabet)
        sc.expect(")")
        return Veblen(index, child)
    if ch == "q":
        sc.i += 1
        label = sc.string_literal()
        if alphabet is not None and label not in alphabet:
            sc.error("unknown constant %r (not in the declared alphabet)" % label)
        return Const(label)
    if ch == "x":
        sc.i += 1
        return Var(sc.string_literal())
    if ch.isdigit():
        start = sc.i
        while sc.i < len(sc.text) and sc.text[sc.i].isdigit():
            sc.i += 1
        label = sc.text[start : sc.i]
        if alphabet is not None and label not in alphabet:
            sc.error("unknown constant %r (not in the declared alphabet)" % label)
        return Const(label)
    sc.error("expected a term")


def _parse_term(sc: _TermScanner, alphabet) -> Term:
    # a ~> b ~> c is read as a chain of atoms, then folded from the right.
    atoms = [_parse_atom(sc, alphabet)]
    while sc.try_word("~>"):
        atoms.append(_parse_atom(sc, alphabet))
    t = atoms.pop()
    while atoms:
        t = Arrow(atoms.pop(), t)
    return t


def parse_term(text: str, alphabet=None) -> Term:
    """Parse the term DSL.

    When `alphabet` (an iterable of labels) is given, constants outside
    it are rejected; otherwise any label is accepted.
    """
    alpha = None if alphabet is None else frozenset(alphabet)
    sc = _TermScanner(text)
    t = _parse_term(sc, alpha)
    sc.skip_ws()
    if sc.i != len(sc.text):
        sc.error("trailing input after term")
    return t


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
            case ConstL(lbl):
                entry["kind"] = "const"
                entry["payload"] = lbl
            case VarL(name):
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
    per-kind arities; any violation raises DocumentError.
    """
    st = _read_nodes(doc)
    _check_nodes(st.nodes)
    return st


def _read_nodes(doc) -> SyntaxTree:
    """The node table of a coded document: entry shapes, addresses, kinds
    and payloads are checked here, the shape of the tree is not."""
    if not isinstance(doc, dict) or "nodes" not in doc or not isinstance(doc["nodes"], list):
        raise DocumentError("a tree document is {'nodes': [...]}")
    nodes: dict[Address, NodeLabel] = {}
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
        if kind not in _KINDS:
            raise DocumentError("unknown kind %r" % (kind,))
        payload = entry.get("payload")
        if kind == "const":
            if not isinstance(payload, str):
                raise DocumentError("const payload must be a string")
            nodes[addr] = ConstL(payload)
        elif kind == "var":
            if not isinstance(payload, str):
                raise DocumentError("var payload must be a string")
            nodes[addr] = VarL(payload)
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


def _check_nodes(nodes: dict[Address, NodeLabel]) -> dict[Address, int]:
    """The node rules, stated once: a root, prefix closure, child indices
    0..n-1 under every node, and the arity of each label.  Returns the
    arity of every node."""
    if () not in nodes:
        raise DocumentError("missing root node")
    arity = dict.fromkeys(nodes, 0)
    for addr in nodes:
        if addr:
            if addr[:-1] not in nodes:
                raise DocumentError("addresses are not prefix closed at %r" % (addr,))
            arity[addr[:-1]] += 1
    # A child i > 0 needs its sibling i-1.
    gapped = {a[:-1] for a in nodes if a and a[-1] > 0 and a[:-1] + (a[-1] - 1,) not in nodes}
    for addr, label in nodes.items():
        n = arity[addr]
        if addr in gapped:
            raise DocumentError("child indices of %r have gaps" % (addr,))
        if isinstance(label, (ConstL, VarL)) and n:
            raise DocumentError("arity mismatch: leaf %r has children" % (addr,))
        if isinstance(label, ArrowL) and n != 2:
            raise DocumentError("arity mismatch: arrow %r has %d children" % (addr, n))
        if isinstance(label, JoinL) and not n:
            raise DocumentError("arity mismatch: join %r has no children" % (addr,))
        if isinstance(label, VeblenL) and n != 1:
            raise DocumentError("arity mismatch: veblen %r has %d children" % (addr, n))
        if not isinstance(label, (ConstL, VarL, ArrowL, JoinL, VeblenL)):
            raise DocumentError("unknown label at %r" % (addr,))
    return arity
