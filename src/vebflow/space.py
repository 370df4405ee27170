"""Finite-alphabet Cantor spaces, ultimately periodic points, clopen sets.

Space(k) is the space of infinite streams over the alphabet {0..k-1}.
Points are represented exactly when ultimately periodic: a finite prefix
followed by a repeating period.  Clopen sets are finite unions of basic
cylinders, stored as reduced k-ary decision tries: Bryant's reduced
ordered decision diagrams (1986) with letters in place of variables.  A
trie is True (full), False (empty) or one child trie per next letter,
and a node whose children are all True, or all False, collapses to that
leaf.  Reduced tries are canonical, so set equality is trie equality.
Equality and inclusion are one lockstep walk over pairs of nodes, which
differ only in the leaf pairs that pass.  Union, intersection,
difference and complement are one kernel: a walk over pairs of nodes
that expands each pair once and reduces the rows it built in
post-order; difference reads the right trie's leaves negated as it
goes, and complement is the difference from the full space.  Membership
reads one letter per level.  The canonical antichain (the words leading
to True leaves: pairwise incomparable under the prefix order, never all
k siblings present, sorted) is derived on demand; it is the printed and
codec form.

Every clopen set carries a declared_level, an ordinal >= 1 recording the
additive class the set is *declared* at; the sets themselves are always
truly clopen, so the metadata is an upper-bound annotation used by the
level checker, not a semantic restriction.  Union and intersection take
the max of the levels, complement adds one, and difference takes the max
of the left level and the right level plus one (_level states the rule).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySetError, ParseError, SpaceMismatchError
from .ordinal import ONE, CnfOrdinal, add, cmp

__all__ = [
    "Space",
    "UpPoint",
    "ClopenSet",
    "Word",
    "member",
    "least_point",
    "enumerate_cylinders",
    "parse_point",
    "render_point",
    "parse_clopen",
    "render_clopen",
    "parse_word",
    "render_word",
    "sample_grid",
]

Word = tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """The stream space over a finite alphabet {0 .. alphabet_size-1}."""

    alphabet_size: int

    def __post_init__(self):
        if not isinstance(self.alphabet_size, int) or self.alphabet_size < 1:
            raise ValueError("alphabet_size must be an int >= 1")

    def check_word(self, word: Word):
        for a in word:
            if not (0 <= a < self.alphabet_size):
                raise ValueError("letter %r outside alphabet of size %d" % (a, self.alphabet_size))

    def __repr__(self):
        return "Space(%d)" % self.alphabet_size


def _primitive(period: Word) -> Word:
    # The shortest word whose power equals the given period.
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[: d] * (n // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class UpPoint:
    """An ultimately periodic stream prefix . period period period ...

    Canonical on construction: the period is primitive and the prefix is
    the shortest possible, so structural equality is stream equality.
    """

    space: Space
    prefix: Word
    period: Word

    def __post_init__(self):
        prefix = tuple(self.prefix)
        period = tuple(self.period)
        if not period:
            raise ValueError("the period must be nonempty")
        self.space.check_word(prefix)
        self.space.check_word(period)
        period = _primitive(period)
        # Absorb prefix letters equal to the period's last letter: the
        # stream p.a.(v.a)^w equals p.(a.v)^w.
        while prefix and prefix[-1] == period[-1]:
            period = (period[-1],) + period[:-1]
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def letter(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def __str__(self):
        return render_point(self)

    def __repr__(self):
        return "UpPoint(%r, %s)" % (self.space, render_point(self))


# ---------------------------------------------------------------------------
# Reduced decision tries.  A trie is True (the whole cylinder), False (none
# of it) or a k-tuple holding one child trie per next letter; no node has
# k children that are all True or all False.  Every walk below is a loop
# over an explicit stack, so a trie may be deeper than the recursion limit.
# Memo tables key nodes by id() and live for one call, while the tries
# they index are alive.  A trie built from words shares its equal
# subtries, so it is a small DAG; walks over it stay memoised.

Trie = bool | tuple


def _node(kids: list) -> Trie:
    """The node with these children, collapsed when they are all one leaf."""
    first = kids[0]
    if first.__class__ is bool and kids.count(first) == len(kids):
        return first
    return tuple(kids)


def _trie(k: int, words) -> Trie:
    """The reduced trie of the union of the cylinders [w], in linear time."""
    top = [False] * k
    for w in words:
        if not w:
            return True
        node = top
        for a in w[:-1]:
            nxt = node[a]
            if nxt is True:
                break
            if nxt is False:
                nxt = node[a] = [False] * k
            node = nxt
        else:
            node[w[-1]] = True
    # Parents precede their children in `order`; reduce in reverse.
    order = [(top, None, 0)]
    for node, _, _ in order:
        order.extend((c, node, a) for a, c in enumerate(node) if c.__class__ is list)
    # Equal subtries become one object, keyed by their children's ids.
    shared: dict = {}
    for node, parent, a in reversed(order):
        node = _node(node)
        if node.__class__ is tuple:
            node = shared.setdefault(tuple(map(id, node)), node)
        if parent is None:
            return node
        parent[a] = node


def _words(t: Trie) -> tuple[Word, ...]:
    """The words leading to True leaves, in lexicographic order."""
    out: list[Word] = []
    path: list[int] = []
    # (n, a, node): node is reached by path[:n], then letter a if any.
    stack = [(0, None, t)]
    while stack:
        n, a, node = stack.pop()
        del path[n:]
        if a is not None:
            path.append(a)
        if node is True:
            out.append(tuple(path))
        elif node is not False:
            n = len(path)
            stack.extend((n, b, node[b]) for b in range(len(node) - 1, -1, -1) if node[b] is not False)
    return tuple(out)


def _canonical_antichain(k: int, words) -> tuple[Word, ...]:
    """Dedupe, absorb extensions into prefixes, merge complete sibling sets:
    build the reduced trie, then read its True leaves."""
    return _words(_trie(k, words))


def _combine(x: Trie, y: Trie, absorb: bool, negate: bool = False) -> Trie:
    """The union (absorb=True) or the intersection (absorb=False) of x
    with y, or with y's complement when `negate`, memoised on node pairs.

    A leaf equal to `absorb` decides its pair; the other leaf leaves the
    other side as it is.  Under `negate` y's leaves count negated, a pair
    of one node with itself is `absorb`, and a pair under x's unit leaf
    is walked on, so that y's subtrie comes out flipped.  Each pair is
    expanded once into a row of leaves, subtries and the indices of
    pairs still to build; rows are reduced in post-order.
    """
    unit = not absorb
    # y's leaf that decides the pair, and y's leaf that leaves x as it is.
    decides, keeps = (unit, absorb) if negate else (absorb, unit)
    if x is absorb or y is decides:
        return absorb
    if y is keeps:
        return x
    if x is y:
        return absorb if negate else x
    if x is unit and not negate:
        return y
    # Under x's unit leaf, a negated y is walked against a row of units.
    units = (unit,) * len(y)
    # x's leaf that passes y through: none under negation.
    passes = None if negate else unit
    index: dict[tuple[int, int], int] = {(id(x), id(y)): 0}
    # rows[i] is None before pair i is expanded, its row while a child
    # pair is pending, and its trie once reduced.  An int on the stack
    # asks for its pair's row to be reduced, after the pairs above it.
    rows: list = [None]
    stack: list = [(x, y, 0)]
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
                        # Reduced under an earlier sibling.  (A pair
                        # still being expanded would be an ancestor.)
                        row.append(rows[j])
                        continue
                    # New, or queued further down: expand it first.
                    stack.append((c, d, j))
                    row.append(j)
                    pending = True
            if pending:
                rows[i] = row
                continue
            stack.pop()
        # As _node, inlined: this is the kernel's innermost step.
        first = row[0]
        rows[i] = first if first.__class__ is bool and row.count(first) == len(row) else tuple(row)
    return rows[0]


def _lockstep(x: Trie, y: Trie, subset: bool) -> bool:
    """Is trie x the same trie as y, or, when `subset`, is its set
    within y's?  One walk in lockstep, memoised on node pairs; reduced
    tries are canonical, so sameness is set equality."""
    seen: set[tuple[int, int]] = set()
    stack = [(x, y)]
    while stack:
        p, q = stack.pop()
        if p is q or subset and (p is False or q is True):
            continue
        # A reduced inner node is neither empty nor full.
        if p.__class__ is bool or q.__class__ is bool:
            return False
        key = (id(p), id(q))
        if key not in seen:
            seen.add(key)
            stack.extend(zip(p, q))
    return True


def _check_level(level: CnfOrdinal):
    if cmp(level, ONE) < 0:
        raise ValueError("declared_level must be >= 1")


def _level(x: "ClopenSet", y: "ClopenSet", negate: bool = False) -> CnfOrdinal:
    """The declared level of x ∪ y and x ∩ y, or of x minus y when
    `negate`: the larger of the two levels, y's counted one higher when
    it is subtracted, as a difference meets y's complement."""
    a = x.declared_level
    b = add(y.declared_level, ONE) if negate else y.declared_level
    return a if cmp(a, b) >= 0 else b


class ClopenSet:
    """A finite union of cylinders, stored as its reduced decision trie.

    Built from any finite collection of words; `antichain` reads the
    canonical antichain back.  Immutable.  Equality and hashing ignore
    declared_level: two sets are equal iff they contain the same streams.
    """

    __slots__ = ("space", "trie", "declared_level")

    def __init__(self, space: Space, antichain, declared_level: CnfOrdinal = ONE):
        words = [tuple(w) for w in antichain]
        for w in words:
            space.check_word(w)
        _check_level(declared_level)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "trie", _trie(space.alphabet_size, words))
        object.__setattr__(self, "declared_level", declared_level)

    @classmethod
    def _of(cls, space: Space, trie: Trie, level: CnfOrdinal) -> "ClopenSet":
        """Wrap an already reduced trie."""
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "trie", trie)
        object.__setattr__(out, "declared_level", level)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ClopenSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("ClopenSet is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def full(cls, space: Space, level: CnfOrdinal = ONE) -> "ClopenSet":
        _check_level(level)
        return cls._of(space, True, level)

    @classmethod
    def empty(cls, space: Space, level: CnfOrdinal = ONE) -> "ClopenSet":
        _check_level(level)
        return cls._of(space, False, level)

    # -- queries ------------------------------------------------------

    @property
    def antichain(self) -> tuple[Word, ...]:
        """The canonical antichain: the maximal cylinders, sorted."""
        return _words(self.trie)

    @property
    def is_empty(self) -> bool:
        return self.trie is False

    @property
    def is_full(self) -> bool:
        return self.trie is True

    def with_level(self, level: CnfOrdinal) -> "ClopenSet":
        _check_level(level)
        return ClopenSet._of(self.space, self.trie, level)

    def _check_space(self, other: "ClopenSet"):
        if self.space != other.space:
            raise SpaceMismatchError("sets live in %r and %r" % (self.space, other.space))

    # -- Boolean algebra (exact) ---------------------------------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check_space(other)
        return ClopenSet._of(self.space, _combine(self.trie, other.trie, True), _level(self, other))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check_space(other)
        return ClopenSet._of(self.space, _combine(self.trie, other.trie, False), _level(self, other))

    def complement(self) -> "ClopenSet":
        return ClopenSet.full(self.space).difference(self)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        self._check_space(other)
        trie = _combine(self.trie, other.trie, False, True)
        return ClopenSet._of(self.space, trie, _level(self, other, True))

    def is_subset(self, other: "ClopenSet") -> bool:
        self._check_space(other)
        return _lockstep(self.trie, other.trie, True)

    def __eq__(self, other):
        if not isinstance(other, ClopenSet):
            return NotImplemented
        x, y = self.trie, other.trie
        return self.space == other.space and (x is y or _lockstep(x, y, False))

    def __hash__(self):
        # Rarely needed; the antichain is as canonical as the trie.
        return hash((self.space, self.antichain))

    def __str__(self):
        return render_clopen(self)

    def __repr__(self):
        return "ClopenSet(%r, %s)" % (self.space, render_clopen(self))


def member(x: UpPoint, a: ClopenSet) -> bool:
    """Decide x in a: follow the stream's letters down the trie to a leaf."""
    if x.space != a.space:
        raise SpaceMismatchError("point in %r, set in %r" % (x.space, a.space))
    node = a.trie
    i = 0
    while node.__class__ is tuple:
        node = node[x.letter(i)]
        i += 1
    return node


def least_point(a: ClopenSet) -> UpPoint:
    """The lexicographically least point: the leftmost path to a True
    leaf (the least antichain word), then zeros."""
    if a.is_empty:
        raise EmptySetError("an empty set has no least point")
    return _leftmost(a.space, a.trie, True)


def _leftmost(space: Space, t: Trie, leaf: bool) -> UpPoint:
    """The least point whose path in t ends at a `leaf` leaf: the
    leftmost such path, then zeros.  t must not be the other leaf."""
    other = not leaf
    path: list[int] = []
    while t is not leaf:
        letter = next(n for n, c in enumerate(t) if c is not other)
        path.append(letter)
        t = t[letter]
    return UpPoint(space, tuple(path), (0,))


def enumerate_cylinders(a: ClopenSet) -> list[Word]:
    """The canonical antichain in lexicographic order (e_V)."""
    return list(a.antichain)


# ---------------------------------------------------------------------------
# Literals.  Words are digit strings when every letter is below 10, else
# dot-separated numbers; "e" denotes the empty word.  A point literal is
# prefix(period); a set literal is {w1, w2, ...} with {} empty and {e}
# the full space.


def render_word(w: Word) -> str:
    if not w:
        return "e"
    if all(a < 10 for a in w):
        return "".join(str(a) for a in w)
    return ".".join(str(a) for a in w)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "e" or text == "":
        return ()
    if "." in text:
        parts = text.split(".")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError("bad word %r" % text) from None
    if not text.isdigit():
        raise ParseError("bad word %r" % text)
    return tuple(int(c) for c in text)


def render_point(x: UpPoint) -> str:
    return "%s(%s)" % (render_word(x.prefix) if x.prefix else "", render_word(x.period))


def parse_point(space: Space, text: str) -> UpPoint:
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ParseError("a point literal is prefix(period), got %r" % text)
    head, _, tail = text[:-1].partition("(")
    prefix = parse_word(head) if head.strip() else ()
    period = parse_word(tail)
    if not period:
        raise ParseError("the period of a point literal is nonempty")
    return UpPoint(space, prefix, period)


def render_clopen(a: ClopenSet) -> str:
    if a.is_empty:
        return "{}"
    return "{%s}" % ", ".join(render_word(w) for w in a.antichain)


def parse_clopen(space: Space, text: str, level: CnfOrdinal = ONE) -> ClopenSet:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("a set literal is {w1, w2, ...}, got %r" % text)
    body = text[1:-1].strip()
    if not body:
        return ClopenSet.empty(space, level)
    words = tuple(parse_word(part) for part in body.split(","))
    return ClopenSet(space, words, level)


def sample_grid(space: Space, max_prefix: int, max_period: int) -> list[UpPoint]:
    """All ultimately periodic points with prefix length <= max_prefix and
    period length <= max_period, canonicalized and deduplicated."""
    k = space.alphabet_size
    prefixes: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_prefix):
        frontier = [w + (a,) for w in frontier for a in range(k)]
        prefixes.extend(frontier)
    periods: list[Word] = []
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
