"""Finite-alphabet Cantor spaces, ultimately periodic points, clopen sets.

Space(k) is the space of infinite streams over the alphabet {0..k-1}.
Points are represented exactly when ultimately periodic: a finite prefix
followed by a repeating period.  Clopen sets are finite unions of basic
cylinders, stored as the canonical antichain of words: pairwise
incomparable under the prefix order, never all k siblings present, and
sorted.  Canonical forms make equality, membership and the Boolean
algebra exact and decidable.

Every clopen set carries a declared_level, an ordinal >= 1 recording the
additive class the set is *declared* at; the sets themselves are always
truly clopen, so the metadata is an upper-bound annotation used by the
level checker, not a semantic restriction.  Union and intersection take
the max of the levels, complement adds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _canonical_antichain(k: int, words) -> tuple[Word, ...]:
    """Dedupe, absorb extensions into prefixes, merge complete sibling sets."""
    pool = {tuple(w) for w in words}
    changed = True
    while changed:
        changed = False
        # Drop any word that extends another word in the pool.
        drop = set()
        for w in pool:
            for i in range(len(w)):
                if w[:i] in pool:
                    drop.add(w)
                    break
        if drop:
            pool -= drop
            changed = True
        # Merge complete sibling families into their parent.
        parents = {}
        for w in pool:
            if w:
                parents.setdefault(w[:-1], set()).add(w[-1])
        for parent, kids in parents.items():
            if len(kids) == k:
                pool -= {parent + (a,) for a in kids}
                pool.add(parent)
                changed = True
                break
    return tuple(sorted(pool))


@dataclass(frozen=True)
class ClopenSet:
    """A finite union of cylinders, stored as its canonical antichain.

    Equality and hashing ignore declared_level: two sets are equal iff
    they contain the same streams.
    """

    space: Space
    antichain: tuple[Word, ...]
    declared_level: CnfOrdinal = field(default=ONE, compare=False)

    def __post_init__(self):
        words = tuple(tuple(w) for w in self.antichain)
        for w in words:
            self.space.check_word(w)
        if cmp(self.declared_level, ONE) < 0:
            raise ValueError("declared_level must be >= 1")
        object.__setattr__(
            self, "antichain", _canonical_antichain(self.space.alphabet_size, words)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def full(cls, space: Space, level: CnfOrdinal = ONE) -> "ClopenSet":
        return cls(space, ((),), level)

    @classmethod
    def empty(cls, space: Space, level: CnfOrdinal = ONE) -> "ClopenSet":
        return cls(space, (), level)

    # -- queries ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.antichain

    @property
    def is_full(self) -> bool:
        return self.antichain == ((),)

    def with_level(self, level: CnfOrdinal) -> "ClopenSet":
        return ClopenSet(self.space, self.antichain, level)

    def _check_space(self, other: "ClopenSet"):
        if self.space != other.space:
            raise SpaceMismatchError("sets live in %r and %r" % (self.space, other.space))

    # -- Boolean algebra (exact) ---------------------------------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check_space(other)
        level = self.declared_level if cmp(self.declared_level, other.declared_level) >= 0 else other.declared_level
        return ClopenSet(self.space, self.antichain + other.antichain, level)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check_space(other)
        out = []
        for u in self.antichain:
            for v in other.antichain:
                if u[: len(v)] == v:
                    out.append(u)
                elif v[: len(u)] == u:
                    out.append(v)
        level = self.declared_level if cmp(self.declared_level, other.declared_level) >= 0 else other.declared_level
        return ClopenSet(self.space, tuple(out), level)

    def complement(self) -> "ClopenSet":
        k = self.space.alphabet_size
        out: list[Word] = []

        def walk(node: Word, below: list[Word]):
            # below: antichain words extending node, shifted to be relative.
            if any(w == () for w in below):
                return
            if not below:
                out.append(node)
                return
            for a in range(k):
                walk(node + (a,), [w[1:] for w in below if w[0] == a])

        walk((), list(self.antichain))
        return ClopenSet(self.space, tuple(out), add(self.declared_level, ONE))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "ClopenSet") -> bool:
        return self.difference(other).is_empty

    def __str__(self):
        return render_clopen(self)

    def __repr__(self):
        return "ClopenSet(%r, %s)" % (self.space, render_clopen(self))


def member(x: UpPoint, a: ClopenSet) -> bool:
    """Decide x in a: some antichain word is a prefix of the stream."""
    if x.space != a.space:
        raise SpaceMismatchError("point in %r, set in %r" % (x.space, a.space))
    for w in a.antichain:
        if all(x.letter(i) == c for i, c in enumerate(w)):
            return True
    return False


def least_point(a: ClopenSet) -> UpPoint:
    """The lexicographically least point: least antichain word, then zeros."""
    if a.is_empty:
        raise EmptySetError("an empty set has no least point")
    return UpPoint(a.space, min(a.antichain), (0,))


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
