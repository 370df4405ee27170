"""Exact ordinal arithmetic below epsilon_0, in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + w^e2*c2 + ... + w^en*cn  with
strictly decreasing exponents e1 > e2 > ... > en (themselves ordinals of
the same kind) and coefficients ci >= 1.  Zero is the empty sum.  The
representation is canonical: two ordinals are equal iff their term
sequences are structurally equal, so dataclass equality and hashing are
the semantic ones.

Construction does not normalize; the arithmetic below only ever builds
canonical sequences, and parse_ordinal folds arbitrary sums through
`add`, so non-canonical input text is normalized before it is stored.
The constructor checks the sequence it is given; `add`, `omega_pow` and
the text reader build canonical sequences of ordinals already built,
through `CnfOrdinal._of`, which checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParseError

__all__ = [
    "CnfOrdinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "cmp",
    "add",
    "omega_pow",
    "rank_sum",
    "parse_ordinal",
    "render_ordinal",
]


@dataclass(frozen=True)
class CnfOrdinal:
    """An ordinal below epsilon_0 as a tuple of (exponent, coefficient) pairs."""

    terms: tuple[tuple["CnfOrdinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for pair in self.terms:
            exp, coeff = pair
            if not isinstance(exp, CnfOrdinal):
                raise TypeError("exponent must be a CnfOrdinal, got %r" % (exp,))
            if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
                raise ValueError("coefficient must be a positive int, got %r" % (coeff,))
            if prev is not None and cmp(prev, exp) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @classmethod
    def _of(cls, terms: tuple[tuple["CnfOrdinal", int], ...]) -> "CnfOrdinal":
        """Wrap a sequence already in Cantor normal form, unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def from_int(cls, n: int) -> "CnfOrdinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return cls()
        return cls(((cls(), n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError("not a finite ordinal: %s" % self)
        return self.terms[0][1] if self.terms else 0

    def __add__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        return add(self, other)

    def __lt__(self, other):
        return cmp(self, other) < 0

    def __le__(self, other):
        return cmp(self, other) <= 0

    def __gt__(self, other):
        return cmp(self, other) > 0

    def __ge__(self, other):
        return cmp(self, other) >= 0

    def __str__(self):
        return render_ordinal(self)

    def __repr__(self):
        return "CnfOrdinal(%s)" % render_ordinal(self)


ZERO = CnfOrdinal()
ONE = CnfOrdinal.from_int(1)
OMEGA = CnfOrdinal(((ONE, 1),))


def cmp(a: CnfOrdinal, b: CnfOrdinal) -> int:
    """Three-way comparison of the total order: -1, 0 or 1.

    Term sequences compare lexicographically by (exponent, coefficient);
    a proper prefix is the smaller ordinal.
    """
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal sum a + b.  Terms of a below b's leading exponent are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.terms[0][0]
    kept = []
    merged_coeff = 0
    for exp, coeff in a.terms:
        c = cmp(exp, lead)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            merged_coeff = coeff
            break
        else:
            break
    if merged_coeff:
        first = (lead, merged_coeff + b.terms[0][1])
        return CnfOrdinal._of(tuple(kept) + (first,) + b.terms[1:])
    return CnfOrdinal._of(tuple(kept) + b.terms)


def omega_pow(a: CnfOrdinal) -> CnfOrdinal:
    """w raised to the ordinal a."""
    if not isinstance(a, CnfOrdinal):
        raise TypeError("exponent must be a CnfOrdinal, got %r" % (a,))
    return CnfOrdinal._of(((a, 1),))


def rank_sum(alphas) -> CnfOrdinal:
    """1 + w^a0 + w^a1 + ... for the given sequence of exponents.

    This is the shape every node rank takes; the left 1 is absorbed as
    soon as an infinite power arrives.
    """
    total = ONE
    for alpha in alphas:
        total = add(total, omega_pow(alpha))
    return total


# ---------------------------------------------------------------------------
# Text form.
#
#   ord := prod ("+" prod)*
#   prod := "w" ("^" "(" ord ")" | "^" nat)? ("*" nat)? | nat
#
# Whitespace is insignificant.  render_ordinal emits the canonical text;
# parse_ordinal accepts any well-formed sum and normalizes it.  The
# reader is a loop, but ==, hash, cmp and render_ordinal recurse once
# per level of w^( ... ) nesting, so text nested deeper than
# _MAX_NESTING is refused, well inside the interpreter's recursion
# limit.  _Scanner is also the term parser's scanner, which reads
# veb[...] indices in place.

_MAX_NESTING = 100


def _finite(n: int) -> CnfOrdinal:
    # 0 and 1 are the shared ZERO and ONE, so cmp meets them by identity.
    return (ZERO, ONE)[n] if n < 2 else CnfOrdinal._of(((ZERO, n),))


class _Scanner:
    """A cursor over text that skips whitespace before every token."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, message: str):
        line = self.text.count("\n", 0, self.i) + 1
        col = self.i - self.text.rfind("\n", 0, self.i)
        raise ParseError(message, line=line, col=col)

    def peek(self) -> str:
        """The next non-space character, or "" at the end."""
        text, i = self.text, self.i
        while i < len(text) and text[i].isspace():
            i += 1
        self.i = i
        return text[i : i + 1]

    def try_word(self, word: str) -> bool:
        self.peek()
        if self.text.startswith(word, self.i):
            self.i += len(word)
            return True
        return False

    def expect(self, word: str):
        if not self.try_word(word):
            self.error("expected %r" % word)

    def digits(self) -> str:
        """The run of ASCII digits at the cursor, possibly empty.  Other
        Unicode digits are not digits here, so every number has one
        spelling up to leading zeros."""
        self.peek()
        start = self.i
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        return self.text[start : self.i]

    def nat(self) -> int:
        run = self.digits()
        if not run:
            self.error("expected a natural number")
        return int(run)

    def _power(self, exp: CnfOrdinal) -> CnfOrdinal:
        """w^exp, times the coefficient that follows, if any."""
        coeff = 1
        if self.try_word("*"):
            coeff = self.nat()
            if coeff == 0:
                self.error("coefficient must be positive")
        return CnfOrdinal._of(((exp, coeff),))

    def ordinal(self) -> CnfOrdinal:
        """Read one sum, without recursion: `outer` holds the sum to the
        left of each open w^( ... ), innermost last."""
        outer: list[CnfOrdinal] = []
        total = ZERO
        while True:
            ch = self.peek()
            if ch == "w":
                self.i += 1
                exp = ONE
                if self.try_word("^"):
                    if self.try_word("("):
                        if len(outer) == _MAX_NESTING:
                            self.error("ordinal nested too deeply")
                        outer.append(total)
                        total = ZERO
                        continue
                    exp = _finite(self.nat())
                total = add(total, self._power(exp))
            elif "0" <= ch <= "9":
                total = add(total, _finite(self.nat()))
            else:
                self.error("expected 'w' or a natural number")
            while not self.try_word("+"):
                if not outer:
                    return total
                self.expect(")")
                exp, total = total, outer.pop()
                total = add(total, self._power(exp))


@lru_cache(maxsize=1024)
def parse_ordinal(text: str) -> CnfOrdinal:
    """The ordinal a text writes.  Ordinals are immutable, so the result
    for each text is kept in a bounded table: documents repeat a few
    Veblen indices and levels many times.  A text that fails to parse
    raises again each time it is read; errors are not kept."""
    sc = _Scanner(text)
    result = sc.ordinal()
    if sc.peek():
        sc.error("trailing input after ordinal")
    return result


def render_ordinal(o: CnfOrdinal) -> str:
    """Canonical text; parse_ordinal(render_ordinal(o)) == o."""
    if o.is_zero:
        return "0"
    parts = []
    for exp, coeff in o.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp.is_finite:
            base = "w^%d" % exp.as_int()
        else:
            base = "w^(%s)" % render_ordinal(exp)
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return " + ".join(parts)
