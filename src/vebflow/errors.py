"""Exception types shared across the library."""


class VebflowError(Exception):
    """Base class for every error raised by this library."""


class ParseError(VebflowError):
    """Malformed textual input (ordinal, term, point or set literal)."""

    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else " at line %d, column %d" % (line, col)
        super().__init__(message + loc)
        self.line = line
        self.col = col


class DocumentError(VebflowError):
    """Structured document (JSON codec) violates its schema or invariants."""


class InvalidAddressError(VebflowError):
    """An address does not name a node of the given syntax tree."""


class SpaceMismatchError(VebflowError):
    """Operands live in different spaces, or map wiring does not compose."""


class EmptySetError(VebflowError):
    """An operation needs a nonempty (or non-full) clopen set."""


class OpenTermError(VebflowError):
    """A closed term was required but the term contains variables."""


class NonNormalTermError(VebflowError):
    """The monotone transform is only defined over normal terms."""


class NoTruePathError(VebflowError):
    """Evaluation reached no leaf: the machine is not total at this point."""


class AmbiguousLabelsError(VebflowError):
    """Evaluation reached leaves carrying distinct labels."""

    def __init__(self, labels):
        super().__init__("true paths carry distinct labels: %s" % ", ".join(sorted(labels)))
        self.labels = frozenset(labels)


class NotMonotoneError(VebflowError):
    """A transform required a monotone flowchart (assigned sets inside domains)."""


class UndecidedImageError(VebflowError):
    """Forward image could not be certified clopen within the depth bound."""


class UnsupportedError(VebflowError):
    """Input is outside the supported fragment (e.g. positive Veblen indices)."""
