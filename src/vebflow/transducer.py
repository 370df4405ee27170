"""Continuous maps between stream spaces as finite-state transducers.

A transducer reads one input letter per step and emits a finite (possibly
empty) output word.  Machines are total (every state handles every
letter) and productive: no reachable cycle is silent, so every infinite
input yields an infinite output.  Every such machine denotes a
continuous map, and the class is closed under composition.

The constructor only checks a machine.  Its normal form (states
numbered breadth first from the initial state, unreachable states
dropped) is computed by `_numbered` and kept on the machine as
`_normal`.  The results of `Transducer.build`, of `identity_map` and of
`compose`'s product machine are their own normal form from the start;
any other machine renumbers once, on first request.  `compose` returns normal forms only,
so structural equality of its results and `build`'s is the meaningful
comparison and codecs are byte stable.

Two bounded tables answer repeated work, `functools.lru_cache`s like
`identity_map`'s.  `_product` holds `compose`'s product machines, keyed
on the normal forms of the two sides, so machines equal up to
renumbering share one entry; it keeps at most 256 pairs.
`_outside_range` holds, per normal form, what `vaught_transform`'s
surjectivity check needs: a point outside the map's range, or None
when the map is onto; it keeps at most 64.  An entry keeps its key machines
and its result alive until it is evicted, and nothing else: a machine
refers only to its spaces, its steps and itself.  A key is a flat
table of steps, so it hashes in time linear in its size.  No table is
keyed on a trie: tries are nested tuples whose hash recurses once per
level, so a deep trie would overflow the C stack.  A budget refusal is
not stored, so it is raised again, with the same message, on every call.

Three set-level operations are provided.  `apply` evaluates the map on
an ultimately periodic point exactly, by cycle detection.  `preimage`
computes the exact preimage of a clopen set, always, as a product of
machine states and trie nodes.  `image` computes the exact forward image
of a clopen set in one depth-first walk over the finite graph of
configuration sets (sets of machine state and pending output word, one
edge per output letter); the mixed sets, from which a path reaches the
empty set, are the inner nodes of the image's trie.  When the trie is
taller than the depth bound (infinitely so when the image is not clopen)
`image` refuses (UndecidedImageError) rather than guess, so a returned
answer is always correct.  The same walk finds a point outside a range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DocumentError, EmptySetError, ParseError, SpaceMismatchError, UndecidedImageError
from .space import (
    ClopenSet,
    Space,
    Trie,
    UpPoint,
    Word,
    _canonical,
    _check_alphabet,
    _leftmost,
    _node,
    parse_clopen,
    parse_word,
    render_word,
)

__all__ = [
    "Transducer",
    "identity_map",
    "compose",
    "apply",
    "preimage",
    "image",
    "in_map",
    "out_map",
    "drop_first",
    "letter_double",
    "parity_merge",
    "const_zero",
    "encode_transducer",
    "decode_transducer",
    "encode_map",
    "decode_map",
]

_COVER_BUDGET = 20000


@dataclass(frozen=True)
class Transducer:
    """A deterministic, total, productive finite-state transducer.

    steps[state][letter] == (next_state, output_word).
    """

    input_space: Space
    output_space: Space
    init: int
    steps: tuple[tuple[tuple[int, Word], ...], ...]

    def __post_init__(self):
        k_in = self.input_space.alphabet_size
        n = len(self.steps)
        if not (0 <= self.init < n):
            raise ValueError("initial state out of range")
        silent_in = [0] * n
        for row in self.steps:
            if len(row) != k_in:
                raise ValueError("every state must handle every input letter")
            for nxt, out in row:
                if not (0 <= nxt < n):
                    raise ValueError("transition target out of range")
                self.output_space.check_word(out)
                if not out:
                    silent_in[nxt] += 1
        # Productivity: peel off states no silent edge enters (Kahn); the
        # silent-edge subgraph is acyclic exactly when every state goes.
        peeled = [s for s in range(n) if not silent_in[s]]
        for s in peeled:
            for nxt, out in self.steps[s]:
                if not out:
                    silent_in[nxt] -= 1
                    if not silent_in[nxt]:
                        peeled.append(nxt)
        if len(peeled) < n:
            raise ValueError("transducer has a silent cycle (not productive)")

    @classmethod
    def build(cls, input_space: Space, output_space: Space, init, delta: dict) -> "Transducer":
        """Normalize a {(state, letter): (next, word)} table: breadth-first
        renumbering from the initial state, unreachable states dropped."""
        try:
            steps = _numbered(init, input_space.alphabet_size, lambda s, a: delta[s, a])
        except KeyError as e:
            raise ValueError("missing transition (%r, %d)" % e.args[0]) from None
        return _own_normal(cls(input_space, output_space, 0, steps))

    @cached_property
    def _identity(self) -> bool:
        """Is this the machine identity_map builds: one state echoing
        each letter?  Decided on first request and kept."""
        return self == identity_map(self.input_space)

    @cached_property
    def _normal(self) -> "Transducer":
        """This machine in normal form: itself when it already is, else
        the renumbered machine.  Computed on first request and kept."""
        steps = _numbered(self.init, self.input_space.alphabet_size, self.step)
        if self.init == 0 and steps == self.steps:
            return self
        return _own_normal(Transducer(self.input_space, self.output_space, 0, steps))

    def step(self, state: int, letter: int) -> tuple[int, Word]:
        return self.steps[state][letter]

    def run_word(self, state: int, word: Word) -> tuple[int, Word]:
        out: list[int] = []
        for a in word:
            state, w = self.steps[state][a]
            out.extend(w)
        return state, tuple(out)

    def __repr__(self):
        return "Transducer(%d states, %r -> %r)" % (
            len(self.steps),
            self.input_space,
            self.output_space,
        )


# ---------------------------------------------------------------------------
# Constructors.


@lru_cache(maxsize=8)
def identity_map(space: Space) -> Transducer:
    """The one-state machine echoing each letter; one per space, as
    transducers are immutable.  Its one row is already numbered as
    `_numbered` would number it."""
    row = tuple((0, (a,)) for a in range(space.alphabet_size))
    return _own_normal(Transducer(space, space, 0, (row,)))


def drop_first(space: Space) -> Transducer:
    delta = {(0, a): (1, ()) for a in range(space.alphabet_size)}
    delta.update({(1, a): (1, (a,)) for a in range(space.alphabet_size)})
    return Transducer.build(space, space, 0, delta)


def letter_double(space: Space) -> Transducer:
    delta = {(0, a): (0, (a, a)) for a in range(space.alphabet_size)}
    return Transducer.build(space, space, 0, delta)


def parity_merge() -> Transducer:
    """Space(2) -> Space(2): reads letter pairs, emits their sum mod 2.

    Open and surjective, with closed point fibers; a two-to-one style
    quotient useful as a name map.
    """
    space = Space(2)
    delta = {}
    for a in range(2):
        delta[(0, a)] = (1 + a, ())
        for p in range(2):
            delta[(1 + p, a)] = (0, ((p + a) % 2,))
    return Transducer.build(space, space, 0, delta)


def const_zero(input_space: Space, output_space: Space) -> Transducer:
    delta = {(0, a): (0, (0,)) for a in range(input_space.alphabet_size)}
    return Transducer.build(input_space, output_space, 0, delta)


def _numbered(init, k: int, step) -> tuple[tuple[tuple[int, Word], ...], ...]:
    """The normal form: the steps table of the states reachable from
    init under step(state, letter) -> (next, word), numbered breadth
    first from 0."""
    number = {init: 0}
    order = [init]
    rows = []
    for s in order:
        row = []
        for a in range(k):
            nxt, out = step(s, a)
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            row.append((number[nxt], tuple(out)))
        rows.append(tuple(row))
    return tuple(rows)


def _own_normal(f: Transducer) -> Transducer:
    """Mark f, numbered by `_numbered` from state 0, as its own normal
    form, and return it."""
    object.__setattr__(f, "_normal", f)
    return f


def compose(outer: Transducer, inner: Transducer) -> Transducer:
    """The map x -> outer(inner(x)), as a product machine.

    When either side is the identity the product machine is the other
    side, renumbered from its initial state, so that side's normal form
    is returned.  Any other product is built once per distinct pair of
    normal forms, in the `_product` table.
    """
    if inner.output_space is not outer.input_space and inner.output_space != outer.input_space:
        raise SpaceMismatchError(
            "cannot compose: inner emits %r, outer reads %r"
            % (inner.output_space, outer.input_space)
        )
    if inner._identity:
        return outer._normal
    if outer._identity:
        return inner._normal
    return _product(outer._normal, inner._normal)


@lru_cache(maxsize=256)
def _product(outer: Transducer, inner: Transducer) -> Transducer:
    """compose's product machine of two normal forms, in normal form."""

    def step(pair, a):
        si, w = inner.steps[pair[0]][a]
        so, out = outer.run_word(pair[1], w)
        return (si, so), out

    start = (inner.init, outer.init)
    steps = _numbered(start, inner.input_space.alphabet_size, step)
    return _own_normal(Transducer(inner.input_space, outer.output_space, 0, steps))


def in_map(v: ClopenSet) -> Transducer:
    """The cylinder-selection map from Space(m), m = antichain length.

    The first input letter n picks the antichain word e_V(n), which is
    emitted; later letters are copied (mod k, the target alphabet, so
    copying is verbatim whenever m <= k).  The map always lands in V and
    is injective for m <= k; it is bijective onto V exactly when m = k.
    """
    if v.is_empty:
        raise EmptySetError("in_map needs a nonempty set")
    words = v.antichain
    m = len(words)
    k = v.space.alphabet_size
    delta = {}
    for n in range(m):
        delta[(0, n)] = (1, words[n])
    for a in range(m):
        delta[(1, a)] = (1, (a % k,))
    return Transducer.build(Space(m), v.space, 0, delta)


def out_map(v: ClopenSet) -> Transducer:
    """The canonical retraction of the space onto the complement of V.

    Identity outside V.  A point of V is redirected to the
    lexicographically least point of complement(V) within the cylinder
    of the longest prefix that still meets the complement.
    """
    if v.is_full:
        raise EmptySetError("out_map needs a proper subset: the complement is empty")
    space = v.space
    if v.is_empty:
        return identity_map(space)
    k = space.alphabet_size
    delta = {("copy", a): ("copy", (a,)) for a in range(k)}
    # (p, the inner node of V's trie at p): p is the held-back path.
    stack = [((), v.trie)]
    while stack:
        p, node = stack.pop()
        for a, child in enumerate(node):
            w = p + (a,)
            if child is True:
                # x is now known to lie in V; p is the longest prefix whose
                # cylinder still meets the complement (a reduced inner node
                # is never full), so x goes to the least point there.
                tail = _leftmost(space, node, False)
                target = UpPoint(space, p + tail.prefix, tail.period)
                pump = ("pump", target.period)
                delta[(("t",) + p, a)] = (pump, target.prefix + target.period)
                delta.update({(pump, b): (pump, target.period) for b in range(k)})
            elif child is False:
                # x has left the trie: it is outside V, replay the buffer.
                delta[(("t",) + p, a)] = ("copy", w)
            else:
                delta[(("t",) + p, a)] = (("t",) + w, ())
                stack.append((w, child))
    return Transducer.build(space, space, ("t",), delta)


# ---------------------------------------------------------------------------
# Evaluation on ultimately periodic points.


def apply(f: Transducer, x: UpPoint) -> UpPoint:
    """Exact image of an ultimately periodic point.

    After the input prefix, the pair (machine state, phase within the
    input period) must repeat within |states| * |period| steps; the
    output emitted between two visits is the output period.  The
    constructor checked every output word, so the point is only made
    canonical, not checked again.
    """
    if x.space is not f.input_space and x.space != f.input_space:
        raise SpaceMismatchError("point in %r, map reads %r" % (x.space, f.input_space))
    if f._identity:
        return x
    steps = f.steps
    state = f.init
    out: list[int] = []
    for a in x.prefix:
        state, w = steps[state][a]
        out.extend(w)
    seen: dict[tuple[int, int], int] = {}
    phase = 0
    while (state, phase) not in seen:
        seen[(state, phase)] = len(out)
        state, w = steps[state][x.period[phase]]
        out.extend(w)
        phase = (phase + 1) % len(x.period)
    cut = seen[(state, phase)]
    period = tuple(out[cut:])
    if not period:
        raise AssertionError("silent cycle escaped the productivity check")
    return UpPoint._of(f.output_space, *_canonical(tuple(out[:cut]), period))


# ---------------------------------------------------------------------------
# Exact preimage.


def preimage(f: Transducer, a: ClopenSet) -> ClopenSet:
    """The exact preimage of a clopen set, as a clopen set.

    A memoised product of machine states and trie nodes of `a`: the
    preimage of (state s, node n) has, for each input letter, the node
    reached from n by following the output emitted from s, paired with
    the next state.  Along any input branch the output grows
    (productivity), so every branch reaches a leaf of the trie at
    bounded depth: True accepts the input cylinder, False rejects it.
    The walk is `space._combine`'s: one frame per pair being built,
    resuming at its next letter once the pair that letter reaches is
    built, so each letter's step and descent is made once.  Silent
    cycles are banned, so a pair never waits on itself.
    """
    if a.space is not f.output_space and a.space != f.output_space:
        raise SpaceMismatchError("set in %r, map emits %r" % (a.space, f.output_space))
    if f._identity:
        return a
    t = a.trie
    if t.__class__ is not tuple:
        return ClopenSet._of(f.input_space, t, a.declared_level)
    steps = f.steps
    done: dict[tuple[int, int], Trie] = {}
    stack: list = []
    # A frame: the iterator over a state's steps, the node they read,
    # the pair's memo key and its children so far.
    moves, node, key, kids = iter(steps[f.init]), t, None, []
    while True:
        for nxt, out in moves:
            sub = node
            for c in out:
                sub = sub[c]
                if sub.__class__ is bool:
                    break
            if sub.__class__ is tuple:
                pair = (nxt, id(sub))
                t = done.get(pair)
                if t is None:
                    stack.append((moves, node, key, kids))
                    moves, node, key, kids = iter(steps[nxt]), sub, pair, []
                    break
                sub = t
            kids.append(sub)
        else:
            t = _node(kids)
            if not stack:
                break
            done[key] = t
            moves, node, key, kids = stack.pop()
            kids.append(t)
    return ClopenSet._of(f.input_space, t, a.declared_level)


# ---------------------------------------------------------------------------
# Exact forward image with refusal.
#
# For clopen A with antichain words a_i, the image is the finite union
# of the sets o_i . Range(s_i), where s_i is the state reached on a_i
# and o_i the output emitted on the way, and Range(s) is the set of all
# output streams of the machine started in s.  A configuration (s, u)
# with u nonempty denotes u . Range(s); a set of them denotes the union,
# which is what the image looks like inside one output cylinder.  The
# child of a set for output letter c keeps the configurations pending c
# and drops that letter, so the sets form a finite graph with one edge
# per output letter (pending words are suffixes of the machine's
# outputs, so there are finitely many configurations).  Range(s) is
# never empty, so a set is one of three kinds:
#
#   * empty: the image misses the cylinder (the trie leaf False);
#   * covering: no path reaches the empty set, so the image is dense in
#     the cylinder and, being compact, contains it (the leaf True);
#   * mixed: some path reaches the empty set (an inner trie node).
#
# The set reached along an output word v is mixed exactly when v is an
# inner node of the image's reduced trie.  One post-order walk builds
# each set's trie and height, counting a set still open on its stack as
# covering.  Such a set lies on a cycle: if it comes out mixed, mixed
# paths of every length leave the root and the height is infinite;
# otherwise every count was right.  Either way a leaf False is the empty
# set, so a path to one names a cylinder the image misses.


def _settle(f: Transducer, configs) -> frozenset:
    """Unfold each configuration with nothing pending into the machine's
    next steps, until every one pends a nonempty word.  Silent cycles
    are banned, so the unfolding terminates."""
    out = set()
    unfolded = set()
    stack = list(configs)
    while stack:
        s, u = stack.pop()
        if u:
            out.add((s, u))
        elif s not in unfolded:
            unfolded.add(s)
            stack.extend(f.steps[s])
    return frozenset(out)


def _walk(f: Transducer, root: frozenset) -> tuple[Trie, float]:
    """The trie of the image below the configuration set root and its
    height, infinite when the image is not clopen.  Raises
    UndecidedImageError once more than _COVER_BUDGET sets, the empty
    set included, are reached."""
    k = f.output_space.alphabet_size
    opened = (True, 0)  # a set still open counts as covering
    built = {root: opened}  # each set's (trie, height)
    looped = set()  # the open sets so counted
    # A frame: a set and its children so far.
    stack: list = []
    configs, row = root, []
    while True:
        while configs and len(row) < k:
            c = len(row)
            nxt = _settle(f, [(s, u[1:]) for s, u in configs if u[0] == c])
            row.append(nxt)
            got = built.get(nxt)
            if got is None:
                built[nxt] = opened
                if len(built) > _COVER_BUDGET:
                    raise UndecidedImageError("image coverage exceeded the configuration budget")
                stack.append((configs, row))
                configs, row = nxt, []
            elif got is opened:
                looped.add(nxt)
        # An open child is an ancestor, so it is still open here.
        t = _node([built[x][0] for x in row]) if configs else False
        h = 0
        if t.__class__ is tuple:
            h = float("inf") if configs in looped else 1 + max(built[x][1] for x in row)
        if not stack:
            return t, h
        built[configs] = (t, h)
        configs, row = stack.pop()


def image(f: Transducer, a: ClopenSet, depth_bound: int) -> ClopenSet:
    """The exact forward image f[a], certified clopen, or a refusal.

    Raises UndecidedImageError when the image's trie is taller than the
    depth bound (in particular whenever the image is not clopen), or
    when the walk exceeds _COVER_BUDGET configuration sets.  A returned
    set is exactly f[a]: every leaf of its trie is a configuration set
    proven empty or covering.
    """
    if a.space is not f.input_space and a.space != f.input_space:
        raise SpaceMismatchError("set in %r, map reads %r" % (a.space, f.input_space))
    t, height = _walk(f, _settle(f, [f.run_word(f.init, w) for w in a.antichain]))
    if height > depth_bound:
        raise UndecidedImageError("image undecided at depth %d (possibly not clopen)" % depth_bound)
    return ClopenSet._of(f.output_space, t, a.declared_level)


@lru_cache(maxsize=64)
def _outside_range(f: Transducer) -> UpPoint | None:
    """A point outside f's range (the image of the whole input space),
    read off the walk's leftmost empty leaf, or None when f is onto; f
    in normal form."""
    t, _ = _walk(f, _settle(f, [(f.init, ())]))
    return None if t is True else _leftmost(f.output_space, t, False)


# ---------------------------------------------------------------------------
# Documents.  A transducer document is
#   {"states": n, "init": 0, "in_space": k, "out_space": k',
#    "trans": [{"from": s, "in": a, "to": s', "out": word-literal}, ...]}
# with one transition per (state, letter), sorted, and "e" for the empty
# output word.  decode returns the normal form, so encode . decode is
# byte stable on the document of any machine in normal form.  An
# alphabet past space.MAX_ALPHABET is refused as unsupported.


def encode_transducer(f: Transducer) -> dict:
    trans = []
    for s, row in enumerate(f.steps):
        for a, (nxt, out) in enumerate(row):
            trans.append({"from": s, "in": a, "to": nxt, "out": render_word(out)})
    return {
        "states": len(f.steps),
        "init": f.init,
        "in_space": f.input_space.alphabet_size,
        "out_space": f.output_space.alphabet_size,
        "trans": trans,
    }


def decode_transducer(doc) -> Transducer:
    if not isinstance(doc, dict):
        raise DocumentError("a transducer document is a JSON object")
    try:
        n = doc["states"]
        init = doc["init"]
        k_in = doc["in_space"]
        k_out = doc["out_space"]
        trans = doc["trans"]
    except (KeyError, TypeError):
        raise DocumentError(
            "transducer document needs states, init, in_space, out_space, trans"
        ) from None
    for name, v in (("states", n), ("init", init), ("in_space", k_in), ("out_space", k_out)):
        if type(v) is not int:
            raise DocumentError("%s must be an integer" % name)
    _check_alphabet(k_in)
    _check_alphabet(k_out)
    if n < 1:
        raise DocumentError("a transducer needs at least one state")
    if not (0 <= init < n):
        raise DocumentError("init must name one of the %d states" % n)
    if not isinstance(trans, list):
        raise DocumentError("trans must be a list of transitions")
    delta = {}
    for entry in trans:
        if not isinstance(entry, dict) or set(entry) != {"from", "in", "to", "out"}:
            raise DocumentError("a transition is {from, in, to, out}, got %r" % (entry,))
        s, a, nxt, word_text = entry["from"], entry["in"], entry["to"], entry["out"]
        if not all(type(v) is int for v in (s, a, nxt)):
            raise DocumentError("transition endpoints and letters are integers")
        if not (0 <= s < n and 0 <= nxt < n):
            raise DocumentError("transition %r targets an unknown state" % (entry,))
        if not (0 <= a < k_in):
            raise DocumentError("transition %r reads a letter outside the alphabet" % (entry,))
        if not isinstance(word_text, str):
            raise DocumentError("output words are written as word literals")
        if (s, a) in delta:
            raise DocumentError("duplicate transition for state %d letter %d" % (s, a))
        try:
            delta[(s, a)] = (nxt, parse_word(word_text))
        except ParseError as e:
            raise DocumentError("transition for state %d letter %d: %s" % (s, a, e)) from None
    for s in range(n):
        for a in range(k_in):
            if (s, a) not in delta:
                raise DocumentError("missing transition for state %d letter %d" % (s, a))
    try:
        return Transducer.build(Space(k_in), Space(k_out), init, delta)
    except ValueError as e:
        raise DocumentError(str(e)) from None


# Named references for the small builtin library used inside command
# documents: resolved against the space of the node the map sits at.


def encode_map(f: Transducer, space: Space):
    if f.input_space == space and f._identity:
        return "identity"
    return encode_transducer(f)


def decode_map(ref, space: Space) -> Transducer:
    if isinstance(ref, str):
        if ref == "identity":
            return identity_map(space)
        if ref == "drop-first":
            return drop_first(space)
        if ref == "double":
            return letter_double(space)
        if ref == "parity-merge":
            if space.alphabet_size != 2:
                raise DocumentError("parity-merge needs a binary space")
            return parity_merge()
        raise DocumentError("unknown map reference %r" % ref)
    if isinstance(ref, dict) and set(ref) in ({"in"}, {"out"}):
        ((side, text),) = ref.items()
        if not isinstance(text, str):
            raise DocumentError("an %r reference is a set literal string, got %r" % (side, text))
        try:
            v = parse_clopen(space, text)
            return in_map(v) if side == "in" else out_map(v)
        except (ParseError, ValueError, EmptySetError) as e:
            raise DocumentError("bad map reference %r: %s" % (ref, e)) from None
    if isinstance(ref, dict):
        return decode_transducer(ref)
    raise DocumentError("a map is a name, an in/out reference, or an inline machine")
