"""Seeded random values for fuzzing and the acceptance sweeps.

Everything takes an explicit random.Random so sweeps are reproducible
from a seed.  The total/deterministic flowchart recipe builds the
assignment top-down: join families are padded to cover the running
domain and then disjointified, which forces a unique true path for
every point.  Callers re-verify both properties independently; the
recipe is a generator, not an oracle.
"""

from __future__ import annotations

import random

from .command import ArrowSite, Command, JoinSite, VeblenSite
from .flowchart import Flowchart
from .ordinal import ONE, ZERO, CnfOrdinal, add, omega_pow
from .space import ClopenSet, Space
from .term import Arrow, Const, Join, Term, Var, Veblen, syntax_tree, ArrowL, JoinL, VeblenL
from .transducer import Transducer, drop_first, identity_map, letter_double, parity_merge

__all__ = [
    "random_ordinal",
    "random_term",
    "random_normal_term",
    "random_clopen",
    "random_flowchart",
    "random_total_det_flowchart",
    "random_command",
    "map_palette",
]

_LABELS = ("a", "b", "c", "d")


def random_ordinal(rng: random.Random, height: int = 2) -> CnfOrdinal:
    """A CNF ordinal with exponent towers of at most the given height."""
    total = ZERO
    for _ in range(rng.randint(0, 2)):
        exp = random_ordinal(rng, height - 1) if height > 0 else ZERO
        piece = omega_pow(exp)
        for _ in range(rng.randint(1, 3)):
            piece = add(piece, omega_pow(exp))
        # Adding largest-first keeps every piece visible.
        total = add(total, piece) if total >= piece else add(piece, total)
    return total


def random_term(
    rng: random.Random,
    depth: int,
    labels=_LABELS,
    closed: bool = True,
    veblen: bool = True,
) -> Term:
    """An arbitrary well-formed term of at most the given height."""
    kinds = ["const"]
    if not closed:
        kinds.append("var")
    if depth > 0:
        kinds += ["arrow", "join"]
        if veblen:
            kinds.append("veblen")
    kind = rng.choice(kinds)
    if kind == "const":
        return Const(rng.choice(labels))
    if kind == "var":
        return Var(rng.choice(labels))
    if kind == "arrow":
        return Arrow(
            random_term(rng, depth - 1, labels, closed, veblen),
            random_term(rng, depth - 1, labels, closed, veblen),
        )
    if kind == "join":
        return Join(
            tuple(
                random_term(rng, depth - 1, labels, closed, veblen)
                for _ in range(rng.randint(1, 3))
            )
        )
    child = random_term(rng, depth - 1, labels, closed, veblen)
    while isinstance(child, Join):
        # veblen directly over a join is not well formed
        child = random_term(rng, depth - 1, labels, closed, veblen)
    return Veblen(random_ordinal(rng, 1), child)


def random_normal_term(
    rng: random.Random, depth: int, labels=_LABELS, veblen: bool = True
) -> Term:
    """A normal term: every ~> node tests a leaf/Veblen and enters a join."""
    kinds = ["const"]
    if depth > 0:
        kinds += ["join", "arrow"]
        if veblen:
            kinds.append("veblen")
    kind = rng.choice(kinds)
    if kind == "const":
        return Const(rng.choice(labels))
    if kind == "join":
        return Join(
            tuple(
                random_normal_term(rng, depth - 1, labels, veblen)
                for _ in range(rng.randint(1, 3))
            )
        )
    if kind == "veblen":
        child = random_normal_term(rng, depth - 1, labels, veblen)
        while isinstance(child, Join):
            child = random_normal_term(rng, depth - 1, labels, veblen)
        return Veblen(random_ordinal(rng, 1), child)
    left = Const(rng.choice(labels))
    if veblen and depth > 1 and rng.random() < 0.3:
        left = Veblen(random_ordinal(rng, 1), left)
    right = Join(
        tuple(
            random_normal_term(rng, depth - 2 if depth > 1 else 0, labels, veblen)
            for _ in range(rng.randint(1, 3))
        )
    )
    return Arrow(left, right)


def random_clopen(rng: random.Random, space: Space, max_depth: int) -> ClopenSet:
    """A random union of cylinders of bounded depth (possibly empty/full)."""
    k = space.alphabet_size
    words = []
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(0, max_depth)
        words.append(tuple(rng.randrange(k) for _ in range(n)))
    return ClopenSet(space, tuple(words))


def random_flowchart(rng: random.Random, term: Term, space: Space, set_depth: int) -> Flowchart:
    """Arbitrary assignment; no totality or determinism promised."""
    tree = syntax_tree(term)
    assign = {}
    for addr in tree.addresses():
        label = tree.label(addr)
        if isinstance(label, ArrowL):
            assign[addr] = random_clopen(rng, space, set_depth)
        elif isinstance(label, JoinL):
            assign[addr] = tuple(
                random_clopen(rng, space, set_depth) for _ in tree.children(addr)
            )
    return Flowchart(term, space, assign)


def random_total_det_flowchart(
    rng: random.Random, term: Term, space: Space, set_depth: int
) -> Flowchart:
    """Random sets, then each join family padded to cover the running
    domain and disjointified, forcing a unique true path everywhere.

    Every set is declared at level 1, which any node's rank admits: the
    complements taken along the way raise the declared level, but the
    sets they build are still clopen."""
    tree = syntax_tree(term)
    assign = {}
    domains = {(): ClopenSet.full(space)}
    for addr in tree.addresses():
        label = tree.label(addr)
        d = domains[addr]
        if isinstance(label, ArrowL):
            s = random_clopen(rng, space, set_depth)
            assign[addr] = s
            domains[addr + (0,)] = d.difference(s)
            domains[addr + (1,)] = d.intersect(s)
        elif isinstance(label, JoinL):
            raw = [random_clopen(rng, space, set_depth) for _ in tree.children(addr)]
            covered = ClopenSet.empty(space)
            for s in raw:
                covered = covered.union(s)
            raw[0] = raw[0].union(d.difference(covered))
            family = []
            seen = ClopenSet.empty(space)
            for s in raw:
                family.append(s.difference(seen).with_level(ONE))
                seen = seen.union(s)
            assign[addr] = tuple(family)
            for n, s in enumerate(family):
                domains[addr + (n,)] = d.intersect(s)
        elif isinstance(label, VeblenL):
            domains[addr + (0,)] = d
    return Flowchart(term, space, assign)


def map_palette(space: Space) -> list[Transducer]:
    """Small stock of endomaps of a space, for random commands."""
    out = [identity_map(space), drop_first(space), letter_double(space)]
    if space.alphabet_size == 2:
        out.append(parity_merge())
    return out


def random_command(rng: random.Random, term: Term, space: Space, set_depth: int) -> Command:
    """Random tests and palette reassignments (working space never changes)."""
    tree = syntax_tree(term)
    palette = map_palette(space)
    assign = {}
    for addr in tree.addresses():
        label = tree.label(addr)
        if isinstance(label, ArrowL):
            assign[addr] = ArrowSite(
                random_clopen(rng, space, set_depth), rng.choice(palette)
            )
        elif isinstance(label, JoinL):
            assign[addr] = JoinSite(
                tuple(
                    (random_clopen(rng, space, set_depth), rng.choice(palette))
                    for _ in tree.children(addr)
                )
            )
        elif isinstance(label, VeblenL):
            assign[addr] = VeblenSite(rng.choice(palette))
    return Command(term, space, assign)
