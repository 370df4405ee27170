"""The four benchmark workloads.

Each workload turns a seeded random stream into items (one unit of user
work) and runs one item at a time.  `make(rng, i)` builds item i and
returns it with a canonical byte string of its inputs, for the input
hash.  `run(item)` does the work and checks the outputs; it returns None
when every check passed and a short reason otherwise.

Inputs reach vebflow only as generated objects or documents.

Item sizes are stratified by item index: the property a workload sweeps
(antichain length, tree size, operation) cycles through its range
instead of being drawn afresh per item.  The distribution is the same,
but runs with different seeds see the same mix, which keeps the
percentiles steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from vebflow import cli
from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import generate as gen
from vebflow import transducer as tr
from vebflow.ordinal import ONE, add
from vebflow.space import ClopenSet, Space, sample_grid
from vebflow.term import Arrow, ArrowL, Const, Join, JoinL, Veblen, VeblenL, borel_rank, render_term, syntax_tree

SP2 = Space(2)
GRID = sample_grid(SP2, 4, 2)
# The fixed subset of grid points checked on `maps` items.
MAP_POINTS = GRID[::4]
LABELS = ("a", "b", "c", "d")
GOLDEN = 0.6180339887498949


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _sets(sets):
    return sets if isinstance(sets, tuple) else (sets,)


def _union_all(sets):
    out = ClopenSet.empty(SP2)
    for s in sets:
        out = out.union(s)
    return out


class Roundtrip:
    """Criterion-1 charts: flowchart -> simple command -> flowchart, plus
    the strongly total padding, all compared on the 64-point grid."""

    name = "roundtrip"

    def __init__(self, rng: random.Random, workdir: str):
        pass

    def make(self, rng, i):
        term = gen.random_normal_term(rng, 4, veblen=False)
        f = gen.random_total_det_flowchart(rng, term, SP2, 3)
        return f, _dumps(fl.encode_flowchart(f))

    def run(self, f):
        c = cm.flowchart_to_simple_command(f)
        back = cm.command_to_flowchart(c)
        st = cm.make_strongly_total(c)
        if not cm.is_strongly_total(st):
            return "padded command is not strongly total"
        for x in GRID:
            want = fl.eval_outcome(f, x)
            if fl.eval_outcome(back, x) != want:
                return "round trip differs at %s" % x
            if cm.eval_outcome(st, x) != want:
                return "padded command differs at %s" % x
        return None


def _wide_set(rng, e):
    # A union of 2^e random cylinders of length e+1 .. e+3.
    words = []
    for _ in range(2**e):
        n = rng.randint(e + 1, e + 3)
        words.append(tuple(rng.randrange(2) for _ in range(n)))
    return ClopenSet(SP2, tuple(words))


class WideSets:
    """Deciders and set transforms on charts whose sets are antichains of
    ~10-120 words.

    Item i uses the exponent e = 3..7 in turn.  Terms come from
    random_normal_term at depth 4, redrawn until the chart has 4 to 8
    assigned sets (a quarter of such terms do), so that e, not the size
    of the tree, sets the cost of an item.
    """

    name = "wide-sets"
    SETS = (6, 6)

    def __init__(self, rng, workdir):
        self.offset = rng.randrange(5)

    def make(self, rng, i):
        e = 3 + (i + self.offset) % 5
        while True:
            term = gen.random_normal_term(rng, 4)
            tree = syntax_tree(term)
            sites = [a for a in tree.addresses() if isinstance(tree.label(a), (ArrowL, JoinL))]
            count = sum(len(tree.children(a)) if isinstance(tree.label(a), JoinL) else 1 for a in sites)
            if self.SETS[0] <= count <= self.SETS[1]:
                break
        assign = {}
        for addr in sites:
            if isinstance(tree.label(addr), ArrowL):
                assign[addr] = _wide_set(rng, e)
            else:
                assign[addr] = tuple(_wide_set(rng, e) for _ in tree.children(addr))
        f = fl.Flowchart(term, SP2, assign)
        return f, _dumps(fl.encode_flowchart(f))

    def run(self, f):
        total, tw = fl.is_total(f)
        det, dw = fl.is_deterministic(f)
        mono = fl.to_monotone(f)
        reduced = fl.to_reduced(f)
        if not fl.is_monotone(mono):
            return "to_monotone output is not monotone"
        # A negative verdict must show its failure at the witness itself.
        if not total and fl.eval_outcome(f, tw) != ("no-true-path",):
            return "totality witness %s has a true path" % tw
        if not det and fl.eval_outcome(f, dw)[0] != "ambiguous":
            return "determinism witness %s is not ambiguous" % dw
        old = dict(f.assign)
        for addr, sets in reduced.assign:
            if not isinstance(sets, tuple):
                continue
            for n, s in enumerate(sets):
                if any(not s.intersect(t).is_empty for t in sets[n + 1 :]):
                    return "reduced family at %s overlaps" % (addr,)
            if _union_all(sets) != _union_all(old[addr]):
                return "reduced family at %s changed its union" % (addr,)
        return None


class Maps:
    """Even items: commands with palette and out_map reassignments,
    translated to flowcharts.  Odd items: pullback, monotone and Vaught
    transforms through identity, drop-first and parity-merge."""

    name = "maps"

    def __init__(self, rng, workdir):
        palette = gen.map_palette(SP2)
        for _ in range(2):
            v = gen.random_clopen(rng, SP2, 3)
            while v.is_empty or v.is_full:
                v = gen.random_clopen(rng, SP2, 3)
            palette.append(tr.out_map(v))
        self.palette = palette
        self.deltas = [tr.identity_map(SP2), tr.drop_first(SP2), tr.parity_merge()]

    def _command(self, rng):
        term = gen.random_term(rng, 3)
        tree = syntax_tree(term)
        assign = {}
        for addr in tree.addresses():
            label = tree.label(addr)
            if isinstance(label, ArrowL):
                assign[addr] = cm.ArrowSite(gen.random_clopen(rng, SP2, 3), rng.choice(self.palette))
            elif isinstance(label, JoinL):
                assign[addr] = cm.JoinSite(
                    tuple(
                        (gen.random_clopen(rng, SP2, 3), rng.choice(self.palette))
                        for _ in tree.children(addr)
                    )
                )
            elif isinstance(label, VeblenL):
                assign[addr] = cm.VeblenSite(rng.choice(self.palette))
        return cm.Command(term, SP2, assign)

    def make(self, rng, i):
        if i % 2 == 0:
            c = self._command(rng)
            return ("command", c), _dumps(cm.encode_command(c))
        term = gen.random_normal_term(rng, 3, veblen=False)
        source = gen.random_total_det_flowchart(rng, term, SP2, 3)
        delta = self.deltas[(i // 2) % 3]
        blob = _dumps([fl.encode_flowchart(source), tr.encode_transducer(delta)])
        return ("vaught", source, delta), blob

    def run(self, item):
        if item[0] == "command":
            c = item[1]
            for addr in c.tree.addresses():
                if c.tree.is_leaf(addr):
                    cm.val(c, addr)
            f = cm.command_to_flowchart(c)
            for x in MAP_POINTS:
                if cm.eval_outcome(c, x) != fl.eval_outcome(f, x):
                    return "translated chart differs at %s" % x
            return None
        _, source, delta = item
        f = fl.to_monotone(fl.pullback(source, delta))
        seen = {}
        images = [(p, tr.apply(delta, p)) for p in MAP_POINTS]
        for p, q in images:
            got = fl.eval_outcome(f, p)
            if seen.setdefault(q, got) != got:
                return "pulled-back chart is not constant on the fiber of %s" % q
        if not fl.is_total(f)[0] or not fl.is_deterministic(f)[0]:
            return "pulled-back chart is not total and deterministic"
        g = fl.vaught_transform(f, delta, 6)
        for p, q in images:
            if fl.eval_outcome(g, q) != fl.eval_outcome(f, p):
                return "Vaught transform differs at %s" % q
        return None


def sized_normal_term(rng, n, veblen=True, allow_join=True):
    """A normal closed term with exactly n nodes (n >= 1)."""
    kinds = []
    if n >= 2 and allow_join:
        kinds += ["join"] * 3
    if n >= 2 and veblen:
        kinds.append("veblen")
    if n >= 4:
        kinds += ["arrow"] * 3
    if not kinds:
        return Const(rng.choice(LABELS))
    kind = rng.choice(kinds)
    if kind == "veblen":
        return Veblen(gen.random_ordinal(rng, 1), sized_normal_term(rng, n - 1, veblen, False))
    if kind == "join":
        return Join(_sized_children(rng, n - 1, veblen))
    left = Const(rng.choice(LABELS))
    rest = n - 3
    if veblen and rest >= 2 and rng.random() < 0.3:
        left = Veblen(gen.random_ordinal(rng, 1), left)
        rest -= 1
    return Arrow(left, Join(_sized_children(rng, rest, veblen)))


def _sized_children(rng, n, veblen):
    # Split n nodes over 1..3 children, at least two when there is room,
    # so trees stay shallow.
    k = min(n, rng.choice((2, 3)))
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple(sized_normal_term(rng, m, veblen) for m in sizes)


def _node_count(term):
    return len(syntax_tree(term))


class Documents:
    """The CLI called in-process on documents written to disk.

    Flowchart and term documents have 8..256 nodes, log-uniform; command
    documents use random_term at depth 3.  Each item's expected exit
    code and output follow from how its document was built:

    - Accepted flowcharts are total and deterministic by construction,
      written monotone with every declared level reset to 1, so `check`
      passes every predicate.  (Written with the levels the generator
      gives them, most would be rejected: see bench/NOTES.md.)
    - `transform to-command` exits 3 when the term has a Veblen node of
      positive index, which has no continuous reassignment.
    - Every tenth item is a reject-path item: its flowchart declares one
      set above its node's rank, and the CLI must refuse it with exit
      code 2.
    """

    name = "documents"
    # (operation, document kind) per slot; the slot cycles with the item.
    SLOTS = (
        ("check", "fc"),
        ("eval", "fc"),
        ("monotone", "fc"),
        ("to-command", "fc"),
        ("to-flowchart", "cmd"),
        ("rank", "term"),
        ("dot", "fc"),
        ("check", "term"),
        ("dot", "cmd"),
        ("reject", "fc"),
    )

    def __init__(self, rng, workdir):
        self.dir = workdir
        self.offset = rng.random()
        self.slot_offset = rng.randrange(len(self.SLOTS))

    def _size(self, i):
        q = (self.offset + i * GOLDEN) % 1.0
        return round(8 * 32**q)

    def _chart(self, rng, n):
        term = sized_normal_term(rng, n)
        f = gen.random_total_det_flowchart(rng, term, SP2, 3)
        return fl.to_monotone(f).replace_sets(lambda addr, s: s.with_level(ONE))

    def _write(self, i, ext, text):
        path = os.path.join(self.dir, "doc%06d.%s" % (i, ext))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def make(self, rng, i):
        op, kind = self.SLOTS[(i + self.slot_offset) % len(self.SLOTS)]
        out = os.path.join(self.dir, "out%06d.json" % i)
        if os.path.exists(out):
            os.remove(out)
        expect = {"code": 0}
        point = None
        if kind == "cmd":
            term = gen.random_term(rng, 3)
            doc = gen.random_command(rng, term, SP2, 3)
            text = json.dumps(cm.encode_command(doc), sort_keys=True)
        elif kind == "term":
            doc = sized_normal_term(rng, self._size(i))
            term = doc
            text = render_term(doc)
        else:
            doc = self._chart(rng, self._size(i))
            term = doc.term
            if op == "reject":
                # Declare the first assigned set one above its node's rank.
                addr, sets = doc.assign[0]
                first = _sets(sets)[0]
                bumped = first.with_level(add(borel_rank(term, addr), ONE))
                doc = doc.replace_sets(lambda a, s: bumped if s is first else s)
            text = json.dumps(fl.encode_flowchart(doc), sort_keys=True)
        path = self._write(i, kind, text)
        if op == "check":
            argv = ["check", path]
        elif op == "eval":
            point = GRID[rng.randrange(len(GRID))]
            argv = ["eval", path, str(point)]
            expect["stdout"] = fl.eval_flowchart(doc, point) + "\n"
        elif op in ("monotone", "to-command", "to-flowchart"):
            argv = ["transform", op, path, "--verify", "--out", out]
            if op == "to-command" and any(
                isinstance(lab, VeblenL) and not lab.index.is_zero
                for lab in syntax_tree(term).nodes.values()
            ):
                expect["code"] = 3
            else:
                expect["stderr"] = "eval agreement: %d/%d points\n" % (len(GRID), len(GRID))
                expect["out"] = (out, "command" if op == "to-command" else "flowchart")
        elif op == "rank":
            argv = ["rank", path]
            expect["lines"] = _node_count(term)
        elif op == "dot":
            argv = ["dot", path]
            # Header, node style and closing brace, one line per node and edge.
            expect["lines"] = 2 * _node_count(term) + 2
        else:
            argv = [rng.choice(("check", "rank", "dot")), path]
            expect = {"code": 2, "stderr": "error: declared level exceeds the node rank\n"}
        blob = _dumps([op, kind, argv[0], str(point), text])
        return (argv, expect), blob

    def run(self, item):
        argv, expect = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != expect["code"]:
            return "%s exited %r, expected %d: %s" % (argv[0], code, expect["code"], err.getvalue().strip())
        text = out.getvalue()
        if "stdout" in expect and text != expect["stdout"]:
            return "eval printed %r, expected %r" % (text, expect["stdout"])
        if "stderr" in expect and err.getvalue() != expect["stderr"]:
            return "stderr was %r" % err.getvalue()
        if "lines" in expect and len(text.splitlines()) != expect["lines"]:
            return "%s printed %d lines, expected %d" % (argv[0], len(text.splitlines()), expect["lines"])
        if argv[0] == "check" and code == 0 and any(not line.endswith(": pass") for line in text.splitlines()):
            return "check reported a failing predicate"
        if "out" in expect:
            path, kind = expect["out"]
            with open(path, encoding="utf-8") as fh:
                if json.load(fh).get("kind") != kind:
                    return "transform wrote no %s document" % kind
        return None


WORKLOADS = {w.name: w for w in (Roundtrip, WideSets, Maps, Documents)}
