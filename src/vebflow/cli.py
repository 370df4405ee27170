"""Batch front end: check, evaluate, transform, rank, draw, fuzz.

Documents are plain files picked up by extension: .term holds the term
DSL, .fc/.cmd/.tr hold JSON flowcharts, commands and transducers.
Everything prints deterministically given the inputs and the seed.

Exit codes: 0 all good, 1 semantic failure (report says what), 2 usage
or parse problems, 3 unsupported precondition.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import command as cm
from . import flowchart as fl
from . import generate as gen
from . import transducer as tr
from .errors import (
    DocumentError,
    NonNormalTermError,
    NotMonotoneError,
    ParseError,
    SpaceMismatchError,
    UndecidedImageError,
    UnsupportedError,
    VebflowError,
)
from .ordinal import render_ordinal
from .space import Space, member, parse_point, render_clopen, render_point, sample_grid
from .term import (
    ArrowL,
    Const,
    JoinL,
    Var,
    borel_ranks,
    is_closed,
    is_normal,
    is_well_formed,
    parse_term,
    render_term,
    syntax_tree,
)

__all__ = ["main"]


def load_document(path: str):
    """Read a document, dispatching on the file extension."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".term"):
        return "term", parse_term(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError("%s: not valid JSON: %s" % (path, e)) from None
    except RecursionError:
        raise DocumentError("%s: JSON nested too deeply" % path) from None
    if path.endswith(".fc"):
        return "flowchart", fl.decode_flowchart(doc)
    if path.endswith(".cmd"):
        return "command", cm.decode_command(doc)
    if path.endswith(".tr"):
        return "transducer", tr.decode_transducer(doc)
    raise DocumentError("%s: unknown document extension (.term/.fc/.cmd/.tr)" % path)


def _grid(args, space: Space):
    return sample_grid(space, args.grid_prefix, args.grid_period)


def _emit(doc: dict, out_path: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _addr_text(addr) -> str:
    return fl.render_address(addr) or "e"


# ---------------------------------------------------------------------------
# check


def _report(lines) -> int:
    failed = False
    for name, ok, note in lines:
        print("%s: %s%s" % (name, "pass" if ok else "fail", (" " + note) if note else ""))
        failed = failed or not ok
    return 1 if failed else 0


def cmd_check(args) -> int:
    kind, doc = load_document(args.path)
    if kind == "term":
        return _report(
            [
                ("well_formed", is_well_formed(doc), ""),
                ("normal", is_normal(doc), ""),
                ("closed", is_closed(doc), ""),
            ]
        )
    if kind == "transducer":
        # construction already proved totality and productivity
        return _report([("productive", True, "(%d states)" % len(doc.steps))])
    if kind == "flowchart":
        total, tw = fl.is_total(doc)
        det, dw = fl.is_deterministic(doc)
        return _report(
            [
                ("well_formed", is_well_formed(doc.term), ""),
                ("normal", is_normal(doc.term), ""),
                ("levels", fl.check_levels(doc), ""),
                ("monotone", fl.is_monotone(doc), ""),
                ("total", total, "" if total else "witness %s" % render_point(tw)),
                ("deterministic", det, "" if det else "witness %s" % render_point(dw)),
            ]
        )
    total, tw = cm.is_total(doc)
    det, dw = cm.is_deterministic(doc)
    return _report(
        [
            ("well_formed", is_well_formed(doc.term), ""),
            ("normal", is_normal(doc.term), ""),
            ("simple", cm.is_simple(doc), ""),
            ("strongly_total", cm.is_strongly_total(doc), ""),
            ("total", total, "" if total else "witness %s" % render_point(tw)),
            ("deterministic", det, "" if det else "witness %s" % render_point(dw)),
        ]
    )


# ---------------------------------------------------------------------------
# eval


def _outcome(doc):
    """The pointwise evaluator for a flowchart or a command."""
    return fl.eval_outcome if isinstance(doc, fl.Flowchart) else cm.eval_outcome


def cmd_eval(args) -> int:
    kind, doc = load_document(args.path)
    if kind not in ("flowchart", "command"):
        raise DocumentError("eval needs a flowchart or command document")
    x = parse_point(doc.space, args.point)
    outcome = _outcome(doc)(doc, x)
    if outcome[0] == "value":
        print(outcome[1])
        return 0
    if outcome[0] == "no-true-path":
        print("no-true-path")
        return 1
    print("ambiguous: %s" % ", ".join(sorted(outcome[1])))
    return 1


# ---------------------------------------------------------------------------
# transform


def _agreement(pairs) -> tuple[int, int, str | None]:
    total = ok = 0
    first = None
    for x, a, b in pairs:
        total += 1
        if a == b:
            ok += 1
        elif first is None:
            first = "%s: %r vs %r" % (render_point(x), a, b)
    return ok, total, first


# op -> (input kind, transform(args, doc, transducer)).  Transforms are
# looked up through their modules at call time, so a patched or wrapped
# operation is the one that runs.
_TRANSFORMS = {
    "monotone": ("flowchart", lambda args, doc, extra: fl.to_monotone(doc)),
    "reduce": ("flowchart", lambda args, doc, extra: fl.to_reduced(doc)),
    "pullback": ("flowchart", lambda args, doc, extra: fl.pullback(doc, extra)),
    "vaught": (
        "flowchart",
        lambda args, doc, extra: fl.vaught_transform(doc, extra, args.depth),
    ),
    "strongly-total": ("command", lambda args, doc, extra: cm.make_strongly_total(doc)),
    "to-flowchart": ("command", lambda args, doc, extra: cm.command_to_flowchart(doc)),
    "to-command": ("flowchart", lambda args, doc, extra: cm.flowchart_to_simple_command(doc)),
}


def cmd_transform(args) -> int:
    kind, doc = load_document(args.path)
    extra = None
    if args.extra:
        extra_kind, extra = load_document(args.extra)
        if extra_kind != "transducer":
            raise DocumentError("the second input must be a transducer document")

    op = args.op
    needs, transform = _TRANSFORMS[op]
    if kind != needs:
        raise DocumentError("transform %s needs a %s document" % (op, needs))
    if op in ("pullback", "vaught") and extra is None:
        raise DocumentError("transform %s needs a transducer as second input" % op)

    result = transform(args, doc, extra)
    before, after = _outcome(doc), _outcome(result)
    if op == "pullback":
        pairs = (
            (x, before(doc, tr.apply(extra, x)), after(result, x))
            for x in _grid(args, extra.input_space)
        )
    elif op == "vaught":
        pairs = (
            (x, before(doc, x), after(result, tr.apply(extra, x)))
            for x in _grid(args, doc.space)
        )
    else:
        pairs = ((x, before(doc, x), after(result, x)) for x in _grid(args, doc.space))
    if isinstance(result, fl.Flowchart):
        encoded = fl.encode_flowchart(result)
    else:
        encoded = cm.encode_command(result)

    _emit(encoded, args.out)
    if args.verify:
        ok, total, first = _agreement(pairs)
        print("eval agreement: %d/%d points" % (ok, total), file=sys.stderr)
        if ok != total:
            print("first mismatch: %s" % first, file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args) -> int:
    kind, doc = load_document(args.path)
    if kind == "term":
        term = doc
    elif kind in ("flowchart", "command"):
        term = doc.term
    else:
        raise DocumentError("rank needs a term, flowchart, or command document")
    ranks = borel_ranks(term)
    for addr in sorted(ranks):
        print("%s\t%s" % (_addr_text(addr), render_ordinal(ranks[addr])))
    return 0


# ---------------------------------------------------------------------------
# dot


def _node_caption(label) -> str:
    if isinstance(label, Const):
        return 'q"%s"' % label.label
    if isinstance(label, Var):
        return 'x"%s"' % label.name
    if isinstance(label, ArrowL):
        return "~>"
    if isinstance(label, JoinL):
        return "join"
    return "veb[%s]" % render_ordinal(label.index)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _set_caption(s) -> str:
    return "∅" if s.is_empty else render_clopen(s)


def cmd_dot(args) -> int:
    kind, doc = load_document(args.path)
    if kind == "term":
        term, annotate = doc, None
    elif kind in ("flowchart", "command"):
        term, annotate = doc.term, doc
    else:
        raise DocumentError("dot needs a term, flowchart, or command document")
    tree = syntax_tree(term)
    ranks = borel_ranks(term)
    lines = ["digraph term {", "  node [shape=box];"]
    for addr in tree.addresses():
        label = tree.label(addr)
        parts = [_node_caption(label), "rank %s" % render_ordinal(ranks[addr])]
        if annotate is not None and not isinstance(label, (Const, Var)):
            if kind == "flowchart" and isinstance(label, (ArrowL, JoinL)):
                sets = annotate.at(addr)
                if isinstance(sets, tuple):
                    parts += ["S%d = %s" % (n, _set_caption(s)) for n, s in enumerate(sets)]
                else:
                    parts.append("S = %s" % _set_caption(sets))
            elif kind == "command":
                site = annotate.at(addr)
                if isinstance(site, cm.ArrowSite):
                    parts.append("U = %s" % _set_caption(site.test))
                elif isinstance(site, cm.JoinSite):
                    parts += [
                        "U%d = %s" % (n, _set_caption(t)) for n, (t, _) in enumerate(site.members)
                    ]
        lines.append(
            '  "%s" [label="%s"];' % (_addr_text(addr), "\\n".join(_dot_escape(p) for p in parts))
        )
    for addr in tree.addresses():
        for child in tree.children(addr):
            lines.append(
                '  "%s" -> "%s" [label="%d"];' % (_addr_text(addr), _addr_text(child), child[-1])
            )
    lines.append("}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# fuzz: random cases through every invariant suite.  Transform lookups
# go through the module objects at call time, so a monkeypatched
# (deliberately broken) operation is caught by the suites.


def _fuzz_codecs(rng, args, space) -> str | None:
    term = gen.random_term(rng, 3, closed=rng.random() < 0.8)
    text = render_term(term)
    if parse_term(text) != term:
        return "term text round trip failed: %s" % text
    closed_term = gen.random_term(rng, 3)
    f = gen.random_flowchart(rng, closed_term, space, 3)
    doc = json.dumps(fl.encode_flowchart(f), sort_keys=True)
    again = fl.decode_flowchart(json.loads(doc))
    if json.dumps(fl.encode_flowchart(again), sort_keys=True) != doc:
        return "flowchart codec was not byte stable"
    c = gen.random_command(rng, closed_term, space, 3)
    doc = json.dumps(cm.encode_command(c), sort_keys=True)
    again = cm.decode_command(json.loads(doc))
    if json.dumps(cm.encode_command(again), sort_keys=True) != doc:
        return "command codec was not byte stable"
    return None


def _fuzz_domains(rng, args, space) -> str | None:
    term = gen.random_term(rng, 3)
    f = gen.random_flowchart(rng, term, space, 3)
    domains = f._domains
    for x in _grid(args, space):
        reached = set(fl.true_positions(f, x))
        for addr, d in domains.items():
            if (addr in reached) != member(x, d):
                return "trace/domain mismatch at %s node %s" % (render_point(x), addr)
    return None


def _fuzz_monotone(rng, args, space) -> str | None:
    term = gen.random_normal_term(rng, 3)
    f = gen.random_flowchart(rng, term, space, 3)
    g = fl.to_monotone(f)
    domains = g._domains
    for addr, sets in g.assign:
        family = sets if isinstance(sets, tuple) else (sets,)
        if not all(s.is_subset(domains[addr]) for s in family):
            return "monotone output not within domains at %s" % (addr,)
    for x in _grid(args, space):
        if fl.eval_outcome(f, x) != fl.eval_outcome(g, x):
            return "monotone eval mismatch at %s" % render_point(x)
    if fl.to_monotone(g) != g:
        return "monotone transform is not idempotent"
    return None


def _fuzz_reduced(rng, args, space) -> str | None:
    term = gen.random_term(rng, 3)
    f = gen.random_flowchart(rng, term, space, 3)
    g = fl.to_reduced(f)
    for addr, sets in g.assign:
        if not isinstance(sets, tuple):
            continue
        olds = dict(f.assign)[addr]
        union_old = union_new = None
        for s in olds:
            union_old = s if union_old is None else union_old.union(s)
        for i, s in enumerate(sets):
            union_new = s if union_new is None else union_new.union(s)
            for t in sets[i + 1 :]:
                if not s.intersect(t).is_empty:
                    return "reduced family overlaps at %s" % (addr,)
        if union_old != union_new:
            return "reduced union changed at %s" % (addr,)
    ftd = gen.random_total_det_flowchart(rng, gen.random_normal_term(rng, 3), space, 3)
    gtd = fl.to_reduced(ftd)
    for x in _grid(args, space):
        if fl.eval_outcome(ftd, x) != fl.eval_outcome(gtd, x):
            return "reduced eval mismatch at %s" % render_point(x)
    return None


def _fuzz_translation(rng, args, space) -> str | None:
    term = gen.random_normal_term(rng, 3, veblen=False)
    f = gen.random_total_det_flowchart(rng, term, space, 3)
    c = cm.flowchart_to_simple_command(f)
    back = cm.command_to_flowchart(c)
    st = cm.make_strongly_total(c)
    if not cm.is_strongly_total(st):
        return "make_strongly_total output is not strongly total"
    for x in _grid(args, space):
        want = fl.eval_outcome(f, x)
        if fl.eval_outcome(back, x) != want:
            return "translation round trip mismatch at %s" % render_point(x)
        if cm.eval_outcome(st, x) != want:
            return "strongly-total eval mismatch at %s" % render_point(x)
    return None


def _walked_outcome(f, x) -> tuple:
    """eval_outcome read off the pointwise walker's leaves instead of the
    compiled reach sets."""
    labels = {label for _, label in fl.true_paths(f, x)}
    if not labels:
        return ("no-true-path",)
    if len(labels) > 1:
        return ("ambiguous", frozenset(labels))
    return ("value", labels.pop())


def _fuzz_decisions(rng, args, space) -> str | None:
    term = gen.random_term(rng, 3)
    f = gen.random_flowchart(rng, term, space, 3)
    total, tw = fl.is_total(f)
    det, dw = fl.is_deterministic(f)
    grid = _grid(args, space)
    outcomes = [fl.eval_outcome(f, x) for x in grid]
    saw_no_path = ("no-true-path",) in outcomes
    saw_ambiguous = any(o[0] == "ambiguous" for o in outcomes)
    if total and saw_no_path:
        return "is_total said yes but a grid point has no true path"
    if det and saw_ambiguous:
        return "is_deterministic said yes but a grid point is ambiguous"
    if not total and fl.eval_outcome(f, tw) != ("no-true-path",):
        return "totality witness %s does have a true path" % render_point(tw)
    if not det and fl.eval_outcome(f, dw)[0] != "ambiguous":
        return "determinism witness %s is not ambiguous" % render_point(dw)
    for x, got in zip(grid, outcomes):
        if got != _walked_outcome(f, x):
            return "eval at %s differs from the walker's leaves" % render_point(x)
    return None


_SUITES = (
    ("codecs", _fuzz_codecs),
    ("domains", _fuzz_domains),
    ("monotone", _fuzz_monotone),
    ("reduced", _fuzz_reduced),
    ("translation", _fuzz_translation),
    ("decisions", _fuzz_decisions),
)


def cmd_fuzz(args) -> int:
    if args.iters <= 0:
        return 0
    space = Space(args.space)
    failures = 0
    for name, suite in _SUITES:
        bad = None
        for i in range(args.iters):
            case_seed = args.seed * 1000003 + i
            note = suite(random.Random(case_seed), args, space)
            if note is not None:
                bad = (case_seed, note)
                break
        if bad is None:
            print("%s: %d cases, ok" % (name, args.iters))
        else:
            print("%s: FAIL seed=%d %s" % (name, bad[0], bad[1]))
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vebflow", description=__doc__)
    p.add_argument("--space", type=int, default=2, help="alphabet size for generated objects")
    p.add_argument("--grid-prefix", type=int, default=4, help="sample grid: max prefix length")
    p.add_argument("--grid-period", type=int, default=2, help="sample grid: max period length")
    p.add_argument("--depth", type=int, default=6, help="depth bound for image computations")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run the document's predicates")
    c.add_argument("path")

    e = sub.add_parser("eval", help="evaluate a flowchart or command at a point")
    e.add_argument("path")
    e.add_argument("point", help="point literal, e.g. 11(0)")

    t = sub.add_parser("transform", help="apply a transformation, optionally verifying")
    t.add_argument("op", choices=list(_TRANSFORMS))
    t.add_argument("path")
    t.add_argument("extra", nargs="?", help="transducer document for pullback/vaught")
    t.add_argument("--out", help="write the result here instead of stdout")
    t.add_argument("--verify", action="store_true", help="check eval agreement on the grid")

    r = sub.add_parser("rank", help="print every address with its rank")
    r.add_argument("path")

    d = sub.add_parser("dot", help="emit the syntax tree as a DOT graph")
    d.add_argument("path")

    f = sub.add_parser("fuzz", help="random cases through the invariant suites")
    f.add_argument("--iters", type=int, default=25, help="cases per suite")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if min(args.grid_prefix, args.grid_period, args.depth) < 1:
        print("error: grid parameters must be positive", file=sys.stderr)
        return 2
    try:
        # Looked up by name on each call, not stored in the shared parser, so
        # a patched or wrapped cmd_* function is the one that runs.
        return globals()["cmd_" + args.cmd](args)
    except (ParseError, DocumentError, SpaceMismatchError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (UnsupportedError, NonNormalTermError, NotMonotoneError, UndecidedImageError) as e:
        print("unsupported: %s" % e, file=sys.stderr)
        return 3
    except VebflowError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
