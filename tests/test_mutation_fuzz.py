"""Seeded, structure-aware mutation fuzz of the CLI on generated documents.

Each generated .fc, .cmd, .tr and .term document is mutated in one place
(an integer swapped for 0, -1, 2**70, a string or null; an object key
dropped or written twice; a list truncated; digits in text swapped) and
run through `cli.main` with check, eval, transform --verify, rank and
dot.  Every run must end in a documented exit code: no exception may
escape the CLI.
"""

import json
import random

import pytest

from vebflow import cli
from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import transducer as tr
from vebflow.generate import random_command, random_flowchart, random_normal_term, random_term
from vebflow.space import Space
from vebflow.term import render_term

BIG = 2**70
SWAPS = (0, -1, BIG, "a", None)
POINTS = ("0(0)", "1(01)", "01(1)")


class _Dup:
    """An object written with one key twice: its pairs in order."""

    def __init__(self, pairs):
        self.pairs = pairs


def _dump(node) -> str:
    if isinstance(node, _Dup):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), _dump(v)) for k, v in node.pairs)
    if isinstance(node, dict):
        return _dump(_Dup(list(node.items())))
    if isinstance(node, list):
        return "[%s]" % ", ".join(_dump(v) for v in node)
    return json.dumps(node)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _mutate_text(rng, text: str) -> str:
    """Swap one run of digits, or cut the text short."""
    spans, start = [], None
    for i, ch in enumerate(text + " "):
        if ch.isdigit() and start is None:
            start = i
        elif not ch.isdigit() and start is not None:
            spans.append((start, i))
            start = None
    if spans and rng.random() < 0.7:
        lo, hi = rng.choice(spans)
        return text[:lo] + str(rng.choice((0, -1, 2, BIG))) + text[hi:]
    return text[: rng.randrange(len(text) + 1)]


def _mutated(rng, doc):
    """A copy of a JSON document with one node mutated."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_paths(doc)))
    parent, node = None, doc
    for step in path:
        parent, node = node, node[step]
    if node is None or isinstance(node, int):
        new = rng.choice(SWAPS)
    elif isinstance(node, str):
        new = rng.choice((_mutate_text(rng, node), rng.choice(SWAPS)))
    elif isinstance(node, list):
        new = node[: rng.randrange(len(node) + 1)] if node else [0]
        if node and rng.random() < 0.3:
            new = node + [rng.choice(node)]
    elif not node:
        new = rng.choice(SWAPS)
    else:
        key = rng.choice(list(node))
        if rng.random() < 0.5:
            new = {k: v for k, v in node.items() if k != key}
        else:
            # The key again, with another value: a JSON reader keeps the last.
            new = _Dup(list(node.items()) + [(key, rng.choice(SWAPS))])
    if parent is None:
        return new
    parent[path[-1]] = new
    return doc


def _documents(rng):
    """Generated documents, small enough that every word stays short."""
    docs = []
    for _ in range(4):
        sp = Space(rng.randint(1, 3))
        term = random_normal_term(rng, 3)
        docs.append(("fc", fl.encode_flowchart(random_flowchart(rng, term, sp, 3))))
        docs.append(("cmd", cm.encode_command(random_command(rng, random_term(rng, 3), sp, 3))))
        docs.append(("term", render_term(random_term(rng, 3))))
    for f in (tr.drop_first(Space(2)), tr.parity_merge(), tr.letter_double(Space(1))):
        docs.append(("tr", tr.encode_transducer(f)))
    return docs


def _argvs(ext, path, base_fc, rng):
    point = rng.choice(POINTS)
    if ext == "tr":
        return [
            ["check", path],
            ["transform", "pullback", base_fc, path, "--verify"],
            ["transform", "vaught", base_fc, path, "--verify"],
        ]
    argvs = [["check", path], ["eval", path, point], ["rank", path], ["dot", path]]
    if ext == "fc":
        argvs += [["transform", op, path, "--verify"] for op in ("monotone", "reduce", "to-command")]
    elif ext == "cmd":
        argvs += [["transform", op, path, "--verify"] for op in ("to-flowchart", "strongly-total")]
    return argvs


@pytest.mark.parametrize("seed", [1, 7])
def test_mutated_documents_end_in_an_exit_code(capsys, tmp_path, seed):
    rng = random.Random(seed)
    base_fc = tmp_path / "base.fc"
    base_fc.write_text(json.dumps(fl.encode_flowchart(random_flowchart(
        rng, random_normal_term(rng, 2, veblen=False), Space(2), 2))), encoding="utf-8")
    codes = set()
    for n in range(6):
        for ext, doc in _documents(rng):
            text = _mutate_text(rng, doc) if ext == "term" else _dump(_mutated(rng, doc))
            path = tmp_path / ("m%d.%s" % (n, ext))
            path.write_text(text, encoding="utf-8")
            for argv in _argvs(ext, str(path), str(base_fc), rng):
                code = cli.main(argv)
                capsys.readouterr()
                assert code in (0, 1, 2, 3), (argv, text)
                codes.add(code)
    # Mutations reach past the decoders: some documents still pass and
    # some fail a check, besides those refused.
    assert {0, 1, 2} <= codes
