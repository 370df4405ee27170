"""Size sweep: single operations at growing sizes, to show the curves.

Reported by the traced run only and not gated.  Each point runs under
its own budget; a point that reaches it is reported as capped, with the
time at which it was stopped.  Inputs are fixed, not drawn from the
workload seed, so every run times the same operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

from vebflow import cli
from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import generate as gen
from vebflow.space import ClopenSet, Space
from vebflow.term import decode_tree

SP2 = Space(2)
POINT_BUDGET_S = 4.0


def _canon_merge(n):
    # All 2^n words of length n: the antichain merges to the full space.
    words = tuple(itertools.product((0, 1), repeat=n))
    return lambda: ClopenSet(SP2, words)


def _random_set(rng, m):
    length = m.bit_length() + 3
    return ClopenSet(SP2, tuple(tuple(rng.randrange(2) for _ in range(length)) for _ in range(m)))


def _intersect(m):
    rng = random.Random("intersect:%d" % m)
    a, b = _random_set(rng, m), _random_set(rng, m)
    return lambda: a.intersect(b)


def _decode_join(c):
    nodes = [{"addr": [], "kind": "join"}]
    nodes += [{"addr": [n], "kind": "const", "payload": "a"} for n in range(c)]
    doc = {"nodes": nodes}
    return lambda: decode_tree(doc)


def _chain_document(d, workdir):
    # q"a" ~> q"b" ~> ... ~> q"a": d nested ~> nodes, each testing {1}.
    # Written as JSON directly: building it through the library would
    # recurse once per level before the timed call starts.
    nodes, assign = [], {}
    for n in range(d):
        addr = [1] * n
        nodes.append({"addr": addr, "kind": "arrow"})
        nodes.append({"addr": addr + [0], "kind": "const", "payload": "b" if n % 2 else "a"})
        assign[".".join("1" * n)] = "{1}"
    nodes.append({"addr": [1] * d, "kind": "const", "payload": "a"})
    doc = {"kind": "flowchart", "space": 2, "term": {"nodes": nodes}, "assign": assign}
    path = os.path.join(workdir, "chain%d.fc" % d)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _check_chain(d, workdir):
    path = _chain_document(d, workdir)

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["check", path])

    return run


def _map_chain():
    # Item 160 of the depth-4 command stream from seed 13: its translation
    # holds a 16384-word set.
    rng = random.Random(13)
    for _ in range(161):
        c = gen.random_command(rng, gen.random_term(rng, 4), SP2, 3)
    return lambda: fl.is_total(cm.command_to_flowchart(c))


def points(workdir):
    """(metric name, set-up callable returning the timed callable)."""
    return [
        ("sweep.canon_merge.n6_s", lambda: _canon_merge(6)),
        ("sweep.canon_merge.n8_s", lambda: _canon_merge(8)),
        ("sweep.canon_merge.n10_s", lambda: _canon_merge(10)),
        ("sweep.intersect.m256_s", lambda: _intersect(256)),
        ("sweep.intersect.m1024_s", lambda: _intersect(1024)),
        ("sweep.decode_join.c1000_s", lambda: _decode_join(1000)),
        ("sweep.decode_join.c4000_s", lambda: _decode_join(4000)),
        ("sweep.check_chain.d300_s", lambda: _check_chain(300, workdir)),
        ("sweep.check_chain.d900_s", lambda: _check_chain(900, workdir)),
        ("sweep.check_chain.d2000_ok", lambda: _check_chain(2000, workdir)),
        ("sweep.map_chain.td4_s", _map_chain),
    ]


def metric_names() -> list[tuple[str, str, str]]:
    out = []
    for name, _ in points(""):
        if name.endswith("_ok"):
            out.append((name, "bool", "higher"))
        else:
            out.append((name, "s", "lower"))
    out.append(("sweep.capped", "count", "lower"))
    return out


def run(budget, workdir, log):
    """Time every point under `budget` (see run.Budget); returns the metrics."""
    metrics = {}
    capped = []
    for name, setup in points(workdir):
        timed = setup()
        secs, _, why = budget.call(timed, POINT_BUDGET_S)
        if name.endswith("_ok"):
            metrics[name] = 1 if why is None else 0
            log("%s: %s after %.3f s" % (name, "ok" if why is None else why, secs))
        else:
            metrics[name] = secs
            log("%s: %.4f s%s" % (name, secs, " (" + why + ")" if why else ""))
        if why == "over budget":
            capped.append(name)
    metrics["sweep.capped"] = len(capped)
    log("sweep capped at %.0f s: %s" % (POINT_BUDGET_S, ", ".join(capped) or "none"))
    return metrics
