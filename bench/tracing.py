"""Spans around the public functions of each vebflow layer.

`Tracer.install()` wraps the functions listed in TRACED and rebinds every
name that refers to them, in every loaded module (so the copy that
`from .space import member` puts into flowchart.py is wrapped as well),
and the methods on ClopenSet and Transducer.  A wrapper records a span
only while an item runs: function, start, end, parent span and item id.
Spans are kept in memory in flat arrays and written out by `dump()`.

Self time of a span is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from vebflow import cli, command, flowchart, ordinal, space, term, transducer

# layer -> (module, [function or Class.method names]).  Metric names drop
# the class prefix and any leading underscore: space.canonical_antichain.
TRACED = {
    "ordinal": (ordinal, ["cmp", "add"]),
    "term": (term, ["syntax_tree", "decode_tree", "encode_tree", "parse_term", "borel_rank"]),
    "space": (
        space,
        [
            "_canonical_antichain",
            "ClopenSet.union",
            "ClopenSet.intersect",
            "ClopenSet.complement",
            "ClopenSet.difference",
            "ClopenSet.is_subset",
            "member",
            "parse_clopen",
        ],
    ),
    "transducer": (transducer, ["Transducer.build", "compose", "apply", "preimage", "image"]),
    "flowchart": (
        flowchart,
        [
            "domain_assignment",
            "eval_outcome",
            "is_total",
            "is_deterministic",
            "is_monotone",
            "to_monotone",
            "to_reduced",
            "pullback",
            "vaught_transform",
            "check_levels",
            "encode_flowchart",
            "decode_flowchart",
        ],
    ),
    "command": (
        command,
        [
            "val",
            "eval_outcome",
            "command_to_flowchart",
            "flowchart_to_simple_command",
            "make_strongly_total",
            "is_strongly_total",
            "decode_command",
        ],
    ),
    "cli": (
        cli,
        ["main", "build_parser", "load_document", "cmd_check", "cmd_eval", "cmd_transform", "cmd_rank", "cmd_dot"],
    ),
}

COUNTERS = (
    "space.words_in",
    "space.words_out",
    "space.antichain_max",
    "transducer.compose.states_out",
    "transducer.compose.reach_ratio",
    "transducer.preimage.words_out",
    "term.nodes_decoded",
)


def metric_name(layer: str, attr: str) -> str:
    return "%s.%s" % (layer, attr.rpartition(".")[2].lstrip("_"))


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric except the sweep."""
    out = []
    for layer, (_, attrs) in TRACED.items():
        for attr in attrs:
            base = metric_name(layer, attr)
            out.append((base + ".calls", "count", "lower"))
            out.append((base + ".self_s", "s", "lower"))
    for layer in TRACED:
        out.append((layer + ".self_s", "s", "lower"))
        out.append((layer + ".self_share", "ratio", "lower"))
    units = {"space.antichain_max": "words", "transducer.compose.reach_ratio": "ratio", "trace.overhead": "ratio"}
    for name in COUNTERS + ("trace.overhead",):
        out.append((name, units.get(name, "count"), "lower"))
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.item = -1
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[list] = []
        self.next_span = 0
        # Per span: (span, parent, function, item) and (start, end).
        self.ids = array("q")
        self.times = array("d")
        self.counts = {name: 0 for name in COUNTERS}
        self.compose_product = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self):
        originals = {}
        for layer, (module, attrs) in TRACED.items():
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[fn_name]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = self._wrap(len(self.names), fn, _HOOKS.get(attr))
                self.names.append(metric_name(layer, attr))
                self.layers.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
                if owner_name:
                    self._rebind(owner, fn_name, classmethod(wrapper) if is_classmethod else wrapper)
                else:
                    originals[id(fn)] = wrapper
        # Rebind every module-level name bound to a wrapped function.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, value):
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def _wrap(self, fid, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                tracer.calls[fid] += 1
                tracer.self_s[fid] += took - frame[1]
                tracer.ids.extend((span, parent, fid, tracer.item))
                tracer.times.extend((start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- items ----------------------------------------------------------

    def begin(self, item: int):
        self.stack.clear()
        self.item = item
        self.on = True

    def end(self):
        self.on = False

    @property
    def spans(self) -> int:
        return len(self.times) // 2

    # -- results --------------------------------------------------------

    def metrics(self, item_wall: float, overhead: float) -> dict[str, float]:
        """Per-layer metrics; `overhead` is traced ÷ untraced item time."""
        out = {}
        layer_self = dict.fromkeys(TRACED, 0.0)
        for fid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[fid]
            out[name + ".self_s"] = self.self_s[fid]
            layer_self[self.layers[fid]] += self.self_s[fid]
        for layer, secs in layer_self.items():
            out[layer + ".self_s"] = secs
            out[layer + ".self_share"] = secs / item_wall if item_wall > 0 else 0.0
        out.update(self.counts)
        product = self.compose_product
        out["transducer.compose.reach_ratio"] = (
            self.counts["transducer.compose.states_out"] / product if product else 0.0
        )
        out["trace.overhead"] = overhead
        return out

    def dump(self, stem: str):
        """Write the spans: stem.json describes them, stem.ids holds int64
        (span, parent, function, item) rows, stem.times float64 (start, end)."""
        with open(stem + ".ids", "wb") as fh:
            self.ids.tofile(fh)
        with open(stem + ".times", "wb") as fh:
            self.times.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "functions": self.names,
                    "ids": ["span", "parent", "function", "item"],
                    "times": ["start_s", "end_s"],
                    "spans": self.spans,
                },
                fh,
                indent=1,
            )


# Counter hooks, run after the wrapped call returns: (tracer, args, result).


def _count_canonical(tracer, args, result):
    counts = tracer.counts
    counts["space.words_in"] += len(args[1])
    counts["space.words_out"] += len(result)
    if len(result) > counts["space.antichain_max"]:
        counts["space.antichain_max"] = len(result)


def _count_compose(tracer, args, result):
    outer, inner = args
    tracer.counts["transducer.compose.states_out"] += len(result.steps)
    tracer.compose_product += len(outer.steps) * len(inner.steps)


def _count_preimage(tracer, args, result):
    tracer.counts["transducer.preimage.words_out"] += len(result.antichain)


def _count_decode(tracer, args, result):
    tracer.counts["term.nodes_decoded"] += len(result)


_HOOKS = {
    "_canonical_antichain": _count_canonical,
    "compose": _count_compose,
    "preimage": _count_preimage,
    "decode_tree": _count_decode,
}
