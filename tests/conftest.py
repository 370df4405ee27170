"""Inputs shared by several test modules."""

import pytest

from vebflow.flowchart import Flowchart
from vebflow.space import Space, parse_clopen
from vebflow.term import Arrow, Const, Join


def _deep_chain(depth):
    sp = Space(2)
    t = Join((Const("a"),))
    for n in range(depth):
        t = Arrow(Const("ab"[n % 2]), t)
    assign = {(1,) * n: parse_clopen(sp, "{1}") for n in range(depth)}
    assign[(1,) * depth] = (parse_clopen(sp, "{0}"),)
    return Flowchart(t, sp, assign)


@pytest.fixture(scope="session")
def deep_chain():
    """Builds a depth-deep ~> chain over Space(2), each node testing {1},
    ending in a join whose one member {0} misses every point that gets
    there: the point (1) walks the whole chain and has no true path."""
    return _deep_chain
