"""Charts and commands the library builds from valid parts are wrapped
unchecked (Flowchart._of, Command._of); each equals the checked
construction on the same parts, and evaluation reads a point's letters
in place as the pointwise walker does."""

import json
import random

import pytest

from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow.command import Command
from vebflow.errors import UnsupportedError
from vebflow.flowchart import Flowchart
from vebflow.generate import (
    map_palette,
    random_command,
    random_flowchart,
    random_normal_term,
    random_term,
    random_total_det_flowchart,
)
from vebflow.space import Space, UpPoint, sample_grid
from vebflow.transducer import drop_first, parity_merge

SPACES = [Space(1), Space(2), Space(3)]


def assert_checked_chart(g):
    checked = Flowchart(g.term, g.space, g.assign)
    assert checked == g
    assert checked._at == g._at


def assert_checked_command(c):
    checked = Command(c.term, c.space, c.assign)
    assert checked == c
    assert checked._at == c._at
    assert checked._edges == c._edges


def _surjections(space):
    return [drop_first(space)] + ([parity_merge()] if space.alphabet_size == 2 else [])


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_chart_builders_equal_the_checked_construction(space):
    rng = random.Random(250 + space.alphabet_size)
    for _ in range(40):
        f = random_flowchart(rng, random_normal_term(rng, 4), space, 3)
        m = fl.to_monotone(f)
        assert_checked_chart(m)
        assert_checked_chart(fl.to_reduced(f))
        for theta in map_palette(space):
            assert_checked_chart(fl.pullback(f, theta))
        for delta in _surjections(space):
            assert_checked_chart(fl.vaught_transform(m, delta, 6))
        c = random_command(rng, random_term(rng, 3), space, 3)
        assert_checked_chart(cm.command_to_flowchart(c))


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_command_builders_equal_the_checked_construction(space):
    rng = random.Random(260 + space.alphabet_size)
    translated = 0
    for _ in range(40):
        try:
            c = cm.flowchart_to_simple_command(random_flowchart(rng, random_term(rng, 3), space, 3))
        except UnsupportedError:
            # A Veblen node of positive index has no continuous edge.
            continue
        translated += 1
        assert_checked_command(c)
        f = random_total_det_flowchart(rng, random_normal_term(rng, 4, veblen=False), space, 3)
        st = cm.make_strongly_total(cm.flowchart_to_simple_command(f))
        assert_checked_command(st)
        c = random_command(rng, random_term(rng, 3), space, 3)
        assert_checked_command(cm.decode_command(json.loads(json.dumps(cm.encode_command(c)))))
    assert translated >= 10


def _points(rng, space, n):
    """Points with prefixes of up to 7 letters and periods of up to 3."""
    k = space.alphabet_size
    for _ in range(n):
        prefix = tuple(rng.randrange(k) for _ in range(rng.randint(0, 7)))
        period = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        yield UpPoint(space, prefix, period)


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_eval_outcome_matches_the_pointwise_walker(space):
    rng = random.Random(270 + space.alphabet_size)
    grid = sample_grid(space, 4, 2)
    for _ in range(30):
        f = random_flowchart(rng, random_normal_term(rng, 4), space, 3)
        c = random_command(rng, random_term(rng, 3), space, 3)
        for g in (f, fl.to_monotone(f), fl.to_reduced(f), cm.command_to_flowchart(c)):
            for x in grid + list(_points(rng, space, 20)):
                want = fl._outcome({q for _, q in fl.true_paths(g, x)})
                assert fl.eval_outcome(g, x) == want
