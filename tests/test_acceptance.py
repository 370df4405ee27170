"""Acceptance suite: nine headline guarantees, one printed line each.

Every test prints exactly one "criterion N: PASS/FAIL (...)" line and
then asserts it.  Run with `pytest tests/test_acceptance.py -s` to see
the lines for passing criteria too.

Corpora are regenerated from fixed seeds, so runs are reproducible.
The sample grid holds every canonical ultimately periodic point with
prefix length <= 4 and period length <= 2.
"""

import itertools
import json
import random
import time

import pytest

from test_flowchart import assert_eval_matches_walker, walk_outcome
from test_ordinal import E1, POOL, to_ordinal, x_add, x_cmp

from vebflow import command as cm
from vebflow import flowchart as fl
from vebflow import generate as gen
from vebflow import transducer as tr
from vebflow.ordinal import add, cmp, rank_sum
from vebflow.space import ClopenSet, Space, least_point, member, render_point, sample_grid
from vebflow.term import (
    decode_tree,
    encode_tree,
    parse_term,
    render_term,
    syntax_tree,
)

SP2 = Space(2)
GRID = sample_grid(SP2, 4, 2)


def announce(n: int, ok: bool, detail: str):
    text = "criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail)
    print(text)
    assert ok, text


def node_sets(sets):
    return sets if isinstance(sets, tuple) else (sets,)


@pytest.fixture(scope="module")
def clopen_corpus():
    """500 total deterministic clopen flowcharts on Veblen-free normal
    terms of depth <= 4, set depth <= 3; returns (charts, build seconds)."""
    t0 = time.perf_counter()
    rng = random.Random(416)
    charts = []
    for _ in range(500):
        term = gen.random_normal_term(rng, 4, veblen=False)
        charts.append(gen.random_total_det_flowchart(rng, term, SP2, 3))
    return charts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixed_corpus():
    """500 arbitrary flowcharts, Veblen nodes and partial charts included."""
    rng = random.Random(417)
    charts = []
    for _ in range(500):
        charts.append(gen.random_flowchart(rng, gen.random_term(rng, 3), SP2, 3))
    return charts


def test_criterion_1_translation_round_trip(clopen_corpus):
    charts, build_secs = clopen_corpus
    t0 = time.perf_counter()
    mismatches = 0
    first = None
    for f in charts:
        c = cm.flowchart_to_simple_command(f)
        back = cm.command_to_flowchart(c)
        st = cm.make_strongly_total(c)
        for x in GRID:
            want = fl.eval_outcome(f, x)
            if fl.eval_outcome(back, x) != want or cm.eval_outcome(st, x) != want:
                mismatches += 1
                if first is None:
                    first = render_point(x)
    elapsed = build_secs + time.perf_counter() - t0
    note = "" if not mismatches else "; %d mismatches, first at %s" % (mismatches, first)
    announce(
        1,
        mismatches == 0 and elapsed < 60.0,
        "%d flowcharts x %d grid points, %.1fs%s" % (len(charts), len(GRID), elapsed, note),
    )


def test_round_trips_are_equivalent_on_the_whole_space(clopen_corpus):
    # Criterion 1 compares on the grid; here the charts are compared as
    # reach sets, which decides agreement at every point.
    charts, _ = clopen_corpus
    for f in charts:
        c = cm.flowchart_to_simple_command(f)
        assert fl.equivalent(f, cm.command_to_flowchart(c))
        assert fl.equivalent(f, cm.command_to_flowchart(cm.make_strongly_total(c)))


def test_criterion_2_strongly_total_outputs(clopen_corpus):
    charts, _ = clopen_corpus
    good = sum(
        1
        for f in charts
        if cm.is_strongly_total(cm.make_strongly_total(cm.flowchart_to_simple_command(f)))
    )
    announce(2, good == len(charts), "%d/%d outputs strongly total" % (good, len(charts)))


def test_criterion_3_monotone_lemma():
    rng = random.Random(418)
    cases = 500
    failures = 0
    first = None
    for i in range(cases):
        f = gen.random_flowchart(rng, gen.random_normal_term(rng, 4), SP2, 3)
        g = fl.to_monotone(f)
        domains = fl.domain_assignment(g)
        contained = all(
            s.is_subset(domains[addr]) for addr, sets in g.assign for s in node_sets(sets)
        )
        agrees = all(fl.eval_outcome(f, x) == fl.eval_outcome(g, x) for x in GRID)
        if not (contained and agrees):
            failures += 1
            if first is None:
                first = "case %d (%s)" % (i, "containment" if not contained else "eval")
    note = "" if not failures else "; %d failures, first %s" % (failures, first)
    announce(3, failures == 0, "%d flowcharts with Veblen nodes%s" % (cases, note))


def test_monotone_output_is_equivalent_on_the_whole_space(clopen_corpus):
    charts, _ = clopen_corpus
    for f in charts:
        assert fl.equivalent(f, fl.to_monotone(f))


def test_criterion_4_reduced_proposition(mixed_corpus, clopen_corpus):
    failures = 0
    for f in mixed_corpus:
        g = fl.to_reduced(f)
        olds = dict(f.assign)
        for addr, sets in g.assign:
            if not isinstance(sets, tuple):
                if sets != olds[addr]:
                    failures += 1
                continue
            union_old = union_new = None
            for s in olds[addr]:
                union_old = s if union_old is None else union_old.union(s)
            for i, s in enumerate(sets):
                union_new = s if union_new is None else union_new.union(s)
                if any(not s.intersect(t).is_empty for t in sets[i + 1 :]):
                    failures += 1
            if union_old != union_new:
                failures += 1
    det_charts, _ = clopen_corpus
    eval_failures = 0
    for f in det_charts:
        g = fl.to_reduced(f)
        if any(fl.eval_outcome(f, x) != fl.eval_outcome(g, x) for x in GRID):
            eval_failures += 1
    announce(
        4,
        failures == 0 and eval_failures == 0,
        "%d structural + %d deterministic-eval cases; %d/%d violations"
        % (len(mixed_corpus), len(det_charts), failures, eval_failures),
    )


def test_reduced_output_is_equivalent_on_the_whole_space(clopen_corpus):
    charts, _ = clopen_corpus
    for f in charts:
        assert fl.equivalent(f, fl.to_reduced(f))


def test_criterion_5_domain_trace_equivalence(mixed_corpus, clopen_corpus):
    charts = mixed_corpus + clopen_corpus[0]
    failures = 0
    first = None
    for f in charts:
        domains = fl.domain_assignment(f)
        for x in GRID:
            reached = set(fl.true_positions(f, x))
            for addr, d in domains.items():
                if (addr in reached) != member(x, d):
                    failures += 1
                    if first is None:
                        first = "%s at node %s" % (render_point(x), addr)
    note = "" if not failures else "; %d failures, first %s" % (failures, first)
    announce(5, failures == 0, "%d flowcharts x %d grid points%s" % (len(charts), len(GRID), note))


def test_criterion_6_vaught_determination():
    t0 = time.perf_counter()
    rng = random.Random(419)
    deltas = [
        ("identity", tr.identity_map(SP2)),
        ("drop-first", tr.drop_first(SP2)),
        ("parity-merge", tr.parity_merge()),
    ]
    per_delta = 100
    failures = 0
    first = None
    for name, delta in deltas:
        for _ in range(per_delta):
            source = gen.random_total_det_flowchart(
                rng, gen.random_normal_term(rng, 3, veblen=False), SP2, 3
            )
            f = fl.to_monotone(fl.pullback(source, delta))
            images = [(p, tr.apply(delta, p)) for p in GRID]
            outcomes = {}
            constant = True
            for p, q in images:
                got = fl.eval_outcome(f, p)
                if outcomes.setdefault(render_point(q), got) != got:
                    constant = False
            total, _ = fl.is_total(f)
            det, _ = fl.is_deterministic(f)
            g = fl.vaught_transform(f, delta, 6)
            agrees = all(fl.eval_outcome(g, q) == fl.eval_outcome(f, p) for p, q in images)
            if not (constant and total and det and agrees):
                failures += 1
                if first is None:
                    first = name
    elapsed = time.perf_counter() - t0
    note = "" if not failures else "; %d failures, first under %s" % (failures, first)
    announce(
        6,
        failures == 0 and elapsed < 30.0,
        "3 transducers x %d fiber-constant flowcharts, %.1fs%s" % (per_delta, elapsed, note),
    )


def test_criterion_7_ordinal_oracle():
    ords = [to_ordinal(e) for e in POOL]
    pairs = 0
    bad = 0
    for (e, x), (f, y) in itertools.product(zip(POOL, ords), repeat=2):
        pairs += 1
        if cmp(x, y) != x_cmp(e, f) or add(x, y) != to_ordinal(x_add(e, f)):
            bad += 1
    rng = random.Random(420)
    rank_cases = 2000
    rank_bad = 0
    for _ in range(rank_cases):
        picks = [rng.randrange(len(POOL)) for _ in range(rng.randrange(5))]
        expect = E1
        for i in picks:
            expect = x_add(expect, (POOL[i],))
        if rank_sum([to_ordinal(POOL[i]) for i in picks]) != to_ordinal(expect):
            rank_bad += 1
    announce(
        7,
        bad == 0 and rank_bad == 0,
        "%d add/cmp pairs + %d rank_sum lists, %d wrong" % (pairs, rank_cases, bad + rank_bad),
    )


def test_criterion_8_decision_procedures(mixed_corpus, clopen_corpus):
    charts = mixed_corpus + clopen_corpus[0]
    failures = 0
    first = None
    for i, f in enumerate(charts):
        total, tw = fl.is_total(f)
        det, dw = fl.is_deterministic(f)
        saw_no_path = any(fl.eval_outcome(f, x) == ("no-true-path",) for x in GRID)
        saw_ambiguous = any(fl.eval_outcome(f, x)[0] == "ambiguous" for x in GRID)
        ok = total == (not saw_no_path) and det == (not saw_ambiguous)
        if not total and fl.eval_outcome(f, tw) != ("no-true-path",):
            ok = False
        if not det and fl.eval_outcome(f, dw)[0] != "ambiguous":
            ok = False
        if not ok:
            failures += 1
            if first is None:
                first = "chart %d" % i
    note = "" if not failures else "; %d disagreements, first %s" % (failures, first)
    announce(8, failures == 0, "%d verdict pairs vs exhaustive grid%s" % (len(charts), note))


def _first_letters(x, n=16):
    return [x.letter(i) for i in range(n)]


def test_decision_procedures_against_the_walker(mixed_corpus, clopen_corpus):
    # Criterion 8 checks the deciders against eval_outcome, which reads
    # the same compiled reach sets they do; this checks them against the
    # pointwise walker instead.  A witness is a point that fails, and no
    # failing grid point comes before it (16 letters tell any two of
    # these points apart).
    for f in mixed_corpus + clopen_corpus[0]:
        walked = {x: walk_outcome(f, x) for x in GRID}
        no_path = [x for x, o in walked.items() if o == ("no-true-path",)]
        ambiguous = [x for x, o in walked.items() if o[0] == "ambiguous"]
        total, tw = fl.is_total(f)
        det, dw = fl.is_deterministic(f)
        assert total == (not no_path)
        assert det == (not ambiguous)
        if not total:
            assert walk_outcome(f, tw) == ("no-true-path",)
            assert all(_first_letters(tw) <= _first_letters(x) for x in no_path)
            # The witness is the least point outside every leaf domain.
            reached = ClopenSet.empty(f.space)
            for addr, d in fl.domain_assignment(f).items():
                if f.tree.is_leaf(addr):
                    reached = reached.union(d)
            assert tw == least_point(ClopenSet.full(f.space).difference(reached))
        if not det:
            assert walk_outcome(f, dw)[0] == "ambiguous"
            assert all(_first_letters(dw) <= _first_letters(x) for x in ambiguous)


def test_compiled_eval_matches_walker_on_corpora(mixed_corpus, clopen_corpus):
    for f in mixed_corpus + clopen_corpus[0]:
        assert_eval_matches_walker(f, GRID)


def test_criterion_9_codec_round_trips():
    rng = random.Random(421)
    bad = 0
    for _ in range(4000):
        t = gen.random_term(rng, 3, closed=rng.random() < 0.7)
        if parse_term(render_term(t)) != t:
            bad += 1
        doc = json.dumps(encode_tree(syntax_tree(t)), sort_keys=True)
        if json.dumps(encode_tree(decode_tree(json.loads(doc))), sort_keys=True) != doc:
            bad += 1
    for _ in range(3000):
        f = gen.random_flowchart(rng, gen.random_term(rng, 3), SP2, 3)
        doc = json.dumps(fl.encode_flowchart(f), sort_keys=True)
        if json.dumps(fl.encode_flowchart(fl.decode_flowchart(json.loads(doc))), sort_keys=True) != doc:
            bad += 1
    for _ in range(3000):
        c = gen.random_command(rng, gen.random_term(rng, 3), SP2, 3)
        doc = json.dumps(cm.encode_command(c), sort_keys=True)
        if json.dumps(cm.encode_command(cm.decode_command(json.loads(doc))), sort_keys=True) != doc:
            bad += 1
    announce(
        9,
        bad == 0,
        "10000 round trips (4000 terms, 3000 flowcharts, 3000 commands), %d unstable" % bad,
    )
