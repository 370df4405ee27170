"""The benchmark harness still finds every library function it traces,
and its workloads still run on the library.

`bench/tracing.py` wraps functions by name, and `bench/workloads.py`
reads syntax trees, their labels and `Command.tree`; a change that broke
either would otherwise surface only when a benchmark run starts.
"""

import random
from pathlib import Path

import pytest

from vebflow import term

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads  # noqa: F401 - importing checks the names it uses

    before = dict(vars(term))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer.names) == sum(len(attrs) for _, attrs in tracing.TRACED.values())
        assert hasattr(term.decode_tree, "__wrapped__")
    finally:
        tracer.uninstall()
    assert dict(vars(term)) == before


@pytest.mark.parametrize("name", ["roundtrip", "wide-sets", "maps", "documents"])
def test_workload_items_pass(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rng = random.Random("%s:0" % name)
    workload = workloads.WORKLOADS[name](rng, str(tmp_path))
    # Three items each, and one per slot of documents, whose slot (the
    # operation run) cycles with the item index.  Each item runs twice:
    # the second run reads what the first left compiled on its objects.
    for i in range(len(workloads.Documents.SLOTS) if name == "documents" else 3):
        item, _ = workload.make(rng, i)
        assert workload.run(item) is None
        assert workload.run(item) is None


# Items per seed, past bench/run.py's 60-item set-up pool into the
# items a timed run makes between items.
PAST_POOL = {"roundtrip": 80, "wide-sets": 70, "maps": 80, "documents": 200}


@pytest.mark.parametrize("name", sorted(PAST_POOL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_streams_pass_past_the_pool(monkeypatch, tmp_path, name, seed):
    # The stream bench/run.py makes: one generator for the workload and
    # its items, so an error in generating or running any item fails here.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rng = random.Random("%s:%d" % (name, seed))
    workload = workloads.WORKLOADS[name](rng, str(tmp_path))
    for i in range(PAST_POOL[name]):
        item, _ = workload.make(rng, i)
        assert workload.run(item) is None, (name, seed, i)
