"""The benchmark harness still finds every library function it traces.

`bench/tracing.py` wraps functions by name; renaming or removing one
would otherwise surface only when a traced benchmark run starts.
"""

from pathlib import Path

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
