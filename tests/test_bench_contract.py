"""The benchmark's workloads against today's library, on their tiny inputs.

Each workload in ``bench/workloads.py`` is built with ``tiny=True`` and
every op runs once: its call and check, the workload's cross-check, then
the traced replay and probe, and the layer probe.  A renamed library
function or a changed answer shows here as a gate failure, without a
benchmark run.  The library namespace is built from the sepcodes modules
this test process has already imported.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from sepcodes import cli, codes, families, graphs, hypergraphs, sat_reduction

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

LIB = SimpleNamespace(codes=codes, hypergraphs=hypergraphs, graphs=graphs, families=families,
                      sat_reduction=sat_reduction, cli=cli)


def run_once(op, gate, tracer, op_id):
    """Call and check op, then replay it under a span, check the replay's
    value too, and run its probe.  The replay's ledger entry must be the
    call's, as a traced run requires of every pass."""
    entry = op.check(op.call(), gate)
    with tracer.span("op", None, op_id) as root:
        value = op.replay(tracer, root) if op.replay is not None else op.call()
    assert op.check(value, gate) == entry, op.label
    if op.probe is not None:
        op.probe(tracer, op_id, value)
    return entry


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_workload_passes_its_gate(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # generated files are named relative to the cwd
    tracer, gate = run.Tracer(), workloads.Gate()
    inp = workloads.Inputs(LIB, random.Random(1), str(tmp_path), True, tracer)
    wl = workloads.BUILDERS[name](inp)
    assert wl.ops
    entries = {op.label: run_once(op, gate, tracer, i) for i, op in enumerate(wl.ops)}
    wl.cross_check(entries, gate)
    run_once(workloads.layer_probe(inp), gate, tracer, -1)
    for g in wl.graphs:
        workloads.twins_probe(tracer, g)
    assert gate.failures == []
