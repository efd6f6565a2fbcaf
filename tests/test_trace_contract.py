"""The benchmark's trace contract, checked from the test suite.

perfbench/spans.py counts the rows handed to linalg.rank_mod_p_int as a
sequence of (column, value) pair lists: len(rows), rows[0] and each row's
count(0).  linalg.SparseRows keeps that sequence view, so one traced pass
of the probe-smooth workload must still find no trace gap, reproduce the
golden corpus and count the same work as the pair-list rows did.  One
traced pass of certify-sweep must find one criterion_kernel span per
trial, whatever each trial runs inside it.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_one_traced_probe_smooth_pass_keeps_the_trace_contract(monkeypatch):
    """One traced pass of probe-smooth at seed 0: no trace gap, the golden
    stdout bytes and exit codes, 14 rank_mod_p_int calls (one probe per
    request) and 61,527 nonzeros counted through the pair view."""
    totals = _one_traced_pass(monkeypatch, "probe-smooth")
    assert totals["linalg.rank_mod_p_int.calls"] == 14
    assert totals["linalg.rank_mod_p_int.nnz"] == 61_527


def test_one_traced_certify_sweep_pass_keeps_the_trace_contract(monkeypatch):
    """One traced pass of certify-sweep at seed 0: no trace gap, so one
    criterion_kernel span per certify trial, and the golden stdout bytes
    and exit codes."""
    totals = _one_traced_pass(monkeypatch, "certify-sweep")
    assert totals["variation.criterion_kernel.calls"] == totals["variation.certify_max_variation.trials"] > 0


def _one_traced_pass(monkeypatch, workload: str) -> dict:
    """Run one traced pass of a workload at seed 0, check that it finds no
    trace gap and reproduces the golden corpus, and return its layer totals."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])  # run.import_cli adds to it too
    for name in ("run", "spans", "workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return _check_one_traced_pass(workload)
    finally:  # the perfbench modules, imported under generic names, leave with the test
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def _check_one_traced_pass(workload: str) -> dict:
    import run
    import spans
    import workloads

    cli = run.import_cli()
    requests = workloads.requests(workload, 0)
    tracer = spans.Tracer()
    results = []
    with spans.installed(tracer):
        for i, request in enumerate(requests):
            tracer.request = i
            results.append(run.run_request(cli, request))
    assert run.trace_gaps(requests, results, tracer) == []
    golden = run.load_golden(workload)
    assert [(g["stdout"].encode(), g["exit"]) for g in golden] == [(out, code) for out, code, _ in results]
    return spans.layer_totals(tracer.spans)
