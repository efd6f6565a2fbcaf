"""Self-tests of the benchmark: input generation, trace completeness, refusal without sources.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout.  Takes about half a minute: every
workload runs two traced passes at the default seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

run.single_thread_env()
CLI = run.import_cli()


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in workloads.WORKLOADS:
        first = workloads.requests(workload, 7)
        assert first == workloads.requests(workload, 7)
        assert [r["argv"] for r in first] != [r["argv"] for r in workloads.requests(workload, 8)]


def test_expanded_change_matches_the_package():
    from hypersect.fields import make_field
    from hypersect.parsing import parse_poly
    from hypersect.poly import LinearChange, substitute_linear

    for p in (0, workloads.P):
        poly = workloads.planted_node(4, 3)
        change = [list(row) for row in workloads.NODE_CHANGE]
        field = make_field(p)
        ours = parse_poly(workloads.to_text(workloads.substitute(poly, change, p)), 5, field)
        theirs = substitute_linear(parse_poly(workloads.to_text(poly), 5, field), LinearChange(field, change))
        assert ours == theirs


def test_every_binding_site_is_traced():
    sites = {name: {(module.__name__, attr) for module, attr in found}
             for name, found in spans.binding_sites().items()}
    assert {("hypersect.jacobian", "is_smooth"), ("hypersect.variation", "is_smooth"),
            ("hypersect.cli", "is_smooth")} <= sites["jacobian.is_smooth"]
    assert ("hypersect.variation", "ideal_graded_dim") in sites["jacobian.ideal_graded_dim"]
    assert ("hypersect.variation", "substitute_linear") in sites["poly.substitute_linear"]
    assert ("hypersect.cli", "parse_poly") in sites["parsing.parse_poly"]
    found = spans.binding_sites()
    originals = {name: getattr(*sites[0]) for name, sites in found.items()}
    with spans.installed(spans.Tracer()):
        for name, sites in found.items():
            assert all(getattr(module, attr) is not originals[name] for module, attr in sites)
    for name, sites in found.items():
        assert all(getattr(module, attr) is originals[name] for module, attr in sites)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_is_complete_and_counts_repeat(workload):
    requests = workloads.requests(workload, run.DEFAULT_SEED)
    golden = run.load_golden(workload)
    totals = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            results = run.run_pass(CLI, requests, workloads.REFERENCE_KERNEL[workload], tracer)
        # the golden corpus was recorded untraced
        assert [(stdout.decode(), code) for stdout, code, *_ in results] == [
            (g["stdout"], g["exit"]) for g in golden]
        assert run.trace_gaps(requests, results, tracer) == []
        totals.append(run.work_counts(spans.layer_totals(tracer.spans)))
    assert totals[0] == totals[1]
    if workload == "certify-sweep":
        trial_count = sum(json.loads(g["stdout"])["result"]["trial_count"] for g in golden)
        assert totals[0]["variation.criterion_kernel.calls"] == trial_count
    if workload == "probe-smooth":
        assert totals[0]["linalg.rank_mod_p_int.stop_at_calls"] == len(requests)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
