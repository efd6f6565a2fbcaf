"""Outside-in benchmark of the hypersect CLI.

    python3 perfbench/run.py --workload probe-smooth --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  One client sends the workload's
requests through `hypersect.cli.main(argv + ["--json"])` in this process,
one at a time (a closed loop), and repeats the whole list until
`--seconds` have passed.  Every stdout byte string and exit code is
checked.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 0  # the seed the golden corpus was recorded at
SETUP_REPEATS = 7

END_TO_END = {"wall_ref_s": "s", "req_ref_ms.p50": "ms", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER = {
    "cli.main.ms": "ms",
    "cli.self_ms": "ms",
    "parsing.parse_poly.ms": "ms",
    "jacobian.is_smooth.calls": "count",
    "jacobian.is_smooth.ms": "ms",
    "jacobian.self_ms": "ms",
    "jacobian.ideal_graded_dim.calls": "count",
    "jacobian.ideal_graded_dim.ms": "ms",
    "linalg.rank_mod_p_int.calls": "count",
    "linalg.rank_mod_p_int.ms": "ms",
    "linalg.rank_mod_p_int.cells": "count",
    "linalg.rank_mod_p_int.nnz": "count",
    "linalg.rank_mod_p_int.bytes_computed": "bytes",
    "linalg.rank_mod_p_int.full_frac": "ratio",
    "linalg.rank_int_exact.calls": "count",
    "linalg.rank_int_exact.ms": "ms",
    "linalg.rank_int_exact.cells": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.ms": "ms",
    "linalg.rref.cells": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.ms": "ms",
    "variation.criterion_kernel.calls": "count",
    "variation.criterion_kernel.ms": "ms",
    "variation.normalize_hyperplane.calls": "count",
    "variation.normalize_hyperplane.ms": "ms",
    "poly.substitute_linear.calls": "count",
    "poly.substitute_linear.ms": "ms",
    "variation.self_ms": "ms",
    "variation.trials": "count",
    "variation.certified_frac": "ratio",
    "trace.wall_ref_s": "s",
    "trace.overhead_ref_s": "s",
}


def single_thread_env() -> None:
    """One thread for any BLAS numpy may load; set before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_cli():
    sys.path.insert(0, str(SRC))
    from hypersect import cli

    return cli


def run_request(cli, request: dict) -> tuple[bytes, int | None, float]:
    """(stdout bytes, exit code, seconds) of one request; code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request["argv"] + ["--json"])
    except Exception:
        traceback.print_exc()
        code = None
    return out.getvalue().encode(), code, time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import the package, build the requests and run the first one untimed."""
    cli = import_cli()
    requests = workloads.requests(workload, seed)
    run_request(cli, requests[0])
    return cli, requests


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times in reference seconds, each in a fresh interpreter so the import is cold."""
    kernel = workloads.REFERENCE_KERNEL[workload]
    times = []
    before = reference.slowness(kernel)
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference.slowness(kernel)
        times.append(reference.scale(float(child.stdout.split()[-1]), before, after))
        before = after
    return times


def load_golden(workload: str) -> list[dict]:
    with open(GOLDEN / f"{workload}.json") as fh:
        return json.load(fh)["requests"]


class Checker:
    """Counts attempted and failed requests across passes.

    A request fails when it raised, breaks a fact that holds by
    construction, differs from the golden corpus (default seed only), or
    differs from its own output in the first pass.
    """

    def __init__(self, requests: list[dict], golden: list[dict] | None):
        self.requests = requests
        self.golden = golden
        self.first: list[tuple[bytes, int | None]] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        for i, (stdout, code, _, _) in enumerate(results):
            request = self.requests[i]
            if code is None:
                reason = "raised"
            else:
                reason = workloads.check_facts(request, stdout, code)
            golden = self.golden[i] if self.golden is not None else None
            if reason is None and golden is not None and (
                (golden["argv"], golden["stdout"].encode(), golden["exit"]) != (request["argv"], stdout, code)
            ):
                reason = "differs from the golden corpus"
            if reason is None and self.first is not None and self.first[i] != (stdout, code):
                reason = "differs from the first pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"request {request['label']} failed: {reason}", file=sys.stderr)
        if self.first is None:
            self.first = [(stdout, code) for stdout, code, _, _ in results]


def run_pass(cli, requests, kernel: str, tracer: spans.Tracer | None = None):
    """(stdout, exit code, seconds, reference seconds) of each request in turn.

    The slowness of reference kernel `kernel` is sampled before the first
    request and after each one, so each request's reference seconds come
    from the samples on either side of it.
    """
    timed = []
    before = reference.slowness(kernel)
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        stdout, code, elapsed = run_request(cli, request)
        after = reference.slowness(kernel)
        timed.append((stdout, code, elapsed, reference.scale(elapsed, before, after)))
        before = after
    return timed


def trace_gaps(requests, results, tracer: spans.Tracer) -> list[str]:
    """Where the traced spans disagree with what the requests must have done."""
    gaps = []
    kernels = [0] * len(requests)
    probes = [0] * len(requests)
    for span in tracer.spans:
        if span.name == "variation.criterion_kernel":
            kernels[span.request] += 1
        elif span.name == "linalg.rank_mod_p_int" and "stop_at_calls" in (span.counts or {}):
            probes[span.request] += 1
    for i, request in enumerate(requests):
        stdout = results[i][0]
        if request["argv"][0] == "certify":
            trial_count = json.loads(stdout)["result"]["trial_count"]
            if kernels[i] != trial_count:
                gaps.append(f"{request['label']}: {kernels[i]} criterion_kernel spans, trial_count {trial_count}")
        if request["expect"].get("smooth") is True and probes[i] != 1:
            gaps.append(f"{request['label']}: {probes[i]} rank_mod_p_int calls with stop_at, expected 1")
    return gaps


def work_counts(totals: dict) -> dict:
    """The metrics of one traced pass that must repeat exactly: all but times."""
    return {key: value for key, value in totals.items() if not key.endswith("ms")}


def ref_latencies(passes: list[list[tuple]]) -> list[float]:
    """Each request's median latency over the passes of a run, in reference seconds.

    On a shared 2-core VM the host's speed wanders by up to 2x for seconds
    to minutes at a time, so a run's plain latencies depend on when it ran.
    Scaled by the reference kernel timed on either side of each request,
    they do not.  See README.md, "Noise on this machine".
    """
    return [statistics.median(r[3] for r in samples) for samples in zip(*passes)]


def layer_metrics(per_pass: list[dict], traced_s: float, untraced_s: float) -> dict:
    passes = len(per_pass)
    keys = set().union(*per_pass)
    mean = {key: sum(p.get(key, 0) for p in per_pass) / passes for key in keys}
    values = {name: mean.get(name, 0) for name in PER_LAYER}
    stop_at = mean.get("linalg.rank_mod_p_int.stop_at_calls", 0)
    full = mean.get("linalg.rank_mod_p_int.full_calls", 0)
    values["linalg.rank_mod_p_int.full_frac"] = full / stop_at if stop_at else 0.0
    trials = mean.get("variation.certify_max_variation.trials", 0)
    certified = mean.get("variation.certify_max_variation.certified", 0)
    values["variation.trials"] = trials
    values["variation.certified_frac"] = certified / trials if trials else 0.0
    values["trace.wall_ref_s"] = traced_s
    values["trace.overhead_ref_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_s = statistics.median(setup_seconds(workload, seed))
    cli, requests = setup(workload, seed)
    kernel = workloads.REFERENCE_KERNEL[workload]
    checker = Checker(requests, load_golden(workload) if seed == DEFAULT_SEED else None)
    untraced, traced_passes, pass_s, layer_passes, problems = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        results = run_pass(cli, requests, kernel)
        pass_s.append(time.perf_counter() - start)
        untraced.append(results)
        checker.check(results)
        if traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced_results = run_pass(cli, requests, kernel, tracer)
            traced_passes.append(traced_results)
            if [r[:2] for r in traced_results] != [r[:2] for r in results]:
                problems.append("traced stdout or exit codes differ from untraced")
            problems.extend(trace_gaps(requests, traced_results, tracer))
            layer_passes.append(spans.layer_totals(tracer.spans))
            if work_counts(layer_passes[-1]) != work_counts(layer_passes[0]):
                problems.append("work counts differ between traced passes")
        if time.perf_counter() >= deadline:
            break
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "passes": len(untraced),
        "requests_per_pass": len(requests),
        "pass_s_median": statistics.median(pass_s),
        "wall_s": sum(statistics.median(r[2] for r in samples) for samples in zip(*untraced)),
        "failed_frac": checker.failed / checker.attempted,
        "golden_checked": seed == DEFAULT_SEED,
    }
    print(json.dumps(info, sort_keys=True))
    latencies = ref_latencies(untraced)
    if traced:
        metrics = layer_metrics(layer_passes, sum(ref_latencies(traced_passes)), sum(latencies))
    else:
        values = {
            "wall_ref_s": sum(latencies),
            "req_ref_ms.p50": statistics.median(latencies) * 1000.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    return {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print the seconds")
    args = parser.parse_args(argv)
    if not (SRC / "hypersect" / "__init__.py").is_file():
        print(f"error: no hypersect sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    single_thread_env()
    if args.setup_only:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
