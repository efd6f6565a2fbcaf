"""Replay the benchmark's golden corpus: same stdout bytes, same exit codes.

perfbench/golden/<workload>.json holds CLI requests recorded at seed 0 with
their --json stdout and exit code.  Every refactor of the smoothness test,
the graded pieces or the criterion must reproduce them byte for byte.  The
files are only read here.  The benchmark also imports or traces some
package names directly; they must keep resolving.
"""

import importlib
import json
from pathlib import Path

import pytest

from hypersect.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _records():
    for path in sorted(GOLDEN.glob("*.json")):
        for record in json.loads(path.read_text())["requests"]:
            yield pytest.param(record, id=f"{path.stem}:{record['label']}")


def test_golden_corpus_is_present():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [
        "certify-sweep",
        "probe-smooth",
        "singular-q",
    ]


@pytest.mark.parametrize("record", list(_records()))
def test_golden_replay(capsys, record):
    code = main(record["argv"] + ["--json"])
    out = capsys.readouterr().out
    assert out == record["stdout"]
    assert code == record["exit"]


# every hypersect name perfbench/ imports (test_perfbench.py) or traces
# (spans.TRACED) that the package still defines
BENCHMARK_NAMES = [
    "poly.substitute_linear",
    "poly.LinearChange",
    "linalg.rank_mod_p_int",
    "jacobian.is_smooth",
    "jacobian.ideal_graded_dim",
    "parsing.parse_poly",
    "variation.criterion_kernel",
    "variation.certify_max_variation",
]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_names_resolve(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"hypersect.{module}"), attr, None)), name
