"""The one memory budget: require_memory, its two limits, and the refusals behind it."""

import ast
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hypersect import ResourceLimit
from hypersect.errors import require_memory

SRC = Path(__file__).resolve().parents[1] / "src" / "hypersect"


def test_the_budget_is_the_smaller_of_the_two_limits(monkeypatch):
    """require_memory refuses past the smaller of physical memory
    (os.sysconf) and the soft RLIMIT_AS, whichever of them is known, and
    nothing when neither is."""
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}.__getitem__)
    for soft in (5000, 4_096_000, 9_000_000, resource.RLIM_INFINITY):
        monkeypatch.setattr(resource, "getrlimit", lambda which, soft=soft: (soft, resource.RLIM_INFINITY))
        budget = 4_096_000 if soft == resource.RLIM_INFINITY else min(soft, 4_096_000)
        require_memory(budget, "the whole budget")
        with pytest.raises(ResourceLimit, match=f"^one byte more needs more than the {budget} bytes "):
            require_memory(budget + 1, "one byte more")

    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(os, "sysconf", unknown)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (5000, resource.RLIM_INFINITY))
    require_memory(5000, "the address space alone")
    with pytest.raises(ResourceLimit, match="the 5000 bytes"):
        require_memory(5001, "past the address space alone")
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
    require_memory(10**30, "anything")


def _refused_under_limit(argv: list[str]) -> str:
    """The stderr of the CLI request run in a child whose address space is
    limited to 1.5 GB, far below physical memory, after checking that it
    exits 2 with ResourceLimit and prints no traceback."""
    # one BLAS thread: per-thread buffers would take address space from the limit on a many-core host
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hypersect", *argv, "--json"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.RLIM_INFINITY)),
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "ResourceLimit"
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--char", "0", "--f", "x0", "--nvars", "400000000"],
        ["smooth", "--char", "101", "--f", "x0^12000 + x1^12000"],
        ["smooth", "--char", "0", "--f", "x0^3 + x1^3", "--nvars", "14"],
    ],
)
def test_refusals_hold_under_an_address_space_limit(argv):
    """Under a 1.5 GB address space, a 6.4 GB term, a 1.15 GB column table
    whose build peaks at 3.5 GB, and a 8.7 GB column table are refused by
    require_memory as ResourceLimit with exit 2, and no MemoryError
    traceback is printed."""
    assert "1500000000 bytes" in _refused_under_limit(argv)


def _dense_binary_form(degree: int) -> str:
    rng = random.Random(0)
    return " + ".join(f"{rng.randint(1, 100)}*x0^{degree - i}*x1^{i}" for i in range(degree + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["smooth", "--char", "101", "--f", "x0^7800 + x1^7800"],
        ["smooth", "--char", "101", "--f", _dense_binary_form(5000)],
    ],
    ids=["table-build", "dense-rows"],
)
def test_allocations_past_the_estimates_exit_as_resource_limit(argv):
    """Under a 1.5 GB address space, allocations that pass every
    require_memory estimate and then fail also exit 2 with ResourceLimit
    and no traceback: the 464 MiB gather of a column table whose 3x
    estimate lies just under the budget, and the 377 MiB concatenated
    rows of a dense binary form of degree 5,000."""
    assert "ran out of memory" in _refused_under_limit(argv)


def test_one_function_reads_the_memory_limits():
    """Only require_memory reads os.sysconf or resource.getrlimit in src/:
    every refusal shares its one budget."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(node, node.name) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("sysconf", "getrlimit"):
                owner = [name for scope, name in scopes if node in set(ast.walk(scope))]
                readers.append((path.name, owner[-1] if owner else None))
            elif isinstance(node, ast.ImportFrom) and node.module in ("os", "resource"):
                assert not {"sysconf", "getrlimit"} & {alias.name for alias in node.names}, path.name
    assert set(readers) == {("errors.py", "require_memory")}, readers
