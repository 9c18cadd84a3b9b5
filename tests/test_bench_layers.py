"""The layer bench script runs every worker branch it has."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# one layer per branch of the worker, at a small n where the layer is defined
@pytest.mark.parametrize("name, n", [
    ("sweep.oracle", 8),
    ("pattern_table", 8),
    ("cohomology.coeffs", 8),
    ("cohomology.class", 8),
    ("predicates.every_family", 6),
    ("verify.exceptional", 8),
    ("mutant.exceptional", 8),
    ("generation.late_failure", 12),
    ("verify_stability", 8),
    ("build_Gn", 8),
])
def test_each_worker_branch_times_its_layer(bench, name, n):
    record = bench.time_layer(name, n)
    assert "missing" not in record, record
    assert record["layer"] == name and record["n"] == n
    assert record["runs"] == bench.RUNS and record["cut_at_s"] is None, record
    assert record["median_s"] is not None and record["median_s"] <= record["max_s"], record
    assert record["peak_rss_mb"] > 0, record
