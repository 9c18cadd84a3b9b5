"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer, _package_modules, layer_metrics  # noqa: E402

from toric_exc.cli import main  # noqa: E402

# Every command shape of the four workloads, at dim 4.
SHAPES_DIM4 = [
    ["verify", "--dim", "4", "--method", "oracle", "--sample", "50", "--seed", "3"],
    ["verify", "--dim", "4", "--method", "forbidden", "--sample", "50", "--seed", "3"],
    ["verify", "--dim", "4"],
    ["verify", "--dim", "4", "--what", "stability"],
    ["verify", "--dim", "4", "--what", "cardinality"],
    ["verify", "--dim", "4", "--what", "generation"],
    ["verify", "--dim", "4", "--what", "walls"],
    ["verify", "--dim", "4", "--mutate", "swap:0,20"],
    ["verify", "--dim", "4", "--method", "oracle", "--mutate", "add:1,0-1-2",
     "--sample", "200", "--seed", "3"],
]


def _snapshot():
    return {(mod.__name__, k): v for mod in _package_modules() for k, v in vars(mod).items()}


@pytest.mark.parametrize("argv", SHAPES_DIM4, ids=lambda a: " ".join(a[3:]) or "inequalities")
def test_traced_run_prints_the_same_and_restores_everything(argv):
    argv = argv + ["--format", "json"]
    plain = child.run_command(main, argv)
    before = _snapshot()
    originals = {id(getattr(importlib.import_module(f"toric_exc.{m}"), f))
                 for m, f, _, _ in BOUNDARIES}
    traced = child.trace(argv)
    assert (traced["code"], traced["stdout"]) == plain
    assert _snapshot() == before

    tracer = Tracer()
    tracer.install()
    try:
        leftover = [(mod.__name__, k) for mod in _package_modules()
                    for k, v in vars(mod).items() if id(v) in originals]
    finally:
        tracer.restore()
    assert leftover == []
    summary = traced["summary"]
    assert summary["calls"]["cli.main"] == 1
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"])


def test_layer_metrics_account_for_the_traced_wall_time():
    summary = child.trace(SHAPES_DIM4[0] + ["--format", "json"])["summary"]
    record = {"summary": summary, "wall_s": summary["root_s"] + 0.25, "output_bytes": 10}
    metrics = layer_metrics([record, record], untraced_s=2 * record["wall_s"] / 1.5)
    self_total = sum(v for k, (v, u) in metrics.items()
                     if u == "s" and k != "cli.startup_s")
    assert self_total + metrics["cli.startup_s"][0] == pytest.approx(2 * record["wall_s"])
    assert metrics["trace.overhead_share"][0] == pytest.approx(0.5)
    assert metrics["cohomology.calls"][0] == 100
    assert metrics["collection.pairs"][0] == 100
    assert metrics["collection.calls_per_pair"][0] == 1.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"summary": Tracer().summary(), "wall_s": 1.0, "output_bytes": 0}
    per_layer = {k: u for k, (_, u) in layer_metrics([record], 1.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "verdict_s", "warm_s", "setup_s", "peak_rss_mb"}


def test_each_pass_draws_its_own_seed():
    bench = run.Bench("oracle-n8", 7, 1)
    seeds = [c.argv[c.argv.index("--seed") + 1]
             for k in range(3) for c in bench.pass_commands(k)]
    assert seeds == ["7000", "7001", "7002"]


def test_times_are_scaled_by_the_reference_readings_of_their_phase(monkeypatch):
    bench = run.Bench("oracle-n8", 7, 1)
    readings = iter([1, 2, 4])
    monkeypatch.setattr(run, "reference", lambda: next(readings) * run.REFERENCE_S)
    monkeypatch.setattr(bench, "compile_once", lambda: None)
    monkeypatch.setattr(bench, "setup_s", lambda: bench.references.append(run.reference()) or 0.5)
    monkeypatch.setattr(bench, "alternate", lambda: (
        bench.references.extend([run.reference(), run.reference()]) or (4.0, 3.0)))
    metrics = bench.end_to_end()
    assert bench.raw == {"verdict_s": 4.0, "warm_s": 3.0, "setup_s": 0.5}
    assert [metrics[k][0] for k in bench.raw] == pytest.approx([4 / 3, 1.0, 0.5])


def test_warm_child_runs_one_pass_per_line():
    argvs = [SHAPES_DIM4[0] + ["--format", "json"], SHAPES_DIM4[3] + ["--format", "json"]]
    out = io.StringIO()
    child.warm([json.dumps(argvs) + "\n", json.dumps(argvs[:1]) + "\n"], out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["results"] for r in replies] == [
        [list(child.run_command(main, a)) for a in argvs],
        [list(child.run_command(main, argvs[0]))]]


def _payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def mutated_outputs():
    # Seed 2 samples two of the add mutation's violating pairs.
    return [(c,) + _payload(c.argv) for c in workloads.commands("mutated", 2)]


def test_pinned_witnesses_match_the_program(mutated_outputs):
    for command, code, out in mutated_outputs:
        assert workloads.check(command, code, out) == []


def _doctor(out, change):
    payload = json.loads(out)
    change(payload)
    return json.dumps(payload)


def test_doctored_payloads_count_as_failed(mutated_outputs):
    (swap, swap_code, swap_out), (add, add_code, add_out) = mutated_outputs
    oracle = workloads.commands("oracle-n8", 7)[0]
    oracle_ok = json.dumps({
        "schema": "toric-exc/report/1", "what": "exceptional", "n": 8, "ok": True,
        "method": "oracle", "size": 630, "expected": 630, "complete": True,
        "pairs_checked": 100, "sampled": True, "violations": []})
    doctored = [
        (oracle, 0, _doctor(oracle_ok, lambda p: p.update(pairs_checked=99))),
        (oracle, 1, oracle_ok),
        (oracle, 1, "Traceback (most recent call last):\n"),
        (swap, swap_code, _doctor(swap_out, lambda p: p["violations"].pop(0))),
        (swap, swap_code, _doctor(
            swap_out, lambda p: p["violations"][0].update(detail="moved"))),
        (add, add_code, _doctor(add_out, lambda p: p["violations"].pop())),
        (add, add_code, _doctor(add_out, lambda p: p.update(complete=True))),
    ]
    bench = run.Bench("mutated", 2, 1)
    bench.check(oracle, 0, oracle_ok)
    for command, code, out in doctored:
        bench.check(command, code, out)
    assert bench.attempted == len(doctored) + 1
    assert len(bench.problems) == len(doctored)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mutated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "no program sources" in proc.stderr
