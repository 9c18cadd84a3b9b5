"""Benchmark of the `toric-exc` command, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from anywhere inside a checkout; the program is taken from src/.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones (see README.md). Every command's output is checked.
End-to-end times are scaled to a fixed reference speed (see reference()).
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Exits 2 without a
result when the program's sources are missing, and 1 when a run would
exceed its time budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUDGET_S = 170  # a run must end within 180 s
SETUP_LAUNCHES = 11
# About the median of reference() on the 2-core machine the benchmark was
# defined on: scaled times are seconds at that speed.
REFERENCE_S = 0.10

SETUP_CODE = """\
from toric_exc import apply_mutation, build_Gn, build_Vn
for n, mutation in {spec!r}:
    build_Vn(n)
    collection = build_Gn(n)
    if mutation:
        apply_mutation(collection, mutation)
"""


class BudgetExceeded(Exception):
    pass


def reference() -> float:
    """Wall time of a fixed pure-Python job that uses no toric_exc code.

    The shared host's speed drifts by up to ±20% over minutes, and this
    job slows with it; scaling a run's times by it removes most of the
    drift.
    """
    start = perf_counter()
    counts = {}
    acc = 0
    for i in range(120000):
        key = (i % 101, i % 53)
        counts[key] = counts.get(key, 0) + 1
        acc += i * i % 7
    sorted(counts.items())
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 11, i)
    return perf_counter() - start


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.commands = workloads.commands(workload, seed)
        self.argvs = [c.argv for c in self.commands]
        self.seconds = seconds
        self.deadline = perf_counter() + BUDGET_S
        self.attempted = 0
        self.problems = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # No process pool: on a small shared box it would measure the scheduler.
        self.env.pop("TORIC_EXC_THREADS", None)
        self.references = []  # reference() read after every timed unit
        self.raw = {}  # the end-to-end times before scaling

    def launch(self, argv) -> tuple[float, subprocess.CompletedProcess]:
        """Wall time from launch to exit of one fresh interpreter."""
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable] + argv, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(self.deadline - start, 1))
        except subprocess.TimeoutExpired:
            raise BudgetExceeded(f"{argv[:3]} ran past the {BUDGET_S} s budget") from None
        return perf_counter() - start, proc

    def check(self, command, code, stdout) -> None:
        self.attempted += 1
        problems = workloads.check(command, code, stdout)
        if problems:
            self.problems.append(f"{' '.join(command.argv)}: {'; '.join(problems)}")

    def compile_once(self) -> None:
        """Untimed launch, so bytecode compilation is not timed."""
        self.launch(["-c", "import toric_exc.cli"])

    def setup_s(self) -> float:
        """Median wall time of the set-up launches, unscaled."""
        code = SETUP_CODE.format(spec=workloads.SETUP[self.workload])
        times = []
        for _ in range(SETUP_LAUNCHES):
            wall, proc = self.launch(["-c", code])
            if proc.returncode:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
            times.append(wall)
            self.references.append(reference())
        return statistics.median(times)

    def pass_commands(self, k: int) -> list:
        """Pass k's commands, with their --seed set to seed * 1000 + k.

        A sampled command's cost depends on the pairs it draws (ten seeds
        of oracle-n8 spread by 0.16 of their median), so every pass draws
        its own, and the run's medians average over them.
        """
        return workloads.commands(self.workload, self.seed * 1000 + k)

    def cold_pass(self, commands) -> float:
        total = 0.0
        for command in commands:
            wall, proc = self.launch(["-m", "toric_exc"] + command.argv)
            total += wall
            self.check(command, proc.returncode, proc.stdout)
        return total

    def alternate(self) -> tuple[float, float]:
        """verdict_s and warm_s, unscaled: medians of cold and warm passes taken in
        turn (at least one of each), so both sample the machine over the
        same stretch of time. A pair of passes starts only if it should
        end within --seconds, judged by the last pair, so a run measures
        for about --seconds whatever the length of a pass."""
        # Leaving the with block closes the child's stdin, which ends it.
        with subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "warm"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
                cwd=ROOT) as child:
            watchdog = threading.Timer(max(self.deadline - perf_counter(), 1), child.kill)
            watchdog.start()
            try:
                # The warm child's own cold pass fills its caches.
                self.warm_pass(child, self.commands)
                cold, warm = [], []
                end = perf_counter() + self.seconds
                pair_s = 0.0
                while not cold or perf_counter() + pair_s <= end:
                    started = perf_counter()
                    commands = self.pass_commands(len(cold))
                    cold.append(self.cold_pass(commands))
                    self.references.append(reference())
                    warm.append(self.warm_pass(child, commands))
                    self.references.append(reference())
                    pair_s = perf_counter() - started
            except BaseException:
                child.kill()
                raise
            finally:
                watchdog.cancel()
        return statistics.median(cold), statistics.median(warm)

    def warm_pass(self, child, commands) -> float:
        child.stdin.write(json.dumps([c.argv for c in commands]) + "\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            if perf_counter() >= self.deadline:
                raise BudgetExceeded(f"the warm child ran past the {BUDGET_S} s budget")
            raise RuntimeError("the warm child exited early")
        reply = json.loads(line)
        for command, (code, out) in zip(commands, reply["results"]):
            self.check(command, code, out)
        return reply["total"]

    def end_to_end(self) -> dict:
        self.compile_once()
        setup = self.setup_s()
        n = len(self.references)
        verdict, warm = self.alternate()
        self.raw = {"verdict_s": verdict, "warm_s": warm, "setup_s": setup}
        # Seconds at the reference speed, read over the same phase of the run.
        setup_scale = REFERENCE_S / statistics.median(self.references[:n])
        pass_scale = REFERENCE_S / statistics.median(self.references[n:])
        # Largest max-RSS of any child; ru_maxrss is in KiB on Linux.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {"verdict_s": (verdict * pass_scale, "s"), "warm_s": (warm * pass_scale, "s"),
                "setup_s": (setup * setup_scale, "s"), "peak_rss_mb": (peak, "MB")}

    def traced(self) -> dict:
        self.compile_once()
        untraced = self.cold_pass(self.commands)
        records = []
        for command in self.commands:
            wall, proc = self.launch([str(HERE / "child.py"), "trace",
                                      json.dumps(command.argv)])
            if proc.returncode:
                raise RuntimeError(f"trace child failed: {proc.stderr.strip()}")
            result = json.loads(proc.stdout)
            self.check(command, result["code"], result["stdout"])
            records.append({"summary": result["summary"], "wall_s": wall,
                            "output_bytes": len(result["stdout"].encode())})
        return layer_metrics(records, untraced)


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "commit": commit()}


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="pass k gives the commands --seed SEED*1000+k")
    parser.add_argument("--seconds", type=float, required=True,
                        help="cold and warm passes alternate this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "toric_exc" / "cli.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'toric_exc'}",
              file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so reference() runs
    # where the passes run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.traced() if args.trace else bench.end_to_end()
    except BudgetExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = len(bench.problems)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "commands": bench.argvs,
              "problems": bench.problems,
              "failed_share": failed / bench.attempted,
              "unscaled_s": bench.raw,
              "reference_s": statistics.median(bench.references) if bench.references else None,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for line in bench.problems:
        print(f"FAILED {line}")
    print(f"machine: {json.dumps(record['machine'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:>14.6g} {unit}")
    for name, value in bench.raw.items():
        print(f"{name + ' unscaled':28} {value:>14.6g} s")
    if bench.references:
        print(f"{'reference() median':28} {record['reference_s']:>14.6g} s "
              f"(REFERENCE_S = {REFERENCE_S})")
    print(f"{'failed_share':28} {record['failed_share']:>14.6g} ratio "
          f"({failed} of {bench.attempted} commands)")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
