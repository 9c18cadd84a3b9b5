"""Time G_n's construction, the pair sweeps, the checks, the pattern homology
table, cohomology on random vectors and classes, the n = 12, 14, 16 and 20
commands, a generation check that fails late, and the command's start-up.

    python3 scripts/bench_layers.py > record.json

Each layer runs in its own fresh interpreter on the program in this
checkout's src/: one warm-up call, then up to five timed calls, stopped
after BUDGET_S seconds. A layer reports the median and the maximum of the
calls that finished, their count, whether the budget cut it short, and
the peak RSS of its interpreter (ru_maxrss; None for a layer cut short);
a layer the program does not have is reported as missing. The machine
(CPU count and model, Python version) and the commit are recorded with
the times. The output is one JSON object on stdout. Standard library only.

The sweep layers at n = 20, 30, 40, 60 and 100 and `verify_generation` at
n = 30 and 40 run past the command's MAX_DIM = 20, in process: a full
sweep of the intact G_n grades each line of keys once over its span, with
the shapes read off its units grouped by l, and the generation check reads
the shapes of its Koszul terms off a closed form, so these layers show how
far exhaustive checking reaches. The oracle and forbidden sweeps at
n = 100 measure the target of under 10 s for each.
The `predicates.every_family` layers at n = 12, 16 and 20 grade every
family (c, k, l) with -n - 2 <= c <= n + 2 by both inequality predicates
(the lemma only inside its hypotheses) and by the ranks of the oracle's
grader, and exit with an error where a predicate differs from the oracle.
The `gram_matrix` layers at n = 6 and 8 read every Euler pairing of G_n,
one engine call per family of differences.

`verify_walls` at n = 14 and 20 checks every circuit class of V_n against
the wall weights, reading each class's relation off its closed form.
`build_certificate` at n = 14 and 20 runs the generation check on the
intact G_n and then reads one record per wall size off the same shapes. The
`generation.late_failure` layers run `verify_generation` on a G_n less the
first member of a late cell, `drop:2671` at n = 12 ((c, l) = (4, 8)) and
`drop:22492` at n = 14 ((5, 9)); each must raise KoszulEscape, which it
finds after walking every wall of its size before the failing one.

The mutant layers at n = 16 run `verify --dim 16 --mutate drop:0`, and
`mutant.swap` at n = 12 runs `verify --dim 12 --mutate swap:3958,6`, which
swaps a member of a 1,716-member cell into another block; each must exit 1.
`mutant.swap` at n = 20 runs `verify --dim 20 --what stability --mutate
swap:1415650,1768365`, which swaps the first and last member of G_20's
largest cell (352,716 members); the swap stays in one block, so it must
exit 0. `mutant.add` at n = 16 runs `verify --dim 16 --mutate add:1,0-1`,
whose added member fails against nearly every other: the sweep walks and
reports 217,694 violating pairs, and it must exit 1. `report.json` at n = 16
runs the same command with `--format json`, which writes those pairs as a
39.6 MB report; it must exit 1 too. The two differ by the cost of writing
a failing run's JSON. A command's stdout goes to an in-memory buffer.
The `pattern_table` layer reads every (pairs, plus, minus) class of V_n
once. Each `cohomology.coeffs` call grades the next of five seeded
per-ray coefficient vectors with entries in [-3, 3], up to n = 20, and
each `cohomology.class` call the next of five seeded `DivisorClass`
vectors with entries in [-3, 3] (`random.Random(n)`), at n = 16, 20 and
24. The warm-up call takes the first vector and five timed calls take all
five, so an in-process layer's `max_s`, the slowest timed call, is the
slowest of the five vectors.

The start-up layers time whole interpreters from outside: `startup.import`
runs `python -c "import toric_exc.cli"`; `startup.exceptional`,
`startup.stability`, `startup.cardinality` and `startup.generation` run
`python -m toric_exc verify --dim 8` with that `--what`, and
`startup.walls` runs `verify --dim 6 --what walls`, the argvs of the
benchmark's `certify` workload; `startup.setup` runs its set-up line at
n = 8 (`build_Vn(8)` and `build_Gn(8)` after importing them from the
package). Each runs in STARTUP_RUNS fresh interpreters with this process's
environment (so PYTHONDONTWRITEBYTECODE, which the record notes, applies
as set) and src/ first on PYTHONPATH, and reports the median wall time,
and no peak RSS. A change of start-up is a few milliseconds, which the
median of five launches does not resolve on a shared 2-core host.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
STARTUP_RUNS = 21
BUDGET_S = 60

LAYERS = (
    [(f"sweep.{method}", n) for method in ("inequalities", "forbidden", "oracle")
     for n in (8, 10, 12, 14)]
    + [(f"sweep.{method}", 16) for method in ("forbidden", "oracle")]
    + [(f"sweep.{method}", n) for method in ("inequalities", "forbidden", "oracle")
       for n in (20, 30)]
    + [("sweep.inequalities", n) for n in (40, 60, 100)]
    + [(f"sweep.{method}", n) for method in ("forbidden", "oracle") for n in (40, 60, 100)]
    + [("predicates.every_family", n) for n in (12, 16, 20)]
    + [("gram_matrix", n) for n in (6, 8)]
    + [(name, n) for name in ("verify_generation", "build_certificate",
                              "verify_stability", "verify_walls")
       for n in (8, 10, 12)]
    + [(name, n) for name in ("build_certificate", "verify_walls") for n in (14, 20)]
    + [("generation.late_failure", n) for n in (12, 14)]
    + [("verify_generation", n) for n in (30, 40)]
    + [(f"verify.{what}", 14) for what in ("exceptional", "stability", "generation",
                                            "walls")]
    + [("build_Gn", n) for n in (8, 10, 12, 14, 16, 18, 20)]
    + [(f"verify.{what}", 20) for what in ("exceptional", "stability", "generation",
                                            "cardinality")]
    + [(f"mutant.{what}", 16) for what in ("cardinality", "exceptional", "stability",
                                            "generation")]
    + [("mutant.swap", 12), ("mutant.swap", 20), ("mutant.add", 16), ("report.json", 16)]
    + [(name, n) for name in ("pattern_table", "cohomology.coeffs") for n in (8, 10, 12)]
    + [("cohomology.coeffs", n) for n in (16, 20)]
    + [("cohomology.class", n) for n in (16, 20, 24)]
    + [("startup.import", None)]
    + [(f"startup.{what}", 8) for what in ("exceptional", "stability", "cardinality",
                                            "generation")]
    + [("startup.walls", 6), ("startup.setup", 8)]
)

# (layer, n) -> the --what, --mutate and exit code of a mutant or report layer
# other than drop:0
MUTANTS = {
    ("mutant.swap", 12): ("exceptional", "swap:3958,6", 1),
    ("mutant.swap", 20): ("stability", "swap:1415650,1768365", 0),
    ("mutant.add", 16): ("exceptional", "add:1,0-1", 1),
    ("report.json", 16): ("exceptional", "add:1,0-1", 1),
}

# n -> the drop of a generation.late_failure layer
LATE = {12: "drop:2671", 14: "drop:22492"}

# layer -> the interpreter's argv, {n} standing for the layer's n
_VERIFY = ["-m", "toric_exc", "verify", "--dim", "{n}"]
STARTUP = {
    "startup.import": ["-c", "import toric_exc.cli"],
    "startup.exceptional": _VERIFY,
    **{f"startup.{what}": [*_VERIFY, "--what", what]
       for what in ("stability", "cardinality", "generation", "walls")},
    "startup.setup": ["-c", "from toric_exc import apply_mutation, build_Gn, build_Vn\n"
                      "build_Vn({n})\nbuild_Gn({n})"],
}

WORKER = """\
import contextlib, importlib, io, itertools, json, random, resource, sys, time
sys.path.insert(0, {src!r})
from toric_exc import cli, collection, windows
from toric_exc.fan import build_Vn
coh = importlib.import_module("toric_exc.cohomology")
name, n = {name!r}, {n}
table = coh._pattern_homology
if name == "pattern_table":
    classes = [(p, a, b) for p in range(n + 2) for a in range(n + 2 - p)
               for b in range(n + 2 - p - a)]
    def call():
        for cls in classes:
            table(n, *cls)
elif name in ("cohomology.coeffs", "cohomology.class"):
    from toric_exc.picard import DivisorClass
    rng = random.Random(n)
    fan = build_Vn(n)
    make, size = (tuple, 2 * n + 2) if name == "cohomology.coeffs" else (DivisorClass, n + 2)
    vectors = itertools.cycle([make(tuple(rng.randint(-3, 3) for _ in range(size)))
                               for _ in range(5)])
    def call():
        coh.cohomology(fan, next(vectors))
elif name == "predicates.every_family":
    from toric_exc.picard import higher_acyclic_predicate, lemma_acyclic_predicate
    grade = collection._class_grader("oracle", n)
    families = [(c, k, ell) for k in range(n + 2) for ell in range(n + 2 - k)
                for c in range(-n - 2, n + 3)]
    def call():
        for c, k, ell in families:
            ranks = grade(c, k, ell, True)[1]  # the oracle's note: the family's ranks
            if higher_acyclic_predicate(n, c, k, ell) == any(ranks[1:]) or (
                    k <= ell and (c, k, ell) != (0, 0, 0)
                    and lemma_acyclic_predicate(n, c, k, ell) == any(ranks)):
                sys.exit(f"a predicate differs from the oracle at {{(c, k, ell)}}")
elif name.startswith("sweep."):
    col = collection.build_Gn(n)
    def call():
        if not collection.verify_exceptional(col, name[6:]).ok:
            sys.exit("the sweep failed")
elif name.startswith(("verify.", "mutant.", "report.")):
    # a mutant drops one member, so its checks must exit 1; MUTANTS holds the others
    kind, what = name.split(".")
    argv = ["verify", "--dim", str(n), "--what", what]
    expected = 0
    if kind != "verify":
        what, mutation, expected = {mutants!r}.get((name, n), (what, "drop:0", 1))
        argv = ["verify", "--dim", str(n), "--what", what, "--mutate", mutation]
    if kind == "report":
        argv += ["--format", "json"]
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != expected:
                sys.exit("the check did not exit " + str(expected))
elif name == "generation.late_failure":
    col = collection.apply_mutation(collection.build_Gn(n), {late!r}[n])
    def call():
        try:
            windows.verify_generation(n, col)
        except windows.KoszulEscape:
            return
        sys.exit("the generation check did not fail")
elif hasattr(windows, name) or hasattr(collection, name):
    col = collection.build_Gn(n)
    args = {{"verify_stability": (col,), "gram_matrix": (col,), "verify_walls": (n,),
             "build_Gn": (n,)}}.get(name, (n, col))
    check = getattr(windows, name, None) or getattr(collection, name)
    def call():
        check(*args)
else:
    print(json.dumps("missing"), flush=True)
    sys.exit()
call()
for _ in range({runs}):
    start = time.perf_counter()
    call()
    print(json.dumps(time.perf_counter() - start), flush=True)
print(json.dumps({{"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def time_startup(name: str, n: int | None) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(n=n) for arg in STARTUP[name]]
    times = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, timeout=BUDGET_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}")
    return {"layer": name, "n": n, "median_s": statistics.median(times), "runs": STARTUP_RUNS,
            "cut_at_s": None, "peak_rss_mb": None}


def time_layer(name: str, n: int) -> dict:
    if name in STARTUP:
        return time_startup(name, n)
    code = WORKER.format(src=str(ROOT / "src"), name=name, n=n, runs=RUNS, mutants=MUTANTS,
                       late=LATE)
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=BUDGET_S)
        cut = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        cut = True
    runs = [json.loads(line) for line in out.splitlines()]
    if runs == ["missing"]:
        return {"layer": name, "n": n, "missing": True}
    if not cut and proc.returncode != 0:
        raise SystemExit(f"{name} at n = {n} exited {proc.returncode}")
    peak = runs.pop()["peak_rss_mb"] if runs and isinstance(runs[-1], dict) else None
    return {"layer": name, "n": n, "median_s": statistics.median(runs) if runs else None,
            "max_s": max(runs, default=None), "runs": len(runs),
            "cut_at_s": BUDGET_S if cut else None, "peak_rss_mb": peak}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def cpu_model() -> str:
    """The CPU model name from /proc/cpuinfo, or the platform's machine type."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> None:
    record = {
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "cpus": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "runs": RUNS,
        "budget_s": BUDGET_S,
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "layers": [time_layer(name, n) for name, n in LAYERS],
    }
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
