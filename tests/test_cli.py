import contextlib
import importlib
import io
import json
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_exc.cli import _json, build_parser, main, sample_pairs
from toric_exc.collection import PairResult, expected_size

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_odd_dim_rejected(capsys):
    code, out, err = run(capsys, "verify", "--dim", "3")
    assert code == 2
    assert "n must be even" in err


def test_zero_dim_rejected(capsys):
    code, _, err = run(capsys, "build", "--dim", "0")
    assert code == 2
    assert "n must be even" in err
    # one message for an odd n and for an even n below 2
    assert run(capsys, "verify", "--dim", "-2") == (
        2, "", "error: n must be even and at least 2\n")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--dim", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--dim", "x"], "error: argument --dim: invalid int value: 'x'\n"),
    (["verify"], "error: the following arguments are required: --dim\n"),
])
def test_argparse_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err == message


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: toric-exc verify")


# -- the argument surface ----------------------------------------------------

_labels = st.lists(st.integers(-1, 6), max_size=4).map(lambda js: "-".join(map(str, js)))
_mutations = st.one_of(
    st.integers(-3, 40).map(lambda i: f"drop:{i}"),
    st.builds(lambda c, j: f"add:{c},{j}", st.integers(-9, 9), _labels),
    st.builds(lambda i, j: f"swap:{i},{j}", st.integers(-2, 40), st.integers(-2, 40)),
    st.text(max_size=8),
)
_coeffs = st.one_of(
    st.lists(st.integers(-4, 4), min_size=3, max_size=6).map(
        lambda xs: ",".join(map(str, xs))),
    st.text(max_size=8),
)
_formats = st.sampled_from(["text", "json", "csv", "xml"]).map(lambda f: ["--format", f])
_verify_options = st.one_of(
    st.sampled_from(["exceptional", "stability", "cardinality", "generation", "walls",
                     "bogus"]).map(lambda w: ["--what", w]),
    st.sampled_from(["inequalities", "forbidden", "oracle", "bogus"]).map(
        lambda m: ["--method", m]),
    st.integers(-5, 50).map(lambda k: ["--sample", str(k)]),
    _mutations.map(lambda m: ["--mutate", m]),
    st.just(["--full-report"]),
    _formats,
)
_other_options = st.one_of(_formats, st.just(["--fan"]), st.just(["--allow-large"]))
_junk = st.sampled_from([["--bogus"], ["--dim"], ["--coeffs", "1"], ["stray"]])


@st.composite
def _argvs(draw):
    """An argv of the command grammar, with junk mixed in now and then."""
    command = draw(st.sampled_from(["build", "verify", "verify", "verify", "cohomology",
                                    "figure", "gram", "certificate", "frobnicate"]))
    argv = [command]
    dim = draw(st.sampled_from(["2", "4"] * 4 + ["-2", "0", "1", "3", "21", "22", "x", None]))
    if dim is not None:
        argv += ["--dim", dim]
    if command == "cohomology":
        argv += ["--coeffs", draw(_coeffs)]
    options = _verify_options if command == "verify" else _other_options
    for option in draw(st.lists(options, max_size=3)):
        argv += option
    if draw(st.sampled_from([False] * 9 + [True])):
        argv += draw(_junk)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_argument_surface(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


# -- build ----------------------------------------------------------------


def test_build_json(capsys):
    code, doc, _ = run_json(capsys, "build", "--dim", "2")
    assert code == 0
    assert doc["schema"] == "toric-exc/collection/1"
    assert [len(b["members"]) for b in doc["blocks"]] == [2, 3, 1]


def test_build_csv(capsys):
    code, out, _ = run(capsys, "build", "--dim", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "block,ell,c,J"
    assert len(lines) == 7
    assert lines[1] == "0,3,1,0-1-2"


def test_build_fan_json(capsys):
    code, doc, _ = run_json(capsys, "build", "--dim", "2", "--fan")
    assert code == 0
    assert doc["schema"] == "toric-exc/fan/1"
    assert doc["rank"] == 2
    assert len(doc["rays"]) == 6
    assert len(doc["cones"]) == 6


def test_build_fan_csv_rejected(capsys):
    code, _, err = run(capsys, "build", "--dim", "2", "--fan", "--format", "csv")
    assert code == 2
    assert "csv" in err


# -- verify: exceptional ----------------------------------------------------


@pytest.mark.parametrize("method", ["inequalities", "forbidden", "oracle"])
def test_verify_exceptional_ok(capsys, method):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--method", method)
    assert code == 0
    assert doc["ok"] is True
    assert doc["what"] == "exceptional"
    assert doc["pairs_checked"] == 30
    assert doc["sampled"] is False
    assert doc["violations"] == []


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "2")
    assert code == 0
    assert "members: 6 (expected 6)" in out
    assert out.strip().endswith("result: ok")


def test_verify_mutate_drop_fails(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--mutate", "drop:0")
    assert code == 1
    assert doc["ok"] is False
    assert doc["size"] == 5
    assert doc["complete"] is False


def test_verify_mutate_add_fails_with_witness(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--method", "oracle",
                            "--mutate", "add:0,0")
    assert code == 1
    assert doc["ok"] is False
    assert doc["violations"]
    first = doc["violations"][0]
    assert {"source", "target", "relation", "detail"} <= set(first)


def test_verify_mutate_swap_fails(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--mutate", "swap:0,5")
    assert code == 1
    assert doc["violations"]


@pytest.mark.parametrize("what", ["exceptional", "stability", "cardinality", "generation"])
def test_add_repeated_label_exits_2(capsys, what):
    # F_{1,{0}} is not what add:1,0-0 names; it used to be added silently
    code, out, err = run(capsys, "verify", "--dim", "4", "--what", what,
                         "--mutate", "add:1,0-0")
    assert (code, out, err) == (2, "", "error: repeated label in [0, 0]\n")


@pytest.mark.parametrize("mutation", ["add:1,-1", "add:1,0-", "add:1,0--1"])
def test_add_empty_label_exits_2(capsys, mutation):
    # add:1,-1 used to add F_{1,{1}}, and add:1,0- F_{1,{0}}: empty fields were dropped
    code, out, err = run(capsys, "verify", "--dim", "4", "--mutate", mutation)
    label = mutation.partition(",")[2]
    assert (code, out, err) == (2, "", f"error: empty label in {label!r}\n")


@pytest.mark.parametrize("mutation", ["add:0,", "add:-2,"])
def test_add_without_labels_adds_the_twist_alone(capsys, mutation):
    code, doc, _ = run_json(capsys, "verify", "--dim", "4", "--what", "cardinality",
                            "--mutate", mutation)
    assert code == 1
    assert doc["size"] == 31


def test_verify_mutate_bad_grammar(capsys):
    code, _, err = run(capsys, "verify", "--dim", "2", "--mutate", "explode")
    assert code == 2
    assert "error" in err


def test_verify_full_report(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--full-report")
    assert code == 0
    assert len(doc["pair_results"]) == 30
    assert all(r["ok"] for r in doc["pair_results"])


def test_verify_sample_restricts(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "4", "--method", "oracle",
                            "--sample", "10")
    assert code == 0
    assert doc["pairs_checked"] == 10
    assert doc["sampled"] is True


def test_verify_sample_deterministic(capsys):
    _, first, _ = run_json(capsys, "verify", "--dim", "4", "--sample", "25",
                           "--seed", "7")
    _, second, _ = run_json(capsys, "verify", "--dim", "4", "--sample", "25",
                            "--seed", "7")
    assert first == second


def test_verify_sample_nonpositive_rejected(capsys):
    code, _, err = run(capsys, "verify", "--dim", "2", "--sample", "0")
    assert code == 2
    assert "--sample" in err


def test_verify_oracle_defaults_to_sampling_on_large_dims(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "6", "--method", "oracle")
    assert code == 0
    assert doc["sampled"] is True
    assert doc["pairs_checked"] == 500


def test_verify_forbidden_large_dim_needs_flag(capsys):
    code, _, err = run(capsys, "verify", "--dim", "8", "--method", "forbidden")
    assert code == 2
    assert "--allow-large" in err


@pytest.mark.parametrize("count", ["396270", "500000"])
def test_verify_forbidden_sample_of_every_pair_needs_no_flag(capsys, count):
    # a sample that covers every ordered pair runs the full sweep, unsampled
    code, doc, _ = run_json(capsys, "verify", "--dim", "8", "--method",
                            "forbidden", "--sample", count)
    assert code == 0
    assert doc["ok"] is True and doc["sampled"] is False
    assert doc["pairs_checked"] == 396270


def test_verify_forbidden_large_dim_sampled_needs_no_flag(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "8", "--method",
                            "forbidden", "--sample", "20")
    assert code == 0
    assert doc["ok"] is True
    assert doc["pairs_checked"] == 20


@pytest.mark.parametrize("command, dim, name", [
    ("verify", "2", "x.json"), ("build", "2", "x.json"),
    # figure prints a note at n = 8, and only after the payload is written
    ("figure", "8", "x.csv"),
], ids=["verify", "build", "figure"])
def test_unwritable_out_exits_2(capsys, tmp_path, command, dim, name):
    target = tmp_path / "missing" / name
    code, out, err = run(capsys, command, "--dim", dim, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write") and str(target) in err
    assert not target.exists()


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["build", "--dim", "2", "--format", "csv"], ["verify", "--dim", "2"],
    ["figure", "--dim", "8"],
], ids=["build", "verify", "figure"])
def test_out_write_failure_exits_2(capsys, argv):
    # /dev/full opens, then fails the write with ENOSPC
    code, out, err = run(capsys, *argv, "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


# Each check at dim 4, intact and mutated; the goldens pin stdout, stderr and
# the exit code byte for byte in both formats.
VERIFY_GOLDEN = GOLDEN / "verify_n4.json"
VERIFY_CASES = [
    ["--what", "exceptional"],
    ["--what", "exceptional", "--mutate", "swap:7,8"],
    ["--what", "exceptional", "--mutate", "swap:0,29"],
    ["--what", "exceptional", "--mutate", "drop:0"],
    ["--what", "exceptional", "--mutate", "add:1,0-1"],
    ["--what", "exceptional", "--method", "forbidden"],
    ["--what", "exceptional", "--method", "oracle", "--mutate", "swap:0,29"],
    ["--what", "exceptional", "--sample", "12", "--seed", "3", "--full-report"],
    ["--what", "exceptional", "--sample", "40", "--seed", "3", "--full-report",
     "--mutate", "swap:0,29"],
    ["--what", "exceptional", "--mutate", "swap:0"],
    ["--what", "exceptional", "--sample", "0"],
    ["--what", "stability"],
    ["--what", "stability", "--mutate", "swap:7,8"],
    ["--what", "stability", "--mutate", "swap:0,29"],
    ["--what", "stability", "--mutate", "add:1,0-1"],
    ["--what", "cardinality"],
    ["--what", "cardinality", "--mutate", "swap:7,8"],
    ["--what", "cardinality", "--mutate", "drop:0"],
    ["--what", "generation"],
    ["--what", "generation", "--mutate", "swap:7,8"],
    ["--what", "generation", "--mutate", "drop:0"],
    ["--what", "walls"],
    ["--what", "walls", "--mutate", "drop:0"],
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", VERIFY_CASES, ids=" ".join)
def test_verify_matches_golden(capsys, argv, fmt):
    argv = ["verify", "--dim", "4", *argv, "--format", fmt]
    golden = json.loads(VERIFY_GOLDEN.read_text())[" ".join(argv)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (golden["exit"], golden["stdout"], golden["stderr"])


def test_sample_pairs_helper():
    pairs = sample_pairs(6, 10, seed=0)
    assert len(pairs) == 10
    assert len(set(pairs)) == 10
    assert all(i != j and 0 <= i < 6 and 0 <= j < 6 for i, j in pairs)
    assert sample_pairs(6, 30, seed=0) is None
    assert sample_pairs(6, 10, seed=0) == sample_pairs(6, 10, seed=0)


def test_verify_oracle_exhaustive_dim8(capsys):
    # one grading per (c, k, l) family makes the full n = 8 sweep seconds
    code, doc, _ = run_json(capsys, "verify", "--dim", "8", "--method",
                            "oracle", "--allow-large")
    assert code == 0 and doc["ok"] is True
    assert doc["pairs_checked"] == 396270 and doc["sampled"] is False


def test_cli_import_loads_no_process_pool():
    code = ("import sys, toric_exc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_start_up_loads_neither_dataclasses_nor_windows():
    # the value classes are plain classes, so start-up loads no dataclasses
    # (and through it inspect); windows and linalg load only for the
    # generation and wall checks and the certificate
    code = (
        "import contextlib, io, sys\n"
        "import toric_exc.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        "runs = [['verify', '--dim', '4', '--method', m]\n"
        "        for m in ('inequalities', 'forbidden', 'oracle')]\n"
        "runs += [['verify', '--dim', '4', '--what', w] for w in ('stability', 'cardinality')]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [toric_exc.cli.main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in ('toric_exc.windows', 'toric_exc.linalg')\n"
        "                    if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0] []"]


def test_package_serves_every_exported_name():
    # the windows names come through the package's module __getattr__
    import toric_exc
    from toric_exc import windows

    assert all(callable(getattr(toric_exc, name)) for name in toric_exc.__all__)
    assert toric_exc.wall_record is windows.wall_record
    assert toric_exc.cohomology is importlib.import_module("toric_exc.cohomology").cohomology
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toric_exc.no_such_name


_BASE = "cli collection picard record"
_WINDOWS = f"{_BASE} fan windows"

# (a verify argv or a line of code, run in a fresh interpreter; the toric_exc
# modules it loads, and no others)
MODULE_SETS = [
    ("import toric_exc", ""),
    ("from toric_exc import apply_mutation, build_Gn, build_Vn", "collection fan picard record"),
    *((f"verify --dim 4{what}{mutate}", _BASE)
      for what in ("", " --what stability", " --what cardinality")
      for mutate in ("", " --mutate drop:3")),
    ("verify --dim 4 --what generation", _WINDOWS),
    ("verify --dim 4 --what walls", _WINDOWS),
    ("verify --dim 4 --method oracle", f"{_BASE} cohomology fan"),
    ("verify --dim 4 --method forbidden", f"{_BASE} cohomology cones fan"),
]


@pytest.mark.parametrize("step, loaded", MODULE_SETS, ids=[step for step, _ in MODULE_SETS])
def test_each_command_loads_only_the_modules_it_runs(step, loaded):
    # the package loads a module on first use of one of its names, and the
    # engines and windows load in the handlers and sweeps that use them
    if step.startswith("verify"):
        step = ("import contextlib, io\nfrom toric_exc.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({step.split()!r}) in (0, 1)")
    code = f"import sys\n{step}\nprint(sorted(m for m in sys.modules if m.startswith('toric_exc.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sorted(f"toric_exc.{m}" for m in loaded.split()))


def test_text_run_loads_no_json():
    # json loads in _dumps, its only user, so a text run does without it
    code = ("import contextlib, io, sys\n"
            "print('json' in sys.modules)\n"
            "from toric_exc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--dim', '4']) == 0\n"
            "print('json' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this interpreter loads json at start-up")
    assert after == "False"


@pytest.mark.parametrize("load", [
    "import toric_exc.cohomology",
    "verify_exceptional(build_Gn(4), 'oracle')",
], ids=["import", "oracle-sweep"])
def test_package_names_outlive_their_modules_loading(load):
    # dir lists every exported name, and loading the module cohomology does
    # not replace the package's function of that name
    code = (
        "import types, toric_exc\n"
        "print(set(toric_exc.__all__) <= set(dir(toric_exc)))\n"
        "from toric_exc import build_Gn, verify_exceptional\n"
        f"{load}\n"
        "from toric_exc import cohomology\n"
        "print(isinstance(cohomology, types.FunctionType))\n"
        "from toric_exc import *\n"
        "print(all(callable(globals().get(name)) for name in toric_exc.__all__),\n"
        "      isinstance(cohomology, types.FunctionType))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 4


def test_production_path_loads_no_reference_layer():
    # the generic-fan and LP code is a reference layer that no command loads,
    # the pattern homology is a closed form, so no command loads the Smith
    # form's simplicial complexes; the circuit relations are a closed form too,
    # so no command loads the exact elimination of linalg, nor fractions
    code = (
        "import contextlib, io, sys\n"
        "from toric_exc.cli import main\n"
        "runs = [['verify', '--dim', '4', '--method', m]\n"
        "        for m in ('inequalities', 'forbidden', 'oracle')]\n"
        "runs += [['verify', '--dim', '4', '--what', 'generation'],\n"
        "         ['verify', '--dim', '4', '--what', 'walls'],\n"
        "         ['verify', '--dim', '4', '--what', 'stability'],\n"
        "         ['cohomology', '--dim', '4', '--coeffs=-1,-1,1,1,0,2'],\n"
        "         ['build', '--dim', '4', '--fan']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m in ('toric_exc.reference', 'toric_exc.polyhedra',\n"
        "                             'toric_exc.simplicial', 'toric_exc.linalg',\n"
        "                             'fractions')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0] []"


# -- bounds and internal errors -------------------------------------------------


def test_dim_above_bound_rejected(capsys):
    code, out, err = run(capsys, "verify", "--dim", "22")
    assert code == 2 and out == ""
    assert err == "error: n must be at most 20\n"


DIM_20_LINES = {
    "exceptional": "pairs checked: 15053433895500",
    "stability": "stability ok: every generator preserves every block",
    "cardinality": "cardinality ok: 3879876 members, expected 3879876",
    "generation": "generation ok: 1048576 walls, 3879876 pieces, base case empty",
}


@pytest.mark.parametrize("what", sorted(DIM_20_LINES))
def test_dim_20_check_is_fast_and_small(what):
    # G_20 has 3,879,876 members; a check on the intact collection reads its
    # cells and makes none of them, so it fits in 2 s and 200 MB of address space
    cap = 200 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_exc", "verify", "--dim", "20", "--what", what],
        capture_output=True, text=True, preexec_fn=limit, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert DIM_20_LINES[what] in proc.stdout.splitlines()
    assert elapsed < 2.0


MUTANT_16_LINES = {
    "cardinality": "cardinality FAILED: 218789 members, expected 218790",
    "exceptional": "members: 218789 (expected 218790)",
    "stability": "stability 1 stability failures, first: generator 0 moves block 0 off itself",
}


@pytest.mark.parametrize("what", sorted(MUTANT_16_LINES))
def test_dim_16_mutant_check_is_fast_and_small(what):
    # a mutation regroups the cells of G_16 and makes none of its 218,790
    # members, so the check fits in 80 MB of address space; making all of
    # them peaks at about 110 MB (cardinality) and 240 MB (exceptional), and
    # acting on each of them took about a minute (stability)
    cap = 80 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_exc", "verify", "--dim", "16", "--mutate", "drop:0",
         "--what", what],
        capture_output=True, text=True, preexec_fn=limit, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
    assert MUTANT_16_LINES[what] in proc.stdout.splitlines()
    assert elapsed < 2.0


def test_failing_verify_memory_does_not_follow_its_violations():
    # the 50,859 violations stream past the text report, which keeps five;
    # holding every one as a PairResult put the traced peak at 19 MB, where
    # the intact run's is 0.5 MB
    code = ("import contextlib, io, tracemalloc\n"
            "from toric_exc.cli import main\n"
            "tracemalloc.start()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = main(['verify', '--dim', '14', '--mutate', 'add:1,0-1'])\n"
            "print(code, tracemalloc.get_traced_memory()[1])\n"
            "print(out.getvalue())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split("\n")[0].split())
    assert code == 1 and "... and 50854 more violations" in proc.stdout
    assert peak < 8 << 20


def test_dim_12_failing_generation_is_fast():
    # the class check names the missing (c, |J|) shape, and only the walls of
    # its size are walked, reading the members whose shape can leave a window;
    # the walk over every wall and member took about a minute
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_exc", "verify", "--dim", "12", "--mutate", "drop:0",
         "--what", "generation"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
    assert proc.stdout == (
        "generation FAILED: component (-4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3) of the "
        "weight -4 piece at wall J = [0, 1, 2, 3, 4] is not in the collection\n")
    assert elapsed < 2.0


def test_internal_error_exits_3(capsys, monkeypatch):
    # the sum-zero count used to overflow here; an error inside any command
    # must still become exit 3 and one line
    def overflow(bounds):
        raise OverflowError("cannot fit 'int' into an index-sized integer")

    monkeypatch.setattr(importlib.import_module("toric_exc.cohomology"),
                        "_count_sum_zero", overflow)
    code, out, err = run(capsys, "cohomology", "--dim", "2",
                         "--coeffs=100000000000000000000000000000,0,0,0")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: OverflowError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failing_verify_grades_every_key_before_it_writes(capsys, monkeypatch, fmt):
    # the violations stream out as the report is written, but every key is
    # graded first: an error in the last count exits 3 with nothing written
    cohomology = importlib.import_module("toric_exc.cohomology")
    argv = ["verify", "--dim", "4", "--method", "oracle", "--mutate", "add:1,0-1",
            "--format", fmt]
    calls, count = [], cohomology._count_sum_zero

    def counted(bounds):
        calls.append(bounds)
        if len(calls) == last:
            raise OverflowError("the last count")
        return count(bounds)

    monkeypatch.setattr(cohomology, "_count_sum_zero", counted)
    last = None
    assert run(capsys, *argv)[0] == 1
    last, calls[:] = len(calls), []
    assert run(capsys, *argv) == (3, "", "error: internal: OverflowError: the last count\n")


def test_huge_coefficient_is_counted(capsys):
    code, out, _ = run(capsys, "cohomology", "--dim", "2",
                       "--coeffs=100000000000000000000000000000,0,0,0")
    h0 = (10**29 + 1) * (10**29 + 2) // 2
    assert code == 0 and out == f"h^0 = {h0}  h^1 = 0  h^2 = 0  (euler {h0})\n"


def test_keyboard_interrupt_not_caught(monkeypatch):
    from toric_exc import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_build", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["build", "--dim", "2"])


# -- verify: other whats ------------------------------------------------------


def test_verify_stability(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "stability")
    assert code == 0
    assert doc["ok"] is True
    assert doc["failures"] == []


def test_verify_stability_mutated(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "stability",
                            "--mutate", "drop:2")
    assert code == 1
    assert doc["failures"]


def test_verify_cardinality(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "4",
                            "--what", "cardinality")
    assert code == 0
    assert doc["size"] == 30
    assert doc["expected"] == 30


def test_verify_cardinality_mutated(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2",
                            "--what", "cardinality", "--mutate", "drop:1")
    assert code == 1
    assert doc["size"] == 5


def test_verify_generation(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "generation")
    assert code == 0
    assert doc["walls"] == 4
    assert doc["pieces"] == 6
    assert doc["base_case"] == "empty"


def test_verify_generation_mutated_escape(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "generation",
                            "--mutate", "drop:5")
    assert code == 1
    assert "error" in doc


def test_verify_generation_mutated_window(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "generation",
                            "--mutate", "add:3,0-1-2")
    assert code == 1
    assert "outside" in doc["error"]


def test_verify_walls(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "2", "--what", "walls")
    assert code == 0
    assert doc["circuits"] == 11
    assert doc["pairs"] == 3
    assert doc["sign_choices"] == 8


def test_verify_walls_dim_12(capsys):
    code, doc, _ = run_json(capsys, "verify", "--dim", "12", "--what", "walls")
    assert code == 0
    assert (doc["circuits"], doc["pairs"], doc["sign_choices"]) == (8205, 13, 8192)


def test_verify_walls_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("toric_exc.windows"), "circuit_relation",
                        lambda fan, circuit: (9, 9))
    code, out, err = run(capsys, "verify", "--dim", "4", "--what", "walls")
    assert (code, err) == (1, "")
    assert out.startswith("wall check FAILED: ") and out.count("\n") == 1
    code, doc, err = run_json(capsys, "verify", "--dim", "4", "--what", "walls")
    assert (code, err) == (1, "")
    assert doc["ok"] is False
    assert doc["error"] == out[len("wall check FAILED: "):-1]


def test_verify_walls_rejects_mutate(capsys):
    code, _, err = run(capsys, "verify", "--dim", "2", "--what", "walls",
                       "--mutate", "drop:0")
    assert code == 2
    assert "mutate" in err


# -- cohomology -----------------------------------------------------------------


def test_cohomology_json(capsys):
    code, doc, _ = run_json(capsys, "cohomology", "--dim", "2",
                            "--coeffs=-1,-1,1,1")
    assert code == 0
    assert doc["h"] == [0, 1, 0]
    assert doc["euler"] == -1


def test_cohomology_text(capsys):
    code, out, _ = run(capsys, "cohomology", "--dim", "2", "--coeffs=0,0,0,0")
    assert code == 0
    assert "h^0 = 1" in out
    assert "euler 1" in out


def test_cohomology_csv(capsys):
    code, out, _ = run(capsys, "cohomology", "--dim", "2", "--coeffs=0,0,0,0",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["degree,rank", "0,1", "1,0", "2,0"]


def test_cohomology_bad_length(capsys):
    code, _, err = run(capsys, "cohomology", "--dim", "2", "--coeffs=1,2")
    assert code == 2
    assert "4 integers" in err


def test_cohomology_bad_ints(capsys):
    code, _, err = run(capsys, "cohomology", "--dim", "2", "--coeffs=a,b,c,d")
    assert code == 2
    assert "integers" in err


# -- figure --------------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 4), (4, 9), (6, 16), (8, 25)])
def test_figure_matches_golden(capsys, n, count):
    code, out, _ = run(capsys, "figure", "--dim", str(n), "--format", "csv")
    assert code == 0
    golden = (GOLDEN / f"fig_n{n}.csv").read_text()
    assert out == golden
    assert len(out.strip().splitlines()) == count + 1


def test_figure_note_for_dim8(capsys):
    code, doc, err = run_json(capsys, "figure", "--dim", "8")
    assert code == 0
    assert len(doc["points"]) == 25
    assert "25 distinct" in err
    assert "25 distinct" in doc["note"]


def test_figure_no_note_small_dims(capsys):
    code, doc, err = run_json(capsys, "figure", "--dim", "2")
    assert code == 0
    assert err == ""
    assert "note" not in doc
    assert doc["points"] == [[0, 0], [1, 2], [1, 3], [2, 3]]


def test_figure_text(capsys):
    code, out, _ = run(capsys, "figure", "--dim", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


# -- gram ------------------------------------------------------------------------


def test_gram_csv(capsys):
    code, out, _ = run(capsys, "gram", "--dim", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,1,1,1,3"
    assert lines[-1] == "0,0,0,0,0,1"


def test_gram_json_unitriangular(capsys):
    code, doc, _ = run_json(capsys, "gram", "--dim", "2")
    assert code == 0
    matrix = doc["matrix"]
    for i, row in enumerate(matrix):
        assert row[i] == 1
        assert all(row[j] == 0 for j in range(i))


def test_gram_large_dim_needs_flag(capsys):
    code, _, err = run(capsys, "gram", "--dim", "6")
    assert code == 2
    assert "--allow-large" in err


# -- certificate -------------------------------------------------------------------


def test_certificate_json(capsys):
    code, doc, _ = run_json(capsys, "certificate", "--dim", "2")
    assert code == 0
    assert doc["schema"] == "toric-exc/certificate/2"
    assert [(r["size"], r["walls"]) for r in doc["sizes"]] == [(1, 3), (0, 1)]
    assert doc["base_case"] == "empty"


def test_certificate_text(capsys):
    code, out, _ = run(capsys, "certificate", "--dim", "2")
    assert code == 0
    assert out == (
        "generation certificate for dim 2: 4 walls, gauge d = 1, base case empty\n"
        "|J| = 1: 3 walls, window (-1, 0), wall range (-1, -1): a = -1 (high, 2 terms)\n"
        "|J| = 0: 1 walls, window (-2, 0), wall range (-2, 0): a = -2 (high, 1 terms), "
        "a = -1 (high, 1 terms), a = 0 (low, 1 terms)\n")


def test_certificate_failure_exits_1(capsys, monkeypatch):
    win = importlib.import_module("toric_exc.windows")

    def escape(n, collection=None):
        raise win.KoszulEscape("component outside the collection")

    monkeypatch.setattr(win, "verify_generation", escape)
    code, out, err = run(capsys, "certificate", "--dim", "4")
    assert (code, out) == (1, "")
    assert err == "certificate construction failed: component outside the collection\n"


# -- the JSON writer ------------------------------------------------------------------


def _mutations(n):
    """One seeded drop, add and swap of G_n."""
    rng = random.Random(n)
    size = expected_size(n)
    labels = "-".join(map(str, sorted(rng.sample(range(n + 1), rng.randint(0, n + 1)))))
    return [f"drop:{rng.randrange(size)}", f"add:{rng.randint(-n, n)},{labels}",
            "swap:%d,%d" % tuple(rng.sample(range(size), 2))]


def _json_commands(n):
    """Every command that writes JSON at dim n: intact and mutated checks, full
    reports at n <= 4, the oracle's default sample from n = 6 on."""
    dim = ["--dim", str(n)]
    yield ["build", *dim]
    yield ["build", *dim, "--fan"]
    yield ["figure", *dim]
    yield ["certificate", *dim]
    yield ["cohomology", *dim, "--coeffs=" + ",".join(str(i % 5 - 2) for i in range(n + 2))]
    if n <= 4:
        yield ["gram", *dim]
    yield ["verify", *dim, "--what", "walls"]
    for mutation in [[]] + [["--mutate", m] for m in _mutations(n)]:
        for what in ("stability", "cardinality", "generation"):
            yield ["verify", *dim, "--what", what, *mutation]
        for method in ("inequalities", "oracle") + (("forbidden",) if n <= 6 else ()):
            yield ["verify", *dim, "--method", method, *mutation]
            if n <= 4:
                yield ["verify", *dim, "--method", method, "--full-report", *mutation]
    yield ["verify", *dim, "--method", "oracle", "--sample", "40", "--seed", "5",
           "--full-report"]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_json_output_is_indent_2(capsys, n):
    # every JSON payload reads back and writes out as the same bytes, so the
    # writer is json.dumps(payload, indent=2) on the payload it stands for
    failing = 0
    for argv in _json_commands(n):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code in (0, 1), (argv, err)
        assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv
        failing += '"ok": false,\n      "detail"' in out
    assert failing > 0  # some payload lists violations


_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\r\t\x00\x1f\u2028\u2029')))
_rows = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), _text,
                           st.booleans(), _text), max_size=4)


def report_payload(violations, pair_results=None, method="inequalities", sampled=False):
    """A verify payload whose row lists are streams, and its dict form."""
    payload = {"schema": "toric-exc/report/1", "what": "exceptional", "n": 4,
               "ok": not violations, "method": method, "size": 30, "expected": 30,
               "complete": True, "pairs_checked": 12, "sampled": sampled,
               "violations": violations}
    if pair_results is not None:
        payload["pair_results"] = pair_results
    dict_form = {key: [dict(zip(PairResult._fields, row)) for row in value]
                 if key.endswith(("violations", "results")) else value
                 for key, value in payload.items()}
    streams = {key: iter(value) if key in ("violations", "pair_results") else value
               for key, value in payload.items()}
    return streams, dict_form


@settings(max_examples=200, deadline=None)
@given(violations=_rows, pair_results=st.one_of(st.none(), _rows), method=_text,
       sampled=st.booleans())
def test_report_writer_matches_json_dumps(violations, pair_results, method, sampled):
    payload, dict_form = report_payload(violations, pair_results, method, sampled)
    assert "".join(_json(payload)) == json.dumps(dict_form, indent=2) + "\n"


@pytest.mark.parametrize("count", [1023, 1024, 1025, 3000])
def test_report_writer_joins_its_chunks(count):
    # a stream is written _CHUNK rows at a time; the chunks join as one list
    rows = [(i, i + 1, "forward", False, f"h = {i}") for i in range(count)]
    payload, dict_form = report_payload(rows, rows[:3])
    chunks = list(_json(payload))
    assert "".join(chunks) == json.dumps(dict_form, indent=2) + "\n"
    assert len(chunks) >= count // 1024 + 4  # the rows were not joined in one string


def test_out_file_matches_stdout_on_a_failing_mutant(capsys, tmp_path):
    argv = ["verify", "--dim", "6", "--mutate", "add:1,0-1", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and '"violations": [\n' in out
    target = tmp_path / "report.json"
    code, written, _ = run(capsys, *argv, "--out", str(target))
    assert (code, written) == (1, f"wrote {target}\n")
    assert target.read_bytes() == out.encode()


# -- output files -------------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "fig.csv"
    code, out, _ = run(capsys, "figure", "--dim", "2", "--format", "csv",
                       "--out", str(target))
    assert code == 0
    assert f"wrote {target}" in out
    assert target.read_text() == (GOLDEN / "fig_n2.csv").read_text()


# -- module entry point --------------------------------------------------------------


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "toric_exc", "verify", "--dim", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "toric_exc", "verify", "--dim", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_add_label_out_of_range_exits_2_under_optimize():
    # -O strips asserts, so the label check must not be one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "toric_exc", "verify", "--dim", "2",
         "--mutate", "add:0,7"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; no option may leak between calls
    assert build_parser() is build_parser()
    argvs = [["verify", "--dim", "4", "--mutate", "drop:0", "--format", "json"],
             ["verify", "--dim", "4"],
             ["build", "--dim", "2", "--format", "csv"],
             ["verify", "--dim", "2", "--what", "stability"]]
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "toric_exc", *argv],
                               capture_output=True, text=True)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
