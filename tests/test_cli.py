import json
import pathlib
import subprocess
import sys

import pytest

from toric_exc.cli import main, sample_pairs

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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--dim", "2"])
    assert info.value.code == 2


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


def test_production_path_loads_no_reference_layer():
    # the generic-fan and LP code is a reference layer that no command loads
    code = (
        "import contextlib, io, sys\n"
        "from toric_exc.cli import main\n"
        "runs = [['verify', '--dim', '4', '--method', m]\n"
        "        for m in ('inequalities', 'forbidden', 'oracle')]\n"
        "runs += [['verify', '--dim', '4', '--what', 'generation'],\n"
        "         ['verify', '--dim', '4', '--what', 'walls'],\n"
        "         ['cohomology', '--dim', '4', '--coeffs=-1,-1,1,1,0,2'],\n"
        "         ['build', '--dim', '4', '--fan']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m in ('toric_exc.reference', 'toric_exc.polyhedra')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] []"


# -- bounds and internal errors -------------------------------------------------


def test_dim_above_bound_rejected(capsys):
    code, out, err = run(capsys, "verify", "--dim", "22")
    assert code == 2 and out == ""
    assert err == "error: n must be at most 20\n"


def test_internal_error_exits_3(capsys):
    # the sum-zero count cannot size a table this large
    code, out, err = run(capsys, "cohomology", "--dim", "2",
                         "--coeffs=100000000000000000000000000000,0,0,0")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: OverflowError: ")
    assert err.count("\n") == 1


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
    assert doc["schema"] == "toric-exc/certificate/1"
    assert len(doc["walls"]) == 4
    assert doc["base_case"] == "empty"


def test_certificate_text(capsys):
    code, out, _ = run(capsys, "certificate", "--dim", "2")
    assert code == 0
    assert "4 walls" in out
    assert "J = []" in out


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
