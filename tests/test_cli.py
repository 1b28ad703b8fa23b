"""Command line behavior: output shapes and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cordial
from cordial import (
    DeficiencyValue,
    InfinityReason,
    Verdict,
    mobius_ladder,
    parse_certificate,
    serialize_certificate,
    wheel_ced_witness,
)
from cordial.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_family_both_methods(capsys):
    code, out, _ = run(capsys, "compute", "--family", "complete", "--n", "5")
    assert code == 0
    assert "cordial formula = no" in out
    assert "ced formula = 1" in out
    assert "cvd formula = infinity (StrictlyNoncordial)" in out
    assert out.count("MATCH") == 3 and "MISMATCH" not in out


def test_compute_reports_cordial_witness(capsys):
    code, out, _ = run(capsys, "compute", "--family", "cycle", "--n", "4",
                       "--measure", "cordial")
    assert code == 0
    assert "cordial oracle = yes (witness " in out


def test_compute_notes_the_square_rule_divergence(capsys):
    code, out, _ = run(capsys, "compute", "--family", "complete", "--n", "2",
                       "--measure", "cvd")
    assert code == 0  # operational form matches the search
    assert "cvd MATCH" in out
    assert "square-rule form gives 1" in out


def test_compute_json_output(capsys):
    code, out, _ = run(capsys, "compute", "--family", "mobius", "--n", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12 and payload["m"] == 18
    assert payload["results"]["cordial"]["formula"] is False
    assert payload["results"]["ced"] == {"formula": 1, "oracle": 1, "match": True}
    assert payload["results"]["cvd"]["match"] is True


def test_compute_mismatch_exits_one(capsys, monkeypatch):
    from cordial.families import REGISTRY

    complete = REGISTRY["complete"]
    infinite = DeficiencyValue.infinite(InfinityReason.STRICTLY_NONCORDIAL)
    # K3 is cordial, so every search value is 0 and each wrong form disagrees
    cases = [
        ("cordial", False, "cordial MISMATCH (formula no, oracle yes)", False),
        ("ced", DeficiencyValue.finite(1), "ced MISMATCH (formula 1, oracle 0)", 1),
        ("cvd", infinite,
         "cvd MISMATCH (formula infinity (StrictlyNoncordial), oracle 0)", "infinity"),
    ]
    for measure, wrong, line, as_json in cases:
        monkeypatch.setitem(REGISTRY, "complete",
                            complete._replace(**{measure: lambda n, v=wrong: v}))
        argv = ["compute", "--family", "complete", "--n", "3", "--measure", measure]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert line in out.splitlines()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        result = json.loads(out)["results"][measure]
        assert result["formula"] == as_json and result["match"] is False


def test_self_check_failure_exits_one(capsys, monkeypatch):
    import cordial.certify

    monkeypatch.setattr(cordial.certify, "check_certificate",
                        lambda cert, graph=None: Verdict(False, "forced"))
    code, _, err = run(capsys, "compute", "--family", "complete", "--n", "4",
                       "--measure", "ced", "--method", "oracle")
    assert code == 1 and "internal self-check failed" in err


def test_workers_below_one_exits_two(capsys):
    argvs = [
        ["compute", "--family", "complete", "--n", "4", "--workers", "0"],
        # rejected even where no scan would run
        ["compute", "--family", "mobius", "--n", "6", "--method", "formula",
         "--workers", "0"],
        ["table", "--families", "path", "--max-n", "3", "--max-vertices", "0",
         "--workers", "0"],
        ["table", "--families", "path", "--max-n", "3", "--max-vertices", "2",
         "--workers", "-5"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"workers must be at least 1, got {argv[-1]}" in err


def test_worker_count_changes_no_output(capsys, tmp_path):
    # --workers is a contract that no printed value depends on: K20 cvd scans
    # every high subset, M8 cvd stops at its first, the seeded 1,000-edge
    # multigraph on 16 vertices runs on 2-byte lanes, and the table searches
    # K1 to K10 and exits 1 on its n = 2 square-rule row
    rng = random.Random(16)
    m16 = tmp_path / "m16.txt"
    edges = [rng.sample(range(16), 2) for _ in range(1000)]
    m16.write_text("16 1000\n" + "".join(f"{u} {v}\n" for u, v in edges))
    oracle = ["compute", "--method", "oracle"]
    argvs = [
        [*oracle, "--family", "complete", "--n", "20", "--measure", "cvd"],
        [*oracle, "--family", "mobius", "--n", "8", "--measure", "cvd"],
        [*oracle, "--graph", str(m16)],
        ["table", "--families", "complete", "--max-n", "10", "--format", "csv"],
    ]
    for argv in argvs:
        runs = {run(capsys, *argv, "--workers", str(w))[:2] for w in (1, 2, 5)}
        assert len(runs) == 1, argv
        (code, out), = runs
        assert code == (1 if argv[0] == "table" else 0) and out, argv


def test_negative_vertex_cap_exits_two(capsys):
    argvs = [
        ["compute", "--family", "path", "--n", "3", "--max-vertices", "-1"],
        ["table", "--families", "path", "--max-n", "3", "--max-vertices", "-4"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"max-vertices must be non-negative, got {argv[-1]}" in err
    # a zero cap is allowed: it searches nothing and says so
    code, _, err = run(capsys, "compute", "--family", "path", "--n", "3",
                       "--max-vertices", "0")
    assert code == 2 and "capped at 0" in err


def test_compute_explicit_graph_oracle_only(capsys, tmp_path):
    path = tmp_path / "m6.txt"
    g = mobius_ladder(6)
    path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    code, out, _ = run(capsys, "compute", "--graph", str(path),
                       "--method", "oracle")
    assert code == 0
    assert "cordial oracle = no" in out
    assert "ced oracle = 1" in out and "cvd oracle = 1" in out

    code, _, err = run(capsys, "compute", "--graph", str(path))
    assert code == 2 and "--method oracle" in err


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "--family", "complete")
    assert code == 2 and "need --family with --n" in err
    code, _, _ = run(capsys, "compute", "--family", "nonesuch", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "compute", "--family", "cycle", "--n", "5",
                       "--measure", "ced", "--method", "formula")
    assert code == 2 and "no closed form" in err


def test_compute_graph_excludes_a_family(capsys, tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    for extra in (["--family", "complete"], ["--n", "2"]):
        code, out, err = run(capsys, "compute", "--graph", str(path), *extra,
                             "--method", "oracle")
        assert (code, out) == (2, "")
        assert err == "error: --graph excludes --family/--n\n"


def test_compute_respects_size_cap(capsys):
    code, _, err = run(capsys, "compute", "--family", "complete", "--n", "6",
                       "--max-vertices", "5")
    assert code == 2 and "capped at 5" in err


def test_compute_reads_family_sizes_without_building(capsys, monkeypatch):
    from cordial import FamilySpec

    def refuse(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(FamilySpec, "build", refuse)
    code, out, _ = run(capsys, "compute", "--family", "complete", "--n", "2000",
                       "--method", "formula")
    assert code == 0
    assert out.startswith("complete n=2000: 2000 vertices, 1999000 edges\n")
    code, out, err = run(capsys, "compute", "--family", "complete", "--n", "2000")
    assert code == 2 and out == ""
    assert err == (
        "error: graph has 2000 vertices; exhaustive search is capped at 24"
        " (raise max_vertices to override)\n"
    )


def test_construct_writes_verifiable_certificates(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--family", "wheel", "--n", "11",
                       "--target", "cvd")
    assert code == 0
    cert = parse_certificate(out)
    assert cert.kind == "cvd" and cert.param == 11 and cert.claimed_value == 1

    path = tmp_path / "w11.json"
    code, out, _ = run(capsys, "construct", "--family", "wheel", "--n", "11",
                       "--target", "cvd", "--out", str(path))
    assert code == 0 and "claimed_value=1" in out

    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("Accepted")


def test_construct_refuses_impossible_targets(capsys):
    code, _, err = run(capsys, "construct", "--family", "mobius", "--n", "6",
                       "--target", "cordial")
    assert code == 2 and "2 modulo 4" in err
    code, _, err = run(capsys, "construct", "--family", "complete", "--n", "5",
                       "--target", "cvd")
    assert code == 2 and "no edge-balanced labeling" in err
    code, _, _ = run(capsys, "construct", "--family", "cycle", "--n", "5",
                     "--target", "ced")
    assert code == 2


def test_verify_rejected_and_malformed_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "cordial", "family": "cycle", "param": 4,
        "labels": "0101", "claimed_value": 0,
    }))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1 and out.startswith("Rejected")

    broken = tmp_path / "broken.json"
    broken.write_text("{\"kind\": \"cordial\"}")
    code, _, err = run(capsys, "verify", str(broken))
    assert code == 2 and "Malformed" in err

    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


# int()'s digit limit, 0 on a Python without one: there an over-long number
# is read, and only the exit code is checked
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("argv,content,message", [
    (["verify"], b"\xff\xfe{}", "error: 'utf-8' codec can't decode byte 0xff"),
    (["compute", "--method", "oracle", "--graph"], b"\xff\xfe2 1\n0 1\n",
     "error: 'utf-8' codec can't decode byte 0xff"),
    (["verify"], b"[" * 100_000, "Malformed: not valid JSON: "),
    (["verify"], b'{"kind": "cordial", "family": "cycle", "param": ' + b"9" * 5000
     + b', "labels": "0", "claimed_value": 0}', "Malformed: not valid JSON: "),
    (["compute", "--method", "oracle", "--graph"], b"9" * 5000 + b" 0\n",
     _DIGITS and f"error: line 1: header counts must have at most {_DIGITS} digits"),
    (["compute", "--method", "oracle", "--graph"], b"2 1\n0 " + b"1" * 5000 + b"\n",
     _DIGITS and f"error: line 2: vertex ids must have at most {_DIGITS} digits"),
], ids=["verify-utf16", "compute-utf16", "verify-deep", "verify-long-int",
        "compute-long-header", "compute-long-id"])
def test_malformed_input_files_exit_two(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(message or "")


def test_table_csv_shape_and_exit(capsys):
    code, out, _ = run(capsys, "table", "--families", "complete", "--max-n", "4",
                       "--format", "csv")
    assert code == 1  # the size-2 divergence is a real mismatch
    lines = out.strip().splitlines()
    assert lines[0] == "family,size,cordial,ced,cvd,source,match"
    assert lines[2] == "complete,2,yes,0,0,both,no"
    assert len(lines) == 5


def test_table_all_match_exits_zero(capsys):
    code, out, _ = run(capsys, "table", "--families", "cycle", "--max-n", "8")
    assert code == 0
    assert "cycle" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--families", "mobius,wheel",
                       "--max-n", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    mob6 = next(r for r in payload["rows"]
                if r["family"] == "mobius" and r["size"] == 6)
    assert mob6["ced"] == 1 and mob6["cvd"] == 1 and mob6["cordial"] is False
    assert {w["kind"] for w in mob6["witnesses"]} == {"ced", "cvd"}


def test_table_usage_errors(capsys):
    code, _, err = run(capsys, "table", "--families", "tree", "--max-n", "5")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "table", "--families", "cycle", "--max-n", "2")
    assert code == 2 and "empty size range" in err


@pytest.mark.parametrize("families", ["", ",", " , "])
def test_table_without_a_family_names_the_fault(capsys, families):
    code, out, err = run(capsys, "table", "--families", families, "--max-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: --families names no family\n"


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_importing_the_cli_does_not_load_multiprocessing():
    # the package starts no process, so a fresh interpreter importing the cli
    # must not load multiprocessing; the answer travels in the exit code, so
    # it holds under python -O too
    src = str(Path(cordial.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cordial.cli; sys.exit(int('multiprocessing' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_importing_the_cli_does_not_load_dataclasses_or_inspect():
    # the records are named tuples and slotted classes; dataclasses and the
    # inspect, ast and dis modules it imports would add about a fifth to the
    # start-up of every cli process. The exit code counts the loaded ones
    src = str(Path(cordial.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cordial.cli;"
            " sys.exit(sum(m in sys.modules for m in ('dataclasses', 'inspect')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv, absent", [
    ([], [f"cordial.{name}" for name in ("certify", "cli", "errors", "families",
                                          "graph_core", "labeling", "oracle")]),
    (["--help"], ["cordial.oracle", "cordial.families"]),
    (["verify", "{cert}"], ["cordial.oracle", "cordial.families"]),
    (["construct", "--family", "wheel", "--n", "7", "--target", "ced"], ["cordial.oracle"]),
    (["compute", "--family", "complete", "--n", "9", "--method", "formula"], ["cordial.oracle"]),
    (["compute", "--graph", "{graph}", "--method", "oracle"],
     ["cordial.families", "json", "csv"]),
    (["table", "--families", "cycle", "--max-n", "6", "--format", "csv"], ["json"]),
], ids=["import", "help", "verify", "construct", "formula", "graph", "table-csv"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    # a CLI process compiles every module it imports when no bytecode cache
    # exists, so each command must leave out what it does not run. A fresh
    # interpreter without site-packages (-S) runs main(argv), or only imports
    # the package when argv is empty, and prints which of absent it loaded
    cert = tmp_path / "w7.json"
    cert.write_text(serialize_certificate(wheel_ced_witness(7)))
    graph = tmp_path / "c5.txt"
    graph.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    argv = [arg.format(cert=cert, graph=graph) for arg in argv]
    src = str(Path(cordial.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cordial\n"
            "status = 0\n"
            "if sys.argv[2:]:\n"
            "    from cordial.cli import main\n"
            "    status = main(sys.argv[2:])\n"
            "print(sorted(set(sys.argv[1].split()) & set(sys.modules)))\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, " ".join(absent), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
