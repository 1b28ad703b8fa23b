"""The two scripts under scripts/, run in-process on small bounds."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_constructions_counts_every_family(capsys):
    assert load("verify_constructions").main(["--bound", "60"]) == 0
    out = capsys.readouterr().out
    counts = dict(line.split()[:2] for line in out.splitlines()[:5])
    assert counts == {"complete": "82", "cycle": "44", "mobius": "72",
                      "wheel": "71", "total": "269"}
    assert out.endswith("all certificates accepted\n")


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_verify_constructions_rejects_a_bound_below_one(bound, capsys):
    # such a bound would check no certificate yet report success
    with pytest.raises(SystemExit) as exc:
        load("verify_constructions").main(["--bound", bound])
    assert exc.value.code == 2
    assert f"bound must be at least 1, got {bound}" in capsys.readouterr().err


def test_verify_constructions_checks_something_at_bound_one(capsys):
    assert load("verify_constructions").main(["--bound", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("complete     2 certificates checked\ntotal        2\n")
    assert out.endswith("all certificates accepted\n")


def test_reproduce_tables_is_consistent(capsys):
    code = load("reproduce_tables").main(["--max-complete", "8", "--max-small", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "known divergence: complete size 2" in out
    assert out.endswith("all rows consistent\n")


def test_reproduce_tables_prints_empty_tables(capsys):
    # no complete member at size 0 and no cycle, mobius or wheel at size 2
    code = load("reproduce_tables").main(["--max-complete", "0", "--max-small", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Table A: complete graphs\nn  cordial  ced_search" in out
    assert "Table B: cycles, mobius ladders, wheels\nfamily  size  cordial" in out
    assert out.endswith("all rows consistent\n")


def test_reproduce_tables_rejects_workers_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        load("reproduce_tables").main(["--workers", "0"])
    assert exc.value.code == 2
    assert "workers must be at least 1, got 0" in capsys.readouterr().err
