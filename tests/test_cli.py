"""Command-line interface: argument handling, output, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from picardlab.cli import main


def test_hodge_single_row(capsys):
    assert main(["hodge", "--d", "3", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("d=3 n=2 primitive=6 total=7 printed=3 adjusted=7 "
                   "status=PASS-via-adjusted\n")


def test_hodge_grid(capsys):
    assert main(["hodge", "--d", "4", "--n", "2", "--nmax", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("d=4 n=6 primitive=1107 total=1108")


def test_hodge_rejects_bad_degree():
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--d", "5", "--n", "2"])
    assert exc.value.code == 2


def test_hodge_rejects_odd_n():
    with pytest.raises(SystemExit) as exc:
        main(["hodge", "--d", "3", "--n", "3"])
    assert exc.value.code == 2


def test_count_specializations(capsys):
    assert main(["count", "--entry", "bielliptic-sextic-pencil",
                 "--prime", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t=0: p=5 npoints=6 trace=0"
    assert lines[1] == "t=1: p=5 npoints=6 trace=0"
    assert lines[2] == "t=3: p=5 is a bad prime; skipped"


def test_count_plain_entry(capsys):
    assert main(["count", "--entry", "fermat-sextic", "--prime", "7"]) == 0
    assert capsys.readouterr().out == "p=7 npoints=0 trace=8\n"


def test_count_rejects_symbolic_entry():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "sextic-product-trick", "--prime", "5"])
    assert exc.value.code == 2


def test_count_rejects_unknown_entry():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "nope", "--prime", "5"])
    assert exc.value.code == 2


def test_count_rejects_huge_prime():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "fermat-sextic", "--prime", "503"])
    assert exc.value.code == 2


def test_count_rejects_composite_prime():
    argv = ["count", "--entry", "genus2-quintic", "--prime", "9"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # the check must survive -O, which strips the asserts in the counters
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "picardlab.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "npoints" not in proc.stdout


def test_verify_single_entry_json(capsys):
    assert main(["verify", "--entry", "genus2-quintic", "--pmax", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["entry"] for e in doc["entries"]] == ["genus2-quintic"]
    assert "hodge" not in doc
    assert doc["entries"][0]["summary"]["fail"] == 0


def test_verify_expected_failure_keeps_exit_zero(capsys):
    assert main(["verify", "--entry", "genus3-septic", "--pmax", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["summary"]["fail"] == 1


def test_verify_rejects_unknown_entry():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--entry", "nope"])
    assert exc.value.code == 2


def test_verify_rejects_pmax_above_cap():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--entry", "genus2-quintic", "--pmax", "600"])
    assert exc.value.code == 2


def test_report_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--all", "--pmax", "10",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 12
    assert len(doc["hodge"]) == 6


def test_report_requires_all_flag():
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2


def test_markdown_format(capsys):
    assert main(["verify", "--entry", "genus2-quintic", "--pmax", "10",
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# picardlab report")
    assert "claims: " in out


def test_module_invocation_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "picardlab.cli", "hodge", "--d", "3",
         "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status=PASS-via-adjusted" in proc.stdout
