"""Command-line interface: argument handling, output, and exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from picardlab import catalog, cli, symbolic
from picardlab.catalog import builtin_catalog
from picardlab.cli import main
from picardlab.exact import primes_up_to
from picardlab.gf import TABLE_MAX
from picardlab.runner import good_primes


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


def test_count_does_no_symbolic_work_after_load(monkeypatch, capsys):
    # a plane, a y^m = f(x) and a space entry, all at a good prime
    argvs = [["count", "--entry", eid, "--prime", "13"]
             for eid in ("ciani-quartic-pencil", "fermat-sextic-cone-quotient",
                         "triple-quadric-intersection")]
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    assert all("npoints=" in out for out in expected)
    entries = builtin_catalog()

    def refuse(*args):
        raise RuntimeError("parsed after the catalog was loaded")

    monkeypatch.setattr(cli, "builtin_catalog", lambda ids=None: [
        e for e in entries if ids is None or e.id in ids])
    monkeypatch.setattr(symbolic, "parse_expression", refuse)
    monkeypatch.setattr(catalog, "parse_expression", refuse)
    monkeypatch.setattr(catalog, "parse_polynomial", refuse)
    for argv, out in zip(argvs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


# sha256 of every count the shipped catalog gives: the `count` output of
# each countable entry at every prime 5..499, then N over F_{p^k}, k = 2, 3,
# of each model that extends to F_q, at each good p with p^k <= TABLE_MAX.
# A change that alters a count must update the digest and name the counts
# it changed.
COUNT_DIGEST = "4eac66f37c9748dcf8af78c5a39cf387b3ade2070d024050abcdf83be44394b8"


def test_every_count_is_pinned(capsys):
    digest = hashlib.sha256()
    for entry in builtin_catalog():
        if entry.model.counter is None:
            continue
        digest.update(entry.id.encode())
        for p in primes_up_to(499)[2:]:
            assert main(["count", "--entry", entry.id, "--prime", str(p)]) == 0
        digest.update(capsys.readouterr().out.encode())
        for value, _, bad in entry.specializations():
            model = entry.counting_model(value)
            for p in good_primes(499, bad):
                one, ext = model.count_points(p), model.count_points_ext(p, 1)
                assert ((ext.power, ext.npoints, ext.trace)
                        == (1, one.npoints, one.trace)), (entry.id, value, p)
            for k in (2, 3) if model.extends else ():
                for p in good_primes(499, bad):
                    if p ** k <= TABLE_MAX:
                        n = model.count_points_ext(p, k).npoints
                        digest.update(b"t=%r p=%d k=%d N=%d\n"
                                      % (value, p, k, n))
    assert digest.hexdigest() == COUNT_DIGEST


def _spy_on_model_builds(monkeypatch):
    built = []
    build = catalog.CatalogEntry._build_model

    def spy(entry, value):
        built.append((entry.id, value))
        return build(entry, value)

    monkeypatch.setattr(catalog.CatalogEntry, "_build_model", spy)
    return built


def test_count_builds_only_the_counted_entry(monkeypatch, capsys):
    built = _spy_on_model_builds(monkeypatch)
    assert main(["count", "--entry", "bielliptic-sextic-pencil",
                 "--prime", "7"]) == 0
    assert capsys.readouterr().out.count("npoints=") == 3
    assert sorted(built) == [("bielliptic-sextic-pencil", t)
                             for t in (0, 1, 3)]


def test_verify_one_entry_prints_what_a_full_load_gives(monkeypatch, capsys):
    argv = ["verify", "--entry", "genus3-septic", "--pmax", "30"]
    entries = builtin_catalog()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "builtin_catalog", lambda ids=None: [
            e for e in entries if e.id in ids])
        assert main(argv) == 0
    full = capsys.readouterr().out
    built = _spy_on_model_builds(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    assert {eid for eid, _ in built} == {"genus3-septic"}


def _spy_on_entry_builds(monkeypatch):
    """The ids of the entries each load reads into records, in order."""
    built, init = [], catalog.CatalogEntry.__init__

    def spy(entry, node, tower):
        init(entry, node, tower)
        built.append(entry.id)

    monkeypatch.setattr(catalog.CatalogEntry, "__init__", spy)
    return built


def test_a_call_that_names_entries_reads_those_only(monkeypatch, capsys):
    built = _spy_on_entry_builds(monkeypatch)
    assert main(["count", "--entry", "genus2-quintic", "--prime", "7"]) == 0
    assert built == ["genus2-quintic"]
    assert "npoints=" in capsys.readouterr().out
    built.clear()
    assert main(["verify", "--entry", "genus3-septic", "--entry",
                 "genus2-quintic", "--pmax", "10"]) == 0
    assert sorted(built) == ["genus2-quintic", "genus3-septic"]
    doc = json.loads(capsys.readouterr().out)
    assert [e["entry"] for e in doc["entries"]] == ["genus2-quintic",
                                                    "genus3-septic"]
    built.clear()
    assert main(["report", "--all", "--pmax", "10"]) == 0
    assert len(built) == 12


def test_count_rejects_symbolic_entry():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "sextic-product-trick", "--prime", "5"])
    assert exc.value.code == 2


def test_count_rejects_unknown_entry(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "nope", "--prime", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unknown entry id: nope\n")


def test_count_rejects_huge_prime():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--entry", "fermat-sextic", "--prime", "503"])
    assert exc.value.code == 2


def test_count_checks_the_prime_before_it_loads(monkeypatch):
    def refuse(ids=None):
        raise RuntimeError("loaded the catalog for a bad prime")

    monkeypatch.setattr(cli, "builtin_catalog", refuse)
    for prime in ("4", "2", "503"):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--entry", "fermat-sextic", "--prime", prime])
        assert exc.value.code == 2


def test_a_call_declares_the_arguments_of_its_subcommand_only(
        monkeypatch, capsys):
    declared = []
    for name, (summary, declare, run) in list(cli.COMMANDS.items()):
        def spy(parser, name=name, real=declare):
            declared.append(name)
            real(parser)

        monkeypatch.setitem(cli.COMMANDS, name, (summary, spy, run))
    built = []
    init = argparse.ArgumentParser.__init__

    def count_builds(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", count_builds)
    assert main(["count", "--entry", "genus2-quintic", "--prime", "7"]) == 0
    # the count parser, and no other
    assert built == ["picardlab count"]
    assert main(["hodge", "--d", "3", "--n", "2"]) == 0
    # nothing is kept from the first call
    assert built == ["picardlab count", "picardlab hodge"]
    assert declared == ["count", "hodge"]
    assert "npoints=" in capsys.readouterr().out


USAGE = "usage: picardlab [-h] {verify,count,hodge,report} ..."
COUNT_USAGE = "usage: picardlab count [-h] --entry ID --prime PRIME"


@pytest.mark.parametrize("argv, code, first, last", [
    ([], 2, USAGE,
     "picardlab: error: the following arguments are required: command"),
    (["--help"], 0, None, None),
    (["bogus"], 2, USAGE,
     "picardlab: error: argument command: invalid choice: 'bogus' (choose "
     "from 'verify', 'count', 'hodge', 'report')"),
    (["verify", "--help"], 0, None, None),
    (["count", "--help"], 0, None, None),
    (["hodge", "--help"], 0, None, None),
    (["report", "--help"], 0, None, None),
    (["count", "--entry", "fermat-sextic"], 2, COUNT_USAGE,
     "picardlab count: error: the following arguments are required: "
     "--prime"),
    (["hodge", "--d", "3"], 2,
     "usage: picardlab hodge [-h] --d D --n N [--nmax NMAX]",
     "picardlab hodge: error: the following arguments are required: --n"),
    (["count", "--entry", "fermat-sextic", "--prime", "x"], 2, COUNT_USAGE,
     "picardlab count: error: argument --prime: invalid int value: 'x'"),
])
def test_argument_errors_and_help_exit_as_before(argv, code, first, last,
                                                 monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if first is None:
        # help goes to stdout, headed by the usage of what was asked
        assert err == ""
        assert out.startswith(" ".join(["usage: picardlab"] + argv[:-1]
                                       + ["[-h]"]))
    else:
        assert out == ""
        lines = err.splitlines()
        assert (lines[0], lines[-1]) == (first, last)


VERIFY_USAGE = ("usage: picardlab verify [-h] [--entry ID] [--pmax PMAX] "
                "[--depth DEPTH]")
REPORT_USAGE = ("usage: picardlab report [-h] --all [--pmax PMAX] "
                "[--depth DEPTH]")
HODGE_USAGE = "usage: picardlab hodge [-h] --d D --n N [--nmax NMAX]"


# a subcommand's own checks, like argparse's, print that subcommand's usage
@pytest.mark.parametrize("argv, first, last", [
    (["report", "--all", "--depth", "4"], REPORT_USAGE,
     "picardlab report: error: --depth must lie in [1, 3]"),
    (["verify", "--depth", "0"], VERIFY_USAGE,
     "picardlab verify: error: --depth must lie in [1, 3]"),
    (["verify", "--pmax", "600"], VERIFY_USAGE,
     "picardlab verify: error: --pmax must lie in [1, 499]"),
    (["verify", "--entry", "nope"], VERIFY_USAGE,
     "picardlab verify: error: unknown entry ids: nope"),
    (["hodge", "--d", "3", "--n", "4", "--nmax", "2"], HODGE_USAGE,
     "picardlab hodge: error: --nmax must be an even integer at least --n"),
    (["hodge", "--d", "3", "--n", "2", "--nmax", "5"], HODGE_USAGE,
     "picardlab hodge: error: --nmax must be an even integer at least --n"),
    (["count", "--entry", "fermat-sextic", "--prime", "503"], COUNT_USAGE,
     "picardlab count: error: --prime must be an odd prime at most 499"),
    (["count", "--entry", "nope", "--prime", "7"], COUNT_USAGE,
     "picardlab count: error: unknown entry id: nope"),
    (["count", "--entry", "genus2-quintic", "--prime", "7", "extra"],
     COUNT_USAGE, "picardlab count: error: unrecognized arguments: extra"),
    (["hodge", "--d", "3", "--n", "2", "--bogus"], HODGE_USAGE,
     "picardlab hodge: error: unrecognized arguments: --bogus"),
])
def test_usage_errors_of_the_run_and_hodge_arguments(argv, first, last,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert (lines[0], lines[-1]) == (first, last)


TOP_HELP = """\
usage: picardlab [-h] {verify,count,hodge,report} ...

exact verification of curve maps, Jacobian splittings, and point-count
constraints

positional arguments:
  {verify,count,hodge,report}
    verify              run checks for catalog entries
    count               point counts for one entry
    hodge               middle Hodge numbers and ranks
    report              full catalog report

options:
  -h, --help            show this help message and exit
"""
CHOICES = "(choose from 'verify', 'count', 'hodge', 'report')"


# a call whose first argument names no subcommand prints what the
# top-level parser printed before any call built one parser only
@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", USAGE + "\npicardlab: error: the following arguments are "
     "required: command\n"),
    (["--help"], 0, TOP_HELP, ""),
    (["bogus"], 2, "", USAGE + "\npicardlab: error: argument command: "
     "invalid choice: 'bogus' " + CHOICES + "\n"),
    (["--", "count", "--entry", "genus2-quintic", "--prime", "7"], 2, "",
     USAGE + "\npicardlab: error: argument command: invalid choice: '--' "
     + CHOICES + "\n"),
])
def test_a_call_without_a_subcommand_prints_the_top_level_parser(
        argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--entry", "--pmax", "--depth", "--format", "--out"]),
    ("count", ["--entry", "--prime"]),
    ("hodge", ["--d", "--n", "--nmax"]),
    ("report", ["--all", "--pmax", "--depth", "--format", "--out"]),
])
def test_subcommand_help_lists_its_arguments(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: picardlab %s [-h]" % command)
    for flag in flags:
        assert flag in out


def test_a_count_call_imports_no_importlib_resources():
    # a fresh interpreter without site, which imports importlib.resources
    # itself: the catalog file is read with open
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from picardlab.cli import main; "
            "status = main(['count', '--entry', 'genus2-quintic', "
            "'--prime', '7']); "
            "print(status, 'importlib.resources' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.stdout == "p=7 npoints=8 trace=0\n0 False\n", proc.stderr


def test_report_is_the_same_under_optimize(src_env):
    # no report content may hang on an assert, which -O strips; depth 3
    # gives every depth-1 row plus the extension rows
    argv = ["-m", "picardlab.cli", "report", "--all", "--pmax", "30",
            "--depth", "3"]
    plain, optimized = [
        subprocess.run([sys.executable] + flags + argv, capture_output=True,
                       env=src_env)
        for flags in ([], ["-O"])
    ]
    assert b"extension:k=3" in plain.stdout, plain.stderr
    assert optimized.stdout == plain.stdout
    assert optimized.returncode == plain.returncode


def test_count_rejects_composite_prime(src_env):
    argv = ["count", "--entry", "genus2-quintic", "--prime", "9"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # the check must survive -O, which strips the asserts in the counters
    proc = subprocess.run([sys.executable, "-O", "-m", "picardlab.cli"] + argv,
                          capture_output=True, text=True, env=src_env)
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


def test_verify_rejects_unknown_entry(capsys):
    for argv in (["verify", "--entry", "nope"],
                 ["verify", "--entry", "genus2-quintic", "--entry", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unknown entry ids: nope\n")


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


def test_module_invocation_exit_code(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "picardlab.cli", "hodge", "--d", "3",
         "--n", "2"],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0
    assert "status=PASS-via-adjusted" in proc.stdout
