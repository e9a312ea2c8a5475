"""Pinned CLI reports: the built-in catalog at low degree, then every
subcommand in text and JSON form, every help text and the error exits, each
compared byte for byte with the recorded stdout, stderr and exit code.

Regenerate the recording (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_report_corpus.py

which prints the argv of every entry it adds, removes or changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

from dioperad import catalog
from dioperad.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "report_corpus.json"
FIELDS = ("q", "p:1000003")
DEGREES = (2, 3, 4)
SUBCOMMANDS = ("basis", "dim", "implies", "dialgebrize", "verify-di",
               "special", "special-di", "verify-bso", "catalog")
ASSOCIATOR = "(- (mul (mul 1 2) 3) (mul 1 (mul 2 3)))"


def queries():
    """Every pinned argument list, in recording order."""
    out = []
    for name in catalog.presentation_names():
        out.append(["basis", "--variety", f"builtin:{name}", "--degree", "3"])
    for cmd in ("dim", "verify-di"):
        for name in catalog.presentation_names():
            for field in FIELDS:
                for d in DEGREES:
                    out.append([cmd, "--variety", f"builtin:{name}",
                                "--degree", str(d), "--field", field])
    for cmd, extra in (("special", ["--basis"]), ("special-di", ["--basis"]),
                       ("verify-bso", [])):
        for name in catalog.morphism_names():
            for field in FIELDS:
                for d in DEGREES:
                    out.append([cmd, "--morphism", f"builtin:{name}",
                                "--degree", str(d), "--field", field, *extra])
    catalog_reports = [argv + ["--json", "--no-cache"] for argv in out]
    return (catalog_reports + surface_queries() + small_prime_queries()
            + partition_queries() + special_di_queries()
            + associative_queries())


def surface_queries():
    """The rest of the command line: the subcommands and output forms the
    catalog sweep leaves out, the error exits, and every help text."""
    reports = [
        ["catalog"],
        ["implies", "--variety", "builtin:assoc", "--identity", ASSOCIATOR],
        ["implies", "--variety", "builtin:lie",
         "--identity", "(bracket (bracket 1 2) 3)"],
        ["dialgebrize", "--variety", "builtin:lie"],
        ["dialgebrize", "--variety", "builtin:lie", "--verify-degree", "3"],
        ["basis", "--variety", "di:builtin:assoc", "--degree", "2"],
        ["dim", "--variety", "di:builtin:lie", "--degree", "3"],
    ]
    text = [
        ["basis", "--variety", "builtin:lie", "--degree", "3"],
        ["dim", "--variety", "builtin:jordan", "--degree", "4"],
        ["implies", "--variety", "builtin:lie",
         "--identity", "(bracket (bracket 1 2) 3)"],
        ["dialgebrize", "--variety", "builtin:jordan", "--verify-degree", "3"],
        ["verify-di", "--variety", "builtin:assoc", "--degree", "3"],
        ["special", "--morphism", "builtin:free-to-com-assoc", "--degree", "3",
         "--basis"],
        ["special-di", "--morphism", "builtin:free-to-com-assoc",
         "--degree", "2", "--basis"],
        ["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "3"],
        ["catalog"],
    ]
    errors = [
        ["dim", "--variety", "builtin:nope", "--degree", "3"],
        ["special", "--morphism", "builtin:nope", "--degree", "3"],
        ["dim", "--variety", "no/such/file.sexp", "--degree", "3"],
        ["special", "--morphism", "no/such/file.sexp", "--degree", "3"],
        ["dim", "--variety", "builtin:assoc", "--degree", "3", "--field", "p:4"],
        ["dim", "--variety", "builtin:assoc", "--degree", "5",
         "--max-degree", "4"],
        ["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "1"],
        ["dim", "--variety", "builtin:assoc"],
    ]
    helps = [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]
    return ([argv + ["--json", "--no-cache"] for argv in reports + errors]
            + [argv + ["--no-cache"] for argv in text] + helps)


def small_prime_queries():
    """Queries over p:3 and p:5 at degrees n >= p, where k[S_n] is not
    semisimple: special, implies and verify-di on the expanded-row path,
    and verify-bso refused by its characteristic guard (one semisimple
    verify-bso over p:5 beside them)."""
    reports = []
    for name, field, d in (
        ("lie-to-assoc", "p:3", 3), ("jts-to-jordan", "p:3", 3),
        ("jordan-to-assoc", "p:3", 4), ("free-to-com-assoc", "p:3", 4),
        ("lie-to-assoc", "p:5", 5), ("jts-to-jordan", "p:5", 5),
        ("jts-to-assoc", "p:5", 5),
    ):
        reports.append(["special", "--morphism", f"builtin:{name}",
                        "--degree", str(d), "--field", field])
    for name, field, identity in (
        ("lie", "p:3", "(bracket (bracket 1 2) 3)"),
        ("lie", "p:3", "(+ (bracket 1 (bracket 2 3)) (bracket (bracket 2 3) 1))"),
        ("jordan", "p:3",
         "(linearize (- (mul (mul (mul 1 1) 2) 1) (mul (mul 1 1) (mul 2 1))))"),
        ("lie", "p:5",
         "(bracket (bracket (bracket (bracket 1 2) 3) 4) 5)"),
        ("lie", "p:5",
         "(+ (bracket (bracket 1 2) (bracket 3 (bracket 4 5)))"
         " (bracket (bracket 3 (bracket 4 5)) (bracket 1 2)))"),
    ):
        reports.append(["implies", "--variety", f"builtin:{name}",
                        "--identity", identity, "--field", field])
    for name, field, d in (("lie", "p:3", 3), ("jordan", "p:3", 4),
                           ("jts", "p:5", 5)):
        reports.append(["verify-di", "--variety", f"builtin:{name}",
                        "--degree", str(d), "--field", field])
    for name, field, d in (("lie-to-assoc", "p:3", 3),
                           ("jts-to-jordan", "p:5", 5),
                           ("lie-to-assoc", "p:5", 4)):
        reports.append(["verify-bso", "--morphism", f"builtin:{name}",
                        "--degree", str(d), "--field", field])
    return [argv + ["--json", "--no-cache"] for argv in reports]


def partition_queries():
    """``dim`` at degrees 5 and 6 over both fields for the presentations
    whose binary operation is commutative or anticommutative modulo its
    degree-2 identity, where the partition path counts over association
    types."""
    return [["dim", "--variety", f"builtin:{name}", "--degree", str(d),
             "--field", field, "--json", "--no-cache"]
            for name in ("lie", "jordan", "com-assoc")
            for field in FIELDS
            for d in (5, 6)]


def special_di_queries():
    """``special-di`` without ``--basis``: every built-in morphism at
    degree 5 over both fields, where k[S_5] is semisimple, and at degree 4
    over p:3, where it is not and the kernel comes from expanded rows, and
    over p:5 beside it."""
    reports = [(name, field, 5)
               for name in catalog.morphism_names() for field in FIELDS]
    reports += [(name, field, 4)
                for name in catalog.morphism_names() for field in ("p:3", "p:5")]
    return [["special-di", "--morphism", f"builtin:{name}", "--degree", str(d),
             "--field", field, "--json", "--no-cache"]
            for name, field, d in reports]


def associative_queries():
    """``dim`` at degrees 5 and 6 for assoc and perm, and ``verify-di`` at
    degree 5 for assoc, perm and com-assoc, over both fields: each has an
    associative operation, which the modules count over its comb from
    degree 4 on (``dim`` of com-assoc is pinned by ``partition_queries``).
    Then ``dim`` of doubled assoc at degree 5, whose two operations are
    each associative."""
    reports = [["dim", f"builtin:{name}", d, field]
               for name in ("assoc", "perm")
               for field in FIELDS
               for d in (5, 6)]
    reports += [["verify-di", f"builtin:{name}", 5, field]
                for name in ("assoc", "perm", "com-assoc")
                for field in FIELDS]
    reports += [["dim", "di:builtin:assoc", 5, field] for field in FIELDS]
    return [[cmd, "--variety", variety, "--degree", str(d), "--field", field,
             "--json", "--no-cache"]
            for cmd, variety, d, field in reports]


def run_query(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps help and usage at the terminal width.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def test_reports_match_the_pinned_corpus():
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [e["argv"] for e in pinned] == queries()
    for expected in pinned:
        assert run_query(expected["argv"]) == expected


def _changes(old, new):
    """(added, removed, changed) argv lists between two recordings."""
    before = {json.dumps(e["argv"]): e for e in old}
    after = {json.dumps(e["argv"]): e for e in new}
    added = [k for k in after if k not in before]
    removed = [k for k in before if k not in after]
    changed = [k for k in after if k in before and after[k] != before[k]]
    return added, removed, changed


if __name__ == "__main__":
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    records = [run_query(argv) for argv in queries()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} reports to {CORPUS}")
    for label, argvs in zip(("added", "removed", "changed"),
                            _changes(old, records)):
        for argv in argvs:
            print(f"{label}: {argv}")
        print(f"{len(argvs)} {label}")
