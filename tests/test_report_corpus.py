"""Pinned CLI reports: the built-in catalog at low degree, compared byte for
byte with the recorded stdout, stderr and exit code of each query.

Regenerate the recording (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_report_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from dioperad import catalog
from dioperad.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "report_corpus.json"
FIELDS = ("q", "p:1000003")
DEGREES = (2, 3, 4)


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
    return [argv + ["--json", "--no-cache"] for argv in out]


def run_query(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def test_reports_match_the_pinned_corpus():
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [e["argv"] for e in pinned] == queries()
    for expected in pinned:
        assert run_query(expected["argv"]) == expected


if __name__ == "__main__":
    records = [run_query(argv) for argv in queries()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} reports to {CORPUS}")
