"""Self-test of the benchmark's generated inputs and of its answer check.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seed N]

- The seeded document answers every self-test query as pinned, with the
  same dims, kernel and special as the built-in catalog but a different
  inputs_digest.
- The answer check can come out false: a document with one identity
  dropped, and one with a wrong morphism image, are each counted as failed.

Prints one PASS or FAIL line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import inputs
import run as bench

COMPARED = ("command", "dims", "kernel", "special", "verdict")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args(argv)

    spec = bench.load_spec()["selftest"]
    queries = {q["id"]: q for q in spec["equivalent"]}
    scratch = bench.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    doc = work / "inputs.sexp"
    results = []

    def failures(text, names, ids) -> int:
        doc.write_text(text, encoding="utf-8")
        run = bench.Run(work, opts.seed)
        for qid in ids:
            run.query(queries[qid], doc, names, run.fresh_dir(work))
        return run.failed

    try:
        text, names = inputs.generate(opts.seed)
        results.append(("generated document answers as pinned",
                        failures(text, names, queries) == 0))

        run = bench.Run(work, opts.seed)
        for q in spec["equivalent"]:
            builtin = [a.replace("@", "builtin:", 1) if a.startswith("@") else a
                       for a in q["args"]]
            generated = bench.resolve_args(q["args"], doc, names)
            a = bench.run_query(builtin, run.env, run.fresh_dir(work), work, 60)
            b = bench.run_query(generated, run.env, run.fresh_dir(work), work, 60)
            same = (a.report is not None and b.report is not None
                    and all(a.report.get(k) == b.report.get(k) for k in COMPARED)
                    and a.report["inputs_digest"] != b.report["inputs_digest"])
            results.append((f"{q['id']} matches the built-in, new digest", same))

        for key, broken in (("drop_identity", "dropped identity"),
                            ("wrong_image", "wrong morphism image")):
            case = spec[key]
            text, names = inputs.generate(opts.seed, **{key: tuple(case["change"])})
            results.append((f"{broken} is counted as failed",
                            failures(text, names, [case["fails"]]) == 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
