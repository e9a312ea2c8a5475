"""Run one dioperad CLI query with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON QUERY_ID CLI_ARGS...

Writes the tracer's record to TRACE_JSON, adding ``ready``: the
``time.monotonic()`` reading once the package is imported, from which the
caller derives start-up time.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out_path, query_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from dioperad import cli

    ready = time.monotonic()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = tracer.run(cli.main, argv)
    sys.stdout.flush()
    record = tracer.record(query_id)
    record["ready"] = ready
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
