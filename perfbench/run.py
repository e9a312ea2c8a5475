"""dioperad benchmark: seeded CLI workloads with checked answers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of CLI queries (``perfbench/workloads.json``).
Each query runs as a fresh ``python -m dioperad ... --json`` process, the
way users call the tool, against a document that ``inputs.generate`` writes
from the seed; every answer is compared with the values pinned in
``workloads.json``.  Each query runs on its own empty ``CACHE_DIR`` inside
the run's scratch directory; on a ``cold+warm`` workload it then runs again
on the cache that first run wrote.  Passes over the queries repeat while the
next query still fits in ``--seconds`` (the first pass always completes).

With ``--trace 0`` the last line of output reports the end-to-end metrics:
wall, cpu and per-field wall time, each the sum over queries of that query's
median over its runs, the peak RSS of any query process, and the median
set-up time.  With ``--trace 1`` each query run is followed by a traced
one under ``traced_cli.py``; the per-layer metrics are summed in the same
way over the traced runs, and the spans are written to
``.bench_out/trace_<workload>_<seed>.json``.  Each query's run count and
fastest, median and slowest wall time go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

# A run must end within 180 s; leave room to clean up and report.
DEADLINE_S = 170.0
LAYERS = ("terms", "linalg", "ideals", "morphisms", "dialgebra", "cache")
# Figures also reported for one phase alone, under these names.
PHASE_FIGURES = {
    "cold": {"cache.get_hits": "cold.cache.get_hits"},
    "warm": {"trace.wall_s": "warm.wall_s", "linalg.rows_fed": "warm.linalg.rows_fed"},
}


class QueryResult:
    __slots__ = ("wall", "cpu", "rss_kb", "exit", "report", "stderr",
                 "timed_out", "trace", "startup", "bytes_written")


def load_spec() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def resolve_args(args, doc: Path, names: dict) -> list:
    """Replace ``@NAME`` and ``@di:NAME`` with references into the document."""
    out = []
    for a in args:
        if a.startswith("@di:"):
            a = f"di:{doc}:{names[a[4:]]}"
        elif a.startswith("@"):
            a = f"{doc}:{names[a[1:]]}"
        out.append(a)
    return out


def tree_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path) for f in files
    )


def run_query(args, env, cache_dir: Path, work: Path, timeout: float,
              trace_id=None) -> QueryResult:
    """Run one CLI query in a fresh process; read its usage with wait4."""
    res = QueryResult()
    res.trace = res.startup = None
    trace_path = work / "trace.json"
    if trace_id is None:
        cmd = [sys.executable, "-m", "dioperad", *args, "--json"]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path),
               trace_id, *args, "--json"]
    before = tree_bytes(cache_dir)
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        spawn = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(env, CACHE_DIR=str(cache_dir)))
        fired = []
        killer = threading.Timer(max(timeout, 0.0),
                                 lambda: fired.append(True) or proc.kill())
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        res.wall = time.perf_counter() - start
        proc.returncode = res.exit = os.waitstatus_to_exitcode(status)
        res.timed_out = bool(fired) and res.exit < 0
        res.cpu = usage.ru_utime + usage.ru_stime
        res.rss_kb = usage.ru_maxrss
        out.seek(0)
        err.seek(0)
        try:
            res.report = json.loads(out.read())
        except ValueError:
            res.report = None
        res.stderr = err.read().decode(errors="replace").strip()
    res.bytes_written = tree_bytes(cache_dir) - before
    if trace_id is not None and trace_path.exists():
        res.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        res.startup = res.trace["ready"] - spawn
        trace_path.unlink()
    return res


def check(query: dict, res: QueryResult):
    """None if the query answered as pinned, else the reason it did not."""
    if res.timed_out:
        return "timed out"
    if res.exit != 0:
        return f"exit code {res.exit}: {res.stderr[-300:]}"
    if not isinstance(res.report, dict):
        return "no JSON report on stdout"
    for key, want in query["expect"].items():
        got = res.report.get(key)
        if got != want:
            return f"{key}: expected {json.dumps(want)}, got {json.dumps(got)}"
    return None


class Run:
    """One benchmark run: scratch space, deadline, and the failure tally."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.timed_out = False
        self.setup_samples: list = []
        self.home = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # Hash order is an input too: fix it from the seed so that a seed
        # repeats exactly, counters included.
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)
        # Where the package would cache if it ignored CACHE_DIR.
        self.stray = work / "xdg-cache"
        self.env["XDG_CACHE_HOME"] = str(self.stray)

    def fresh_dir(self, parent: Path) -> Path:
        return Path(tempfile.mkdtemp(dir=parent))

    def query(self, query: dict, doc: Path, names: dict, cache_dir: Path,
              trace_id=None) -> QueryResult:
        args = resolve_args(query["args"], doc, names)
        res = run_query(args, self.env, cache_dir, self.work,
                        self.deadline - time.monotonic(), trace_id)
        self.attempted += 1
        why = check(query, res)
        if why is not None:
            self.failed += 1
            self.timed_out |= res.timed_out
            print(f"FAIL {query['id']}: {why}", file=sys.stderr)
        return res

    def set_up(self, spec: dict, seed: int):
        """Generate the inputs into a fresh directory, replacing the last
        one, and check the program starts on them; record the time taken.
        Returns ``(home, doc, names)``."""
        start = time.perf_counter()
        home = self.fresh_dir(self.work)
        text, names = inputs.generate(seed)
        doc = home / "inputs.sexp"
        doc.write_text(text, encoding="utf-8")
        self.query(spec["smoke"], doc, names, self.fresh_dir(home))
        self.setup_samples.append(time.perf_counter() - start)
        if self.home is not None:
            shutil.rmtree(self.home)
        self.home = home
        return home, doc, names

    def unit(self, query: dict, setup, warm: bool, traced: bool, samples: dict) -> None:
        """Run one query on an empty cache and, if ``warm``, once more on the
        cache that run left; append each result to ``samples[label]``."""
        home, doc, names = setup
        cache_dir = self.fresh_dir(home)
        phases = ("cold", "warm") if warm else ("cold",)
        for phase in phases:
            if self.timed_out:
                break
            label = f"{query['id']}/{phase}"
            trace_id = f"{label}#{len(samples.get(label, ()))}" if traced else None
            res = self.query(query, doc, names, cache_dir, trace_id)
            samples.setdefault(label, []).append((query, res))
        shutil.rmtree(cache_dir)


def field_of(query: dict) -> str:
    args = query["args"]
    return args[args.index("--field") + 1]


def median_sum(samples: dict, attr: str, select=lambda query: True) -> float:
    """Sum over the selected queries of the median of ``attr`` over that
    query's runs."""
    return sum(
        statistics.median(getattr(r, attr) for _, r in runs)
        for runs in samples.values() if select(runs[0][0])
    )


def end_to_end(samples: dict, setup_s: float) -> dict:
    return {
        "wall_s": median_sum(samples, "wall"),
        "wall_q_s": median_sum(samples, "wall", lambda q: field_of(q) == "q"),
        "wall_p_s": median_sum(samples, "wall", lambda q: field_of(q) != "q"),
        "cpu_s": median_sum(samples, "cpu"),
        "peak_rss_mb": max(r.rss_kb for runs in samples.values() for _, r in runs) / 1024,
        "setup_s": setup_s,
    }


def layer_row(r: QueryResult) -> dict:
    """Per-layer figures of one traced query run."""
    row = {f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "cache"}
    row["cache.bytes_written"] = r.bytes_written
    row["trace.wall_s"] = r.wall
    if r.trace is None:
        row["cli.unattributed_s"] = r.wall
        return row
    self_s = r.trace["self_s"]
    row.update({f"{layer}.self_s": self_s.get(layer, 0.0)
                for layer in LAYERS if layer != "cache"})
    row.update(r.trace["seconds"])
    row.update(r.trace["counts"])
    row["cli.startup_s"] = r.startup
    row["cli.unattributed_s"] = (
        r.wall - r.startup - sum(self_s.get(layer, 0.0) for layer in LAYERS)
    )
    return row


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics: for each query the median of each figure over its
    traced runs, summed over queries (``ideals.max_columns``: the largest).
    ``PHASE_FIGURES`` repeat a few figures for one phase only."""
    out: dict = {}
    for label, runs in traced.items():
        rows = [layer_row(r) for _, r in runs]
        keys = {k for row in rows for k in row}
        med = {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}
        phase = label.rsplit("/", 1)[1]
        for k, v in med.items():
            if k == "ideals.max_columns":
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
        for k, name in PHASE_FIGURES[phase].items():
            out[name] = out.get(name, 0) + med.get(k, 0)
    fed, gets = out.get("linalg.rows_fed", 0), out.get("cache.get_calls", 0)
    out["linalg.keep_ratio"] = out.get("linalg.rows_kept", 0) / fed if fed else 0.0
    out["cache.hit_ratio"] = out.get("cache.get_hits", 0) / gets if gets else 0.0
    out["trace.overhead_ratio"] = (
        out["trace.wall_s"] / median_sum(untraced, "wall")
    )
    return out


def report_spread(samples: dict) -> None:
    """Print each query's run count and its fastest, median and slowest
    wall time to stderr."""
    for label, runs in sorted(samples.items()):
        walls = sorted(r.wall for _, r in runs)
        print(f"{label}: {len(walls)} runs, wall {walls[0]:.3f} / "
              f"{statistics.median(walls):.3f} / {walls[-1]:.3f} s", file=sys.stderr)


def write_spans(traced: dict, workload: str, seed: int) -> None:
    results = [r for runs in traced.values() for _, r in runs if r.trace is not None]
    spans = [{"query": r.trace["query"], "spans": r.trace["spans"]} for r in results]
    missing = sorted({m for r in results for m in r.trace["missing"]})
    for name in missing:
        print(f"warning: tracer found no {name}", file=sys.stderr)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace_{workload}_{seed}.json"
    path.write_text(json.dumps({"missing": missing, "queries": spans}), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "dioperad" / "cli.py").is_file():
        print(f"error: no dioperad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if opts.trace else "end_to_end"]
    workload = spec["workloads"].get(opts.workload)
    if workload is None:
        print(f"error: unknown workload {opts.workload!r} "
              f"(known: {', '.join(spec['workloads'])})", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(work, opts.seed)
        setup = run.set_up(spec, opts.seed)
        queries = list(workload["queries"])
        random.Random(opts.seed).shuffle(queries)
        warm = workload["cache"] == "cold+warm"
        untraced, traced, took = {}, {}, {}
        start = time.monotonic()
        stop = min(start + opts.seconds, run.deadline)
        passes = 0
        while not run.timed_out:
            for q in queries:
                if run.timed_out or (passes and time.monotonic() + took[q["id"]] > stop):
                    break
                began = time.monotonic()
                run.unit(q, setup, warm, False, untraced)
                if opts.trace:
                    run.unit(q, setup, warm, True, traced)
                took[q["id"]] = time.monotonic() - began
                # Set up again between queries, so that the set-up samples
                # spread over the run as the query samples do.
                setup = run.set_up(spec, opts.seed)
            else:
                passes += 1
                continue
            break
        report_spread(untraced)
        isolated = not run.stray.exists()
        if not isolated:
            print("FAIL: a query wrote outside its CACHE_DIR", file=sys.stderr)
        metrics = {}
        if opts.trace and traced:
            metrics = per_layer(traced, untraced)
            write_spans(traced, opts.workload, opts.seed)
        elif untraced:
            metrics = end_to_end(untraced, statistics.median(run.setup_samples))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": run.failed == 0 and isolated and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
