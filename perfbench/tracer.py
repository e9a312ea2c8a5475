"""Outside-in layer tracing for one dioperad CLI process.

The package binds names with ``from ... import``, so each wrapper replaces
the original object in every ``dioperad`` module namespace that holds it.
Methods are replaced on their classes.

Every wrapped call hands the clock to its layer and back, so each moment of
``cli.main`` is charged to exactly one layer: the self time of a layer is
the time spent in its wrapped calls minus the time spent in wrapped calls of
deeper frames.  Time outside every wrapper is charged to ``cli``.  Spans
(name, start, end, parent) are recorded only at coarse boundaries.  Hot
calls such as ``_Reducer.insert`` record no span, and ``axpy_into`` (millions
of calls) is only counted: its time stays with the calling layer.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

IDEAL_COMPONENT = "ideals.ideal_component"


class Tracer:
    def __init__(self):
        self.self_s: dict = {"cli": 0.0}
        self.counts: dict = {}
        self.seconds: dict = {}
        self.spans: list = []
        self.missing: list = []
        # frame: [layer, name, id of the enclosing span, component state]
        self.stack: list = [["cli", "cli.main", None, None]]
        self._mark = [0.0]
        self._depth: dict = {}
        self._bases: set = set()
        self._axpy = [0, 0]

    # -- installing -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "dioperad" and not modname.startswith("dioperad."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def function(self, module, name, layer, **hooks) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        self._replace(original, self.wrap(original, layer, f"{layer}.{name}", **hooks))

    def method(self, cls, name, layer, **hooks) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
            return
        setattr(cls, name, self.wrap(original, layer, f"{layer}.{cls.__name__}.{name}", **hooks))

    def wrap(self, fn, layer, name, span=False, timer=None, count=None,
             before=None, after=None):
        stack, self_s, mark, spans = self.stack, self.self_s, self._mark, self.spans
        counts, seconds, depth = self.counts, self.seconds, self._depth
        clock = perf_counter
        self_s.setdefault(layer, 0.0)
        if timer:
            seconds.setdefault(timer, 0.0)
            depth.setdefault(timer, 0)
        if count:
            counts.setdefault(count, 0)

        def wrapper(*args, **kwargs):
            start = clock()
            parent = stack[-1]
            self_s[parent[0]] += start - mark[0]
            mark[0] = start
            if count:
                counts[count] += 1
            if before is not None:
                before(args, parent)
            if span:
                span_id = len(spans)
                spans.append([name, start, None, parent[2]])
            else:
                span_id = parent[2]
            frame = [layer, name, span_id, None]
            stack.append(frame)
            if timer:
                depth[timer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - mark[0]
                mark[0] = end
                stack.pop()
                if timer:
                    depth[timer] -= 1
                    if not depth[timer]:
                        seconds[timer] += end - start
                if span:
                    spans[span_id][2] = end
            if after is not None:
                after(args, result, frame, stack[-1])
            return result

        return wrapper

    def _count_axpy(self, cls) -> None:
        original = cls.__dict__.get("axpy_into")
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.axpy_into")
            return
        cell = self._axpy

        def axpy_into(field, row, c, other):
            cell[0] += 1
            cell[1] += len(other)
            return original(field, row, c, other)

        cls.axpy_into = axpy_into

    def install(self) -> None:
        from dioperad import cache, dialgebra, fields, ideals, linalg, morphisms, terms

        counts, depth, bases = self.counts, self._depth, self._bases
        for key in (
            "terms.basis_columns", "dialgebra.doubled_columns",
            "linalg.rows_kept", "linalg.kernel_input_rows",
            "ideals.components_built", "ideals.components_loaded",
            "ideals.max_columns", "cache.get_hits", "cache.bytes_read",
        ):
            counts[key] = 0

        def enumerated(args, result, frame, parent):
            key = tuple(args[:2])
            if key not in bases:
                bases.add(key)
                counts["terms.basis_columns"] += len(result)
                if isinstance(args[0], terms.DoubledSignature):
                    counts["dialgebra.doubled_columns"] += len(result)

        def mark_built(args, parent):
            if parent[1] == IDEAL_COMPONENT and parent[3] is None:
                parent[3] = "built"

        def inserted(args, result, frame, parent):
            if result:
                counts["linalg.rows_kept"] += 1

        def kernel_input(position):
            def before(args, parent):
                rows = args[position]
                if not depth["linalg.kernel_s"] and hasattr(rows, "__len__"):
                    counts["linalg.kernel_input_rows"] += len(rows)
            return before

        def component(args, result, frame, parent):
            if frame[3] == "loaded":
                counts["ideals.components_loaded"] += 1
            elif frame[3] == "built":
                counts["ideals.components_built"] += 1
            counts["ideals.max_columns"] = max(counts["ideals.max_columns"], result.ncols)

        def cache_read(args, result, frame, parent):
            if result is not None:
                counts["cache.get_hits"] += 1
                counts["cache.bytes_read"] += os.path.getsize(args[0]._path(args[1]))
                if parent[1] == IDEAL_COMPONENT:
                    parent[3] = "loaded"

        f, m = self.function, self.method
        f(terms, "enumerate_monomials", "terms", timer="terms.enumerate_s", after=enumerated)
        f(terms, "monomial_index", "terms", timer="terms.enumerate_s")
        f(terms, "substitute_at", "terms", count="terms.substitute_calls")
        f(terms, "compose", "terms", count="terms.compose_calls")
        f(terms, "apply_permutation", "terms")

        m(linalg._Reducer, "insert", "linalg", count="linalg.rows_fed",
          before=mark_built, after=inserted)
        m(linalg.Subspace, "reduce", "linalg")
        f(linalg, "row_reduce", "linalg", span=True, timer="linalg.row_reduce_s")
        f(linalg, "extend", "linalg", span=True)
        f(linalg, "transpose", "linalg")
        f(linalg, "left_kernel_basis", "linalg", span=True, timer="linalg.kernel_s",
          before=kernel_input(1))
        f(linalg, "kernel_basis", "linalg", span=True, timer="linalg.kernel_s",
          before=kernel_input(2))

        self._count_axpy(fields.Rationals)
        self._count_axpy(fields.PrimeField)

        f(ideals, "ideal_component", "ideals", span=True, timer="ideals.component_s",
          after=component)
        f(ideals, "consequences_at_degree", "ideals", span=True)

        f(morphisms, "evaluate_morphism", "morphisms", timer="morphisms.evaluate_s",
          count="morphisms.evaluate_calls")
        f(morphisms, "morphism_kernel_at_degree", "morphisms", span=True,
          timer="morphisms.kernel_s")
        f(morphisms, "verify_bso_theorem", "morphisms", span=True,
          timer="morphisms.theorem_s")
        for name in ("special_identities", "di_special_identities", "di_morphism"):
            f(morphisms, name, "morphisms", span=True)

        f(dialgebra, "zeta_preimage", "dialgebra", span=True,
          timer="dialgebra.zeta_preimage_s")
        f(dialgebra, "superscript_poly", "dialgebra", count="dialgebra.lift_calls")
        f(dialgebra, "lift_vector", "dialgebra")
        for name in ("bso_presentation", "verify_dialgebra_equivalence",
                     "di_ideal_at_degree", "emphasis_kernel_rows", "zero_identities"):
            f(dialgebra, name, "dialgebra", span=True)

        m(cache.DiskCache, "get", "cache", span=True, timer="cache.get_s",
          count="cache.get_calls", after=cache_read)
        m(cache.DiskCache, "put", "cache", span=True, timer="cache.put_s",
          count="cache.put_calls", before=mark_built)

    # -- running --------------------------------------------------------

    def run(self, main, argv) -> int:
        """Call ``main(argv)`` as the root span and return its exit code."""
        start = self._mark[0] = perf_counter()
        self.spans.append(["cli.main", start, None, None])
        self.stack[0][2] = 0
        try:
            return main(argv)
        finally:
            end = perf_counter()
            self.self_s[self.stack[-1][0]] += end - self._mark[0]
            self.spans[0][2] = end

    def record(self, query_id: str) -> dict:
        """Counters, timers and spans, with span times relative to the start
        of ``main``."""
        counts = dict(self.counts)
        counts["fields.axpy_calls"], counts["fields.axpy_entries"] = self._axpy
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "query": query_id,
            "self_s": self.self_s,
            "counts": counts,
            "seconds": self.seconds,
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
            "missing": self.missing,
        }
