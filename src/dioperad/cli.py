"""Command-line workbench for variety presentations and their dialgebra
counterparts.

A presentation or morphism argument takes one of the forms ``builtin:NAME``
(catalog entry), ``PATH`` (a file defining exactly one), ``PATH:NAME`` (one
of several in a file), or — for varieties — ``di:SPEC`` (the dialgebra
counterpart of whatever SPEC names).  Output is an aligned table or, with
--json, one JSON object; identical inputs produce byte-identical reports
unless --timings is given.

Exit codes: 0 success, 1 false verdict, 2 usage or input errors, 3 degree
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog
from .cache import DiskCache, default_cache_dir
from .context import DEFAULT_DEGREE_CAP, Context, DegreeCapError
from .dialgebra import bso_presentation, verify_dialgebra_equivalence
from .fields import DEFAULT_PRIME, parse_field
from .ideals import consequences_at_degree, ideal_dimensions
from .morphisms import (
    di_special_identities,
    special_identities,
    verify_bso_theorem,
)
from .sexpr import (
    MorphismEntry,
    ParseError,
    format_presentation,
    parse_document,
    parse_identity_body,
    read_forms,
)
from .terms import enumerate_monomials, format_node, format_polynomial


def _builtin_resolver(name):
    try:
        return catalog.presentation(name)
    except ValueError:
        return None


def _load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    return parse_document(text, resolver=_builtin_resolver)


def _pick(entries: dict, path: str, name, kind: str):
    if name is not None:
        entry = entries.get(name)
        if entry is None:
            known = ", ".join(entries) or "none"
            raise ValueError(
                f"no {kind} named {name!r} in {path!r} (defined: {known})"
            )
        return entry
    if len(entries) == 1:
        return next(iter(entries.values()))
    raise ValueError(
        f"{path!r} defines {len(entries)} {kind}s; choose one with {path}:NAME"
    )


def resolve_variety(spec: str):
    if spec.startswith("di:"):
        return bso_presentation(resolve_variety(spec[3:]))
    if spec.startswith("builtin:"):
        return catalog.presentation(spec[len("builtin:"):])
    if os.path.exists(spec):
        return _pick(_load_document(spec).presentations, spec, None, "presentation")
    path, sep, name = spec.rpartition(":")
    if sep and os.path.exists(path):
        return _pick(_load_document(path).presentations, path, name, "presentation")
    raise ValueError(
        f"cannot resolve variety {spec!r} (use builtin:NAME, PATH, PATH:NAME, "
        f"or di:SPEC)"
    )


def resolve_morphism(spec: str) -> MorphismEntry:
    if spec.startswith("builtin:"):
        return catalog.morphism(spec[len("builtin:"):])
    if os.path.exists(spec):
        return _pick(_load_document(spec).morphisms, spec, None, "morphism")
    path, sep, name = spec.rpartition(":")
    if sep and os.path.exists(path):
        return _pick(_load_document(path).morphisms, path, name, "morphism")
    raise ValueError(
        f"cannot resolve morphism {spec!r} (use builtin:NAME, PATH, or PATH:NAME)"
    )


def _parse_identity_text(text: str, sig):
    forms = read_forms(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one identity expression", 1, 1)
    return parse_identity_body(forms[0], sig)


def _format_dipolynomial(dp) -> str:
    parts = [
        f"(e{k} {format_polynomial(comp)})"
        for k, comp in enumerate(dp.components, 1)
        if not comp.is_zero
    ]
    return "(di " + " ".join(parts) + ")" if parts else "(di)"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_human(report: dict) -> str:
    rows = []
    footers = []
    for key, value in report.items():
        if value is None:
            continue
        if key == "dims":
            for k, v in value.items():
                if v is not None:
                    rows.append((k, _fmt(v)))
        elif key == "comparisons":
            for c in value:
                rows.append(
                    (
                        f"compare[{c['degree']}]",
                        "ambient {}  kernel {}  consequences {}  equal {}".format(
                            c["ambient"],
                            c["kernel"],
                            c["consequences"],
                            _fmt(c["equal"]),
                        ),
                    )
                )
        elif key == "presentation":
            footers.append(value)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                rows.append((f"{key}[{i}]", _fmt(item)))
        else:
            rows.append((key, _fmt(value)))
    width = max((len(k) for k, _ in rows), default=0)
    out = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
    for footer in footers:
        out = f"{out}\n\n{footer}" if out else footer
    return out


def _cmd_basis(args, ctx):
    variety = resolve_variety(args.variety)
    monomials = enumerate_monomials(variety.signature, args.degree, ctx)
    return {
        "command": "basis",
        "variety": variety.name,
        "inputs_digest": variety.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {"ambient": len(monomials), "ideal": None, "quotient": None},
        "verdict": None,
        "basis": [format_node(m.node) for m in monomials],
    }


def _cmd_dim(args, ctx):
    variety = resolve_variety(args.variety)
    ambient, ideal = ideal_dimensions(variety, args.degree, ctx)
    return {
        "command": "dim",
        "variety": variety.name,
        "inputs_digest": variety.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {"ambient": ambient, "ideal": ideal, "quotient": ambient - ideal},
        "verdict": None,
    }


def _cmd_implies(args, ctx):
    variety = resolve_variety(args.variety)
    p = _parse_identity_text(args.identity, variety.signature)
    comp = consequences_at_degree(variety, p.degree, ctx)
    return {
        "command": "implies",
        "variety": variety.name,
        "identity": format_polynomial(p),
        "inputs_digest": variety.digest,
        "field": ctx.field.name,
        "degree": p.degree,
        "dims": {
            "ambient": comp.ambient_dimension,
            "ideal": comp.ideal.dim,
            "quotient": comp.quotient_dimension,
        },
        "verdict": comp.contains(p),
    }


def _cmd_dialgebrize(args, ctx):
    variety = resolve_variety(args.variety)
    divar = bso_presentation(variety)
    dims = expected = verdict = None
    if args.verify_degree is not None:
        rep = verify_dialgebra_equivalence(variety, args.verify_degree, ctx)
        dims = {
            "ambient": rep.ambient_dimension,
            "ideal": rep.ideal_dimension,
            "quotient": rep.quotient_dimension,
        }
        expected = rep.expected_quotient_dimension
        verdict = rep.equal
    return {
        "command": "dialgebrize",
        "variety": variety.name,
        "inputs_digest": variety.digest,
        "field": ctx.field.name,
        "degree": args.verify_degree,
        "dims": dims,
        "expected_quotient": expected,
        "verdict": verdict,
        "result": divar.name,
        "result_digest": divar.digest,
        "presentation": format_presentation(divar),
    }


def _cmd_verify_di(args, ctx):
    variety = resolve_variety(args.variety)
    rep = verify_dialgebra_equivalence(variety, args.degree, ctx)
    return {
        "command": "verify-di",
        "variety": variety.name,
        "inputs_digest": variety.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {
            "ambient": rep.ambient_dimension,
            "ideal": rep.ideal_dimension,
            "quotient": rep.quotient_dimension,
        },
        "expected_quotient": rep.expected_quotient_dimension,
        "verdict": rep.equal,
    }


def _cmd_special(args, ctx):
    entry = resolve_morphism(args.morphism)
    rep = special_identities(entry.morphism, entry.source, args.degree, ctx)
    report = {
        "command": "special",
        "morphism": entry.morphism.name,
        "source": entry.source.name,
        "inputs_digest": entry.morphism.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {
            "ambient": rep.ambient_dimension,
            "ideal": rep.ideal_dimension,
            "quotient": rep.ambient_dimension - rep.ideal_dimension,
        },
        "kernel": rep.kernel_dimension,
        "special": rep.special_dimension,
        "verdict": None,
    }
    if args.basis:
        report["basis"] = [format_polynomial(p) for p in rep.basis]
    return report


def _cmd_special_di(args, ctx):
    entry = resolve_morphism(args.morphism)
    rep = di_special_identities(entry.morphism, entry.source, args.degree, ctx)
    report = {
        "command": "special-di",
        "morphism": rep.morphism,
        "source": entry.source.name,
        "inputs_digest": entry.morphism.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {
            "ambient": rep.ambient_dimension,
            "ideal": rep.ideal_dimension,
            "quotient": rep.ambient_dimension - rep.ideal_dimension,
        },
        "kernel": rep.kernel_dimension,
        "special": rep.special_dimension,
        "verdict": rep.matches_lifted,
    }
    if args.basis:
        report["basis"] = [_format_dipolynomial(p) for p in rep.basis]
    return report


def _cmd_verify_bso(args, ctx):
    entry = resolve_morphism(args.morphism)
    rep = verify_bso_theorem(entry.morphism, entry.source, args.degree, ctx)
    last = rep.comparisons[-1]
    return {
        "command": "verify-bso",
        "morphism": entry.morphism.name,
        "inputs_digest": entry.morphism.digest,
        "field": ctx.field.name,
        "degree": args.degree,
        "dims": {
            "ambient": last.ambient_dimension,
            "ideal": last.consequence_dimension,
            "quotient": last.ambient_dimension - last.consequence_dimension,
        },
        "comparisons": [
            {
                "degree": c.degree,
                "ambient": c.ambient_dimension,
                "kernel": c.kernel_dimension,
                "consequences": c.consequence_dimension,
                "equal": c.equal,
            }
            for c in rep.comparisons
        ],
        "verdict": rep.verdict,
    }


def _cmd_catalog(args, ctx):
    return {
        "command": "catalog",
        "inputs_digest": None,
        "field": ctx.field.name,
        "degree": None,
        "dims": None,
        "verdict": None,
        "presentations": list(catalog.presentation_names()),
        "morphisms": list(catalog.morphism_names()),
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=f"p:{DEFAULT_PRIME}",
        metavar="TAG",
        help="scalar field: q for rationals or p:<prime> (default p:%d)"
        % DEFAULT_PRIME,
    )
    common.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_DEGREE_CAP,
        metavar="N",
        help="degree cap for enumeration (default %(default)s)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit one JSON object"
    )
    common.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk cache of ranks by partition",
    )
    common.add_argument(
        "--timings",
        action="store_true",
        help="append wall-clock time to the report",
    )

    parser = argparse.ArgumentParser(
        prog="dioperad",
        description="Multilinear identity workbench for varieties of "
        "algebras and their dialgebra counterparts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("basis", _cmd_basis, "enumerate the multilinear monomials of a degree")
    p.add_argument("--variety", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")

    p = add("dim", _cmd_dim, "ambient, ideal, and quotient dimensions at a degree")
    p.add_argument("--variety", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")

    p = add("implies", _cmd_implies, "test whether an identity follows from a presentation")
    p.add_argument("--variety", required=True, metavar="SPEC")
    p.add_argument(
        "--identity",
        required=True,
        metavar="EXPR",
        help="s-expression, optionally wrapped in (linearize ...)",
    )

    p = add("dialgebrize", _cmd_dialgebrize, "emit the dialgebra counterpart of a presentation")
    p.add_argument("--variety", required=True, metavar="SPEC")
    p.add_argument(
        "--verify-degree",
        type=int,
        default=None,
        metavar="N",
        help="also check at degree N that the counterpart's consequences are "
        "the collapse preimage of N copies of the plain ideal",
    )

    p = add(
        "verify-di",
        _cmd_verify_di,
        "check that the dialgebra counterpart's consequences at degree N "
        "are the collapse preimage of N copies of the plain ideal",
    )
    p.add_argument("--variety", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")

    p = add("special", _cmd_special, "identities of the morphism image beyond the source presentation")
    p.add_argument("--morphism", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--basis", action="store_true", help="list the basis")

    p = add("special-di", _cmd_special_di, "emphasized special identities and the lift-match flag")
    p.add_argument("--morphism", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--basis", action="store_true", help="list the basis")

    p = add("verify-bso", _cmd_verify_bso, "compare the doubled kernel with the lifted-kernel consequences")
    p.add_argument("--morphism", required=True, metavar="SPEC")
    p.add_argument("--degree", type=int, required=True, metavar="N")

    add("catalog", _cmd_catalog, "list built-in presentations and morphisms")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.monotonic()
    try:
        cache = None if args.no_cache else DiskCache(default_cache_dir())
        ctx = Context(parse_field(args.field), args.max_degree, cache)
        report = args.func(args, ctx)
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.timings:
        report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_human(report))
    return 1 if report.get("verdict") is False else 0
