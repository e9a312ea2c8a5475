"""Command-line workbench for variety presentations and their dialgebra
counterparts.

A presentation or morphism argument takes one of the forms ``builtin:NAME``
(catalog entry), ``PATH`` (a file defining exactly one), ``PATH:NAME`` (one
of several in a file), or — for varieties — ``di:SPEC`` (the dialgebra
counterpart of whatever SPEC names).  Output is an aligned table or, with
--json, one JSON object; identical inputs produce byte-identical reports
unless --timings is given.  Every report keys its fields in one order:
command; the subject names (variety, identity, morphism, source); then
inputs_digest, field, degree and dims; the command's checks
(expected_quotient, kernel and special, or comparisons); verdict; the
command's listings (basis, result, presentations, ...); and elapsed_ms
under --timings.

Exit codes: 0 success, 1 false verdict, 2 usage or input errors, 3 degree
cap exceeded.

Each command imports the engine it runs inside its handler (``ideals``,
``dialgebra`` or ``morphisms``), so a run loads only the modules its
command needs.  ``dim`` alone reads and writes the disk cache, and a hit
loads no engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog
from .context import DEFAULT_DEGREE_CAP, Context, DegreeCapError
from .fields import DEFAULT_PRIME, parse_field
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


def _load_document(path, ctx):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from None
    return parse_document(text, resolver=_builtin_resolver, ctx=ctx)


def _resolve(spec: str, kind: str, builtin, unresolved: str, ctx):
    """The presentation or morphism (``kind``) that ``builtin:NAME``,
    ``PATH`` (a file defining exactly one) or ``PATH:NAME`` names, a file
    being parsed under ``ctx``'s degree cap.  Any other SPEC is an error
    whose message ends in ``unresolved``."""
    if spec.startswith("builtin:"):
        return builtin(spec[len("builtin:"):])
    if os.path.exists(spec):
        path, name = spec, None
    else:
        path, sep, name = spec.rpartition(":")
        if not (sep and os.path.exists(path)):
            raise ValueError(f"cannot resolve {unresolved}")
    entries = getattr(_load_document(path, ctx), f"{kind}s")
    if name is None:
        if len(entries) == 1:
            return next(iter(entries.values()))
        raise ValueError(
            f"{path!r} defines {len(entries)} {kind}s; choose one with {path}:NAME"
        )
    if name not in entries:
        known = ", ".join(entries) or "none"
        raise ValueError(f"no {kind} named {name!r} in {path!r} (defined: {known})")
    return entries[name]


def resolve_variety(spec: str, ctx=None):
    if spec.startswith("di:"):
        from .dialgebra import bso_presentation

        return bso_presentation(resolve_variety(spec[3:], ctx))
    usage = "(use builtin:NAME, PATH, PATH:NAME, or di:SPEC)"
    return _resolve(spec, "presentation", catalog.presentation,
                    f"variety {spec!r} {usage}", ctx)


def resolve_morphism(spec: str, ctx=None) -> MorphismEntry:
    usage = "(use builtin:NAME, PATH, or PATH:NAME)"
    return _resolve(spec, "morphism", catalog.morphism,
                    f"morphism {spec!r} {usage}", ctx)


def _parse_identity_text(text: str, sig, ctx):
    forms = read_forms(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one identity expression", 1, 1)
    return parse_identity_body(forms[0], sig, ctx)


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


def _report(args, ctx, names, digest, degree=None, dims=None, checks=None,
            verdict=None, **listings):
    """A report, keyed in the order the module docstring gives."""
    report = {"command": args.command, **names, "inputs_digest": digest,
              "field": ctx.field.name, "degree": degree, "dims": dims}
    report.update(checks or {})
    report["verdict"] = verdict
    report.update(listings)
    return report


def _dims(ambient, ideal):
    quotient = None if ideal is None else ambient - ideal
    return {"ambient": ambient, "ideal": ideal, "quotient": quotient}


def _cmd_basis(args, ctx):
    variety = resolve_variety(args.variety, ctx)
    monomials = enumerate_monomials(variety.signature, args.degree, ctx)
    return _report(args, ctx, {"variety": variety.name}, variety.digest,
                   args.degree, _dims(len(monomials), None),
                   basis=[format_node(m.node) for m in monomials])


def _ranks_key(digest, field, n) -> str:
    return f"young-ranks-v1:{digest}:{field.name}:{n}"


def _decode_ranks(stored, n, nblocks):
    """The stored ranks, or None unless they are one int per partition of
    n, each between 0 and nblocks·d_λ, beside an int dimension equal to
    their weighted sum Σ d_λ·r_λ."""
    from .young import dimensions

    try:
        ranks, dim = stored["ranks"], stored["dim"]
    except (LookupError, TypeError):
        return None
    dims = dimensions(n)
    valid = (
        type(ranks) is list
        and len(ranks) == len(dims)
        and all(type(r) is int for r in ranks + [dim])
        and all(0 <= r <= nblocks * d for r, d in zip(ranks, dims))
        and dim == sum(map(int.__mul__, dims, ranks))
    )
    return ranks if valid else None


def _cmd_dim(args, ctx):
    """The one reader and writer of the disk cache.  Where k[S_n] is
    semisimple the ideal has dimension Σ d_λ·r_λ, and the ranks r_λ are
    read from the degree's entry or, on a miss, computed
    (``ideals.partition_ranks``) and written there.  The degree cap is
    checked before the entry is read, and a hit loads no engine."""
    from .cache import DiskCache, default_cache_dir
    from .layout import basis_layout
    from .young import _semisimple, dimensions

    variety, n = resolve_variety(args.variety, ctx), args.degree
    layout = basis_layout(variety.signature, n, ctx)
    cache = ranks = None
    if _semisimple(ctx.field, n) and not args.no_cache:
        cache = DiskCache(default_cache_dir())
        key = _ranks_key(variety.digest, ctx.field, n)
        ranks = _decode_ranks(cache.get(key), n, len(layout.skeletons))
    if ranks is None:
        from .ideals import ideal_dimensions, partition_ranks

        ideal = ideal_dimensions(variety, n, ctx)[1]
        if cache is not None:
            cache.put(key, {"ranks": partition_ranks(variety, n, ctx), "dim": ideal})
    else:
        ideal = sum(map(int.__mul__, dimensions(n), ranks))
    return _report(args, ctx, {"variety": variety.name}, variety.digest,
                   n, _dims(layout.ncols, ideal))


def _cmd_implies(args, ctx):
    from .ideals import degree_component

    variety = resolve_variety(args.variety, ctx)
    p = _parse_identity_text(args.identity, variety.signature, ctx)
    comp = degree_component(variety, p.degree, ctx)
    names = {"variety": variety.name, "identity": format_polynomial(p)}
    return _report(args, ctx, names, variety.digest, p.degree,
                   _dims(comp.ambient_dimension, comp.ideal.dim),
                   verdict=comp.contains(p))


def _di_equivalence(variety, degree, ctx):
    """The degree, dims, checks and verdict of a verify-di report."""
    from .dialgebra import verify_dialgebra_equivalence

    rep = verify_dialgebra_equivalence(variety, degree, ctx)
    return {
        "degree": degree,
        "dims": _dims(rep.ambient_dimension, rep.ideal_dimension),
        "checks": {"expected_quotient": rep.expected_quotient_dimension},
        "verdict": rep.equal,
    }


def _cmd_dialgebrize(args, ctx):
    from .dialgebra import bso_presentation

    variety = resolve_variety(args.variety, ctx)
    divar = bso_presentation(variety)
    checked = {"checks": {"expected_quotient": None}}
    if args.verify_degree is not None:
        checked = _di_equivalence(variety, args.verify_degree, ctx)
    return _report(args, ctx, {"variety": variety.name}, variety.digest,
                   **checked, result=divar.name, result_digest=divar.digest,
                   presentation=format_presentation(divar))


def _cmd_verify_di(args, ctx):
    variety = resolve_variety(args.variety, ctx)
    return _report(args, ctx, {"variety": variety.name}, variety.digest,
                   **_di_equivalence(variety, args.degree, ctx))


def _special(identities, format_basis, args, ctx):
    """special and special-di, which differ in the library call, the basis
    formatter, and the lift-match verdict that only special-di has."""
    entry = resolve_morphism(args.morphism, ctx)
    rep = identities(entry.morphism, entry.source, args.degree, ctx,
                     basis=args.basis)
    listings = {}
    if args.basis:
        listings["basis"] = [format_basis(p) for p in rep.basis]
    return _report(
        args, ctx, {"morphism": rep.morphism, "source": entry.source.name},
        entry.morphism.digest, args.degree,
        _dims(rep.ambient_dimension, rep.ideal_dimension),
        checks={"kernel": rep.kernel_dimension,
                "special": rep.special_dimension},
        verdict=getattr(rep, "matches_lifted", None),
        **listings,
    )


def _cmd_special(args, ctx):
    from .morphisms import special_identities

    return _special(special_identities, format_polynomial, args, ctx)


def _cmd_special_di(args, ctx):
    from .morphisms import di_special_identities

    return _special(di_special_identities, _format_dipolynomial, args, ctx)


def _cmd_verify_bso(args, ctx):
    from .morphisms import verify_bso_theorem

    entry = resolve_morphism(args.morphism, ctx)
    rep = verify_bso_theorem(entry.morphism, entry.source, args.degree, ctx)
    last = rep.comparisons[-1]
    comparisons = [
        {
            "degree": c.degree,
            "ambient": c.ambient_dimension,
            "kernel": c.kernel_dimension,
            "consequences": c.consequence_dimension,
            "equal": c.equal,
        }
        for c in rep.comparisons
    ]
    return _report(args, ctx, {"morphism": entry.morphism.name},
                   entry.morphism.digest, args.degree,
                   _dims(last.ambient_dimension, last.consequence_dimension),
                   checks={"comparisons": comparisons}, verdict=rep.verdict)


def _cmd_catalog(args, ctx):
    return _report(args, ctx, {}, None,
                   presentations=list(catalog.presentation_names()),
                   morphisms=list(catalog.morphism_names()))


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

    def add(name, func, help_text, subject=None, degree=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        if subject is not None:
            p.add_argument(f"--{subject}", required=True, metavar="SPEC")
        if degree:
            p.add_argument("--degree", type=int, required=True, metavar="N")
        return p

    add("basis", _cmd_basis, "enumerate the multilinear monomials of a degree",
        "variety", degree=True)
    add("dim", _cmd_dim, "ambient, ideal, and quotient dimensions at a degree",
        "variety", degree=True)

    p = add("implies", _cmd_implies,
            "test whether an identity follows from a presentation", "variety")
    p.add_argument(
        "--identity",
        required=True,
        metavar="EXPR",
        help="s-expression, optionally wrapped in (linearize ...)",
    )

    p = add("dialgebrize", _cmd_dialgebrize,
            "emit the dialgebra counterpart of a presentation", "variety")
    p.add_argument(
        "--verify-degree",
        type=int,
        default=None,
        metavar="N",
        help="also check at degree N that the counterpart's consequences are "
        "the collapse preimage of N copies of the plain ideal",
    )

    add("verify-di", _cmd_verify_di,
        "check that the dialgebra counterpart's consequences at degree N "
        "are the collapse preimage of N copies of the plain ideal",
        "variety", degree=True)

    for name, func, help_text in (
        ("special", _cmd_special,
         "identities of the morphism image beyond the source presentation"),
        ("special-di", _cmd_special_di,
         "emphasized special identities and the lift-match flag"),
    ):
        p = add(name, func, help_text, "morphism", degree=True)
        p.add_argument("--basis", action="store_true", help="list the basis")

    add("verify-bso", _cmd_verify_bso,
        "compare the doubled kernel with the lifted-kernel consequences",
        "morphism", degree=True)

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
        ctx = Context(parse_field(args.field), args.max_degree)
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
