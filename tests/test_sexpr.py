"""Reading and writing the s-expression input format."""

from __future__ import annotations

from fractions import Fraction

import pytest

from dioperad import catalog
from dioperad.dialgebra import bso_presentation
from dioperad.ideals import consequences_at_degree
from dioperad.morphisms import special_identities
from dioperad.sexpr import (
    MAX_DEPTH,
    MorphismEntry,
    ParseError,
    format_presentation,
    parse_document,
    parse_expression,
    parse_presentation,
    read_forms,
)
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    double_signature,
    format_polynomial,
)
from dioperad.fields import QQ

BIN = Signature([("mul", 2)])


def expr(text, sig=BIN):
    (form,) = read_forms(text)
    return parse_expression(form, sig)


def poly(terms):
    return Polynomial(QQ, {Monomial(k): v for k, v in terms.items()})


def test_expression_basics():
    assert expr("(mul 1 2)") == poly({("mul", 1, 2): 1})
    assert expr("(- (mul 1 2) (mul 2 1))") == poly(
        {("mul", 1, 2): 1, ("mul", 2, 1): -1}
    )
    assert expr("(- (mul 1 2))") == poly({("mul", 1, 2): -1})
    assert expr("(* 3/2 (mul 1 2))") == poly(
        {("mul", 1, 2): Fraction(3, 2)}
    )
    assert expr("(* -2 (mul 1 2))") == poly({("mul", 1, 2): -2})


def test_expression_distributes_sums_inside_operations():
    assert expr("(mul (+ (mul 1 2) (mul 2 1)) 3)") == poly(
        {("mul", ("mul", 1, 2), 3): 1, ("mul", ("mul", 2, 1), 3): 1}
    )


def test_expression_cancellation_keeps_degree():
    p = expr("(- (mul 1 2) (mul 1 2))")
    assert p.is_zero and p.degree == 2


def test_expression_errors_carry_positions():
    with pytest.raises(ParseError, match="line 1, column 2"):
        expr("(frob 1 2)")
    with pytest.raises(ParseError, match="expects 2 arguments"):
        expr("(mul 1 2 3)")
    with pytest.raises(ParseError, match="unclosed"):
        read_forms("(mul 1 2")
    with pytest.raises(ParseError, match="unmatched"):
        read_forms(")")
    with pytest.raises(ParseError, match="mixed degrees"):
        expr("(+ (mul 1 2) (mul (mul 1 2) 3))")
    with pytest.raises(ParseError, match="linearize"):
        expr("(mul (linearize (mul 1 1)) 3)")


def test_nesting_is_bounded():
    (form,) = read_forms("(" * MAX_DEPTH + ")" * MAX_DEPTH)
    assert form.line == form.col == 1
    deeper = "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1)
    with pytest.raises(ParseError) as excinfo:
        read_forms(deeper)
    assert str(excinfo.value) == (
        f"line 1, column {MAX_DEPTH + 1}: forms nested deeper than {MAX_DEPTH}"
    )


def test_comments_and_whitespace():
    text = """
    ; a remark
    (mul 1 ; inline remark
         2)
    """
    assert expr(text) == poly({("mul", 1, 2): 1})


def test_parse_presentation_with_linearize():
    (form,) = read_forms(
        """
        (presentation jordanish
          (signature (op mul 2))
          (identity square (linearize (mul (mul 1 1) 2))))
        """
    )
    p = parse_presentation(form)
    assert p.generator_names == ("square",)
    assert p.generators[0] == poly(
        {("mul", ("mul", 1, 2), 3): 1, ("mul", ("mul", 2, 1), 3): 1}
    )


def test_anonymous_presentation():
    doc = parse_document(
        """
        (signature (op mul 2))
        (identity commutativity (- (mul 1 2) (mul 2 1)))
        """
    )
    assert set(doc.presentations) == {"anonymous"}
    v = doc.presentations["anonymous"]
    assert v.generator_names == ("commutativity",)


def test_document_with_morphism_and_resolver():
    doc = parse_document(
        """
        (presentation square-free
          (signature (op b 2))
          (identity alt (b 1 2)))
        (morphism collapse
          (source square-free)
          (target assoc)
          (image b (- (mul 1 2) (mul 2 1))))
        """,
        resolver=lambda name: catalog.presentation(name)
        if name in catalog.presentation_names()
        else None,
    )
    entry = doc.morphisms["collapse"]
    assert entry.source.name == "square-free"
    assert entry.morphism.target.name == "assoc"


def test_document_errors():
    with pytest.raises(ParseError, match="unknown presentation"):
        parse_document(
            "(morphism m (source nowhere) (target nowhere) (image b 1))"
        )
    with pytest.raises(ParseError, match="duplicate presentation"):
        parse_document(
            "(presentation a (signature (op m 2)))"
            "(presentation a (signature (op m 2)))"
        )
    with pytest.raises(ParseError, match="unknown form"):
        parse_document("(frobnicate 1)")


@pytest.mark.parametrize("clause, again", [
    ("source", "(source free-binary)"),
    ("target", "(target assoc)"),
    ("image mul", "(image mul (mul 2 1))"),
])
def test_repeated_morphism_clause_is_refused(clause, again):
    text = (
        "(morphism m (source free-binary) (target com-assoc)\n"
        "  (image mul (mul 1 2))\n"
        f"  {again})"
    )
    with pytest.raises(ParseError) as info:
        parse_document(text, resolver=catalog.presentation)
    assert (info.value.line, info.value.col) == (3, 3)
    assert str(info.value) == (
        f"line 3, column 3: repeated morphism clause ({clause} ...)"
    )


@pytest.mark.parametrize("text, line, col", [
    ("(presentation a (signature (op m 2))\n"
     "  (identity e (m 1 2))\n"
     "  (identity e (m 2 1)))", 3, 3),
    ("(signature (op m 2))\n"
     "(identity e (m 1 2))\n"
     "(identity e (m 2 1))", 3, 1),
], ids=["named", "bare"])
def test_repeated_identity_name_is_refused(text, line, col):
    """Two identities of one presentation never share a name, so the
    doubled presentation's names (``e.e1``) and its errors stay unique."""
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"line {line}, column {col}: repeated identity 'e'"


def test_dashv_vdash_aliases_on_doubled_signature():
    dsig = double_signature(BIN)
    p = expr("(- (vdash 1 (vdash 2 3)) (vdash (vdash 1 2) 3))", dsig)
    assert p == poly(
        {("mul^2", 1, ("mul^2", 2, 3)): 1, ("mul^2", ("mul^2", 1, 2), 3): -1}
    )
    assert expr("(dashv 1 2)", dsig) == poly({("mul^1", 1, 2): 1})
    # no aliases on the plain signature
    with pytest.raises(ParseError, match="unknown operation"):
        expr("(vdash 1 2)", BIN)


def test_format_round_trip_for_presentations():
    for name in catalog.presentation_names():
        v = catalog.presentation(name)
        text = format_presentation(v)
        doc = parse_document(text)
        again = doc.presentations[name]
        assert again.digest == v.digest


def format_morphism(entry: MorphismEntry) -> str:
    mor = entry.morphism
    lines = [
        f"(morphism {mor.name}",
        f"  (source {entry.source.name})",
        f"  (target {mor.target.name})",
    ]
    for op in mor.source_signature.names:
        lines.append(f"  (image {op} {format_polynomial(mor.images[op])})")
    return "\n".join(lines) + ")"


def test_format_round_trip_for_morphisms():
    for name in catalog.morphism_names():
        entry = catalog.morphism(name)
        text = (
            format_presentation(entry.source)
            + "\n"
            + format_presentation(entry.morphism.target)
            + "\n"
            + format_morphism(entry)
        )
        doc = parse_document(text)
        again = doc.morphisms[name]
        assert again.morphism.digest == entry.morphism.digest


def test_catalog_contents():
    assert set(catalog.presentation_names()) == {
        "assoc",
        "com-assoc",
        "perm",
        "free-binary",
        "lie",
        "jordan",
        "jts",
    }
    assert set(catalog.morphism_names()) == {
        "lie-to-assoc",
        "jordan-to-assoc",
        "jts-to-assoc",
        "jts-to-jordan",
        "free-to-com-assoc",
    }
    with pytest.raises(ValueError, match="no builtin"):
        catalog.presentation("nope")
    with pytest.raises(ValueError, match="no builtin"):
        catalog.morphism("nope")


def test_catalog_jordan_is_linearized_at_load():
    jordan = catalog.presentation("jordan")
    lin = dict(zip(jordan.generator_names, jordan.generators))["jordan"]
    assert lin.degree == 4
    assert len(lin.terms) == 12


def test_catalog_perm_dimensions():
    perm = catalog.presentation("perm")
    for n in range(2, 6):
        assert consequences_at_degree(perm, n).quotient_dimension == n


def test_catalog_jts_to_jordan_precondition_holds():
    entry = catalog.morphism("jts-to-jordan")
    rep = special_identities(entry.morphism, entry.source, 3)
    assert rep.special_dimension == 0


def test_catalog_free_to_com_assoc_kernel():
    entry = catalog.morphism("free-to-com-assoc")
    # at degree 2 the kernel is mul(1,2) - mul(2,1)
    rep = special_identities(entry.morphism, entry.source, 2)
    assert rep.kernel_dimension == 1
    assert rep.basis == (expr("(- (mul 1 2) (mul 2 1))"),)
    assert consequences_at_degree(entry.source, 2).ideal.dim == 0


def test_dialgebrized_builtin_formats_cleanly():
    text = format_presentation(bso_presentation(catalog.presentation("lie")))
    assert "di-lie" in text
    assert "bracket^1" in text and "bracket^2" in text
    doc = parse_document(text)
    assert "di-lie" in doc.presentations


def test_formatting_uses_canonical_term_order():
    p = poly({("mul", 1, ("mul", 2, 3)): 1, ("mul", ("mul", 1, 2), 3): 1})
    assert (
        format_polynomial(p)
        == "(+ (mul (mul 1 2) 3) (mul 1 (mul 2 3)))"
    )
