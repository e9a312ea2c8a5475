"""Doubling, emphasis translation, and dialgebra presentations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from dioperad import Context, catalog, dialgebra, ideals
from dioperad.dialgebra import (
    bso_presentation,
    collapses_into,
    is_collapse_preimage,
    superscript,
    superscript_poly,
    verify_dialgebra_equivalence,
    zero_identities,
)
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    consequences_at_degree,
    poly_to_vector,
    vector_to_poly,
)
from dioperad.layout import _perm_column_maps, basis_layout
from dioperad.linalg import row_reduce
from dioperad.morphisms import verify_bso_theorem
from dioperad.presentations import VarietyPresentation
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    apply_permutation,
    double_signature,
    enumerate_monomials,
    substitute_at,
)
from oracles import (
    EmphasizedMonomial,
    di_ideal_at_degree,
    dipolynomial_vector,
    from_doubled,
    morphism_kernel_at_degree,
    row_bso_theorem,
    row_dialgebra_equivalence,
    row_ideal_component,
    same_subspace,
    to_doubled,
    trusted_subspace,
    unsuperscript,
    vector_to_dipolynomial,
    zeta_preimage,
)

BRK = Signature([("b", 2)])
BIN = Signature([("mul", 2)])
TERN = Signature([("t", 3)])
MIXED = Signature([("mul", 2), ("t", 3)])


def poly(terms, field=QQ):
    return Polynomial(field, {Monomial(k): v for k, v in terms.items()})


LIE = VarietyPresentation(
    "lie",
    BRK,
    [
        poly({("b", 1, 2): 1, ("b", 2, 1): 1}),
        poly(
            {
                ("b", 1, ("b", 2, 3)): 1,
                ("b", ("b", 1, 2), 3): -1,
                ("b", 2, ("b", 1, 3)): -1,
            }
        ),
    ],
    ["antisymmetry", "jacobi"],
)

ASSOC = VarietyPresentation(
    "assoc",
    BIN,
    [poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1})],
    ["assoc"],
)

FREE = VarietyPresentation("free-binary", BIN, [], [])


def test_unsuperscript_examples():
    m = Monomial(("mul^2", ("mul^1", 1, 2), 3))
    plain, leaf = unsuperscript(m)
    assert plain == Monomial(("mul", ("mul", 1, 2), 3))
    assert leaf == 3
    m = Monomial(("mul^1", ("mul^2", 1, 2), 3))
    assert unsuperscript(m) == EmphasizedMonomial(
        Monomial(("mul", ("mul", 1, 2), 3)), 2
    )
    # the message names the whole monomial, not the offending subtree
    message = r"^superscript 3 out of range in \(mul\^1 \(mul\^3 1 2\) 3\)$"
    with pytest.raises(ValueError, match=message):
        unsuperscript(Monomial(("mul^1", ("mul^3", 1, 2), 3)))


def test_superscript_examples():
    m = Monomial(("mul", ("mul", 1, 2), 3))
    assert superscript(m, 3) == Monomial(("mul^2", ("mul^1", 1, 2), 3))
    assert superscript(m, 1) == Monomial(("mul^1", ("mul^1", 1, 2), 3))
    assert superscript(m, 2) == Monomial(("mul^1", ("mul^2", 1, 2), 3))
    with pytest.raises(ValueError):
        superscript(m, 4)


@pytest.mark.parametrize("sig,maxdeg", [(BIN, 5), (TERN, 5), (MIXED, 4)])
def test_unsuperscript_after_superscript_is_identity(sig, maxdeg):
    for n in range(1, maxdeg + 1):
        for m in enumerate_monomials(sig, n):
            for k in range(1, n + 1):
                assert unsuperscript(superscript(m, k)) == EmphasizedMonomial(
                    m, k
                )


def test_collapse_then_lift_is_identity_on_fibers():
    dsig = double_signature(BIN)
    for n in range(2, 5):
        for m in enumerate_monomials(dsig, n):
            plain, leaf = unsuperscript(m)
            again = unsuperscript(superscript(plain, leaf))
            assert again == EmphasizedMonomial(plain, leaf)


def test_superscript_is_equivariant():
    for n in range(2, 5):
        for m in enumerate_monomials(BIN, n):
            for k in range(1, n + 1):
                for perm in itertools.permutations(range(1, n + 1)):
                    lhs = apply_permutation(perm, superscript(m, k))
                    rhs = superscript(apply_permutation(perm, m), perm[k - 1])
                    assert lhs == rhs


def test_zero_identity_counts():
    assert len(zero_identities(BIN)[1]) == 2
    assert len(zero_identities(TERN)[1]) == 18
    assert len(zero_identities(MIXED)[1]) == 32


def test_zero_identity_shape_for_one_binary_operation():
    names, polys = zero_identities(BIN)
    assert names == ("zero-mul1-s2-mul12", "zero-mul2-s1-mul12")
    assert polys[0] == poly(
        {("mul^1", 1, ("mul^1", 2, 3)): 1, ("mul^1", 1, ("mul^2", 2, 3)): -1}
    )
    assert polys[1] == poly(
        {("mul^2", ("mul^1", 1, 2), 3): 1, ("mul^2", ("mul^2", 1, 2), 3): -1}
    )


def test_zero_identities_collapse_to_nothing():
    for sig in (BIN, TERN, MIXED):
        for p in zero_identities(sig)[1]:
            assert from_doubled(p).is_zero


def emphasis_kernel_rows(dsig, n: int, field, ctx=None):
    """Differences between each doubled monomial and the lift of its
    emphasized image: a basis of the kernel of the collapse map."""
    layout = basis_layout(dsig, n, ctx)
    rows = []
    for i, m in enumerate(enumerate_monomials(dsig, n, ctx)):
        plain, leaf = unsuperscript(m)
        j = layout[superscript(plain, leaf).node]
        if j != i:
            rows.append({i: field.one, j: field.neg(field.one)})
    return rows


def lift_vector(p: Polynomial, k: int, dlayout) -> dict:
    """Coordinates of the emphasis-k lift of a plain polynomial inside the
    doubled basis of the same degree."""
    return poly_to_vector(superscript_poly(p, k), dlayout)


def test_emphasis_kernel_dimension():
    dsig = double_signature(BIN)
    for n in range(2, 5):
        doubled = len(enumerate_monomials(dsig, n))
        plain = len(enumerate_monomials(BIN, n))
        rows = emphasis_kernel_rows(dsig, n, QQ)
        assert len(rows) == doubled - n * plain


def test_emphasis_kernel_spanned_by_zero_identity_consequences():
    divar = bso_presentation(FREE)
    comp = consequences_at_degree(divar, 3)
    assert comp.ideal.dim == len(emphasis_kernel_rows(divar.signature, 3, QQ))
    for row in emphasis_kernel_rows(divar.signature, 3, QQ):
        assert comp.ideal.contains(row)


def test_bso_presentation_of_lie_lists_lifted_identities():
    divar = bso_presentation(LIE)
    assert divar.name == "di-lie"
    assert divar.signature.names == ("b^1", "b^2")
    byname = dict(zip(divar.generator_names, divar.generators))
    assert byname["antisymmetry.e1"] == poly(
        {("b^1", 1, 2): 1, ("b^2", 2, 1): 1}
    )
    assert byname["antisymmetry.e2"] == poly(
        {("b^2", 1, 2): 1, ("b^1", 2, 1): 1}
    )
    assert byname["jacobi.e1"] == poly(
        {
            ("b^1", 1, ("b^1", 2, 3)): 1,
            ("b^1", ("b^1", 1, 2), 3): -1,
            ("b^2", 2, ("b^1", 1, 3)): -1,
        }
    )


def test_dialgebra_counterpart_of_lie_has_leibniz_dimensions():
    # one-sided analogue: n * (n-1)! basis elements in each degree
    divar = bso_presentation(LIE)
    for n, expected in [(2, 2), (3, 6), (4, 24)]:
        comp = consequences_at_degree(divar, n)
        assert comp.quotient_dimension == expected


def test_left_leibniz_identity_holds_in_dialgebra_counterpart_of_lie():
    divar = bso_presentation(LIE)
    comp = consequences_at_degree(divar, 3)
    # x (y z) - (x y) z - y (x z) with all products "emphasis on the right"
    leib = poly(
        {
            ("b^2", 1, ("b^2", 2, 3)): 1,
            ("b^2", ("b^2", 1, 2), 3): -1,
            ("b^2", 2, ("b^2", 1, 3)): -1,
        }
    )
    assert comp.contains(leib)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
@pytest.mark.parametrize("variety", [FREE, LIE, ASSOC])
def test_equivalence_report_small_degrees(field, variety):
    ctx = Context(field)
    for n in (2, 3):
        rep = verify_dialgebra_equivalence(variety, n, ctx)
        assert rep.equal
        assert rep.quotient_dimension == rep.expected_quotient_dimension


def test_dipolynomial_round_trip():
    dsig = double_signature(BIN)
    for m in enumerate_monomials(dsig, 3)[:12]:
        p = Polynomial.monomial(m)
        di = from_doubled(p)
        # collapse-then-lift lands on the canonical fiber representative
        back = to_doubled(di)
        plain, leaf = unsuperscript(m)
        assert back == Polynomial.monomial(superscript(plain, leaf))


PERM = VarietyPresentation(
    "perm",
    BIN,
    [
        poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1}),
        poly({("mul", ("mul", 1, 2), 3): 1, ("mul", ("mul", 2, 1), 3): -1}),
    ],
    ["assoc", "left-comm"],
)


def test_di_ideal_block_codimensions():
    for variety, codim in ((ASSOC, 18), (LIE, 6), (PERM, 9)):
        space = di_ideal_at_degree(variety, 3)
        assert space.ncols == 36
        assert space.ncols - space.dim == codim


def test_di_ideal_vectors_decode_componentwise():
    comp = consequences_at_degree(ASSOC, 3)
    space = di_ideal_at_degree(ASSOC, 3)
    for r in space.rows:
        dp = vector_to_dipolynomial(r, comp.layout, QQ)
        for part in dp.components:
            assert part.is_zero or comp.contains(part)
        assert dipolynomial_vector(dp, comp.layout) == r


def test_zeta_preimage_matches_kernel_plus_lifts():
    for variety in (FREE, LIE, ASSOC):
        dsig = double_signature(variety.signature)
        comp = consequences_at_degree(variety, 3)
        block = di_ideal_at_degree(variety, 3)
        via_kernel = zeta_preimage(dsig, 3, block)

        dlayout = basis_layout(dsig, 3)
        rows = emphasis_kernel_rows(dsig, 3, QQ)
        for r in comp.ideal.rows:
            p = vector_to_poly(r, comp.layout, QQ)
            for k in range(1, 4):
                rows.append(lift_vector(p, k, dlayout))
        via_lifts = row_reduce(QQ, dlayout.ncols, rows)
        assert same_subspace(via_kernel, via_lifts)


def _verdict_via_preimage(variety, n, ctx):
    """The equivalence verdict the long way: build the whole collapse
    preimage and compare.  Looks ``bso_presentation`` up at call time so a
    patched presentation is seen here too."""
    divar = dialgebra.bso_presentation(variety)
    di = consequences_at_degree(divar, n, ctx)
    block = di_ideal_at_degree(variety, n, ctx)
    preimage = zeta_preimage(divar.signature, n, block, ctx)
    return same_subspace(di.ideal, preimage)


FIELDS = [QQ, PrimeField(1000003)]


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
@pytest.mark.parametrize("name", ["free-binary", "lie", "assoc", "jts"])
def test_equivalence_verdict_matches_preimage_oracle(name, field):
    variety = catalog.presentation(name)
    ctx = Context(field)
    for n in (3, 4):
        rep = verify_dialgebra_equivalence(variety, n, ctx)
        assert rep.equal is _verdict_via_preimage(variety, n, ctx) is True


def _drop_first_zero_identity(variety):
    full = bso_presentation(variety)
    return VarietyPresentation(
        full.name, full.signature, full.generators[1:], full.generator_names[1:]
    )


def _misplace_first_zero_identity(variety):
    """Replace the first zero identity by one that equates the two inner
    superscripts at the slot the outer superscript points to.  Its two
    terms collapse onto different emphasized leaves."""
    full = bso_presentation(variety)
    (f, _), = variety.signature.operations
    outer = Monomial((f"{f}^1", 1, 2))
    wrong = substitute_at(outer, 1, Monomial((f"{f}^1", 1, 2))) - substitute_at(
        outer, 1, Monomial((f"{f}^2", 1, 2))
    )
    return VarietyPresentation(
        full.name,
        full.signature,
        (wrong,) + full.generators[1:],
        full.generator_names,
    )


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
def test_equivalence_fails_on_the_dimension(monkeypatch, field):
    monkeypatch.setattr(dialgebra, "bso_presentation", _drop_first_zero_identity)
    ctx = Context(field)
    rep = verify_dialgebra_equivalence(ASSOC, 4, ctx)
    assert rep.ideal_dimension < 864
    assert rep.equal is _verdict_via_preimage(ASSOC, 4, ctx) is False
    assert rep == row_dialgebra_equivalence(ASSOC, 4, Context(field))


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
def test_equivalence_fails_on_containment(monkeypatch, field):
    monkeypatch.setattr(
        dialgebra, "bso_presentation", _misplace_first_zero_identity
    )
    ctx = Context(field)
    for n, preimage_dim in ((3, 30), (4, 864)):
        rep = verify_dialgebra_equivalence(ASSOC, n, ctx)
        # the dimension matches the preimage, so only containment can fail
        assert rep.ideal_dimension == preimage_dim
        assert rep.equal is _verdict_via_preimage(ASSOC, n, ctx) is False
        assert rep == row_dialgebra_equivalence(ASSOC, n, Context(field))


@pytest.mark.parametrize(
    "field", FIELDS + [PrimeField(3)], ids=["q", "p", "p3-rows-at-3-and-4"]
)
@pytest.mark.parametrize("name", catalog.presentation_names())
def test_verify_di_by_module_generators_matches_the_row_path(name, field):
    variety = catalog.presentation(name)
    for n in (2, 3, 4):
        rep = verify_dialgebra_equivalence(variety, n, Context(field))
        assert rep == row_dialgebra_equivalence(variety, n, Context(field))
        assert rep.equal


@pytest.mark.parametrize(
    "field, expanded",
    [(QQ, []), (PrimeField(1000003), []), (PrimeField(3), [3, 4])],
    ids=["q", "p", "p3"],
)
def test_verify_di_expands_the_doubled_ideal_only_at_p_up_to_n(
    monkeypatch, field, expanded
):
    ctx = Context(field)
    dsig = double_signature(ASSOC.signature)
    close = ideals._close
    seen = []

    def counted(field, layout, candidates):
        # a closure runs on the type columns of a fold of the degree's layout
        if layout.layout is basis_layout(dsig, layout.degree, ctx):
            seen.append(layout.degree)
        return close(field, layout, candidates)

    monkeypatch.setattr(ideals, "_close", counted)
    rep = verify_dialgebra_equivalence(ASSOC, 4, ctx)
    assert rep.equal and rep.ideal_dimension == 864
    assert sorted(seen) == expanded


def _random_combination(rows, field, rng):
    out: dict = {}
    for row in rng.sample(rows, min(3, len(rows))):
        c = field.coerce(rng.randrange(1, 50))
        for col, v in row.items():
            nv = field.add(out.get(col, field.zero), field.mul(c, v))
            if nv:
                out[col] = nv
            else:
                out.pop(col, None)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
@pytest.mark.parametrize(
    "variety, n", [(ASSOC, 3), (LIE, 4), (FREE, 3)], ids=["assoc3", "lie4", "free3"]
)
def test_collapse_preimage_is_symmetric_group_stable(variety, n, field):
    ctx = Context(field)
    dsig = double_signature(variety.signature)
    base = consequences_at_degree(variety, n, ctx).ideal
    preimage = zeta_preimage(dsig, n, di_ideal_at_degree(variety, n, ctx), ctx)
    relabellings = _perm_column_maps(basis_layout(dsig, n, ctx))
    rng = random.Random(f"{variety.name}-{n}-{field.name}")
    for _ in range(20):
        row = _random_combination(list(preimage.rows), field, rng)
        assert collapses_into(dsig, n, [row], base, ctx)
        # a random word in a transposition and an n-cycle
        for _ in range(rng.randrange(1, 2 * n)):
            row = rng.choice(relabellings)(row)
            assert collapses_into(dsig, n, [row], base, ctx)


def test_collapses_into_rejects_a_row_outside_the_preimage():
    dsig = double_signature(ASSOC.signature)
    base = consequences_at_degree(ASSOC, 3).ideal
    preimage = zeta_preimage(dsig, 3, di_ideal_at_degree(ASSOC, 3))
    assert collapses_into(dsig, 3, preimage.rows, base)
    outside = next(
        {c: QQ.one}
        for c in range(preimage.ncols)
        if not preimage.contains({c: QQ.one})
    )
    assert not collapses_into(dsig, 3, [outside], base)
    assert not collapses_into(dsig, 3, list(preimage.rows) + [outside], base)
    with pytest.raises(ValueError, match="columns"):
        collapses_into(dsig, 3, [], consequences_at_degree(ASSOC, 2).ideal)
    with pytest.raises(ValueError, match="columns"):
        collapses_into(dsig, 3, [], di_ideal_at_degree(ASSOC, 3))


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
def test_is_collapse_preimage_fails_on_each_condition(field):
    dsig = double_signature(ASSOC.signature)
    ctx = Context(field)
    base = consequences_at_degree(ASSOC, 3, ctx).ideal
    preimage = zeta_preimage(dsig, 3, di_ideal_at_degree(ASSOC, 3, ctx), ctx)
    assert is_collapse_preimage(dsig, 3, preimage.dim, preimage.rows, base, ctx)

    outside = next(
        {c: field.one}
        for c in range(preimage.ncols)
        if not preimage.contains({c: field.one})
    )
    swapped = row_reduce(field, preimage.ncols, preimage.rows[:-1] + (outside,))
    # right dimension, so only containment can fail
    assert swapped.dim == preimage.dim
    assert not collapses_into(dsig, 3, swapped.rows, base, ctx)
    assert not is_collapse_preimage(dsig, 3, swapped.dim, swapped.rows, base, ctx)

    # every row collapses into the base, so only the dimension can fail
    short = trusted_subspace(field, preimage.ncols, preimage.rows[:-1])
    assert collapses_into(dsig, 3, short.rows, base, ctx)
    assert not is_collapse_preimage(dsig, 3, short.dim, short.rows, base, ctx)


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_verify_bso_by_module_generators_matches_the_row_path(name, field):
    entry = catalog.morphism(name)
    rep = verify_bso_theorem(entry.morphism, entry.source, 4, Context(field))
    assert rep == row_bso_theorem(entry.morphism, entry.source, 4, Context(field))
    assert rep.verdict


def _stacked_kernel(mor, m, ctx):
    """The doubled kernel built the long way: collapse-kernel rows plus
    every emphasized lift of the plain kernel, row-reduced."""
    field = ctx.field
    dsig = double_signature(mor.source_signature)
    dlayout = basis_layout(dsig, m, ctx)
    rows = emphasis_kernel_rows(dsig, m, field, ctx)
    kernel = morphism_kernel_at_degree(mor, m, ctx)
    src_layout = basis_layout(mor.source_signature, m, ctx)
    for r in kernel.rows:
        p = vector_to_poly(r, src_layout, field)
        for k in range(1, m + 1):
            rows.append(lift_vector(p, k, dlayout))
    return row_reduce(field, dlayout.ncols, rows), kernel


def _bso_consequence(mor, m, ctx):
    """The degree-m ideal that ``verify_bso_theorem`` compares, rebuilt from
    its generators: the zero identities and the lifts of the plain kernels
    up to degree m."""
    field = ctx.field
    dsig = double_signature(mor.source_signature)
    gens = [q.convert(field) for q in zero_identities(mor.source_signature)[1]]
    for j in range(2, m + 1):
        layout = basis_layout(mor.source_signature, j, ctx)
        for r in morphism_kernel_at_degree(mor, j, ctx).rows:
            q = vector_to_poly(r, layout, field)
            gens.extend(superscript_poly(q, k) for k in range(1, j + 1))
    digest = f"bso-oracle:{mor.digest}"
    return row_ideal_component(dsig, tuple(gens), digest, m, ctx)


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_verify_bso_matches_stacked_kernel_oracle(name, field):
    entry = catalog.morphism(name)
    mor = entry.morphism
    dsig = double_signature(mor.source_signature)
    ctx = Context(field)
    rep = verify_bso_theorem(mor, entry.source, 4, ctx)
    assert [c.degree for c in rep.comparisons] == [2, 3, 4]
    for c in rep.comparisons:
        stacked, kernel = _stacked_kernel(mor, c.degree, ctx)
        block = trusted_subspace(
            field,
            c.degree * kernel.ncols,
            [
                {k * kernel.ncols + col: v for col, v in r.items()}
                for k in range(c.degree)
                for r in kernel.rows
            ],
        )
        preimage = zeta_preimage(dsig, c.degree, block, ctx)
        assert same_subspace(stacked, preimage)
        consequence = _bso_consequence(mor, c.degree, ctx)
        assert c.ambient_dimension == stacked.ncols
        assert c.kernel_dimension == stacked.dim
        assert c.consequence_dimension == consequence.dim
        assert c.equal is same_subspace(stacked, consequence)


F7 = PrimeField(7)
# Two doubled monomials that differ only below the slot the root
# superscript skips, so both collapse onto (mul (mul 1 2) 3) emphasized
# at leaf 3.
TWINS = (("mul^2", ("mul^1", 1, 2), 3), ("mul^2", ("mul^2", 1, 2), 3))


@pytest.mark.parametrize(
    "field, coeffs, changed",
    [
        (QQ, (Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(-1, 3))),
        (F7, (3, 4), (3, 5)),
        (F7, (6, 1), (5, 1)),
    ],
    ids=["q-opposite", "p7-sum-7", "p7-sum-7-swapped"],
)
def test_collapse_sums_twin_terms_before_testing_membership(field, coeffs, changed):
    dsig = double_signature(BIN)
    layout = basis_layout(dsig, 3)
    plain = basis_layout(BIN, 3)
    target = plain[("mul", ("mul", 1, 2), 3)]
    other = plain[("mul", 1, ("mul", 2, 3))]
    # the base holds neither term's image alone, only e_target + e_other
    base = row_reduce(field, plain.ncols, [{target: field.one, other: field.one}])
    cols = [layout[t] for t in TWINS]
    for c, a in zip(cols, coeffs):
        assert not collapses_into(dsig, 3, [{c: a}], base)
    assert collapses_into(dsig, 3, [dict(zip(cols, coeffs))], base)
    assert not collapses_into(dsig, 3, [dict(zip(cols, changed))], base)


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
def test_collapses_into_refuses_columns_outside_the_doubled_space(field):
    dsig = double_signature(BIN)
    ncols = basis_layout(dsig, 3).ncols
    base = row_reduce(field, basis_layout(BIN, 3).ncols, [])
    for bad in (ncols, -1):
        with pytest.raises(
            ValueError, match=rf"column {bad} outside 0\.\.{ncols - 1}"
        ):
            collapses_into(dsig, 3, [{0: field.one, bad: field.one}], base)
