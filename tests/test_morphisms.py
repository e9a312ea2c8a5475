"""Morphism evaluation, kernels, special identities, doubled counterparts."""

from __future__ import annotations

import itertools

import pytest

from dioperad import Context, catalog, morphisms
from dioperad.dialgebra import DiPolynomial
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    consequences_at_degree,
    degree_component,
    vector_to_poly,
)
from dioperad.layout import basis_layout
from dioperad.linalg import row_reduce
from dioperad.morphisms import (
    CharacteristicGuardError,
    OperadMorphism,
    di_morphism,
    di_special_identities,
    evaluate_morphism,
    special_identities,
    verify_bso_theorem,
)
from dioperad.presentations import VarietyPresentation
from dioperad.context import DegreeCapError
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    compose,
    enumerate_monomials,
    linearize,
    substitute_at,
)
from oracles import (
    extend,
    from_doubled,
    morphism_kernel_at_degree,
    row_bso_theorem,
    same_subspace,
    stacked_di_special_identities,
    tree_evaluate_morphism,
    unsuperscript,
)

BRK = Signature([("b", 2)])
BIN = Signature([("mul", 2)])
TERN = Signature([("t", 3)])


def poly(terms, field=QQ):
    return Polynomial(field, {Monomial(k): v for k, v in terms.items()})


ASSOC = VarietyPresentation(
    "assoc",
    BIN,
    [poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1})],
    ["assoc"],
)

FREE = VarietyPresentation("free-binary", BIN, [], [])

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

JORDAN = VarietyPresentation(
    "jordan",
    BIN,
    [
        poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}),
        linearize(
            poly(
                {
                    ("mul", ("mul", ("mul", 1, 1), 2), 1): 1,
                    ("mul", ("mul", 1, 1), ("mul", 2, 1)): -1,
                }
            )
        ),
    ],
    ["commutativity", "jordan"],
)

JTS = VarietyPresentation(
    "jts",
    TERN,
    [
        poly({("t", 1, 2, 3): 1, ("t", 3, 2, 1): -1}),
        poly(
            {
                ("t", 1, 2, ("t", 3, 4, 5)): 1,
                ("t", ("t", 1, 2, 3), 4, 5): -1,
                ("t", 3, ("t", 2, 1, 4), 5): 1,
                ("t", 3, 4, ("t", 1, 2, 5)): -1,
            }
        ),
    ],
    ["outer-symmetry", "triple-shift"],
)

LIE_TO_ASSOC = OperadMorphism(
    "lie-to-assoc",
    BRK,
    ASSOC,
    {"b": poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})},
)

JORDAN_TO_ASSOC = OperadMorphism(
    "jordan-to-assoc",
    BIN,
    ASSOC,
    {"mul": poly({("mul", 1, 2): 1, ("mul", 2, 1): 1})},
)

JTS_TO_ASSOC = OperadMorphism(
    "jts-to-assoc",
    TERN,
    ASSOC,
    {
        "t": poly(
            {("mul", 1, ("mul", 2, 3)): 1, ("mul", 3, ("mul", 2, 1)): 1}
        )
    },
)


def test_compose_interchange_law():
    f = Monomial(("mul", 1, 2))
    pool2 = enumerate_monomials(BIN, 2)
    for g1, g2 in itertools.product(pool2, repeat=2):
        inner = compose(f, [g1, g2])
        for h in pool2:
            # substitute h for variable 1 two ways
            left = substitute_at(inner, 1, h)
            right = compose(f, [substitute_at(g1, 1, h), g2])
            assert left == right


def test_evaluation_of_basis_monomials_keeps_labels():
    out = evaluate_morphism(LIE_TO_ASSOC, Monomial(("b", 2, 1)))
    assert out == poly({("mul", 2, 1): 1, ("mul", 1, 2): -1})
    out = evaluate_morphism(LIE_TO_ASSOC, Monomial(("b", ("b", 1, 2), 3)))
    assert out == poly(
        {
            ("mul", ("mul", 1, 2), 3): 1,
            ("mul", ("mul", 2, 1), 3): -1,
            ("mul", 3, ("mul", 1, 2)): -1,
            ("mul", 3, ("mul", 2, 1)): 1,
        }
    )


def test_evaluation_respects_substitution():
    for w in enumerate_monomials(BRK, 2):
        for u in enumerate_monomials(BRK, 2):
            for i in (1, 2):
                lhs = evaluate_morphism(
                    LIE_TO_ASSOC, substitute_at(w, i, u)
                )
                rhs = substitute_at(
                    evaluate_morphism(LIE_TO_ASSOC, w),
                    i,
                    evaluate_morphism(LIE_TO_ASSOC, u),
                )
                assert lhs == rhs


def _oracle_cases():
    cases = [
        pytest.param(name, d, field, id=f"{name}-d{d}-{field!r}")
        for name in catalog.morphism_names()
        for d in (2, 3, 4)
        for field in (QQ, PrimeField(1000003))
    ]
    cases.append(pytest.param("lie-to-assoc", 5, PrimeField(1000003),
                              id="lie-to-assoc-d5-p"))
    return cases


@pytest.mark.parametrize("name, d, field", _oracle_cases())
def test_evaluation_matches_the_composition_oracle(name, d, field):
    mor = catalog.morphism(name).morphism
    for m in enumerate_monomials(mor.source_signature, d):
        assert evaluate_morphism(mor, m, field) == tree_evaluate_morphism(
            mor, m, field
        )


def test_evaluation_refuses_a_non_multilinear_monomial():
    for m in (Monomial(("b", 1, 1)), Monomial(("b", 1, 3))):
        with pytest.raises(ValueError, match="is not a permutation of 1..2"):
            evaluate_morphism(LIE_TO_ASSOC, m)
        with pytest.raises(ValueError, match="is not a permutation of 1..2"):
            tree_evaluate_morphism(LIE_TO_ASSOC, m)


def test_lie_to_assoc_kernel_dimensions():
    assert morphism_kernel_at_degree(LIE_TO_ASSOC, 2).dim == 1
    assert morphism_kernel_at_degree(LIE_TO_ASSOC, 3).dim == 10
    # free Lie embeds: kernel = ideal of the Lie presentation
    comp = consequences_at_degree(LIE, 3)
    ker = morphism_kernel_at_degree(LIE_TO_ASSOC, 3)
    assert same_subspace(ker, comp.ideal)


def test_lie_to_assoc_has_no_special_identities():
    for d in (2, 3, 4):
        rep = special_identities(LIE_TO_ASSOC, LIE, d)
        assert rep.special_dimension == 0
        assert rep.kernel_dimension == rep.ideal_dimension
        assert rep.basis == ()


def test_jordan_to_assoc_has_no_special_identities_in_low_degree():
    for d in (2, 3, 4):
        rep = special_identities(JORDAN_TO_ASSOC, JORDAN, d)
        assert rep.special_dimension == 0


def test_jts_to_assoc_degree_three():
    rep = special_identities(JTS_TO_ASSOC, JTS, 3)
    assert rep.ambient_dimension == 6
    assert rep.kernel_dimension == 3
    assert rep.ideal_dimension == 3
    assert rep.special_dimension == 0


def test_precondition_failure_names_the_identity():
    bad = OperadMorphism(
        "assoc-to-free",
        BIN,
        FREE,
        {"mul": poly({("mul", 1, 2): 1})},
    )
    with pytest.raises(ValueError, match="assoc"):
        special_identities(bad, ASSOC, 3)


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError, match="signature"):
        special_identities(LIE_TO_ASSOC, ASSOC, 3)
    with pytest.raises(ValueError, match="signature"):
        verify_bso_theorem(LIE_TO_ASSOC, ASSOC, 3)


def test_morphism_validation():
    with pytest.raises(ValueError):
        OperadMorphism("m", BRK, ASSOC, {})
    with pytest.raises(ValueError):
        OperadMorphism("m", BRK, ASSOC, {"b": poly({("mul", 1, ("mul", 2, 3)): 1})})
    with pytest.raises(ValueError):
        OperadMorphism(
            "m",
            BRK,
            ASSOC,
            {"b": poly({("mul", 1, 2): 1}), "c": poly({("mul", 1, 2): 1})},
        )


def test_doubled_morphism_commutes_with_collapse():
    dmor = di_morphism(LIE_TO_ASSOC)
    dsig = dmor.source_signature
    for n in (2, 3):
        for m in enumerate_monomials(dsig, n):
            image = evaluate_morphism(dmor, m)
            plain, leaf = unsuperscript(m)
            base_image = evaluate_morphism(LIE_TO_ASSOC, plain)
            collapsed = from_doubled(image)
            for k, comp in enumerate(collapsed.components, 1):
                assert comp == (
                    base_image if k == leaf else Polynomial(QQ, {}, degree=n)
                )


def test_di_special_identities_of_lie_to_assoc_are_lifts():
    for d in (2, 3):
        base = special_identities(LIE_TO_ASSOC, LIE, d)
        rep = di_special_identities(LIE_TO_ASSOC, LIE, d)
        assert rep.matches_lifted
        assert rep.special_dimension == 0
        assert rep.kernel_dimension == rep.ideal_dimension
        assert rep.ambient_dimension == d * base.ambient_dimension
        assert rep.kernel_dimension == d * base.kernel_dimension


COM_ASSOC = VarietyPresentation(
    "com-assoc",
    BIN,
    [
        poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1}),
        poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}),
    ],
    ["assoc", "commutativity"],
)

FREE_TO_COM = OperadMorphism(
    "free-to-com-assoc",
    BIN,
    COM_ASSOC,
    {"mul": poly({("mul", 1, 2): 1})},
)


def test_free_to_com_assoc_special_identity_is_commutativity():
    rep = special_identities(FREE_TO_COM, FREE, 2)
    assert rep.special_dimension == 1
    assert rep.basis == (poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}),)


def test_di_special_identities_place_commutativity_at_each_emphasis():
    rep = di_special_identities(FREE_TO_COM, FREE, 2)
    assert rep.matches_lifted
    assert rep.special_dimension == 2
    comm = poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})
    zero = Polynomial(QQ, {}, degree=2)
    assert rep.basis == (
        DiPolynomial(QQ, 2, [comm, zero]),
        DiPolynomial(QQ, 2, [zero, comm]),
    )


def test_verify_bso_theorem_small_degrees():
    rep = verify_bso_theorem(LIE_TO_ASSOC, LIE, 4)
    assert rep.verdict
    assert [c.degree for c in rep.comparisons] == [2, 3, 4]
    for c in rep.comparisons:
        assert c.kernel_dimension == c.consequence_dimension


def test_verify_bso_theorem_prime_field_agreement():
    a = verify_bso_theorem(LIE_TO_ASSOC, LIE, 3, Context(PrimeField(1000003)))
    b = verify_bso_theorem(LIE_TO_ASSOC, LIE, 3)
    assert a.verdict and b.verdict
    assert [(c.kernel_dimension, c.consequence_dimension) for c in a.comparisons] == [
        (c.kernel_dimension, c.consequence_dimension) for c in b.comparisons
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
def test_verify_bso_theorem_fails_without_a_kernel_row(
    drop_last_kernel_row, field
):
    drop_last_kernel_row(4)
    rep = verify_bso_theorem(LIE_TO_ASSOC, LIE, 4, Context(field))
    assert rep == row_bso_theorem(LIE_TO_ASSOC, LIE, 4, Context(field))
    assert not rep.verdict
    assert [c.equal for c in rep.comparisons] == [True, True, False]
    last = rep.comparisons[-1]
    # the dropped row is still a consequence of the lower-degree lifts
    assert (last.kernel_dimension, last.consequence_dimension) == (932, 936)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
def test_verify_bso_kernel_is_a_module_of_the_kernel_presentation(
    monkeypatch, field
):
    """free-to-com-assoc has special identities from degree 2 on, so each
    K_m is the module that ``_module_step`` builds of the kernel
    presentation, under a digest of its own, and not the source's.  The
    kernel is com-assoc's ideal, so from degree 4 on it folds onto the one
    comb."""
    entry = catalog.morphism("free-to-com-assoc")
    ctx = Context(field)
    bases = {}
    compare = morphisms._collapse_comparison

    def spy(dsig, seeds, digest, m, base, ctx):
        bases[m] = base
        return compare(dsig, seeds, digest, m, base, ctx)

    monkeypatch.setattr(morphisms, "_collapse_comparison", spy)
    rep = verify_bso_theorem(entry.morphism, entry.source, 5, ctx)
    assert rep == row_bso_theorem(entry.morphism, entry.source, 5, Context(field))
    assert rep.verdict
    keys = {
        m: [key for key, value in ctx._memo.items()
            if key[0] == "module" and value[0] is base]
        for m, base in bases.items()
    }
    digests = {key[1] for (key,) in keys.values()}
    assert [key[2] for (key,) in keys.values()] == [2, 3, 4, 5]
    assert len(digests) == 1 and entry.source.digest not in digests
    assert [bases[m].fold.ntypes for m in (4, 5)] == [1, 1]


def test_verify_bso_theorem_needs_degree_2():
    for d in (1, 0):
        with pytest.raises(ValueError, match=f"at least 2, got {d}"):
            verify_bso_theorem(LIE_TO_ASSOC, LIE, d)


def test_source_identities_above_the_degree_are_not_evaluated():
    # the degree-4 Jordan identity lies above the cap of 3 and is skipped
    capped = Context(QQ, 3)
    for d in (2, 3):
        assert special_identities(
            JORDAN_TO_ASSOC, JORDAN, d, capped
        ) == special_identities(JORDAN_TO_ASSOC, JORDAN, d)
    assert verify_bso_theorem(JORDAN_TO_ASSOC, JORDAN, 3, capped).verdict
    with pytest.raises(DegreeCapError):
        special_identities(JORDAN_TO_ASSOC, JORDAN, 4, capped)


def test_characteristic_guard():
    with pytest.raises(CharacteristicGuardError):
        verify_bso_theorem(LIE_TO_ASSOC, LIE, 3, Context(PrimeField(3)))
    with pytest.raises(CharacteristicGuardError):
        verify_bso_theorem(LIE_TO_ASSOC, LIE, 5, Context(PrimeField(5)))
    # characteristic above the degree is fine
    assert verify_bso_theorem(LIE_TO_ASSOC, LIE, 3, Context(PrimeField(5))).verdict


def test_jordan_presentation_has_expected_linearized_identity():
    lin = JORDAN.generators[1]
    assert lin.degree == 4
    assert len(lin.terms) == 12
    assert lin.is_multilinear()
    # the fully expanded form dies under the associative-commutative image
    rep = special_identities(JORDAN_TO_ASSOC, JORDAN, 4)
    assert rep.ideal_dimension == rep.kernel_dimension


def test_jordan_quotient_dimensions():
    # commutative basis sizes: 1, 3, and degree-4 drops by the identity
    assert consequences_at_degree(JORDAN, 2).quotient_dimension == 1
    assert consequences_at_degree(JORDAN, 3).quotient_dimension == 3
    assert consequences_at_degree(JORDAN, 4).quotient_dimension == 11


def test_verify_bso_checks_the_degree_cap_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the degree cap check")

    monkeypatch.setattr(morphisms, "_morphism_kernel", refuse)
    monkeypatch.setattr(morphisms, "consequences_at_degree", refuse)
    with pytest.raises(DegreeCapError):
        verify_bso_theorem(LIE_TO_ASSOC, LIE, 7, Context(QQ, 6))


def test_degree_cap_holds_after_another_context_computed_the_degree():
    wide = Context(QQ, 4)
    assert consequences_at_degree(LIE, 4, wide).ideal.dim == 114
    assert basis_layout(BRK, 4, wide).ncols == 120
    capped = Context(QQ, 3)
    assert consequences_at_degree(LIE, 3, capped).ideal.dim == 10
    with pytest.raises(DegreeCapError):
        degree_component(LIE, 4, capped)
    with pytest.raises(DegreeCapError):
        basis_layout(BRK, 4, capped)
    with pytest.raises(DegreeCapError):
        consequences_at_degree(LIE, 4, capped)


def test_a_field_in_place_of_the_context_is_a_type_error():
    entry = catalog.morphism("lie-to-assoc")
    message = "^expected a Context or None as ctx, got PrimeField$"
    with pytest.raises(TypeError, match=message):
        special_identities(entry.morphism, entry.source, 5, PrimeField(1000003))


def test_special_identities_build_monomials_for_normal_columns_only(monkeypatch):
    entry = catalog.morphism("lie-to-assoc")  # parse the catalog first
    built = 0
    init = Monomial.__init__

    def counting_init(self, node):
        nonlocal built
        built += 1
        init(self, node)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    ctx = Context(PrimeField(1000003))
    rep = special_identities(entry.morphism, entry.source, 5, ctx)
    assert rep.ambient_dimension == 1680
    # the images of the 24 normal monomials, not the whole source basis
    assert built < rep.ambient_dimension


def test_memos_hold_layouts_and_ideal_components_only():
    entry = catalog.morphism("lie-to-assoc")
    ctx = Context(PrimeField(1000003))
    special_identities(entry.morphism, entry.source, 4, ctx)
    di_special_identities(entry.morphism, entry.source, 4, ctx)
    verify_bso_theorem(entry.morphism, entry.source, 4, ctx)
    # verify-bso counts its doubled ideals by partition: modules, the
    # representation tables they are read through, and the laws that each
    # presentation's folds find
    assert {key[0] for key in ctx._memo} == {
        "layout", "ideal", "module", "young", "laws"
    }


def _special_via_full_kernel(mor, source, d, ctx):
    """Kernel dimension, special dimension and special basis the long way:
    the whole kernel over every monomial, reduced modulo the source ideal."""
    field = ctx.field
    kernel = morphism_kernel_at_degree(mor, d, ctx)
    comp = consequences_at_degree(source, d, ctx)
    special = row_reduce(
        field, kernel.ncols, [comp.ideal.reduce(r) for r in kernel.rows]
    )
    basis = tuple(vector_to_poly(r, comp.layout, field) for r in special.rows)
    return kernel.dim, special.dim, basis


# A wrong image for the free source: the commutator in assoc instead of the
# product in com-assoc.  Free has no identities, so the vanishing check
# passes and the special space is large.
FREE_TO_ASSOC_COMMUTATOR = OperadMorphism(
    "free-to-assoc-commutator",
    BIN,
    ASSOC,
    {"mul": poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})},
)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
@pytest.mark.parametrize(
    "name",
    [
        "lie-to-assoc",
        "jordan-to-assoc",
        "jts-to-assoc",
        "jts-to-jordan",
        "free-to-com-assoc",
        "free-to-assoc-commutator",
    ],
)
def test_quotient_special_identities_match_full_kernel(name, field):
    if name == "free-to-assoc-commutator":
        mor, source = FREE_TO_ASSOC_COMMUTATOR, FREE
    else:
        entry = catalog.morphism(name)
        mor, source = entry.morphism, entry.source
    nonempty = 0
    ctx = Context(field)
    for d in (2, 3, 4):
        rep = special_identities(mor, source, d, ctx)
        kernel_dim, special_dim, basis = _special_via_full_kernel(
            mor, source, d, ctx
        )
        assert rep.kernel_dimension == kernel_dim
        assert rep.special_dimension == special_dim
        assert rep.basis == basis
        nonempty += special_dim
    if name.startswith("free-to-"):
        assert nonempty > 0


def test_quotient_path_refuses_an_image_that_breaks_the_source():
    anticommutator = OperadMorphism(
        "lie-to-assoc-anticommutator",
        BRK,
        ASSOC,
        {"b": poly({("mul", 1, 2): 1, ("mul", 2, 1): 1})},
    )
    with pytest.raises(ValueError, match="antisymmetry"):
        special_identities(anticommutator, LIE, 3)
    with pytest.raises(ValueError, match="antisymmetry"):
        di_special_identities(anticommutator, LIE, 3)
    with pytest.raises(ValueError, match="antisymmetry"):
        verify_bso_theorem(anticommutator, LIE, 3)


@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(1000003), PrimeField(3)],
    ids=["q", "p", "p3"],
)
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_kernel_on_the_source_quotient_matches_full_column_oracle(name, field):
    entry = catalog.morphism(name)
    ctx = Context(field)
    for d in (2, 3, 4):
        comp, special = morphisms._morphism_kernel(
            entry.morphism, entry.source, d, ctx
        )
        kernel = extend(comp.ideal, special.rows)
        oracle = morphism_kernel_at_degree(entry.morphism, d, ctx)
        assert same_subspace(kernel, oracle)
        rep = special_identities(entry.morphism, entry.source, d, ctx)
        assert rep.kernel_dimension == kernel.dim



@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(1000003), PrimeField(7)],
    ids=["q", "p", "p7"],
)
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_special_by_partition_matches_the_row_path(name, field):
    entry = catalog.morphism(name)
    for d in range(1, 6):
        counted = special_identities(
            entry.morphism, entry.source, d, Context(field), basis=False
        )
        rows = special_identities(entry.morphism, entry.source, d, Context(field))
        assert counted.basis is None
        assert counted._replace(basis=rows.basis) == rows


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(1000003), PrimeField(3)], ids=["q", "p", "p3"]
)
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_di_special_identities_match_the_stacked_oracle(name, field):
    entry = catalog.morphism(name)
    ctx = Context(field)
    for d in range(1, 5):
        rep = di_special_identities(entry.morphism, entry.source, d, ctx)
        assert rep == stacked_di_special_identities(
            entry.morphism, entry.source, d, ctx
        )
        counted = di_special_identities(
            entry.morphism, entry.source, d, ctx, basis=False
        )
        assert counted == rep._replace(basis=None)


ANTI = VarietyPresentation(
    "anti", BRK, [poly({("b", 1, 2): 1, ("b", 2, 1): 1})], ["antisymmetry"]
)
ANTI_TO_ASSOC = OperadMorphism(
    "anti-to-assoc", BRK, ASSOC, {"b": LIE_TO_ASSOC.images["b"]}
)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
def test_special_by_partition_counts_antisymmetric_bracket_identities(field):
    # antisymmetry alone leaves the Jacobi identity and its consequences
    # special: 9 of them in degree 4, 81 in degree 5
    for d, kernel, ideal, special in ((4, 114, 105, 9), (5, 1656, 1575, 81)):
        rep = special_identities(ANTI_TO_ASSOC, ANTI, d, Context(field), basis=False)
        assert (rep.kernel_dimension, rep.ideal_dimension) == (kernel, ideal)
        assert rep.special_dimension == special


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
def test_special_by_partition_at_degenerate_degrees(field):
    rep = special_identities(LIE_TO_ASSOC, LIE, 1, Context(field), basis=False)
    # the single leaf maps to itself, outside the target ideal
    assert rep[3:] == (1, 0, 0, 0, None)
    for d in (2, 4):
        # no ternary monomial has an even degree
        entry = catalog.morphism("jts-to-jordan")
        rep = special_identities(
            entry.morphism, entry.source, d, Context(field), basis=False
        )
        assert rep[3:] == (0, 0, 0, 0, None)


def test_special_by_partition_evaluates_the_skeletons_only(monkeypatch):
    evaluated = []
    evaluate = morphisms.evaluate_morphism

    def counting(mor, p, field=None):
        evaluated.append(p)
        return evaluate(mor, p, field)

    monkeypatch.setattr(morphisms, "evaluate_morphism", counting)
    ctx = Context(PrimeField(1000003))
    rep = special_identities(LIE_TO_ASSOC, LIE, 5, ctx, basis=False)
    assert rep.ambient_dimension == 1680
    # the two identities in the vanishing check, then one image for each
    # of the 3 association types of the 14 skeletons, at the identity word
    assert len(evaluated) == 2 + 3
    assert all(m.leaf_word == (1, 2, 3, 4, 5) for m in evaluated[2:])


def test_kernel_of_a_source_without_skeletons_builds_no_target(monkeypatch):
    """jts has no monomials of even degree, so its kernel there is zero
    without the target's module being built."""
    entry = catalog.morphism("jts-to-jordan")
    ctx = Context(PrimeField(1000003))

    def fold(d, ctx=ctx):
        return degree_component(entry.source, d, ctx).ideal.fold

    assert morphisms._kernel_dimension(entry.morphism, fold(5), ctx) == 310
    folds = {d: fold(d) for d in (2, 4, 6)}
    odd = Context(QQ)
    fold3 = fold(3, odd)

    def refuse(*args, **kwargs):
        raise AssertionError("target module built")

    monkeypatch.setattr(morphisms, "degree_component", refuse)
    for d in (2, 4, 6):
        assert morphisms._kernel_dimension(entry.morphism, folds[d], ctx) == 0
    with pytest.raises(AssertionError, match="target module built"):
        morphisms._kernel_dimension(entry.morphism, fold3, odd)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["q", "p"])
def test_partition_path_refuses_an_image_that_breaks_the_source(field):
    anticommutator = OperadMorphism(
        "lie-to-assoc-anticommutator",
        BRK,
        ASSOC,
        {"b": poly({("mul", 1, 2): 1, ("mul", 2, 1): 1})},
    )
    with pytest.raises(ValueError, match="antisymmetry"):
        special_identities(anticommutator, LIE, 4, Context(field), basis=False)
