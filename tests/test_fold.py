"""The association-type fold of the partition path: detection of
(anti)commutative operations from the degree-2 ideal, of associative ones
from the degree-3 ideal and of the zero identities of doubled signatures,
the fold and its collapse against the ideal they stand for, the module
generators the fold adds, and the ranks, morphism kernels and verdicts
with and without it."""

from __future__ import annotations

import pytest

from dioperad import Context, catalog, dialgebra, ideals
from dioperad.dialgebra import (
    bso_presentation,
    verify_dialgebra_equivalence,
    zero_identities,
)
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    VarietyPresentation,
    _folded_candidates,
    _laws,
    _seeds,
    _variety_module,
    consequences_at_degree,
    ideal_dimensions,
    partition_ranks,
)
from dioperad.morphisms import special_identities, verify_bso_theorem
from dioperad.sexpr import parse_document
from dioperad.terms import (
    AssociationFold,
    Monomial,
    Polynomial,
    Signature,
    basis_layout,
    double_signature,
)
from dioperad.young import ModuleRanks, WordTable

from oracles import row_ideal_component

P = PrimeField(1000003)
FIELDS = [QQ, P]
FIELD_IDS = ["q", "p"]
BUILTINS = ("assoc", "com-assoc", "perm", "free-binary", "lie", "jordan", "jts")
SYMMETRIC = ("lie", "jordan", "com-assoc")
ASSOCIATIVE = ("assoc", "com-assoc", "perm")
ASSOCIATOR = {("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1}


def poly(terms):
    return Polynomial(QQ, {Monomial(k): v for k, v in terms.items()})


def _detect_laws(variety, field):
    ctx = Context(field)
    sig = variety.signature
    seeds = _seeds(sig, variety.generators, 3, ctx)
    return _laws(sig, seeds, variety.digest, ctx)


def _patch_laws(monkeypatch, symmetric=None, associative=None,
                collapsing=None):
    """Detection with the given parts of its answer replaced."""
    laws = ideals._laws

    def patched(*args):
        return tuple(
            found if part is None else part
            for found, part in zip(
                laws(*args), (symmetric, associative, collapsing)
            )
        )

    monkeypatch.setattr(ideals, "_laws", patched)


def detect(variety, field=P):
    return _detect_laws(variety, field)[0]


def test_builtins_are_detected():
    found = {name: detect(catalog.presentation(name)) for name in BUILTINS}
    assert found == {
        "assoc": {}, "com-assoc": {"mul": 1}, "perm": {}, "free-binary": {},
        "lie": {"bracket": -1}, "jordan": {"mul": 1}, "jts": {},
    }


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_detection_sees_through_scaled_and_relabelled_seeds(field):
    sig = Signature([("br", 2), ("m", 2)])
    variety = VarietyPresentation("renamed", sig, [
        # 3·[2, 1] + 3·[1, 2] and −2·((2 m 1) − (1 m 2)), listed m first
        poly({("m", 2, 1): -2, ("m", 1, 2): 2}),
        poly({("br", 2, 1): 3, ("br", 1, 2): 3}),
    ])
    assert detect(variety, field) == {"br": -1, "m": 1}


def test_detection_finds_nothing_across_two_operations():
    sig = Signature([("a", 2), ("b", 2)])
    across = VarietyPresentation(
        "across", sig, [poly({("a", 1, 2): 1, ("b", 2, 1): -1})]
    )
    assert detect(across) == {}
    # a symmetric operation beside one that is not
    mixed = VarietyPresentation("mixed", sig, [
        poly({("a", 1, 2): 1, ("a", 2, 1): -1, ("b", 1, 2): 1}),
        poly({("b", 1, 2): 1, ("b", 2, 1): 1}),
    ])
    assert detect(mixed) == {"b": -1}
    for name in BUILTINS:
        assert detect(bso_presentation(catalog.presentation(name))) == {}


def detect_associative(variety, field=P):
    return _detect_laws(variety, field)[1]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", ("lie", "jordan", "assoc"))
def test_laws_are_read_once_from_degrees_that_fold_nothing(name, field):
    """``dim`` at degree 5 memoises the laws once per presentation; they
    come from the modules of degrees 2 and 3, which fold nothing, and the
    fold starts at degree 4."""
    variety = catalog.presentation(name)
    ctx = Context(field)
    ideal_dimensions(variety, 5, ctx)
    assert [key for key in ctx._memo if key[0] == "laws"] == [
        ("laws", variety.digest)
    ]
    folds = {
        key[2]: value[0].fold
        for key, value in ctx._memo.items() if key[0] == "module"
    }
    assert sorted(folds) == [2, 3, 4, 5]
    assert [folds[n].ntypes == folds[n].nblocks for n in (2, 3, 4)] == [
        True, True, False
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_associative_builtins_are_detected(field):
    found = {name: detect_associative(catalog.presentation(name), field)
             for name in BUILTINS}
    assert found == {
        "assoc": {"mul"}, "com-assoc": {"mul"}, "perm": {"mul"},
        "free-binary": set(), "lie": set(), "jordan": set(), "jts": set(),
    }
    assert detect_associative(bso_presentation(catalog.presentation("assoc")),
                              field) == {"mul^1", "mul^2"}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_associativity_is_seen_through_scaled_relabelled_and_split_seeds(field):
    sig = Signature([("br", 2), ("mul", 2)])
    # 3·((2·1)·3 − 2·(1·3)), beside a bracket that is not associative
    scaled = VarietyPresentation("scaled", sig, [
        poly({("mul", ("mul", 2, 1), 3): 3, ("mul", 2, ("mul", 1, 3)): -3}),
        poly({("br", 1, 2): 1, ("br", 2, 1): 1}),
    ])
    assert detect_associative(scaled, field) == {"mul"}
    # (1·2)·3 − 2·(1·3) minus 1·(2·3) − 2·(1·3): neither identity is an
    # associator, their difference is
    split = VarietyPresentation("split", sig, [
        poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 2, ("mul", 1, 3)): -1}),
        poly({("mul", 1, ("mul", 2, 3)): 1, ("mul", 2, ("mul", 1, 3)): -1}),
    ])
    assert detect_associative(split, field) == {"mul"}


# flexibility, (x, y, x) = 0 linearized: its degree-3 ideal holds no associator
FLEXIBLE = VarietyPresentation("flexible", Signature([("mul", 2)]), [poly({
    **ASSOCIATOR, ("mul", ("mul", 3, 2), 1): 1, ("mul", 3, ("mul", 2, 1)): -1,
})])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_variety_without_associativity_does_not_fold(monkeypatch, field):
    for variety in (catalog.presentation("free-binary"), FLEXIBLE):
        assert detect_associative(variety, field) == set()
        module = _variety_module(variety, 4, Context(field))[0]
        assert module.fold.ntypes == module.fold.nblocks
    gens = tuple(g.convert(field) for g in FLEXIBLE.generators)
    oracle = row_ideal_component(
        FLEXIBLE.signature, gens, FLEXIBLE.digest, 4, Context(field)
    )
    assert ideal_dimensions(FLEXIBLE, 4, Context(field)) == (
        oracle.ncols, oracle.dim
    )
    # a fold that takes flexibility for associativity shows
    _patch_laws(monkeypatch, associative={"mul"})
    assert ideal_dimensions(FLEXIBLE, 4, Context(field)) != (
        oracle.ncols, oracle.dim
    )
    rows = consequences_at_degree(FLEXIBLE, 4, Context(field)).ideal
    assert rows.dim != oracle.dim


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_anticommutative_associativity_keeps_the_two_child_fold(field):
    """An anticommutative associative operation is not taken as
    associative: sorting a comb's children would lose the signs.  (Its
    ideal holds 2·xyz, so over these fields every fold counts it
    right.)"""
    variety = VarietyPresentation("anti-assoc", Signature([("br", 2)]), [
        poly({("br", 1, 2): 1, ("br", 2, 1): 1}),
        poly({("br", ("br", 1, 2), 3): 1, ("br", 1, ("br", 2, 3)): -1}),
    ])
    assert detect_associative(variety, field) == set()
    gens = tuple(g.convert(field) for g in variety.generators)
    for n in (4, 5):
        oracle = row_ideal_component(
            variety.signature, gens, variety.digest, n, Context(field)
        )
        assert ideal_dimensions(variety, n, Context(field)) == (
            oracle.ncols, oracle.dim
        )


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_commutative_comb_keeps_a_special_dimension(field):
    """Jordan into com-assoc, mul to 2xy, has special identities in every
    degree from 3; com-assoc folds onto one comb whose children commute."""
    doc = parse_document("""
        (morphism jordan-to-com-assoc (source jordan) (target com-assoc)
          (image mul (+ (mul 1 2) (mul 2 1))))
    """, resolver=catalog.presentation)
    into_com_assoc = doc.morphisms["jordan-to-com-assoc"]
    into_assoc = catalog.morphism("jordan-to-assoc")
    for basis in (False, True):
        ctx = Context(field)
        assert [
            special_identities(entry.morphism, entry.source, d, ctx, basis)
            .special_dimension
            for entry in (into_com_assoc, into_assoc)
            for d in (3, 4, 5)
        ] == [2, 10, 54, 0, 0, 0]


def _law_generators(symmetric, associative):
    """o(1, 2) − ε·o(2, 1) for each symmetric operation, then the
    associators of the associative operations."""
    return tuple(
        poly({(op, 1, 2): 1, (op, 2, 1): -eps})
        for op, eps in symmetric.items()
    ) + tuple(
        poly({(op, (op, 1, 2), 3): 1, (op, 1, (op, 2, 3)): -1})
        for op in associative
    )


def _ideal(sig, symmetric, associative, n, ctx):
    """The degree-n ideal of ``_law_generators``, expanded row by row."""
    gens = tuple(
        g.convert(ctx.field) for g in _law_generators(symmetric, associative)
    )
    return row_ideal_component(sig, gens, repr((symmetric, associative)), n, ctx)


def _check_fold_holds_its_ideal(symmetric, associative, field):
    """An empty module over the fold is the ideal J of its symmetric and
    associative operations, and the fold's generators lie in J and
    generate it on their own."""
    sig = Signature([("br", 2), ("m", 2)])
    ctx = Context(field)
    for n in range(2, 5):
        layout = basis_layout(sig, n, ctx)
        table = WordTable(layout)
        fold = AssociationFold(layout, symmetric, field, associative)
        oracle = _ideal(sig, symmetric, associative, n, ctx)
        assert ModuleRanks(table, fold).dim == oracle.dim
        assert all(oracle.contains(g) for g in fold.generators)
        plain = ModuleRanks(table, AssociationFold(layout, {}, field))
        for g in fold.generators:
            plain.insert(g)
        assert plain.dim == oracle.dim


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("symmetric", [
    {"br": -1}, {"br": 1}, {"br": -1, "m": 1}, {"m": 1},
], ids=repr)
def test_fold_holds_the_symmetric_ideal(symmetric, field):
    _check_fold_holds_its_ideal(symmetric, (), field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("symmetric, associative", [
    ({}, ("m",)), ({"m": 1}, ("m",)), ({"br": -1}, ("m",)),
    ({"br": 1, "m": 1}, ("br", "m")), ({}, ("br", "m")),
], ids=repr)
def test_fold_holds_the_associative_ideal(symmetric, associative, field):
    _check_fold_holds_its_ideal(symmetric, associative, field)


def test_fold_counts_association_types():
    sig = Signature([("mul", 2)])
    # Wedderburn–Etherington numbers: commutative binary association types
    ctx = Context(P, max_degree=7)
    types = [AssociationFold(basis_layout(sig, n, ctx), {"mul": 1}, P).ntypes
             for n in range(2, 8)]
    assert types == [1, 1, 2, 3, 6, 11]
    # an associative operation, commutative or not, has the one comb
    for symmetric in ({}, {"mul": 1}):
        fold = AssociationFold(basis_layout(sig, 7, ctx), symmetric, P, {"mul"})
        assert fold.ntypes == 1
        assert len(fold.relations) == (6 if symmetric else 0)
    # large Schröder numbers: the two associative operations of diassoc
    dsig = double_signature(sig)
    types = [
        AssociationFold(basis_layout(dsig, n, ctx), {}, P, {"mul^1", "mul^2"})
        .ntypes for n in range(2, 7)
    ]
    assert types == [2, 6, 22, 90, 394]


def test_comb_keeps_the_leaf_order_and_sorts_commuting_children():
    sig = Signature([("br", 2), ("mul", 2)])
    layout = basis_layout(sig, 4)
    comb = ("mul", ("mul", ("mul", 1, 2), 3), 4)
    right = layout[("mul", 1, ("mul", ("mul", 2, 3), 4))]
    fold = AssociationFold(layout, {}, P, {"mul"})
    assert fold.lift(fold.fold({right: 1})) == {layout[comb]: 1}
    # commuting children: sorted by shape, leaves before the bracket's node
    # and each kept in its order, the bracket's own children unswapped
    fold = AssociationFold(layout, {"mul": 1, "br": -1}, P, {"mul"})
    col = layout[("mul", 1, ("mul", ("br", 4, 2), 3))]
    skel = ("mul", ("mul", None, None), ("br", None, None))
    assert fold.lift(fold.fold({col: 1})) == {
        layout[("mul", ("mul", 1, 3), ("br", 4, 2))]: P.one
    }
    # its relations: the bracket's leaves anticommute, the two leaves of
    # the comb commute
    t, width = fold.types.index(layout.position[skel]), len(layout.words)
    assert [r for r in fold.relations if min(r) == t * width] == [
        {t * width: P.one, t * width + layout.rank[(1, 2, 4, 3)]: P.one},
        {t * width: P.one, t * width + layout.rank[(2, 1, 3, 4)]: P.coerce(-1)},
    ]


def test_fold_moves_a_monomial_with_its_sign():
    sig = Signature([("br", 2)])
    layout = basis_layout(sig, 3)
    fold = AssociationFold(layout, {"br": -1}, P)
    # (br L (br L L)) is the one type, so a folded column is a word rank:
    # [[1, 2], 3] = −[3, [1, 2]]
    assert fold.ntypes == 1
    col = layout[("br", ("br", 1, 2), 3)]
    assert fold.fold({col: 1}) == {layout.rank[(3, 1, 2)]: P.coerce(-1)}
    # both terms of [1, [2, 3]] + [[2, 3], 1] land on one column and cancel
    assert fold.fold({layout[("br", 1, ("br", 2, 3))]: 1,
                      layout[("br", ("br", 2, 3), 1)]: 1}) == {}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_wrong_sign_changes_the_ideal(monkeypatch, field):
    lie = catalog.presentation("lie")
    gens = tuple(g.convert(field) for g in lie.generators)
    oracle = row_ideal_component(lie.signature, gens, lie.digest, 4, Context(field))
    assert ideal_dimensions(lie, 4, Context(field)) == (oracle.ncols, oracle.dim)
    _patch_laws(monkeypatch, symmetric={"bracket": 1})
    assert ideal_dimensions(lie, 4, Context(field)) != (oracle.ncols, oracle.dim)
    # the row path folds too
    rows = consequences_at_degree(lie, 4, Context(field)).ideal
    assert rows.dim != oracle.dim


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SYMMETRIC + ("assoc", "perm"))
def test_module_generators_generate_the_ideal_on_their_own(name, field):
    """Each degree's kept generators, inserted into a module that folds
    nothing, give the folded module's ranks."""
    variety = catalog.presentation(name)
    ctx = Context(field)
    for n in range(2, 6):
        module, _, generators = _variety_module(variety, n, ctx)
        plain = ModuleRanks(
            module.table, AssociationFold(module.fold.layout, {}, field)
        )
        for g in generators:
            plain.insert(g)
        assert plain.ranks == module.ranks, (name, n)


def _ranks(variety, degrees, field):
    ctx = Context(field)
    return [partition_ranks(variety, n, ctx) for n in degrees]


def _unfolded(monkeypatch):
    monkeypatch.setattr(
        ideals, "_laws", lambda *args: ({}, frozenset(), False)
    )


def _not_associative(monkeypatch):
    """Detection that keeps its real symmetric and collapse parts and
    finds no associative operation."""
    _patch_laws(monkeypatch, associative=frozenset())


def _dimensions(variety, degrees, field):
    ctx = Context(field)
    return [
        (partition_ranks(variety, n, ctx), _variety_module(variety, n, ctx)[0].dim)
        for n in degrees
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTINS)
def test_associative_fold_keeps_ranks_and_dimensions(monkeypatch, name, field):
    """Each built-in at degrees 2-6, and its doubled presentation at 2-5,
    counts the same with associativity detected as without."""
    variety = catalog.presentation(name)
    doubled = bso_presentation(variety)
    folded = _dimensions(variety, range(2, 7), field)
    folded_doubled = _dimensions(doubled, range(2, 6), field)
    _not_associative(monkeypatch)
    assert _dimensions(variety, range(2, 7), field) == folded
    assert _dimensions(doubled, range(2, 6), field) == folded_doubled


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTINS)
def test_folded_ranks_equal_unfolded_ones(monkeypatch, name, field):
    variety = catalog.presentation(name)
    folded = _ranks(variety, range(2, 6), field)
    _unfolded(monkeypatch)
    assert _ranks(variety, range(2, 6), field) == folded


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SYMMETRIC)
def test_folded_ranks_equal_unfolded_ones_at_degree_6(monkeypatch, name, field):
    variety = catalog.presentation(name)
    folded = _ranks(variety, [6], field)
    _unfolded(monkeypatch)
    assert _ranks(variety, [6], field) == folded


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", catalog.morphism_names())
def test_folded_kernels_equal_unfolded_ones(monkeypatch, name, field):
    """The kernel counted from the images of the source's association types
    alone reports what the images of every skeleton give."""
    entry = catalog.morphism(name)

    def reports():
        ctx = Context(field)
        return [
            special_identities(entry.morphism, entry.source, d, ctx, basis=False)
            for d in range(2, 6)
        ] + [verify_bso_theorem(entry.morphism, entry.source, 5, ctx)]

    folded = reports()
    _unfolded(monkeypatch)
    assert reports() == folded


# The collapse: a doubled skeleton folds onto its plain skeleton with one
# emphasized leaf, every superscript off the path to that leaf set to 1.

MUL = Signature([("mul", 2)])


def _bso(name):
    return bso_presentation(catalog.presentation(name))


def _no_collapse(monkeypatch):
    _patch_laws(monkeypatch, collapsing=False)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_collapse_is_detected_on_doubled_presentations(field):
    for name in BUILTINS:
        assert _detect_laws(catalog.presentation(name), field)[2] is False
        assert _detect_laws(_bso(name), field)[2] is True


def _fold_at(variety, n, field=P):
    """The fold of ``_module_step`` at degree n, its module not built."""
    ctx = Context(field, max_degree=n)
    seeds = _seeds(variety.signature, variety.generators, n, ctx)
    return _folded_candidates(
        variety.signature, seeds, variety.digest, n, ctx
    )[0]


def test_collapse_type_counts():
    """About n types for each plain type: no more than 16 for bso(assoc)
    at degree 5 (224 skeletons, 90 with the comb alone), 20 for bso(lie) at
    degree 4 (40 skeletons); bso(jts), whose zero identities have degree 5
    and are found among the seeds, folds at degree 7 too."""
    fold = _fold_at(_bso("assoc"), 5)
    assert (fold.nblocks, fold.ntypes <= 16) == (224, True)
    fold = _fold_at(_bso("lie"), 4)
    assert (fold.nblocks, fold.ntypes <= 20) == (40, True)
    fold = _fold_at(_bso("jts"), 5)
    assert (fold.nblocks, fold.ntypes <= 15) == (27, True)
    fold = _fold_at(_bso("jts"), 7)
    assert fold.ntypes < fold.nblocks == 324


def _collapse_ideal(base, symmetric, associative, n, ctx):
    """The degree-n ideal of base's zero identities and of the
    ``_law_generators`` of the doubled operations, expanded row by row."""
    gens = zero_identities(base)[1] + _law_generators(symmetric, associative)
    return row_ideal_component(
        double_signature(base), tuple(g.convert(ctx.field) for g in gens),
        repr((base, symmetric, associative)), n, ctx,
    )


def _collapse_holds_its_ideal(base, symmetric, associative, n, field):
    """Whether an empty module over the collapsing fold is the ideal its
    laws generate, and the fold's generators lie in that ideal."""
    ctx = Context(field)
    layout = basis_layout(double_signature(base), n, ctx)
    fold = AssociationFold(layout, symmetric, field, associative, True)
    oracle = _collapse_ideal(base, symmetric, associative, n, ctx)
    return (
        ModuleRanks(WordTable(layout), fold).dim == oracle.dim
        and all(oracle.contains(g) for g in fold.generators)
    )


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("base, associative, degrees", [
    (MUL, (), (2, 3, 4, 5)),
    (MUL, ("mul^1", "mul^2"), (2, 3, 4, 5)),
    (Signature([("br", 2), ("m", 2)]), ("m^1", "m^2"), (2, 3, 4)),
    (Signature([("t", 3)]), (), (3, 5)),
], ids=repr)
def test_collapse_holds_its_ideal(base, associative, degrees, field):
    for n in degrees:
        assert _collapse_holds_its_ideal(base, {}, associative, n, field), n


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_collapse_is_refused_where_the_fold_misses_its_ideal(field):
    """Combing mul^2 alone, or sorting commuting children beside the comb,
    the collapsing fold no longer holds its ideal at degree 4: off the
    path mul^1 stands for mul^2 too.  Detection then reports no collapse,
    and the counts are those of the rows."""
    assert not _collapse_holds_its_ideal(MUL, {}, ("mul^2",), 4, field)
    assert not _collapse_holds_its_ideal(
        MUL, {"mul^2": 1}, ("mul^1",), 4, field
    )
    dsig = double_signature(MUL)
    right = poly({("mul^2", ("mul^2", 1, 2), 3): 1,
                  ("mul^2", 1, ("mul^2", 2, 3)): -1})
    variety = VarietyPresentation(
        "right-assoc", dsig, [*zero_identities(MUL)[1], right]
    )
    assert _detect_laws(variety, field) == ({}, {"mul^2"}, False)
    gens = tuple(g.convert(field) for g in variety.generators)
    for n in (4, 5):
        oracle = row_ideal_component(
            dsig, gens, variety.digest, n, Context(field)
        )
        assert ideal_dimensions(variety, n, Context(field)) == (
            oracle.ncols, oracle.dim
        )


def _dropping(monkeypatch, names):
    """``bso_presentation`` without the named generators."""
    full = dialgebra.bso_presentation

    def dropped(variety):
        divar = full(variety)
        kept = [
            (name, g)
            for name, g in zip(divar.generator_names, divar.generators)
            if name not in names
        ]
        return VarietyPresentation(
            divar.name, divar.signature,
            [g for _, g in kept], [name for name, _ in kept],
        )

    monkeypatch.setattr(dialgebra, "bso_presentation", dropped)
    return dropped


def _verify_di(variety, n, field):
    """verify-di's report, the collapse law found for the doubled
    presentation, and whether its degree-n fold collapsed anything."""
    ctx = Context(field)
    report = verify_dialgebra_equivalence(variety, n, ctx)
    divar = dialgebra.bso_presentation(variety)
    module = ctx._memo[("module", divar.digest, n)][0]
    found = ctx._memo[("laws", divar.digest)][2]
    return report, found, module.fold.ntypes < module.fold.nblocks


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name, dropped", [
    # the lift at the middle leaf: mul^1 and mul^2 stay associative
    ("assoc", {"assoc.e2"}),
    # each lift of the Jacobi identity is a relabelling of the others
    ("lie", {"jacobi.e1", "jacobi.e2", "jacobi.e3"}),
])
def test_a_dropped_lift_fails_with_the_collapse_found(
    monkeypatch, name, dropped, n, field
):
    variety = catalog.presentation(name)
    report, found, collapsed = _verify_di(variety, n, field)
    assert (report.equal, found, collapsed) == (True, True, True)
    _dropping(monkeypatch, dropped)
    report, found, collapsed = _verify_di(variety, n, field)
    assert (report.equal, found, collapsed) == (False, True, True)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_dropped_zero_identity_keeps_the_collapse_off(monkeypatch, field):
    assoc = catalog.presentation("assoc")
    divar = _dropping(monkeypatch, {"zero-mul1-s2-mul12"})(assoc)
    for n in (4, 5):
        report, found, _ = _verify_di(assoc, n, field)
        assert (report.equal, found) == (False, False)
    ranks = _dimensions(divar, range(2, 6), field)
    _unfolded(monkeypatch)
    assert _dimensions(divar, range(2, 6), field) == ranks


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", BUILTINS)
def test_collapsed_ranks_equal_uncollapsed_ones(monkeypatch, name, field):
    doubled = _bso(name)
    collapsed = _dimensions(doubled, range(2, 6), field)
    _no_collapse(monkeypatch)
    assert _dimensions(doubled, range(2, 6), field) == collapsed


@pytest.mark.parametrize("name", ("assoc", "lie"))
def test_collapsed_ranks_equal_uncollapsed_ones_at_degree_6(monkeypatch, name):
    doubled = _bso(name)
    collapsed = _dimensions(doubled, [6], P)
    _no_collapse(monkeypatch)
    assert _dimensions(doubled, [6], P) == collapsed
