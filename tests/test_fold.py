"""The association-type fold of the partition path: detection of
(anti)commutative operations from the degree-2 ideal, the fold against the
symmetric ideal it stands for, the module generators it adds, and the
ranks and morphism kernels with and without it."""

from __future__ import annotations

import pytest

from dioperad import Context, catalog, ideals
from dioperad.dialgebra import bso_presentation
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    VarietyPresentation,
    _seeds,
    _symmetries,
    _variety_module,
    consequences_at_degree,
    ideal_dimensions,
    partition_ranks,
)
from dioperad.morphisms import special_identities, verify_bso_theorem
from dioperad.terms import (
    AssociationFold,
    Monomial,
    Polynomial,
    Signature,
    basis_layout,
)
from dioperad.young import ModuleRanks, WordTable

from oracles import row_ideal_component

P = PrimeField(1000003)
FIELDS = [QQ, P]
FIELD_IDS = ["q", "p"]
BUILTINS = ("assoc", "com-assoc", "perm", "free-binary", "lie", "jordan", "jts")
SYMMETRIC = ("lie", "jordan", "com-assoc")


def poly(terms):
    return Polynomial(QQ, {Monomial(k): v for k, v in terms.items()})


def detect(variety, field=P):
    ctx = Context(field)
    return _symmetries(
        variety.signature, _seeds(variety.signature, variety.generators, 2, ctx), ctx
    )


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


def _symmetric_ideal(sig, symmetric, n, ctx):
    """The degree-n ideal of o(1, 2) − ε·o(2, 1), expanded row by row."""
    gens = tuple(
        poly({(op, 1, 2): 1, (op, 2, 1): -eps}).convert(ctx.field)
        for op, eps in symmetric.items()
    )
    return row_ideal_component(sig, gens, repr(symmetric), n, ctx)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("symmetric", [
    {"br": -1}, {"br": 1}, {"br": -1, "m": 1}, {"m": 1},
], ids=repr)
def test_fold_holds_the_symmetric_ideal(symmetric, field):
    """An empty module over the fold is the symmetric ideal J, and the
    fold's generators lie in J and generate it on their own."""
    sig = Signature([("br", 2), ("m", 2)])
    ctx = Context(field)
    for n in range(2, 5):
        layout = basis_layout(sig, n, ctx)
        table = WordTable(layout, field)
        fold = AssociationFold(layout, symmetric, field)
        oracle = _symmetric_ideal(sig, symmetric, n, ctx)
        assert ModuleRanks(table, fold).dim == oracle.dim
        assert all(oracle.contains(g) for g in fold.generators)
        plain = ModuleRanks(table, AssociationFold(layout, {}, field))
        for g in fold.generators:
            plain.insert(g)
        assert plain.dim == oracle.dim


def test_fold_counts_association_types():
    sig = Signature([("mul", 2)])
    # Wedderburn–Etherington numbers: commutative binary association types
    ctx = Context(P, max_degree=7)
    types = [AssociationFold(basis_layout(sig, n, ctx), {"mul": 1}, P).ntypes
             for n in range(2, 8)]
    assert types == [1, 1, 2, 3, 6, 11]


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
    monkeypatch.setattr(ideals, "_symmetries", lambda *args: {"bracket": 1})
    assert ideal_dimensions(lie, 4, Context(field)) != (oracle.ncols, oracle.dim)
    # the row path folds too
    rows = consequences_at_degree(lie, 4, Context(field)).ideal
    assert rows.dim != oracle.dim


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SYMMETRIC)
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
    monkeypatch.setattr(ideals, "_symmetries", lambda *args: {})


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
