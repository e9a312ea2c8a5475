"""Seminormal representations and the partition path of ``dim``: the
representation itself, agreement with the expanded ideal, presentations
that must change the answer, and the characteristic guard."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest

from dioperad import Context, catalog, ideals
from dioperad.dialgebra import bso_presentation
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    VarietyPresentation,
    consequences_at_degree,
    degree_component,
    ideal_dimensions,
    partition_ranks,
)
from dioperad.terms import Polynomial, Signature, basis_layout
from dioperad.young import (
    WordTable,
    dimensions,
    partitions,
    seminormal_matrices,
    standard_tableaux,
)

from oracles import row_ideal_component, same_subspace

P = PrimeField(1000003)
P5 = PrimeField(5)
P7 = PrimeField(7)
BUILTINS = ("assoc", "com-assoc", "perm", "free-binary", "lie", "jordan", "jts")


def _matmul(field, a, b):
    return [
        [
            functools.reduce(field.add, map(field.mul, row, col), field.zero)
            for col in zip(*b)
        ]
        for row in a
    ]


def _identity(field, d):
    return [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("field", [QQ, P7], ids=["q", "p7"])
@pytest.mark.parametrize("n", range(1, 7))
def test_seminormal_generators_satisfy_the_coxeter_relations(field, n):
    total = 0
    for shape in partitions(n):
        gens = [
            [[field.coerce(x) for x in row] for row in m]
            for m in seminormal_matrices(shape)
        ]
        d = len(standard_tableaux(shape))
        total += d * d
        one = _identity(field, d)
        for i, s in enumerate(gens):
            assert _matmul(field, s, s) == one
            if i + 1 < len(gens):
                st = _matmul(field, s, gens[i + 1])
                assert _matmul(field, _matmul(field, st, st), st) == one
            for far in gens[i + 2:]:
                assert _matmul(field, s, far) == _matmul(field, far, s)
    assert total == math.factorial(n)
    assert dimensions(n) == [len(standard_tableaux(s)) for s in partitions(n)]


@pytest.mark.parametrize("field", [QQ, P7], ids=["q", "p7"])
def test_word_table_is_a_homomorphism(field):
    n = 5
    table = WordTable(basis_layout(Signature([("mul", 2)]), n))
    rng = random.Random(5)

    def rho(k, word):
        d = table.dims[k]
        den, flat = table.matrix(k, table.rank[word])
        flat = [field.coerce(Fraction(x, den)) for x in flat]
        return [flat[t * d:(t + 1) * d] for t in range(d)]

    for _ in range(10):
        u, v = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
        uv = tuple(u[x - 1] for x in v)  # the map j -> u(v(j))
        for k in range(len(table.dims)):
            assert rho(k, uv) == _matmul(field, rho(k, u), rho(k, v))


@pytest.mark.parametrize("n, largest", [(5, 576), (6, 14400)])
def test_word_table_denominators_are_small(n, largest):
    """Over all n! words, each D is the least common denominator of its
    matrix, which has entries at most 1 in absolute value; the largest D
    is the one the seminormal form gives."""
    table = WordTable(basis_layout(Signature([("mul", 2)]), n))
    seen = 0
    for k in range(len(table.dims)):
        for r in range(len(table.words)):
            den, flat = table.matrix(k, r)
            assert math.gcd(den, *flat) == 1
            assert all(abs(x) <= den for x in flat)
            seen = max(seen, den)
    assert seen == largest


def _multiplicities(variety, n, ctx):
    s = len(basis_layout(variety.signature, n, ctx).skeletons)
    ranks = partition_ranks(variety, n, ctx)
    return {
        shape: s * d - r
        for shape, d, r in zip(partitions(n), dimensions(n), ranks)
        if s * d - r
    }


@pytest.mark.parametrize("field", [QQ, P], ids=["q", "p"])
def test_known_quotient_multiplicities(field):
    ctx = Context(field)
    lie = catalog.presentation("lie")
    assert _multiplicities(lie, 4, ctx) == {(3, 1): 1, (2, 1, 1): 1}
    assoc = catalog.presentation("assoc")
    for n in (4, 5):
        assert _multiplicities(assoc, n, ctx) == dict(
            zip(partitions(n), dimensions(n))
        )


def _agree(variety, n, field):
    """The expanded ideal equals the one built from every lower row, and
    every path gives its dimension: a module generator wrongly dropped
    shows up here."""
    ctx = Context(field)
    gens = tuple(g.convert(field) for g in variety.generators)
    rows = row_ideal_component(
        variety.signature, gens, variety.digest, n, Context(field)
    )
    comp = consequences_at_degree(variety, n, ctx)
    assert same_subspace(comp.ideal, rows), (variety.name, n, field)
    assert degree_component(variety, n, ctx).ideal.dim == rows.dim
    assert ideal_dimensions(variety, n, ctx) == (rows.ncols, rows.dim)


@pytest.mark.parametrize("field", [QQ, P, P5], ids=["q", "p", "p5"])
@pytest.mark.parametrize("name", BUILTINS)
def test_partition_path_equals_row_path(name, field):
    variety = catalog.presentation(name)
    for n in range(2, 6):
        _agree(variety, n, field)
    doubled = bso_presentation(variety)
    for n in range(2, 5):
        _agree(doubled, n, field)


@pytest.mark.parametrize("name", ["lie", "jordan"])
def test_partition_path_equals_row_path_over_p7(name):
    # the seminormal denominators 2, 3 and 4 are nontrivial mod 7
    _agree(catalog.presentation(name), 5, P7)


def _closed_degrees(monkeypatch):
    """The degrees whose span is closed under S_n, one entry per closure."""
    close = ideals._close
    degrees = []

    def counted(field, layout, candidates):
        degrees.append(layout.degree)
        return close(field, layout, candidates)

    monkeypatch.setattr(ideals, "_close", counted)
    return degrees


@pytest.mark.parametrize(
    "name, n, field",
    [("lie", 6, P), ("assoc", 5, QQ), ("jordan", 5, P7), ("jts", 5, QQ)],
)
def test_dim_above_the_characteristic_expands_no_ideal(monkeypatch, name, n, field):
    closed = _closed_degrees(monkeypatch)
    ambient, ideal = ideal_dimensions(catalog.presentation(name), n, Context(field))
    assert ambient > ideal > 0
    assert closed == []


@pytest.mark.parametrize(
    "name, n, p, ideal",
    [
        ("lie", 5, 5, 1656),
        ("jordan", 5, 5, 1625),
        ("assoc", 4, 3, 96),
        ("lie", 4, 3, 114),
        ("jordan", 4, 3, 109),
    ],
)
def test_dim_at_or_below_the_characteristic_expands_only_degrees_from_p(
    monkeypatch, name, n, p, ideal
):
    closed = _closed_degrees(monkeypatch)
    dims = ideal_dimensions(catalog.presentation(name), n, Context(PrimeField(p)))
    assert dims[1] == ideal
    # the degrees below p are counted by partition, each degree once
    assert sorted(closed) == list(range(p, n + 1))
    with pytest.raises(ValueError, match="characteristic"):
        partition_ranks(catalog.presentation(name), n, Context(PrimeField(p)))


def _mutated(base, keep):
    """The presentation with generators mapped through keep (None drops)."""
    gens, names = [], []
    for name, g in zip(base.generator_names, base.generators):
        g = keep(name, g)
        if g is not None:
            gens.append(g)
            names.append(name)
    return VarietyPresentation(base.name + "-mutated", base.signature, gens, names)


def _rescale_one_term(name, g):
    first = min(g.terms, key=str)
    terms = dict(g.terms)
    terms[first] = 2 * terms[first]
    return Polynomial(g.field, terms, degree=g.degree)


@pytest.mark.parametrize("field", [QQ, P], ids=["q", "p"])
@pytest.mark.parametrize(
    "base, keep",
    [
        ("lie", lambda name, g: None if name == "jacobi" else g),
        ("assoc", _rescale_one_term),
    ],
    ids=["lie without jacobi", "assoc with one term rescaled"],
)
def test_a_wrong_presentation_changes_the_partition_dimension(field, base, keep):
    ctx = Context(field)
    right = catalog.presentation(base)
    wrong = _mutated(right, keep)
    assert wrong.digest != right.digest
    # a rescaled associator still spans the associator's module in degree 3
    assert ideal_dimensions(wrong, 4, ctx) != ideal_dimensions(right, 4, ctx)
    _agree(wrong, 4, field)


def test_a_generator_that_vanishes_mod_p_adds_nothing():
    # seven times the associator is zero over F_7, and degrees 2-4 are below 7
    assoc = catalog.presentation("assoc")
    seven = VarietyPresentation(
        "seven", assoc.signature, [assoc.generators[0].scale(7)]
    )
    for n in (2, 3, 4):
        _agree(seven, n, P7)
        assert ideal_dimensions(seven, n, Context(P7))[1] == 0
