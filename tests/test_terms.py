"""Tree-monomial calculus: enumeration, substitution, polarization."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from dioperad.context import DEFAULT_DEGREE_CAP, Context, DegreeCapError
from dioperad.fields import QQ, PrimeField
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    apply_permutation,
    compose,
    double_signature,
    enumerate_monomials,
    format_polynomial,
    graft,
    linearize,
    substitute_at,
)

from oracles import sort_key

BIN = Signature([("mul", 2)])
TERN = Signature([("t", 3)])


def mono(node):
    return Monomial(node)


def poly(terms, field=QQ, degree=None):
    return Polynomial(field, {mono(k): v for k, v in terms.items()}, degree)


def test_signature_rejects_low_arity_and_duplicates():
    with pytest.raises(ValueError):
        Signature([("u", 1)])
    with pytest.raises(ValueError):
        Signature([("mul", 2), ("mul", 3)])
    with pytest.raises(ValueError):
        Signature([])


def test_monomial_leaf_word_and_multilinearity():
    m = mono(("mul", ("mul", 2, 1), 3))
    assert m.degree == 3
    assert m.leaf_word == (2, 1, 3)
    assert m.is_multilinear()
    assert not mono(("mul", 1, 1)).is_multilinear()
    assert not mono(("mul", 1, 3)).is_multilinear()


def test_malformed_trees_rejected():
    with pytest.raises(ValueError):
        mono(("mul", 1))
    with pytest.raises(ValueError):
        mono(("mul", 0, 1))
    with pytest.raises(ValueError):
        mono("x")


def test_binary_basis_counts_follow_catalan_times_factorial():
    # skeleton counts 1, 2, 5, 14; times n!
    assert len(enumerate_monomials(BIN, 2)) == 2
    assert len(enumerate_monomials(BIN, 3)) == 12
    assert len(enumerate_monomials(BIN, 4)) == 120
    assert len(enumerate_monomials(BIN, 5)) == 1680


def test_ternary_basis_counts():
    assert len(enumerate_monomials(TERN, 3)) == 6
    assert len(enumerate_monomials(TERN, 5)) == 360


def test_two_binary_ops_degree_three_count():
    sig = Signature([("a", 2), ("b", 2)])
    # 2 skeleton shapes x 2 x 2 op choices x 3! labelings
    assert len(enumerate_monomials(sig, 3)) == 48


def test_enumeration_is_sorted_and_duplicate_free():
    basis = enumerate_monomials(BIN, 4)
    keys = [sort_key(m, BIN) for m in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        enumerate_monomials(BIN, DEFAULT_DEGREE_CAP + 1)
    with pytest.raises(DegreeCapError):
        enumerate_monomials(BIN, 4, Context(max_degree=3))


def test_context_rejects_a_degree_cap_below_1():
    for cap in (0, -1):
        with pytest.raises(ValueError, match=f"^degree cap must be at least 1, got {cap}$"):
            Context(max_degree=cap)
    assert len(enumerate_monomials(BIN, 1, Context(max_degree=1))) == 1


def test_polynomial_drops_zeros_and_checks_degrees():
    p = poly({("mul", 1, 2): 1, ("mul", 2, 1): 0})
    assert len(p.terms) == 1
    with pytest.raises(ValueError):
        poly({("mul", 1, 2): 1, ("mul", ("mul", 1, 2), 3): 1})
    with pytest.raises(ValueError):
        Polynomial(QQ, {})
    assert Polynomial(QQ, {}, degree=3).is_zero


def test_polynomial_arithmetic():
    a = poly({("mul", 1, 2): 1})
    b = poly({("mul", 2, 1): 1})
    c = a - b
    assert c.terms[mono(("mul", 2, 1))] == -1
    assert (c + b) == a
    assert (a - a).is_zero
    assert a.scale(3).terms[mono(("mul", 1, 2))] == 3


def test_polynomial_field_conversion():
    f5 = PrimeField(5)
    p = poly({("mul", 1, 2): -1}).convert(f5)
    assert p.terms[mono(("mul", 1, 2))] == 4
    with pytest.raises(ValueError):
        p.convert(PrimeField(7))


def test_apply_permutation_is_a_group_action():
    basis = enumerate_monomials(BIN, 3)
    for m in basis:
        for s in itertools.permutations(range(1, 4)):
            for t in itertools.permutations(range(1, 4)):
                st = tuple(s[t[i] - 1] for i in range(3))
                assert apply_permutation(
                    s, apply_permutation(t, m)
                ) == apply_permutation(st, m)


def test_apply_permutation_example():
    m = mono(("mul", ("mul", 1, 2), 3))
    assert apply_permutation((2, 3, 1), m) == mono(("mul", ("mul", 2, 3), 1))
    with pytest.raises(ValueError):
        apply_permutation((1, 1, 2), m)


def test_compose_shifts_variable_blocks():
    f = mono(("mul", 1, 2))
    g1 = mono(("mul", 1, 2))
    g2 = mono(1)
    out = compose(f, [g1, g2])
    assert out == Polynomial.monomial(mono(("mul", ("mul", 1, 2), 3)))

    # composition with leaves on the left shifts the right block
    out = compose(f, [g2, g1])
    assert out == Polynomial.monomial(mono(("mul", 1, ("mul", 2, 3))))


def test_compose_distributes_over_sums():
    f = poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})
    g = poly({("mul", 1, 2): 1})
    x = Polynomial.monomial(mono(1))
    out = compose(f, [g, x])
    assert out == poly(
        {("mul", ("mul", 1, 2), 3): 1, ("mul", 3, ("mul", 1, 2)): -1}
    )


def test_substitute_at_shifts_other_labels():
    w = mono(("mul", ("mul", 1, 2), 3))
    u = mono(("mul", 1, 2))
    out = substitute_at(w, 2, u)
    assert out == Polynomial.monomial(
        mono(("mul", ("mul", 1, ("mul", 2, 3)), 4))
    )
    out = substitute_at(w, 1, u)
    assert out == Polynomial.monomial(
        mono(("mul", ("mul", ("mul", 1, 2), 3), 4))
    )
    out = substitute_at(w, 3, u)
    assert out == Polynomial.monomial(
        mono(("mul", ("mul", 1, 2), ("mul", 3, 4)))
    )


def test_compose_keeps_inner_labels_beyond_the_inner_degree():
    # the inner factor (mul 1 3) has degree 2; each label moves by the
    # block offset, so the second leaf's block lands on 3 as well
    out = compose(mono(("mul", 1, 2)), [mono(("mul", 1, 3)), mono(1)])
    assert out == Polynomial.monomial(mono(("mul", ("mul", 1, 3), 3)))


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_zero_factors_compose_to_zero_of_the_total_degree(field):
    f = poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}, field)
    g = poly({("mul", 1, 2): 1}, field)
    x = Polynomial.monomial(mono(1), field)
    zero_outer = Polynomial(field, {}, degree=2)
    zero_inner = Polynomial(field, {}, degree=2)
    assert compose(zero_outer, [g, x]) == Polynomial(field, {}, degree=3)
    assert compose(f, [zero_inner, x]) == Polynomial(field, {}, degree=3)
    assert compose(f, [x, zero_inner]) == Polynomial(field, {}, degree=3)
    assert substitute_at(f, 2, zero_inner) == Polynomial(field, {}, degree=3)


def test_graft_keeps_the_children_labels_and_drops_cancelled_terms():
    f = poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})
    x = Polynomial.monomial(mono(1))
    assert graft(f, [x, x]) == Polynomial(QQ, {}, degree=2)
    y = Polynomial.monomial(mono(5))
    assert graft(f, [y, x]) == poly({("mul", 5, 1): 1, ("mul", 1, 5): -1})


def test_substitute_at_refuses_a_non_multilinear_outer_factor():
    with pytest.raises(ValueError, match="^the outer factor must be multilinear$"):
        substitute_at(mono(("mul", 1, 1)), 1, mono(("mul", 1, 2)))


def test_substitute_at_refuses_mixed_fields():
    w = poly({("mul", 1, 2): Fraction(1, 2)})
    u = poly({("mul", 1, 2): 3}, PrimeField(7))
    with pytest.raises(ValueError, match="^mixed fields in composition$"):
        substitute_at(w, 1, u)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
def test_apply_permutation_keeps_the_input_kind(field):
    m = mono(("mul", ("mul", 1, 2), 3))
    moved = apply_permutation((3, 1, 2), m)
    assert type(moved) is Monomial
    assert moved == mono(("mul", ("mul", 3, 1), 2))
    zero = Polynomial(field, {}, degree=3)
    assert apply_permutation((3, 1, 2), zero) == zero


def test_linearize_square_gives_two_terms():
    # x1*x1 -> x1*x2 + x2*x1
    f = poly({("mul", 1, 1): 1})
    assert linearize(f) == poly({("mul", 1, 2): 1, ("mul", 2, 1): 1})


def test_linearize_multilinear_is_identity():
    f = poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 3, ("mul", 2, 1)): -2})
    assert linearize(f) == f


def test_linearize_cube_gives_six_terms():
    f = poly({("mul", ("mul", 1, 1), 1): 1})
    out = linearize(f)
    assert len(out.terms) == 6
    assert set(out.terms.values()) == {QQ.coerce(1)}
    assert all(
        m.node[0] == "mul" and isinstance(m.node[1], tuple)
        for m in out.terms
    )


def test_linearize_mixed_profile():
    # x1 * (x2 * x1): x1 has degree 2 -> blocks {1,2} for x1, {3} for x2
    f = poly({("mul", 1, ("mul", 2, 1)): 1})
    out = linearize(f)
    assert out == poly(
        {("mul", 1, ("mul", 3, 2)): 1, ("mul", 2, ("mul", 3, 1)): 1}
    )


def test_linearize_rejects_inhomogeneous():
    f = poly({("mul", 1, 1): 1, ("mul", 1, 2): 1})
    with pytest.raises(ValueError):
        linearize(f)


def test_doubled_signature_names_and_split():
    d = double_signature(BIN)
    assert d.names == ("mul^1", "mul^2")
    assert d.arity("mul^1") == 2
    with pytest.raises(ValueError):
        double_signature(d)


def test_doubled_basis_count():
    d = double_signature(BIN)
    # 2 ops per node: skeletons 2 * 2^2 = 8 at degree 3, times 3! = 48
    assert len(enumerate_monomials(d, 3)) == 48
    assert len(enumerate_monomials(d, 4)) == 960


def test_format_round_look():
    p = poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1})
    assert (
        format_polynomial(p)
        == "(+ (mul (mul 1 2) 3) (- (mul 1 (mul 2 3))))"
    )
    assert format_polynomial(poly({("mul", 1, 2): 2})) == "(* 2 (mul 1 2))"
    assert format_polynomial(Polynomial(QQ, {}, degree=2)) == "0"
