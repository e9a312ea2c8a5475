"""Slow reference constructions that the package no longer uses itself.

Each builds its answer the long way, over every column, so tests can check
the package's shortcuts against it.
"""

from __future__ import annotations

from dioperad.dialgebra import DiPolynomial, superscript_poly, unsuperscript
from dioperad.fields import QQ
from dioperad.ideals import consequences_at_degree, poly_to_vector
from dioperad.linalg import Subspace, left_kernel_basis, row_reduce
from dioperad.morphisms import OperadMorphism, evaluate_morphism
from dioperad.terms import (
    DEFAULT_DEGREE_CAP,
    DoubledSignature,
    Polynomial,
    enumerate_monomials,
    monomial_index,
)


def morphism_kernel_at_degree(
    mor: OperadMorphism,
    d: int,
    field=QQ,
    max_degree: int = DEFAULT_DEGREE_CAP,
    cache=None,
) -> Subspace:
    """The full-column kernel: source combinations of every degree-d basis
    monomial whose images die in the target quotient."""
    basis = enumerate_monomials(mor.source_signature, d, max_degree)
    target = consequences_at_degree(mor.target, d, field, max_degree, cache)
    rows = []
    for m in basis:
        vec = poly_to_vector(evaluate_morphism(mor, m, field), target.index)
        rows.append(target.ideal.reduce(vec))
    ker = left_kernel_basis(field, rows, target.ambient_dimension)
    return row_reduce(field, len(basis), ker)


def zeta_preimage(
    dsig: DoubledSignature,
    n: int,
    space: Subspace,
    field,
    max_degree: int = DEFAULT_DEGREE_CAP,
) -> Subspace:
    """The collapse kernel: doubled elements whose collapse image lies in
    the given subspace of n stacked copies of the plain space, computed as
    the kernel of collapse followed by reduction modulo the subspace."""
    base_index = monomial_index(dsig.base, n, max_degree)
    block = len(base_index)
    assert space.ncols == n * block
    rows = []
    for m in enumerate_monomials(dsig, n, max_degree):
        plain, leaf = unsuperscript(m)
        col = (leaf - 1) * block + base_index[plain.node]
        rows.append(space.reduce({col: field.one}))
    ker = left_kernel_basis(field, rows, space.ncols)
    return row_reduce(field, len(rows), ker)


def to_doubled(dp: DiPolynomial) -> Polynomial:
    """Lift each emphasis component onto its canonical doubled monomials."""
    out = Polynomial(dp.field, {}, degree=dp.degree)
    for k, comp in enumerate(dp.components, 1):
        if not comp.is_zero:
            out = out + superscript_poly(comp, k)
    return out
