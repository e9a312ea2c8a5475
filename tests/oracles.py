"""Slow reference constructions that the package no longer uses itself.

Each builds its answer the long way, over every column, so tests can check
the package's shortcuts against it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from dioperad import dialgebra, morphisms
from dioperad.context import as_context
from dioperad.dialgebra import (
    DialgebraEquivalenceReport,
    DiPolynomial,
    _strip,
    collapse_preimage_dimension,
    is_collapse_preimage,
    superscript_poly,
    zero_identities,
)
from dioperad.ideals import (
    _candidates,
    _perm_column_maps,
    consequences_at_degree,
    poly_to_vector,
    vector_to_poly,
)
from dioperad.linalg import Subspace, _Reducer, row_reduce
from dioperad.morphisms import (
    BsoKernelReport,
    DegreeComparison,
    DiSpecialIdentitiesReport,
    OperadMorphism,
    evaluate_morphism,
)
from dioperad.fields import QQ
from dioperad.terms import (
    DoubledSignature,
    Monomial,
    Polynomial,
    Signature,
    _graft,
    apply_permutation,
    basis_layout,
    collapse,
    compose,
    double_signature,
    enumerate_monomials,
    substitute_at,
)


def trusted_subspace(field, ncols, rows) -> Subspace:
    """The subspace whose canonical reduced basis is the given rows, in any
    order.  Each row is placed into a ``_Reducer`` as it is, in the form
    the reducer holds (over the rationals a primitive int vector), without
    ``insert``: the oracles built on it stay independent of the elimination
    they check.  Rows that do not have distinct pivots are refused."""
    reducer = _Reducer(field)
    for row in rows:
        pivot = min(row)
        if pivot in reducer.pivot_rows:
            raise ValueError("rows do not have distinct pivots")
        if not field.characteristic:
            den = math.lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        reducer.pivot_rows[pivot] = dict(row)
    return Subspace(field, ncols, reducer)


def transpose(rows, ncols) -> list[dict]:
    cols: list[dict] = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c][i] = v
    return cols


def kernel_basis(field, ncols, rows) -> list[dict]:
    """Basis of the right null space, one vector per free column, ascending."""
    space = row_reduce(field, ncols, rows)
    pivots = set(space.pivots)
    out = {free: {free: field.one} for free in range(ncols) if free not in pivots}
    # Rows are fully reduced, so every entry off a row's own pivot sits in a
    # free column; ascending pivots keep each vector's keys in order.
    for p, row in zip(space.pivots, space.rows):
        for c, v in row.items():
            if c != p:
                out[c][p] = field.neg(v)
    return list(out.values())


def left_kernel_basis(field, rows, ncols) -> list[dict]:
    """Coefficient vectors u with sum_i u[i] * rows[i] = 0."""
    return kernel_basis(field, len(rows), transpose(rows, ncols))


def same_subspace(a: Subspace, b: Subspace) -> bool:
    """Whether two subspaces are equal: the same field and width, and the
    same canonical reduced basis."""
    return (
        a.field == b.field
        and a.ncols == b.ncols
        and a.pivots == b.pivots
        and a.rows == b.rows
    )


def monomial_index(sig: Signature, n: int, ctx=None) -> dict:
    """The degree-n basis as a dict from raw tree node to column, in the
    order of ``enumerate_monomials``."""
    return {m.node: i for i, m in enumerate(enumerate_monomials(sig, n, ctx))}


class EmphasizedMonomial(NamedTuple):
    """A plain monomial with one distinguished leaf label."""

    monomial: Monomial
    leaf: int


def unsuperscript(m: Monomial) -> EmphasizedMonomial:
    """Drop all superscripts; the emphasized leaf is the one reached by
    descending along the root superscripts (``terms.collapse``)."""
    slot = collapse(m.node)[1]
    return EmphasizedMonomial(Monomial(_strip(m.node)), m.leaf_word[slot])


def from_doubled(p: Polynomial) -> DiPolynomial:
    """The collapse image of a doubled polynomial, one monomial at a time."""
    buckets: list[dict] = [dict() for _ in range(p.degree)]
    f = p.field
    for m, c in p.terms.items():
        plain, leaf = unsuperscript(m)
        bucket = buckets[leaf - 1]
        nv = f.add(bucket.get(plain, f.zero), c)
        if nv:
            bucket[plain] = nv
        else:
            bucket.pop(plain, None)
    return DiPolynomial(
        f, p.degree, [Polynomial(f, b, degree=p.degree) for b in buckets]
    )


def dipolynomial_vector(dp: DiPolynomial, layout) -> dict:
    """Coordinates of an emphasized element over stacked copies of the
    plain layout, the inverse of ``vector_to_dipolynomial``."""
    return {
        (k - 1) * layout.ncols + layout[m.node]: c
        for k, comp in enumerate(dp.components, 1)
        for m, c in comp.terms.items()
    }


def vector_to_dipolynomial(vec: dict, layout, field) -> DiPolynomial:
    """Decode a coordinate vector over n stacked copies of the degree-n
    plain layout; monomials are built for the vector's support only."""
    n, block = layout.degree, layout.ncols
    buckets: list[dict] = [dict() for _ in range(n)]
    for col, v in vec.items():
        k, c = divmod(col, block)
        buckets[k][Monomial(layout.node(c))] = v
    return DiPolynomial(
        field, n, [Polynomial(field, b, degree=n) for b in buckets]
    )


def di_ideal_at_degree(variety, n: int, ctx=None) -> Subspace:
    """The emphasized elements all of whose components lie in the plain
    ideal: the block sum of one copy of the degree-n consequences per
    emphasis position, over n stacked copies of the plain columns."""
    comp = consequences_at_degree(variety, n, ctx)
    block = comp.ambient_dimension
    rows = [
        {k * block + c: v for c, v in r.items()}
        for k in range(n)
        for r in comp.ideal.rows
    ]
    return trusted_subspace(comp.field, n * block, rows)


def _skeleton_key(node, sig):
    if isinstance(node, int):
        return (1,)
    return (0, sig.names.index(node[0])) + tuple(
        _skeleton_key(c, sig) for c in node[1:]
    )


def sort_key(m: Monomial, sig: Signature):
    """Canonical order: skeleton (operations by signature position, internal
    nodes before leaves), ties broken by the leaf word."""
    return (_skeleton_key(m.node, sig), m.leaf_word)


def _compositions(total: int, parts: int):
    """Ordered tuples of positive ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _shapes(sig: Signature, n: int):
    """Every tree with n leaves labelled 0, in no particular order."""
    if n == 1:
        return [0]
    return [
        (name,) + kids
        for name, arity in sig.operations
        if arity <= n
        for comp in _compositions(n, arity)
        for kids in itertools.product(*(_shapes(sig, c) for c in comp))
    ]


def sorted_monomials(sig: Signature, n: int):
    """The degree-n multilinear monomials: every shape filled with every
    leaf word, sorted by ``sort_key``."""

    def fill(node, labels):
        if node == 0:
            return next(labels)
        return (node[0],) + tuple(fill(c, labels) for c in node[1:])

    monomials = [
        Monomial(fill(shape, iter(word)))
        for shape in _shapes(sig, n)
        for word in itertools.permutations(range(1, n + 1))
    ]
    return sorted(monomials, key=lambda m: sort_key(m, sig))


def tree_candidates(sig: Signature, generators, n: int, field, lower):
    """The candidates of ``ideals._candidates`` built on trees: the
    degree-n generators, then, one operation at a time, each vector of
    ``lower(m)`` turned back into a polynomial and substituted into and
    around the corolla with ``substitute_at``."""
    index = monomial_index(sig, n)
    for g in generators:
        if g.degree == n:
            yield poly_to_vector(g, index)
    for op, arity in sig.operations:
        m = n - arity + 1
        if m < 2 or m >= n:
            continue
        lower_basis = enumerate_monomials(sig, m)
        corolla = Monomial((op,) + tuple(range(1, arity + 1)))
        for row in lower(m):
            p = Polynomial(field, {lower_basis[c]: v for c, v in row.items()}, m)
            for i in range(1, m + 1):
                yield poly_to_vector(substitute_at(p, i, corolla), index)
            for i in range(1, arity + 1):
                yield poly_to_vector(substitute_at(corolla, i, p), index)


def tree_ideal_component(sig: Signature, generators, n: int, field):
    """The degree-n ideal component built on trees: the ``tree_candidates``
    of every lower row, closed under a transposition and an n-cycle with
    ``_graft``."""
    basis = enumerate_monomials(sig, n)
    index = monomial_index(sig, n)
    reducer = _Reducer(field)
    queue = []

    def feed(vec):
        if reducer.insert(vec):
            queue.append(vec)

    def lower(m):
        return tree_ideal_component(sig, generators, m, field).rows

    for vec in tree_candidates(sig, generators, n, field, lower):
        feed(vec)
    perms = [(2, 1) + tuple(range(3, n + 1))] if n > 1 else []
    if n > 2:
        perms.append(tuple(range(2, n + 1)) + (1,))
    colmaps = [
        [index[_graft(m.node, dict(enumerate(perm, 1)))] for m in basis]
        for perm in perms
    ]
    while queue:
        vec = queue.pop()
        for colmap in colmaps:
            feed({colmap[c]: v for c, v in vec.items()})
    return Subspace(field, len(basis), reducer)


def row_ideal_component(signature, generators, digest, n, ctx=None) -> Subspace:
    """Degree-n span of the operad ideal generated by the given multilinear
    polynomials (already over the context's field), on columns: every row
    of every lower degree substituted (``ideals._candidates``), then the
    span closed under S_n.  Memoised in the context under its own key;
    ``digest`` must name the generators."""
    ctx = as_context(ctx)

    def build():
        reducer = _Reducer(ctx.field)
        queue: list[dict] = []

        def feed(vec):
            if reducer.insert(vec):
                queue.append(vec)

        def lower(m):
            return row_ideal_component(signature, generators, digest, m, ctx).rows

        layout = basis_layout(signature, n, ctx)
        seeds = [poly_to_vector(g, layout) for g in generators if g.degree == n]
        for vec in _candidates(signature, seeds, n, ctx, lower):
            feed(vec)
        colmaps = _perm_column_maps(layout)
        while queue:
            vec = queue.pop()
            for colmap in colmaps:
                feed({colmap[c]: v for c, v in vec.items()})
        return Subspace(ctx.field, layout.ncols, reducer)

    return ctx.memo(("row-ideal", digest, n), n, build)


def extend(space: Subspace, extra_rows) -> Subspace:
    """The span of a subspace together with additional vectors."""
    reducer = _Reducer(space.field)
    for row in itertools.chain(space.rows, extra_rows):
        reducer.insert(row)
    return Subspace(space.field, space.ncols, reducer)


def morphism_kernel(mor: OperadMorphism, source, d: int, ctx=None):
    """The source component at degree d and the kernel K = I ⊕ S of the
    morphism, built from the ideal I and the special space S of
    ``morphisms._morphism_kernel``, which it looks up at call time."""
    ctx = as_context(ctx)
    comp, special = morphisms._morphism_kernel(mor, source, d, ctx)
    return comp, extend(comp.ideal, special.rows)


def stacked_di_special_identities(mor: OperadMorphism, source, d: int, ctx=None):
    """``di_special_identities`` on stacked rows: d copies of the plain
    kernel reduced modulo d copies of the plain ideal
    (``di_ideal_at_degree``), and the lift match decided by comparing the
    spans of the ideal with the stacked kernel and with the stacked
    special rows."""
    ctx = as_context(ctx)
    field = ctx.field
    comp, special = morphisms._morphism_kernel(mor, source, d, ctx)
    kernel = extend(comp.ideal, special.rows)
    block = comp.ambient_dimension
    ideal = di_ideal_at_degree(source, d, ctx)

    def stacked(rows):
        return [
            {k * block + c: v for c, v in r.items()}
            for k in range(d)
            for r in rows
        ]

    block_kernel = trusted_subspace(field, d * block, stacked(kernel.rows))
    reduced = [ideal.reduce(r) for r in block_kernel.rows]
    di_special = row_reduce(field, d * block, reduced)
    return DiSpecialIdentitiesReport(
        morphism=f"di-{mor.name}",
        degree=d,
        field=field.name,
        ambient_dimension=d * block,
        kernel_dimension=block_kernel.dim,
        ideal_dimension=ideal.dim,
        special_dimension=di_special.dim,
        basis=tuple(
            vector_to_dipolynomial(r, comp.layout, field)
            for r in di_special.rows
        ),
        matches_lifted=extend(ideal, stacked(special.rows)).dim
        == extend(ideal, block_kernel.rows).dim,
    )


def tree_evaluate_morphism(mor: OperadMorphism, p, field=None):
    """``morphisms.evaluate_morphism`` by composition: each operation's
    image composed with the images of its arguments, every leaf read as 1
    and the variables shifted into blocks, then each term relabelled by its
    leaf word."""
    if isinstance(p, Monomial):
        p = Polynomial.monomial(p, QQ if field is None else field)
    if field is None:
        field = p.field
    p = p.convert(field)
    images = {op: img.convert(field) for op, img in mor.images.items()}

    def eval_node(node):
        if isinstance(node, int):
            return Polynomial.monomial(Monomial(1), field)
        img = images.get(node[0])
        if img is None:
            raise ValueError(f"operation {node[0]!r} has no image")
        return compose(img, [eval_node(c) for c in node[1:]])

    out = Polynomial(field, {}, degree=p.degree)
    for m, c in p.terms.items():
        out = out + apply_permutation(m.leaf_word, eval_node(m.node)).scale(c)
    return out


def morphism_kernel_at_degree(
    mor: OperadMorphism, d: int, ctx=None
) -> Subspace:
    """The full-column kernel: source combinations of every degree-d basis
    monomial whose images die in the target quotient."""
    ctx = as_context(ctx)
    field = ctx.field
    basis = enumerate_monomials(mor.source_signature, d, ctx)
    target = consequences_at_degree(mor.target, d, ctx)
    rows = []
    for m in basis:
        vec = poly_to_vector(evaluate_morphism(mor, m, field), target.layout)
        rows.append(target.ideal.reduce(vec))
    ker = left_kernel_basis(field, rows, target.ambient_dimension)
    return row_reduce(field, len(basis), ker)


def zeta_preimage(
    dsig: DoubledSignature, n: int, space: Subspace, ctx=None
) -> Subspace:
    """The collapse kernel: doubled elements whose collapse image lies in
    the given subspace of n stacked copies of the plain space, computed as
    the kernel of collapse followed by reduction modulo the subspace, over
    the subspace's field."""
    field = space.field
    base_index = monomial_index(dsig.base, n, ctx)
    block = len(base_index)
    assert space.ncols == n * block
    rows = []
    for m in enumerate_monomials(dsig, n, ctx):
        plain, leaf = unsuperscript(m)
        col = (leaf - 1) * block + base_index[plain.node]
        rows.append(space.reduce({col: field.one}))
    ker = left_kernel_basis(field, rows, space.ncols)
    return row_reduce(field, len(rows), ker)


def row_dialgebra_equivalence(variety, n: int, ctx=None):
    """``verify_dialgebra_equivalence`` on the expanded doubled ideal: its
    dimension is the number of its rows, and every row is tested by
    ``is_collapse_preimage``.  Looks ``bso_presentation`` up at call time,
    so that a patched presentation is seen here too."""
    ctx = as_context(ctx)
    base = consequences_at_degree(variety, n, ctx)
    divar = dialgebra.bso_presentation(variety)
    ideal = consequences_at_degree(divar, n, ctx).ideal
    return DialgebraEquivalenceReport(
        variety=variety.name,
        degree=n,
        field=ctx.field.name,
        ambient_dimension=ideal.ncols,
        ideal_dimension=ideal.dim,
        quotient_dimension=ideal.ncols - ideal.dim,
        expected_quotient_dimension=n * base.quotient_dimension,
        equal=is_collapse_preimage(
            divar.signature, n, ideal.dim, ideal.rows, base.ideal, ctx
        ),
    )


def row_bso_theorem(mor: OperadMorphism, source, d: int, ctx=None):
    """``verify_bso_theorem`` the long way, without its guards: every row of
    every plain kernel turned back into a polynomial and lifted to each
    emphasis with ``superscript_poly``, the doubled ideal they generate
    expanded row by row, and each of its rows tested by
    ``is_collapse_preimage``.  Looks ``morphism_kernel`` up at call time,
    so that a patched kernel is seen here too."""
    ctx = as_context(ctx)
    field = ctx.field
    dsig = double_signature(mor.source_signature)
    gens = [q.convert(field) for q in zero_identities(mor.source_signature)[1]]
    kernels = {}
    for m in range(2, d + 1):
        comp, kernels[m] = morphism_kernel(mor, source, m, ctx)
        for r in kernels[m].rows:
            q = vector_to_poly(r, comp.layout, field)
            gens.extend(superscript_poly(q, k) for k in range(1, m + 1))
    digest = f"bso-rows:{mor.digest}"
    comparisons = []
    for m, kernel in kernels.items():
        ideal = row_ideal_component(dsig, tuple(gens), digest, m, ctx)
        comparisons.append(
            DegreeComparison(
                degree=m,
                ambient_dimension=ideal.ncols,
                kernel_dimension=collapse_preimage_dimension(
                    m, ideal.ncols, kernel
                ),
                consequence_dimension=ideal.dim,
                equal=is_collapse_preimage(
                    dsig, m, ideal.dim, ideal.rows, kernel, ctx
                ),
            )
        )
    return BsoKernelReport(
        morphism=mor.name,
        degree=d,
        field=field.name,
        comparisons=tuple(comparisons),
        verdict=all(c.equal for c in comparisons),
    )


def to_doubled(dp: DiPolynomial) -> Polynomial:
    """Lift each emphasis component onto its canonical doubled monomials."""
    out = Polynomial(dp.field, {}, degree=dp.degree)
    for k, comp in enumerate(dp.components, 1):
        if not comp.is_zero:
            out = out + superscript_poly(comp, k)
    return out


def axpy_into(field, row: dict, c, other: dict) -> None:
    """row += c * other, in place, in the field's own arithmetic, dropping
    entries that cancel."""
    for col, v in other.items():
        nv = field.add(row.get(col, field.zero), field.mul(c, v))
        if nv:
            row[col] = nv
        else:
            row.pop(col, None)


def elimination_reduce(space: Subspace, vec: dict) -> dict:
    """vec reduced against the subspace's fully reduced rows, one pivot
    column at a time in the field's own arithmetic: the reference for
    ``Subspace.reduce``, which reduces in one pass over the vector's
    support, on the integer rows of its ``_Reducer``."""
    f = space.field
    pivot_rows = dict(zip(space.pivots, space.rows))
    out = dict(vec)
    for col in sorted(c for c in out if c in pivot_rows):
        coeff = out.get(col)
        if coeff:
            axpy_into(f, out, f.neg(coeff), pivot_rows[col])
    return out


class FractionReducer:
    """Incremental fully reduced row echelon form with pivot entry 1 in
    every row, by the field's own arithmetic: the reference for
    ``linalg._Reducer``, which over the rationals eliminates on primitive
    integer rows instead."""

    def __init__(self, field, rows=()):
        self.field = field
        self.pivot_rows: dict = {}
        # column -> set of pivot columns whose rows touch it
        self._colindex: dict = {}
        for row in rows:
            self._add(min(row), dict(row))

    def _add(self, pivot, row):
        self.pivot_rows[pivot] = row
        for c in row:
            self._colindex.setdefault(c, set()).add(pivot)

    def insert(self, vec) -> bool:
        f = self.field
        red = dict(vec)
        for col in sorted(c for c in red if c in self.pivot_rows):
            coeff = red.get(col)
            if coeff:
                axpy_into(f, red, f.neg(coeff), self.pivot_rows[col])
        if not red:
            return False
        pivot = min(red)
        inv = f.inv(red[pivot])
        row = {c: f.mul(inv, v) for c, v in red.items()}
        for other in list(self._colindex.get(pivot, ())):
            target = self.pivot_rows[other]
            coeff = target.get(pivot)
            if not coeff:
                continue
            before = set(target)
            axpy_into(f, target, f.neg(coeff), row)
            for c in before.difference(target):
                owners = self._colindex.get(c)
                if owners is not None:
                    owners.discard(other)
                    if not owners:
                        del self._colindex[c]
            for c in target.keys() - before:
                self._colindex.setdefault(c, set()).add(other)
        self._add(pivot, row)
        return True


def fraction_row_reduce(field, ncols, rows, seed=None) -> Subspace:
    """The reduced echelon basis of the span of ``seed``'s rows, if given,
    and the given rows, built by ``FractionReducer``."""
    reducer = FractionReducer(field, seed.rows if seed is not None else ())
    for row in rows:
        reducer.insert(row)
    return trusted_subspace(field, ncols, reducer.pivot_rows.values())
