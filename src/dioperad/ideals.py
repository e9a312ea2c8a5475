"""Varieties of algebras presented by multilinear identities, and the
degree-by-degree expansion of the operad ideal those identities generate.

The multilinear consequences of a set of identities in degree n form the
n-th component of the smallest ideal containing them that is closed under
composition on either side and relabelling of variables.  The component is
computed layer by layer: one-step substitutions of a single operation into
(or around) each lower layer, then closure under the symmetric group, kept
in the run context's memo.  When k[S_n] is semisimple its dimension is
counted by partition instead, from a few S_n-module generators that are
not expanded, and the module of their images answers membership (see
``ideal_dimensions``, ``module_generators`` and ``degree_component``).  A
presentation's ranks by partition are the only results written to the
disk cache, by ``dim`` and by the commands that ask for module
generators.
"""

from __future__ import annotations

import hashlib

from .context import as_context
from .fields import QQ
from .linalg import Subspace, _Reducer
from .terms import (
    Monomial,
    Polynomial,
    basis_layout,
    check_in_signature,
    format_node,
    format_polynomial,
    substitution_column_maps,
)
from .young import ModuleRanks, WordTable, dimensions


class VarietyPresentation:
    """A named signature together with defining multilinear identities.

    Generators are stored with rational coefficients and converted into a
    working field on demand.
    """

    __slots__ = ("name", "signature", "generators", "generator_names", "digest")

    def __init__(self, name, signature, generators, generator_names=None):
        generators = tuple(generators)
        if generator_names is None:
            generator_names = tuple(f"id{i + 1}" for i in range(len(generators)))
        generator_names = tuple(str(s) for s in generator_names)
        if len(generator_names) != len(generators):
            raise ValueError("one name per identity required")
        for gname, g in zip(generator_names, generators):
            if not isinstance(g, Polynomial) or g.field != QQ:
                raise ValueError(
                    f"identity {gname!r} must have rational coefficients"
                )
            if g.is_zero:
                raise ValueError(f"identity {gname!r} is zero")
            if g.degree < 2:
                raise ValueError(f"identity {gname!r} has degree < 2")
            if not g.is_multilinear():
                raise ValueError(f"identity {gname!r} is not multilinear")
            for m in g.terms:
                check_in_signature(m, signature)
        self.name = str(name)
        self.signature = signature
        self.generators = generators
        self.generator_names = generator_names
        h = hashlib.sha256()
        h.update(repr(signature.operations).encode())
        for gname, g in zip(generator_names, generators):
            h.update(b"\x00" + gname.encode())
            h.update(b"\x00" + format_polynomial(g).encode())
        self.digest = h.hexdigest()

    def __eq__(self, other):
        return (
            isinstance(other, VarietyPresentation)
            and self.digest == other.digest
        )

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return (
            f"VarietyPresentation({self.name!r}, "
            f"{len(self.generators)} identities)"
        )


def poly_to_vector(p: Polynomial, layout) -> dict:
    try:
        return {layout[m.node]: c for m, c in p.terms.items()}
    except KeyError as exc:
        raise ValueError(f"monomial outside the ambient basis: {exc}") from None


def vector_to_poly(vec: dict, layout, field) -> Polynomial:
    """The polynomial with the given coordinates; monomials are built for
    the vector's support only."""
    return Polynomial(
        field,
        {Monomial(layout.node(c)): v for c, v in vec.items()},
        degree=layout.degree,
    )


class DegreeComponent:
    """One multilinear degree of a variety: the column layout of the
    ambient basis, the ideal on those columns, and the quotient.  The ideal
    is a ``Subspace`` of expanded rows or, counted by partition, a
    ``young.ModuleRanks``; either gives ncols, dim, field and
    contains(vec)."""

    __slots__ = ("layout", "degree", "ideal", "field")

    def __init__(self, layout, ideal):
        self.layout = layout
        self.degree = layout.degree
        self.ideal = ideal
        self.field = ideal.field

    @property
    def ambient_dimension(self) -> int:
        return self.ideal.ncols

    @property
    def quotient_dimension(self) -> int:
        return self.ideal.ncols - self.ideal.dim

    def contains(self, p: Polynomial) -> bool:
        p = p.convert(self.field)
        if p.degree != self.degree:
            raise ValueError(
                f"degree {p.degree} element tested in degree {self.degree}"
            )
        for m in p.terms:
            if not m.is_multilinear():
                raise ValueError(
                    f"monomial {format_node(m.node)} is not multilinear: each "
                    f"of the variables 1..{self.degree} must occur once; "
                    "write a multihomogeneous identity as (linearize ...)"
                )
        return self.ideal.contains(poly_to_vector(p, self.layout))


def _perm_column_maps(layout):
    """Column permutations for a generating set of leaf relabelings: each
    relabels the leaf words once, and every skeleton keeps its offset."""
    n = layout.degree
    if n < 2:
        return []
    perms = [(2, 1) + tuple(range(3, n + 1))]
    if n > 2:
        perms.append(tuple(range(2, n + 1)) + (1,))
    rank, words = layout.rank, layout.words
    maps = []
    for perm in perms:
        ranks = [rank[tuple(perm[v - 1] for v in w)] for w in words]
        maps.append(
            [s + r for s in range(0, layout.ncols, len(words)) for r in ranks]
        )
    return maps


def _seeds(signature, generators, n, ctx) -> dict:
    """The given polynomials of degree at most n, converted to the
    context's field, as vectors on their own degree's layout, keyed by
    degree."""
    seeds: dict = {}
    for g in generators:
        if g.degree <= n:
            layout = basis_layout(signature, g.degree, ctx)
            seeds.setdefault(g.degree, []).append(
                poly_to_vector(g.convert(ctx.field), layout)
            )
    return seeds


def _candidates(signature, seeds, n, ctx, lower):
    """The vectors that generate the degree-n ideal, in a fixed order: the
    degree-n seed vectors, then, one operation at a time, the one-step
    substitutions of each vector in ``lower(m)``, m being the lower degree
    that the operation composes into degree n."""
    layout = basis_layout(signature, n, ctx)
    yield from seeds
    for op, arity in signature.operations:
        m = n - arity + 1
        if m < 2 or m >= n:
            continue
        vectors = lower(m)
        if not vectors:
            continue
        # every w o_i op, then every op o_i w, for each lower vector
        colmaps = substitution_column_maps(
            basis_layout(signature, m, ctx), layout, op
        )
        for vec in vectors:
            for colmap in colmaps:
                yield {colmap[c]: v for c, v in vec.items()}


def ideal_component(signature, generators, digest, n, ctx=None) -> Subspace:
    """Degree-n span of the operad ideal generated by the given multilinear
    polynomials (already over the context's field): the span of the
    candidates, with every lower component's rows substituted, closed
    under S_n.  ``digest`` keys the memo; equal digests must mean equal
    inputs.
    """
    ctx = as_context(ctx)

    def build():
        reducer = _Reducer(ctx.field)
        queue: list[dict] = []

        def feed(vec):
            if reducer.insert(vec):
                queue.append(vec)

        def lower(m):
            return ideal_component(signature, generators, digest, m, ctx).rows

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

    return ctx.memo(("ideal", digest, n), n, build)


def consequences_at_degree(variety, n: int, ctx=None) -> DegreeComponent:
    """The degree-n multilinear component of the variety's defining ideal,
    inside the free-operad basis of that degree."""
    ctx = as_context(ctx)
    ctx.check_degree(n)  # before converting, so the cap error comes first
    ideal = ideal_component(
        variety.signature,
        tuple(g.convert(ctx.field) for g in variety.generators),
        variety.digest,
        n,
        ctx,
    )
    return DegreeComponent(basis_layout(variety.signature, n, ctx), ideal)


_RANKS_TAG = "young-ranks-v1"


def _ranks_key(digest, field, n) -> str:
    return f"{_RANKS_TAG}:{digest}:{field.name}:{n}"


def _semisimple(field, n) -> bool:
    """Whether k[S_n] is semisimple: characteristic 0 or above n."""
    return not field.characteristic or field.characteristic > n


def _ideal_dim(n, ranks) -> int:
    return sum(map(int.__mul__, dimensions(n), ranks))


def _module_step(signature, seeds, digest, n, ctx, cache=None):
    """The degree-n ideal generated by the seed vectors (``_seeds``) as an
    S_n-module: its ``ModuleRanks``, and the module generators that raised
    one of its ranks: the ``_candidates`` with each lower degree's kept
    generators substituted.  Both stay in the memo, so the module answers
    membership without its generators being inserted again.

    By equivariance a substitution of a relabelled element is a relabelling
    of a substitution at another slot, so the candidates generate the
    module.  A candidate that raises no rank already lies in the module of
    those before it, and so do its substitutions, so it is not kept.  The
    ranks of each degree are written to the given disk cache, if any."""

    def build():
        layout = basis_layout(signature, n, ctx)
        table = ctx.memo(("young", n), n, lambda: WordTable(layout, ctx.field))
        module = ModuleRanks(table, len(layout.skeletons))
        kept = []

        def lower(m):
            return _module_step(signature, seeds, digest, m, ctx, cache)[1]

        for vec in _candidates(signature, seeds.get(n, ()), n, ctx, lower):
            if module.insert(vec):
                kept.append(vec)
        module.release_indices()
        if cache is not None:
            cache.put(
                _ranks_key(digest, ctx.field, n),
                {"ranks": module.ranks, "dim": module.dim},
            )
        return module, kept

    return ctx.memo(("ranks", digest, n), n, build)


def _presentation_module(variety, n, ctx):
    """``_module_step`` of the variety's defining identities, writing its
    ranks to the context's disk cache."""
    seeds = _seeds(variety.signature, variety.generators, n, ctx)
    return _module_step(
        variety.signature, seeds, variety.digest, n, ctx, ctx.cache
    )


def _decode_ranks(stored, n, nblocks):
    """The stored ranks, or None unless they are one int per partition of
    n, each between 0 and nblocks·d_λ, beside an int dimension equal to
    their weighted sum Σ d_λ·r_λ."""
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
        and dim == _ideal_dim(n, ranks)
    )
    return ranks if valid else None


def partition_ranks(variety, n, ctx=None) -> list:
    """The ranks r_λ of the degree-n ideal, one per partition of n in the
    order of ``young.partitions``, read from the disk cache if it holds
    them.  The field's characteristic must be 0 or above n.  The ideal has
    dimension Σ d_λ·r_λ, and λ has multiplicity s·d_λ − r_λ in the
    quotient, s being the number of skeletons."""
    ctx = as_context(ctx)
    ctx.check_degree(n)  # before converting, so the cap error comes first
    if not _semisimple(ctx.field, n):
        raise ValueError(
            f"ranks by partition need characteristic 0 or above {n}, "
            f"got {ctx.field.characteristic}"
        )
    if ctx.cache is not None:
        ranks = _decode_ranks(
            ctx.cache.get(_ranks_key(variety.digest, ctx.field, n)),
            n,
            len(basis_layout(variety.signature, n, ctx).skeletons),
        )
        if ranks is not None:
            return ranks
    return _presentation_module(variety, n, ctx)[0].ranks


def ideal_dimensions(variety, n, ctx=None):
    """(ambient, ideal) dimensions of the degree-n component.  Over the
    rationals or a prime above n, where k[S_n] is semisimple, the ideal's
    dimension comes from ``partition_ranks``; over a smaller prime it is
    the rank of the expanded ideal."""
    ctx = as_context(ctx)
    ctx.check_degree(n)
    if not _semisimple(ctx.field, n):
        comp = consequences_at_degree(variety, n, ctx)
        return comp.ambient_dimension, comp.ideal.dim
    ranks = partition_ranks(variety, n, ctx)
    return basis_layout(variety.signature, n, ctx).ncols, _ideal_dim(n, ranks)


def module_generators(variety, n, ctx=None):
    """(dimension, generators) of the degree-n ideal, the generators
    spanning it as a k[S_n]-module.  Over the rationals or a prime above n
    the dimension is Σ d_λ·r_λ and the generators are the kept module
    generators of ``_module_step``, whose ranks go to the disk cache; no
    ideal row is built.  Over a smaller prime they are the rank and the
    rows of the expanded ideal."""
    ctx = as_context(ctx)
    ctx.check_degree(n)
    if not _semisimple(ctx.field, n):
        ideal = consequences_at_degree(variety, n, ctx).ideal
        return ideal.dim, ideal.rows
    module, kept = _presentation_module(variety, n, ctx)
    return module.dim, kept


def degree_component(variety, n, ctx=None) -> DegreeComponent:
    """The degree-n component, for its dimensions and membership in its
    ideal.  Over the rationals or a prime above n the ideal is the
    S_n-module counted by partition, a ``young.ModuleRanks`` that is never
    expanded (its ranks are not written to the disk cache); over a smaller
    prime it is the expanded ideal of ``consequences_at_degree``."""
    ctx = as_context(ctx)
    ctx.check_degree(n)
    if not _semisimple(ctx.field, n):
        return consequences_at_degree(variety, n, ctx)
    seeds = _seeds(variety.signature, variety.generators, n, ctx)
    module = _module_step(variety.signature, seeds, variety.digest, n, ctx)[0]
    return DegreeComponent(basis_layout(variety.signature, n, ctx), module)


def quotient_dimension(variety, n, ctx=None):
    ambient, ideal = ideal_dimensions(variety, n, ctx)
    return ambient - ideal


def identity_implies(variety, p: Polynomial, ctx=None) -> bool:
    """Whether p vanishes in every algebra of the variety."""
    for m in p.terms:
        check_in_signature(m, variety.signature)
    return degree_component(variety, p.degree, ctx).contains(p)
