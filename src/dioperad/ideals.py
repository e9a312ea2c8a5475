"""Varieties of algebras presented by multilinear identities, and the
degree-by-degree expansion of the operad ideal those identities generate.

The multilinear consequences of a set of identities in degree n form the
n-th component of the smallest ideal containing them that is closed under
composition on either side and relabelling of variables.  The component is
computed layer by layer: one-step substitutions of a single operation into
(or around) each lower layer, then closure under the symmetric group.  Its
dimension alone is counted by partition when k[S_n] is semisimple: see
``ideal_dimensions``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import chain

from .context import as_context
from .fields import QQ
from .linalg import Subspace, _Reducer
from .terms import (
    Monomial,
    Polynomial,
    basis_layout,
    check_in_signature,
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
    ambient basis, the ideal on those columns, and the quotient."""

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


_CACHE_TAG = "consequences-v1"


def _encode_rows(field, rows) -> list:
    if field == QQ:
        return [
            [[c, str(v.numerator), str(v.denominator)]
             for c, v in sorted(row.items())]
            for row in rows
        ]
    return [[[c, int(v)] for c, v in sorted(row.items())] for row in rows]


def _decode_rows(field, stored, ncols):
    """The rows of a stored component (None on a miss), or None unless they
    form a fully reduced echelon basis over the field: integer columns in
    range and strictly increasing in each row, nonzero values in normal
    form, a one at each row's pivot, strictly increasing pivots, and no row
    nonzero in another row's pivot column.  An entry that has lost rows
    still passes."""
    try:
        data = stored["rows"]
        if field == QQ:
            rows = [{c: Fraction(int(n), int(d)) for c, n, d in e} for e in data]
            entries = list(chain.from_iterable(data))
        else:
            rows = [dict(e) for e in data]
        pivots = list(map(min, rows))
    except (LookupError, TypeError, ValueError, ZeroDivisionError):
        return None
    columns = list(chain.from_iterable(rows))
    values = list(chain.from_iterable(map(dict.values, rows)))
    if field == QQ:
        # A nonzero numerator stored as a string survives normalisation only
        # in lowest terms over a positive denominator.
        nums = [e[1] for e in entries]
        normal = set(map(type, nums + [e[2] for e in entries])) <= {str} and [
            v.numerator for v in values
        ] == list(map(int, nums))
    else:
        normal = (
            set(map(type, values)) <= {int}
            and 0 < min(values, default=1)
            and max(values, default=0) < field.p
        )
    pivot_set = set(pivots)
    valid = (
        normal
        and all(values)
        and len(columns) == sum(map(len, data))
        and set(map(type, columns)) <= {int}
        and all(map(list.__eq__, map(list, rows), map(sorted, rows)))
        and 0 <= min(columns, default=0) <= max(columns, default=0) < ncols
        and pivots == sorted(pivot_set)
        and list(map(dict.__getitem__, rows, pivots)) == [field.one] * len(rows)
        and sum(map(len, map(pivot_set.intersection, rows))) == len(rows)
    )
    return rows if valid else None


def ideal_component(signature, generators, digest, n, ctx=None) -> Subspace:
    """Degree-n span of the operad ideal generated by the given multilinear
    polynomials (already over the context's field).  ``digest`` keys the
    memo and the optional disk cache; equal digests must mean equal inputs.
    """
    ctx = as_context(ctx)
    return ctx.memo(
        ("ideal", digest, n),
        n,
        lambda: _load_or_expand(signature, generators, digest, n, ctx),
    )


def _load_or_expand(signature, generators, digest, n, ctx) -> Subspace:
    """The component read back from the disk cache, or else expanded from
    the lower components and then written to the disk cache."""
    field, cache = ctx.field, ctx.cache
    layout = basis_layout(signature, n, ctx)
    ncols = layout.ncols
    ckey = f"{_CACHE_TAG}:{digest}:{field.name}:{n}"
    if cache is not None:
        stored = cache.get(ckey)
        rows = _decode_rows(field, stored, ncols)
        # an entry that has lost whole rows is still well-formed; its
        # stored dimension gives it away
        if rows is not None and stored.get("dim") == len(rows):
            return Subspace(field, ncols, rows)

    reducer = _Reducer(field)
    queue: list[dict] = []

    def feed(vec):
        if reducer.insert(vec):
            queue.append(vec)

    for g in generators:
        if g.degree == n:
            feed(poly_to_vector(g, layout))

    for op, arity in signature.operations:
        m = n - arity + 1
        if m < 2 or m >= n:
            continue
        lower = ideal_component(signature, generators, digest, m, ctx)
        if not lower.dim:
            continue
        # every w o_i op, then every op o_i w, for each lower row
        colmaps = substitution_column_maps(
            basis_layout(signature, m, ctx), layout, op
        )
        for row in lower.rows:
            for colmap in colmaps:
                feed({colmap[c]: v for c, v in row.items()})

    colmaps = _perm_column_maps(layout)
    while queue:
        vec = queue.pop()
        for colmap in colmaps:
            feed({colmap[c]: v for c, v in vec.items()})

    space = Subspace(field, ncols, reducer)
    if cache is not None:
        cache.put(
            ckey, {"rows": _encode_rows(field, space.rows), "dim": space.dim}
        )
    return space


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


def _module_step(signature, generators, digest, n, ctx):
    """The degree-n ideal as an S_n-module: its ranks by partition, and the
    module generators that raised one of them.  The candidates are the
    degree-n identities and the one-step substitutions of each lower
    degree's kept generators.

    By equivariance a substitution of a relabelled element is a relabelling
    of a substitution at another slot, so the candidates generate the
    module.  A candidate that raises no rank already lies in the module of
    those before it, and so do its substitutions, so it is not kept.  The
    ranks are written to the disk cache."""

    def build():
        layout = basis_layout(signature, n, ctx)
        table = ctx.memo(("young", n), n, lambda: WordTable(layout, ctx.field))
        module = ModuleRanks(table, len(layout.skeletons))
        kept = []

        def offer(vec):
            if module.insert(vec):
                kept.append(vec)

        for g in generators:
            if g.degree == n:
                offer(poly_to_vector(g, layout))
        for op, arity in signature.operations:
            m = n - arity + 1
            if m < 2 or m >= n:
                continue
            _, lower = _module_step(signature, generators, digest, m, ctx)
            colmaps = substitution_column_maps(
                basis_layout(signature, m, ctx), layout, op
            )
            for vec in lower:
                for colmap in colmaps:
                    offer({colmap[c]: v for c, v in vec.items()})
        ranks = module.ranks
        if ctx.cache is not None:
            ctx.cache.put(
                _ranks_key(digest, ctx.field, n),
                {"ranks": ranks, "dim": _ideal_dim(n, ranks)},
            )
        return ranks, kept

    return ctx.memo(("ranks", digest, n), n, build)


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
    generators = tuple(g.convert(ctx.field) for g in variety.generators)
    if ctx.cache is not None:
        ranks = _decode_ranks(
            ctx.cache.get(_ranks_key(variety.digest, ctx.field, n)),
            n,
            len(basis_layout(variety.signature, n, ctx).skeletons),
        )
        if ranks is not None:
            return ranks
    return _module_step(variety.signature, generators, variety.digest, n, ctx)[0]


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


def quotient_dimension(variety, n, ctx=None):
    ambient, ideal = ideal_dimensions(variety, n, ctx)
    return ambient - ideal


def identity_implies(variety, p: Polynomial, ctx=None) -> bool:
    """Whether p vanishes in every algebra of the variety."""
    return consequences_at_degree(variety, p.degree, ctx).contains(p)
