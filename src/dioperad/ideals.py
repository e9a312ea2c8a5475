"""The degree-by-degree construction of the operad ideal that the
multilinear identities of a variety (``presentations``) generate.

The multilinear consequences of a set of identities in degree n form the
n-th component of the smallest ideal containing them that is closed under
composition on either side and relabelling of variables.  Each component
is an S_n-module, generated by the given identities of degree n and the
one-step substitutions of a single operation into (or around) the module
generators of each lower degree.  ``_module_step``, the one builder of
every S_n-module of the package, builds it degree by degree in the run
context's memo.  From degree 4 on it works over the association types
(``layout.AssociationFold``) of the binary operations that its own
modules of degrees 2 and 3 make commutative or anticommutative, and
associative (``_laws``), and on a doubled signature whose zero identities
lie in the ideal it collapses each doubled skeleton too.  Where k[S_n] is
semisimple it counts the module by partition (a ``young.ModuleRanks``),
never expanded, and elsewhere it closes the generators' span under S_n.
Only ``consequences_at_degree``, for the commands that need rows, expands
a semisimple degree, and only the degree it is asked for.  Nothing here
reads or writes the disk cache; the ``dim`` command does, around
``partition_ranks``.
"""

from __future__ import annotations

from .context import as_context
from .layout import (
    AssociationFold,
    _perm_column_maps,
    basis_layout,
    substitution_column_maps,
)
from .linalg import Subspace, _Reducer
from .terms import (
    DoubledSignature,
    Monomial,
    Polynomial,
    check_in_signature,
    collapse,
    doubled_name,
    format_node,
    split_doubled_name,
)
from .young import ModuleRanks, WordTable, _semisimple


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
        maps = substitution_column_maps(
            basis_layout(signature, m, ctx), layout, op
        )
        for vec in vectors:
            for substitute in maps:
                yield substitute(vec)


def _close(field, layout, candidates):
    """The span of the candidates closed under S_n, as a finished
    ``_Reducer`` without its column index, and the candidates that raised
    its rank, which generate it as a module.
    The columns are those of the layout: a ``BasisLayout``, or the type
    columns of an ``AssociationFold``.
    Every vector that raises the rank is queued, and the images of each
    queued vector under the generating relabelings (``_perm_column_maps``)
    are fed in turn.  The kept candidates are taken last column first: new
    pivots then tend to come in descending order, which the fully reduced
    rows take with little back-elimination (first column first, the same
    closure can take fifty times as long)."""
    reducer = _Reducer(field)
    kept = [vec for vec in candidates if reducer.insert(vec)]
    queue = sorted(kept, key=min)
    relabellings = _perm_column_maps(layout)
    while queue:
        vec = queue.pop()
        for relabel in relabellings:
            image = relabel(vec)
            if reducer.insert(image):
                queue.append(image)
    reducer.release_index()
    return reducer, kept


def _expand(fold, candidates):
    """The span of the candidates and of the ideal the fold stands for
    closed under S_n, as a ``Subspace`` on the skeleton columns, and the
    candidates, folded and read back on the types' own skeletons, that
    raised its rank.  The candidates are folded and closed with the fold's
    relations on the type columns (``_close``); the closure is then lifted
    back beside the fold's kernel, one row (T, w) − ε^k·(T', w∘π) for each
    column of a skeleton T that is not a type.  The kernel rows go in
    first: each has two terms, and the type columns they share stay
    sparse.  Each closure row is given up as it is lifted, so the two
    bases are not held at once."""
    field, width = fold.field, len(fold.words)
    folded, kept = _close(
        field, fold, [*fold.relations, *map(fold.fold, candidates)]
    )
    kept = [fold.lift(vec) for vec in kept]
    if fold.ntypes == fold.nblocks:
        return Subspace(field, fold.ncols, folded), kept
    reducer = _Reducer(field)
    types = set(fold.types)
    for b in range(fold.nblocks):
        if b not in types:
            for c in range(b * width, (b + 1) * width):
                ((image, x),) = fold.lift(fold.fold({c: field.one})).items()
                reducer.insert({c: field.one, image: field.neg(x)})
    rows = folded.pivot_rows
    for p in sorted(rows):
        reducer.insert(fold.lift(rows.pop(p)))
    return Subspace(field, fold.layout.ncols, reducer), kept


def _zero_laws(signature, n, ctx):
    """The zero identities of degree n of a doubled signature, up to a
    change of basis: T − collapse(T) on the degree-n layout, for each tree
    T of two operations, of arities a and b with a + b − 1 = n, its leaves
    in order, that ``terms.collapse`` moves.  Their ideal holds
    T − collapse(T) for every doubled tree T."""
    one, minus = ctx.field.one, ctx.field.coerce(-1)
    for outer, a in signature.operations:
        for inner, b in signature.operations:
            if a + b - 1 != n:
                continue
            layout = basis_layout(signature, n, ctx)
            for j in range(a):
                node = (outer, *range(1, j + 1),
                        (inner, *range(j + 1, j + b + 1)),
                        *range(j + b + 1, n + 1))
                moved = collapse(node)[0]
                if moved != node:
                    yield {layout[node]: one, layout[moved]: minus}


def _seeded_zero_laws(signature, seeds, n, ctx) -> bool:
    """Whether the zero identities of each degree 4..n lie in the span of
    that degree's seed vectors.  These degrees' modules are not read: the
    module being built must not be, and its fold rests on this answer."""
    for d in range(4, n + 1):
        laws = list(_zero_laws(signature, d, ctx))
        if laws:
            reducer = _Reducer(ctx.field)
            for vec in seeds.get(d, ()):
                reducer.insert(vec)
            if any(reducer.reduce(vec) for vec in laws):
                return False
    return True


def _laws(signature, seeds, digest, ctx):
    """(symmetric, associative, collapsing): the binary operations that the
    degree-2 ideal makes commutative or anticommutative, each with its
    sign, o -> ε when o(1, 2) − ε·o(2, 1) lies in the degree-2 module of
    ``_module_step``; those, none of them anticommutative, that the
    degree-3 ideal makes associative, o(o(1, 2), 3) − o(1, o(2, 3)) lying
    in the degree-3 module; and, for a doubled signature, whether the zero
    identities of degree 3 (``_zero_laws``) lie in the degree-3 module,
    which is vacuous without binary operations.  Neither module folds
    anything.  The tests are of membership, so they see through relabelled
    and scaled identities, and through laws that only follow from other
    identities.  In characteristic 2 the two signs agree, and ε = 1 is
    found.  The collapse is not reported beside a symmetric operation, nor
    beside an associative f^k unless f^1 and f^2 both are: off the path
    every superscript is free, so there a law of one superscript holds for
    all, and a fold that combs f^2 alone misses that (``AssociationFold``
    then no longer holds its ideal, which the tests show)."""
    binary = [op for op, arity in signature.operations if arity == 2]
    field = ctx.field
    one, minus = field.one, field.coerce(-1)
    pairs = _module_step(signature, seeds, digest, 2, ctx)[0]
    layout = basis_layout(signature, 2, ctx)
    symmetric = {}
    for op in binary:
        # o(2, 1) has the word of rank 1, next to o(1, 2)
        col = layout[(op, 1, 2)]
        for eps in (1, -1):
            if pairs.contains({col: one, col + 1: field.coerce(-eps)}):
                symmetric[op] = eps
                break
    triples = _module_step(signature, seeds, digest, 3, ctx)[0]
    layout = basis_layout(signature, 3, ctx)
    associative = frozenset(
        op for op in binary
        if symmetric.get(op) != -1 and triples.contains({
            layout[(op, (op, 1, 2), 3)]: one, layout[(op, 1, (op, 2, 3))]: minus
        })
    )
    collapsing = (
        isinstance(signature, DoubledSignature)
        and not symmetric
        and all(
            doubled_name(split_doubled_name(op)[0], k) in associative
            for op in associative for k in (1, 2)
        )
        and all(map(triples.contains, _zero_laws(signature, 3, ctx)))
    )
    return symmetric, associative, collapsing


def _folded_candidates(signature, seeds, digest, n, ctx):
    """The fold of the degree-n layout onto the association types of the
    operations that ``_laws`` finds, from degree 4 on, and the degree's
    ``_candidates``, made from the lower degrees' kept candidates.  The
    laws are read from the modules of degrees 2 and 3, which fold nothing,
    once per presentation in the context's memo.  A doubled degree also
    collapses when the zero identities of degree 3 lie in the degree-3
    module and those of degrees 4..n in their seeds'
    (``_seeded_zero_laws``)."""
    symmetric, associative, collapsing = {}, (), False
    if n >= 4:
        symmetric, associative, collapsing = ctx.memo(
            ("laws", digest), 3, lambda: _laws(signature, seeds, digest, ctx)
        )
        collapsing = collapsing and _seeded_zero_laws(signature, seeds, n, ctx)
    fold = AssociationFold(
        basis_layout(signature, n, ctx), symmetric, ctx.field, associative,
        collapsing,
    )

    def lower(m):
        return _module_step(signature, seeds, digest, m, ctx)[1]

    return fold, _candidates(signature, seeds.get(n, ()), n, ctx, lower)


def _module_step(signature, seeds, digest, n, ctx):
    """The degree-n ideal generated by the seed vectors (``_seeds``) as an
    S_n-module, memoised as (module, kept candidates, generators).  This is
    the one builder of S_n-modules: of a variety's ideal, of its doubled
    presentation's, and of a morphism's kernel (``verify_bso_theorem``).
    From degree 4 on the degree is folded onto the association types of
    the operations that ``_laws`` finds in degrees 2 and 3
    (``layout.AssociationFold``); those degrees fold nothing.  A doubled
    degree is also collapsed onto plain types with one emphasized leaf
    when the zero identities lie in the ideal (``_folded_candidates``), so
    it stacks about n blocks for each plain type instead of one for each
    doubled skeleton.  Where k[S_n] is semisimple the module is a
    ``ModuleRanks`` over that fold; elsewhere it is the ``Subspace`` of
    ``_expand``.  The generators
    are those of the ideal J the fold stands for
    (``AssociationFold.generators``), then the kept candidates.  The
    module stays in the memo, so it answers membership without its
    generators being inserted again.

    By equivariance a substitution of a relabelled element is a relabelling
    of a substitution at another slot, so the candidates made from each
    lower degree's module generators generate the module.  A candidate
    that raises no rank already lies in the module of those before it, and
    so do its substitutions, so it is not kept.  The candidates substitute
    only the lower degrees' kept candidates: the other generators generate
    the lower degree's J, whose substitutions stay in this degree's, as J
    is generated by the commutators and associators of degrees 2 and 3
    and by the zero identities, and the fold holds this degree's J
    already."""

    def build():
        fold, candidates = _folded_candidates(signature, seeds, digest, n, ctx)
        if not _semisimple(ctx.field, n):
            module, kept = _expand(fold, candidates)
            return module, kept, fold.generators + kept
        table = ctx.memo(("young", n), n, lambda: WordTable(fold.layout))
        module = ModuleRanks(table, fold)
        kept = [vec for vec in candidates if module.insert(vec)]
        module.release_indices()
        return module, kept, fold.generators + kept

    return ctx.memo(("module", digest, n), n, build)


def _variety_module(variety, n, ctx):
    """``_module_step`` of the variety's defining identities."""
    seeds = _seeds(variety.signature, variety.generators, n, ctx)
    return _module_step(variety.signature, seeds, variety.digest, n, ctx)


def degree_component(variety, n, ctx=None) -> DegreeComponent:
    """The degree-n component, for its dimensions and membership in its
    ideal, the module of ``_module_step``: where k[S_n] is semisimple a
    ``young.ModuleRanks`` that is never expanded, elsewhere the expanded
    ``Subspace``."""
    ctx = as_context(ctx)
    ctx.check_degree(n)  # before converting, so the cap error comes first
    module = _variety_module(variety, n, ctx)[0]
    return DegreeComponent(basis_layout(variety.signature, n, ctx), module)


def consequences_at_degree(variety, n: int, ctx=None) -> DegreeComponent:
    """The degree-n multilinear component of the variety's defining ideal,
    inside the free-operad basis of that degree, with the ideal expanded
    into a ``Subspace``: where k[S_n] is semisimple, the ``_expand`` of
    the degree's folded candidates; elsewhere the module itself, which is
    that already.  No lower degree is expanded."""
    ctx = as_context(ctx)
    if not _semisimple(ctx.field, n):
        return degree_component(variety, n, ctx)
    ctx.check_degree(n)  # before converting, so the cap error comes first
    signature, digest = variety.signature, variety.digest
    seeds = _seeds(signature, variety.generators, n, ctx)

    def build():
        return _expand(*_folded_candidates(signature, seeds, digest, n, ctx))[0]

    return DegreeComponent(
        basis_layout(signature, n, ctx), ctx.memo(("ideal", digest, n), n, build)
    )


def partition_ranks(variety, n, ctx=None) -> list:
    """The ranks r_λ of the degree-n ideal, one per partition of n in the
    order of ``young.partitions``.  The field's characteristic must be 0
    or above n.  The ideal has dimension Σ d_λ·r_λ, and λ has multiplicity
    s·d_λ − r_λ in the quotient, s being the number of skeletons."""
    ctx = as_context(ctx)
    ctx.check_degree(n)  # before converting, so the cap error comes first
    if not _semisimple(ctx.field, n):
        raise ValueError(
            f"ranks by partition need characteristic 0 or above {n}, "
            f"got {ctx.field.characteristic}"
        )
    return _variety_module(variety, n, ctx)[0].ranks


def ideal_dimensions(variety, n, ctx=None):
    """(ambient, ideal) dimensions of the degree-n component.  Over the
    rationals or a prime above n, where k[S_n] is semisimple, the ideal's
    dimension is Σ d_λ·r_λ over its ``partition_ranks``; over a smaller
    prime it is the rank of the expanded ideal."""
    comp = degree_component(variety, n, ctx)
    return comp.ambient_dimension, comp.ideal.dim


def quotient_dimension(variety, n, ctx=None):
    ambient, ideal = ideal_dimensions(variety, n, ctx)
    return ambient - ideal


def identity_implies(variety, p: Polynomial, ctx=None) -> bool:
    """Whether p vanishes in every algebra of the variety."""
    for m in p.terms:
        check_in_signature(m, variety.signature)
    return degree_component(variety, p.degree, ctx).contains(p)
