"""Morphisms from a free operad into the quotient operad of a variety,
their kernels, and the identities special to a morphism.

A morphism sends each source operation to a multilinear polynomial of the
same degree in the target signature; it extends to all tree monomials by
structural substitution.  Composing with the projection onto the target
variety's quotient gives a linear map in every degree whose kernel holds
the identities satisfied by the image algebras.  Identities in the kernel
but outside the ideal of the source presentation are the special ones.
When k[S_n] is semisimple the kernel is a module counted by partition
from the images of the source's association types alone
(``_kernel_dimension``).  The morphism type, ``OperadMorphism``, is
defined in ``presentations`` beside the presentations it maps between.
"""

from __future__ import annotations

from typing import NamedTuple

from .dialgebra import (
    DiPolynomial,
    _collapse_comparison,
    _lift_columns,
    bso_presentation,
    superscript_poly,
    zero_identities,
)
from .context import as_context
from .fields import QQ
from .ideals import (
    _module_step,
    _seeds,
    _variety_module,
    consequences_at_degree,
    degree_component,
    poly_to_vector,
    vector_to_poly,
)
from .linalg import _Reducer, row_reduce
from .presentations import OperadMorphism, VarietyPresentation
from .terms import (
    Monomial,
    Polynomial,
    double_signature,
    doubled_name,
    graft,
)
from .young import _semisimple, dimensions


class CharacteristicGuardError(ValueError):
    """The field characteristic is too small for the requested degree."""


def evaluate_morphism(mor: OperadMorphism, p, field=None):
    """Image of a multilinear monomial or polynomial in the free target:
    each operation's image grafted with the images of its arguments, the
    leaves keeping their labels."""
    if isinstance(p, Monomial):
        p = Polynomial.monomial(p, QQ if field is None else field)
    if field is None:
        field = p.field
    p = p.convert(field)
    images = {op: img.convert(field) for op, img in mor.images.items()}

    def eval_node(node):
        if isinstance(node, int):
            return Polynomial.monomial(Monomial(node), field)
        img = images.get(node[0])
        if img is None:
            raise ValueError(f"operation {node[0]!r} has no image")
        return graft(img, [eval_node(c) for c in node[1:]])

    out = Polynomial(field, {}, degree=p.degree)
    for m, c in p.terms.items():
        image = eval_node(m.node)
        if not m.is_multilinear():
            raise ValueError(f"{m.leaf_word} is not a permutation of 1..{m.degree}")
        out = out + image.scale(c)
    return out


def di_morphism(mor: OperadMorphism) -> OperadMorphism:
    """The doubled morphism: each emphasized operation maps to the matching
    emphasized lift of its plain image."""
    images = {}
    for op, arity in mor.source_signature.operations:
        for k in range(1, arity + 1):
            images[doubled_name(op, k)] = superscript_poly(mor.images[op], k)
    return OperadMorphism(
        f"di-{mor.name}",
        double_signature(mor.source_signature),
        bso_presentation(mor.target),
        images,
    )


def _check_source_vanishes(mor, source, d, ctx):
    """Refuse a source presentation that does not match the morphism's
    signature or has an identity of degree at most d whose image is not zero
    in the target, by the membership test of the target's
    ``degree_component``.  Identities above d generate nothing up to
    degree d."""
    if source.signature != mor.source_signature:
        raise ValueError("presentation and morphism disagree on the signature")
    for gname, g in zip(source.generator_names, source.generators):
        if g.degree > d:
            continue
        img = evaluate_morphism(mor, g, ctx.field)
        if not degree_component(mor.target, g.degree, ctx).contains(img):
            raise ValueError(
                f"identity {gname!r} of {source.name!r} does not vanish "
                f"under {mor.name!r}"
            )


def _kernel_dimension(mor, fold, ctx) -> int:
    """dim ker(φ) at the degree d of the source module's association fold
    (``layout.AssociationFold``), counted by partition; k[S_d] must be
    semisimple and the caller must have run ``_check_source_vanishes``.

    φ is a map of left k[S_d]-modules out of the free module on the s
    source skeletons: a monomial is its skeleton at the identity word
    relabelled by its leaf word, and φ commutes with relabelling.  Its
    image in the target quotient is generated by the s images of the
    skeletons.  Modulo the ideal the source's fold stands for, which lies
    in the source ideal and so in ker(φ), a skeleton that is not a type is
    ± a relabelling of its type, so its
    image is ± a relabelled image of its type's modulo the target ideal,
    and the t type images generate the image alone.  It has ranks q_λ,
    those images' ranks modulo the target ideal
    (``ModuleRanks.quotient_ranks``).  The kernel then has rank
    κ_λ = s·d_λ − q_λ and dimension Σ d_λ·κ_λ.  A source without degree-d
    skeletons (jts at even degrees) has the zero kernel, which is returned
    before the target's module is built."""
    layout, d = fold.layout, fold.degree
    if not layout.skeletons:
        return 0
    target = degree_component(mor.target, d, ctx)
    width = len(layout.words)
    # the identity word has rank 0, so each skeleton's block starts with it
    images = (
        poly_to_vector(
            evaluate_morphism(mor, Monomial(layout.node(b * width)), ctx.field),
            target.layout,
        )
        for b in fold.types
    )
    ranks = target.ideal.quotient_ranks(images)
    return sum(dl * (fold.nblocks * dl - q) for dl, q in zip(dimensions(d), ranks))


class SpecialIdentitiesReport(NamedTuple):
    morphism: str
    degree: int
    field: str
    ambient_dimension: int
    kernel_dimension: int
    ideal_dimension: int
    special_dimension: int
    basis: tuple


def _morphism_kernel(mor, source, d, ctx):
    """The source component at degree d and the special space S, where
    ker(φ) = I ⊕ S and I is the source ideal.  The caller must have run
    ``_check_source_vanishes``.

    S is the left kernel of the images of the normal monomials (the
    non-pivot columns of I), each reduced modulo the target ideal.  Once the
    vanishing check has passed, I ⊆ ker(φ), because ker(φ) is an operad
    ideal.  Every kernel vector is then an element of I plus its reduction
    modulo I, and that reduction lies in ker(φ) on the normal columns.  So
    S is exactly ker(φ) reduced modulo I, and since it lies on the normal
    columns it meets I in 0: dim ker(φ) = dim I + dim S.

    The left kernel comes from one elimination: the j-th reduced image goes
    in with entry one at tag column w + j, w being the target's width.  A
    reduced row whose pivot is a tag column is zero on the target columns,
    so its tag entries are the coefficients of a vanishing combination of
    the images; such rows span the kernel, and each tag column is read back
    as its normal monomial."""
    field = ctx.field
    source_comp = consequences_at_degree(source, d, ctx)
    target_comp = consequences_at_degree(mor.target, d, ctx)
    pivots = set(source_comp.ideal.pivots)
    normal = [i for i in range(source_comp.ambient_dimension) if i not in pivots]
    layout = source_comp.layout
    width = target_comp.ambient_dimension
    reducer = _Reducer(field)
    # last monomial first: a kernel row then tends to take a pivot below
    # those of the rows before it, which fully reduced rows take with little
    # back-elimination (as in ``ideals._close``); in column order the 1679
    # kernel rows of free-to-com-assoc at degree 5 cost 1.4 million row
    # operations, against 1717 in this order
    for j in reversed(range(len(normal))):
        img = evaluate_morphism(mor, Monomial(layout.node(normal[j])), field)
        vec = target_comp.ideal.reduce(poly_to_vector(img, target_comp.layout))
        vec[width + j] = field.one
        reducer.insert(vec)
    special = row_reduce(
        field,
        source_comp.ambient_dimension,
        (
            {normal[c - width]: v for c, v in row.items()}
            for p, row in reducer.pivot_rows.items()
            if p >= width
        ),
    )
    return source_comp, special


def special_identities(
    mor: OperadMorphism,
    source: VarietyPresentation,
    d: int,
    ctx=None,
    basis: bool = True,
) -> SpecialIdentitiesReport:
    """Kernel identities of the morphism that are not consequences of the
    source presentation.  Every source identity must die in the target.

    The special basis is ker(φ) reduced modulo the source ideal, the kernel
    on the source quotient's normal monomials (see ``_morphism_kernel``).
    Without ``basis``, over the rationals or a prime above d, only the
    dimensions are counted, by partition: the kernel by
    ``_kernel_dimension``, the ideal by ``degree_component``, and the
    special space is their difference, since the ideal lies in the
    kernel.  No ideal is expanded and the report's basis is None."""
    ctx = as_context(ctx)
    field = ctx.field
    _check_source_vanishes(mor, source, d, ctx)
    if not basis and _semisimple(field, d):
        comp = degree_component(source, d, ctx)
        kernel = _kernel_dimension(mor, comp.ideal.fold, ctx)
        basis = None
    else:
        comp, special = _morphism_kernel(mor, source, d, ctx)
        kernel = comp.ideal.dim + special.dim
        basis = tuple(vector_to_poly(r, comp.layout, field) for r in special.rows)
    return SpecialIdentitiesReport(
        morphism=mor.name,
        degree=d,
        field=field.name,
        ambient_dimension=comp.ambient_dimension,
        kernel_dimension=kernel,
        ideal_dimension=comp.ideal.dim,
        special_dimension=kernel - comp.ideal.dim,
        basis=basis,
    )


class DiSpecialIdentitiesReport(NamedTuple):
    morphism: str
    degree: int
    field: str
    ambient_dimension: int
    kernel_dimension: int
    ideal_dimension: int
    special_dimension: int
    basis: tuple
    matches_lifted: bool


def di_special_identities(
    mor: OperadMorphism,
    source: VarietyPresentation,
    d: int,
    ctx=None,
    basis: bool = True,
) -> DiSpecialIdentitiesReport:
    """Emphasized identities killed componentwise by the morphism, modulo
    the block ideal of the source presentation, and whether they all arise
    as emphasized placements of the plain special identities.

    In collapse coordinates the emphasized space, the componentwise kernel
    and the block ideal are d copies of their plain counterparts, one per
    emphasis, so the report is ``special_identities`` placed at each
    emphasis: every dimension times d, and as basis each plain basis
    polynomial at emphasis 1, then each at emphasis 2, and so on, the
    canonical reduced basis of the copies.  So ``matches_lifted`` is True;
    the kernel of the doubled morphism itself is not computed.  Without
    ``basis`` the report's basis is None."""
    ctx = as_context(ctx)
    plain = special_identities(mor, source, d, ctx, basis)
    zero = Polynomial(ctx.field, {}, degree=d)
    placed = None
    if basis:
        placed = tuple(
            DiPolynomial(ctx.field, d, [p if j == k else zero for j in range(d)])
            for k in range(d)
            for p in plain.basis
        )
    return DiSpecialIdentitiesReport(
        morphism=f"di-{mor.name}",
        degree=d,
        field=plain.field,
        ambient_dimension=d * plain.ambient_dimension,
        kernel_dimension=d * plain.kernel_dimension,
        ideal_dimension=d * plain.ideal_dimension,
        special_dimension=d * plain.special_dimension,
        basis=placed,
        matches_lifted=True,
    )


class DegreeComparison(NamedTuple):
    degree: int
    ambient_dimension: int
    kernel_dimension: int
    consequence_dimension: int
    equal: bool


class BsoKernelReport(NamedTuple):
    morphism: str
    degree: int
    field: str
    comparisons: tuple
    verdict: bool


def verify_bso_theorem(
    mor: OperadMorphism, source: VarietyPresentation, d: int, ctx=None
) -> BsoKernelReport:
    """Check degree by degree that the kernel of the doubled morphism is
    generated, as an operad ideal, by the zero identities together with the
    emphasized lifts of the plain kernel.

    The plain kernel K_m = I_m ⊕ S_m is the S_m-module that
    ``ideals._module_step`` builds from the kernel presentation: the
    source's identities and, at each degree where the kernel counted by
    partition (``_kernel_dimension``) is larger than I_m, the rows of S_m
    from ``_morphism_kernel``.  As ker(φ) is an operad ideal that holds
    them, their consequences of degree m are K_m.  Where S is zero at every
    degree the kernel presentation is the source's, and so are its
    modules.  Every source identity must die in the target; the guard
    d < p makes every k[S_m] semisimple.  The doubled kernel in degree m is
    taken as the collapse preimage of m copies of K_m; it is not computed
    from the doubled morphism.  Each degree is the comparison of
    ``dialgebra._collapse_comparison``, as for ``verify-di``: the preimage's
    dimension, and ``is_collapse_preimage`` of the generated ideal over
    K_m's module; the preimage is never built.  The comparisons start at
    degree 2, so d must too.

    Only the S_m-module generators of K_m that ``_module_step`` keeps are
    lifted.  Lifting is equivariant, σ·lift_k(x) = lift_σ(k)(σ·x), so
    their lifts to every emphasis generate the same operad ideal as the
    lifts of all of K_m.  The generated ideal is itself counted by
    partition, never expanded, and its generators go to
    ``is_collapse_preimage``."""
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")
    ctx = as_context(ctx)
    field = ctx.field
    if not _semisimple(field, d):
        raise CharacteristicGuardError(
            f"degree {d} requires characteristic 0 or larger than {d}, "
            f"got {field.characteristic}"
        )
    ctx.check_degree(d)
    _check_source_vanishes(mor, source, d, ctx)
    signature, digest = source.signature, source.digest
    seeds = _seeds(signature, source.generators, d, ctx)
    for m in range(2, d + 1):
        ideal = _variety_module(source, m, ctx)[0]
        if _kernel_dimension(mor, ideal.fold, ctx) > ideal.dim:
            special = _morphism_kernel(mor, source, m, ctx)[1].rows
            seeds.setdefault(m, []).extend(special)
            digest = f"kernel:{mor.digest}:{source.digest}"
    dsig = double_signature(signature)
    dseeds = _seeds(dsig, zero_identities(signature)[1], d, ctx)
    kernels = {}
    for m in range(2, d + 1):
        kernels[m], _, generators = _module_step(signature, seeds, digest, m, ctx)
        lifts = dseeds.setdefault(m, [])
        for lift in _lift_columns(dsig, m, ctx):
            lifts.extend(map(lift, generators))
    ddigest = f"bso-kernel:{mor.digest}"
    comparisons = tuple(
        DegreeComparison(
            m, *_collapse_comparison(dsig, dseeds, ddigest, m, kernel, ctx)
        )
        for m, kernel in kernels.items()
    )
    return BsoKernelReport(
        morphism=mor.name,
        degree=d,
        field=field.name,
        comparisons=comparisons,
        verdict=all(c.equal for c in comparisons),
    )
