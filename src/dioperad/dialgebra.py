"""Doubled operations, emphasized monomials, and the dialgebra counterpart
of a variety presentation.

Doubling replaces each operation f of arity a by a family f^1..f^a; the
superscript marks the argument slot carrying the emphasized variable.  A
doubled monomial maps to a plain monomial with one emphasized leaf (follow
the root superscripts downwards); conversely a plain monomial with a chosen
leaf lifts to the doubled monomial whose off-path superscripts are all 1.
The translation collapses doubled monomials that differ only at slots the
superscripts never reach; the "zero identities" present exactly that
collapse, and together with the lifted identities of a variety they present
its variety of dialgebras.
"""

from __future__ import annotations

from typing import NamedTuple

from .context import as_context
from .ideals import (
    VarietyPresentation,
    _module_step,
    _seeds,
    degree_component,
)
from .terms import (
    DoubledSignature,
    Monomial,
    Polynomial,
    Signature,
    _scan,
    basis_layout,
    collapse,
    double_signature,
    doubled_name,
    split_doubled_name,
    substitute_at,
)


def _strip(node):
    """A doubled tree node, raw or a skeleton, with its superscripts
    dropped."""
    if not isinstance(node, tuple):
        return node
    base, _ = split_doubled_name(node[0])
    return (base,) + tuple(_strip(c) for c in node[1:])


def _lift_node(node, k):
    """The raw doubled tree of a raw plain tree node: on the path to leaf k
    each superscript points toward it, off the path every superscript is
    1."""
    if isinstance(node, int):
        return node
    sup = 1
    kids = []
    for i, c in enumerate(node[1:], 1):
        leaves: list = []
        _scan(c, leaves)
        if k in leaves:
            sup = i
        kids.append(_lift_node(c, k))
    return (doubled_name(node[0], sup),) + tuple(kids)


def superscript(m: Monomial, k: int) -> Monomial:
    """Lift a plain monomial toward its leaf k (see ``_lift_node``)."""
    if k not in m.leaf_word:
        raise ValueError(f"no leaf labelled {k} in {m}")
    return Monomial(_lift_node(m.node, k))


def superscript_poly(p: Polynomial, k: int) -> Polynomial:
    return Polynomial(
        p.field,
        {superscript(m, k): c for m, c in p.terms.items()},
        degree=p.degree,
    )


class DiPolynomial:
    """An element of the emphasized space: one plain-signature component per
    emphasis position 1..degree."""

    __slots__ = ("field", "degree", "components")

    def __init__(self, field, degree, components):
        components = tuple(components)
        if len(components) != degree:
            raise ValueError(f"need {degree} components, got {len(components)}")
        for c in components:
            if c.field != field or c.degree != degree:
                raise ValueError("component in the wrong space")
        self.field = field
        self.degree = degree
        self.components = components

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, DiPolynomial)
            and self.field == other.field
            and self.degree == other.degree
            and self.components == other.components
        )

    def __str__(self):
        parts = [
            f"e{k}: {comp}"
            for k, comp in enumerate(self.components, 1)
            if not comp.is_zero
        ]
        return "[" + "; ".join(parts) + "]" if parts else "[0]"


def zero_identities(sig: Signature):
    """The doubled identities equating the two inner superscripts at any
    argument slot the outer superscript does not point to.  Returns
    (names, polynomials over the doubled signature)."""
    if isinstance(sig, DoubledSignature):
        raise ValueError("zero identities are indexed by the plain signature")
    names, polys = [], []
    for f, af in sig.operations:
        for k in range(1, af + 1):
            outer = Monomial((doubled_name(f, k),) + tuple(range(1, af + 1)))
            for j in range(1, af + 1):
                if j == k:
                    continue
                for g, ag in sig.operations:
                    leaves = tuple(range(1, ag + 1))
                    for low in range(1, ag + 1):
                        for high in range(low + 1, ag + 1):
                            a = substitute_at(
                                outer, j, Monomial((doubled_name(g, low),) + leaves)
                            )
                            b = substitute_at(
                                outer, j, Monomial((doubled_name(g, high),) + leaves)
                            )
                            names.append(f"zero-{f}{k}-s{j}-{g}{low}{high}")
                            polys.append(a - b)
    return tuple(names), tuple(polys)


def bso_presentation(variety: VarietyPresentation) -> VarietyPresentation:
    """The dialgebra counterpart: zero identities plus every emphasized lift
    of each defining identity."""
    dsig = double_signature(variety.signature)
    names, polys = zero_identities(variety.signature)
    names, polys = list(names), list(polys)
    for gname, g in zip(variety.generator_names, variety.generators):
        for k in range(1, g.degree + 1):
            names.append(f"{gname}.e{k}")
            polys.append(superscript_poly(g, k))
    return VarietyPresentation(
        f"di-{variety.name}", dsig, polys, names
    )


def _collapse_columns(dsig: DoubledSignature, n: int, base, ctx):
    """For each degree-n doubled skeleton, in basis order, the offset of
    its plain skeleton in the plain basis and the position of its
    emphasized leaf (``terms.collapse``).  The plain ideal ``base`` must
    live in the plain space.

    Collapse keeps the leaf word, so the column of skeleton block b and
    word w lands in emphasis component w[position], at the block's offset
    plus the rank of w."""
    plain = basis_layout(dsig.base, n, ctx)
    if base.ncols != plain.ncols:
        raise ValueError(
            f"plain ideal has {base.ncols} columns, expected {plain.ncols}"
        )
    width = len(plain.words)
    return [
        (plain.position[_strip(skel)] * width, collapse(skel)[1])
        for skel in basis_layout(dsig, n, ctx).skeletons
    ]


def collapses_into(dsig: DoubledSignature, n: int, rows, base, ctx=None) -> bool:
    """Whether every emphasis component of the collapse image of every
    given degree-n doubled vector lies in the plain ideal ``base``, anything
    with ncols, field and contains_all(vecs) on the plain columns: a
    ``Subspace`` or a ``young.ModuleRanks``.  The arithmetic is over the
    base's field, and doubled terms that collapse onto one plain column add
    up before any component is tested.  All the components of all the
    vectors are tested in one ``contains_all``.  A column outside the
    doubled space is refused with a ValueError naming it."""
    ctx = as_context(ctx)
    blocks = _collapse_columns(dsig, n, base, ctx)
    words = basis_layout(dsig, n, ctx).words
    field, width = base.field, len(words)
    ncols = len(blocks) * width
    tested = []
    for row in rows:
        parts: list = [{} for _ in range(n)]
        for c, v in row.items():
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} outside 0..{ncols - 1}")
            b, r = divmod(c, width)
            offset, slot = blocks[b]
            part, k = parts[words[r][slot] - 1], offset + r
            part[k] = field.add(part.get(k, field.zero), v)
        for part in parts:
            part = {c: v for c, v in part.items() if v}
            if part:
                tested.append(part)
    return base.contains_all(tested)


def collapse_preimage_dimension(n: int, ncols: int, base) -> int:
    """Dimension of the collapse preimage of n copies of the plain ideal
    ``base`` (anything with ncols and dim) inside the ncols doubled
    columns.  Collapse is onto, so its kernel has dimension
    ncols - n * base.ncols."""
    return ncols - n * (base.ncols - base.dim)


def _lift_columns(dsig: DoubledSignature, n: int, ctx):
    """For each emphasis k = 1..n, the doubled column of the lift
    (``superscript``) toward leaf k of each degree-n plain basis monomial,
    in basis order.

    Lifting keeps the leaf word, and the lifted skeleton depends only on
    the plain skeleton and on the slot that holds leaf k: each plain
    skeleton, filled with the word 1..n, is lifted once per slot, giving the
    doubled skeleton's offset; the plain word w at that offset then lands
    at the offset for slot w.index(k) plus the rank of w."""
    plain = basis_layout(dsig.base, n, ctx)
    doubled = basis_layout(dsig, n, ctx)
    words = plain.words
    offsets = [
        [doubled[_lift_node(plain.node(col), j)] for j in range(1, n + 1)]
        for col in range(0, plain.ncols, len(words))
    ]
    return [
        [row[w.index(k)] + r for row in offsets for r, w in enumerate(words)]
        for k in range(1, n + 1)
    ]


def is_collapse_preimage(
    dsig: DoubledSignature, n: int, dim: int, generators, base, ctx=None
) -> bool:
    """Whether the degree-n doubled S_n-submodule of the given dimension,
    spanned as a k[S_n]-module by the given vectors, is the full collapse
    preimage P_n of n copies of the S_n-stable plain ideal ``base`` (a
    ``Subspace`` or a ``young.ModuleRanks``, see ``collapses_into``).  The
    preimage is never built.

    Collapse is S_n-equivariant: σ relabels a doubled monomial's word and
    moves its emphasized leaf, and so its emphasis component, by σ.  So P_n
    is S_n-stable, every generator in P_n puts the whole module in P_n, and
    the two are equal exactly when the dimensions agree as well.  Rows of
    a subspace are module generators too, so any basis may be given."""
    ctx = as_context(ctx)
    ncols = basis_layout(dsig, n, ctx).ncols
    return dim == collapse_preimage_dimension(
        n, ncols, base
    ) and collapses_into(dsig, n, generators, base, ctx)


def _collapse_comparison(dsig, seeds, digest, n, base, ctx):
    """The degree-n doubled S_n-module that ``ideals._module_step`` builds
    from the seed vectors, against the collapse preimage P_n of n copies of
    the plain ideal ``base``: (ambient dimension, dim P_n, the module's
    dimension, whether the module is P_n).  The comparison is
    ``is_collapse_preimage`` of the module's generators; neither the module
    nor the preimage is expanded."""
    module, _, generators = _module_step(dsig, seeds, digest, n, ctx)
    ambient = basis_layout(dsig, n, ctx).ncols
    return (
        ambient,
        collapse_preimage_dimension(n, ambient, base),
        module.dim,
        is_collapse_preimage(dsig, n, module.dim, generators, base, ctx),
    )


class DialgebraEquivalenceReport(NamedTuple):
    variety: str
    degree: int
    field: str
    ambient_dimension: int
    ideal_dimension: int
    quotient_dimension: int
    expected_quotient_dimension: int
    equal: bool


def verify_dialgebra_equivalence(
    variety: VarietyPresentation, n: int, ctx=None
) -> DialgebraEquivalenceReport:
    """Check that the dialgebra presentation's degree-n consequences I_n
    equal the full preimage P_n, under the collapse map, of n copies of the
    plain consequences.

    The plain ideal is S_n-stable, so P_n is too (``is_collapse_preimage``),
    and I_n = P_n exactly when dim I_n = dim P_n and every S_n-module
    generator of I_n collapses into the plain ideal
    (``_collapse_comparison``).  Both sides are S_n-modules of
    ``ideals._module_step``: over the rationals or a prime above n neither
    ideal is expanded, and over a smaller prime each is a ``Subspace``."""
    ctx = as_context(ctx)
    base = degree_component(variety, n, ctx)
    divar = bso_presentation(variety)
    dsig = divar.signature
    ambient, preimage, dim, equal = _collapse_comparison(
        dsig, _seeds(dsig, divar.generators, n, ctx), divar.digest, n,
        base.ideal, ctx,
    )
    return DialgebraEquivalenceReport(
        variety=variety.name,
        degree=n,
        field=ctx.field.name,
        ambient_dimension=ambient,
        ideal_dimension=dim,
        quotient_dimension=ambient - dim,
        expected_quotient_dimension=ambient - preimage,
        equal=equal,
    )
