"""Tree monomials over an operation signature and the substitution calculus
of the free operad they span.

A monomial is a planar rooted tree: internal nodes carry operation names,
leaves carry positive integer variable labels.  The multilinear component of
degree n is spanned by the trees whose leaves are labelled by 1..n, each
exactly once.  Trees are stored as nested tuples ``(name, child, child, ...)``
with bare ints for leaves.

``graft`` is the one substitution routine on polynomials: composition,
partial composition, relabelling, and elsewhere the parsing of an
operation's arguments and the images of a morphism, all graft trees into
the leaves of a multilinear polynomial.  The column layout of each degree,
and the column forms of these substitutions, are in ``layout``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .fields import QQ

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_^-]*$")


class Signature:
    """An ordered family of named operations, every arity at least two."""

    __slots__ = ("operations", "_arity")

    def __init__(self, operations):
        ops = []
        for name, arity in operations:
            name, arity = str(name), int(arity)
            if not _NAME_RE.match(name):
                raise ValueError(f"bad operation name {name!r}")
            if arity < 2:
                raise ValueError(f"operation {name!r} has arity {arity} < 2")
            ops.append((name, arity))
        if not ops:
            raise ValueError("a signature needs at least one operation")
        self.operations = tuple(ops)
        self._arity = dict(self.operations)
        if len(self._arity) != len(self.operations):
            raise ValueError("duplicate operation names")

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise ValueError(f"unknown operation {name!r}") from None

    @property
    def names(self):
        return tuple(name for name, _ in self.operations)

    def __contains__(self, name):
        return name in self._arity

    def __eq__(self, other):
        return (
            type(self) is type(other) and self.operations == other.operations
        )

    def __hash__(self):
        return hash((type(self).__name__, self.operations))

    def __repr__(self):
        inner = ", ".join(f"{n}:{a}" for n, a in self.operations)
        return f"Signature({inner})"


class DoubledSignature(Signature):
    """Signature whose operations are f^1..f^a for each base operation f."""

    __slots__ = ("base",)

    def __init__(self, base: Signature):
        ops = [
            (doubled_name(name, k), arity)
            for name, arity in base.operations
            for k in range(1, arity + 1)
        ]
        super().__init__(ops)
        self.base = base

    def __repr__(self):
        return f"DoubledSignature({self.base!r})"


def doubled_name(op: str, k: int) -> str:
    """The name of the doubled operation op^k, whose superscript k marks
    the argument slot that carries the emphasized variable."""
    return f"{op}^{k}"


def split_doubled_name(name: str) -> tuple[str, int]:
    """The operation and superscript of a doubled operation name, the
    inverse of ``doubled_name``."""
    base, sep, sup = name.rpartition("^")
    if not sep or not sup.isdigit():
        raise ValueError(f"{name!r} is not a doubled operation name")
    return base, int(sup)


def collapse(node):
    """The doubled tree node with every superscript off the path to its
    emphasized leaf set to 1, and the position of that leaf among the
    node's leaves, counted from 0.  The path follows the superscripts down
    from the root.  This is the collapse map: modulo the zero identities,
    a doubled monomial is a plain monomial with one emphasized leaf.  The
    leaves are kept as they are, so the node may be a raw tree or a
    skeleton."""
    slot, count = None, 0

    def walk(sub, on_path):
        nonlocal slot, count
        if not isinstance(sub, tuple):
            if on_path:
                slot = count
            count += 1
            return sub
        base, k = split_doubled_name(sub[0])
        if on_path and not 1 <= k < len(sub):
            raise ValueError(
                f"superscript {k} out of range in {format_node(node)}"
            )
        name = sub[0] if on_path else doubled_name(base, 1)
        return (name,) + tuple(
            walk(c, on_path and i == k) for i, c in enumerate(sub[1:], 1)
        )

    return walk(node, True), slot


def double_signature(sig: Signature) -> DoubledSignature:
    """Replace every operation f of arity a by a operations f^1..f^a."""
    if isinstance(sig, DoubledSignature):
        raise ValueError("doubling a doubled signature is not supported")
    for name, _ in sig.operations:
        if "^" in name:
            raise ValueError(f"operation name {name!r} reserves '^'")
    return DoubledSignature(sig)


def _scan(node, leaves):
    """Validate a tree node and append its leaf labels left to right."""
    if isinstance(node, int):
        if node < 1:
            raise ValueError(f"leaf labels must be positive, got {node}")
        leaves.append(node)
        return
    if isinstance(node, tuple) and len(node) >= 3 and isinstance(node[0], str):
        for child in node[1:]:
            _scan(child, leaves)
        return
    raise ValueError(f"malformed tree node {node!r}")


class Monomial:
    """A planar tree monomial."""

    __slots__ = ("node", "degree", "leaf_word", "_hash")

    def __init__(self, node):
        leaves: list[int] = []
        _scan(node, leaves)
        self.node = node
        self.degree = len(leaves)
        self.leaf_word = tuple(leaves)
        self._hash = hash(node)

    def is_multilinear(self) -> bool:
        return sorted(self.leaf_word) == list(range(1, self.degree + 1))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.node == other.node

    def __hash__(self):
        return self._hash

    def __str__(self):
        return format_node(self.node)

    def __repr__(self):
        return f"Monomial({format_node(self.node)})"


def check_in_signature(m: Monomial, sig: Signature) -> None:
    """Raise if m uses an operation outside sig or with the wrong arity."""

    def walk(node):
        if isinstance(node, int):
            return
        name = node[0]
        if name not in sig:
            raise ValueError(f"operation {name!r} is not in the signature")
        if len(node) - 1 != sig.arity(name):
            raise ValueError(
                f"operation {name!r} expects {sig.arity(name)} arguments, "
                f"got {len(node) - 1}"
            )
        for child in node[1:]:
            walk(child)

    walk(m.node)


def _plain_key(node):
    """Signature-free analogue of the canonical order, for stable printing."""
    if isinstance(node, int):
        return ((1,), (node,))
    sub = [_plain_key(c) for c in node[1:]]
    skel = (0, node[0]) + tuple(s for s, _ in sub)
    word = tuple(v for _, w in sub for v in w)
    return (skel, word)


def format_node(node) -> str:
    if isinstance(node, int):
        return str(node)
    return "(" + " ".join([node[0]] + [format_node(c) for c in node[1:]]) + ")"


class Polynomial:
    """A linear combination of equal-degree monomials over one field.

    Zero coefficients are dropped at construction; an empty combination
    therefore needs an explicit degree.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, terms, degree=None):
        clean: dict[Monomial, object] = {}
        for m, c in terms.items():
            c = field.coerce(c) if isinstance(c, (int, Fraction)) else c
            if not c:
                continue
            if degree is None:
                degree = m.degree
            elif m.degree != degree:
                raise ValueError(
                    f"mixed degrees {degree} and {m.degree} in one polynomial"
                )
            clean[m] = c
        if degree is None:
            raise ValueError("an empty polynomial needs an explicit degree")
        self.field = field
        self.degree = degree
        self.terms = clean

    @classmethod
    def monomial(cls, m: Monomial, field=QQ, coeff=1) -> "Polynomial":
        return cls(field, {m: field.coerce(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_multilinear(self) -> bool:
        return all(m.is_multilinear() for m in self.terms)

    def convert(self, field) -> "Polynomial":
        """Move the coefficients into another field.

        Rational coefficients coerce into any field; prime-field
        coefficients only into the same field.
        """
        if field == self.field:
            return self
        if self.field != QQ:
            raise ValueError(
                f"cannot move scalars from {self.field!r} to {field!r}"
            )
        return Polynomial(
            field,
            {m: field.coerce(c) for m, c in self.terms.items()},
            degree=self.degree,
        )

    def _combine(self, other, sign):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.field != self.field or other.degree != self.degree:
            raise ValueError("polynomials do not live in the same space")
        out = dict(self.terms)
        f = self.field
        for m, c in other.terms.items():
            out[m] = f.add(out.get(m, f.zero), c if sign > 0 else f.neg(c))
        return Polynomial(self.field, out, degree=self.degree)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        f = self.field
        return Polynomial(
            f, {m: f.neg(c) for m, c in self.terms.items()}, degree=self.degree
        )

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.coerce(c)
        return Polynomial(
            f, {m: f.mul(c, v) for m, v in self.terms.items()}, degree=self.degree
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.degree == self.degree
            and other.terms == self.terms
        )

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def format_polynomial(p: Polynomial) -> str:
    """Render a polynomial in the canonical input syntax."""
    if not p.terms:
        return "0"
    parts = []
    for m in sorted(p.terms, key=lambda m: _plain_key(m.node)):
        c = p.terms[m]
        body = format_node(m.node)
        if c == p.field.one:
            parts.append(body)
        elif p.field == QQ and c == -1:
            parts.append(f"(- {body})")
        else:
            parts.append(f"(* {c} {body})")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def as_polynomial(x, field=None) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, Monomial):
        return Polynomial.monomial(x, field if field is not None else QQ)
    raise TypeError(f"expected a monomial or polynomial, got {x!r}")


def enumerate_monomials(sig: Signature, n: int, ctx=None):
    """All multilinear monomials of degree n, in canonical order, built
    afresh from the column layout (``layout.basis_layout``)."""
    from .layout import basis_layout  # layout imports this module

    layout = basis_layout(sig, n, ctx)
    return tuple(Monomial(layout.node(c)) for c in range(layout.ncols))


def apply_permutation(perm, p):
    """Relabel leaves by i -> perm[i-1]; perm must permute {1..degree}."""
    single = isinstance(p, Monomial)
    poly = as_polynomial(p)
    n = poly.degree
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    if not poly.is_multilinear():
        raise ValueError("can only permute the variables of multilinear terms")
    out = graft(poly, [Polynomial.monomial(Monomial(v), poly.field) for v in perm])
    return next(iter(out.terms)) if single else out


def _graft(node, replacements):
    """Replace each leaf v by the tree replacements[v]."""
    if isinstance(node, int):
        return replacements[node]
    return (node[0],) + tuple(_graft(c, replacements) for c in node[1:])


def graft(f: Polynomial, children) -> Polynomial:
    """Replace the leaf v of each term of the multilinear f by each term of
    the polynomial children[v-1], multiplying coefficients and adding like
    terms.  The children keep their own leaf labels, so the result's degree
    is the sum of theirs."""
    fld = f.field
    out: dict[Monomial, object] = {}
    for mf, cf in f.terms.items():
        for combo in itertools.product(*(g.terms.items() for g in children)):
            coeff = cf
            for _, c in combo:
                coeff = fld.mul(coeff, c)
            repl = {v: t.node for v, (t, _) in enumerate(combo, 1)}
            m = Monomial(_graft(mf.node, repl))
            out[m] = fld.add(out.get(m, fld.zero), coeff)
    return Polynomial(fld, out, degree=sum(g.degree for g in children))


def compose(f, gs):
    """Operadic composition: graft g_i into the leaf of f labelled i, the
    variables of the g_i shifted into consecutive blocks."""
    gs = list(gs)
    if not gs:
        raise ValueError("composition needs at least one argument")
    field = gs[0].field if isinstance(gs[0], Polynomial) else None
    f = as_polynomial(f, field)
    gs = [as_polynomial(g, f.field) for g in gs]
    if len(gs) != f.degree:
        raise ValueError(
            f"composition needs {f.degree} arguments, got {len(gs)}"
        )
    if not f.is_multilinear():
        raise ValueError("the outer factor must be multilinear")
    for g in gs:
        if g.field != f.field:
            raise ValueError("mixed fields in composition")
    shifted, offset = [], 0
    for g in gs:
        shifted.append(Polynomial(f.field, {
            Monomial(_graft(m.node, {v: v + offset for v in m.leaf_word})): c
            for m, c in g.terms.items()
        }, degree=g.degree))
        offset += g.degree
    return graft(f, shifted)


def substitute_at(w, i, u):
    """Replace the leaf of w labelled i by u, shifting labels so that the
    result is multilinear again."""
    field = u.field if isinstance(u, Polynomial) else None
    w = as_polynomial(w, field)
    u = as_polynomial(u, w.field)
    if not (1 <= i <= w.degree):
        raise ValueError(f"slot {i} out of range for degree {w.degree}")
    if not w.is_multilinear():
        raise ValueError("the outer factor must be multilinear")
    one = Polynomial.monomial(Monomial(1), w.field)
    return compose(w, [one] * (i - 1) + [u] + [one] * (w.degree - i))


def linearize(f: Polynomial) -> Polynomial:
    """Full polarization of a multihomogeneous polynomial.

    Each variable of degree d is replaced by d fresh variables in all d!
    assignments, summed; fresh blocks take consecutive labels in order of the
    original variable index.  Multilinear input is returned unchanged.
    """
    if f.is_zero:
        return f
    profile = None
    for m in f.terms:
        counts: dict[int, int] = {}
        for v in m.leaf_word:
            counts[v] = counts.get(v, 0) + 1
        if profile is None:
            profile = counts
        elif counts != profile:
            raise ValueError("polynomial is not multihomogeneous")
    variables = sorted(profile)
    blocks = {}
    start = 1
    for v in variables:
        blocks[v] = tuple(range(start, start + profile[v]))
        start += profile[v]
    n = start - 1
    fld = f.field
    out: dict[Monomial, object] = {}
    for m, c in f.terms.items():
        for choice in itertools.product(
            *(itertools.permutations(blocks[v]) for v in variables)
        ):
            assignment = dict(zip(variables, (list(p) for p in choice)))

            def rebuild(node):
                if isinstance(node, int):
                    return assignment[node].pop(0)
                return (node[0],) + tuple(rebuild(ch) for ch in node[1:])

            mono = Monomial(rebuild(m.node))
            out[mono] = fld.add(out.get(mono, fld.zero), c)
    return Polynomial(fld, out, degree=n)
