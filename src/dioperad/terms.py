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
the leaves of a multilinear polynomial.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .context import as_context
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


_LEAF = None  # placeholder in skeletons


def _skeletons(sig: Signature, n: int):
    """The skeletons with n leaves, generated in canonical order.

    Canonical order compares skeletons in preorder, an internal node before
    a leaf and operations in signature order.  Preorder codes are prefix
    free, so children compare lexicographically, first child first, and a
    first child ranges over skeletons of every size at once: ``trees(t)``
    lists, in order and with their leaf counts, all skeletons with at most
    t leaves."""
    upto: dict = {}

    def trees(total):
        if total not in upto:
            found = [
                ((name,) + kids, size)
                for name, arity in sig.operations
                for kids, size in forests(arity, total)
            ]
            found.append((_LEAF, 1))
            upto[total] = found
        return upto[total]

    def forests(k, total):
        # k-tuples of skeletons with at most total leaves in all, in order
        if k == 0:
            yield (), 0
        elif total >= k:
            for first, size in trees(total - k + 1):
                for rest, more in forests(k - 1, total - size):
                    yield (first,) + rest, size + more

    return tuple(skel for skel, size in trees(n) if size == n)


def _fill(skel, labels):
    if skel is _LEAF:
        return next(labels)
    return (skel[0],) + tuple(_fill(c, labels) for c in skel[1:])


class BasisLayout:
    """The degree-n multilinear basis as skeletons times leaf words.

    Skeletons are in canonical order and the n! leaf words in lexicographic
    order; the monomial filling skeleton s with word w sits in column
    ``position(s) * n! + rank(w)``.  This is the canonical order of
    monomials, so columns are found by arithmetic, without building trees.
    """

    __slots__ = ("degree", "skeletons", "position", "words", "rank")

    def __init__(self, sig: Signature, n: int):
        self.degree = n
        self.skeletons = _skeletons(sig, n)
        self.position = {s: i for i, s in enumerate(self.skeletons)}
        self.words = tuple(itertools.permutations(range(1, n + 1)))
        self.rank = {w: r for r, w in enumerate(self.words)}

    @property
    def ncols(self) -> int:
        return len(self.skeletons) * len(self.words)

    def node(self, col: int):
        """The raw tree node in a column."""
        s, r = divmod(col, len(self.words))
        return _fill(self.skeletons[s], iter(self.words[r]))

    def __getitem__(self, node) -> int:
        """The column of a raw tree node; KeyError outside the basis."""
        word: list = []
        skeleton = _split_node(node, word)
        return self.position[skeleton] * len(self.words) + self.rank[tuple(word)]


def _split_node(node, word):
    """The skeleton of a raw tree node; its leaf labels go onto word."""
    if isinstance(node, int):
        word.append(node)
        return _LEAF
    return (node[0],) + tuple(_split_node(c, word) for c in node[1:])


def basis_layout(sig: Signature, n: int, ctx=None) -> BasisLayout:
    """The skeleton-by-word layout of the degree-n multilinear basis."""
    return as_context(ctx).memo(
        ("layout", sig, n), n, lambda: BasisLayout(sig, n)
    )


def _shape_key(skel):
    """A fixed total order on skeletons: a leaf first, then by operation
    name and the children's keys in turn."""
    if skel is _LEAF:
        return ()
    return (skel[0],) + tuple(_shape_key(c) for c in skel[1:])


def _flatten(skel, op):
    """The children of the maximal op-subtree at skel's root, left to
    right: skel itself unless op sits at its root."""
    if skel is _LEAF or skel[0] != op:
        return (skel,)
    return tuple(leaf for child in skel[1:] for leaf in _flatten(child, op))


def _children(skel, associative):
    """A node's children, those of its maximal subtree for an associative
    operation (``_flatten``)."""
    return _flatten(skel, skel[0]) if skel[0] in associative else skel[1:]


def _canonical(skel, symmetric, associative, first=0):
    """(type, positions, sign) of a skeleton whose leftmost leaf sits at
    position first.  The type orders the two children of each symmetric
    node by ``_shape_key``, innermost nodes first, and rebuilds each
    maximal subtree of an associative operation as the left comb on its
    children, each of them canonical and, for a commutative operation,
    sorted by ``_shape_key``.  positions lists, for each leaf of the type in
    turn, the position in skel it came from; sign is the product of ε over
    the nodes swapped.  An anticommutative operation is never associative
    here, so a comb never changes the sign."""
    if skel is _LEAF:
        return _LEAF, (first,), 1
    op = skel[0]
    parts = []
    for child in _children(skel, associative):
        parts.append(_canonical(child, symmetric, associative, first))
        first += len(parts[-1][1])
    sign = math.prod(s for _, _, s in parts)
    eps = symmetric.get(op)
    if op in associative:
        if eps is not None:
            parts.sort(key=lambda part: _shape_key(part[0]))
        node = parts[0][0]
        for t, _, _ in parts[1:]:
            node = (op, node, t)
    else:
        if eps is not None and _shape_key(parts[1][0]) < _shape_key(parts[0][0]):
            parts.reverse()
            sign *= eps
        node = (op,) + tuple(t for t, _, _ in parts)
    return node, tuple(p for _, pos, _ in parts for p in pos), sign


def _type(skel, symmetric, associative, collapsing):
    """``_canonical`` of a skeleton and, when collapsing, ``collapse``
    after it, in turn until neither moves the skeleton: (type, positions,
    sign), the positions composed and the signs multiplied along the way.
    A collapse keeps the leaves where they are and changes no sign, and
    the number of superscripts other than 1 falls with each collapse that
    moves the skeleton, while ``_canonical`` keeps it, so the turns end."""
    node, positions, sign = _canonical(skel, symmetric, associative)
    while collapsing:
        moved = collapse(node)[0]
        if moved == node:
            break
        node, inner, step = _canonical(moved, symmetric, associative)
        positions = tuple(positions[p] for p in inner)
        sign *= step
    return node, positions, sign


def _size(skel) -> int:
    """The number of leaves of a skeleton."""
    return 1 if skel is _LEAF else sum(map(_size, skel[1:]))


def _equal_swaps(skel, symmetric, associative, n, first=0):
    """(ε, word) for each pair of adjacent equal children of a symmetric
    node of the type skel, skel's leftmost leaf sitting at position first
    of n, the children of an associative node being those of its comb
    (``_children``): the word is the identity with the leaf blocks of the
    two children exchanged."""
    if skel is _LEAF:
        return
    children = _children(skel, associative)
    starts = [first]
    for child in children:
        yield from _equal_swaps(child, symmetric, associative, n, starts[-1])
        starts.append(starts[-1] + _size(child))
    if skel[0] in symmetric:
        for i in range(len(children) - 1):
            if children[i] == children[i + 1]:
                a, b, end = starts[i:i + 3]
                order = (*range(a), *range(b, end), *range(a, b), *range(end, n))
                yield symmetric[skel[0]], tuple(p + 1 for p in order)


class AssociationFold:
    """The degree-n basis folded onto association types, for binary
    operations that are commutative (ε = 1) or anticommutative (ε = -1)
    modulo an ideal, o(x, y) ≡ ε·o(y, x), and for binary operations that
    are associative modulo it, o(o(x, y), z) ≡ o(x, o(y, z)), none of them
    anticommutative.

    Each skeleton T has a type T' (``_canonical``), itself a skeleton of
    the layout, and the monomial on T with leaf word w is ε^k times the
    monomial on T' with the word w∘π, π being the type's leaf positions in
    T.  ``fold`` maps a vector onto the t types, column = type · n! + rank
    of the word.  It is an onto map of S_n-modules, and each monomial is
    congruent to its image, read on the type's own skeleton, modulo the
    ideal J that the o(1, 2) − ε·o(2, 1) and the associators generate; so
    the fold's kernel lies in J.  Two monomials that differ by one
    reassociation fold to the same column.  Each pair of adjacent equal
    children of a symmetric node of a type, the children of an associative
    node being those of its comb, gives a relation (T', id) − ε·(T', swap)
    in type coordinates (``relations``), and they generate the fold of J.
    So J is generated by the fold's ``generators`` on the skeleton columns:
    (T, id) − ε^k·(T', π) for each skeleton that is not a type, then the
    relations.  With no symmetric or associative operation the fold is
    the identity.

    On a doubled signature (``DoubledSignature``) whose zero identities
    lie in the ideal, the fold also collapses (``collapsing``): T' is then
    a fixed point of ``collapse`` as well as of ``_canonical`` (``_type``),
    a plain skeleton with one emphasized leaf, reassociated as above.  A
    collapse moves no leaf and changes no sign, and J then holds the zero
    identities too, whose ideal in each degree is the kernel of the
    collapse map; the relations are taken as above.  So a doubled degree
    counts over at most n types for each plain skeleton, instead of one
    skeleton for each choice of superscripts: bso(assoc) has 16 types at
    degree 5 against 224 skeletons (90 with the comb alone), bso(lie) 20
    against 40 at degree 4, bso(jts) 15 against 27 at degree 5.

    The type columns form a layout of their own for ``ideals._close``:
    degree, words, rank and ncols, with ``types`` giving each type's
    skeleton block."""

    __slots__ = ("layout", "field", "nblocks", "ntypes", "types", "_moves",
                 "relations", "generators")

    def __init__(self, layout, symmetric, field, associative=(),
                 collapsing=False):
        self.layout, self.field = layout, field
        n, width, rank = layout.degree, len(layout.words), layout.rank
        canonical = [
            _type(s, symmetric, associative, collapsing)
            for s in layout.skeletons
        ]
        self.types = types = [
            b for b, s in enumerate(layout.skeletons) if canonical[b][0] == s
        ]
        index = {layout.skeletons[b]: t for t, b in enumerate(types)}
        self.nblocks, self.ntypes = len(layout.skeletons), len(types)
        one = field.one
        # per skeleton: the type, the leaf positions (None if in order), ±
        self._moves = []
        self.generators = []
        for b, (skel, positions, sign) in enumerate(canonical):
            t = index[skel]
            moved = None if positions == tuple(range(n)) else positions
            self._moves.append((t, moved, sign < 0))
            if types[t] != b:
                word = tuple(p + 1 for p in positions)
                self.generators.append({
                    b * width: one,
                    types[t] * width + rank[word]: field.coerce(-sign),
                })
        self.relations = []
        for t, b in enumerate(types):
            for eps, word in _equal_swaps(
                layout.skeletons[b], symmetric, associative, n
            ):
                r, x = rank[word], field.coerce(-eps)
                self.relations.append({t * width: one, t * width + r: x})
                self.generators.append({b * width: one, b * width + r: x})

    @property
    def degree(self) -> int:
        return self.layout.degree

    @property
    def words(self):
        return self.layout.words

    @property
    def rank(self):
        return self.layout.rank

    @property
    def ncols(self) -> int:
        return self.ntypes * len(self.layout.words)

    def lift(self, vec: dict) -> dict:
        """A vector on the type columns, read on each type's own skeleton."""
        width = len(self.layout.words)
        types = self.types
        return {types[c // width] * width + c % width: v for c, v in vec.items()}

    def fold(self, vec: dict) -> dict:
        """The vector on the type columns, terms that meet adding up."""
        if self.ntypes == self.nblocks:
            return vec
        field, width = self.field, len(self.layout.words)
        words, rank = self.layout.words, self.layout.rank
        out: dict = {}
        for c, v in vec.items():
            b, r = divmod(c, width)
            t, positions, negate = self._moves[b]
            if positions is not None:
                word = words[r]
                r = rank[tuple([word[p] for p in positions])]
            c = t * width + r
            if negate:
                v = field.neg(v)
            if c in out:
                v = field.add(out[c], v)
            out[c] = v
        return {c: v for c, v in out.items() if v}


def enumerate_monomials(sig: Signature, n: int, ctx=None):
    """All multilinear monomials of degree n, in canonical order, built
    afresh from the layout."""
    layout = basis_layout(sig, n, ctx)
    return tuple(Monomial(layout.node(c)) for c in range(layout.ncols))


def _insert_block(word, i, size):
    """The leaf word of w o_i u for a u of the given degree: label i becomes
    the block i..i+size-1 and every later label moves up by size - 1."""
    out = []
    for j in word:
        if j < i:
            out.append(j)
        elif j == i:
            out.extend(range(i, i + size))
        else:
            out.append(j + size - 1)
    return tuple(out)


def substitution_column_maps(lower: BasisLayout, upper: BasisLayout, op: str):
    """Column maps of the one-step substitutions of the corolla of op, the
    column form of ``substitute_at``.

    For each slot i of a lower monomial w comes the map w -> w o_i op, then
    for each slot i of op the map w -> op o_i w; each is a list giving the
    upper column of every lower column.  Every entry is a skeleton-graft
    offset plus a word rank.
    """
    m, n = lower.degree, upper.degree
    arity = n - m + 1
    corolla = (op,) + (_LEAF,) * arity
    labels = range(1, max(m, arity) + 1)
    rank, width = upper.rank, len(upper.words)

    def offset(skel, slot, sub):
        # the skeleton with its leaf at preorder position slot replaced by sub
        repl = {j: sub if j == slot else _LEAF for j in labels}
        return upper.position[_graft(_fill(skel, iter(labels)), repl)] * width

    maps = []
    grafted = [
        [offset(s, p, corolla) for p in range(1, m + 1)] for s in lower.skeletons
    ]
    for i in range(1, m + 1):
        moved = [
            (w.index(i), rank[_insert_block(w, i, arity)]) for w in lower.words
        ]
        maps.append([row[p] + r for row in grafted for p, r in moved])
    for i in range(1, arity + 1):
        before, after = tuple(range(1, i)), tuple(range(i + m, n + 1))
        ranks = [
            rank[before + tuple(j + i - 1 for j in w) + after]
            for w in lower.words
        ]
        offsets = [offset(corolla, i, s) for s in lower.skeletons]
        maps.append([o + r for o in offsets for r in ranks])
    return maps


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
