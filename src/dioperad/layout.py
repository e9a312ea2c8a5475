"""The column layout of each multilinear degree, and the maps between
layouts.

The degree-n multilinear basis is laid out as skeletons times leaf words
(``BasisLayout``), so that a column is found by arithmetic, without
building trees.  ``AssociationFold`` folds those columns onto the
association types of a presentation's laws.  A substitution of a corolla
into or around a lower monomial, a relabelling of the variables and the
lift of a plain monomial toward an emphasized leaf each send a column to
one column; each is a ``ColumnMap``, two tables as short as the
skeletons and the words, read by arithmetic as a vector is mapped.
"""

from __future__ import annotations

import itertools
import math

from .context import as_context
from .terms import Signature, _graft, collapse

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


class ColumnMap:
    """A one-to-one map from the columns of one layout into those of
    another, held as a skeleton table and a word table.  The source column
    c, of skeleton block c // width and word rank c % width = r, goes to
    offsets[c // width][slots[r]] + ranks[r]: each source skeleton has a
    row of offsets, one per slot a word can pick, and each source word
    gives the slot it picks and a rank in the target's words.  No table is
    as long as the source layout; each image column is computed as a
    vector is mapped."""

    __slots__ = ("width", "offsets", "slots", "ranks")

    def __init__(self, offsets, slots, ranks):
        self.width = len(slots)
        self.offsets, self.slots, self.ranks = offsets, slots, ranks

    def __call__(self, vec: dict) -> dict:
        """The image of a vector on the source columns."""
        width, offsets = self.width, self.offsets
        slots, ranks = self.slots, self.ranks
        return {
            offsets[c // width][slots[r]] + ranks[r]: v
            for c, v in vec.items()
            for r in [c % width]
        }


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
    for each slot i of op the map w -> op o_i w.  The first kind share one
    skeleton table, the upper offset of each lower skeleton with the
    corolla grafted at each of its slots; the word picks the slot that
    holds label i.  The second kind graft each lower skeleton at slot i of
    the corolla, whatever the word."""
    m, n = lower.degree, upper.degree
    arity = n - m + 1
    corolla = (op,) + (_LEAF,) * arity
    labels = range(1, max(m, arity) + 1)
    rank, width, words = upper.rank, len(upper.words), lower.words

    def offset(skel, slot, sub):
        # the skeleton with its leaf at preorder position slot replaced by sub
        repl = {j: sub if j == slot else _LEAF for j in labels}
        return upper.position[_graft(_fill(skel, iter(labels)), repl)] * width

    grafted = [
        tuple(offset(s, p, corolla) for p in range(1, m + 1))
        for s in lower.skeletons
    ]
    maps = [
        ColumnMap(
            grafted,
            bytes(w.index(i) for w in words),
            [rank[_insert_block(w, i, arity)] for w in words],
        )
        for i in range(1, m + 1)
    ]
    anywhere = bytes(len(words))
    for i in range(1, arity + 1):
        before, after = tuple(range(1, i)), tuple(range(i + m, n + 1))
        maps.append(ColumnMap(
            [(offset(corolla, i, s),) for s in lower.skeletons],
            anywhere,
            [rank[before + tuple(j + i - 1 for j in w) + after] for w in words],
        ))
    return maps


def _perm_column_maps(layout):
    """Column maps for a generating set of leaf relabelings, a transposition
    and an n-cycle: each relabels the leaf words once, and every skeleton
    keeps its offset.  The layout is a ``BasisLayout`` or the type columns
    of an ``AssociationFold``."""
    n = layout.degree
    if n < 2:
        return []
    perms = [(2, 1) + tuple(range(3, n + 1))]
    if n > 2:
        perms.append(tuple(range(2, n + 1)) + (1,))
    rank, words = layout.rank, layout.words
    offsets = [(s,) for s in range(0, layout.ncols, len(words))]
    anywhere = bytes(len(words))
    return [
        ColumnMap(
            offsets, anywhere, [rank[tuple(perm[v - 1] for v in w)] for w in words]
        )
        for perm in perms
    ]
