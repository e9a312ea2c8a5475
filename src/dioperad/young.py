"""Young's seminormal representations of the symmetric groups, and the ranks
that measure a submodule of copies of the group algebra.

Over a field of characteristic 0 or above n the group algebra k[S_n] is
semisimple: it is the direct sum, over the partitions λ of n, of matrix
algebras of size d_λ, the number of standard tableaux of shape λ.  A left
submodule M of k[S_n]^s generated by g_1, g_2, ... is then fixed by the row
spaces of the stacked d_λ × s·d_λ matrices ρ_λ(g_j), and
dim M = Σ_λ d_λ·r_λ where r_λ is the rank of that stack (Hentzel,
*Processing identities by group representation*, 1977).  An element lies
in M exactly when its own rows raise no r_λ, and the ranks of further
elements' rows modulo M's are those of the module they generate in the
quotient by M.

A permutation is a leaf word w = (w_1, ..., w_n), the map j -> w_j, and
relabelling by σ is left multiplication, the word (σ(w_1), ..., σ(w_n)).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction

from .linalg import _Reducer


def partitions(n: int):
    """The partitions of n as descending tuples, in reverse lexicographic
    order: (n) first, (1, ..., 1) last."""

    def parts(rest, largest):
        if not rest:
            yield ()
        for first in range(min(rest, largest), 0, -1):
            for tail in parts(rest - first, first):
                yield (first,) + tail

    return tuple(parts(n, n))


def standard_tableaux(shape):
    """The standard tableaux of a shape in lexicographic order of their row
    words: entry i sits in row ``word[i - 1]`` (rows counted from 0)."""
    n = sum(shape)
    counts = [0] * len(shape)
    word: list = []
    out = []

    def fill():
        if len(word) == n:
            out.append(tuple(word))
            return
        for row, size in enumerate(shape):
            if counts[row] < size and (row == 0 or counts[row - 1] > counts[row]):
                counts[row] += 1
                word.append(row)
                fill()
                word.pop()
                counts[row] -= 1

    fill()
    return tuple(out)


def dimensions(n: int):
    """d_λ, the number of standard tableaux, for each partition of n in
    the order of ``partitions``."""
    return [len(standard_tableaux(shape)) for shape in partitions(n)]


def _semisimple(field, n) -> bool:
    """Whether k[S_n] is semisimple: characteristic 0 or above n."""
    return not field.characteristic or field.characteristic > n


def _contents(word):
    """Column minus row of each entry of a tableau given by its row word."""
    filled: dict = {}
    out = []
    for row in word:
        col = filled.get(row, 0)
        filled[row] = col + 1
        out.append(col - row)
    return out


def seminormal_matrices(shape):
    """ρ_λ(s_1), ..., ρ_λ(s_{n-1}) in Young's seminormal form, as dense
    Fraction matrices on the standard tableaux: ρ(s_i) e_u = Σ_t M[t][u] e_t.

    With r the content of i+1 minus that of i in tableau T, s_i sends e_T to
    e_T / r plus a multiple of e_{s_i T} when swapping i and i+1 leaves a
    standard tableau: 1 if i+1 lies in a lower row than i, else 1 - 1/r².
    The entries have denominators dividing lcm(1..n-1)²."""
    tableaux = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    contents = [_contents(t) for t in tableaux]
    d = len(tableaux)
    mats = []
    for i in range(1, sum(shape)):
        m = [[Fraction(0)] * d for _ in range(d)]
        for u, t in enumerate(tableaux):
            r = contents[u][i] - contents[u][i - 1]
            m[u][u] = Fraction(1, r)
            if abs(r) > 1:
                swapped = index[t[: i - 1] + (t[i], t[i - 1]) + t[i + 1:]]
                lower = t[i] > t[i - 1]
                m[swapped][u] = Fraction(1) if lower else 1 - Fraction(1, r * r)
        mats.append(m)
    return mats


class WordTable:
    """ρ_λ(w) for the leaf words w of degree n and the partitions λ of n,
    exact and over no field: every field reads the same table.  A word
    other than the identity puts some label i+1 before i; swapping the
    first such pair gives its parent, one inversion shorter, with
    w = s_i ∘ parent and so ρ(w) = ρ(s_i)·ρ(parent).  A word's matrices
    are built from its parent's on first use: a module generator, brought
    to the identity word by ``ModuleRanks``, meets few of the n! words.

    The words and their ranks are those of a basis layout of degree n
    (``layout.BasisLayout``), so column c of the layout holds the word of
    rank c mod n!.  ``matrix(k, r)`` is the pair (D, N) for the k-th
    partition and the word of rank r, with ρ_λ(w) = N / D: D is the least
    common denominator of ρ_λ(w)'s entries, and N its numerators in a flat
    row-major array of machine integers, 8 bytes an entry.  Every entry
    of ρ_λ(w) is at most 1 in absolute value, so |N| ≤ D, and D has no
    prime factor above n − 1: 576 at n = 5, 14,400 at n = 6, 2,073,600 at
    n = 7 and 671,846,400 over Glennie's degree-8 run."""

    __slots__ = ("degree", "dims", "words", "rank", "_scale", "_gens",
                 "_mats")

    def __init__(self, layout):
        self.degree = n = layout.degree
        self.words, self.rank = layout.words, layout.rank
        self.dims = dimensions(n)
        # L·ρ(s_i) is an integer matrix, L = lcm(1..n-1)²
        self._scale = scale = math.lcm(*range(1, n)) ** 2
        self._gens = [
            [
                [[(u, int(x * scale)) for u, x in enumerate(row) if x]
                 for row in m]
                for m in seminormal_matrices(shape)
            ]
            for shape in partitions(n)
        ]
        identity = self.rank[tuple(range(1, n + 1))]
        self._mats = [
            {identity: (1, array(
                "q", (int(t == u) for t in range(d) for u in range(d))
            ))}
            for d in self.dims
        ]

    def matrix(self, k: int, r: int):
        """(D, N) for the k-th partition and the word of rank r."""
        mats = self._mats[k]
        out = mats.get(r)
        if out is None:
            word = self.words[r]
            at = {v: j for j, v in enumerate(word)}
            i = next(i for i in range(1, self.degree) if at[i + 1] < at[i])
            swap = {i: i + 1, i + 1: i}
            parent = self.rank[tuple(swap.get(v, v) for v in word)]
            (den, prev), d = self.matrix(k, parent), self.dims[k]
            # ρ(w) = (L·ρ(s_i))·N_parent / (L·D_parent), then in lowest terms
            num = []
            for entries in self._gens[k][i - 1]:
                (u, c), *rest = entries
                acc = [c * x for x in prev[u * d:(u + 1) * d]]
                for u, c in rest:
                    acc = [a + c * x for a, x in zip(acc, prev[u * d:(u + 1) * d])]
                num.extend(acc)
            den *= self._scale
            g = math.gcd(den, *num)
            mats[r] = out = (den // g, array("q", [x // g for x in num]))
        return out


class ModuleRanks:
    """The ranks r_λ of the stacked matrices ρ_λ(g) over the elements g of
    k[S_n]^s inserted so far: a left submodule of dimension Σ d_λ·r_λ, and
    a membership test for it.  An element is a dict column -> scalar over
    the fold's field, column = block · n! + rank of the leaf word.

    The module is held through a ``layout.AssociationFold`` f of the s
    skeleton blocks onto t type blocks, whose kernel lies in the module:
    the stacks have t blocks, start from the fold's relations, and every
    element is folded on its way in.  As f is onto and splits, the module
    is the preimage of its fold, with r_λ = the folded rank + (s − t)·d_λ;
    an element lies in it exactly when its fold lies in the folded module,
    and the quotients by the two agree."""

    __slots__ = ("table", "fold", "width", "reducers", "_sizes")

    def __init__(self, table: WordTable, fold):
        self.table = table
        self.fold = fold
        self.width = len(table.words)
        self.reducers = [_Reducer(fold.field) for _ in table.dims]
        # the number of columns of each stack, the largest rank it can have
        self._sizes = [fold.ntypes * d for d in table.dims]
        for vec in fold.relations:
            self._insert(vec)

    @property
    def field(self):
        return self.fold.field

    @property
    def ncols(self) -> int:
        return self.fold.nblocks * self.width

    @property
    def ranks(self):
        folded = self.fold.nblocks - self.fold.ntypes
        return [
            len(r.pivot_rows) + folded * d
            for r, d in zip(self.reducers, self.table.dims)
        ]

    @property
    def dim(self) -> int:
        return sum(map(int.__mul__, self.table.dims, self.ranks))

    def _coefficients(self, vec):
        """Per block, the (word rank, integer coefficient) pairs of vec,
        scaled by the common denominator of its coefficients over the
        rationals; over a prime field that denominator is 1.  Scaling
        ρ_λ(vec) as a whole leaves its row space alone."""
        table, width = self.table, self.width
        # ρ(σ·vec) = ρ(σ)ρ(vec) has the same row space as ρ(vec); taking σ
        # to bring the first column's word to the identity makes it sparser
        first = table.words[min(vec) % width]
        inverse = {v: j for j, v in enumerate(first, 1)}
        rank, words = table.rank, table.words
        den = math.lcm(*(v.denominator for v in vec.values()))
        blocks: dict = {}
        for c, v in vec.items():
            b, r = divmod(c, width)
            blocks.setdefault(b, []).append((
                rank[tuple(inverse[x] for x in words[r])],
                v.numerator * (den // v.denominator),
            ))
        return blocks

    def _rows(self, blocks, k):
        """The nonzero rows of D·ρ_λ(vec) for the k-th partition λ, from
        vec's ``_coefficients``, with D the lcm of the table's denominators
        D_w over vec's words: row t holds, at block b's columns
        b·d_λ .. b·d_λ + d_λ - 1, row t of that block's image.  D has no
        prime factor above n − 1, so over a prime field that has a
        ``ModuleRanks`` it is a unit."""
        table, p = self.table, self.fold.field.characteristic
        d = table.dims[k]
        mats = {
            b: [(c, *table.matrix(k, r)) for r, c in terms]
            for b, terms in blocks.items()
        }
        den = math.lcm(*(dw for terms in mats.values() for _, dw, _ in terms))
        images = []
        for b, terms in mats.items():
            (c, dw, mat), *rest = terms
            c *= den // dw
            acc = [c * x for x in mat]
            for c, dw, mat in rest:
                c *= den // dw
                acc = [a + c * x for a, x in zip(acc, mat)]
            if p:
                acc = [x % p for x in acc]
            images.append((b * d, acc))
        for t in range(0, d * d, d):
            row = {
                base + j: x
                for base, acc in images
                for j, x in enumerate(acc[t:t + d])
                if x
            }
            if row:
                yield row

    def insert(self, vec: dict) -> bool:
        """Add ρ_λ(vec)'s rows for every λ; whether any rank went up."""
        return self._insert(self.fold.fold(vec))

    def _insert(self, vec: dict) -> bool:
        """``insert`` of a vector on the type columns."""
        if not vec:
            return False
        blocks = self._coefficients(vec)
        raised = False
        for k, (reducer, size) in enumerate(zip(self.reducers, self._sizes)):
            if len(reducer.pivot_rows) < size:
                for row in self._rows(blocks, k):
                    raised |= reducer.insert(row)
        return raised

    def release_indices(self) -> None:
        """Hold the module in less memory once its generators are all in:
        each reducer drops the column index that only insertion reads."""
        for reducer in self.reducers:
            reducer.release_index()

    def contains(self, vec: dict) -> bool:
        """Whether vec lies in the module: whether inserting it would raise
        no rank.  The module is left as it is."""
        return self.contains_all([vec])

    def contains_all(self, vecs) -> bool:
        """Whether every given vector lies in the module.  Vectors whose
        ``_coefficients`` agree, as copies of one vector or of one
        relabelled vector often do, are tested once.  The module is left as
        it is."""
        each: dict = {}
        for vec in map(self.fold.fold, vecs):
            if vec:
                blocks = self._coefficients(vec)
                each[frozenset(
                    (b, frozenset(terms)) for b, terms in blocks.items()
                )] = blocks
        return not any(
            reducer.reduce(row)
            for k, (reducer, size) in enumerate(zip(self.reducers, self._sizes))
            if len(reducer.pivot_rows) < size
            for blocks in each.values()
            for row in self._rows(blocks, k)
        )

    def quotient_ranks(self, vecs) -> list:
        """Per partition λ, the rank of the rows of ρ_λ(v) over the given
        vectors v, each reduced modulo the module: the ranks r_λ of the
        image of the module they generate in the quotient by this one.  The
        module is left as it is."""
        quotient = [_Reducer(self.field) for _ in self.reducers]
        for vec in map(self.fold.fold, vecs):
            if not vec:
                continue
            blocks = self._coefficients(vec)
            for k, (reducer, size) in enumerate(zip(self.reducers, self._sizes)):
                if len(reducer.pivot_rows) + len(quotient[k].pivot_rows) < size:
                    for row in self._rows(blocks, k):
                        quotient[k].insert(reducer.reduce(row))
        return [len(r.pivot_rows) for r in quotient]
