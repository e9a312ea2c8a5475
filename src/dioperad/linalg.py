"""Sparse exact linear algebra over the scalar fields.

Vectors are dicts column -> nonzero scalar.  The engine keeps a fully
reduced row echelon basis at all times: every pivot column appears in
exactly one row, so an incoming vector is reduced in a single pass over
its own support (``_Reducer.reduce``), which inserting it then extends.
That pass is the one way to reduce: a finished basis, a ``Subspace``,
answers membership and normal forms with it, and a kernel is read off the
same elimination run on tag columns (``morphisms._morphism_kernel``).

Over the rationals the engine eliminates without fractions: it holds each
row as a primitive vector of Python ints whose pivot entry is positive,
the fully reduced row with its denominators cleared.  A ``Subspace``
divides each row by its pivot entry when it is read, giving the canonical
``Fraction`` rows of the reduced echelon form, and a normal form by the
multiplier that the pass scaled the vector by.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _cleared(vec: dict) -> tuple[int, dict]:
    """The lcm of the denominators of a rational (Fraction or int) vector
    and the vector times it, as a fresh dict of ints."""
    den = lcm(*(v.denominator for v in vec.values()))
    return den, {c: v.numerator * (den // v.denominator) for c, v in vec.items()}


def _divide_content(vec: dict, pivot: int) -> None:
    """Divide an int vector, in place, by the gcd of its entries, signed so
    that the entry at pivot becomes positive."""
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for c in vec:
            vec[c] //= g


def _eliminate(vec: dict, col: int, row: dict, p: int) -> list:
    """Clear column col of the int vector vec with the row whose pivot is
    col, in place, and return the columns that cancel (col among them).
    Over a prime field p the row has pivot entry 1 and
    vec <- vec - c·row mod p, where c = vec[col].  Over the rationals
    (p = 0) vec <- (a/g)·vec - (c/g)·row, where a = row[col] > 0 and
    g = gcd(a, c)."""
    c = vec[col]
    if not p:
        a = row[col]
        g = gcd(a, c)
        if a != g:
            scale = a // g
            for k in vec:
                vec[k] *= scale
        c //= g
    lost = []
    for k, v in row.items():
        nv = vec.get(k, 0) - c * v
        if p:
            nv %= p
        if nv:
            vec[k] = nv
        else:
            del vec[k]
            lost.append(k)
    return lost


class _Reducer:
    """Incremental fully-reduced row echelon form, started empty.  Over a
    prime field each row has pivot entry 1; over the rationals it is a
    primitive int vector with a positive pivot entry (see the module
    docstring)."""

    __slots__ = ("field", "pivot_rows", "_colindex")

    def __init__(self, field):
        self.field = field
        self.pivot_rows: dict[int, dict[int, object]] = {}
        # column -> pivot columns whose rows touch it, for ``insert`` only
        # (None once released)
        self._colindex: dict[int, set[int]] | None = {}

    def _add(self, pivot: int, row: dict) -> None:
        self.pivot_rows[pivot] = row
        for c in row:
            self._colindex.setdefault(c, set()).add(pivot)

    def release_index(self) -> None:
        """Drop the column index, to hold a finished basis in less memory;
        ``reduce`` does not read it, and the next ``insert`` rebuilds it."""
        self._colindex = None

    def reduce(self, vec: dict) -> dict:
        """vec minus the combination of rows that clears its pivot columns,
        as a fresh dict of ints, in one pass; the reducer is left as it is.
        Over a prime field it is the normal form, entries reduced mod p;
        over the rationals a nonzero int multiple of it (``scaled_reduce``)."""
        return self.scaled_reduce(vec)[1]

    def scaled_reduce(self, vec: dict) -> tuple[int, dict]:
        """``reduce``, with the multiplier m of the normal form that it
        returns: 1 over a prime field.

        The rows are fully reduced, so no row touches another's pivot
        column and vec's coefficient at each pivot column is final.  Over
        a prime field the pass adds plain ints and takes each column mod p
        once at the end.  Over the rationals vec is cleared of its
        denominators and scaled once by the lcm of a/gcd(a, v) over the
        pivots it meets, a being the row's pivot entry and v vec's entry
        there, so that every multiple subtracted is an int; m is the
        product of the two."""
        rows = self.pivot_rows
        p = self.field.characteristic
        mult, ints = (1, vec) if p else _cleared(vec)
        hits = [(c, v) for c, v in ints.items() if c in rows]
        if not p and hits:
            scale = lcm(*(a // gcd(a, v) for c, v in hits for a in (rows[c][c],)))
            if scale != 1:
                mult *= scale
                ints = {c: v * scale for c, v in ints.items()}
                hits = [(c, v * scale) for c, v in hits]
        acc = dict(ints)
        get = acc.get
        for c, v in hits:
            row = rows[c]
            if not p:
                v //= row[c]
            for k, w in row.items():
                acc[k] = get(k, 0) - v * w
        if p:
            return 1, {k: r for k, x in acc.items() if (r := x % p)}
        return mult, {k: x for k, x in acc.items() if x}

    def insert(self, vec: dict) -> bool:
        """Reduce vec and extend the basis if a new pivot appears."""
        row = self.reduce(vec)
        if not row:
            return False
        f = self.field
        p = f.characteristic
        if self._colindex is None:
            rows, self.pivot_rows, self._colindex = self.pivot_rows, {}, {}
            for c, r in rows.items():
                self._add(c, r)
        pivot = min(row)
        if p:
            inv = f.inv(row[pivot])
            row = {c: f.mul(inv, v) for c, v in row.items()}
        else:
            _divide_content(row, pivot)
        # back-eliminate the new pivot from the rows that hold it; a row
        # gains or loses only columns of the new row, so only their index
        # entries change: each such column gets every changed row, then
        # loses those in which it cancelled
        index = self._colindex
        changed = list(index.get(pivot, ()))
        lost = []
        for other in changed:
            target = self.pivot_rows[other]
            lost.append((other, _eliminate(target, pivot, row, p)))
            if not p:
                _divide_content(target, other)
        if changed:
            for c in row:
                index.setdefault(c, set()).update(changed)
            for other, cols in lost:
                for c in cols:
                    index[c].discard(other)
        # a fresh set: the emptied one keeps the size of all its owners
        index[pivot] = set()
        self._add(pivot, row)
        return True


class Subspace:
    """A subspace of a coordinate space: a view over the finished
    ``_Reducer`` it was built from, whose column index it releases.

    Its basis is the canonical reduced one, read off the reducer on access
    in pivot order: over the rationals each int row divided by its pivot
    entry.  Membership and normal forms are the reducer's one-pass
    ``reduce``; a column outside the space is refused with a ValueError
    naming it."""

    __slots__ = ("field", "ncols", "reducer")

    def __init__(self, field, ncols, reducer: _Reducer):
        reducer.release_index()
        self.field = field
        self.ncols = ncols
        self.reducer = reducer

    @property
    def dim(self) -> int:
        return len(self.reducer.pivot_rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.reducer.pivot_rows))

    @property
    def rows(self) -> tuple:
        rows = self.reducer.pivot_rows
        if self.field.characteristic:
            return tuple(rows[p] for p in sorted(rows))
        out = []
        for p in sorted(rows):
            row = rows[p]
            a = row[p]
            out.append({c: Fraction(v, a) for c, v in row.items()})
        return tuple(out)

    def _check_columns(self, vec: dict) -> None:
        width = self.ncols
        if vec and (min(vec) < 0 or max(vec) >= width):
            bad = next(c for c in vec if not 0 <= c < width)
            raise ValueError(f"column {bad} outside 0..{width - 1}")

    def reduce(self, vec: dict) -> dict:
        """The normal form of vec: vec minus the combination of rows that
        clears its pivot columns, supported on free columns."""
        self._check_columns(vec)
        mult, ints = self.reducer.scaled_reduce(vec)
        if self.field.characteristic:
            return ints
        return {c: Fraction(v, mult) for c, v in ints.items()}

    def contains(self, vec: dict) -> bool:
        """Whether vec lies in the subspace."""
        self._check_columns(vec)
        return not self.reducer.reduce(vec)

    def contains_all(self, vecs) -> bool:
        """Whether every given vector lies in the subspace."""
        return all(map(self.contains, vecs))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ncols={self.ncols})"


def row_reduce(field, ncols, rows) -> Subspace:
    """Canonical reduced row echelon basis of the span of the given rows."""
    r = _Reducer(field)
    for row in rows:
        r.insert(row)
    return Subspace(field, ncols, r)
