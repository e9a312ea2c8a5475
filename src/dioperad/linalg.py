"""Sparse exact linear algebra over the scalar fields.

Vectors are dicts column -> nonzero scalar.  The engine keeps a fully
reduced row echelon basis at all times: every pivot column appears in
exactly one row, so an incoming vector is reduced in a single pass over
its own support (``_Reducer.reduce``), which inserting it then extends.

Over the rationals the engine eliminates without fractions: it holds each
row as a primitive vector of Python ints whose pivot entry is positive,
the fully reduced row with its denominators cleared, and a ``Subspace``
divides each by its pivot entry once, giving the canonical ``Fraction``
rows of the reduced echelon form.

Membership and normal forms take integer dot products with one map per
``Subspace``, built on first use (see its docstring): no vector is
eliminated row by row, and over the rationals the only ``Fraction`` values
made are the entries of a normal form.
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
        over the rationals a nonzero int multiple of it.

        The rows are fully reduced, so no row touches another's pivot
        column and vec's coefficient at each pivot column is final.  Over
        a prime field the pass adds plain ints and takes each column mod p
        once at the end.  Over the rationals vec is cleared of its
        denominators and scaled once by the lcm of a/gcd(a, v) over the
        pivots it meets, a being the row's pivot entry and v vec's entry
        there, so that every multiple subtracted is an int."""
        rows = self.pivot_rows
        p = self.field.characteristic
        ints = vec if p else _cleared(vec)[1]
        hits = [(c, v) for c, v in ints.items() if c in rows]
        if not p and hits:
            scale = lcm(*(a // gcd(a, v) for c, v in hits for a in (rows[c][c],)))
            if scale != 1:
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
            return {k: r for k, x in acc.items() if (r := x % p)}
        return {k: x for k, x in acc.items() if x}

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

    def take_canonical_rows(self) -> list:
        """Over the rationals: (pivot, row) in pivot order, each row divided
        by its pivot entry into its canonical Fraction form.  The reducer
        gives up each int row as it converts it and is left empty, so the
        two forms of the basis are never held at once."""
        rows = self.pivot_rows
        self._colindex = None
        out = []
        for p in sorted(rows):
            row = rows.pop(p)
            a = row[p]
            out.append((p, {c: Fraction(v, a) for c, v in row.items()}))
        return out


class Subspace:
    """A subspace of a coordinate space, held as a canonical reduced basis,
    built from trusted canonical rows or from a ``_Reducer``; a reducer
    over the rationals is left empty.

    Membership and normal forms go through one integer map, built on first
    use.  Each free (non-pivot) column f has the kernel vector
    z_f = e_f - sum_p row_p[f]·e_p, and reduce(v)[f] = v·z_f, so v lies in
    the subspace exactly when every v·z_f vanishes.  The map holds each z_f
    scaled to ints, by the lcm of the denominators in column f over the
    rationals, and by column: c -> {f: scaled z_f[c]}.  A free column that
    no row touches has z_f = e_f and no entry."""

    __slots__ = ("field", "ncols", "rows", "pivots", "_nf", "_scale")

    def __init__(self, field, ncols, reducer_or_rows):
        self.field = field
        self.ncols = ncols
        if isinstance(reducer_or_rows, _Reducer):
            if field.characteristic:
                items = sorted(reducer_or_rows.pivot_rows.items())
            else:
                items = reducer_or_rows.take_canonical_rows()
        else:
            items = sorted(
                ((min(r), dict(r)) for r in reducer_or_rows),
                key=lambda t: t[0],
            )
        self.pivots = tuple(p for p, _ in items)
        self.rows = tuple(r for _, r in items)
        if len(set(self.pivots)) != len(self.rows):
            raise ValueError("rows do not have distinct pivots")
        self._nf = None
        self._scale = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _normal_form(self) -> dict:
        """The integer map column -> {free column: entry}, built once."""
        if self._nf is None:
            scale: dict[int, int] = {}
            nf: dict[int, dict[int, int]] = {}
            if self.field.characteristic:
                for p, row in zip(self.pivots, self.rows):
                    nf[p] = {c: -v for c, v in row.items() if c != p}
            else:
                for row in self.rows:
                    for c, v in row.items():
                        if v.denominator != 1:
                            scale[c] = lcm(scale.get(c, 1), v.denominator)
                for p, row in zip(self.pivots, self.rows):
                    nf[p] = {
                        c: -v.numerator * (scale.get(c, 1) // v.denominator)
                        for c, v in row.items()
                        if c != p
                    }
                for f, s in scale.items():
                    nf[f] = {f: s}
            self._nf, self._scale = nf, scale
        return self._nf

    def _sums(self, vec: dict) -> tuple[int, dict]:
        """The lcm den of vec's denominators (1 over a prime field) and the
        int dot products of den·vec with each scaled z_f, keyed by f.  A sum
        may be zero, and over a prime field it is not yet taken mod p.  A
        column outside the space is refused with a ValueError naming it."""
        width = self.ncols
        if vec and (min(vec) < 0 or max(vec) >= width):
            bad = next(c for c in vec if not 0 <= c < width)
            raise ValueError(f"column {bad} outside 0..{width - 1}")
        den, ints = (1, vec) if self.field.characteristic else _cleared(vec)
        nf = self._normal_form()
        acc: dict[int, int] = {}
        get = acc.get
        for c, v in ints.items():
            z = nf.get(c)
            if z is None:
                acc[c] = get(c, 0) + v
            else:
                for f, w in z.items():
                    acc[f] = get(f, 0) + v * w
        return den, acc

    def reduce(self, vec: dict) -> dict:
        """The normal form of vec: vec minus the combination of rows that
        clears its pivot columns, supported on free columns."""
        den, sums = self._sums(vec)
        p = self.field.characteristic
        if p:
            return {f: r for f, s in sums.items() if (r := s % p)}
        scale = self._scale
        return {
            f: Fraction(s, den * scale.get(f, 1)) for f, s in sums.items() if s
        }

    def contains(self, vec: dict) -> bool:
        """Whether vec lies in the subspace."""
        sums = self._sums(vec)[1].values()
        p = self.field.characteristic
        return not any(s % p for s in sums) if p else not any(sums)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ncols={self.ncols})"


def row_reduce(field, ncols, rows) -> Subspace:
    """Canonical reduced row echelon basis of the span of the given rows."""
    r = _Reducer(field)
    for row in rows:
        r.insert(row)
    return Subspace(field, ncols, r)


def transpose(rows, ncols) -> list[dict]:
    cols: list[dict] = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c][i] = v
    return cols


def kernel_basis(field, ncols, rows) -> list[dict]:
    """Basis of the right null space, one vector per free column, ascending."""
    space = row_reduce(field, ncols, rows)
    pivots = set(space.pivots)
    out = {free: {free: field.one} for free in range(ncols) if free not in pivots}
    # Rows are fully reduced, so every entry off a row's own pivot sits in a
    # free column; ascending pivots keep each vector's keys in order.
    for p, row in zip(space.pivots, space.rows):
        for c, v in row.items():
            if c != p:
                out[c][p] = field.neg(v)
    return list(out.values())


def left_kernel_basis(field, rows, ncols) -> list[dict]:
    """Coefficient vectors u with sum_i u[i] * rows[i] = 0."""
    return kernel_basis(field, len(rows), transpose(rows, ncols))
