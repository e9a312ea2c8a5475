"""Sparse exact linear algebra over the scalar fields.

Vectors are dicts column -> nonzero scalar.  The engine keeps a fully
reduced row echelon basis at all times: every pivot column appears in
exactly one row, so an incoming vector is reduced in a single pass over
its own support.

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


def _eliminate(vec: dict, col: int, row: dict) -> None:
    """Clear column col of the int vector vec with the int row whose pivot
    is col, in place: vec <- (a/g)·vec - (c/g)·row, where a = row[col] > 0,
    c = vec[col] and g = gcd(a, c)."""
    a, c = row[col], vec[col]
    g = gcd(a, c)
    if a != g:
        scale = a // g
        for k in vec:
            vec[k] *= scale
    c = -(c // g)
    for k, v in row.items():
        nv = vec.get(k, 0) + c * v
        if nv:
            vec[k] = nv
        else:
            del vec[k]


class _Reducer:
    """Incremental fully-reduced row echelon form, empty or started from
    the rows of a fully reduced echelon basis (each row's pivot is its
    least column; the rows are copied).  Over a prime field each row has
    pivot entry 1; over the rationals it is a primitive int vector with a
    positive pivot entry (see the module docstring)."""

    __slots__ = ("field", "pivot_rows", "_colindex")

    def __init__(self, field, rows=()):
        self.field = field
        self.pivot_rows: dict[int, dict[int, object]] = {}
        # column -> set of pivot columns whose rows touch it
        self._colindex: dict[int, set[int]] = {}
        # a pivot-1 row cleared of its denominators is primitive
        for row in rows:
            self._add(
                min(row), dict(row) if field.characteristic else _cleared(row)[1]
            )

    def _add(self, pivot: int, row: dict) -> None:
        self.pivot_rows[pivot] = row
        for c in row:
            self._colindex.setdefault(c, set()).add(pivot)

    def insert(self, vec: dict) -> bool:
        """Reduce vec and extend the basis if a new pivot appears."""
        f = self.field
        rational = not f.characteristic
        if rational:
            row = _cleared(vec)[1]
            for col in sorted(c for c in row if c in self.pivot_rows):
                _eliminate(row, col, self.pivot_rows[col])
            if not row:
                return False
            pivot = min(row)
            _divide_content(row, pivot)
        else:
            # Rows are fully reduced, so eliminating a pivot column can only
            # introduce free columns; one pass over the original support and
            # its fill-in suffices.
            red = dict(vec)
            for col in sorted(c for c in red if c in self.pivot_rows):
                coeff = red.get(col)
                if coeff:
                    f.axpy_into(red, f.neg(coeff), self.pivot_rows[col])
            if not red:
                return False
            pivot = min(red)
            inv = f.inv(red[pivot])
            row = {c: f.mul(inv, v) for c, v in red.items()}
        # back-eliminate the new pivot from existing rows
        for other in list(self._colindex.get(pivot, ())):
            target = self.pivot_rows[other]
            coeff = target.get(pivot)
            if not coeff:
                continue
            before = set(target)
            if rational:
                _eliminate(target, pivot, row)
                _divide_content(target, other)
            else:
                f.axpy_into(target, f.neg(coeff), row)
            for c in before.difference(target):
                owners = self._colindex.get(c)
                if owners is not None:
                    owners.discard(other)
                    if not owners:
                        del self._colindex[c]
            for c in target.keys() - before:
                self._colindex.setdefault(c, set()).add(other)
        self._add(pivot, row)
        return True

    def take_canonical_rows(self) -> list:
        """Over the rationals: (pivot, row) in pivot order, each row divided
        by its pivot entry into its canonical Fraction form.  The reducer
        gives up each int row as it converts it and is left empty, so the
        two forms of the basis are never held at once."""
        rows = self.pivot_rows
        self._colindex.clear()
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

    def _sums(self, vec: dict, cols=None) -> tuple[int, dict]:
        """The lcm den of vec's denominators (1 over a prime field) and the
        int dot products of den·vec with each scaled z_f, keyed by f.  A sum
        may be zero, and over a prime field it is not yet taken mod p.

        With cols, vec lives on other columns: its column c stands for
        column cols[c] of stacked copies of this space, and the sums of
        copy k are keyed k·ncols + f.  A column outside the space (or
        outside cols) is refused with a ValueError naming it."""
        width = self.ncols if cols is None else len(cols)
        if vec and (min(vec) < 0 or max(vec) >= width):
            bad = next(c for c in vec if not 0 <= c < width)
            raise ValueError(f"column {bad} outside 0..{width - 1}")
        den, ints = (1, vec) if self.field.characteristic else _cleared(vec)
        nf = self._normal_form()
        n = self.ncols
        acc: dict[int, int] = {}
        get = acc.get
        off = 0
        for c, v in ints.items():
            if cols is not None:
                c = cols[c]
                off = c - c % n
                c -= off
            z = nf.get(c)
            if z is None:
                k = off + c
                acc[k] = get(k, 0) + v
            else:
                for f, w in z.items():
                    k = off + f
                    acc[k] = get(k, 0) + v * w
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

    def contains(self, vec: dict, cols=None) -> bool:
        """Whether vec lies in the subspace.  With cols (see ``_sums``),
        whether each stacked copy's component of vec lies in it."""
        sums = self._sums(vec, cols)[1].values()
        p = self.field.characteristic
        return not any(s % p for s in sums) if p else not any(sums)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ncols={self.ncols})"


def row_reduce(field, ncols, rows) -> Subspace:
    """Canonical reduced row echelon basis of the span of the given rows."""
    r = _Reducer(field)
    for row in rows:
        r.insert(row)
    return Subspace(field, ncols, r)


def extend(space: Subspace, extra_rows) -> Subspace:
    """The span of a subspace together with additional vectors."""
    r = _Reducer(space.field, space.rows)
    for row in extra_rows:
        r.insert(row)
    return Subspace(space.field, space.ncols, r)


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
