"""Sparse reduced-echelon engine: canonicity, kernels, rank-nullity."""

from __future__ import annotations

import copy
import itertools
import math
import random
from fractions import Fraction

import pytest

from dioperad.fields import QQ, PrimeField
from dioperad.linalg import Subspace, _Reducer, row_reduce

from oracles import (
    elimination_reduce,
    extend,
    fraction_row_reduce,
    kernel_basis,
    left_kernel_basis,
    same_subspace,
    transpose,
    trusted_subspace,
)

F7 = PrimeField(7)


def dense(vec, n):
    return [vec.get(i, 0) for i in range(n)]


def test_row_reduce_small_rational():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(1)}]
    s = row_reduce(QQ, 3, rows)
    assert s.dim == 2
    assert s.pivots == (0, 1)
    assert dense(s.rows[0], 3) == [1, 0, 1]
    assert dense(s.rows[1], 3) == [0, 1, Fraction(-1, 2)]


def test_reduction_is_canonical_under_row_order():
    rng = random.Random(7)
    rows = [
        {j: Fraction(rng.randint(-3, 3)) for j in rng.sample(range(8), 4)}
        for _ in range(10)
    ]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    base = row_reduce(QQ, 8, rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert same_subspace(row_reduce(QQ, 8, shuffled), base)


def test_rows_of_rref_are_fully_reduced():
    rng = random.Random(11)
    rows = [
        {j: rng.randint(1, 6) for j in rng.sample(range(10), 5)}
        for _ in range(12)
    ]
    s = row_reduce(F7, 10, [{c: v % 7 for c, v in r.items() if v % 7} for r in rows])
    pivots = set(s.pivots)
    for p, row in zip(s.pivots, s.rows):
        assert row[p] == 1
        assert all(c == p for c in row if c in pivots)


def test_membership_and_reduce():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    s = row_reduce(QQ, 3, rows)
    assert s.contains({0: Fraction(1), 2: Fraction(-1)})
    assert not s.contains({0: Fraction(1), 2: Fraction(1)})
    assert s.reduce({}) == {}


def test_kernel_basis_orientation_and_rank_nullity():
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}]
    ker = kernel_basis(QQ, 3, rows)
    assert len(ker) == 2
    # one generator per free column, ascending
    assert ker[0] == {1: 1, 0: -2}
    assert ker[1] == {2: 1, 0: -3}
    for v in ker:
        assert sum(rows[0].get(c, 0) * x for c, x in v.items()) == 0


def test_rank_nullity_random_prime_field():
    rng = random.Random(3)
    for _ in range(10):
        n = 9
        rows = []
        for _ in range(6):
            r = {j: rng.randint(0, 6) for j in rng.sample(range(n), 4)}
            rows.append({c: v for c, v in r.items() if v})
        rk = row_reduce(F7, n, rows).dim
        ker = kernel_basis(F7, n, rows)
        assert rk + len(ker) == n
        for v in ker:
            for r in rows:
                acc = 0
                for c, x in v.items():
                    acc = (acc + r.get(c, 0) * x) % 7
                assert acc == 0


def test_left_kernel():
    rows = [{0: Fraction(1)}, {0: Fraction(2)}, {1: Fraction(1)}]
    lk = left_kernel_basis(QQ, rows, 2)
    assert len(lk) == 1
    (v,) = lk
    # v[0]*r0 + v[1]*r1 + v[2]*r2 = 0
    assert v == {1: 1, 0: -2}


def test_transpose_round_trip():
    rows = [{0: Fraction(5), 2: Fraction(1)}, {1: Fraction(3)}]
    cols = transpose(rows, 3)
    assert cols == [{0: Fraction(5)}, {1: Fraction(3)}, {0: Fraction(1)}]
    assert transpose(cols, 2) == rows


def test_subspace_equality_and_containment():
    a = row_reduce(QQ, 3, [{0: Fraction(1), 1: Fraction(1)}])
    b = row_reduce(QQ, 3, [{0: Fraction(2), 1: Fraction(2)}])
    c = row_reduce(
        QQ, 3, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    )
    assert same_subspace(a, b)
    assert not same_subspace(a, c)
    assert all(c.contains(r) for r in a.rows)
    assert not all(a.contains(r) for r in c.rows)


def test_trusted_constructor_sorts_and_validates():
    rows = [{2: Fraction(1)}, {0: Fraction(1), 1: Fraction(4)}]
    s = trusted_subspace(QQ, 3, rows)
    assert s.pivots == (0, 2)
    with pytest.raises(ValueError):
        trusted_subspace(QQ, 3, [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}])


def test_rref_agrees_with_dense_elimination():
    rng = random.Random(19)
    for _ in range(8):
        m, n = 7, 6
        mat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in mat
        ]
        s = row_reduce(QQ, n, sparse)

        # dense Gauss-Jordan
        dense_m = [row[:] for row in mat]
        prow = 0
        for col in range(n):
            sel = next(
                (r for r in range(prow, m) if dense_m[r][col]), None
            )
            if sel is None:
                continue
            dense_m[prow], dense_m[sel] = dense_m[sel], dense_m[prow]
            inv = 1 / dense_m[prow][col]
            dense_m[prow] = [x * inv for x in dense_m[prow]]
            for r in range(m):
                if r != prow and dense_m[r][col]:
                    c = dense_m[r][col]
                    dense_m[r] = [
                        a - c * b for a, b in zip(dense_m[r], dense_m[prow])
                    ]
            prow += 1
        expected = [row for row in dense_m[:prow]]
        got = [dense(r, n) for r in s.rows]
        assert got == expected


def random_rational_rows(rng, m, n):
    """m sparse rows with fractional entries of both signs.  About a third
    are rational combinations of two earlier rows, so some reduce to zero."""
    rows = []
    for _ in range(m):
        if len(rows) >= 2 and rng.random() < 0.35:
            u, w = rng.sample(rows, 2)
            s, t = (Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                    for _ in range(2))
            row = {
                c: s * u.get(c, 0) + t * w.get(c, 0)
                for c in sorted(u.keys() | w.keys())
            }
        else:
            row = {
                c: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for c in rng.sample(range(n), rng.randint(1, 4))
            }
        rows.append({c: v for c, v in row.items() if v})
    return rows


def assert_primitive_echelon(reducer, space):
    """The reducer holds, for each row of the canonical basis ``space``, that
    row scaled to a primitive int vector with a positive pivot entry."""
    assert sorted(reducer.pivot_rows) == list(space.pivots)
    for p, expected in zip(space.pivots, space.rows):
        row = reducer.pivot_rows[p]
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert {c: Fraction(v, row[p]) for c, v in row.items()} == expected


@pytest.mark.parametrize("seed", range(8))
def test_integer_reducer_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    n = 10
    rows = random_rational_rows(rng, 16, n)
    expected = fraction_row_reduce(QQ, n, rows)
    for _ in range(4):
        order = rows[:]
        rng.shuffle(order)
        reducer = _Reducer(QQ)
        for row in order:
            reducer.insert(row)
        assert_primitive_echelon(reducer, expected)
        space = Subspace(QQ, n, reducer)
        assert same_subspace(space, expected)
        assert space.reducer is reducer  # handed over, not copied
        assert same_subspace(row_reduce(QQ, n, order), expected)
    half = len(rows) // 2
    base = row_reduce(QQ, n, rows[:half])
    assert same_subspace(base, fraction_row_reduce(QQ, n, rows[:half]))
    reducer = _Reducer(QQ)
    for row in base.rows + tuple(rows[half:]):
        reducer.insert(row)
    assert_primitive_echelon(reducer, expected)
    assert same_subspace(extend(base, rows[half:]), expected)
    seeded = fraction_row_reduce(QQ, n, rows[half:], seed=base)
    assert same_subspace(seeded, expected)


def test_rows_that_cancel_to_zero_add_nothing():
    u = {0: Fraction(-1, 2), 2: Fraction(3, 4), 3: Fraction(5)}
    w = {1: Fraction(-2, 3), 2: Fraction(1, 6)}
    both = {c: -6 * u.get(c, 0) + Fraction(3, 2) * w.get(c, 0) for c in range(4)}
    minus_u = {c: -v for c, v in u.items()}
    rows = [u, w, {c: v for c, v in both.items() if v}, minus_u, {}]
    reducer = _Reducer(QQ)
    assert [reducer.insert(r) for r in rows] == [True, True, False, False, False]
    expected = fraction_row_reduce(QQ, 4, rows)
    assert expected.dim == 2
    assert_primitive_echelon(reducer, expected)
    assert same_subspace(row_reduce(QQ, 4, rows), expected)
    assert row_reduce(QQ, 4, [u, {c: -3 * v for c, v in u.items()}]).dim == 1
    empty = fraction_row_reduce(QQ, 4, [])
    assert same_subspace(row_reduce(QQ, 4, [{}, {}]), empty)


def random_scalar(rng, field):
    if field.characteristic:
        return rng.randint(1, field.characteristic - 1)
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6))


def combination(rng, field, rows, k):
    """A random combination of k of the rows, zero entries dropped."""
    out = {}
    for row in rng.sample(rows, min(k, len(rows))):
        a = random_scalar(rng, field)
        for c, v in row.items():
            out[c] = field.add(out.get(c, field.zero), field.mul(a, v))
    return {c: v for c, v in out.items() if v}


def probe_vectors(rng, space):
    """(vector, expected membership) pairs: the empty vector, vectors
    inside and outside the span, vectors on pivot columns only and on free
    columns only, and in-span combinations that cancel a column."""
    field, rows = space.field, list(space.rows)
    pivots = set(space.pivots)
    free = [c for c in range(space.ncols) if c not in pivots]
    probes = [({}, True)]
    for k in (1, 2, 3):
        inside = combination(rng, field, rows, k)
        probes.append((inside, True))
        f = rng.choice(free)
        outside = dict(inside)
        outside[f] = field.add(outside.get(f, field.zero), field.one)
        probes.append(({c: v for c, v in outside.items() if v}, False))
    pivot_only = {c: random_scalar(rng, field) for c in rng.sample(sorted(pivots), 2)}
    free_only = {c: random_scalar(rng, field) for c in rng.sample(free, 2)}
    probes += [(pivot_only, None), (free_only, False)]
    for u, w in itertools.combinations(rows, 2):
        shared = sorted((u.keys() & w.keys()) - pivots)
        if shared:
            c = shared[0]
            vec = {}
            for row, a in ((u, w[c]), (w, field.neg(u[c]))):
                for col, v in row.items():
                    vec[col] = field.add(vec.get(col, field.zero), field.mul(a, v))
            assert not vec[c]
            probes.append(({k: v for k, v in vec.items() if v}, True))
            break
    return probes


def random_rows(rng, field, n):
    if field.characteristic:
        p = field.characteristic
        return [
            {c: rng.randint(1, p - 1) for c in rng.sample(range(n), rng.randint(1, 4))}
            for _ in range(7)
        ]
    return random_rational_rows(rng, 7, n)


def random_space(rng, field, n):
    return row_reduce(field, n, random_rows(rng, field, n))


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
@pytest.mark.parametrize("seed", range(12))
def test_normal_form_map_matches_elimination(field, seed):
    rng = random.Random(seed)
    n = 12
    space = random_space(rng, field, n)
    assert 0 < space.dim < n
    for vec, member in probe_vectors(rng, space):
        expected = elimination_reduce(space, vec)
        assert space.reduce(vec) == expected
        assert space.contains(vec) is (not expected)
        if member is not None:
            assert space.contains(vec) is member


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
def test_columns_outside_the_space_are_refused(field):
    space = row_reduce(field, 3, [{0: field.one, 2: field.one}])
    for bad in (3, -1):
        vec = {0: field.one, bad: field.one}
        with pytest.raises(ValueError, match=rf"column {bad} outside 0\.\.2"):
            space.reduce(vec)
        with pytest.raises(ValueError, match=rf"column {bad} outside 0\.\.2"):
            space.contains(vec)


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
@pytest.mark.parametrize("seed", range(12))
def test_reducer_reduce_matches_elimination_and_changes_nothing(field, seed):
    rng = random.Random(seed)
    n = 12
    rows = random_rows(rng, field, n)
    space = fraction_row_reduce(field, n, rows)
    assert 0 < space.dim < n
    reducer = _Reducer(field)
    for row in rows:
        reducer.insert(row)
    held = copy.deepcopy((reducer.pivot_rows, reducer._colindex))
    for vec, member in probe_vectors(rng, space):
        expected = elimination_reduce(space, vec)
        got = reducer.reduce(vec)
        assert all(type(v) is int and v for v in got.values())
        if field.characteristic:
            assert got == expected
        else:
            # a nonzero int multiple of the normal form
            assert got.keys() == expected.keys()
            if got:
                c = min(got)
                ratio = Fraction(got[c]) / expected[c]
                assert got == {k: ratio * v for k, v in expected.items()}
        if member is not None:
            assert (not got) is member
    assert (reducer.pivot_rows, reducer._colindex) == held


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "p7"])
def test_reducer_rebuilds_a_released_index(field):
    rng = random.Random(3)
    rows = random_rows(rng, field, 12) + random_rows(rng, field, 12)
    expected = fraction_row_reduce(field, 12, rows)
    reducer = _Reducer(field)
    for row in rows[:7]:
        reducer.insert(row)
    reducer.release_index()
    for row in rows[7:]:
        reducer.insert(row)
    assert same_subspace(Subspace(field, 12, reducer), expected)
