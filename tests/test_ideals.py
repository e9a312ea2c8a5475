"""Ideal expansion: layer engine vs. a brute-force spanning-set oracle."""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import pytest

from dioperad import Context, catalog, ideals
from dioperad.cache import DiskCache
from dioperad.context import sha256
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    VarietyPresentation,
    consequences_at_degree,
    identity_implies,
    poly_to_vector,
    quotient_dimension,
    vector_to_poly,
)
from dioperad.linalg import row_reduce
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    apply_permutation,
    basis_layout,
    compose,
    enumerate_monomials,
    substitute_at,
)
from dioperad.young import dimensions

from oracles import same_subspace


def symmetric_orbit(p: Polynomial):
    """All relabelings of a multilinear polynomial."""
    for perm in itertools.permutations(range(1, p.degree + 1)):
        yield apply_permutation(perm, p)


BIN = Signature([("mul", 2)])
BRK = Signature([("b", 2)])


def poly(terms, field=QQ):
    return Polynomial(field, {Monomial(k): v for k, v in terms.items()})


ASSOC = VarietyPresentation(
    "assoc",
    BIN,
    [poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1})],
    ["assoc"],
)

LIE = VarietyPresentation(
    "lie",
    BRK,
    [
        poly({("b", 1, 2): 1, ("b", 2, 1): 1}),
        poly(
            {
                ("b", 1, ("b", 2, 3)): 1,
                ("b", ("b", 1, 2), 3): -1,
                ("b", 2, ("b", 1, 3)): -1,
            }
        ),
    ],
    ["antisymmetry", "jacobi"],
)

COM_ASSOC = VarietyPresentation(
    "com-assoc",
    BIN,
    [
        poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}),
        poly({("mul", ("mul", 1, 2), 3): 1, ("mul", 1, ("mul", 2, 3)): -1}),
    ],
    ["commutativity", "associativity"],
)


def naive_component(variety, n, field):
    """Literal spanning set: every S_n-translate of every one-occurrence
    composite w o_i (g o (u_1..u_m)) built from each identity g."""
    sig = variety.signature
    layout = basis_layout(sig, n)
    rows = []
    for g in variety.generators:
        g = g.convert(field)
        m = g.degree
        if m > n:
            continue
        # inner substitutions: all tuples of monomials with total degree t
        for t in range(m, n + 1):
            outer_deg = n - t + 1
            inner_options = []
            for degs in _compositions(t, m):
                pools = [enumerate_monomials(sig, d) for d in degs]
                for us in itertools.product(*pools):
                    inner_options.append(compose(g, list(us)))
            contexts = enumerate_monomials(sig, outer_deg)
            for inner in inner_options:
                for w in contexts:
                    for i in range(1, outer_deg + 1):
                        elem = substitute_at(w, i, inner)
                        for img in symmetric_orbit(elem):
                            rows.append(poly_to_vector(img, layout))
    return row_reduce(field, layout.ncols, rows)


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)])
@pytest.mark.parametrize(
    "variety,n",
    [(ASSOC, 2), (ASSOC, 3), (ASSOC, 4), (LIE, 2), (LIE, 3), (LIE, 4),
     (COM_ASSOC, 3), (COM_ASSOC, 4)],
)
def test_layer_engine_matches_naive_spanning_set(variety, n, field):
    fast = consequences_at_degree(variety, n, Context(field)).ideal
    slow = naive_component(variety, n, field)
    assert same_subspace(fast, slow)


def test_associative_quotient_dimensions_are_factorials():
    ctx = Context()
    for n in range(2, 6):
        assert quotient_dimension(ASSOC, n, ctx) == _factorial(n)


def test_lie_quotient_dimensions():
    ctx = Context()
    for n in range(2, 6):
        assert quotient_dimension(LIE, n, ctx) == _factorial(n - 1)


def test_commutative_associative_quotient_dimensions():
    ctx = Context()
    for n in range(2, 6):
        assert quotient_dimension(COM_ASSOC, n, ctx) == 1


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_ideal_component_is_symmetric_group_invariant():
    comp = consequences_at_degree(LIE, 4)
    for row in comp.ideal.rows[:10]:
        p = vector_to_poly(row, comp.layout, QQ)
        for img in symmetric_orbit(p):
            assert comp.contains(img)


def test_a_field_in_place_of_the_context_is_a_type_error():
    message = "^expected a Context or None as ctx, got Rationals$"
    with pytest.raises(TypeError, match=message):
        quotient_dimension(LIE, 4, QQ)


def test_degree_one_component_is_zero():
    comp = consequences_at_degree(ASSOC, 1)
    assert comp.ambient_dimension == 1
    assert comp.ideal.dim == 0
    assert comp.quotient_dimension == 1


def test_identity_implies_left_and_right_multiplication():
    # in associative algebras ((12)3) = (1(23)) propagates to degree 4
    p = poly(
        {
            ("mul", ("mul", ("mul", 1, 2), 3), 4): 1,
            ("mul", 1, ("mul", 2, ("mul", 3, 4))): -1,
        }
    )
    assert identity_implies(ASSOC, p)
    q = poly(
        {
            ("mul", ("mul", ("mul", 1, 2), 3), 4): 1,
            ("mul", 1, ("mul", 2, ("mul", 4, 3))): -1,
        }
    )
    assert not identity_implies(ASSOC, q)


def test_identity_implies_rejects_a_non_multilinear_identity():
    square = poly({("mul", 1, ("mul", 2, 2)): 1, ("mul", ("mul", 1, 2), 2): -1})
    with pytest.raises(ValueError, match=r"\(mul 1 \(mul 2 2\)\) is not multi"):
        identity_implies(ASSOC, square)


@pytest.mark.parametrize(
    "node, message",
    [
        (("bracket", 1, 2), "operation 'bracket' is not in the signature"),
        (("mul", 1, 2, 3), "operation 'mul' expects 2 arguments, got 3"),
    ],
)
def test_identity_implies_checks_the_signature(node, message):
    with pytest.raises(ValueError) as excinfo:
        identity_implies(catalog.presentation("assoc"), poly({node: 1}))
    assert str(excinfo.value) == message


def test_jacobi_consequence_with_rational_coefficients():
    # (1/2) scaling stays inside the ideal over the rationals
    comp = consequences_at_degree(LIE, 3)
    jac = LIE.generators[1]
    import fractions

    assert comp.contains(jac.scale(fractions.Fraction(1, 2)))


def test_prime_field_dimensions_match_rational_ones():
    fp, qq = Context(PrimeField(1000003)), Context()
    for n in range(2, 5):
        assert (
            consequences_at_degree(LIE, n, fp).quotient_dimension
            == consequences_at_degree(LIE, n, qq).quotient_dimension
        )


@pytest.mark.parametrize("name, quotient", [("lie", 120), ("assoc", 720)])
def test_rational_and_prime_dimensions_agree_at_degree_6(name, quotient):
    variety = catalog.presentation(name)
    over_q = ideals.ideal_dimensions(variety, 6, Context())
    over_p = ideals.ideal_dimensions(variety, 6, Context(PrimeField(1000003)))
    assert over_q == over_p
    assert over_q[0] - over_q[1] == quotient


def test_presentation_validation():
    with pytest.raises(ValueError):
        VarietyPresentation("bad", BIN, [poly({("mul", 1, 1): 1})])
    with pytest.raises(ValueError):
        VarietyPresentation("bad", BIN, [Polynomial(QQ, {}, degree=2)])
    with pytest.raises(ValueError):
        VarietyPresentation(
            "bad", BIN, [poly({("b", 1, 2): 1})]
        )


def test_presentation_digest_distinguishes_content():
    a = VarietyPresentation("x", BIN, [poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})])
    b = VarietyPresentation("x", BIN, [poly({("mul", 1, 2): 1, ("mul", 2, 1): 1})])
    assert a.digest != b.digest
    assert a == VarietyPresentation(
        "x", BIN, [poly({("mul", 1, 2): 1, ("mul", 2, 1): -1})]
    )


def test_sha256_is_hashlib_sha256():
    """The package's SHA-256 constructor gives hashlib's digests, whole and
    over incremental updates."""
    for data in (b"", b"abc", bytes(i * 7 % 256 for i in range(1000))):
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    ours, reference = sha256(), hashlib.sha256()
    for chunk in (b"a", b"", b"bc" * 100, bytes(1000)):
        ours.update(chunk)
        reference.update(chunk)
        assert ours.digest() == reference.digest()


def test_cache_paths_and_digests_are_pinned():
    """Cache entries, and the digests reports print, keep the values that
    earlier versions wrote, so an existing cache still reads back."""
    digest = "8254c329a92850f6d539dd376f4816ee2764517da5e0235514af433164480d7a"
    assert DiskCache("root")._path("k") == os.path.join(
        "root", digest[:2], digest + ".json"
    )
    assert catalog.presentation("assoc").digest == (
        "496249b94fa5d983712ad130b169cf611134199dbe244e7c83421773b4bbdc57"
    )
    assert catalog.morphism("lie-to-assoc").morphism.digest == (
        "1470af2fbbd319945b97a6cd042f9bc155e28ae6f0209f28cb5450fd7943346b"
    )


def _corrupted_ranks(stored, n, skeletons, case):
    """A copy of a stored rank entry with one defect it could carry.  Apart
    from the defect named, the dimension stays the weighted sum Σ d_λ·r_λ
    of the ranks, so only the clause under test can reject the entry."""
    if case == "no entry":
        return None
    if case == "not a mapping":
        return list(stored["ranks"])
    value = {"ranks": list(stored["ranks"]), "dim": stored["dim"]}
    ranks, first = value["ranks"], dimensions(n)[0]
    if case == "no ranks":
        del value["ranks"]
    elif case == "no dim":
        del value["dim"]
    elif case == "ranks not a list":
        value["ranks"] = tuple(ranks)
    elif case == "one rank too few":
        value["dim"] -= dimensions(n)[-1] * ranks.pop()
    elif case == "one rank too many":
        ranks.append(0)
    elif case == "rank not an int":
        ranks[0] = float(ranks[0])
    elif case == "dim not an int":
        value["dim"] = float(value["dim"])
    elif case == "negative rank":
        value["dim"] -= first * (ranks[0] + 1)
        ranks[0] = -1
    elif case == "rank above s·d":
        value["dim"] += first * (skeletons * first + 1 - ranks[0])
        ranks[0] = skeletons * first + 1
    elif case == "dim not the weighted sum":
        value["dim"] += 1
    return value


@pytest.mark.parametrize(
    "source",
    [("lie", 4, QQ), ("assoc", 5, PrimeField(1000003))],
    ids=["lie-d4-q", "assoc-d5-p"],
)
@pytest.mark.parametrize(
    "case",
    [
        "no entry",
        "not a mapping",
        "no ranks",
        "no dim",
        "ranks not a list",
        "one rank too few",
        "one rank too many",
        "rank not an int",
        "dim not an int",
        "negative rank",
        "rank above s·d",
        "dim not the weighted sum",
    ],
)
def test_decode_ranks_rejects_each_malformed_entry(tmp_path, source, case):
    name, n, field = source
    variety = catalog.presentation(name)
    ctx = Context(field, cache=DiskCache(tmp_path))
    ranks = ideals.partition_ranks(variety, n, ctx)
    stored = ctx.cache.get(ideals._ranks_key(variety.digest, field, n))
    skeletons = len(basis_layout(variety.signature, n, ctx).skeletons)
    # the entry the run wrote reads back as the ranks it computed
    assert ideals._decode_ranks(stored, n, skeletons) == ranks
    bad = _corrupted_ranks(stored, n, skeletons, case)
    assert ideals._decode_ranks(bad, n, skeletons) is None


def test_partition_ranks_writes_its_entry_after_a_memo_hit(tmp_path):
    """``partition_ranks`` writes the entry of its degree, and no other,
    whether or not the context's memo already holds the module."""
    lie = catalog.presentation("lie")
    entries = []
    for name in ("fresh", "memoised"):
        ctx = Context(QQ, cache=DiskCache(tmp_path / name))
        if name == "memoised":
            ideals.degree_component(lie, 4, ctx)
        ideals.partition_ranks(lie, 4, ctx)
        files = sorted((tmp_path / name).rglob("*.json"))
        entries.append([f.read_text(encoding="utf-8") for f in files])
    assert entries[1] == entries[0]
    assert [json.loads(e)["key"] for e in entries[0]] == [
        ideals._ranks_key(lie.digest, QQ, 4)
    ]
