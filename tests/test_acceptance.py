"""Acceptance gate: the headline checks, one printed verdict line each.

Every check runs over both the default prime field and the rationals and
must agree.  Long stretch targets are marked and enabled by setting
DIOPERAD_STRETCH=1.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time

import conftest
import pytest

from dioperad import Context, catalog
from dioperad.cli import main
from dioperad.dialgebra import (
    bso_presentation,
    superscript,
    verify_dialgebra_equivalence,
    zero_identities,
)
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    VarietyPresentation,
    identity_implies,
    quotient_dimension,
)
from dioperad.morphisms import (
    CharacteristicGuardError,
    di_special_identities,
    evaluate_morphism,
    special_identities,
    verify_bso_theorem,
)
from dioperad.terms import (
    Monomial,
    Polynomial,
    Signature,
    apply_permutation,
    compose,
    double_signature,
    enumerate_monomials,
    substitute_at,
)
from oracles import from_doubled, unsuperscript

FP = PrimeField(1000003)
FIELDS = (FP, QQ)

stretch = pytest.mark.stretch
needs_stretch = pytest.mark.skipif(
    os.environ.get("DIOPERAD_STRETCH") != "1",
    reason="stretch target; set DIOPERAD_STRETCH=1",
)

ASSOC = catalog.presentation("assoc")
PERM = catalog.presentation("perm")
LIE = catalog.presentation("lie")
JORDAN = catalog.presentation("jordan")
JTS = catalog.presentation("jts")
FREE = catalog.presentation("free-binary")

MAIN_THEOREM_CASES = (
    ("lie-to-assoc", 3),
    ("lie-to-assoc", 4),
    ("jordan-to-assoc", 3),
    ("jordan-to-assoc", 4),
    ("jts-to-assoc", 3),
    ("free-to-com-assoc", 2),
    ("free-to-com-assoc", 3),
)


def poly(terms, field=QQ):
    return Polynomial(field, {Monomial(k): v for k, v in terms.items()})


def announce(num, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    conftest.record_verdict(line)
    assert ok, line


def test_criterion_1_dimension_ladder():
    start = time.monotonic()
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for n in range(2, 6):
            ok &= quotient_dimension(ASSOC, n, ctx) == math.factorial(n)
            ok &= quotient_dimension(LIE, n, ctx) == math.factorial(n - 1)
        for n in range(2, 5):
            ok &= quotient_dimension(PERM, n, ctx) == n
    elapsed = time.monotonic() - start
    ok &= elapsed < 120
    announce(
        1,
        ok,
        f"assoc n! (n=2..5), perm n (n=2..4), lie (n-1)! (n=2..5) "
        f"over {FP.name} and q in {elapsed:.1f}s",
    )


def _diassociative_axioms():
    left = "mul^1"
    right = "mul^2"
    return [
        poly({(left, (left, 1, 2), 3): 1, (left, 1, (left, 2, 3)): -1}),
        poly({(left, 1, (left, 2, 3)): 1, (left, 1, (right, 2, 3)): -1}),
        poly({(left, (right, 1, 2), 3): 1, (right, 1, (left, 2, 3)): -1}),
        poly({(right, (left, 1, 2), 3): 1, (right, (right, 1, 2), 3): -1}),
        poly({(right, (right, 1, 2), 3): 1, (right, 1, (right, 2, 3)): -1}),
    ]


@stretch
@needs_stretch
def test_criterion_1_stretch_lie_degree_seven(capsys):
    start = time.monotonic()
    code = main(["dim", "--variety", "builtin:lie", "--degree", "7",
                 "--max-degree", "7", "--field", "p:1000003", "--json",
                 "--no-cache"])
    elapsed = time.monotonic() - start
    dims = json.loads(capsys.readouterr().out)["dims"]
    ok = code == 0 and dims["quotient"] == math.factorial(6) and elapsed < 15
    announce(
        "1 (stretch)",
        ok,
        f"lie degree 7 has quotient {dims['quotient']} = 6! over p:1000003, "
        f"counted over association types in {elapsed:.1f}s",
    )


def test_criterion_2_bso_of_associativity_is_diassociative():
    divar = bso_presentation(ASSOC)
    axioms = _diassociative_axioms()
    five = VarietyPresentation(
        "diassociative",
        double_signature(ASSOC.signature),
        axioms,
        [f"axiom{i}" for i in range(1, 6)],
    )
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for ax in axioms:
            ok &= identity_implies(divar, ax, ctx)
        for g in divar.generators:
            ok &= identity_implies(five, g, ctx)
    announce(
        2,
        ok,
        "the five dialgebra axioms and the doubled presentation imply "
        "each other over both fields",
    )


def test_criterion_3_bso_of_lie_is_leibniz():
    dilie = bso_presentation(LIE)
    b2 = "bracket^2"
    left_leibniz = poly(
        {
            (b2, 1, (b2, 2, 3)): 1,
            (b2, (b2, 1, 2), 3): -1,
            (b2, 2, (b2, 1, 3)): -1,
        }
    )
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for n in (2, 3, 4):
            ok &= (
                quotient_dimension(dilie, n, ctx)
                == n * math.factorial(n - 1)
            )
        ok &= identity_implies(dilie, left_leibniz, ctx)
    announce(
        3,
        ok,
        "doubled lie has dimensions n*(n-1)! for n=2..4 and implies the "
        "left Leibniz identity over both fields",
    )


@stretch
@needs_stretch
def test_criterion_3_stretch_leibniz_degree_five():
    dilie = bso_presentation(LIE)
    start = time.monotonic()
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        ok &= quotient_dimension(dilie, 5, ctx) == 120
    elapsed = time.monotonic() - start
    ok &= elapsed < 600
    announce(
        "3 (stretch)",
        ok,
        f"doubled lie degree 5 has dimension 120 over both fields "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_equivalence_theorem():
    cases = [(ASSOC, 3), (ASSOC, 4), (LIE, 3), (LIE, 4), (JORDAN, 3), (JORDAN, 4), (JTS, 3)]
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for variety, n in cases:
            rep = verify_dialgebra_equivalence(variety, n, ctx)
            ok &= rep.equal
            ok &= rep.quotient_dimension == rep.expected_quotient_dimension
    start = time.monotonic()
    big = [
        verify_dialgebra_equivalence(JTS, 5, Context(field)) for field in FIELDS
    ]
    elapsed = time.monotonic() - start
    ok &= all(rep.equal and rep.ambient_dimension == 3240 for rep in big)
    ok &= elapsed < 300
    announce(
        4,
        ok,
        f"doubled presentations match the block ideal for assoc, lie, "
        f"jordan (degrees 3,4) and jts (3,5; 3240 columns in {elapsed:.1f}s) "
        f"over both fields",
    )


@stretch
@needs_stretch
def test_criterion_4_stretch_doubled_degree_seven(capsys):
    """verify-di at degree 7, where the doubled presentations count over
    their collapsed types: 42,577,920 doubled columns for assoc, 1,632,960
    for jts."""
    for name, ambient, quotient in (
        ("assoc", 42577920, 35280), ("jts", 1632960, 13965),
    ):
        start = time.monotonic()
        code = main(["verify-di", "--variety", f"builtin:{name}",
                     "--degree", "7", "--max-degree", "7",
                     "--field", "p:1000003", "--json", "--no-cache"])
        elapsed = time.monotonic() - start
        report = json.loads(capsys.readouterr().out)
        ok = code == 0 and report["verdict"] is True and report["dims"] == {
            "ambient": ambient,
            "ideal": ambient - quotient,
            "quotient": quotient,
        }
        announce(
            "4 (stretch)",
            ok,
            f"doubled {name} matches the block ideal at degree 7 over "
            f"p:1000003 (quotient {report['dims']['quotient']} of "
            f"{report['dims']['ambient']} columns) in {elapsed:.1f}s",
        )


def test_criterion_5_speciality_baselines():
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for name, source in (("lie-to-assoc", LIE), ("jordan-to-assoc", JORDAN)):
            mor = catalog.morphism(name).morphism
            for d in range(2, 6):
                ok &= (
                    special_identities(mor, source, d, ctx).special_dimension
                    == 0
                )
        entry = catalog.morphism("free-to-com-assoc")
        rep = special_identities(entry.morphism, FREE, 2, ctx)
        comm = poly({("mul", 1, 2): 1, ("mul", 2, 1): -1}).convert(field)
        ok &= rep.basis == (comm,)
    announce(
        5,
        ok,
        "no special identities for lie-to-assoc or jordan-to-assoc through "
        "degree 5; commutativity is the lone degree-2 special identity of "
        "free-to-com-assoc (Glennie's degree 8 is stretch check 5)",
    )


@stretch
@needs_stretch
def test_criterion_5_stretch_glennie_degree_eight(capsys):
    for tag in ("p:1000003", "q"):
        start = time.monotonic()
        code = main(["special", "--morphism", "builtin:jordan-to-assoc",
                     "--degree", "8", "--max-degree", "8", "--field", tag,
                     "--json", "--no-cache"])
        elapsed = time.monotonic() - start
        report = json.loads(capsys.readouterr().out)
        ok = code == 0 and report["special"] == 42
        announce(
            "5 (stretch)",
            ok,
            f"jordan-to-assoc has {report['special']} special dimensions at "
            f"degree 8 over {tag}, Glennie's identities, in {elapsed:.1f}s",
        )


def test_criterion_6_main_theorem():
    ok = True
    slow = []
    for field in FIELDS:
        ctx = Context(field)
        for name, d in MAIN_THEOREM_CASES:
            entry = catalog.morphism(name)
            start = time.monotonic()
            rep = verify_bso_theorem(entry.morphism, entry.source, d, ctx)
            elapsed = time.monotonic() - start
            ok &= rep.verdict
            if d == 4:
                slow.append(elapsed)
                ok &= elapsed < 120
    announce(
        6,
        ok,
        f"doubled kernels equal the lifted-kernel consequences in all "
        f"{len(MAIN_THEOREM_CASES)} cases over both fields (960-column "
        f"degree-4 runs at most {max(slow):.1f}s)",
    )


@stretch
@needs_stretch
def test_criterion_6_stretch_jts_degree_five():
    entry = catalog.morphism("jts-to-assoc")
    start = time.monotonic()
    ok = all(
        verify_bso_theorem(entry.morphism, entry.source, 5, Context(field)).verdict
        for field in FIELDS
    )
    elapsed = time.monotonic() - start
    announce(
        "6 (stretch)",
        ok,
        f"jts-to-assoc doubled kernel matches through degree 5 over both "
        f"fields in {elapsed:.1f}s",
    )


def test_criterion_7_lift_match():
    ok = True
    for field in FIELDS:
        ctx = Context(field)
        for name, d in MAIN_THEOREM_CASES:
            entry = catalog.morphism(name)
            base = special_identities(entry.morphism, entry.source, d, ctx)
            rep = di_special_identities(entry.morphism, entry.source, d, ctx)
            ok &= rep.matches_lifted
            ok &= rep.special_dimension == d * base.special_dimension
    announce(
        7,
        ok,
        "every emphasized special-identity space is spanned by lifts and "
        "has d times the plain dimension, over both fields",
    )


def _random_binary_node(rng, labels):
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (
        "mul",
        _random_binary_node(rng, labels[:cut]),
        _random_binary_node(rng, labels[cut:]),
    )


def _collapse_lift_identity() -> bool:
    ok = True
    binary = Signature([("mul", 2)])
    ternary = Signature([("t", 3)])
    for sig, degrees in ((binary, (2, 3, 4, 5)), (ternary, (3, 5))):
        for n in degrees:
            for m in enumerate_monomials(sig, n):
                for k in range(1, n + 1):
                    ok &= unsuperscript(superscript(m, k)) == (m, k)
    rng = random.Random(20240814)
    for n in (6, 7):
        for _ in range(40):
            labels = list(rng.sample(range(1, n + 1), n))
            m = Monomial(_random_binary_node(rng, labels))
            k = rng.choice(labels)
            ok &= unsuperscript(superscript(m, k)) == (m, k)
    return ok


def _equivariance_and_annihilation() -> bool:
    ok = True
    mixed = Signature([("mul", 2), ("t", 3)])
    dmixed = double_signature(mixed)
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        for m in enumerate_monomials(dmixed, n):
            plain, leaf = unsuperscript(m)
            for perm in perms:
                moved_plain, moved_leaf = unsuperscript(apply_permutation(perm, m))
                ok &= moved_plain == apply_permutation(perm, plain)
                ok &= moved_leaf == perm[leaf - 1]
    for sig in (Signature([("mul", 2)]), mixed):
        for p in zero_identities(sig)[1]:
            if p.degree <= 4:
                ok &= from_doubled(p).is_zero
    return ok


def _composition_laws() -> bool:
    ok = True
    binary = Signature([("mul", 2)])
    ternary = Signature([("t", 3)])
    two = enumerate_monomials(binary, 2)
    # nested and disjoint substitutions into a binary root, total degree 4
    for w, u, v in itertools.product(two, repeat=3):
        for i in (1, 2):
            for j in (1, 2):
                lhs = substitute_at(substitute_at(w, i, u), i + j - 1, v)
                rhs = substitute_at(w, i, substitute_at(u, j, v))
                ok &= lhs == rhs
        lhs = substitute_at(substitute_at(w, 2, v), 1, u)
        rhs = substitute_at(substitute_at(w, 1, u), 1 + u.degree, v)
        ok &= lhs == rhs
    # simultaneous grafting agrees with one-at-a-time substitution
    for w in two:
        for u, v in itertools.product(two, repeat=2):
            gathered = compose(w, [u, v])
            stepwise = substitute_at(substitute_at(w, 2, v), 1, u)
            ok &= gathered == stepwise
    for w in enumerate_monomials(ternary, 3):
        for u in two:
            for i in (1, 2, 3):
                gathered = compose(
                    w,
                    [
                        u if j == i else Monomial(1)
                        for j in (1, 2, 3)
                    ],
                )
                ok &= gathered == substitute_at(w, i, u)
    # a morphism commutes with substitution, total degree up to 4
    lie_to_assoc = catalog.morphism("lie-to-assoc").morphism
    brk = lie_to_assoc.source_signature
    for m_deg, u_deg in ((2, 2), (2, 3), (3, 2)):
        for w in enumerate_monomials(brk, m_deg):
            for u in enumerate_monomials(brk, u_deg):
                for i in range(1, m_deg + 1):
                    lhs = evaluate_morphism(lie_to_assoc, substitute_at(w, i, u))
                    rhs = substitute_at(
                        evaluate_morphism(lie_to_assoc, w),
                        i,
                        evaluate_morphism(lie_to_assoc, u),
                    )
                    ok &= lhs == rhs
    return ok


def test_criterion_8_property_suites():
    ok = _collapse_lift_identity()
    ok &= _equivariance_and_annihilation()
    ok &= _composition_laws()
    announce(
        8,
        ok,
        "collapse-lift identity through degree 5 (random 6-7), "
        "equivariance and zero-identity annihilation through degree 4, "
        "composition and morphism laws through degree 4",
    )


def test_criterion_9_characteristic_guard():
    ok = True
    entry = catalog.morphism("lie-to-assoc")
    for p, d in ((3, 3), (5, 5), (5, 6)):
        try:
            verify_bso_theorem(
                entry.morphism, entry.source, d, Context(PrimeField(p))
            )
            ok = False
        except CharacteristicGuardError:
            pass
    for p in (5, 7):
        ctx, qq = Context(PrimeField(p)), Context(QQ)
        for name, d in MAIN_THEOREM_CASES:
            if d >= p:
                continue
            entry = catalog.morphism(name)
            a = verify_bso_theorem(entry.morphism, entry.source, d, ctx)
            b = verify_bso_theorem(entry.morphism, entry.source, d, qq)
            ok &= a.verdict and b.verdict
            ok &= [
                (c.kernel_dimension, c.consequence_dimension)
                for c in a.comparisons
            ] == [
                (c.kernel_dimension, c.consequence_dimension)
                for c in b.comparisons
            ]
    announce(
        9,
        ok,
        "degrees at or above the characteristic are rejected; p=5 and p=7 "
        "agree with the rationals below the bound",
    )
