"""Command-line interface: dispatch, reports, exit codes, caching."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from dioperad import sexpr
from dioperad.cli import main
from dioperad.sexpr import parse_document


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_catalog_lists_builtins(capsys):
    code, report = run_json(capsys, "catalog")
    assert code == 0
    assert "assoc" in report["presentations"]
    assert "jts" in report["presentations"]
    assert "lie-to-assoc" in report["morphisms"]
    assert report["verdict"] is None


def test_dim_report(capsys):
    code, report = run_json(
        capsys, "dim", "--variety", "builtin:assoc", "--degree", "4"
    )
    assert code == 0
    assert report["field"] == "p:1000003"
    assert report["dims"] == {"ambient": 120, "ideal": 96, "quotient": 24}


def test_basis_lists_monomials(capsys):
    code, report = run_json(
        capsys, "basis", "--variety", "builtin:assoc", "--degree", "2"
    )
    assert code == 0
    assert report["basis"] == ["(mul 1 2)", "(mul 2 1)"]
    assert report["dims"]["ambient"] == 2


def test_implies_exit_codes(capsys):
    code, _ = run(
        capsys,
        "implies",
        "--variety",
        "builtin:com-assoc",
        "--identity",
        "(- (mul 1 2) (mul 2 1))",
    )
    assert code == 0
    code, _ = run(
        capsys,
        "implies",
        "--variety",
        "builtin:assoc",
        "--identity",
        "(- (mul 1 2) (mul 2 1))",
    )
    assert code == 1


def test_implies_accepts_dialgebra_aliases(capsys):
    code, report = run_json(
        capsys,
        "implies",
        "--variety",
        "di:builtin:assoc",
        "--identity",
        "(- (vdash (dashv 1 2) 3) (vdash 1 (vdash 2 3)))",
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["degree"] == 3


def test_parse_error_exits_2(capsys):
    code = main(
        ["implies", "--variety", "builtin:assoc", "--identity", "(mul 1)"]
    )
    assert code == 2


def test_unknown_builtin_exits_2(capsys):
    assert main(["dim", "--variety", "builtin:nope", "--degree", "3"]) == 2


def test_degree_cap_exits_3(capsys):
    assert main(["basis", "--variety", "builtin:assoc", "--degree", "9"]) == 3


@pytest.mark.parametrize("field", ["q", "p:1000003", "p:5"])
def test_dim_over_the_cap_exits_3_on_either_path(capsys, field):
    argv = ["dim", "--variety", "builtin:lie", "--degree", "7", "--field", field]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: degree 7 exceeds the enumeration cap 6\n"
    )


def test_degree_cap_below_1_exits_2(capsys):
    argv = ["dim", "--variety", "builtin:lie", "--degree", "3", "--max-degree"]
    for cap in ("-1", "0"):
        assert main([*argv, cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: degree cap must be at least 1, got {cap}\n"


def test_verify_bso_over_the_cap_exits_3_at_once(capsys):
    code = main(["verify-di", "--variety", "builtin:lie", "--degree", "7"])
    expected = capsys.readouterr().err
    assert code == 3
    code = main(["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "7"])
    assert code == 3
    assert capsys.readouterr().err == expected == (
        "error: degree 7 exceeds the enumeration cap 6\n"
    )


def test_linearize_over_the_cap_exits_3_before_expanding(
    capsys, tmp_path, monkeypatch
):
    # one variable ten times over: expanding it runs through 10! assignments
    body = "1"
    for _ in range(9):
        body = f"(mul 1 {body})"
    identity = f"(linearize {body})"
    source = tmp_path / "power.sexp"
    source.write_text(
        f"(presentation power (signature (op mul 2)) (identity p {identity}))",
        encoding="utf-8",
    )

    def expand(poly):
        raise AssertionError(f"linearize reached at degree {poly.degree}")

    assert run(capsys, "catalog")[0] == 0  # parse it before the patch
    monkeypatch.setattr(sexpr, "linearize", expand)
    start = time.monotonic()
    implies = ["implies", "--variety", "builtin:assoc", "--identity", identity]
    for argv, cap in (
        (implies, "6"),
        (implies, "9"),
        (["dim", "--variety", str(source), "--degree", "2"], "6"),
        (["dim", "--variety", f"di:{source}", "--degree", "2"], "9"),
    ):
        assert main([*argv, "--max-degree", cap]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degree 10 exceeds the enumeration cap {cap}\n"
        )
    assert time.monotonic() - start < 2


def test_linearize_at_the_cap_expands(capsys, tmp_path):
    source = tmp_path / "jordan.sexp"
    source.write_text(SCALED_DOCUMENTS[0], encoding="utf-8")
    argv = ["dim", "--variety", f"{source}:jordan-like", "--degree", "3"]
    code, report = run_json(capsys, *argv, "--max-degree", "4")
    assert (code, report["dims"]["quotient"]) == (0, 3)
    assert main([*argv, "--max-degree", "3"]) == 3
    assert capsys.readouterr().err == (
        "error: degree 4 exceeds the enumeration cap 3\n"
    )


def test_verify_bso_below_degree_2_exits_2(capsys):
    for degree in ("1", "0"):
        argv = ["verify-bso", "--morphism", "builtin:lie-to-assoc"]
        assert main([*argv, "--degree", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: degree must be at least 2, got {degree}\n"


@pytest.mark.parametrize("command", ["special", "special-di", "verify-bso"])
def test_identities_above_the_degree_need_no_cap(capsys, command):
    # the degree-4 Jordan identity generates nothing in degree 3
    argv = [command, "--morphism", "builtin:jordan-to-assoc", "--degree", "3"]
    capped = run(capsys, *argv, "--max-degree", "3", "--json")
    assert capped == run(capsys, *argv, "--json")
    assert capped[0] == 0


def test_verify_bso_refuses_a_source_identity_that_does_not_vanish(
    capsys, tmp_path
):
    source = tmp_path / "bad.sexp"
    source.write_text(
        "(morphism lie-to-assoc-anticommutator (source lie) (target assoc)"
        " (image bracket (+ (mul 1 2) (mul 2 1))))\n",
        encoding="utf-8",
    )
    messages = []
    for command in ("special", "verify-bso"):
        code = main([command, "--morphism", str(source), "--degree", "3"])
        assert code == 2
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1] == (
        "error: identity 'antisymmetry' of 'lie' does not vanish under "
        "'lie-to-assoc-anticommutator'\n"
    )


def test_denominator_vanishing_mod_p_exits_2(capsys, tmp_path):
    source = tmp_path / "third.sexp"
    source.write_text(
        "(presentation third (signature (op mul 2))"
        " (identity third (- (* 1/3 (mul 1 2)) (mul 2 1))))\n",
        encoding="utf-8",
    )
    message = "error: denominator of 1/3 vanishes modulo 3\n"
    # degree 2 takes the partition path, degree 3 the row path
    for degree in ("2", "3"):
        code = main(
            ["dim", "--variety", str(source), "--degree", degree, "--field", "p:3"]
        )
        assert (code, capsys.readouterr().err) == (2, message)
    code = main(
        [
            "implies",
            "--variety",
            "builtin:assoc",
            "--identity",
            "(* 1/3 (- (mul (mul 1 2) 3) (mul 1 (mul 2 3))))",
            "--field",
            "p:3",
        ]
    )
    assert (code, capsys.readouterr().err) == (2, message)


ASSOCIATOR_123 = "(- (mul (mul 1 2) 3) (mul 1 (mul 2 3)))"
ASSOCIATOR_213 = "(- (mul (mul 2 1) 3) (mul 2 (mul 1 3)))"
# identities and morphism images with fractional coefficients, then the same
# ones, each scaled by a constant to integer coefficients
SCALED_DOCUMENTS = [
    f"""
(presentation jordan-like (signature (op mul 2))
  (identity commutativity (- (* 1/2 (mul 1 2)) (* 1/2 (mul 2 1))))
  (identity jordan
    (linearize
      (* -3/4 (- (mul (mul (mul 1 1) 2) 1) (mul (mul 1 1) (mul 2 1)))))))
(presentation skew (signature (op mul 2))
  (identity skew-associator
    (+ (* 1/2 {ASSOCIATOR_123}) (* -1/3 {ASSOCIATOR_213}))))
(morphism skew-to-assoc (source skew) (target assoc) (image mul (mul 1 2)))
(presentation anti (signature (op bracket 2))
  (identity antisymmetry (+ (* 1/2 (bracket 1 2)) (* 1/2 (bracket 2 1)))))
(morphism anti-to-assoc (source anti) (target assoc)
  (image bracket (* -3/4 (- (mul 1 2) (mul 2 1)))))
""",
    f"""
(presentation jordan-like (signature (op mul 2))
  (identity commutativity (- (mul 1 2) (mul 2 1)))
  (identity jordan
    (linearize (* 3 (- (mul (mul (mul 1 1) 2) 1) (mul (mul 1 1) (mul 2 1)))))))
(presentation skew (signature (op mul 2))
  (identity skew-associator
    (+ (* 3 {ASSOCIATOR_123}) (* -2 {ASSOCIATOR_213}))))
(morphism skew-to-assoc (source skew) (target assoc) (image mul (mul 1 2)))
(presentation anti (signature (op bracket 2))
  (identity antisymmetry (+ (bracket 1 2) (bracket 2 1))))
(morphism anti-to-assoc (source anti) (target assoc)
  (image bracket (- (mul 1 2) (mul 2 1))))
""",
]


def test_fractional_coefficients_answer_as_their_integer_multiples(
    capsys, tmp_path
):
    paths = []
    for k, text in enumerate(SCALED_DOCUMENTS):
        paths.append(tmp_path / f"scaled{k}.sexp")
        paths[-1].write_text(text, encoding="utf-8")
    queries = [
        ("dim", "--variety", "jordan-like", "--degree", str(d))
        for d in (2, 3, 4, 5)
    ] + [
        ("dim", "--variety", "skew", "--degree", "4"),
        ("implies", "--variety", "skew", "--identity", ASSOCIATOR_123),
        ("verify-di", "--variety", "skew", "--degree", "3"),
    ] + [
        ("special", "--morphism", name, "--degree", d, "--basis")
        for name in ("skew-to-assoc", "anti-to-assoc")
        for d in ("3", "4")
    ]
    reports = []
    for command, flag, name, *rest in queries:
        by_file = []
        for field in ("q", "p:1000003"):
            for path in paths:
                argv = [command, flag, f"{path}:{name}", *rest, "--field", field]
                code, report = run_json(capsys, *argv)
                del report["inputs_digest"], report["field"]
                by_file.append((code, report))
        q_frac, q_int, p_frac, p_int = by_file
        assert q_frac == q_int
        assert p_frac == p_int
        # a basis prints its coefficients in the field's own form
        q_frac[1].pop("basis", None)
        p_frac[1].pop("basis", None)
        assert q_frac == p_frac
        reports.append(q_frac)
    assert [r["dims"]["quotient"] for _, r in reports[:5]] == [1, 3, 11, 55, 24]
    assert [(code, r["verdict"]) for code, r in reports[5:7]] == [(0, True)] * 2
    assert [r["special"] for _, r in reports[7:]] == [0, 0, 1, 9]


def test_characteristic_guard_exits_2(capsys):
    code = main(
        [
            "verify-bso",
            "--morphism",
            "builtin:lie-to-assoc",
            "--degree",
            "5",
            "--field",
            "p:5",
        ]
    )
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["dim", "--variety", "builtin:assoc"]) == 2


def nested_brackets(depth):
    expr = str(depth + 1)
    for i in range(depth, 0, -1):
        expr = f"(bracket {i} {expr})"
    return expr


def test_deeply_nested_identity_exits_2(capsys):
    argv = ["implies", "--variety", "builtin:lie",
            "--identity", nested_brackets(500)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 1, column 1193: forms nested deeper than 100\n"
    )


def test_deeply_nested_presentation_file_exits_2(capsys, tmp_path):
    source = tmp_path / "deep.sexp"
    source.write_text(
        "(presentation deep (signature (op bracket 2))\n"
        f" (identity d {nested_brackets(500)}))\n",
        encoding="utf-8",
    )
    assert main(["dim", "--variety", str(source), "--degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 2, column 1181: forms nested deeper than 100\n"
    )


def test_dialgebrize_output_reparses(capsys):
    code, out = run(capsys, "dialgebrize", "--variety", "builtin:lie")
    assert code == 0
    text = out.split("\n\n", 1)[1]
    doc = parse_document(text)
    divar = doc.presentations["di-lie"]
    assert len(divar.generators) == 7
    assert divar.signature.names == ("bracket^1", "bracket^2")


def test_dialgebrize_verify_degree_verdict(capsys):
    code, report = run_json(
        capsys,
        "dialgebrize",
        "--variety",
        "builtin:lie",
        "--verify-degree",
        "3",
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["dims"]["quotient"] == 6
    assert report["expected_quotient"] == 6


def test_verify_di_report(capsys):
    code, report = run_json(
        capsys, "verify-di", "--variety", "builtin:assoc", "--degree", "3"
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["dims"] == {"ambient": 48, "ideal": 30, "quotient": 18}


def test_verify_di_exits_1_without_a_zero_identity(capsys, monkeypatch):
    from dioperad import dialgebra
    from dioperad.ideals import VarietyPresentation

    full = dialgebra.bso_presentation

    def drop_first_zero_identity(variety):
        p = full(variety)
        return VarietyPresentation(
            p.name, p.signature, p.generators[1:], p.generator_names[1:]
        )

    monkeypatch.setattr(dialgebra, "bso_presentation", drop_first_zero_identity)
    args = ["verify-di", "--variety", "builtin:assoc", "--degree", "4"]
    code, report = run_json(capsys, *args)
    assert code == 1
    assert report["verdict"] is False
    assert report["dims"]["quotient"] != report["expected_quotient"]
    code, report = run_json(capsys, *args, "--field", "q")
    assert code == 1
    assert report["verdict"] is False


def test_verify_di_exits_1_with_a_misplaced_zero_identity(capsys, monkeypatch):
    from dioperad import dialgebra
    from dioperad.ideals import VarietyPresentation
    from dioperad.terms import Monomial, substitute_at

    full = dialgebra.bso_presentation

    def misplace_first_zero_identity(variety):
        # equate the inner superscripts at the slot the outer one points to
        p = full(variety)
        outer = Monomial(("mul^1", 1, 2))
        wrong = substitute_at(outer, 1, Monomial(("mul^1", 1, 2))) - substitute_at(
            outer, 1, Monomial(("mul^2", 1, 2))
        )
        return VarietyPresentation(
            p.name, p.signature, (wrong,) + p.generators[1:], p.generator_names
        )

    monkeypatch.setattr(dialgebra, "bso_presentation", misplace_first_zero_identity)
    args = ["verify-di", "--variety", "builtin:assoc", "--degree", "4"]
    for field in ("p:1000003", "q"):
        code, report = run_json(capsys, *args, "--field", field)
        assert code == 1
        assert report["verdict"] is False
        # the dimension matches, so only containment fails
        assert report["dims"]["quotient"] == report["expected_quotient"]


def test_special_reports_empty_kernel_quotient(capsys):
    code, report = run_json(
        capsys,
        "special",
        "--morphism",
        "builtin:lie-to-assoc",
        "--degree",
        "3",
    )
    assert code == 0
    assert report["special"] == 0
    assert report["kernel"] == 10
    assert report["dims"]["ambient"] == 12


def test_special_basis_listing(capsys):
    code, report = run_json(
        capsys,
        "special",
        "--morphism",
        "builtin:free-to-com-assoc",
        "--degree",
        "2",
        "--basis",
        "--field",
        "q",
    )
    assert code == 0
    assert report["basis"] == ["(+ (mul 1 2) (- (mul 2 1)))"]


def test_special_di_lift_match(capsys):
    code, report = run_json(
        capsys,
        "special-di",
        "--morphism",
        "builtin:free-to-com-assoc",
        "--degree",
        "2",
        "--basis",
        "--field",
        "q",
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["special"] == 2
    assert report["basis"] == [
        "(di (e1 (+ (mul 1 2) (- (mul 2 1)))))",
        "(di (e2 (+ (mul 1 2) (- (mul 2 1)))))",
    ]


def test_verify_bso_comparisons(capsys):
    code, report = run_json(
        capsys,
        "verify-bso",
        "--morphism",
        "builtin:free-to-com-assoc",
        "--degree",
        "2",
        "--field",
        "q",
    )
    assert code == 0
    assert report["verdict"] is True
    assert report["comparisons"] == [
        {
            "degree": 2,
            "ambient": 4,
            "kernel": 2,
            "consequences": 2,
            "equal": True,
        }
    ]


def test_reports_byte_identical_and_cache_transparent(capsys):
    for argv in (
        ["dim", "--variety", "builtin:lie", "--degree", "4", "--field", "q"],
        ["dim", "--variety", "builtin:jordan", "--degree", "5"],
        ["dim", "--variety", "builtin:jordan", "--degree", "5", "--field", "p:5"],
        ["dim", "--variety", "di:builtin:lie", "--degree", "4"],
        ["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "4"],
        ["verify-di", "--variety", "builtin:lie", "--degree", "4"],
    ):
        runs = []
        for extra in ([], [], ["--no-cache"]):
            # each run has its own memos: a warm dim on the partition path
            # reads back the ranks the cold run wrote to the disk cache,
            # and every other command recomputes
            runs.append(run(capsys, *argv, *extra))
        first, warm, uncached = runs
        assert first == warm == uncached
        assert first[0] == 0


def test_verify_bso_exits_1_without_a_kernel_row(capsys, drop_last_kernel_row):
    drop_last_kernel_row(4)
    code, report = run_json(
        capsys,
        "verify-bso",
        "--morphism",
        "builtin:lie-to-assoc",
        "--degree",
        "4",
    )
    assert code == 1
    assert report["verdict"] is False
    assert report["comparisons"][-1]["kernel"] == 932
    assert report["comparisons"][-1]["consequences"] == 936
    assert report["comparisons"][-1]["equal"] is False


RANK_CASES = [
    "ranks: wrong length",
    "ranks: not an int",
    "ranks: negative rank",
    "ranks: rank above s·d",
    "ranks: dim not the weighted sum",
]


def _corrupt_ranks(value, case):
    """One defect in a stored rank entry of lie in degree 4 (5 skeletons;
    the first partition, (4), has d = 1).  Apart from the defect named,
    the stored dimension stays the weighted sum of the ranks."""
    ranks = value["ranks"]
    if case == "ranks: wrong length":
        ranks.append(0)
    elif case == "ranks: not an int":
        ranks[0] = float(ranks[0])
    elif case == "ranks: negative rank":
        value["dim"] -= ranks[0] + 1
        ranks[0] = -1
    elif case == "ranks: rank above s·d":
        value["dim"] += 6 - ranks[0]
        ranks[0] = 6
    elif case == "ranks: dim not the weighted sum":
        value["dim"] += 1


@pytest.mark.parametrize("case", RANK_CASES)
def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path, case):
    from dioperad import catalog, ideals
    from dioperad.cache import DiskCache

    argv = ["dim", "--variety", "builtin:lie", "--degree", "4", "--field", "q"]
    digest = catalog.presentation("lie").digest
    key = f"{ideals._RANKS_TAG}:{digest}:q:4"
    first = run(capsys, *argv)
    assert first[0] == 0

    path = DiskCache(tmp_path / "cache")._path(key)
    with open(path, encoding="utf-8") as fh:
        good = fh.read()
    entry = json.loads(good)
    _corrupt_ranks(entry["value"], case)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)

    assert run(capsys, *argv) == first
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == good


def test_warm_dim_reads_the_ranks(capsys, monkeypatch):
    from dioperad import ideals

    argv = ["dim", "--variety", "builtin:jordan", "--degree", "5", "--field", "q"]
    cold = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm dim recomputed its ranks")

    monkeypatch.setattr(ideals, "_module_step", refuse)
    assert run(capsys, *argv) == cold
    assert cold[0] == 0


def _cache_keys(root):
    return sorted(
        json.loads(p.read_text(encoding="utf-8"))["key"]
        for p in root.rglob("*.json")
    )


def _cache_files(root):
    return sorted(p.name for p in root.rglob("*.json"))


# every command but dim on the partition path keeps its modules and rows
# in the memo and writes nothing to disk
UNCACHED_COMMANDS = [
    ["implies", "--variety", "builtin:assoc", "--identity",
     "(- (mul (mul 1 2) 3) (mul 1 (mul 2 3)))", "--field", "q"],
    ["verify-di", "--variety", "builtin:lie", "--degree", "4", "--field", "p:3"],
    ["special", "--morphism", "builtin:lie-to-assoc", "--degree", "4"],
    ["dim", "--variety", "builtin:jordan", "--degree", "5", "--field", "p:5"],
    ["verify-di", "--variety", "builtin:lie", "--degree", "4"],
    ["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "4"],
    ["special-di", "--morphism", "builtin:jts-to-assoc", "--degree", "4"],
]


def test_each_run_writes_its_own_cache_entries(capsys, monkeypatch, tmp_path):
    from dioperad import catalog, ideals
    from dioperad.fields import QQ

    argv = ["dim", "--variety", "builtin:lie", "--degree", "4", "--field", "q"]
    written = []
    for name in ("first", "second"):
        monkeypatch.setenv("CACHE_DIR", str(tmp_path / name))
        assert run(capsys, *argv)[0] == 0
        written.append(_cache_files(tmp_path / name))
    # the rank entry of degree 4 alone, not those of the degrees below
    digest = catalog.presentation("lie").digest
    assert _cache_keys(tmp_path / "first") == [ideals._ranks_key(digest, QQ, 4)]
    assert written[1] == written[0]
    for i, other in enumerate(UNCACHED_COMMANDS):
        monkeypatch.setenv("CACHE_DIR", str(tmp_path / f"other{i}"))
        assert run(capsys, *other)[0] == 0
        assert _cache_files(tmp_path / f"other{i}") == [], other


@pytest.mark.parametrize(
    "identity", ["(bracket 1 3)", "(bracket 1 (bracket 2 2))"]
)
def test_implies_rejects_a_non_multilinear_identity(capsys, identity):
    code = main(["implies", "--variety", "builtin:lie", "--identity", identity])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"monomial {identity} is not multilinear" in captured.err
    assert "(linearize ...)" in captured.err


def _module_containers():
    """Size of every dict, list and set bound at module level in the
    package."""
    return {
        (name, attr): len(value)
        for name, module in list(sys.modules.items())
        if name == "dioperad" or name.startswith("dioperad.")
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def test_a_run_leaves_no_module_state_behind(capsys):
    # a field no other test uses, so any module memo would have to grow
    argv = ["verify-di", "--variety", "builtin:lie", "--degree", "3",
            "--field", "p:1000033", "--no-cache"]
    before = _module_containers()
    assert run(capsys, *argv)[0] == 0
    assert _module_containers() == before


@pytest.mark.parametrize("tag", ["p:1000000000000000003", "p:2305843009213693951"])
def test_large_primes_are_accepted_at_once(tag):
    from dioperad.fields import parse_field

    start = time.monotonic()
    assert parse_field(tag).name == tag
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("variety, degree, tag, dims", [
    ("assoc", "3", "p:1000000000000000003",
     {"ambient": 12, "ideal": 6, "quotient": 6}),
    # 2^64 - 59, above 2^63: counted by partition
    ("jordan", "5", "p:18446744073709551557",
     {"ambient": 1680, "ideal": 1625, "quotient": 55}),
], ids=["below-2^63", "above-2^63"])
def test_large_prime_field_runs(capsys, variety, degree, tag, dims):
    code, report = run_json(
        capsys, "dim", "--variety", f"builtin:{variety}", "--degree", degree,
        "--field", tag,
    )
    assert code == 0
    assert report["dims"] == dims


@pytest.mark.parametrize(
    "tag, message",
    [
        ("p:1000000000000000001", "1000000000000000001 is not prime"),
        ("p:561", "561 is not prime"),
        ("p:3317044064679887385961981", "too large"),
    ],
)
def test_bad_prime_tags_exit_2(capsys, tag, message):
    argv = ["dim", "--variety", "builtin:assoc", "--degree", "3"]
    assert main([*argv, "--field", tag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_timings_only_on_request(capsys):
    _, report = run_json(
        capsys, "dim", "--variety", "builtin:assoc", "--degree", "3"
    )
    assert "elapsed_ms" not in report
    _, report = run_json(
        capsys,
        "dim",
        "--variety",
        "builtin:assoc",
        "--degree",
        "3",
        "--timings",
    )
    assert isinstance(report["elapsed_ms"], int)


def test_file_based_definitions(capsys, tmp_path):
    source = tmp_path / "defs.sexp"
    source.write_text(
        "(presentation my-free (signature (op mul 2)))\n"
        "(morphism my-m (source my-free) (target com-assoc)"
        " (image mul (mul 1 2)))\n",
        encoding="utf-8",
    )
    code, report = run_json(
        capsys, "dim", "--variety", str(source), "--degree", "3"
    )
    assert code == 0
    assert report["variety"] == "my-free"
    assert report["dims"] == {"ambient": 12, "ideal": 0, "quotient": 12}

    code, report = run_json(
        capsys,
        "special",
        "--morphism",
        f"{source}:my-m",
        "--degree",
        "2",
        "--field",
        "q",
        "--basis",
    )
    assert code == 0
    assert report["basis"] == ["(+ (mul 1 2) (- (mul 2 1)))"]


def test_file_spec_errors_exit_2(capsys, tmp_path):
    source = tmp_path / "two.sexp"
    source.write_text(
        "(presentation a (signature (op mul 2)))\n"
        "(presentation b (signature (op mul 2)))\n",
        encoding="utf-8",
    )
    cases = [
        ("dim", "--variety", f"{source}:c",
         f"no presentation named 'c' in {str(source)!r} (defined: a, b)"),
        ("dim", "--variety", str(source),
         f"{str(source)!r} defines 2 presentations; "
         f"choose one with {source}:NAME"),
        ("special", "--morphism", f"{source}:m",
         f"no morphism named 'm' in {str(source)!r} (defined: none)"),
        ("special", "--morphism", str(source),
         f"{str(source)!r} defines 0 morphisms; choose one with {source}:NAME"),
        ("dim", "--variety", f"di:{source}:b:x",
         f"cannot resolve variety {str(source) + ':b:x'!r} (use builtin:NAME, "
         "PATH, PATH:NAME, or di:SPEC)"),
        ("dim", "--variety", str(tmp_path),
         f"cannot read {str(tmp_path)!r}: [Errno 21] Is a directory: "
         f"{str(tmp_path)!r}"),
    ]
    for command, flag, spec, message in cases:
        assert main([command, flag, spec, "--degree", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_repeated_morphism_image_exits_2(capsys, tmp_path):
    source = tmp_path / "twice.sexp"
    source.write_text(
        "(morphism m (source free-binary) (target com-assoc)\n"
        "  (image mul (mul 1 2))\n"
        "  (image mul (mul 2 1)))\n",
        encoding="utf-8",
    )
    assert main(["special", "--morphism", str(source), "--degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 3, column 3: repeated morphism clause (image mul ...)\n"
    )


def test_repeated_identity_name_exits_2(capsys, tmp_path):
    source = tmp_path / "twice.sexp"
    source.write_text(
        "(presentation a (signature (op m 2))\n"
        "  (identity e (m 1 2))\n"
        "  (identity e (m 2 1)))\n",
        encoding="utf-8",
    )
    for command in ("dim", "verify-di"):
        assert main([command, "--variety", str(source), "--degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 3, column 3: repeated identity 'e'\n"
        )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dioperad", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "jordan-to-assoc" in proc.stdout


LIE_D5 = "(bracket (bracket (bracket (bracket 1 2) 3) 4) 5)"
# Over q and a prime above the degree these count by partition and test
# membership through S_n-modules; none expands an ideal row by row.
PARTITION_COMMANDS = [
    ["special", "--morphism", "builtin:lie-to-assoc", "--degree", "5"],
    ["special", "--morphism", "builtin:jts-to-jordan", "--degree", "5"],
    ["special-di", "--morphism", "builtin:jts-to-assoc", "--degree", "5"],
    ["special-di", "--morphism", "builtin:lie-to-assoc", "--degree", "5"],
    ["verify-bso", "--morphism", "builtin:jts-to-jordan", "--degree", "5"],
    ["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "4"],
    ["implies", "--variety", "builtin:lie", "--identity", LIE_D5],
    ["verify-di", "--variety", "builtin:jts", "--degree", "5"],
    ["verify-di", "--variety", "builtin:lie", "--degree", "4"],
]


class Expanded(Exception):
    """Raised by a patched ``ideals._close``."""


def _refuse_expansion(monkeypatch):
    from dioperad import ideals

    def refuse(*args, **kwargs):
        raise Expanded

    monkeypatch.setattr(ideals, "_close", refuse)


@pytest.mark.parametrize("field", ["q", "p:1000003"])
@pytest.mark.parametrize("argv", PARTITION_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_partition_commands_expand_no_ideal(capsys, monkeypatch, argv, field):
    expected = run(capsys, *argv, "--field", field, "--json", "--no-cache")
    assert expected[0] in (0, 1)
    _refuse_expansion(monkeypatch)
    assert run(capsys, *argv, "--field", field, "--json", "--no-cache") == expected


@pytest.mark.parametrize(
    "argv",
    [a for a in PARTITION_COMMANDS if "5" in a or a[0] == "implies"],
    ids=lambda a: " ".join(a[:3]),
)
def test_small_primes_take_the_row_path(capsys, monkeypatch, argv):
    _refuse_expansion(monkeypatch)
    if argv[0] == "verify-bso":
        # refused by the characteristic guard before any work
        assert main([*argv, "--field", "p:5", "--no-cache"]) == 2
        assert "requires characteristic 0 or larger than 5" in (
            capsys.readouterr().err
        )
    else:
        with pytest.raises(Expanded):
            main([*argv, "--field", "p:5", "--no-cache"])


ANTI_DEFS = """
(presentation anti
  (signature (op b 2))
  (identity antisymmetry (+ (b 1 2) (b 2 1))))
(morphism anti-to-assoc (source anti) (target assoc)
  (image b (- (mul 1 2) (mul 2 1))))
(morphism anti-to-assoc-plus (source anti) (target assoc)
  (image b (+ (mul 1 2) (mul 2 1))))
"""


@pytest.mark.parametrize("field", ["q", "p:1000003"])
@pytest.mark.parametrize("command", ["special", "special-di"])
def test_special_counts_antisymmetric_bracket_identities(
    capsys, tmp_path, field, command
):
    path = tmp_path / "anti.sexp"
    path.write_text(ANTI_DEFS, encoding="utf-8")
    for degree, special in ((4, 9), (5, 81)):
        if command == "special-di":
            # each plain identity placed at each of the d emphases
            special *= degree
        argv = [command, "--morphism", f"{path}:anti-to-assoc",
                "--degree", str(degree), "--field", field, "--no-cache"]
        code, counted = run_json(capsys, *argv)
        assert code == 0 and counted["special"] == special
        code, listed = run_json(capsys, *argv, "--basis")
        assert len(listed.pop("basis")) == special
        assert listed == counted


@pytest.mark.parametrize("field", ["q", "p:1000003"])
@pytest.mark.parametrize("command", ["special", "verify-bso"])
def test_a_perturbed_image_exits_2(capsys, tmp_path, command, field):
    path = tmp_path / "anti.sexp"
    path.write_text(ANTI_DEFS, encoding="utf-8")
    argv = [command, "--morphism", f"{path}:anti-to-assoc-plus",
            "--degree", "4", "--field", field, "--no-cache"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: identity 'antisymmetry' of 'anti' does not vanish under "
        "'anti-to-assoc-plus'\n"
    )
