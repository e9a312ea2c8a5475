"""The skeleton-by-word basis layout against the tree constructions it
replaced: enumeration order, relabelling, substitution, collapse, and the
ideal components built on columns.  Also the layout of the package
itself: every top-level definition is used by the package or exported,
exports load lazily, and each command imports only the modules it runs."""

from __future__ import annotations

import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dioperad
from dioperad import Context, catalog, terms
from dioperad.cli import main, resolve_variety
from dioperad.dialgebra import _collapse_columns, _lift_columns, superscript
from dioperad.fields import QQ, PrimeField
from dioperad.ideals import (
    _candidates,
    _perm_column_maps,
    _seeds,
    _variety_module,
    consequences_at_degree,
    poly_to_vector,
)
from dioperad.linalg import row_reduce
from dioperad.terms import (
    DoubledSignature,
    Monomial,
    Polynomial,
    Signature,
    _graft,
    basis_layout,
    double_signature,
    enumerate_monomials,
    substitute_at,
    substitution_column_maps,
)

from oracles import (
    same_subspace,
    sorted_monomials,
    tree_candidates,
    tree_ideal_component,
    unsuperscript,
)

FIELDS = [QQ, PrimeField(1000003)]
# the built-in signatures: mul:2, bracket:2 and the ternary t:3 of jts
PLAIN = sorted(
    {catalog.presentation(name).signature for name in catalog.presentation_names()},
    key=repr,
)
SIGNATURES = PLAIN + [double_signature(sig) for sig in PLAIN]
# mixed arities interleave skeletons of different shapes in canonical order
MIXED = Signature([("mul", 2), ("t", 3)])
# one memo for the whole module: the tests below check the same bases
BASES = Context()


def _cases(doubled=False):
    pairs = [(sig, n) for sig in SIGNATURES for n in range(1, 6)]
    pairs += [(sig, n) for sig in (MIXED, double_signature(MIXED)) for n in (3, 4)]
    pairs.append((Signature([("mul", 2)]), 6))
    if doubled:
        pairs = [(sig, n) for sig, n in pairs if isinstance(sig, DoubledSignature)]
    return [pytest.param(sig, n, id=f"{sig!r}-d{n}") for sig, n in pairs]


@pytest.mark.parametrize("sig, n", _cases())
def test_enumeration_matches_the_sorted_oracle(sig, n):
    basis = enumerate_monomials(sig, n, BASES)
    assert list(basis) == sorted_monomials(sig, n)
    assert basis_layout(sig, n, BASES).ncols == len(basis)


@pytest.mark.parametrize("sig, n", _cases())
def test_layout_columns_are_basis_positions(sig, n):
    layout = basis_layout(sig, n, BASES)
    basis = enumerate_monomials(sig, n, BASES)
    assert [layout[m.node] for m in basis] == list(range(len(basis)))
    assert [layout.node(c) for c in range(layout.ncols)] == [m.node for m in basis]
    with pytest.raises(KeyError):
        layout[(sig.operations[0][0],) + (1,) * sig.operations[0][1]]


@pytest.mark.parametrize("sig, n", _cases())
def test_relabel_maps_match_relabel_node(sig, n):
    basis = enumerate_monomials(sig, n, BASES)
    layout = basis_layout(sig, n, BASES)
    maps = _perm_column_maps(layout)
    perms = [(2, 1) + tuple(range(3, n + 1))] if n > 1 else []
    if n > 2:
        perms.append(tuple(range(2, n + 1)) + (1,))
    assert maps == [
        [layout[_graft(m.node, dict(enumerate(perm, 1)))] for m in basis]
        for perm in perms
    ]


@pytest.mark.parametrize("sig, n", _cases())
def test_substitution_maps_match_substitute_at(sig, n):
    upper = basis_layout(sig, n, BASES)
    for op, arity in sig.operations:
        m = n - arity + 1
        if m < 1:
            continue
        lower = enumerate_monomials(sig, m, BASES)
        maps = substitution_column_maps(basis_layout(sig, m, BASES), upper, op)
        assert len(maps) == m + arity
        corolla = Monomial((op,) + tuple(range(1, arity + 1)))
        for i in range(1, m + 1):
            assert maps[i - 1] == [
                _column(substitute_at(w, i, corolla), upper) for w in lower
            ]
        for i in range(1, arity + 1):
            assert maps[m + i - 1] == [
                _column(substitute_at(corolla, i, w), upper) for w in lower
            ]


def _column(p: Polynomial, layout) -> int:
    (col,) = poly_to_vector(p, layout)
    return col


@pytest.mark.parametrize("sig, n", _cases(doubled=True))
def test_collapse_columns_match_unsuperscript(sig, n):
    """Each doubled skeleton block's plain offset and emphasized slot give,
    for every word, the plain column and the emphasized leaf that
    ``unsuperscript`` gives its monomial."""
    plain_layout = basis_layout(sig.base, n, BASES)
    base = row_reduce(QQ, plain_layout.ncols, [])
    blocks = _collapse_columns(sig, n, base, BASES)
    doubled = basis_layout(sig, n, BASES)
    assert len(blocks) == len(doubled.skeletons)
    width = len(doubled.words)
    for col, m in enumerate(enumerate_monomials(sig, n, BASES)):
        b, r = divmod(col, width)
        offset, slot = blocks[b]
        plain, leaf = unsuperscript(m)
        assert (offset + r, doubled.words[r][slot]) == (
            plain_layout[plain.node], leaf
        )


@pytest.mark.parametrize("sig, n", _cases(doubled=True))
def test_lift_columns_match_superscript(sig, n):
    doubled = basis_layout(sig, n, BASES)
    plain = enumerate_monomials(sig.base, n, BASES)
    assert _lift_columns(sig, n, BASES) == [
        [doubled[superscript(m, k).node] for m in plain] for k in range(1, n + 1)
    ]


def _variety_cases():
    names = [f"builtin:{name}" for name in catalog.presentation_names()]
    out = [(spec, n) for spec in names for n in (2, 3, 4)]
    out += [(f"di:{spec}", n) for spec in names for n in (2, 3)]
    out += [("builtin:lie", 5), ("builtin:jts", 5)]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["q", "p"])
@pytest.mark.parametrize("spec, n", _variety_cases())
def test_ideal_rows_match_the_tree_construction(spec, n, field):
    variety = resolve_variety(spec)
    gens = tuple(g.convert(field) for g in variety.generators)
    ctx = Context(field)
    oracle = tree_ideal_component(variety.signature, gens, n, field)
    ideal = consequences_at_degree(variety, n, ctx).ideal
    assert same_subspace(ideal, oracle)

    # the candidates are the tree substitutions of the same lower vectors,
    # in the same order
    def lower(m):
        return _variety_module(variety, m, ctx)[2]

    seeds = _seeds(variety.signature, variety.generators, n, ctx).get(n, ())
    assert list(_candidates(variety.signature, seeds, n, ctx, lower)) == list(
        tree_candidates(variety.signature, gens, n, field, lower)
    )


def test_dim_builds_no_monomials(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dim built a monomial")

    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "cache"))
    resolve_variety("builtin:assoc")  # parse the catalog before the patch
    monkeypatch.setattr(terms.Monomial, "__init__", refuse)
    for _ in ("cold", "warm"):
        argv = ["dim", "--variety", "builtin:assoc", "--degree", "4", "--json"]
        assert main(argv) == 0
        assert '"quotient": 24' in capsys.readouterr().out


def _callers(is_callee):
    """The package functions and methods, as ``module:name``, with a call
    whose callee expression ``is_callee`` accepts.  A call in a nested
    function counts for the function or method around it."""
    package = pathlib.Path(dioperad.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for defn in node.body if isinstance(node, ast.ClassDef) else [node]:
                for sub in ast.walk(defn):
                    if isinstance(sub, ast.Call) and is_callee(sub.func):
                        name = getattr(defn, "name", "<module>")
                        callers.add(f"{path.stem}:{name}")
    return callers


def _names(func, *names):
    """Whether a callee is one of the names, bare or as an attribute."""
    return (isinstance(func, ast.Name) and func.id in names
            or isinstance(func, ast.Attribute) and func.attr in names)


def test_only_partition_ranks_touches_the_disk_cache():
    """The disk cache holds what ``dim`` prints: the only package function
    that calls ``get`` or ``put`` on a cache (``cache`` or ``ctx.cache``)
    is ``ideals.partition_ranks``.  A call in a nested function counts
    for the function or method around it."""

    def is_cache_access(func):
        return (isinstance(func, ast.Attribute)
                and func.attr in ("get", "put")
                and _names(func.value, "cache"))

    assert _callers(is_cache_access) == {"ideals:partition_ranks"}


def test_only_module_step_builds_modules():
    """Every S_n-module comes from one builder: the only package function
    that constructs a ``young.ModuleRanks`` is ``ideals._module_step``,
    and ``ideals``, which detects the laws of a presentation in the
    modules of degrees 2 and 3, never calls ``row_reduce``.  A call in a
    nested function counts for the function or method around it."""
    assert _callers(lambda func: _names(func, "ModuleRanks")) == {
        "ideals:_module_step"
    }
    assert not any(
        caller.startswith("ideals:")
        for caller in _callers(lambda func: _names(func, "row_reduce"))
    )


def test_word_table_is_field_free():
    """Every field reads one table of Young's matrices: ``dioperad.young``
    imports nothing from ``dioperad.fields``, and ``WordTable`` is built
    from a layout alone."""
    path = pathlib.Path(dioperad.__file__).parent / "young.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ``from .fields import x`` and ``from . import fields`` alike
            imported.update((node.module or "").split("."))
            if node.module in (None, "dioperad"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert "fields" not in imported
    (init,) = (
        defn
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "WordTable"
        for defn in cls.body
        if isinstance(defn, ast.FunctionDef) and defn.name == "__init__"
    )
    assert [a.arg for a in init.args.args] == ["self", "layout"]
    assert not (init.args.vararg or init.args.kwarg or init.args.kwonlyargs)


def test_only_graft_and_linearize_take_products_of_terms():
    """Tree substitution has one owner: the only package functions that
    call ``itertools.product`` (or a bare ``product``) are ``terms.graft``
    and ``terms.linearize``, which relabels each occurrence of a variable
    on its own.  A call in a nested function counts for the function or
    method around it."""

    def is_product(func):
        return (isinstance(func, ast.Name) and func.id == "product"
                or isinstance(func, ast.Attribute) and func.attr == "product"
                and isinstance(func.value, ast.Name)
                and func.value.id == "itertools")

    assert _callers(is_product) == {"terms:graft", "terms:linearize"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_definition_is_used_or_exported():
    """A top-level function or class of ``src/dioperad`` that no other
    package code names (outside its own body) and that ``__all__`` does not
    export is a helper only tests use; it belongs in ``tests/``.  So is a
    method or property of a package class whose name no package code
    mentions outside its own body, as a bare name or as an attribute of
    anything.  Dunders, which the interpreter calls (a module's
    ``__getattr__``, a class's ``__init__``), are exempt at both levels."""
    package = pathlib.Path(dioperad.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}

    modules = {name.removesuffix(".py") for name in trees}

    def names(node):
        """Bare names, and attributes of a package module (``ideals.f``);
        not other attributes, which may be methods of the same name."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                yield sub.attr

    unused = []
    for module, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)):
                continue
            if defn.name in dioperad.__all__ or _is_dunder(defn.name):
                continue
            used = any(
                defn.name in names(node)
                for other, other_tree in trees.items()
                for node in other_tree.body
                if not (other == module and node is defn)
            )
            if not used:
                unused.append(f"{module}:{defn.name}")

    def mentions(node):
        """How often each bare name and each attribute name occurs."""
        return collections.Counter(
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        )

    everywhere = sum(map(mentions, trees.values()), collections.Counter())
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for defn in cls.body:
                if (isinstance(defn, ast.FunctionDef)
                        and not _is_dunder(defn.name)
                        and everywhere[defn.name] == mentions(defn)[defn.name]):
                    unused.append(f"{module}:{cls.name}.{defn.name}")
    assert unused == []


def _python(*args):
    """A fresh interpreter run on this package, which must exit 0 or 1;
    returns the finished process."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(dioperad.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.returncode in (0, 1), proc.stderr
    return proc


def test_lazy_exports_resolve():
    """The export table covers ``__all__`` exactly, and each name resolves
    to the object its module defines.  ``import dioperad`` loads no
    submodule, and ``from dioperad import terms`` still imports one."""
    assert sorted(dioperad._EXPORTS) == sorted(dioperad.__all__)
    for name, module in dioperad._EXPORTS.items():
        defined = getattr(importlib.import_module(f"dioperad.{module}"), name)
        assert getattr(dioperad, name) is defined
        assert defined.__module__ == f"dioperad.{module}"
    with pytest.raises(AttributeError):
        dioperad.no_such_export
    proc = _python("-c", "import sys, dioperad\n"
                   "print([m for m in sys.modules if m.startswith('dioperad.')])\n"
                   "from dioperad import terms\n"
                   "print(terms.__name__)")
    assert proc.stdout == "[]\ndioperad.terms\n"


DIALGEBRA, MORPHISMS = "dioperad.dialgebra", "dioperad.morphisms"
# each command, the modules it must import and those it must not
FOOTPRINTS = [
    (["dim", "--variety", "builtin:lie", "--degree", "4"],
     {"dioperad.ideals"}, {DIALGEBRA, MORPHISMS}),
    (["basis", "--variety", "builtin:lie", "--degree", "3"],
     set(), {DIALGEBRA, MORPHISMS}),
    (["implies", "--variety", "builtin:lie", "--identity",
      "(bracket (bracket 1 2) 3)"], set(), {DIALGEBRA, MORPHISMS}),
    (["catalog"], set(), {DIALGEBRA, MORPHISMS}),
    (["verify-di", "--variety", "builtin:lie", "--degree", "3"],
     {DIALGEBRA}, {MORPHISMS}),
    (["dim", "--variety", "di:builtin:lie", "--degree", "3"],
     {DIALGEBRA}, {MORPHISMS}),
    (["dialgebrize", "--variety", "builtin:lie"], {DIALGEBRA}, {MORPHISMS}),
    (["special", "--morphism", "builtin:lie-to-assoc", "--degree", "3"],
     {MORPHISMS}, set()),
    (["special-di", "--morphism", "builtin:lie-to-assoc", "--degree", "3"],
     {MORPHISMS}, set()),
    (["verify-bso", "--morphism", "builtin:lie-to-assoc", "--degree", "3"],
     {MORPHISMS}, set()),
]


@pytest.mark.parametrize("argv, loads, skips", [
    pytest.param(*case, id=" ".join(case[0][:3])) for case in FOOTPRINTS
])
def test_command_imports_only_its_engine(argv, loads, skips):
    """Each command imports the engine it runs and no other, read from
    ``-X importtime``; none maps OpenSSL through ``_hashlib``."""
    proc = _python("-X", "importtime", "-m", "dioperad", *argv, "--no-cache")
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "dioperad.cli" in imported
    assert loads <= imported
    assert not (skips | {"_hashlib"}) & imported
