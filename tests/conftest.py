"""Shared pytest wiring.

The acceptance module registers one verdict line per criterion; echoing
them in the terminal summary keeps them visible under output capture.
"""

from __future__ import annotations

import pytest

from dioperad import ideals, morphisms
from dioperad.terms import DoubledSignature

import oracles

_verdicts: list = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def drop_last_kernel_row(monkeypatch):
    """Call with a degree to make the plain kernel K = I ⊕ S at that degree
    lose the last row of its basis: in ``oracles.morphism_kernel``, which
    expands it, and in ``morphisms._module_step``, which builds the
    kernel's module in ``verify_bso_theorem``: at that degree the module
    of a plain signature is expanded and handed out short, beside the same
    generators."""
    full = oracles.morphism_kernel
    full_module = morphisms._module_step

    def drop(degree):
        def patched(mor, source, d, *args, **kwargs):
            comp, kernel = full(mor, source, d, *args, **kwargs)
            if d == degree:
                kernel = oracles.trusted_subspace(
                    kernel.field, kernel.ncols, kernel.rows[:-1]
                )
            return comp, kernel

        def patched_module(signature, seeds, digest, n, ctx):
            module, kept, generators = full_module(
                signature, seeds, digest, n, ctx
            )
            if n == degree and not isinstance(signature, DoubledSignature):
                rows = ideals._expand(module.fold, kept)[0].rows
                module = oracles.trusted_subspace(
                    module.field, module.ncols, rows[:-1]
                )
            return module, kept, generators

        monkeypatch.setattr(oracles, "morphism_kernel", patched)
        monkeypatch.setattr(morphisms, "_module_step", patched_module)

    return drop
