"""Shared pytest wiring.

The acceptance module registers one verdict line per criterion; echoing
them in the terminal summary keeps them visible under output capture.
"""

from __future__ import annotations

import pytest

from dioperad import morphisms

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
    expands it, and in ``morphisms._kernel_module``, which holds it as a
    module and then hands out that short expanded kernel instead."""
    full = oracles.morphism_kernel
    full_module = morphisms._kernel_module

    def drop(degree):
        def patched(mor, source, d, *args, **kwargs):
            comp, kernel = full(mor, source, d, *args, **kwargs)
            if d == degree:
                kernel = oracles.trusted_subspace(
                    kernel.field, kernel.ncols, kernel.rows[:-1]
                )
            return comp, kernel

        def patched_module(mor, source, d, *args, **kwargs):
            kernel, generators = full_module(mor, source, d, *args, **kwargs)
            if d == degree:
                kernel = patched(mor, source, d, *args, **kwargs)[1]
            return kernel, generators

        monkeypatch.setattr(oracles, "morphism_kernel", patched)
        monkeypatch.setattr(morphisms, "_kernel_module", patched_module)

    return drop
