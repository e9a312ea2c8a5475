"""Multilinear identity computations for operads of algebra varieties.

The package computes per-degree components of the operad governing a
variety of algebras, produces the dialgebra counterpart of a presentation
by doubling every operation, and checks which identities of an operad
morphism's image go beyond the source presentation — both for plain
algebras and for their dialgebra analogues.
"""

from __future__ import annotations

from importlib import import_module

# The module that defines each name of ``__all__``, which lists them in
# sorted order.  A name's module is imported on first access (PEP 562), so
# a command loads only the engine it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "cache": ("DiskCache", "default_cache_dir"),
        "context": ("Context", "DegreeCapError"),
        "dialgebra": (
            "DiPolynomial",
            "bso_presentation",
            "is_collapse_preimage",
            "superscript",
            "superscript_poly",
            "verify_dialgebra_equivalence",
            "zero_identities",
        ),
        "fields": ("QQ", "PrimeField", "parse_field"),
        "ideals": (
            "consequences_at_degree",
            "degree_component",
            "ideal_dimensions",
            "identity_implies",
            "partition_ranks",
            "quotient_dimension",
        ),
        "morphisms": (
            "CharacteristicGuardError",
            "di_morphism",
            "di_special_identities",
            "evaluate_morphism",
            "special_identities",
            "verify_bso_theorem",
        ),
        "presentations": ("OperadMorphism", "VarietyPresentation"),
        "terms": (
            "DoubledSignature",
            "Monomial",
            "Polynomial",
            "Signature",
            "apply_permutation",
            "compose",
            "double_signature",
            "enumerate_monomials",
            "format_polynomial",
            "linearize",
            "substitute_at",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
