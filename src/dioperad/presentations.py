"""The two types the parser builds: a variety presented by multilinear
identities, and a morphism between the operads of two signatures.

Both validate their input and carry a SHA-256 digest of their contents,
which reports print and cache keys use.  They import no engine, so reading
a document compiles no ideal, kernel or dialgebra code.
"""

from __future__ import annotations

from .context import sha256
from .fields import QQ
from .terms import Polynomial, check_in_signature, format_polynomial


class VarietyPresentation:
    """A named signature together with defining multilinear identities.

    Generators are stored with rational coefficients and converted into a
    working field on demand.
    """

    __slots__ = ("name", "signature", "generators", "generator_names", "digest")

    def __init__(self, name, signature, generators, generator_names=None):
        generators = tuple(generators)
        if generator_names is None:
            generator_names = tuple(f"id{i + 1}" for i in range(len(generators)))
        generator_names = tuple(str(s) for s in generator_names)
        if len(generator_names) != len(generators):
            raise ValueError("one name per identity required")
        for gname, g in zip(generator_names, generators):
            if not isinstance(g, Polynomial) or g.field != QQ:
                raise ValueError(
                    f"identity {gname!r} must have rational coefficients"
                )
            if g.is_zero:
                raise ValueError(f"identity {gname!r} is zero")
            if g.degree < 2:
                raise ValueError(f"identity {gname!r} has degree < 2")
            if not g.is_multilinear():
                raise ValueError(f"identity {gname!r} is not multilinear")
            for m in g.terms:
                check_in_signature(m, signature)
        self.name = str(name)
        self.signature = signature
        self.generators = generators
        self.generator_names = generator_names
        h = sha256()
        h.update(repr(signature.operations).encode())
        for gname, g in zip(generator_names, generators):
            h.update(b"\x00" + gname.encode())
            h.update(b"\x00" + format_polynomial(g).encode())
        self.digest = h.hexdigest()

    def __eq__(self, other):
        return (
            isinstance(other, VarietyPresentation)
            and self.digest == other.digest
        )

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return (
            f"VarietyPresentation({self.name!r}, "
            f"{len(self.generators)} identities)"
        )


class OperadMorphism:
    """Images for each source operation inside a target variety."""

    __slots__ = ("name", "source_signature", "target", "images", "digest")

    def __init__(self, name, source_signature, target, images):
        images = dict(images)
        for op, arity in source_signature.operations:
            img = images.get(op)
            if img is None:
                raise ValueError(f"no image for operation {op!r}")
            if not isinstance(img, Polynomial) or img.field != QQ:
                raise ValueError(
                    f"image of {op!r} must have rational coefficients"
                )
            if img.degree != arity or not img.is_multilinear():
                raise ValueError(
                    f"image of {op!r} must be multilinear of degree {arity}"
                )
        if set(images) != set(source_signature.names):
            raise ValueError("images given for operations outside the signature")
        self.name = str(name)
        self.source_signature = source_signature
        self.target = target
        self.images = images
        h = sha256()
        h.update(repr(source_signature.operations).encode())
        h.update(target.digest.encode())
        for op in source_signature.names:
            h.update(b"\x00" + op.encode())
            h.update(b"\x00" + format_polynomial(images[op]).encode())
        self.digest = h.hexdigest()

    def __repr__(self):
        return f"OperadMorphism({self.name!r})"
