"""The settings and memos of one run: the scalar field, the degree cap, and
the memoised basis layouts, ideal components, representation tables and
S_n-modules.  The disk cache is not part of a run's context: the ``dim``
command alone reads and writes it.

Every computation that enumerates a degree takes a context.  A context
holds one field, so its memo keys carry no field name, and nothing is
shared between contexts: a run builds its own and drops its memos with it.

The module also holds the one SHA-256 constructor of the package, used for
cache keys and presentation and morphism digests.
"""

from __future__ import annotations

# The interpreter's built-in SHA-256 gives the same digests as hashlib's,
# without mapping OpenSSL's libcrypto into every process.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .fields import QQ

DEFAULT_DEGREE_CAP = 6


class DegreeCapError(RuntimeError):
    """An enumeration would exceed the configured degree cap."""


class Context:
    """The field and degree cap of a run, with its memos.  The defaults are
    the rationals and the default cap."""

    __slots__ = ("field", "max_degree", "_memo")

    def __init__(self, field=QQ, max_degree=DEFAULT_DEGREE_CAP):
        if max_degree < 1:
            raise ValueError(f"degree cap must be at least 1, got {max_degree}")
        self.field = field
        self.max_degree = max_degree
        self._memo: dict = {}

    def check_degree(self, n: int) -> None:
        """Reject a degree below 1 or above the cap."""
        if n < 1:
            raise ValueError(f"degree must be positive, got {n}")
        if n > self.max_degree:
            raise DegreeCapError(
                f"degree {n} exceeds the enumeration cap {self.max_degree}"
            )

    def memo(self, key, n: int, build):
        """The value memoised under key for degree n, built on first use.
        The degree is checked against the cap before the lookup, so a
        result is never handed out above the cap."""
        self.check_degree(n)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build()
        return hit


def as_context(ctx) -> Context:
    """The given context, or a fresh default one for None."""
    if ctx is None:
        return Context()
    if not isinstance(ctx, Context):
        raise TypeError(
            f"expected a Context or None as ctx, got {type(ctx).__name__}"
        )
    return ctx
