"""Exact scalar arithmetic: the rationals and prime fields.

Every computation in the package runs over one of these fields; no floating
point is used anywhere.  Rational scalars are ``fractions.Fraction`` values,
prime-field scalars are plain ints reduced into ``[0, p)``.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """The field of rational numbers."""

    characteristic = 0
    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, a):
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int):
            return Fraction(a)
        raise TypeError(f"cannot coerce {a!r} into the rationals")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("field:q")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


# Miller-Rabin with the first 13 primes as bases decides every n below this
# bound correctly (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError at or above the bound."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"{n} is too large: primes are recognised below {_MR_BOUND}"
        )
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p; scalars are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return f"p:{self.p}"

    def coerce(self, a):
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            den = a.denominator % self.p
            if den == 0:
                raise ValueError(
                    f"denominator of {a} vanishes modulo {self.p}"
                )
            return a.numerator % self.p * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {a!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field:p", self.p))

    def __repr__(self):
        return f"GF({self.p})"


DEFAULT_PRIME = 1000003


def parse_field(name: str):
    """Parse a field tag: "q" for the rationals, "p:NNN" for F_NNN."""
    if name == "q":
        return QQ
    if name.startswith("p:"):
        try:
            p = int(name[2:])
        except ValueError:
            raise ValueError(f"bad field tag {name!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad field tag {name!r} (expected 'q' or 'p:<prime>')")
