"""Coefficient fields for exact computation: the rationals and prime fields.

Every rank and homology computation in this package is parameterized by one
of these field objects.  Elements are ordinary Python integers; the field
object only decides how they are reduced (not at all over the rationals,
mod p over GF(p)).
"""

from __future__ import annotations

from .errors import InputError

DEFAULT_PRIME = 32003


# Miller-Rabin with the prime bases 2..41 is exact below psi_13 (Sorenson and
# Webster, Math. Comp. 86, 2017); characteristics from there on are refused,
# since the test could no longer prove them prime
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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


class RationalField:
    """The field of rational numbers."""

    name = "Q"

    def is_zero(self, x) -> bool:
        return x == 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeField:
    """The finite field with p elements, p prime."""

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise InputError(f"field characteristic must be below {PRIME_BOUND}, got {p}")
        if not _is_probable_prime(p):
            raise InputError(f"field characteristic must be prime, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def is_zero(self, x) -> bool:
        return x % self.p == 0

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field_spec(spec: str):
    """Parse a ``--field`` value: ``q`` for the rationals, ``p:NNN`` for GF(NNN)."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("p:"):
        body = s[2:]
        # isdecimal, not isdigit: int() refuses digits such as "²"
        if not body.isdecimal():
            raise InputError(f"bad field spec {spec!r}: expected q or p:<prime>")
        # refused by length before int(), which is slow on thousands of digits
        if len(body.lstrip("0")) > len(str(PRIME_BOUND)):
            raise InputError(f"field characteristic must be below {PRIME_BOUND}")
        return PrimeField(int(body))
    if s == "p":
        return PrimeField(DEFAULT_PRIME)
    raise InputError(f"bad field spec {spec!r}: expected q or p:<prime>")
