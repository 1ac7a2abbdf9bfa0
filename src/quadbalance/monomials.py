"""Monomials and monomial ideals.

Variables are indexed 0..n-1 internally; the text syntax ``x3^2*x5`` is
1-based, with ``^1`` optional and ``1`` denoting the constant monomial.
A MonomialIdeal always stores its unique minimal generating set, sorted in
descending lexicographic order (x1 > x2 > ... > xn).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from operator import le

from .errors import InputError

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial, stored as its exponent vector."""

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps:
            raise InputError("zero-length exponent vector is disallowed")
        if any(e < 0 for e in exps):
            raise InputError("negative exponent")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_constant(self) -> bool:
        return self.degree == 0

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> frozenset:
        return frozenset(j for j, e in enumerate(self.exponents) if e)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self):
        return format_monomial(self)


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``x3^2*x5`` (1-based) into a Monomial in n variables."""
    if not isinstance(text, str):
        raise InputError(f"a monomial must be a string, got {type(text).__name__}")
    s = text.strip()
    if s == "1":
        if n < 1:
            raise InputError("constant monomial needs an ambient ring with n >= 1")
        return Monomial((0,) * n)
    exps = [0] * n
    pos = 0
    for chunk in s.split("*"):
        m = _FACTOR_RE.match(chunk.strip())
        if m is None:
            raise InputError(f"bad monomial factor {chunk.strip()!r} at position {pos} in {text!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= n:
            raise InputError(f"variable x{idx} out of range 1..{n} at position {pos} in {text!r}")
        exps[idx - 1] += int(m.group(2) or 1)
        pos += len(chunk) + 1
    return Monomial(tuple(exps))


def format_monomial(m: Monomial) -> str:
    if m.degree == 0:
        return "1"
    parts = []
    for j, e in enumerate(m.exponents):
        if e == 1:
            parts.append(f"x{j + 1}")
        elif e > 1:
            parts.append(f"x{j + 1}^{e}")
    return "*".join(parts)


def _minimalize(exponents) -> tuple:
    """Reduce exponent tuples to the unique minimal generating set, in
    descending lex order.

    Distinct tuples of equal degree never divide each other, so each degree
    is tested only against the kept tuples of smaller degree.
    """
    kept: list = []
    for _, same_degree in groupby(sorted(set(exponents), key=sum), key=sum):
        kept += [m for m in same_degree if not any(all(map(le, k, m)) for k in kept)]
    return tuple(sorted(kept, reverse=True))


def _ideal_from_minimal(n: int, monomials) -> "MonomialIdeal":
    """Wrap generators already known to be minimal, skipping the reduction.

    The divisibility sweep in _minimalize is quadratic, which matters for
    constructions that emit many thousands of generators but guarantee
    minimality themselves.  Callers must pass pairwise incomparable
    monomials; the canonical descending sort is still applied.
    """
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "n", n)
    object.__setattr__(
        ideal, "generators", tuple(sorted(monomials, key=lambda m: m.exponents, reverse=True))
    )
    return ideal


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in K[x1..xn], held by its minimal generating set."""

    n: int
    generators: tuple = field(default=())

    def __post_init__(self):
        if self.n < 0:
            raise InputError("ambient variable count must be nonnegative")
        gens = tuple(self.generators)
        for g in gens:
            if not isinstance(g, Monomial):
                raise InputError("generators must be Monomial instances")
            if g.n != self.n:
                raise InputError(f"generator {g} has {g.n} variables, ambient has {self.n}")
        by_exponents = {g.exponents: g for g in gens}
        object.__setattr__(
            self, "generators", tuple(by_exponents[e] for e in _minimalize(by_exponents))
        )

    @classmethod
    def from_strings(cls, n: int, gens) -> "MonomialIdeal":
        return cls(n, tuple(parse_monomial(s, n) for s in gens))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_constant() for g in self.generators)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def generated_in_degree(self, d: int) -> bool:
        return all(g.degree == d for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        """Membership test: a monomial lies in the ideal iff some generator divides it."""
        if m.n != self.n:
            raise InputError("ambient variable counts differ")
        return any(g.divides(m) for g in self.generators)

    def generator_strings(self) -> list:
        return [format_monomial(g) for g in self.generators]

    def __str__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(self.generator_strings()) + ")"


def _require_quadratic(ideal: MonomialIdeal, zero_message: str):
    """Refuse a zero (with the caller's message), unit or non-quadratic ideal."""
    if ideal.is_zero():
        raise InputError(zero_message)
    if not ideal.is_proper():
        raise InputError("the unit ideal is out of scope")
    if not ideal.generated_in_degree(2):
        bad = [str(g) for g in ideal.generators if g.degree != 2]
        raise InputError(f"generators must have degree 2; offending: {', '.join(bad)}")


def polarize(ideal: MonomialIdeal):
    """Replace each power x_i^a by a product of a distinct new variables.

    Returns ``(squarefree ideal, classes)`` where ``classes[i]`` lists the
    new variable indices standing in for x_i.  Every original variable keeps
    a class of size max(1, largest exponent among the generators), so a
    squarefree ideal polarizes to itself.  The resulting ideal has the same
    graded Betti numbers as the input.
    """
    n = ideal.n
    width = [1] * n
    for g in ideal.generators:
        for j, e in enumerate(g.exponents):
            if e > width[j]:
                width[j] = e
    offsets = []
    total = 0
    for j in range(n):
        offsets.append(total)
        total += width[j]
    classes = [tuple(range(offsets[j], offsets[j] + width[j])) for j in range(n)]
    new_gens = []
    for g in ideal.generators:
        exps = [0] * total
        for j, e in enumerate(g.exponents):
            for k in range(e):
                exps[offsets[j] + k] = 1
        new_gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(total, tuple(new_gens)), classes
