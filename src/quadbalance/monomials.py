"""Monomials and monomial ideals.

A monomial is its exponent vector, a tuple of nonnegative ints with one
entry per variable.  Variables are indexed 0..n-1 internally; the text
syntax ``x3^2*x5`` is 1-based, with ``^1`` optional and ``1`` denoting the
constant monomial.  A MonomialIdeal always stores its unique minimal
generating set, sorted in descending lexicographic order (x1 > x2 > ... > xn).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress, count
from operator import and_, getitem, or_

from .errors import InputError

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
# a whole monomial other than "1": factors joined by "*", each padded with
# the whitespace str.strip removes (both use the same Unicode test)
_MONOMIAL_RE = re.compile(r"\s*x\d+(?:\^\d+)?\s*(?:\*\s*x\d+(?:\^\d+)?\s*)*")


def support(exponents) -> frozenset:
    """The indices of the variables dividing the monomial."""
    return frozenset(compress(count(), exponents))


def parse_monomial(text: str, n: int) -> tuple:
    """Parse ``x3^2*x5`` (1-based) into its exponent tuple in n variables.

    A well-formed product is checked by one regex and read by one findall;
    a malformed one is read factor by factor, to name the first bad factor
    and its position.
    """
    if not isinstance(text, str):
        raise InputError(f"a monomial must be a string, got {type(text).__name__}")
    try:
        if _MONOMIAL_RE.fullmatch(text):
            exps = [0] * n
            for idx, e in _FACTOR_RE.findall(text):
                i = int(idx)
                if not 1 <= i <= n:
                    break
                exps[i - 1] += int(e or 1)
            else:
                return tuple(exps)
        elif text.strip() == "1":
            if n < 1:
                raise InputError("constant monomial needs an ambient ring with n >= 1")
            return (0,) * n
        _raise_bad_factor(text, n)
    except InputError:
        raise
    except ValueError:
        # int() refuses digit strings longer than sys.get_int_max_str_digits()
        raise InputError(f"a number in monomial {text[:40]!r}... has too many digits") from None


def _raise_bad_factor(text: str, n: int):
    """Raise the InputError for the first bad factor of a malformed monomial."""
    pos = 0
    for chunk in text.strip().split("*"):
        m = _FACTOR_RE.fullmatch(chunk.strip())
        if m is None:
            raise InputError(f"bad monomial factor {chunk.strip()!r} at position {pos} in {text!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= n:
            raise InputError(f"variable x{idx} out of range 1..{n} at position {pos} in {text!r}")
        pos += len(chunk) + 1
    raise AssertionError(f"{text!r} has no bad factor")


def format_monomial(exponents) -> str:
    """The text syntax of an exponent tuple: ``x3^2*x5`` (1-based), or ``1``."""
    factors = [f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in enumerate(exponents, 1) if e]
    return "*".join(factors) or "1"


class _DivisorIndex:
    """Which tuples of a block of exponent tuples divide a given one.

    For each variable it keeps the distinct exponents t of the list, sorted,
    and for each t the mask of the tuples whose exponent there is at most t
    (bit i for the i-th tuple), after a 0 for exponents below the smallest.
    The tuples dividing e are the AND over the variables of the mask at the
    largest t <= e_v: n lookups and n ANDs instead of a divisibility test
    per tuple.  Exponents are keys, not positions, so a huge exponent costs
    one entry.
    """

    __slots__ = ("values", "masks", "full")

    def __init__(self, gens):
        self.values, self.masks = [], []
        for column in zip(*gens):
            at = dict.fromkeys(sorted(set(column)), 0)
            bit = 1
            for e in column:
                at[e] |= bit
                bit <<= 1
            self.values.append(list(at))
            self.masks.append([0, *accumulate(at.values(), or_)])
        self.full = (1 << len(gens)) - 1

    def divisors(self, exponents) -> int:
        """The mask of the indexed tuples dividing ``exponents``."""
        lookups = map(getitem, self.masks, map(bisect_right, self.values, exponents))
        return reduce(and_, lookups, self.full)


# tuples per _DivisorIndex: an index holds up to one mask of _BLOCK bits per
# variable and distinct exponent, so a long list is indexed block by block,
# in memory linear in its length whatever its exponents
_BLOCK = 1024


def _minimalize(exponents) -> tuple:
    """Reduce exponent tuples to the unique minimal generating set, in
    descending lex order.

    A tuple is minimal exactly when no other tuple divides it.  A proper
    divisor is lex smaller, so it comes later in this order: the block
    from ``start`` can divide only the tuples before its end, and the tuple
    at block position p only through the bits above p.  Distinct tuples of
    one degree never divide each other, so a list of one degree (a
    quadratic ideal, say) is minimal as it stands.
    """
    gens = sorted(set(exponents), reverse=True)
    if len(set(map(sum, gens))) <= 1:
        return tuple(gens)
    minimal = [True] * len(gens)
    for start in range(0, len(gens), _BLOCK):
        index = _DivisorIndex(gens[start:start + _BLOCK])
        for i in range(min(start + _BLOCK, len(gens))):
            if minimal[i] and index.divisors(gens[i]) >> max(0, i - start + 1):
                minimal[i] = False
    return tuple(compress(gens, minimal))


def _quadric_outside(generators, n: int, products):
    """The first (a, b) of ``products`` for which no generator divides
    x_a*x_b (x_a^2 when a == b), or None.

    Only 1, x_a, x_b and x_a*x_b divide x_a*x_b, so one set of the
    generators answers each pair exactly, whatever their degrees.  A listed
    unit divides everything; a pair with an index from n on is returned as
    is, since only 1 divides it.
    """
    present = set(generators)
    if (0,) * n in present:
        return None

    def monomial(*indices):
        exps = [0] * n
        for i in indices:
            exps[i] += 1
        return tuple(exps)

    for a, b in products:
        if max(a, b) >= n or present.isdisjoint((monomial(a), monomial(b), monomial(a, b))):
            return a, b
    return None


def _ideal_from_minimal(n: int, monomials) -> "MonomialIdeal":
    """Wrap generators that the caller knows to be pairwise incomparable,
    skipping _minimalize's divisor index; the descending sort still applies."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "n", n)
    object.__setattr__(ideal, "generators", tuple(sorted(monomials, reverse=True)))
    return ideal


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in K[x1..xn], held by its minimal generating set of
    exponent tuples."""

    n: int
    generators: tuple = field(default=())

    def __post_init__(self):
        if self.n < 0:
            raise InputError("ambient variable count must be nonnegative")
        gens = []
        for g in self.generators:
            # map and min run in C: a long vector is converted and checked
            # without a Python step per entry
            try:
                exps = tuple(map(int, g))
            except (TypeError, ValueError):
                raise InputError(f"generator {g!r} is not a vector of integer exponents") from None
            if not exps:
                raise InputError("zero-length exponent vector is disallowed")
            if min(exps) < 0:
                raise InputError("negative exponent")
            if len(exps) != self.n:
                raise InputError(
                    f"generator {format_monomial(exps)} has {len(exps)} variables, "
                    f"ambient has {self.n}"
                )
            gens.append(exps)
        object.__setattr__(self, "generators", _minimalize(gens))

    @classmethod
    def from_strings(cls, n: int, gens) -> "MonomialIdeal":
        return cls(n, tuple(parse_monomial(s, n) for s in gens))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return (0,) * self.n in self.generators

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(max(g) <= 1 for g in self.generators)

    def generated_in_degree(self, d: int) -> bool:
        return all(sum(g) == d for g in self.generators)

    def generator_strings(self) -> list:
        """``format_monomial`` of each generator, in order.

        A factor string is built once per distinct (variable, exponent) of
        this call: a long companion repeats few of them, and a per-variable
        table built up front would cost more than a short ideal's strings.
        """
        factors: dict = {}
        strings = []
        for g in self.generators:
            parts = []
            for key in enumerate(g, 1):
                if key[1]:
                    text = factors.get(key)
                    if text is None:
                        j, e = key
                        text = factors[key] = f"x{j}" if e == 1 else f"x{j}^{e}"
                    parts.append(text)
            strings.append("*".join(parts) or "1")
        return strings

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
        bad = [format_monomial(g) for g in ideal.generators if sum(g) != 2]
        raise InputError(f"generators must have degree 2; offending: {', '.join(bad)}")


def polarize(ideal: MonomialIdeal):
    """Replace each power x_i^a by a product of a distinct new variables.

    Returns ``(squarefree ideal, classes)`` where ``classes[i]`` lists the
    new variable indices standing in for x_i.  Every original variable keeps
    a class of size max(1, largest exponent among the generators), so a
    squarefree ideal polarizes to itself.  The resulting ideal has the same
    graded Betti numbers as the input.  Its generators stay minimal, since u
    divides v exactly when pol(u) divides pol(v).
    """
    n = ideal.n
    width = [1] * n
    for g in ideal.generators:
        for j, e in enumerate(g):
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
        for j, e in enumerate(g):
            for k in range(e):
                exps[offsets[j] + k] = 1
        new_gens.append(tuple(exps))
    return _ideal_from_minimal(total, new_gens), classes
