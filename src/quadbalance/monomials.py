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
from operator import and_, getitem, itemgetter, or_

from .errors import InputError

# one factor of the text syntax, padded with the whitespace str.strip
# removes (both use the same Unicode test)
_FACTOR_RE = re.compile(r"\s*x(\d+)(?:\^(\d+))?\s*")


def support(exponents) -> frozenset:
    """The indices of the variables dividing the monomial."""
    return frozenset(compress(count(), exponents))


def parse_monomial(text: str, n: int) -> tuple:
    """Parse ``x3^2*x5`` (1-based) into its exponent tuple in n variables.

    The stripped text is read one "*"-separated factor at a time, and the
    first bad factor or number in reading order is refused.
    """
    if not isinstance(text, str):
        raise InputError(f"a monomial must be a string, got {type(text).__name__}")
    factors = text.strip().split("*")
    if factors == ["1"]:
        if n < 1:
            raise InputError("constant monomial needs an ambient ring with n >= 1")
        return (0,) * n
    exps = [0] * n
    match = _FACTOR_RE.fullmatch
    try:
        for factor in factors:
            m = match(factor)
            if m is None:
                problem = f"bad monomial factor {factor.strip()!r}"
                break
            i = int(m[1])
            if not 0 < i <= n:
                problem = f"variable x{i} out of range 1..{n}"
                break
            exps[i - 1] += int(m[2] or 1)
        else:
            return tuple(exps)
    except ValueError:
        # int() refuses digit strings longer than sys.get_int_max_str_digits()
        raise InputError(f"a number in monomial {text[:40]!r}... has too many digits") from None
    # an equal factor before the refused one would have been refused first
    pos = sum(len(f) + 1 for f in factors[:factors.index(factor)])
    raise InputError(f"{problem} at position {pos} in {text!r}")


class _Factors(dict):
    """The factor text of x_j^e with a trailing ``*``, built on first lookup;
    "" for e = 0."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        super().__init__({0: ""})
        self.j = j

    def __missing__(self, e):
        text = self[e] = f"x{self.j}*" if e == 1 else f"x{self.j}^{e}*"
        return text


_CHOP = itemgetter(slice(None, -1))


def _format_all(exponent_tuples) -> list:
    """The text syntax of each exponent tuple: ``x3^2*x5`` (1-based), or ``1``.

    The tuples, all of one length, are written column by column: each column
    is mapped through its factor table, which builds each distinct factor
    string once per call (a long companion repeats few of them), and each
    row is one join of its factors, minus the last ``*``, with no Python
    step per row or entry.
    """
    if not exponent_tuples or not exponent_tuples[0]:
        # tuples of length 0 have no column to write
        return ["1"] * len(exponent_tuples)
    columns = enumerate(zip(*exponent_tuples), 1)
    pieces = [map(_Factors(j).__getitem__, column) for j, column in columns]
    strings = list(map(_CHOP, map("".join, zip(*pieces))))
    # only the unit tuple has no factor
    return [s or "1" for s in strings] if "" in strings else strings


def format_monomial(exponents) -> str:
    """The text syntax of an exponent tuple: ``x3^2*x5`` (1-based), or ``1``."""
    return _format_all((exponents,))[0]


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

    Only 1, x_a, x_b and x_a*x_b divide x_a*x_b, so the generators of
    degree at most 2, keyed by their variable indices with multiplicity,
    answer each pair exactly in three lookups, whatever the other degrees
    and n.  A listed unit divides everything; a pair with an index from n
    on is returned as is, since only 1 divides it.
    """
    keys = set()
    # counting the zeros rules out most of a long list at less cost than a sum
    few = n - 2
    for g in generators:
        if g.count(0) >= few and (degree := sum(g)) <= 2:
            key = tuple(compress(count(), g))
            keys.add(key * 2 if len(key) < degree else key)
    if () in keys:
        return None
    for a, b in products:
        if max(a, b) >= n or keys.isdisjoint(((a,), (b,), (min(a, b), max(a, b)))):
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
        """``format_monomial`` of each generator, in order."""
        return _format_all(self.generators)

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
