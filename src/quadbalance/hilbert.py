"""Hilbert functions of monomial quotients, exactly.

The Hilbert series of S/I is N(t)/(1-t)^n.  The numerator N is computed by
the standard pivot recursion

    N(I) = N(I + (x)) + t * N(I : x)

on the most frequent variable x among the generators, with the base cases
I = (0), I = (1), and pairwise coprime generators (where N is a product of
1 - t^deg factors).  N does not depend on the ambient variable count or on
the variable order, so results are memoized on the generator sets with
unused variables projected away.  Numerator equality certifies equality of
the Hilbert functions in *all* degrees at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError
from .monomials import MonomialIdeal, _minimalize

# ---------------------------------------------------------------------------
# integer polynomials as tuples of coefficients, no trailing zeros, () = 0


def poly_trim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_shift(a, k: int) -> tuple:
    """Multiply by t^k."""
    return poly_trim((0,) * k + tuple(a)) if a else ()


def one_minus_t_power(k: int) -> tuple:
    """(1 - t)^k."""
    return tuple((-1) ** i * comb(k, i) for i in range(k + 1))


# ---------------------------------------------------------------------------

_MEMO: dict = {}


def _canonical(gens: frozenset) -> tuple:
    """Project away unused variables and sort; the numerator is invariant."""
    if not gens:
        return ()
    width = len(next(iter(gens)))
    used = [j for j in range(width) if any(g[j] for g in gens)]
    return tuple(sorted(tuple(g[j] for j in used) for g in gens))


def _numerator(gens: frozenset) -> tuple:
    """Numerator of S/I for a frozenset of exponent tuples generating I.
    The set need not be minimal: the pivot identity holds for any generating
    set, pairwise coprime nonunits are minimal, and the colon step
    minimalizes its own output."""
    if not gens:
        return (1,)
    key = _canonical(gens)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    width = len(next(iter(gens)))
    counts = [0] * width
    for g in gens:
        for j, e in enumerate(g):
            if e:
                counts[j] += 1
    if any(sum(g) == 0 for g in gens):
        result = ()  # unit ideal
    elif max(counts) <= 1:
        # pairwise coprime generators: complete intersection
        result = (1,)
        for g in gens:
            d = sum(g)
            factor = [0] * (d + 1)
            factor[0] = 1
            factor[d] = -1
            result = poly_mul(result, tuple(factor))
    else:
        v = counts.index(max(counts))
        unit = tuple(1 if j == v else 0 for j in range(width))
        plus = frozenset(g for g in gens if g[v] == 0) | {unit}
        colon = frozenset(
            _minimalize(
                tuple(e - 1 if j == v and e else e for j, e in enumerate(g)) for g in gens
            )
        )
        result = poly_add(_numerator(plus), poly_shift(_numerator(colon), 1))
    _MEMO[key] = result
    return result


def series_numerator(ideal: MonomialIdeal) -> tuple:
    """Numerator of the Hilbert series of S/I over (1-t)^n."""
    return _numerator(frozenset(g.exponents for g in ideal.generators))


def expansion_coefficient(n: int, k: int) -> int:
    """Coefficient of t^k in (1-t)^(-n)."""
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


def window_from_numerator(numerator, n: int, bound: int) -> tuple:
    """Values HF(0..bound) of the series numerator/(1-t)^n."""
    return tuple(
        sum(c * expansion_coefficient(n, d - j) for j, c in enumerate(numerator) if j <= d)
        for d in range(bound + 1)
    )


@dataclass(frozen=True)
class HilbertData:
    """A Hilbert function: an exact series numerator plus a value window.

    The numerator together with the ambient count n determines HF in every
    degree; the window is a convenience slice HF(0..D).
    """

    n: int
    window: tuple
    numerator: tuple

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "numerator", poly_trim(self.numerator))

    def value(self, d: int) -> int:
        if d < 0:
            return 0
        return sum(
            c * expansion_coefficient(self.n, d - j)
            for j, c in enumerate(self.numerator)
            if j <= d
        )


def hilbert_function(ideal: MonomialIdeal, bound: int | None = None) -> HilbertData:
    """Hilbert function of S/I on the window 0..bound, with exact numerator.

    The default bound is n plus the largest generator degree.
    """
    if bound is None:
        maxdeg = max((g.degree for g in ideal.generators), default=0)
        bound = ideal.n + maxdeg
    if bound < 0:
        raise InputError("window bound must be nonnegative")
    num = series_numerator(ideal)
    return HilbertData(ideal.n, window_from_numerator(num, ideal.n, bound), num)
