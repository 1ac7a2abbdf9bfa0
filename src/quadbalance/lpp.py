"""Lex-plus-squares ideals with a prescribed Hilbert function.

The target is a Hilbert series numerator N over (1-t)^n; HF(d) is read off
N directly, in any degree.  The construction works inside the quotient by
the squares x1^2..xg^2, the only powers the paper's ideals contain.  In
every degree the monomials forced into the ideal form an initial segment in
descending lexicographic order (x1 > x2 > ... > xn), so the whole state is
a single boundary monomial, the segment's smallest element.  The shadow of
the segment above B is the segment above B * x_w, where x_w is the last
variable with room under its cap; comparing its size with the target value
dictates how many new generators the degree needs, and they sit at
consecutive lex positions directly after the shadow.  Everything is done
with counting formulas and an iterated predecessor, never by listing a
degree slice, so generators in high degrees cost almost nothing.

Once picks stop, the boundary only accumulates the last variable, and both
Hilbert functions agree with polynomials in the degree: the constructed
one beyond the last pick plus 2g, the target beyond the degree of N.  Both
polynomials have degree below n, so per-degree equality on n+1 consecutive
degrees past those bounds pins them against each other and certifies
equality of the two series in all degrees at once.  The loop therefore
terminates exactly when the realization is certified, with no degree cap;
an explicit ``max_degree`` only limits the degrees that may receive
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .covers import height
from .errors import InputError, UnattainableTargetError
from .hilbert import _value, series_numerator
from .monomials import MonomialIdeal, _ideal_from_minimal, _require_quadratic, support

# egh's refusal of a zero source, which verify shares
_ZERO_SOURCE = "the zero ideal needs no realization"


class _SegmentCounter:
    """Lex-segment bookkeeping in the quotient by the squares of x1..xg.

    caps[i] is 1 for the first g variables and None beyond.  The signed
    offsets realize inclusion-exclusion over the capped variables, so slice
    sizes and segment sizes come out as short alternating sums of binomials
    and no degree slice is ever enumerated.
    """

    __slots__ = ("n", "caps", "offsets")

    def __init__(self, n: int, g: int):
        self.n = n
        self.caps = (1,) * g + (None,) * (n - g)
        offsets = [((1, 0),)] * (n + 1)
        for v in range(g - 1, -1, -1):
            below = offsets[v + 1]
            offsets[v] = below + tuple((-s, off + 2) for s, off in below)
        self.offsets = offsets

    def cum(self, v: int, bound: int) -> int:
        """Monomials in the variables past position v of degree <= bound."""
        if bound < 0:
            return 0
        k = self.n - v
        total = 0
        for sign, off in self.offsets[v]:
            m = bound - off + k
            if m >= k:
                total += sign * comb(m, k)
        return total

    def slice_count(self, d: int) -> int:
        return self.cum(0, d) - self.cum(0, d - 1)

    def count_from(self, m, d: int) -> int:
        """Degree-d monomials lex at or above m, where m has degree d."""
        total = 1
        left = d
        for v in range(self.n):
            gap = self.cum(v + 1, left - m[v] - 1)
            cap = self.caps[v]
            if cap is not None:
                gap -= self.cum(v + 1, left - cap - 1)
            total += gap
            left -= m[v]
        return total

    def successor(self, m):
        """Boundary of the shadow: m times the last variable with room."""
        for v in range(self.n - 1, -1, -1):
            cap = self.caps[v]
            if cap is None or m[v] < cap:
                return m[:v] + (m[v] + 1,) + m[v + 1 :]
        return None

    def top_monomial(self, d: int, start: int = 0):
        """The lex-largest monomial of degree d in the variables from
        position ``start`` on (their exponents only), filling caps from the
        left."""
        exps = []
        for cap in self.caps[start:]:
            take = d if cap is None else min(cap, d)
            exps.append(take)
            d -= take
        if d:
            raise RuntimeError("internal error: degree exceeds the quotient")
        return tuple(exps)

    def predecessor(self, m):
        """The next monomial below m in descending lex, same degree."""
        carry = 0
        room = 0
        unbounded = False
        for j in range(self.n - 2, -1, -1):
            cap = self.caps[j + 1]
            if cap is None:
                unbounded = True
            elif not unbounded:
                room += cap
            carry += m[j + 1]
            if m[j] and (unbounded or carry < room):
                return m[:j] + (m[j] - 1,) + self.top_monomial(carry + 1, j + 1)
        raise RuntimeError("internal error: walked past the end of the slice")


@dataclass(frozen=True)
class LppResult:
    """The constructed ideal over the squares of the first g variables."""

    ideal: MonomialIdeal
    g: int
    picked_by_degree: dict
    series_equal: bool
    top_degree: int


def _assemble(n: int, squares, picks) -> MonomialIdeal:
    """Collect squares plus picks into an ideal without the quadratic sweep.

    Picks are pairwise incomparable by construction (each one was live when
    chosen, and the slices exclude multiples of the squares), so the only
    possible redundancy is a square x_i^2 eclipsed by a degree-one pick x_i.
    """
    pure = set()
    for m in picks:
        variables = support(m)
        if len(variables) == 1:
            pure.update(variables)
    kept = [p for i, p in enumerate(squares) if i not in pure]
    return _ideal_from_minimal(n, kept + list(picks))


def construct_lex_plus_powers(
    n: int, g: int, numerator, max_degree: int | None = None
) -> LppResult:
    """Greedy lex-segment selection, in n variables over the squares of the
    first g, realizing the Hilbert function numerator/(1-t)^n.

    The walk certifies the series equality through the polynomial tail lock
    described in the module docstring, so a result with ``series_equal``
    set is exact in every degree.  When ``max_degree`` is given, a pick
    forced beyond it abandons the search with ``series_equal=False``.
    """
    if not 0 <= g <= n:
        raise InputError(f"need 0 <= g <= n squares, got g = {g} for n = {n}")
    if _value(numerator, n, 0) != 1:
        raise UnattainableTargetError("a proper monomial quotient has HF(0) = 1", degree=0)
    squares = [(0,) * i + (2,) + (0,) * (n - i - 1) for i in range(g)]
    partial = MonomialIdeal(n, tuple(squares))
    if series_numerator(partial) == numerator:
        return LppResult(partial, g, {}, True, 0)
    counter = _SegmentCounter(n, g)
    picks: list = []
    picked_by_degree: dict = {}
    boundary = None
    top = 0
    margin = 2 * g + n
    d = 0
    while True:
        d += 1
        value = _value(numerator, n, d)
        if value < 0:
            raise UnattainableTargetError(f"the target is negative in degree {d}", degree=d)
        shadow_boundary = counter.successor(boundary) if boundary is not None else None
        shadow = counter.count_from(shadow_boundary, d) if shadow_boundary is not None else 0
        in_slice = counter.slice_count(d)
        k = in_slice - value - shadow
        if k < 0:
            raise UnattainableTargetError(
                f"degree {d} offers {in_slice - shadow} monomials but the target wants "
                f"{value}",
                degree=d,
            )
        if k:
            if max_degree is not None and d > max_degree:
                return LppResult(
                    _assemble(n, squares, picks), g, picked_by_degree, False, max_degree
                )
            exps = (
                counter.predecessor(shadow_boundary)
                if shadow_boundary is not None
                else counter.top_monomial(d)
            )
            for i in range(k):
                if i:
                    exps = counter.predecessor(exps)
                picks.append(exps)
            boundary = exps
            picked_by_degree[d] = k
            top = d
        else:
            boundary = shadow_boundary
        if d >= max(top + margin, len(numerator)) + n:
            return LppResult(_assemble(n, squares, picks), g, picked_by_degree, True, top)


def missing_square(generators, n: int, g: int):
    """The first i < g whose square x_i^2 no generator divides, or None.

    Only 1, x_i and x_i^2 divide x_i^2, so one set of the generators answers
    each i.  For i >= n the square is the zero tuple, which only 1 divides.
    """
    present = set(generators)
    zero = (0,) * n
    if zero in present:
        return None
    for i in range(g):
        if i >= n or present.isdisjoint(zero[:i] + (e,) + zero[i + 1 :] for e in (1, 2)):
            return i
    return None


def egh_for_quadratic(ideal: MonomialIdeal, max_degree: int | None = None) -> LppResult:
    """Realize the Hilbert function of a quadratic monomial ideal by an ideal
    containing the squares of the first g = height(I) variables.

    The result is certified by exact Hilbert-series equality.
    """
    _require_quadratic(ideal, _ZERO_SOURCE)
    g = height(ideal)
    result = construct_lex_plus_powers(ideal.n, g, series_numerator(ideal), max_degree)
    if not result.series_equal:
        raise UnattainableTargetError(
            f"no powers-plus-lex ideal matched the series within degree {result.top_degree}"
        )
    if missing_square(result.ideal.generators, ideal.n, g) is not None:
        raise RuntimeError("internal error: a required square escaped the ideal")
    return result
