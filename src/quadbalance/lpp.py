"""Lex-plus-powers ideals with a prescribed Hilbert function.

The construction works inside the quotient by the pure powers.  In every
degree the monomials forced into the ideal form an initial segment in
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
one beyond the last pick plus the sum of the powers, the target beyond its
numerator degree.  Both polynomials have degree below n, so per-degree
equality on n+1 consecutive degrees past those bounds pins them against
each other and certifies equality of the two series in all degrees at
once.  The loop therefore terminates exactly when the realization is
certified, with no degree cap; an explicit ``max_degree`` only limits the
degrees that may receive generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .covers import height
from .errors import InputError, UnattainableTargetError
from .hilbert import HilbertData, hilbert_function, series_numerator
from .monomials import Monomial, MonomialIdeal, _ideal_from_minimal


class _SegmentCounter:
    """Lex-segment bookkeeping in the quotient by the powers.

    caps[i] is powers[i] - 1 for the capped variables and None beyond.  The
    signed offsets realize inclusion-exclusion over the capped variables, so
    slice sizes and segment sizes come out as short alternating sums of
    binomials and no degree slice is ever enumerated.
    """

    __slots__ = ("n", "caps", "offsets")

    def __init__(self, n: int, powers):
        self.n = n
        self.caps = tuple(p - 1 for p in powers) + (None,) * (n - len(powers))
        offsets = [((1, 0),)] * (n + 1)
        for v in range(n - 1, -1, -1):
            below = offsets[v + 1]
            if self.caps[v] is None:
                offsets[v] = below
            else:
                step = self.caps[v] + 1
                offsets[v] = below + tuple((-s, off + step) for s, off in below)
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

    def top_monomial(self, d: int):
        """The lex-largest monomial of degree d, filling caps from the left."""
        exps = []
        rem = d
        for cap in self.caps:
            take = rem if cap is None else min(cap, rem)
            exps.append(take)
            rem -= take
        if rem:
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
                exps = list(m[:j]) + [m[j] - 1]
                rem = carry + 1
                for i in range(j + 1, self.n):
                    cap = self.caps[i]
                    take = rem if cap is None else min(cap, rem)
                    exps.append(take)
                    rem -= take
                return tuple(exps)
        raise RuntimeError("internal error: walked past the end of the slice")


@dataclass(frozen=True)
class LppTarget:
    """A target Hilbert function for a powers-plus-lex construction."""

    n: int
    powers: tuple
    target: HilbertData

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(self.powers))
        if self.target.n != self.n:
            raise InputError("target Hilbert data lives in a different ambient ring")
        if len(self.powers) > self.n:
            raise InputError("more powers than variables")


@dataclass(frozen=True)
class LppResult:
    ideal: MonomialIdeal
    picked_by_degree: dict
    series_equal: bool
    top_degree: int


def _assemble(n: int, power_gens, picks) -> MonomialIdeal:
    """Collect powers plus picks into an ideal without the quadratic sweep.

    Picks are pairwise incomparable by construction (each one was live when
    chosen, and the slices exclude multiples of the powers), so the only
    possible redundancy is a power x_i^p eclipsed by a pure-power pick x_i^k.
    """
    pure = set()
    for m in picks:
        support = m.support()
        if len(support) == 1:
            pure.update(support)
    kept = [p for i, p in enumerate(power_gens) if i not in pure]
    return _ideal_from_minimal(n, kept + list(picks))


def construct_lex_plus_powers(target: LppTarget, max_degree: int | None = None) -> LppResult:
    """Greedy lex-segment selection realizing the target Hilbert function.

    The walk certifies the series equality through the polynomial tail lock
    described in the module docstring, so a result with ``series_equal``
    set is exact in every degree.  When ``max_degree`` is given, a pick
    forced beyond it abandons the search with ``series_equal=False``.
    """
    n = target.n
    data = target.target
    num = data.numerator
    if any(p < 1 for p in target.powers):
        raise InputError("powers must be positive")
    if data.value(0) != 1:
        raise UnattainableTargetError("a proper monomial quotient has HF(0) = 1", degree=0)
    power_gens = []
    for i, p in enumerate(target.powers):
        exps = [0] * n
        exps[i] = p
        power_gens.append(Monomial(tuple(exps)))
    partial = MonomialIdeal(n, tuple(power_gens))
    if series_numerator(partial) == num:
        return LppResult(partial, {}, True, 0)
    counter = _SegmentCounter(n, target.powers)
    picks: list = []
    picked_by_degree: dict = {}
    boundary = None
    top = 0
    margin = sum(target.powers) + n
    d = 0
    while True:
        d += 1
        value = data.value(d)
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
                    _assemble(n, power_gens, picks), picked_by_degree, False, max_degree
                )
            exps = (
                counter.predecessor(shadow_boundary)
                if shadow_boundary is not None
                else counter.top_monomial(d)
            )
            for i in range(k):
                if i:
                    exps = counter.predecessor(exps)
                picks.append(Monomial(exps))
            boundary = exps
            picked_by_degree[d] = k
            top = d
        else:
            boundary = shadow_boundary
        if d >= max(top + margin, len(num)) + n:
            return LppResult(_assemble(n, power_gens, picks), picked_by_degree, True, top)


def missing_square(generators, n: int, g: int):
    """The first i < g whose square x_i^2 no generator divides, or None."""
    for i in range(g):
        square = Monomial(tuple(2 if j == i else 0 for j in range(n)))
        if not any(m.divides(square) for m in generators):
            return i
    return None


@dataclass(frozen=True)
class EghReport:
    """Outcome of the quadratic powers-plus-lex realization."""

    source: MonomialIdeal
    result: LppResult
    g: int

    @property
    def ideal(self) -> MonomialIdeal:
        return self.result.ideal


def egh_for_quadratic(ideal: MonomialIdeal, max_degree: int | None = None) -> EghReport:
    """Realize the Hilbert function of a quadratic monomial ideal by an ideal
    containing the squares of the first g = height(I) variables.

    The result is certified by exact Hilbert-series equality.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal needs no realization")
    if not ideal.is_proper():
        raise InputError("the unit ideal is out of scope")
    if not ideal.generated_in_degree(2):
        bad = [str(g) for g in ideal.generators if g.degree != 2]
        raise InputError(f"generators must have degree 2; offending: {', '.join(bad)}")
    g = height(ideal)
    data = hilbert_function(ideal, bound=0)
    target = LppTarget(ideal.n, (2,) * g, data)
    result = construct_lex_plus_powers(target, max_degree)
    if not result.series_equal:
        raise UnattainableTargetError(
            f"no powers-plus-lex ideal matched the series within degree {result.top_degree}"
        )
    if missing_square(result.ideal.generators, ideal.n, g) is not None:
        raise RuntimeError("internal error: a required square escaped the ideal")
    return EghReport(ideal, result, g)
