"""Lex-plus-squares ideals with a prescribed Hilbert function.

The target is a Hilbert series numerator N over (1-t)^n.  The construction
works inside A = S/(x1^2..xg^2), the only powers the paper's ideals contain.
In every degree the monomials forced into the ideal form an initial segment
L in descending lexicographic order (x1 > x2 > ... > xn), so the whole state
is L's smallest element, the boundary B, plus a histogram: hist[j] counts
the monomials of L whose largest variable is x_j.  The shadow of L is the
segment above B * x_w, where x_w is the last variable with room under its
cap; comparing its size with the target value dictates how many new
generators the degree needs, and they sit at consecutive lex positions
directly after the shadow.

The shadow's size comes from the histogram (Eliahou-Kervaire).  Write
max(u) for the largest index of a variable dividing u.  The shadow is
stable: if u = m * x_k with m in L and i = max(u) > k, then u/x_i =
(m/x_i) * x_k divides u, so it is nonzero in A, and it is lex above m, so
it lies in L.  Hence every shadow monomial u is (u/x_i) * x_i with u/x_i in
L and i >= max(u/x_i), and in one way only.  Conversely m * x_i with m in L
and i >= max(m) is nonzero in A unless i = max(m) < g, where x_i already
divides m.  So the shadow has new[i] = sum(hist[j] for j < i) monomials
with largest variable x_i, plus hist[i] when x_i is uncapped (i >= g); each
pick then adds one under its own largest variable.

A degree's picks are consecutive in lex order, so each is the predecessor
of the one before.  Write a pick as (h, a, b), with a and b the exponents of
x_{n-1} and x_n.  While x_n is free (g < n), the predecessor lowers the last
nonzero exponent before x_n by one and puts that unit, with the degree after
it, into the lex-largest monomial of the variables after it.  When a > 0
the lowered exponent is a, the only variable after it is x_n, which has no
cap, and the predecessor is (h, a-1, b+1).  So the picks from (h, a, b) on
run (h, a-1, b+1), ..., (h, 0, a+b) and are emitted as one run, all under
x_n except a first one with b = 0; only the step past (h, 0, a+b) lowers an
exponent in h and needs the general predecessor.

Both Hilbert functions are carried from degree to degree: taking partial
sums of a coefficient sequence multiplies its series by 1/(1-t), so n
running sums, each advanced by one addition per degree, turn N into HF(d)
and (1-t^2)^g into the slice size of A.  No degree slice is ever listed,
and a degree costs O(n) additions plus its picks.

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
from itertools import accumulate, count

from .errors import InputError, UnattainableTargetError
from .hilbert import one_minus_t_power, pole_order, series_numerator
from .monomials import MonomialIdeal, _ideal_from_minimal, _quadric_outside, _require_quadratic

# egh's refusal of a zero source, which verify shares
_ZERO_SOURCE = "the zero ideal needs no realization"


class _LexSteps:
    """Lex-order steps in the quotient by the squares of x1..xg.

    caps[i] is 1 for the first g variables and None beyond.
    """

    __slots__ = ("n", "g", "caps")

    def __init__(self, n: int, g: int):
        self.n = n
        self.g = g
        self.caps = (1,) * g + (None,) * (n - g)

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
        if start >= self.g:
            return (d,) + (0,) * (self.n - start - 1)
        exps = []
        for cap in self.caps[start:]:
            take = d if cap is None else min(cap, d)
            exps.append(take)
            d -= take
        if d:
            raise RuntimeError("internal error: degree exceeds the quotient")
        return tuple(exps)

    def predecessor(self, m):
        """The next monomial below m in descending lex, same degree.

        It lowers the last exponent m[j] whose followers can take one more
        unit: any m[j] when the last variable is uncapped, else (all caps 1)
        one whose followers have degree below their count n - 1 - j.
        """
        n = self.n
        free = self.g < n
        carry = 0
        for j in range(n - 2, -1, -1):
            carry += m[j + 1]
            if m[j] and (free or carry < n - 1 - j):
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


def _assemble(n: int, squares, picks, linear: int) -> MonomialIdeal:
    """Collect squares plus picks into an ideal without the quadratic sweep.

    Picks are pairwise incomparable by construction (each one was live when
    chosen, and the slices exclude multiples of the squares), so the only
    possible redundancy is a square x_i^2 eclipsed by a degree-one pick x_i:
    one of the first ``linear`` picks.
    """
    eclipsed = {m.index(1) for m in picks[:linear]}
    kept = [p for i, p in enumerate(squares) if i not in eclipsed]
    return _ideal_from_minimal(n, kept + picks)


def _last_variable(exps) -> int:
    """The largest index of a variable dividing a nonconstant monomial."""
    last = len(exps) - 1
    while not exps[last]:
        last -= 1
    return last


def _hilbert_values(numerator, n: int):
    """HF(0), HF(1), ... of numerator/(1-t)^n, by n running sums: in degree
    d, sums[k] is the coefficient of t^d in numerator/(1-t)^k."""
    sums = [0] * (n + 1)
    for d in count():
        sums = list(accumulate(sums[1:], initial=numerator[d] if d < len(numerator) else 0))
        yield sums[-1]


def construct_lex_plus_powers(
    n: int, g: int, numerator, max_degree: int | None = None, max_picks: int | None = None
) -> LppResult:
    """Greedy lex-segment selection, in n variables over the squares of the
    first g, realizing the Hilbert function numerator/(1-t)^n.

    The walk certifies the series equality through the polynomial tail lock
    described in the module docstring, so a result with ``series_equal``
    set is exact in every degree.  When ``max_degree`` is given, a pick
    forced beyond it abandons the search with ``series_equal=False``.  When
    ``max_picks`` is given, a degree whose picks would take the total past
    it raises ``UnattainableTargetError`` before they are emitted: every
    pick is a minimal generator, so the ideal would have more generators.
    """
    if not 0 <= g <= n:
        raise InputError(f"need 0 <= g <= n squares, got g = {g} for n = {n}")
    target = _hilbert_values(numerator, n)
    if next(target) != 1:
        raise UnattainableTargetError("a proper monomial quotient has HF(0) = 1", degree=0)
    squares = [(0,) * i + (2,) + (0,) * (n - i - 1) for i in range(g)]
    # (1-t^2)^g, the numerator of the squares alone
    quotient = tuple(c for a in one_minus_t_power(g) for c in (a, 0))[: 2 * g + 1]
    slices = _hilbert_values(quotient, n)
    next(slices)
    steps = _LexSteps(n, g)
    # while x_n is free, one degree's consecutive picks come in runs
    runs = g < n and n >= 2
    hist = [0] * n
    picks: list = []
    picked_by_degree: dict = {}
    boundary = None
    top = 0
    margin = 2 * g + n
    d = 0
    while True:
        d += 1
        value = next(target)
        if value < 0:
            raise UnattainableTargetError(f"the target is negative in degree {d}", degree=d)
        shadow_boundary = steps.successor(boundary) if boundary is not None else None
        below = list(accumulate(hist, initial=0))
        hist = below[:g] + below[g + 1 :]
        shadow = sum(hist)
        in_slice = next(slices)
        k = in_slice - value - shadow
        if k < 0:
            raise UnattainableTargetError(
                f"degree {d} offers {in_slice - shadow} monomials but the target wants "
                f"{value}",
                degree=d,
            )
        if k:
            if max_degree is not None and d > max_degree:
                series_equal, top = False, max_degree
                break
            if max_picks is not None and len(picks) + k > max_picks:
                raise UnattainableTargetError(
                    f"the companion has more than {max_picks} generators: "
                    f"its picks pass that count in degree {d}",
                    degree=d,
                )
            exps = (
                steps.predecessor(shadow_boundary)
                if shadow_boundary is not None
                else steps.top_monomial(d)
            )
            left = k
            while True:
                if runs:
                    # a run (h, a, b), (h, a-1, b+1), ..., (h, 0, a+b): every
                    # pick but a first with b = 0 has largest variable x_n
                    head, a, b = exps[:-2], exps[-2], exps[-1]
                    run = min(left, a + 1)
                    picks += map(head.__add__, zip(range(a, a - run, -1), range(b, b + run)))
                    hist[-1] += run
                    if not b:
                        hist[-1] -= 1
                        hist[_last_variable(exps)] += 1
                    exps = picks[-1]
                else:
                    run = 1
                    picks.append(exps)
                    hist[_last_variable(exps)] += 1
                left -= run
                if not left:
                    break
                exps = steps.predecessor(exps)
            boundary = exps
            picked_by_degree[d] = k
            top = d
        else:
            boundary = shadow_boundary
        if d >= max(top + margin, len(numerator)) + n:
            series_equal = True
            break
    ideal = _assemble(n, squares, picks, picked_by_degree.get(1, 0))
    return LppResult(ideal, g, picked_by_degree, series_equal, top)


def missing_square(generators, n: int, g: int):
    """The first i < g whose square x_i^2 no generator divides, or None."""
    pair = _quadric_outside(generators, n, ((i, i) for i in range(g)))
    return None if pair is None else pair[0]


def egh_for_quadratic(
    ideal: MonomialIdeal, max_degree: int | None = None, max_picks: int | None = None
) -> LppResult:
    """Realize the Hilbert function of a quadratic monomial ideal by an ideal
    containing the squares of the first g = height(I) variables.

    The result is certified by exact Hilbert-series equality.  ``max_picks``
    bounds the walk as in ``construct_lex_plus_powers``.
    """
    _require_quadratic(ideal, _ZERO_SOURCE)
    numerator = series_numerator(ideal)
    result = construct_lex_plus_powers(
        ideal.n, pole_order(numerator), numerator, max_degree, max_picks
    )
    if not result.series_equal:
        raise UnattainableTargetError(
            f"no powers-plus-lex ideal matched the series within degree {result.top_degree}"
        )
    if missing_square(result.ideal.generators, ideal.n, result.g) is not None:
        raise RuntimeError("internal error: a required square escaped the ideal")
    return result
