"""Hilbert functions of monomial quotients, exactly.

The Hilbert series of S/I is N(t)/(1-t)^n.  The numerator N is computed by
the standard pivot recursion

    N(I) = N(I + (x)) + t * N(I : x)

on the most frequent variable x among the generators, with the base cases
I = (0), I = (1), and pairwise coprime generators (where N is a product of
1 - t^deg factors).  The generators are minimalized once, on entry; after
that both children are formed minimal directly (a structured colon step,
see _split), and the recursion runs on an explicit stack.  N does not
depend on the ambient variable count or on the variable order, so results
are memoized on the generator sets with unused variables projected away.
Numerator equality certifies equality of the Hilbert functions in *all*
degrees at once.

A list of the squares of x1..xg plus the minimal generators of an ideal
stable in S/(x1^2..xg^2), such as a lex-plus-squares companion, has its
numerator in closed form instead (_stable_numerator): one term per
generator, after checks on the list that prove the formula applies.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import comb
from operator import le

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
    used = list(map(any, zip(*gens)))
    if all(used):
        return tuple(sorted(gens))
    return tuple(sorted(tuple(compress(g, used)) for g in gens))


def _numerator(gens) -> tuple:
    """Numerator of S/I for exponent tuples generating I.

    The tuples need not be minimal: they are minimalized once, on entry, and
    _split keeps every node of the recursion minimal from there on.  The
    recursion runs on an explicit stack, plus branch before colon branch, so
    no generator degree reaches Python's recursion limit."""
    if not gens:
        return (1,)
    root = frozenset(_minimalize(gens))
    root_key = _canonical(root)
    # (key, gens, None) computes a node; (key, None, child keys) combines
    # the two finished children
    stack = [(root_key, root, None)]
    while stack:
        key, gens, children = stack.pop()
        if children is not None:
            plus_key, colon_key = children
            _MEMO[key] = poly_add(_MEMO[plus_key], poly_shift(_MEMO[colon_key], 1))
            continue
        if key in _MEMO:
            continue
        width = len(next(iter(gens)))
        counts = [0] * width
        for g in gens:
            for j, e in enumerate(g):
                if e:
                    counts[j] += 1
        if any(sum(g) == 0 for g in gens):
            _MEMO[key] = ()  # unit ideal
        elif max(counts) <= 1:
            # pairwise coprime generators: complete intersection
            result = (1,)
            for g in gens:
                d = sum(g)
                factor = [0] * (d + 1)
                factor[0] = 1
                factor[d] = -1
                result = poly_mul(result, tuple(factor))
            _MEMO[key] = result
        else:
            plus, colon = _split(gens, counts.index(max(counts)))
            plus_key, colon_key = _canonical(plus), _canonical(colon)
            stack.append((key, None, (plus_key, colon_key)))
            stack.append((colon_key, colon, None))
            stack.append((plus_key, plus, None))
    return _MEMO[root_key]


def _split(gens: frozenset, v: int) -> tuple:
    """Minimal generating sets of I + (x_v) and I : x_v, from minimal gens.

    I + (x_v) is generated by the g with g_v = 0 plus x_v, again minimal.
    For I : x_v those g are kept and the others lose one x_v.  The moved g
    stay pairwise incomparable and no kept g divides a moved one, so the
    only new divisibility is a moved g with g_v = 1 dividing a kept one;
    dropping exactly those kept g leaves I : x_v minimal.
    """
    kept = [g for g in gens if g[v] == 0]
    moved = [g[:v] + (g[v] - 1,) + g[v + 1:] for g in gens if g[v]]
    freed = [m for m in moved if m[v] == 0]
    unit = tuple(1 if j == v else 0 for j in range(len(moved[0])))
    plus = frozenset(kept) | {unit}
    colon = frozenset(moved).union(
        g for g in kept if not any(all(map(le, m, g)) for m in freed)
    )
    return plus, colon


def _stable_numerator(gens, n: int, g: int):
    """Numerator of S/I, I generated by a list of exponent tuples, read off
    the list by a closed formula; None when a check the formula needs fails.

    Write A = S/Q with Q = (x1^2..xg^2), m(u) for the largest variable of u,
    and the ascending prefixes of u for the products of its first k
    variables taken in increasing index order, with multiplicity.  The
    checks, on the stated tuples:

    1. x_i^2 is listed for each i < g, so Q lies in I; a tuple that is not
       squarefree in x1..xg lies in Q and is set aside (the squarefree
       filter), and the kept tuples generate J with I = Q + J;
    2. the unit is not listed;
    3. (minimal) no proper ascending prefix of a kept tuple is kept;
    4. (stable) for each kept u and j < m(u) with x_j*u/x_m(u) nonzero in A,
       an ascending prefix of x_j*u/x_m(u) is kept.

    Then every monomial v of J nonzero in A is u*y for exactly one kept u,
    with y in the variables >= m(u): the capped ones (x1..xg) squarefree
    and > m(u), the free ones freely.  Existence: some kept u divides v.
    If v/u has a variable x_j below m(u), then x_j*u/x_m(u) divides v and
    is nonzero in A, so by 4 a kept prefix of it divides v, with a smaller
    index sum than u; when this descent stops, v/u lies in the variables
    >= m(u), so u is an ascending prefix of v.  Uniqueness: the ascending
    prefixes of v form a chain, which by 3 holds one kept tuple at most.
    By the filter u is nonzero in A, so the y of one u have the series
    (1+t)^c(u) / (1-t)^f(u), with c(u) = #{j <= g : j > m(u)} and
    f(u) = #{j > g : j >= m(u)}, and HS(S/I) = HS(A) - HS(JA) gives

        N(t) = (1-t^2)^g - sum_u t^deg(u) (1+t)^c(u) (1-t)^(n-f(u))

    (Eliahou and Kervaire, J. Algebra 129, 1990; Mermin, Peeva and
    Stillman, Adv. Math. 217, 2008, for ideals containing squares).  The
    checks are also necessary for the squares plus the minimal generators
    of an ideal stable in A: there x_j*u/x_m(u) lies in the ideal, and its
    u in the decomposition is an ascending prefix of it.  The companion of
    a quadratic source is such a list (its degree pieces are lex segments
    of A, and no degree-one generator eclipses a square), so it passes.

    Monomials are held as sparse (index, exponent) pairs, so a lookup costs
    the support, not n.  Prefixes are looked up in one dict keyed by (the
    pairs below r, r), holding the least exponent at r among the kept
    tuples with largest variable r.  The result maps each degree to its
    nonzero coefficient: terms are grouped by m(u), which fixes c(u) and
    f(u), and by degree, so a huge exponent costs one entry, not a run of
    zeros.
    """
    listed = {tuple(compress(enumerate(e), e)) for e in gens}
    if () in listed or any(((i, 2),) not in listed for i in range(g)):
        return None
    # a tuple with a capped exponent above 1 lies in Q
    rest = [u for u in listed if all(e < 2 for i, e in u if i < g)]
    least: dict = {}
    for u in rest:
        m, e = u[-1]
        least[u[:-1], m] = min(least.get((u[:-1], m), e), e)
    by_top: dict = {}  # largest variable -> degree -> generators
    # a low largest variable has few stability moves: a failing list often
    # fails there first
    for u in sorted(rest, key=lambda u: u[-1][0]):
        m, top = u[-1]
        below = u[:-1]
        # 3: u's own position at a lower exponent, or an earlier position
        if least[below, m] < top or any(
            least.get((below[:q], r), e + 1) <= e for q, (r, e) in enumerate(below)
        ):
            return None
        # 4: w = x_j*u/x_m for j < m, with x_j inserted at position p of u
        # when u lacks it, raised there when u has it (w is zero in A when
        # x_j is capped).  Prefixes of w ending before p are proper prefixes
        # of u, which 3 excluded
        tail = ((m, top - 1),) if top > 1 else ()
        start = 0
        for p, (r, e) in enumerate(u):
            moves = [below[:p] + ((j, 1),) + below[p:] + tail for j in range(start, r)]
            if g <= r < m:
                moves.append(below[:p] + ((r, e + 1),) + below[p + 1:] + tail)
            for w in moves:
                for q in range(p, len(w)):
                    i, k = w[q]
                    if least.get((w[:q], i), k + 1) <= k:
                        break
                else:
                    return None
            start = r + 1
        degrees = by_top.setdefault(m, {})
        d = sum(e for _, e in u)
        degrees[d] = degrees.get(d, 0) + 1
    numerator = {2 * k: (-1) ** k * comb(g, k) for k in range(g + 1)}
    for m, degrees in by_top.items():
        c, f = max(0, g - 1 - m), n - max(g, m)
        factor = poly_mul(tuple(comb(c, k) for k in range(c + 1)), one_minus_t_power(n - f))
        for d, count in degrees.items():
            for k, a in enumerate(factor):
                numerator[d + k] = numerator.get(d + k, 0) - count * a
    return {d: a for d, a in numerator.items() if a}


def series_numerator(ideal: MonomialIdeal) -> tuple:
    """Numerator of the Hilbert series of S/I over (1-t)^n."""
    return _numerator(frozenset(ideal.generators))


def pole_order(numerator) -> int:
    """Order of t = 1 as a root of N, 0 for N = 0: the height n - dim S/I of a
    proper I (Bruns and Herzog, Cohen-Macaulay Rings, 4.1).  Dividing by 1 - t
    takes partial sums and drops the last, N(1) = 0, shortening N by one."""
    quotient = numerator
    while quotient and sum(quotient) == 0:
        quotient = tuple(accumulate(quotient))[:-1]
    return len(numerator) - len(quotient)
