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
"""

from __future__ import annotations

from itertools import compress
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


def series_numerator(ideal: MonomialIdeal) -> tuple:
    """Numerator of the Hilbert series of S/I over (1-t)^n."""
    return _numerator(frozenset(ideal.generators))

