"""Minimal primes of a monomial ideal via minimal vertex covers.

A prime monomial ideal is generated by variables, and the minimal primes of
a monomial ideal are exactly the minimal transversals of the hypergraph of
generator supports.

Height and the canonical prime need only the first prime in (size, lex)
order, which ``smallest_minimal_prime`` finds by a branch and bound for a
minimum transversal, without listing the others; ``is_minimal_prime``
checks a given set in one pass over the generators.  The full listing,
``minimal_primes``, is kept for the callers whose output it is.  It runs on
``_minimal_transversals``, the one enumerator of minimal transversals in
the package, which also lists the minimal non-faces of a complex given by
its facets (through the facet complements).  An independence complex
needs none: its facets are cliques of the complement graph, and its
minimal non-faces are the graph's edges.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import InputError
from .monomials import MonomialIdeal, support


def _supports(ideal: MonomialIdeal) -> list:
    if ideal.is_zero():
        raise InputError("the zero ideal has no associated support hypergraph")
    if not ideal.is_proper():
        raise InputError("the unit ideal has no minimal primes")
    return list(map(support, ideal.generators))


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minimal_transversals(supports) -> list:
    """All minimal transversals of a set system, (size, lex)-sorted.

    The MMCS scheme of Murakami and Uno ("Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 170, 2014) on
    int bitmasks, with an explicit stack.  A node holds the chosen
    vertices, the vertices still allowed, the uncovered edges and, per
    chosen vertex, its private edges (those it alone meets).  It branches on
    an uncovered edge with the fewest allowed vertices, or on the first one
    found with at most one (any branching edge is correct; the scan only
    saves work), bans each tried vertex for its later siblings, and admits
    a child only while every chosen vertex keeps a private edge.  So every
    leaf is a minimal transversal, and each one is reached exactly once.
    """
    edges = [sum(1 << v for v in s) for s in supports]
    incidence: dict = {}  # vertex -> mask of the edges (by index) it meets
    for i, e in enumerate(edges):
        while e:
            v = (e & -e).bit_length() - 1
            e &= e - 1
            incidence[v] = incidence.get(v, 0) | 1 << i
    found = []
    stack = [((), sum(1 << v for v in incidence), (1 << len(edges)) - 1, ())]
    while stack:
        chosen, allowed, uncovered, private = stack.pop()
        if not uncovered:
            found.append(sorted(chosen))
            continue
        branch = None
        rest = uncovered
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            here = edges[i] & allowed
            if branch is None or here.bit_count() < branch.bit_count():
                branch = here
                if not here & (here - 1):  # at most one allowed vertex
                    break
        while branch:
            low = branch & -branch
            branch ^= low
            allowed ^= low
            v = low.bit_length() - 1
            hit = incidence[v]
            kept = tuple(p & ~hit for p in private)
            if all(kept):
                stack.append((chosen + (v,), allowed, uncovered & ~hit, kept + (uncovered & hit,)))
    found.sort(key=lambda c: (len(c), c))
    return [frozenset(c) for c in found]


def minimal_primes(ideal: MonomialIdeal) -> tuple:
    """All minimal primes, each as a frozenset of variable indices.

    Sorted by cardinality then lexicographically, so the first entry is the
    canonical choice of a smallest minimal prime.
    """
    return tuple(_minimal_transversals(_supports(ideal)))


def _packing(edges) -> int:
    """Size of a greedy family of pairwise disjoint edges: a lower bound on
    the size of any transversal."""
    used = count = 0
    for e in sorted(edges, key=int.bit_count):
        if not e & used:
            used |= e
            count += 1
    return count


def _cover(edges, budget: int):
    """The lex-first transversal of at most ``budget`` elements, or None.

    Picks are made in increasing order, so the uncovered edges keep only
    their elements above the last pick.  Each of them is hit by a later
    pick, so the next pick is at most the smallest of their largest
    elements; and a minimum transversal picks no element that lies in no
    uncovered edge, as dropping it would leave a smaller one.  The depth
    can reach the number of variables, hence the explicit stack.
    """
    trail: list = []  # per pick: the edges it was made on, its untried candidates, the pick
    while edges:
        if _packing(edges) <= budget - len(trail):
            bound = min(e.bit_length() for e in edges)
            trail.append([edges, reduce(or_, edges) & ((1 << bound) - 1), 0])
        while trail and not trail[-1][1]:
            trail.pop()
        if not trail:
            return None
        level = trail[-1]
        low = level[2] = level[1] & -level[1]
        level[1] ^= low
        above = ~((low << 1) - 1)
        edges = {e & above for e in level[0] if not e & low}
    return [level[2].bit_length() - 1 for level in trail]


def smallest_minimal_prime(ideal: MonomialIdeal, limit: int) -> frozenset | None:
    """``minimal_primes(ideal)[0]``, found without listing the others; None
    once the height is known to exceed ``limit``.

    Iterative deepening from the greedy packing bound: the first size that
    admits a transversal is the height, and the search at that size returns
    the lexicographically first one.  A minimum transversal is minimal, so
    this is exactly the first entry of the sorted listing.
    """
    edges = {sum(1 << v for v in s) for s in _supports(ideal)}
    # every transversal holds the element of a one-element edge, so these
    # picks are taken at once and the search runs on the edges they miss;
    # minimum transversals all have one size, and between two of them the
    # lex order is decided by the least element of their symmetric
    # difference, which the forced picks never are
    forced = reduce(or_, (e for e in edges if not e & (e - 1)), 0)
    edges = {e for e in edges if not e & forced}
    budget = _packing(edges)
    while budget + forced.bit_count() <= limit:
        if (found := _cover(edges, budget)) is not None:
            return frozenset(found) | frozenset(_bits(forced))
        budget += 1
    return None


def is_minimal_prime(ideal: MonomialIdeal, prime) -> bool:
    """Whether ``prime`` lists the variables of a minimal prime of the ideal.

    It must meet every generator's support, and each member must be the only
    member in some generator's support (else dropping it leaves a prime).
    """
    prime = frozenset(prime)
    needed: set = set()
    for s in _supports(ideal):
        hit = s & prime
        if not hit:
            return False
        if len(hit) == 1:
            needed |= hit
    return needed == prime
