"""Independent reference computations the tests compare against.

Nothing in this file imports the package under test; expected values are
derived here by brute force (subset enumeration, sympy linear algebra) and
frozen into assertions.
"""

from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import gcd
from operator import or_

import sympy


def count_standard_monomials(n, generators, d):
    """Number of degree-d monomials outside the ideal, by full enumeration.

    ``generators`` is a list of exponent tuples of length n.
    """
    count = 0
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        if not any(all(exps[j] >= g[j] for j in range(n)) for g in generators):
            count += 1
    return count


def standard_monomial_counts(n, generators, top):
    """Per-degree counts of monomials outside the ideal, degrees 0..top.

    Grows each degree's standard set from the previous one: a monomial is
    outside the ideal exactly when it is not itself a generator and every
    way of dividing off one variable lands outside too.  Set lookups make
    the cost track the quotient size, not the number of generators, so this
    stays usable where :func:`count_standard_monomials` does not.
    """
    gens = set(map(tuple, generators))
    level = set() if (0,) * n in gens else {(0,) * n}
    counts = []
    for _ in range(top + 1):
        counts.append(len(level))
        grown = set()
        for m in level:
            for i in range(n):
                c = m[:i] + (m[i] + 1,) + m[i + 1:]
                if c in grown or c in gens:
                    continue
                if all(
                    c[:j] + (c[j] - 1,) + c[j + 1:] in level
                    for j in range(n)
                    if c[j]
                ):
                    grown.add(c)
        level = grown
    return counts


def sympy_rank(rows) -> int:
    rows = [row for row in rows]
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def gf_rank(rows, p: int) -> int:
    """Row-echelon rank over GF(p)."""
    reduced = []
    for row in rows:
        row = [x % p for x in row]
        for prow, pcol in reduced:
            factor = row[pcol]
            if factor:
                row = [(a - factor * b) % p for a, b in zip(row, prow)]
        pcol = next((j for j, a in enumerate(row) if a), None)
        if pcol is not None:
            inv = pow(row[pcol], -1, p)
            row = [a * inv % p for a in row]
            reduced.append((row, pcol))
    return len(reduced)


def all_faces(facets):
    """Every subset of every facet, as frozensets (includes the empty face)."""
    faces = set()
    for facet in facets:
        facet = tuple(sorted(facet))
        for k in range(len(facet) + 1):
            faces.update(frozenset(c) for c in combinations(facet, k))
    return faces


def integer_rank(rows) -> int:
    """Rank over the rationals by elimination over the integers: a row is
    cleared by cross-multiplying with each pivot row, then divided by the
    gcd of its entries."""
    reduced = []
    for row in rows:
        row = list(row)
        for prow, pcol in reduced:
            factor = row[pcol]
            if factor:
                pivot = prow[pcol]
                row = [a * pivot - factor * b for a, b in zip(row, prow)]
                content = gcd(*row)
                if content > 1:
                    row = [a // content for a in row]
        pcol = next((j for j, a in enumerate(row) if a), None)
        if pcol is not None:
            reduced.append((row, pcol))
    return len(reduced)


def oracle_reduced_betti(facets, p=None, rank=sympy_rank):
    """Reduced Betti numbers of the complex generated by ``facets``.

    Returns a dict {k: betti_k} for k = -1 .. top dimension, computed from
    boundary-matrix ranks with the augmentation map included.  ``p`` selects
    GF(p) coefficients; None means the rationals, ranked by ``rank`` (sympy
    unless given).
    """
    return _betti_of_faces(all_faces(facets), p, rank)


def brute_cohen_macaulay(facets, p=None):
    """Reisner's link test, one link rebuilt from the facets per face.

    Faces are visited by size, then lexicographically; the first face whose
    link has a nonzero reduced Betti number below the link's dimension is
    the witness (face, degree, betti).  Returns (is_cm, faces_checked,
    witness); ``p`` selects GF(p), None the rationals, ranked by
    ``integer_rank``: on these many small matrices sympy is 40 times slower.
    """
    facets = [frozenset(f) for f in facets]
    checked = 0
    for face in sorted(all_faces(facets), key=lambda f: (len(f), sorted(f))):
        checked += 1
        link = [f - face for f in facets if face <= f]
        betti = oracle_reduced_betti(link, p, integer_rank)
        top = max(len(f) for f in link) - 1
        for k in range(top):
            if betti[k]:
                return False, checked, (tuple(sorted(face)), k, betti[k])
    return True, checked, None


def _betti_of_faces(faces, p, rank):
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        rows = []
        for face in by_dim.get(k, []):
            row = [0] * len(lower)
            for j in range(len(face)):
                row[lower[face[:j] + face[j + 1:]]] = (-1) ** j
            rows.append(row)
        ranks[k] = rank(rows) if p is None else gf_rank(rows, p)
    return {
        k: len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, top + 1)
    }


def hochster_betti(n, generators, p=None):
    """(beta_0, ..., beta_pd) of S/I by Hochster's formula on the polarization.

    ``generators`` are exponent tuples of length n; ``p`` selects GF(p),
    None the rationals.  Each x_v^e becomes e distinct vertices, and
    beta_i(S/I) sums dim H~_{|sigma|-i-1} of the Stanley-Reisner complex
    restricted to sigma over every vertex subset sigma of the polarized
    support: 3^s work on support s.  A sigma not covered by the generators
    inside it restricts to a cone and is skipped.
    """
    tops = [max((g[v] for g in generators), default=0) for v in range(n)]
    offsets = [sum(tops[:v]) for v in range(n)]
    gmasks = {
        sum(1 << (offsets[v] + k) for v in range(n) for k in range(g[v]))
        for g in generators
    }
    totals = {0: 1}
    for sigma in range(1, 1 << sum(tops)):
        inside = [gm for gm in gmasks if gm & sigma == gm]
        if not inside or sigma != reduce(or_, inside):
            continue
        vertices = [v for v in range(sum(tops)) if sigma >> v & 1]
        faces = {
            frozenset(face)
            for k in range(len(vertices) + 1)
            for face in combinations(vertices, k)
            if not any(gm & sum(1 << v for v in face) == gm for gm in inside)
        }
        for k, b in _betti_of_faces(faces, p, integer_rank).items():
            if b:
                i = len(vertices) - 1 - k
                totals[i] = totals.get(i, 0) + b
    return tuple(totals.get(i, 0) for i in range(max(totals) + 1))


def quotient_exponents(n, powers, d):
    """Degree-d exponent tuples with exponent of x_i below powers[i], in
    descending lex order; ``powers`` caps the first len(powers) variables."""
    caps = [p - 1 for p in powers] + [d] * (n - len(powers))

    def rec(i, remaining):
        if i == n - 1:
            if remaining <= caps[i]:
                yield (remaining,)
            return
        for e in range(min(remaining, caps[i]), -1, -1):
            for rest in rec(i + 1, remaining - e):
                yield (e,) + rest

    return list(rec(0, d))


def transversal_ranks(prime, forms, p=None):
    """(ok, failing_subset, subsets_checked) of the mixed-choice rank test.

    Subsets A of positions are visited in lex order of their sorted tuples;
    the unit vectors of prime[j] for j in A and the forms outside A must
    have rank g.  ``forms`` are integer coefficient tuples; ``p`` selects
    GF(p), None the rationals.
    """
    g = len(prime)
    n = len(forms[0]) if forms else 0
    subsets = sorted(c for k in range(g + 1) for c in combinations(range(g), k))
    for checked, subset in enumerate(subsets, 1):
        rows = [
            tuple(int(v == prime[j]) for v in range(n)) if j in subset else forms[j]
            for j in range(g)
        ]
        if (integer_rank(rows) if p is None else gf_rank(rows, p)) != g:
            return False, subset, checked
    return True, None, len(subsets)


def brute_minimal_covers(supports):
    """All minimal vertex covers of a set system, smallest first."""
    supports = [frozenset(s) for s in supports]
    universe = sorted(set().union(*supports)) if supports else []
    covers = []
    for size in range(len(universe) + 1):
        for sub in combinations(universe, size):
            s = frozenset(sub)
            if all(s & t for t in supports) and not any(c <= s for c in covers):
                covers.append(s)
    return covers


def brute_minimal_non_faces(n, facets):
    """Minimal non-faces by a scan of every vertex subset up to size
    dim + 2, (size, lex)-sorted; the void complex gets (∅,)."""
    if not facets:
        return (frozenset(),)
    faces = all_faces(facets)
    out = []
    top = max(len(f) for f in facets) + 1
    for size in range(1, min(top, n) + 1):
        for cand in combinations(range(n), size):
            cs = frozenset(cand)
            if cs not in faces and all(cs - {v} in faces for v in cand):
                out.append(cs)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def hvector_from_f(f):
    """h-vector via the polynomial identity sum f_{i-1} (t-1)^(d-i) = sum h_k t^(d-k)."""
    t = sympy.symbols("t")
    d = len(f) - 1
    poly = sympy.expand(sum(f[i] * (t - 1) ** (d - i) for i in range(d + 1)))
    return tuple(int(poly.coeff(t, d - k)) for k in range(d + 1))


# ---------------------------------------------------------------------------
# random instance generators (plain data, shared by both sides of a test)


def random_quadratic_exponents(rng, n, max_gens, allow_squares=True):
    """Distinct degree-2 exponent tuples in n variables."""
    pool = [
        tuple((i == a) + (i == b) for i in range(n))
        for a in range(n)
        for b in range(a if allow_squares else a + 1, n)
    ]
    rng.shuffle(pool)
    return pool[: rng.randint(1, min(max_gens, len(pool)))]


def random_exponents(rng, n, max_gens, max_degree):
    """Random positive-degree exponent tuples, possibly redundant."""
    gens = set()
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * n
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(n)] += 1
        gens.add(tuple(exps))
    return sorted(gens)


def random_facets(rng, n, max_facets):
    """Random nonempty subsets of 0..n-1, at least one."""
    facets = set()
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, n)
        facets.add(frozenset(rng.sample(range(n), size)))
    return sorted(facets, key=lambda f: (len(f), sorted(f)))
