"""Independent reference computations the tests compare against.

Nothing in this file imports the package under test, except
``reduced_homology_ranks``, which reads the package's homology engine,
``height``, which reads its minimum cover search (tested on its own against
``brute_minimal_covers``), and ``per_pick_walk``, which reads the lex walk's
steps and running sums (tested through ``lex_walk``); expected values are
derived here by brute force
(subset enumeration, sympy linear algebra) and frozen into assertions.
"""

import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, groupby
from itertools import product as iter_product
from math import comb, gcd
from operator import le, or_

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


def minimal_exponents(exponents):
    """The minimal elements of a set of exponent tuples under divisibility,
    in descending lex order, by a pairwise sweep: distinct tuples of equal
    degree never divide each other, so each degree is tested only against
    the kept tuples of smaller degree."""
    kept = []
    for _, same_degree in groupby(sorted(set(exponents), key=sum), key=sum):
        kept += [m for m in same_degree if not any(all(map(le, k, m)) for k in kept)]
    return tuple(sorted(kept, reverse=True))


def in_ideal(generators, exponents):
    """Whether some generator exponent tuple divides ``exponents``."""
    return any(all(map(le, g, exponents)) for g in generators)


_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?\Z")


def format_factors(exponents):
    """The text syntax of an exponent tuple (``x3^2*x5``, 1-based, or "1"),
    one factor per nonzero exponent."""
    factors = []
    for j, e in enumerate(exponents, 1):
        if e:
            factors.append(f"x{j}" + ("" if e == 1 else f"^{e}"))
    return "*".join(factors) if factors else "1"


def parse_factors(text, n):
    """Exponent tuple of the monomial ``text`` (``x3^2*x5``, 1-based, or
    "1") in n variables, read one "*"-separated factor at a time; raises
    ValueError naming the first bad factor and its position."""
    s = text.strip()
    if s == "1":
        if n < 1:
            raise ValueError("constant monomial needs an ambient ring with n >= 1")
        return (0,) * n
    exps = [0] * n
    pos = 0
    for chunk in s.split("*"):
        m = _FACTOR_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"bad monomial factor {chunk.strip()!r} at position {pos} in {text!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= n:
            raise ValueError(f"variable x{idx} out of range 1..{n} at position {pos} in {text!r}")
        exps[idx - 1] += int(m.group(2) or 1)
        pos += len(chunk) + 1
    return tuple(exps)


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pivot_numerator(generators, memo=None):
    """Hilbert series numerator of S/I, as integer coefficients from t^0
    with no trailing zeros (() for the unit ideal), by the pivot recursion

        N(I) = N(I + (x)) + t * N(I : x)

    on the most frequent variable x, which minimalizes every colon ideal it
    forms.  ``generators`` are exponent tuples of one length, not
    necessarily minimal.  Results are memoized in ``memo`` (a fresh dict by
    default), keyed by the sorted generator sets with unused variables
    projected away.
    """
    memo = {} if memo is None else memo

    def rec(gens):
        used = [j for j in range(len(next(iter(gens)))) if any(g[j] for g in gens)]
        key = tuple(sorted(tuple(g[j] for j in used) for g in gens))
        if key in memo:
            return memo[key]
        counts = [sum(1 for g in gens if g[j]) for j in range(len(next(iter(gens))))]
        if any(sum(g) == 0 for g in gens):
            result = ()
        elif max(counts) <= 1:
            result = (1,)
            for g in gens:
                factor = [1] + [0] * (sum(g) - 1) + [-1]
                product = [0] * (len(result) + len(factor) - 1)
                for i, a in enumerate(result):
                    for j, b in enumerate(factor):
                        product[i + j] += a * b
                result = _poly_trim(product)
        else:
            v = counts.index(max(counts))
            plus = frozenset(g for g in gens if g[v] == 0) | {
                tuple(int(j == v) for j in range(len(counts)))
            }
            moved = (tuple(e - (j == v and e > 0) for j, e in enumerate(g)) for g in gens)
            colon = frozenset(minimal_exponents(moved))
            a, b = rec(plus), (0,) + rec(colon)
            if len(a) < len(b):
                a, b = b, a
            result = _poly_trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])
        memo[key] = result
        return result

    generators = frozenset(map(tuple, generators))
    return rec(generators) if generators else (1,)


def window_from_numerator(numerator, n, bound):
    """Values HF(0..bound) of the series numerator/(1-t)^n, from the
    coefficient comb(n + k - 1, k) of t^k in (1-t)^(-n)."""

    def expansion(k):
        if k < 0:
            return 0
        return comb(n + k - 1, k) if n else int(k == 0)

    return tuple(
        sum(c * expansion(d - j) for j, c in enumerate(numerator)) for d in range(bound + 1)
    )


@dataclass(frozen=True)
class HilbertData:
    """A Hilbert function: an exact series numerator plus the value window
    HF(0..D); the numerator and n determine HF in every degree."""

    n: int
    window: tuple
    numerator: tuple

    def value(self, d):
        return window_from_numerator(self.numerator, self.n, d)[d] if d >= 0 else 0


def hilbert_function(ideal, bound=None, numerator=None):
    """Hilbert function of S/I on the window 0..bound, with its numerator.

    ``ideal`` needs only ``n`` and ``generators``, exponent tuples.  The
    numerator is ``pivot_numerator`` of the generators unless given, as the
    package's own when that is what a test checks.  The default bound is n
    plus the largest generator degree.
    """
    exponents = list(ideal.generators)
    if bound is None:
        bound = ideal.n + max((sum(e) for e in exponents), default=0)
    if numerator is None:
        numerator = pivot_numerator(exponents)
    return HilbertData(ideal.n, window_from_numerator(numerator, ideal.n, bound), numerator)


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


def oracle_boundary_ranks(facets, p=None, rank=integer_rank):
    """{k: rank of the boundary map from k-faces to (k-1)-faces} for k = 0 ..
    top dimension of the complex generated by ``facets``, every row kept;
    ``p`` selects GF(p), None the rationals, ranked by ``rank``."""
    return _ranks_of_faces(_by_dim(all_faces(facets)), p, rank)


def _by_dim(faces):
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k].sort()
    return by_dim


def _ranks_of_faces(by_dim, p, rank):
    ranks = {}
    for k in range(0, max(by_dim) + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        rows = []
        for face in by_dim.get(k, []):
            row = [0] * len(lower)
            for j in range(len(face)):
                row[lower[face[:j] + face[j + 1:]]] = (-1) ** j
            rows.append(row)
        ranks[k] = rank(rows) if p is None else gf_rank(rows, p)
    return ranks


def _betti_of_faces(faces, p, rank):
    if not faces:
        return {}
    by_dim = _by_dim(faces)
    ranks = _ranks_of_faces(by_dim, p, rank)
    return {
        k: len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, max(by_dim) + 1)
    }


def reduced_homology_ranks(cx, field=None):
    """(betti_0, ..., betti_dim) of a package ``SimplicialComplex`` over a
    package field, the rationals when None; () for the complex {∅}.

    Unlike the rest of this file, this reads the package's own homology
    engine: the complex's one face listing ``cx._listed``, the link
    ``homology._Link`` of the empty face, built on fresh tables, and its
    Betti numbers ``homology._betti``.  A test that compares it with
    ``oracle_reduced_betti`` still tests the package.
    """
    from quadbalance import homology

    field = homology.QQ if field is None else field
    link = homology._Link(cx._listed, {})
    return tuple(homology._betti(link, j, field) for j in range(cx.dim + 1))


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


class WalkRefused(Exception):
    """The target has no lex-plus-squares realization; ``degree`` is where
    the walk stopped."""

    def __init__(self, message, degree):
        super().__init__(message)
        self.degree = degree


def lex_walk(n, g, numerator, max_degree=None):
    """The lex-plus-squares walk by listing every degree slice.

    In each degree d the slice of S/(x1^2..xg^2) is listed in descending lex
    order, the previous degree's segment is multiplied out by every
    variable, and the next lex monomials after that shadow are picked until
    the slice minus the segment has HF(d) of numerator/(1-t)^n monomials.
    The walk stops by the same rule as the package: a pick forced beyond
    ``max_degree``, or degree max(top + 2g + n, len(numerator)) + n.
    Returns (generators as a set, picked_by_degree, top_degree,
    series_equal), or raises WalkRefused with the package's message.
    """

    def hf(d):
        return window_from_numerator(numerator, n, d)[d]

    if hf(0) != 1:
        raise WalkRefused("a proper monomial quotient has HF(0) = 1", 0)
    segment = set()
    picks, picked_by_degree, top = [], {}, 0
    d = 0
    while True:
        d += 1
        value = hf(d)
        if value < 0:
            raise WalkRefused(f"the target is negative in degree {d}", d)
        listed = quotient_exponents(n, (2,) * g, d)
        shadow = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in segment for i in range(n)}
        shadow &= set(listed)
        assert shadow == set(listed[: len(shadow)]), "the shadow is not a lex segment"
        k = len(listed) - value - len(shadow)
        if k < 0:
            raise WalkRefused(
                f"degree {d} offers {len(listed) - len(shadow)} monomials but the "
                f"target wants {value}",
                d,
            )
        if k:
            if max_degree is not None and d > max_degree:
                series_equal, top = False, max_degree
                break
            picks += listed[len(shadow): len(shadow) + k]
            picked_by_degree[d] = k
            top = d
        segment = set(listed[: len(shadow) + k])
        if d >= max(top + 2 * g + n, len(numerator)) + n:
            series_equal = True
            break
    generators = set(picks)
    for i in range(g):
        if tuple(int(j == i) for j in range(n)) not in generators:
            generators.add(tuple(2 * (j == i) for j in range(n)))
    return generators, picked_by_degree, top, series_equal


def per_pick_walk(n, g, numerator, max_degree=None, max_picks=None):
    """The package's histogram walk with one predecessor step per pick.

    The lex steps and the running Hilbert sums are the package's; each pick
    is the lex predecessor of the one before it and is booked under its own
    largest variable.  Returns (picks in the order emitted, picked_by_degree,
    top_degree, series_equal), or raises WalkRefused with the package's
    message and degree.  The squares-only target returns ([], {}, 0, True).
    """
    from quadbalance.hilbert import one_minus_t_power
    from quadbalance.lpp import _hilbert_values, _LexSteps

    target = _hilbert_values(numerator, n)
    if next(target) != 1:
        raise WalkRefused("a proper monomial quotient has HF(0) = 1", 0)
    quotient = tuple(c for a in one_minus_t_power(g) for c in (a, 0))[: 2 * g + 1]
    if numerator == quotient:
        return [], {}, 0, True
    slices = _hilbert_values(quotient, n)
    next(slices)
    steps = _LexSteps(n, g)
    hist = [0] * n
    picks, picked_by_degree = [], {}
    boundary, top, d = None, 0, 0
    while True:
        d += 1
        value = next(target)
        if value < 0:
            raise WalkRefused(f"the target is negative in degree {d}", d)
        shadow_boundary = steps.successor(boundary) if boundary is not None else None
        hist = [sum(hist[:i]) + (hist[i] if i >= g else 0) for i in range(n)]
        in_slice = next(slices)
        k = in_slice - value - sum(hist)
        if k < 0:
            raise WalkRefused(
                f"degree {d} offers {in_slice - sum(hist)} monomials but the target wants "
                f"{value}",
                d,
            )
        if k:
            if max_degree is not None and d > max_degree:
                return picks, picked_by_degree, max_degree, False
            if max_picks is not None and len(picks) + k > max_picks:
                raise WalkRefused(
                    f"the companion has more than {max_picks} generators: "
                    f"its picks pass that count in degree {d}",
                    d,
                )
            exps = (
                steps.predecessor(shadow_boundary)
                if shadow_boundary is not None
                else steps.top_monomial(d)
            )
            for i in range(k):
                if i:
                    exps = steps.predecessor(exps)
                picks.append(exps)
                hist[max(j for j, e in enumerate(exps) if e)] += 1
            boundary = exps
            picked_by_degree[d] = k
            top = d
        else:
            boundary = shadow_boundary
        if d >= max(top + 2 * g + n, len(numerator)) + n:
            return picks, picked_by_degree, top, True


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



@dataclass(frozen=True)
class TransversalWitness:
    """A factor choice whose forms fail to reach full rank."""

    choice: tuple
    forms: tuple
    rank: int


def monomial_as_product(exponents):
    """The variables of a monomial, with multiplicity, as unit coefficient
    tuples: the factors of the monomial as a product of linear forms."""
    n = len(exponents)
    return tuple(
        tuple(int(i == j) for i in range(n)) for j, e in enumerate(exponents) for _ in range(e)
    )


def is_regular_sequence_of_products(products, p=None):
    """Transversal criterion: every choice of one factor per product must
    have full rank.  Returns (True, None) or (False, witness) where the
    witness records the first rank-deficient choice.

    ``products`` are sequences of factors, each an integer coefficient
    tuple; ``p`` selects GF(p), None the rationals.  The vanishing locus of
    the products is the union over all choices of the chosen forms' common
    zero set, so the products have height equal to the number of products
    exactly when every choice is independent.
    """
    products = [tuple(map(tuple, factors)) for factors in products]
    for choice in iter_product(*(range(len(factors)) for factors in products)):
        chosen = tuple(factors[c] for factors, c in zip(products, choice))
        rank = sympy_rank(chosen) if p is None else gf_rank(chosen, p)
        if rank != len(products):
            return False, TransversalWitness(choice, chosen, rank)
    return True, None


def position_neighbors(prime, spaces, active):
    """The variables each position may take for one subset of positions:
    any of ``spaces[j]`` when j is active, only ``prime[j]`` otherwise."""
    return tuple(spaces[j] if j in active else (prime[j],) for j in range(len(prime)))


def perfect_matching(neighbors):
    """A tuple giving position j a distinct member of ``neighbors[j]``, found
    by augmenting paths, or None when Hall's condition fails."""
    owner = {}

    def augment(j, seen):
        for v in neighbors[j]:
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = j
                    return True
        return False

    if not all(augment(j, set()) for j in range(len(neighbors))):
        return None
    assigned = {j: v for v, j in owner.items()}
    return tuple(assigned[j] for j in range(len(neighbors)))


def height(ideal):
    """Height of a monomial ideal: the size of a smallest minimal prime,
    0 for the zero ideal."""
    from quadbalance.covers import smallest_minimal_prime

    return 0 if ideal.is_zero() else len(smallest_minimal_prime(ideal, ideal.n))


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
