"""Reduced simplicial homology, the Cohen-Macaulay test, and depth/pd.

One engine serves all three.  A complex is given by facet bitmasks: a set
F of positions is a face when ``within``, the facets in play, meets the
mask of every member of F; a simplicial complex keeps its masks, and its
certificate per field.  The face walk ``simplicial._faces``, capped on
facet size, lists the faces once, and every complex ranked here is given
by its own listing: the link lk F of a face F, the complex itself when F
is empty, and each upper Koszul complex K^b of an ideal.

The CM test first tries a pure vertex decomposition (Provan and Billera,
Math. Oper. Res. 5, 1980).  A vertex v of a pure complex D is shedding
when every f - v, for a facet f through v, lies in a facet without v; the
facets of del v are then those of D without v, so del v is pure of the
dimension of D, and lk v, on the facets f - v, is pure of one less.  D is
vertex decomposable when it is a simplex ({emptyset} included), a cone over
a vertex decomposable complex, or has a shedding v with lk v and del v
both vertex decomposable.  Such a D is shellable: shell del v, then add
v u G for G in a shelling of lk v.  v u G meets the facets before it in G,
which lies in a facet of del v because v is shedding, and in v u R for
the ridges R of G that the earlier facets of lk v cover, so in a complex
pure of dimension dim D - 1; a cone is shelled as its base, and a simplex
is one facet.  A shellable complex is CM over every field: the facets
through a face F, in shelling order, shell lk F, and a shellable complex
of dimension d is a wedge of d-spheres up to homotopy, so its reduced
homology vanishes below d over every field, which is Reisner's criterion.
Whiskered graphs, cross-polytopes and chordal graphs have vertex
decomposable independence complexes (Woodroofe, Proc. AMS 137, 2009).

The decomposition is greedy: at each node it strips the cone apexes, the
AND of the facet masks, answers True at one facet and False at facets of
unequal sizes, and otherwise takes the lowest shedding vertex, with no
backtracking.  In a pure complex a facet g with f - v in g and g != f is
(f - v) u {u} for some u not in f, so v is shedding exactly when no ridge
f - v lies in f alone; one count of every facet's ridges finds each vertex
that is not.  The size test only ends a node early: by induction a True
from lk v and del v makes both pure, and a ridge f - v lies in a second
facet, of f's size and in del v, so the node is pure as well.  The
facets of lk v and del v partition the node's, and neither part is empty
(v is in a facet, and no apex), so the nodes form a binary tree with at
most F leaves and one attempt visits at most 2F - 1 complexes for F
facets.  Nothing is listed, but a node counts the ridges of its facets,
so a long run of deletions that each peel a few facets (a path's edges,
one at a time) costs about F^2; the count is capped at a fixed multiple
of the faces, which the test counts anyway.  A False, or the cap, proves
nothing, and the link walk below decides; a True is stated with the
count of every face, as a passing walk states it.

The link walk lists lk F on its own vertices, those of the facets through
F outside F, from their facet masks inside the facets through F; so every
table a link is ranked on is as large as the link, not as the complex.
The walk skips a link with a vertex in all of its facets, a cone and
acyclic over every field, and any link whose facet set (vertex masks of
the facets containing F, F's bits cleared) passed once.  Skipped links are
exactly ones that pass, so the face count and the first failing witness do
not move.

Mod 2 a boundary row is an int, bit i for the i-th face one dimension
down, and elimination is XOR keyed by the top bit (``linalg.xor_rank``).
Over Q every degree is probed mod 2 first: rank mod 2 never exceeds the
rational rank (a minor that vanishes over Z vanishes mod 2), so betti mod 2
bounds betti over Q from above and a zero there is a zero over Q.  Behind
a nonzero probe the two maps around it are ranked over Q, and a map is
closed by its mod-2 neighbours: rank_Q d_k = rank_2 d_k as soon as
betti mod 2 is 0 in degree k or in degree k - 1.  Since d_k d_{k+1} = 0,
when betti_2(k) = 0

    rank_Q d_k <= f_k - rank_Q d_{k+1} <= f_k - rank_2 d_{k+1} = rank_2 d_k,

and rank_2 d_k <= rank_Q d_k; when betti_2(k-1) = 0 the same chain runs
through f_{k-1} and d_{k-1}.  Only a map with nonzero mod-2 Betti numbers
on both sides, as RP^2's d_2 from its 2-torsion, is redone exactly on its
signed rows, where a face's facet without its t-th vertex, counted from 0,
has sign (-1)^t.  An odd p ranks the same signed rows with
``ModularEchelon``.

Mod p, 2 included, the maps are ranked from the top dimension down with
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  Each row the
echelon basis of d_{k+1} stores is a combination of boundaries, so a
k-cycle mod p, and it is nonzero at its pivot tau, its largest column; so
the boundary of tau is a combination of the boundaries of the k-faces
before tau, and the row of d_k at tau can be dropped without changing the
rank of d_k.  The rows pushed onto d_k are then f_k - rank d_{k+1}, of
which betti_k reduce to zero.  The exact redo over Q keeps every row: a
cycle mod p need not lift to a rational one that is nonzero at tau, so a
pivot mod p proves no dependence over Q.  Degree 0 is never eliminated:
d_0 has rank 1 on a nonempty vertex set.  Degree 1 is ranked mod 2 over
every field: any set of rows of d_1 is a graph's edges, of rank V - c over
every field for V vertices in c components, so the rows left after
clearing over one field have the same rank mod 2.

Betti numbers of S/I come from upper Koszul complexes (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34): for a multidegree b,

    beta_{i,b}(S/I) = dim H~_{i-2}(K^b),  K^b = {F in supp b : x^(b-F) in I},

in the ideal's own variables, with no polarization.  Only b in the lcm
lattice of the generators contribute (Gasharov-Peeva-Welker): elsewhere
some variable of supp b lies in every facet of K^b, a cone.  The facets of
K^b are the sets {v : g_v < b_v} for the generators g dividing x^b, so
K^b has the same bitmask form, one bit per such generator, and is ranked
as the link of its empty face.  K^b has at most |supp b| vertices, and
when it is the full simplex it is acyclic and skipped, so K^b lies in
2^C - {C} with C = supp b, and beta_{i,b} = 0 for i > |C|.

The lattice is listed one support size s at a time, largest first: a level
is the product over the variables that the generators use, n_v of them,
with exactly n_v - s zero exponents.  The projective dimension walks the
levels with three rules, for a point b with C = supp b and d generators
dividing x^b:

- Sphere.  beta_{|C|,b} = dim H~_{|C|-2}(K^b) is the dimension of the top
  cycle space of K^b, as K^b has no faces one dimension up.  A top cycle
  of K^b is one of the boundary of the simplex on C, and those are the
  multiples of the signed sum of all the facets C - v: two facets C - u
  and C - v are the only ones through the ridge C - u - v, so a cycle's
  coefficients on them agree up to sign, on every pair.  So over every
  field beta_{|C|,b} is 1 when every C - v is a face of K^b, and 0
  otherwise.  C - v is a face when the ``lt`` masks of C - v meet inside
  the divisors, and prefix and suffix ANDs of the masks test every v at
  once, with no face listed.  Each C - v needs a divisor g with g_u < b_u
  for u != v and so g_v = b_v, as C is no face; g names v, so a sphere
  has d >= |C|.  A level with a sphere sets pd to its size s, and no level
  below can reach s, so the walk ends there.
- Skip.  A point that is not a sphere has beta_{i,b} = 0 for i >= |C|, and
  for i > d: the Taylor resolution on the generators has one free summand
  per i-subset of them, of degree its lcm, and only subsets of the d
  divisors have an lcm dividing x^b.  So it is ranked only when
  t = min(|C| - 1, d) beats pd, from degree min(dim K^b, t - 2) down, and
  stops at the first nonzero Betti number.
- Stop.  By the two rules above, a level of size s can raise pd to at most
  min(s, number of generators), and a level where that cannot beat pd is
  never listed.

depth is then n - pd by Auslander-Buchsbaum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations
from operator import and_, or_

from .covers import _bits
from .errors import BudgetExceededError, InputError
from .fields import GF, QQ
from .linalg import rank_of_rows, xor_rank
from .monomials import MonomialIdeal
from .simplicial import SimplicialComplex, _faces

_GF2 = GF(2)


class _Link:
    """A complex given by its faces by dimension, the empty face included:
    lk F in the link walk, the complex itself when F is empty, or K^b.

    ``index`` maps a dimension to the number of each face, built on first
    use by ``_index``; boundary rows are built only for the faces a rank
    pushes.  A link is ranked over one field, and ``_mod_ranks`` keeps its
    ranks by degree + 1, the lowest degree ranked and the pivots of that
    map as a mask; ``exact`` maps a degree to its rank over Q.
    """

    __slots__ = ("faces", "index", "ranks", "low", "cleared", "exact")

    def __init__(self, faces: dict):
        self.faces = faces
        self.index: dict = {}
        self.ranks = [0, int(len(faces) > 1)] + [0] * (len(faces) - 1)
        self.low, self.cleared = len(faces) - 1, 0
        self.exact: dict = {}


def _index(link: _Link, d: int) -> dict:
    """The number of each d-face."""
    if d not in link.index:
        link.index[d] = {face: i for i, face in enumerate(link.faces[d])}
    return link.index[d]


def _rows(link: _Link, d: int, kept) -> list:
    """The boundary of each d-face numbered in ``kept`` as bits over the
    (d-1)-faces."""
    # combinations(face, d) lists the facets of a face
    at = _index(link, d - 1).__getitem__
    faces = link.faces[d]
    return [sum(map((1).__lshift__, map(at, combinations(faces[i], d)))) for i in kept]


def _signed(link: _Link, d: int, kept) -> list:
    """The boundary of each d-face numbered in ``kept`` as signed rows
    {index: +-1}."""
    # the t-th facet listed drops vertex d - t of the face, with sign
    # (-1)^(d - t)
    at = _index(link, d - 1)
    faces = link.faces[d]
    return [
        {at[facet]: -1 if (d - t) % 2 else 1 for t, facet in enumerate(combinations(faces[i], d))}
        for i in kept
    ]


def _betti(link: _Link, j: int, field) -> int:
    """Reduced Betti number in degree j of the link over the field, probed
    mod 2 first over Q."""
    faces = link.faces
    if not 0 <= j + 1 < len(faces):
        return 0
    betti = _mod_betti(link, field, j)
    if betti and field == QQ:
        betti = len(faces[j]) - _rank(link, QQ, j) - _rank(link, QQ, j + 1)
    return betti


def _mod_betti(link: _Link, field, j: int) -> int:
    """Reduced Betti number over GF(p) in degree j, mod 2 over Q, for
    0 <= j + 1 < len(link.faces)."""
    ranks = _mod_ranks(link, field, j)
    return len(link.faces[j]) - ranks[j + 1] - ranks[j + 2]


def _rank(link: _Link, field, e: int) -> int:
    """Rank of the boundary map of the link from its e-faces to its
    (e-1)-faces.

    Over GF(p) it is read from ``_mod_ranks``, and so is degree 0 or 1
    over Q, and any map over Q closed by a mod-2 Betti number of 0 on
    either side; the rest over Q are ranked on all of their signed rows.
    """
    if not 0 <= e < len(link.faces) - 1:
        return 0
    if field != QQ or e < 2 or not (_mod_betti(link, _GF2, e) and _mod_betti(link, _GF2, e - 1)):
        return _mod_ranks(link, field, e)[e + 1]
    if e not in link.exact:
        link.exact[e] = rank_of_rows(_signed(link, e, range(len(link.faces[e]))), QQ)
    return link.exact[e]


def _mod_ranks(link: _Link, field, e: int) -> list:
    """Ranks over GF(p) of the link's boundary maps, GF(2) standing in for
    Q, ``ranks[k + 1]`` for the map from the k-faces, for k from -1 up to
    one above the link's dimension, correct for every k >= e.

    The maps are ranked from the top dimension down, as far as asked, each
    with the rows at the pivots of the map above cleared: mod 2 as bits,
    otherwise on signed rows, except degree 1, which is ranked mod 2 over
    every field, and degree 0, which has rank 1 on a nonempty vertex set.
    """
    field = _GF2 if field == QQ else field
    faces, ranks = link.faces, link.ranks
    while link.low > max(e, 1):
        low = link.low = link.low - 1
        kept = _bits(((1 << len(faces[low])) - 1) & ~link.cleared)
        # degree 0 is not eliminated, so degree 1 clears nothing
        pivots = set() if low > 1 else None
        if field.p == 2 or low < 2:
            ranks[low + 1] = xor_rank(_rows(link, low, kept), pivots)
        else:
            ranks[low + 1] = rank_of_rows(_signed(link, low, kept), field, pivots)
        link.cleared = sum(map((1).__lshift__, pivots or ()))
    return ranks


# ---------------------------------------------------------------------------
# simplicial complexes and their links


@dataclass(frozen=True)
class CMCertificate:
    """Outcome of the homological (link-vanishing) test over one field."""

    is_cm: bool
    field_name: str
    faces_checked: int
    witness: tuple | None = None  # (face, degree, betti) on failure

    def __bool__(self):
        return self.is_cm


# ridges the decomposition may count per face of the complex before it
# leaves the complex to the link walk: a decomposition of a random complex
# on up to 10 vertices counted at most 5 (4000 drawn), of a cross-polytope
# at most 1.3, and of a path on m vertices, whose deletions peel one edge
# at a time, about m / 2
_RIDGES_PER_FACE = 8


class _Decomposition:
    """The greedy pure vertex decomposition of the module docstring, called
    on facets as vertex masks: True or False, or None once it has counted
    the ridges it was given.

    ``memo`` maps a node's facet set, apexes stripped, to its answer.  Each
    node recurses on lk v and loops on to del v, so the recursion is as
    deep as the facets are large, not as the vertices are many; the nodes
    one loop passes share the answer of its last.
    """

    __slots__ = ("memo", "left")

    def __init__(self, ridges: int):
        self.memo: dict = {}
        self.left = ridges

    def __call__(self, facets: frozenset):
        path = []
        while True:
            apex = reduce(and_, facets)
            if apex:
                facets = frozenset(f ^ apex for f in facets)
            known = self.memo.get(facets)
            if known is not None:
                break
            path.append(facets)
            if len(facets) == 1:
                known = True
                break
            sizes = set(map(int.bit_count, facets))
            if len(sizes) > 1:
                known = False
                break
            self.left -= len(facets) * sizes.pop()
            if self.left < 0:
                return None
            # the one facet through each ridge, 0 once a second one is seen
            owner: dict = {}
            for f in facets:
                for v in _bits(f):
                    ridge = f ^ 1 << v
                    owner[ridge] = 0 if ridge in owner else f
            free = reduce(or_, (f ^ ridge for ridge, f in owner.items() if f), 0)
            shedding = reduce(or_, facets) & ~free
            v = shedding & -shedding
            link = self(frozenset(f ^ v for f in facets if f & v)) if v else False
            if not link:
                if link is None:
                    return None
                known = False
                break
            facets = frozenset(f for f in facets if not f & v)
        for node in path:
            self.memo[node] = known
        return known


def is_cohen_macaulay(cx: SimplicialComplex, field=QQ) -> CMCertificate:
    """Reisner's criterion over the field: every face's link has vanishing
    reduced homology below its own dimension; certified by ``_certify``
    once per complex and field."""
    if cx.is_void():
        raise InputError("the void complex is not a ring-theoretic object here")
    if field not in cx._certificates:
        cx._certificates[field] = _certify(cx, field)
    return cx._certificates[field]


def _certify(cx: SimplicialComplex, field) -> CMCertificate:
    """A complex that ``_Decomposition`` certifies is shellable, so CM over
    every field, and its certificate counts every face, with none listed;
    any other is decided by ``_link_walk``, which states the first failing
    witness.  The decomposition counts at most ``_RIDGES_PER_FACE`` ridges
    per face, so it never costs more than a constant times the face count
    that both read.
    """
    # counted first, so a facet over the cap is refused before anything runs
    faces = sum(cx._counted)
    if _Decomposition(_RIDGES_PER_FACE * faces)(frozenset(cx._masks[0])):
        return CMCertificate(True, field.name, faces)
    return _link_walk(cx, field)


def _link_walk(cx: SimplicialComplex, field) -> CMCertificate:
    """Exhaustive link test on a nonvoid complex.  Faces are visited by
    size, then lexicographically; returns the first failing witness.

    The complex's one face listing is ranked as the link of the empty face,
    and each other link is listed on its own vertices and ranked on its
    own tables.  Only links that can fail reach homology.  The link of F is
    a cone, and acyclic over every field, when a vertex outside F lies in
    every facet containing F.  Any other link is keyed by its facets, as
    vertex masks with F's vertices cleared, and a key whose homology passed
    once is not ranked again; the vertex set alone would not do, since two
    links on the same vertices can differ.  Both shortcuts pass only links
    that pass, so ``faces_checked`` still counts every face and the first
    witness stays.
    """
    members, masks = cx._masks
    every = (1 << len(members)) - 1
    passed, checked, listed = set(), 0, cx._listed
    top = max(listed)
    # a face of dimension top - 1 or more has a link of dimension at most
    # 0, with no degree below its own to test; these faces come last
    for d in range(-1, top - 1):
        for face in listed[d]:
            checked += 1
            # the facets containing F, as vertex masks
            within = reduce(and_, map(masks.__getitem__, face), every)
            facets = [members[i] for i in _bits(within)]
            inside = sum(map((1).__lshift__, face))
            if reduce(and_, facets) ^ inside:
                continue  # a cone over a vertex outside F in all of them
            key = frozenset(map(inside.__xor__, facets))
            if key in passed:
                continue
            if face:  # on the vertices of the facets through F, outside F
                outside = _bits(reduce(or_, facets) ^ inside)
                link = _Link(_faces([masks[v] for v in outside], within))
            else:
                link = _Link(listed)
            # lk F has dimension len(link.faces) - 2
            for j in range(len(link.faces) - 2):
                betti = _betti(link, j, field)
                if betti:
                    return CMCertificate(False, field.name, checked, (face, j, betti))
            passed.add(key)
    checked += sum(len(faces) for d, faces in listed.items() if d >= top - 1)
    return CMCertificate(True, field.name, checked)


# ---------------------------------------------------------------------------
# Betti numbers of S/I from upper Koszul complexes on the lcm lattice


def _levels(ideal: MonomialIdeal, budget: int, low: int = 1):
    """The nonzero elements b of the lcm lattice with |supp b| >= low, one
    support size at a time, largest first: (size, points) pairs, each level
    listed only when it is drawn, and the ideal and the budget checked when
    the first is.

    A point is (lt, divisors): ``divisors`` masks the generators dividing
    x^b (bit i for generator i), and ``lt[i]`` masks those with a smaller
    exponent than b in the i-th variable of supp b.  A face F of K^b is a
    set of such positions whose ``lt`` masks meet inside ``divisors``.

    b is the lcm of its divisors iff each b_v is attained by a divisor; a
    divisor set only shrinks as variables are fixed, so a value no
    remaining generator attains is pruned at once.  The partial products
    with z zero exponents over the first k variables extend those with
    z - 1 zeros by a zero and those with z zeros by a nonzero exponent, so
    each level builds one column of them, z = n - size over the n variables
    in use, from the column of the level above, and no partial product is
    built twice.
    """
    if not ideal.is_proper():
        raise InputError("Betti numbers of the zero module are not defined here")
    exps = ideal.generators
    tops = [max(column) for column in zip(*exps)]
    # the budget bounds the polarized support, the sum of the per-variable
    # maximal exponents, so the exit code and the null pd of a report do
    # not depend on how pd is computed
    s = sum(tops)
    if s > budget:
        raise BudgetExceededError(
            f"support of size {s} exceeds the subset-enumeration budget {budget}"
        )
    # exact[v][t]: generators with exponent t in x_v; below[v][t]: <= t
    below, exact = [], []
    for v, top in enumerate(tops):
        if top:
            at = [0] * (top + 1)
            for i, g in enumerate(exps):
                at[g[v]] |= 1 << i
            exact.append(at)
            below.append(list(accumulate(at, or_)))
    n = len(below)
    last = [[]] * (n + 1)  # the column of the level above, none at the top
    for size in range(n, low - 1, -1):
        # column[k]: (b, divisors so far) over the first k variables, with
        # n - size zero exponents among them; last[k] has one fewer
        column = [[((), (1 << len(exps)) - 1)] if size == n else []]
        for k, (upto, at) in enumerate(zip(below, exact)):
            column.append(
                [(b + (0,), mask & upto[0]) for b, mask in last[k] if mask & at[0]]
                + [
                    (b + (t,), mask & upto[t])
                    for b, mask in column[k]
                    for t in range(1, len(at))
                    if mask & at[t]
                ]
            )
        last = column
        points = []
        for b, mask in column[n]:
            lt = [mask & upto[t - 1] for upto, t in zip(below, b) if t]
            # b_v is attained by a divisor iff not every divisor lies below
            # it (the pruning keeps a divisor); a generator below b in every
            # variable of supp b makes K^b the full simplex, which is
            # acyclic, so K^b has dimension at most |supp b| - 2 wherever it
            # counts
            if mask not in lt and not reduce(and_, lt, mask):
                points.append((lt, mask))
        yield size, points


def _is_sphere(lt: list, divisors: int) -> bool:
    """Whether K^b is the whole boundary of the simplex on C = supp b, for a
    point of ``_levels``: every C - v a face, by prefix and suffix ANDs of
    the ``lt`` masks."""
    if divisors.bit_count() < len(lt):  # each C - v needs its own divisor
        return False
    pre = accumulate(lt, and_, initial=divisors)
    suf = list(accumulate(reversed(lt), and_, initial=-1))
    # pre[i] & suf[s - 1 - i] is the meet of every lt[j] with j != i
    return all(map(and_, pre, reversed(suf[:-1])))


def total_betti_numbers(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(beta_0, beta_1, ..., beta_pd) of S/I over the field, from every
    level of ``_levels``.

    Refuses ideals whose polarized support exceeds the budget.
    """
    totals = [1] + [0] * ideal.n
    for _, points in _levels(ideal, budget):
        for lt, divisors in points:
            link = _Link(_faces(lt, divisors))
            for j in range(-1, len(link.faces) - 1):
                totals[j + 2] += _betti(link, j, field)
    while not totals[-1]:
        totals.pop()
    return tuple(totals)


def depth_and_pd(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(depth, pd) of S/I over the field; depth = n - pd.

    pd starts at 1, from the generators, and the levels of ``_levels`` are
    walked from the top by the sphere, skip and stop rules of the module
    docstring: a level with a sphere K^b sets pd to its size and ends the
    walk, any other point is ranked only where min(size - 1, its divisors)
    beats pd, and no level of a size s with min(s, number of generators)
    <= pd is listed.
    """
    if ideal.is_zero():
        return ideal.n, 0
    gens = len(ideal.generators)
    pd = 1
    # a principal ideal lists no level: min(s, 1) cannot beat pd = 1
    for size, points in _levels(ideal, budget, low=2 if gens > 1 else ideal.n + 1):
        if any(_is_sphere(lt, divisors) for lt, divisors in points):
            pd = size
            break
        for lt, divisors in points:
            top = min(size - 1, divisors.bit_count())
            if top <= pd:
                continue
            link = _Link(_faces(lt, divisors))
            for j in range(min(len(link.faces) - 2, top - 2), pd - 2, -1):
                if _betti(link, j, field):
                    pd = j + 2
                    break
        if min(size - 1, gens) <= pd:
            break
    return ideal.n - pd, pd
