"""Reduced simplicial homology, the Cohen-Macaulay test, and depth/pd.

One engine serves all three.  A complex is given by facet bitmasks: a set
F of positions is a face when ``within``, the facets in play, meets the
mask of every member of F.  The face walk ``simplicial._faces`` lists the
faces and ``_betti`` takes one reduced Betti number from the boundary
ranks.  A simplicial complex has one bit per facet, and the link of a face
F keeps the same masks, with ``within`` cut down to the facets containing
F and the vertices of F dropped.  The CM test lists a link only when it
can fail: a link with a vertex in all of its facets is a cone, acyclic
over every field, and is skipped; any other link is keyed by its facet
set (vertex masks of the facets containing F, F's bits cleared), and a
key that passed once is not listed again.  Skipped links are exactly ones
that pass, so the face count and the first failing witness do not move.
Over Q every degree is probed mod p first: rank mod p never exceeds the
rational rank, so a zero there is a zero over Q, and a nonzero probe is
redone exactly on the same boundary rows.

Degrees 0 and 1 need no elimination: over every field d_0 has rank 1 on a
nonempty vertex set and d_1 has rank V - c, read off a union-find on the
edges.  Mod p the higher maps are ranked from the top dimension down with
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  Each row the
echelon basis of d_{k+1} stores is a combination of boundaries, so a
k-cycle mod p, and it is nonzero at its pivot tau, its largest column; so
the boundary of tau is a combination of the boundaries of the k-faces
before tau, and the row of d_k at tau can be dropped without changing the
rank of d_k.  The rows pushed onto d_k are then f_k - rank d_{k+1}, of
which betti_k reduce to zero.  The exact redo over Q keeps every row: a
cycle mod p need not lift to a rational one that is nonzero at tau, so a
pivot mod p proves no dependence over Q.

Betti numbers of S/I come from upper Koszul complexes (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34): for a multidegree b,

    beta_{i,b}(S/I) = dim H~_{i-2}(K^b),  K^b = {F in supp b : x^(b-F) in I},

in the ideal's own variables, with no polarization.  Only b in the lcm
lattice of the generators contribute (Gasharov-Peeva-Welker): elsewhere
some variable of supp b lies in every facet of K^b, a cone.  The facets of
K^b are the sets {v : g_v < b_v} for the generators g dividing x^b, so
K^b has the same bitmask form, one bit per such generator.  K^b has at
most |supp b| vertices, and when it is the full simplex it is acyclic and
skipped, so beta_{i,b} = 0 for i > |supp b|.  The projective dimension
walks b by |supp b|, largest first, and stops once |supp b| cannot beat the
best degree found; depth is then n - pd by Auslander-Buchsbaum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .covers import _bits
from .errors import BudgetExceededError, InputError
from .fields import DEFAULT_PRIME, GF, QQ, PrimeField
from .linalg import rank_of_rows
from .monomials import MonomialIdeal
from .simplicial import SimplicialComplex, _facet_masks, _faces

_PROBE = GF(DEFAULT_PRIME)


def _boundary_rows(faces_k, index_km1):
    rows = []
    for f in faces_k:
        row = {}
        for j in range(len(f)):
            row[index_km1[f[:j] + f[j + 1 :]]] = -1 if j % 2 else 1
        rows.append(row)
    return rows


def _betti(faces: dict, j: int, field, cache: dict) -> int:
    """Reduced Betti number in degree j over the field, probed mod p first
    over Q; ``cache`` keeps this complex's ranks between calls."""

    def betti(f):
        return len(faces.get(j, ())) - _rank(faces, f, j, cache) - _rank(faces, f, j + 1, cache)

    if field == QQ and not betti(_PROBE):
        return 0
    return betti(field)


def _rank(faces: dict, field, d: int, cache: dict) -> int:
    """Rank of the boundary map from the d-faces to the (d-1)-faces.

    Degrees 0 and 1 come from the graph of vertices and edges, exactly over
    every field.  Over GF(p) the maps are ranked from the top dimension
    down, each with the rows at the pivots of the map above cleared; over Q
    a map is ranked on all of its rows.  ``cache`` holds the ranks by
    (field, d) and, by (field, None), the lowest map ranked mod p so far
    with its pivots.
    """
    if (field, d) in cache:
        return cache[field, d]
    if d < 0 or not faces.get(d):
        return 0
    if d < 2:
        if "low" not in cache:
            cache["low"] = _low_ranks(faces)
        return cache["low"][d]
    if not isinstance(field, PrimeField):
        index = {face: i for i, face in enumerate(faces[d - 1])}
        cache[field, d] = rank_of_rows(_boundary_rows(faces[d], index), field)
        return cache[field, d]
    e, cleared = cache.get((field, None), (max(faces) + 1, set()))
    while e > d:
        e -= 1
        index = {face: i for i, face in enumerate(faces[e - 1])}
        kept = [face for i, face in enumerate(faces[e]) if i not in cleared]
        cleared = set()
        cache[field, e] = rank_of_rows(_boundary_rows(kept, index), field, cleared)
    cache[field, None] = (e, cleared)
    return cache[field, d]


def _low_ranks(faces: dict) -> tuple:
    """(rank d_0, rank d_1) over every field, by a union-find on the edges:
    d_0 has rank 1 once there is a vertex, and the edges of a spanning
    forest form a basis of the row space of d_1, so its rank is V - c for
    V vertices in c components."""
    parent = {v: v for (v,) in faces.get(0, ())}
    merged = 0
    for u, v in faces.get(1, ()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            merged += 1
    return int(bool(parent)), merged


# ---------------------------------------------------------------------------
# simplicial complexes and their links


def reduced_homology_ranks(cx: SimplicialComplex, field=QQ) -> tuple:
    """(betti_0, ..., betti_dim) over the given field; () for the complex {∅}."""
    if cx.is_void():
        raise InputError("the void complex has no reduced homology")
    faces = _faces(_facet_masks(cx), (1 << len(cx.facets)) - 1)
    cache: dict = {}
    return tuple(_betti(faces, j, field, cache) for j in range(0, cx.dim + 1))


@dataclass(frozen=True)
class CMCertificate:
    """Outcome of the homological (link-vanishing) test over one field."""

    is_cm: bool
    field_name: str
    faces_checked: int
    witness: tuple | None = None  # (face, degree, betti) on failure

    def __bool__(self):
        return self.is_cm


def is_cohen_macaulay(cx: SimplicialComplex, field=QQ) -> CMCertificate:
    """Exhaustive link test: every face's link must have vanishing reduced
    homology below its own dimension.  Faces are visited by size, then
    lexicographically; returns the first failing witness.

    Only links that can fail reach homology.  The link of F is a cone, and
    acyclic over every field, when a vertex outside F lies in every facet
    containing F.  Any other link is keyed by its facets, as vertex masks
    with F's vertices cleared, and a key whose homology passed once is not
    listed again; the vertex set alone would not do, since two links on the
    same vertices can differ.  Both shortcuts pass only links that pass, so
    ``faces_checked`` still counts every face and the first witness stays.
    """
    if cx.is_void():
        raise InputError("the void complex is not a ring-theoretic object here")
    masks = _facet_masks(cx)
    every = (1 << len(cx.facets)) - 1
    # vertex mask of each facet, in the bit order of ``masks``
    members = [sum(1 << v for v in facet) for facet in cx.facets]
    passed = set()
    checked = 0
    listed = _faces(masks, every)
    top = max(listed)
    # a face of dimension top - 1 or more has a link of dimension at most
    # 0, with no degree below its own to test; these faces come last
    for d in range(-1, top - 1):
        for face in listed[d]:
            checked += 1
            # the link of F: the facets containing F, restricted to the
            # vertices outside F
            within = reduce(and_, (masks[v] for v in face), every)
            lt = [m for v, m in enumerate(masks) if m & within and v not in face]
            if any(m & within == within for m in lt):
                continue  # a cone over that vertex
            outside = ~sum(1 << v for v in face)
            key = frozenset(members[i] & outside for i in _bits(within))
            if key in passed:
                continue
            # the link of the empty face is the complex, listed above
            link = _faces(lt, within) if face else listed
            cache: dict = {}
            for j in range(max(link)):
                betti = _betti(link, j, field, cache)
                if betti:
                    return CMCertificate(False, field.name, checked, (face, j, betti))
            passed.add(key)
    checked += sum(len(faces) for d, faces in listed.items() if d >= top - 1)
    return CMCertificate(True, field.name, checked)


# ---------------------------------------------------------------------------
# Betti numbers of S/I from upper Koszul complexes on the lcm lattice


def _lattice_points(ideal: MonomialIdeal, budget: int) -> list:
    """One entry (lt, divisors) per nonzero element b of the lcm lattice.

    ``divisors`` masks the generators dividing x^b (bit i for generator i);
    ``lt[i]`` masks those with a smaller exponent than b in the i-th
    variable of supp b.  A face F of K^b is a set of such positions whose
    ``lt`` masks meet inside ``divisors``.
    """
    if not ideal.is_proper():
        raise InputError("Betti numbers of the zero module are not defined here")
    exps = [g.exponents for g in ideal.generators]
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
    # b is the lcm of its divisors iff each b_v is attained by a divisor;
    # a divisor set only shrinks as variables are fixed, so a value no
    # remaining generator attains is pruned at once
    level = [((), (1 << len(exps)) - 1)]
    for upto, at in zip(below, exact):
        level = [
            (b + (t,), mask & upto[t])
            for b, mask in level
            for t in range(len(at))
            if mask & at[t]
        ]
    points = []
    for b, mask in level:
        if mask and all(mask & at[t] for at, t in zip(exact, b)):
            lt = [mask & upto[t - 1] for upto, t in zip(below, b) if t]
            # a generator below b in every variable of supp b makes K^b the
            # full simplex, which is acyclic; so K^b has dimension at most
            # |supp b| - 2 wherever it counts
            if not reduce(and_, lt, mask):
                points.append((lt, mask))
    return points


def total_betti_numbers(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(beta_0, beta_1, ..., beta_pd) of S/I over the field.

    Refuses ideals whose polarized support exceeds the budget.
    """
    totals = [1] + [0] * ideal.n
    for lt, divisors in _lattice_points(ideal, budget):
        faces = _faces(lt, divisors)
        cache: dict = {}
        for j in range(-1, max(faces) + 1):
            totals[j + 2] += _betti(faces, j, field, cache)
    while not totals[-1]:
        totals.pop()
    return tuple(totals)


def depth_and_pd(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(depth, pd) of S/I over the field; depth = n - pd."""
    if ideal.is_zero():
        return ideal.n, 0
    points = sorted(_lattice_points(ideal, budget), key=lambda p: -len(p[0]))
    pd = 1
    for lt, divisors in points:
        if len(lt) <= pd:
            break
        faces = _faces(lt, divisors)
        cache: dict = {}
        for j in range(max(faces), pd - 2, -1):
            if _betti(faces, j, field, cache):
                pd = j + 2
                break
    return ideal.n - pd, pd
