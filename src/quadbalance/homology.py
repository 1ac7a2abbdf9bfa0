"""Reduced simplicial homology, the Cohen-Macaulay test, and depth/pd.

One engine serves all three.  A complex is given by facet bitmasks: a set
F of positions is a face when ``within``, the facets in play, meets the
mask of every member of F.  The face walk ``simplicial._faces`` lists the
faces once, and every homology computed here is that of the link of a face
F inside them: the complex itself is the link of the empty face.

The faces of lk F are the sets G with G u F a face and G n F empty, so the
e-faces of lk F are the (e + |F|)-faces H of the complex that contain F,
its star.  Each dimension of the complex is numbered once; the faces of
dimension d through a vertex v are one bitmask, and the star of F in
dimension d is the AND of these masks over v in F.  The boundary of lk F
is the boundary of the complex restricted to the rows and the columns
that contain F, up to signs: for H = G u F, a face H - s with s in F does
not contain F, and H - s with s in G is (G - s) u F.  The entry of s in
the boundary of H is (-1)^#{t in H : t < s}, the link's entry of s in
the boundary of G times tau(s) = (-1)^#{f in F : f < s}.  With
sigma(G) = product of tau(s) over s in G, tau(s) = sigma(G) sigma(G - s),
so the restricted matrix is the link's boundary matrix scaled on both
sides by the diagonal +-1 matrix sigma.  Ranks, and so Betti numbers,
agree over every field; over GF(2) the two matrices are equal.

A link is ranked, never listed.  The CM test skips a
link with a vertex in all of its facets, a cone and acyclic over every
field, and any link whose facet set (vertex masks of the facets containing
F, F's bits cleared) passed once.  Skipped links are exactly ones that
pass, so the face count and the first failing witness do not move.

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
on both sides, as RP^2's d_2 from its 2-torsion, is redone exactly on the
restricted signed rows.  An odd p ranks the same signed rows with
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
when it is the full simplex it is acyclic and skipped, so beta_{i,b} = 0
for i > |supp b|.  The projective dimension walks b by |supp b|, largest
first, and stops once |supp b| cannot beat the best degree found; depth is
then n - pd by Auslander-Buchsbaum.
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
from .simplicial import SimplicialComplex, _facet_masks, _faces

_GF2 = GF(2)


def _tables(cache: dict, d: int) -> list:
    """The tables of the listed complex in dimension d, each built on first
    use by the functions below: [index, through, rows, signed]."""
    tables = cache.get(d)
    if tables is None:
        tables = cache[d] = [None, None, None, None]
    return tables


def _index(faces: dict, cache: dict, d: int) -> dict:
    """The number of each d-face."""
    tables = _tables(cache, d)
    if tables[0] is None:
        tables[0] = {face: i for i, face in enumerate(faces[d])}
    return tables[0]


def _through(faces: dict, cache: dict, d: int) -> dict:
    """Each vertex's mask of the d-faces containing it."""
    tables = _tables(cache, d)
    if tables[1] is None:
        through: dict = {}
        for i, face in enumerate(faces[d]):
            bit = 1 << i
            for v in face:
                through[v] = through.get(v, 0) | bit
        tables[1] = through
    return tables[1]


def _rows(faces: dict, cache: dict, d: int) -> list:
    """The boundary of each d-face as bits over the (d-1)-faces."""
    tables = _tables(cache, d)
    if tables[2] is None:
        # combinations(face, d) lists the facets of a face
        at = _index(faces, cache, d - 1).__getitem__
        tables[2] = [sum(map((1).__lshift__, map(at, combinations(face, d)))) for face in faces[d]]
    return tables[2]


def _signed(link, e: int, kept) -> list:
    """The signed boundary rows of the link's e-faces numbered in ``kept``:
    the complex's rows {index: +-1}, cut down to the columns in the star."""
    d = e + len(link.face)
    tables = _tables(link.cache, d)
    if tables[3] is None:
        # the t-th facet listed drops vertex d - t of the face, with sign
        # (-1)^(d - t)
        at = _index(link.faces, link.cache, d - 1)
        tables[3] = [
            {at[facet]: -1 if (d - t) % 2 else 1 for t, facet in enumerate(combinations(face, d))}
            for face in link.faces[d]
        ]
    rows = tables[3]
    if not link.face:  # every column is in the star of the empty face
        return [rows[i] for i in kept]
    cols = link.star[e]
    return [{c: x for c, x in rows[i].items() if cols >> c & 1} for i in kept]


class _Link:
    """lk F inside a listed complex, the complex itself when F is empty.

    ``star[e + 1]`` masks the (|F| + e)-faces that contain F, which are the
    e-faces of lk F, for e from -1 to the dimension of lk F; ``cache`` holds
    the listed complex's tables.  ``mod`` maps p to the state of
    ``_mod_ranks`` over GF(p), and ``exact`` a degree to its rank over Q.
    """

    __slots__ = ("faces", "cache", "face", "star", "mod", "exact")

    def __init__(self, faces: dict, cache: dict, face: tuple = ()):
        self.faces, self.cache, self.face = faces, cache, face
        self.mod: dict = {}
        self.exact: dict = {}
        # F itself, the one (-1)-face of lk F
        self.star = [1 << _index(faces, cache, len(face) - 1)[face] if face else 1]
        for d in range(len(face), max(faces) + 1):
            mask = (1 << len(faces[d])) - 1
            if face:
                through = _through(faces, cache, d)
                mask = reduce(and_, (through.get(v, 0) for v in face), mask)
                if not mask:
                    break
            self.star.append(mask)


def _betti(link: _Link, j: int, field) -> int:
    """Reduced Betti number in degree j of the link over the field, probed
    mod 2 first over Q."""
    star = link.star
    if not 0 <= j + 1 < len(star):
        return 0
    betti = _mod_betti(link, _GF2 if field == QQ else field, j)
    if betti and field == QQ:
        betti = star[j + 1].bit_count() - _rank(link, QQ, j) - _rank(link, QQ, j + 1)
    return betti


def _mod_betti(link: _Link, field, j: int) -> int:
    """Reduced Betti number over GF(p) in degree j, for 0 <= j + 1 < len(star)."""
    ranks = _mod_ranks(link, field, j)
    return link.star[j + 1].bit_count() - ranks[j + 1] - ranks[j + 2]


def _rank(link: _Link, field, e: int) -> int:
    """Rank of the boundary map of lk F from its e-faces to its (e-1)-faces.

    Over GF(p) it is read from ``_mod_ranks``, and so is degree 0 or 1
    over Q, and any map over Q closed by a mod-2 Betti number of 0 on
    either side; the rest over Q are ranked on all of their signed rows,
    restricted to the star of F.
    """
    star = link.star
    if not 0 <= e < len(star) - 1:
        return 0
    if field != QQ or e < 2 or not (_mod_betti(link, _GF2, e) and _mod_betti(link, _GF2, e - 1)):
        return _mod_ranks(link, _GF2 if field == QQ else field, e)[e + 1]
    if e not in link.exact:
        link.exact[e] = rank_of_rows(_signed(link, e, _bits(star[e + 1])), QQ)
    return link.exact[e]


def _mod_ranks(link: _Link, field, e: int) -> list:
    """Ranks over GF(p) of the link's boundary maps, ``ranks[k + 1]`` for
    the map from the k-faces, for k from -1 up to one above the link's
    dimension, correct for every k >= e.

    The maps are ranked from the top dimension down, as far as asked, on
    the complex's own rows restricted to the star, each with the rows at
    the pivots of the map above cleared: mod 2 as bits, otherwise on
    signed rows, except degree 1, which is ranked mod 2 over every field,
    and degree 0, which has rank 1 on a nonempty vertex set.  The state
    kept in ``link.mod`` is [ranks by degree + 1, the lowest degree ranked,
    the pivots of its map as a mask].
    """
    star = link.star
    state = link.mod.get(field.p)
    if state is None:
        ranks = [0] * (len(star) + 1)
        ranks[1] = int(len(star) > 1)
        state = link.mod[field.p] = [ranks, len(star) - 1, 0]
    ranks, low, cleared = state
    while low > max(e, 1):
        low -= 1
        kept = _bits(star[low + 1] & ~cleared)
        # degree 0 is not eliminated, so degree 1 clears nothing
        pivots = set() if low > 1 else None
        if field.p == 2 or low < 2:
            rows, cols = _rows(link.faces, link.cache, low + len(link.face)), star[low]
            ranks[low + 1] = xor_rank([rows[i] & cols for i in kept], pivots)
        else:
            ranks[low + 1] = rank_of_rows(_signed(link, low, kept), field, pivots)
        cleared = sum(map((1).__lshift__, pivots or ()))
        state[1:] = low, cleared
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


def is_cohen_macaulay(cx: SimplicialComplex, field=QQ) -> CMCertificate:
    """Exhaustive link test: every face's link must have vanishing reduced
    homology below its own dimension.  Faces are visited by size, then
    lexicographically; returns the first failing witness.

    The complex's one face listing is read, and each link is ranked
    inside the complex's boundary maps, on its star.  Only links that can
    fail reach homology.  The link of F is a cone, and acyclic over every field, when
    a vertex outside F lies in every facet containing F.  Any other link is
    keyed by its facets, as vertex masks with F's vertices cleared, and a
    key whose homology passed once is not ranked again; the vertex set
    alone would not do, since two links on the same vertices can differ.
    Both shortcuts pass only links that pass, so ``faces_checked`` still
    counts every face and the first witness stays.
    """
    if cx.is_void():
        raise InputError("the void complex is not a ring-theoretic object here")
    masks = _facet_masks(cx)
    every = (1 << len(cx.facets)) - 1
    # vertex mask of each facet, in the bit order of ``masks``
    members = [sum(1 << v for v in facet) for facet in cx.facets]
    passed = set()
    checked = 0
    listed = cx._listed
    top = max(listed)
    cache: dict = {}
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
            link = _Link(listed, cache, face)
            # lk F has dimension len(link.star) - 2
            for j in range(len(link.star) - 2):
                betti = _betti(link, j, field)
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
        link = _Link(_faces(lt, divisors), {})
        for j in range(-1, len(link.star) - 1):
            totals[j + 2] += _betti(link, j, field)
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
        link = _Link(_faces(lt, divisors), {})
        for j in range(len(link.star) - 2, pd - 2, -1):
            if _betti(link, j, field):
                pd = j + 2
                break
    return ideal.n - pd, pd
