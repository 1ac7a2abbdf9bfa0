"""Reduced simplicial homology, the Cohen-Macaulay test, and depth/pd.

One engine serves all three.  A complex is given by facet bitmasks: a set
F of positions is a face when ``within``, the facets in play, meets the
mask of every member of F.  ``_faces`` lists the faces and ``_betti`` takes
one reduced Betti number from the boundary ranks.  A simplicial complex has
one bit per facet, and the link of a face F keeps the same masks, with
``within`` cut down to the facets containing F and the vertices of F
dropped.  Over Q every degree is probed mod p first: rank mod p never
exceeds the rational rank, so a zero there is a zero over Q, and a nonzero
probe is redone exactly.

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

from .errors import BudgetExceededError, InputError
from .fields import DEFAULT_PRIME, GF, QQ
from .linalg import rank_of_rows
from .monomials import MonomialIdeal
from .simplicial import SimplicialComplex

_PROBE = GF(DEFAULT_PRIME)


def _boundary_rows(faces_k, index_km1):
    rows = []
    for f in faces_k:
        row = {}
        for j in range(len(f)):
            row[index_km1[f[:j] + f[j + 1 :]]] = -1 if j % 2 else 1
        rows.append(row)
    return rows


def _faces(lt: list, within: int) -> dict:
    """Faces by dimension, the empty face included, of the complex whose
    faces are the sets F of positions in ``lt`` for which ``within`` and
    every ``lt[v]``, v in F, have a common bit.

    Each dimension's faces come out sorted: the walk is a preorder that
    grows a face by increasing positions, and the row order of a boundary
    matrix sets its elimination fill-in.
    """
    faces: dict = {}
    stack = [((), within, 0)]
    while stack:
        face, mask, start = stack.pop()
        faces.setdefault(len(face) - 1, []).append(face)
        for v in range(len(lt) - 1, start - 1, -1):
            meet = mask & lt[v]
            if meet:
                stack.append((face + (v,), meet, v + 1))
    return faces


def _betti(faces: dict, j: int, field, ranks: dict) -> int:
    """Reduced Betti number in degree j over the field, probed mod p first
    over Q; ``ranks`` keeps the boundary ranks of this complex per (field,
    dimension) between calls."""

    def rank(f, d):
        if (f, d) not in ranks:
            rows, lower = faces.get(d), faces.get(d - 1)
            ranks[f, d] = 0
            if rows and lower:
                index = {face: i for i, face in enumerate(lower)}
                ranks[f, d] = rank_of_rows(_boundary_rows(rows, index), f)
        return ranks[f, d]

    def betti(f):
        return len(faces.get(j, ())) - rank(f, j) - rank(f, j + 1)

    if field == QQ and not betti(_PROBE):
        return 0
    return betti(field)


# ---------------------------------------------------------------------------
# simplicial complexes and their links


def _facet_masks(cx: SimplicialComplex) -> list:
    """masks[v]: the facets containing vertex v, bit i for the i-th facet."""
    masks = [0] * cx.n_vertices
    for i, facet in enumerate(cx.facets):
        for v in facet:
            masks[v] |= 1 << i
    return masks


def reduced_homology_ranks(cx: SimplicialComplex, field=QQ) -> tuple:
    """(betti_0, ..., betti_dim) over the given field; () for the complex {∅}."""
    if cx.is_void():
        raise InputError("the void complex has no reduced homology")
    faces = _faces(_facet_masks(cx), (1 << len(cx.facets)) - 1)
    ranks: dict = {}
    return tuple(_betti(faces, j, field, ranks) for j in range(0, cx.dim + 1))


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
    lexicographically; returns the first failing witness."""
    if cx.is_void():
        raise InputError("the void complex is not a ring-theoretic object here")
    masks = _facet_masks(cx)
    every = (1 << len(cx.facets)) - 1
    checked = 0
    for _, faces in sorted(_faces(masks, every).items()):
        for face in faces:
            checked += 1
            # the link of F: the facets containing F, restricted to the
            # vertices outside F
            within = reduce(and_, (masks[v] for v in face), every)
            lt = [m for v, m in enumerate(masks) if m & within and v not in face]
            link = _faces(lt, within)
            ranks: dict = {}
            for j in range(max(link)):
                betti = _betti(link, j, field, ranks)
                if betti:
                    return CMCertificate(False, field.name, checked, (face, j, betti))
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
        ranks: dict = {}
        for j in range(-1, max(faces) + 1):
            totals[j + 2] += _betti(faces, j, field, ranks)
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
        ranks: dict = {}
        for j in range(max(faces), pd - 2, -1):
            if _betti(faces, j, field, ranks):
                pd = j + 2
                break
    return ideal.n - pd, pd
