"""Simplicial complexes on an ambient vertex set, and their combinatorics.

A complex is stored by its facets (inclusion-maximal faces) over vertices
0..n-1.  The void complex (no faces at all) and the empty complex {∅} are
distinct: the former has no facets, the latter has the single facet ∅.
Ambient vertices may be absent from every face; such a vertex shows up as a
size-1 minimal non-face.

An independence complex Ind(G) is built from its graph G, with no
transversal enumerated.  Its faces are the independent sets of G, which
are the cliques of the complement graph, so its facets are the maximal
cliques of the complement, listed by Bron-Kerbosch with Tomita's pivot.
Its minimal non-faces are the distinct edges of G.  A set is a non-face
exactly when it contains an edge.  So an edge is a non-face, and each of
its proper subsets, a vertex or the empty set, is a face, as no edge is a
loop: every edge is a minimal non-face.  A minimal non-face S contains an
edge e, a non-face itself, so S = e by minimality.  The complex carries
them from the start, in the (size, lex) order of ``minimal_non_faces``.

Faces are listed by ``_faces`` only where they are ranked: the link walk
of ``homology`` and the tests.  The f-vector, and through it the h-vector
and the face total of a Cohen-Macaulay certificate, come from
``_count_faces``, the same walk with each face replaced by its size.  The
children of a node, and so its whole subtree, depend only on the node's
facet mask and next position, never on the face, and each node is pushed
once, by its parent, whatever order the children are pushed in.  So both
walks visit the same nodes, a node of size k being a face on k vertices
in ``_faces``: the count is exactly the listing's length in every
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from operator import and_

from .covers import _minimal_transversals, minimal_primes
from .errors import BudgetExceededError, InputError
from .monomials import MonomialIdeal, _ideal_from_minimal

# the most vertices a facet may have for its complex's faces to be listed or
# counted: a facet on k vertices alone has 2^k faces, and both walks visit
# every one
_FACET_CAP = 24


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    facets: frozenset = frozenset()

    def __post_init__(self):
        n = self.n_vertices
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        raw = set(map(frozenset, self.facets))
        for f in raw:
            for v in f:
                if not 0 <= v < n:
                    raise InputError(f"vertex {v} out of range 0..{n - 1}")
        object.__setattr__(self, "facets", _maximal(raw))

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        return cls(n, frozenset(frozenset(f) for f in faces))

    @classmethod
    def full_simplex(cls, n: int) -> "SimplicialComplex":
        return cls(n, frozenset([frozenset(range(n))]))

    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void():
            raise InputError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def _walked(self, walk):
        """``walk`` run on the facet masks, every facet in play; a facet on
        more than ``_FACET_CAP`` vertices is refused before any walk."""
        largest = max(map(len, self.facets), default=0)
        if largest > _FACET_CAP:
            raise BudgetExceededError(
                f"a facet on {largest} vertices has 2^{largest} faces; "
                f"faces are listed only when every facet has at most {_FACET_CAP} vertices"
            )
        return walk(_facet_masks(self), (1 << len(self.facets)) - 1)

    @cached_property
    def _listed(self) -> dict:
        """Faces by dimension, listed once per instance; no reader changes it."""
        return self._walked(_faces)

    @cached_property
    def _counted(self) -> tuple:
        """The face count of each size, from 0 to the largest, counted once
        per instance without listing a face."""
        return self._walked(_count_faces)

    @cached_property
    def _minimal_non_faces(self) -> tuple:
        """``minimal_non_faces``, listed once per instance; no reader changes it."""
        everything = frozenset(range(self.n_vertices))
        return tuple(_minimal_transversals(everything - f for f in self.facets))

    def faces(self) -> set:
        """All faces, including the empty face when the complex is nonvoid."""
        return {frozenset(f) for faces in self._listed.values() for f in faces}

    def has_face(self, face) -> bool:
        face = frozenset(face)
        return any(face <= fac for fac in self.facets)

    def link(self, face) -> "SimplicialComplex":
        face = frozenset(face)
        if not self.has_face(face):
            raise InputError("link of a non-face")
        return SimplicialComplex(
            self.n_vertices, frozenset(fac - face for fac in self.facets if face <= fac)
        )


def _from_maximal(n: int, facets) -> SimplicialComplex:
    """The complex with these facets, already pairwise incomparable and on
    vertices 0..n-1, without the checks and the maximality pass of
    ``__post_init__``: for facets the package computes itself."""
    cx = object.__new__(SimplicialComplex)
    object.__setattr__(cx, "n_vertices", n)
    object.__setattr__(cx, "facets", frozenset(facets))
    return cx


def _maximal(sets: set) -> frozenset:
    """The inclusion-maximal sets among distinct sets.

    Sorted by size, largest first, a set can lie only in sets before it, so
    it is maximal exactly when the masks of the sets through each of its
    vertices (bit i for the i-th set) meet nowhere below its own position.
    Distinct sets of one size never contain one another, so a list of one
    size is maximal as it stands.
    """
    if len(set(map(len, sets))) <= 1:
        return frozenset(sets)
    order = sorted(sets, key=len, reverse=True)
    through: dict = {}
    for i, f in enumerate(order):
        bit = 1 << i
        for v in f:
            through[v] = through.get(v, 0) | bit
    return frozenset(
        f
        for i, f in enumerate(order)
        if not reduce(and_, map(through.__getitem__, f), (1 << i) - 1)
    )


def _facet_masks(cx: SimplicialComplex) -> list:
    """masks[v]: the facets containing vertex v, bit i for the i-th facet."""
    masks = [0] * cx.n_vertices
    for i, facet in enumerate(cx.facets):
        for v in facet:
            masks[v] |= 1 << i
    return masks


def _faces(lt: list, within: int) -> dict:
    """Faces by dimension, the empty face included, of the complex whose
    faces are the sets F of positions in ``lt`` for which ``within`` and
    every ``lt[v]``, v in F, have a common bit.

    On facet masks with every facet in ``within`` these are a complex's
    faces as vertex tuples.  Each dimension's faces come out sorted: the
    walk is a preorder that grows a face by increasing positions, and the
    row order of a boundary matrix sets its elimination fill-in.
    """
    faces: dict = {}
    stack = [((), within, 0)] if within else []
    while stack:
        face, mask, start = stack.pop()
        faces.setdefault(len(face) - 1, []).append(face)
        for v in range(len(lt) - 1, start - 1, -1):
            meet = mask & lt[v]
            if meet:
                stack.append((face + (v,), meet, v + 1))
    return faces


def _count_faces(lt: list, within: int) -> tuple:
    """The faces ``_faces(lt, within)`` lists, counted by size (entry k for
    the faces on k vertices, up to the largest) with no face built."""
    counts = []
    stack = [(0, within, 0)] if within else []
    while stack:
        size, mask, start = stack.pop()
        if size == len(counts):
            counts.append(0)
        counts[size] += 1
        size += 1
        for v in range(start, len(lt)):
            meet = mask & lt[v]
            if meet:
                stack.append((size, meet, v + 1))
    return tuple(counts)


def f_vector(cx: SimplicialComplex) -> tuple:
    """(f_-1, f_0, ..., f_dim); f_-1 = 1 counts the empty face."""
    if cx.is_void():
        raise InputError("the void complex has no f-vector")
    return cx._counted


def h_vector(cx: SimplicialComplex) -> tuple:
    """(h_0, ..., h_d) with d = dim + 1, by the binomial transform of f."""
    f = f_vector(cx)
    d = cx.dim + 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def minimal_non_faces(cx: SimplicialComplex) -> tuple:
    """All inclusion-minimal non-faces, sorted; each has size <= dim + 2.

    By Alexander duality a set is a non-face exactly when it meets the
    complement of every facet, so the minimal non-faces are the minimal
    transversals of the facet complements; the void complex gets (∅,).
    Each complex lists them once, for ``is_flag`` and ``balance`` alike,
    and an independence complex holds them from the start: its edges.
    """
    return cx._minimal_non_faces


def is_flag(cx: SimplicialComplex) -> bool:
    """True when every minimal non-face is an edge (size exactly 2)."""
    return all(len(m) == 2 for m in minimal_non_faces(cx))


def stanley_reisner(cx: SimplicialComplex) -> MonomialIdeal:
    """The squarefree ideal generated by the minimal non-faces, which never
    contain one another, so they are its minimal generators."""
    n = cx.n_vertices
    gens = []
    for nf in minimal_non_faces(cx):
        if not nf:
            # void complex: even the empty set is not a face
            return MonomialIdeal(max(n, 1), ((0,) * max(n, 1),))
        exps = [0] * n
        for j in nf:
            exps[j] = 1
        gens.append(tuple(exps))
    return _ideal_from_minimal(n, gens)


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Inverse correspondence: faces are the squarefree monomials outside I.

    Facets are the complements of the minimal primes, which are pairwise
    incomparable, and so are their complements.
    """
    if not ideal.is_squarefree():
        raise InputError("the correspondence needs a squarefree ideal")
    n = ideal.n
    if not ideal.is_proper():
        return SimplicialComplex(n, frozenset())
    if ideal.is_zero():
        return SimplicialComplex.full_simplex(n)
    everything = frozenset(range(n))
    return _from_maximal(n, (everything - p for p in minimal_primes(ideal)))


def independence_complex(n: int, edges) -> SimplicialComplex:
    """Faces are the independent sets of the graph; always a flag complex.

    The facets, the maximal independent sets, are the maximal cliques of
    the complement graph, and the minimal non-faces are the distinct edges.
    """
    clean = set()
    for e in edges:
        e = tuple(e)
        if len(e) != 2 or e[0] == e[1]:
            raise InputError(f"bad edge {e}: need two distinct endpoints")
        for v in e:
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range 0..{n - 1}")
        clean.add(e if e[0] < e[1] else e[::-1])
    # others[v]: the neighbours of v in the complement graph; each distinct
    # edge clears its own bit at both ends
    others = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    for u, v in clean:
        others[u] ^= 1 << v
        others[v] ^= 1 << u
    cx = _from_maximal(n, map(frozenset, _maximal_cliques(others)))
    object.__setattr__(cx, "_minimal_non_faces", tuple(map(frozenset, sorted(clean))))
    return cx


def _maximal_cliques(adjacent: list) -> list:
    """The maximal cliques, as vertex tuples, of the graph on positions
    0..len(adjacent)-1 in which ``adjacent[v]`` masks the neighbours of v.

    Bron-Kerbosch with Tomita's pivot (Tomita, Tanaka and Takahashi, Theor.
    Comput. Sci. 363, 2006) on int bitsets, with an explicit stack.  A node
    holds a clique R, the candidates P (adjacent to all of R, not yet
    tried) and the excluded X (adjacent to all of R, tried by an earlier
    sibling).  A maximal clique K below the node lies in R u P, and for any
    u in P u X it holds u or a vertex of P outside the neighbours of u, or
    else u would extend it.  So only those candidates are branched on, each
    moved to X for its later siblings, and each maximal clique is reached
    once, at a node with P and X both empty; such a child is settled where
    it is made, so every node on the stack has candidates.  The pivot u has
    the most neighbours in P, and its scan stops at |P| - 1, the most a
    vertex of P can have.
    """
    if not adjacent:
        return [()]  # on no vertices the one maximal clique is empty
    found = []
    stack = [((), (1 << len(adjacent)) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        most, best = candidates.bit_count() - 1, -1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            here = (candidates & adjacent[u]).bit_count()
            if here > best:
                best, pivot = here, u
                if here >= most:
                    break
        branch = candidates & ~adjacent[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            if candidates & adjacent[v]:
                stack.append((clique + (v,), candidates & adjacent[v], excluded & adjacent[v]))
            elif not excluded & adjacent[v]:
                found.append(clique + (v,))
            candidates ^= low
            excluded |= low
    return found


def check_balanced(cx: SimplicialComplex, coloring):
    """Verify a proper (dim+1)-coloring: no face repeats a color.

    Colors are 1..dim+1, given as a tuple indexed by vertex.  Returns the
    verified coloring, or None when it is improper.
    """
    if cx.is_void():
        raise InputError("the void complex cannot be colored")
    colors = tuple(coloring)
    if len(colors) != cx.n_vertices:
        raise InputError("coloring must assign a color to every ambient vertex")
    top = max(cx.dim + 1, 1)
    if any(not 1 <= c <= top for c in colors):
        return None
    for fac in cx.facets:
        if len({colors[v] for v in fac}) < len(fac):
            return None
    return colors
