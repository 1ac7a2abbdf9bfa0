"""Simplicial complexes on an ambient vertex set, and their combinatorics.

A complex is stored by its facets (inclusion-maximal faces) over vertices
0..n-1.  The void complex (no faces at all) and the empty complex {∅} are
distinct: the former has no facets, the latter has the single facet ∅.
Ambient vertices may be absent from every face; such a vertex shows up as a
size-1 minimal non-face.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .covers import _minimal_transversals, minimal_primes
from .errors import InputError
from .monomials import Monomial, MonomialIdeal


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    facets: frozenset = frozenset()

    def __post_init__(self):
        n = self.n_vertices
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        raw = [frozenset(f) for f in self.facets]
        for f in raw:
            for v in f:
                if not 0 <= v < n:
                    raise InputError(f"vertex {v} out of range 0..{n - 1}")
        maximal = frozenset(f for f in raw if not any(f < g for g in raw))
        object.__setattr__(self, "facets", maximal)

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

    def faces(self) -> set:
        """All faces, including the empty face when the complex is nonvoid."""
        by_dim = _faces(_facet_masks(self), (1 << len(self.facets)) - 1)
        return {frozenset(f) for faces in by_dim.values() for f in faces}

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


def f_vector(cx: SimplicialComplex) -> tuple:
    """(f_-1, f_0, ..., f_dim); f_-1 = 1 counts the empty face."""
    if cx.is_void():
        raise InputError("the void complex has no f-vector")
    by_dim = _faces(_facet_masks(cx), (1 << len(cx.facets)) - 1)
    return tuple(len(by_dim[d]) for d in range(-1, cx.dim + 1))


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
    """
    everything = frozenset(range(cx.n_vertices))
    return tuple(_minimal_transversals(everything - f for f in cx.facets))


def is_flag(cx: SimplicialComplex) -> bool:
    """True when every minimal non-face is an edge (size exactly 2)."""
    return all(len(m) == 2 for m in minimal_non_faces(cx))


def stanley_reisner(cx: SimplicialComplex) -> MonomialIdeal:
    """The squarefree ideal generated by the minimal non-faces."""
    n = cx.n_vertices
    gens = []
    for nf in minimal_non_faces(cx):
        if not nf:
            # void complex: even the empty set is not a face
            return MonomialIdeal(max(n, 1), (Monomial((0,) * max(n, 1)),))
        exps = [0] * n
        for j in nf:
            exps[j] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(n, tuple(gens))


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Inverse correspondence: faces are the squarefree monomials outside I.

    Facets are the complements of the minimal primes.
    """
    if not ideal.is_squarefree():
        raise InputError("the correspondence needs a squarefree ideal")
    n = ideal.n
    if not ideal.is_proper():
        return SimplicialComplex(n, frozenset())
    if ideal.is_zero():
        return SimplicialComplex.full_simplex(n)
    everything = frozenset(range(n))
    return SimplicialComplex(
        n, frozenset(everything - p for p in minimal_primes(ideal))
    )


def independence_complex(n: int, edges) -> SimplicialComplex:
    """Faces are the independent sets of the graph; always a flag complex."""
    clean = []
    for e in edges:
        e = tuple(e)
        if len(e) != 2 or e[0] == e[1]:
            raise InputError(f"bad edge {e}: need two distinct endpoints")
        for v in e:
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range 0..{n - 1}")
        clean.append(frozenset(e))
    if not clean:
        return SimplicialComplex.full_simplex(n)
    everything = frozenset(range(n))
    return SimplicialComplex(
        n, frozenset(everything - c for c in _minimal_transversals(clean))
    )


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
    if any(not 1 <= c <= max(cx.dim + 1, 1) for c in colors):
        return None
    for fac in cx.facets:
        if len({colors[v] for v in fac}) < len(fac):
            return None
    return colors
