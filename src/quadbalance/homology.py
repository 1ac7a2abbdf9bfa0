"""Reduced simplicial homology, the Cohen-Macaulay test, and depth/pd.

All Betti numbers come from exact ranks of boundary matrices.  Over the
rationals a prime-field shortcut is used to *certify vanishing* quickly:
rank mod p never exceeds the rational rank, so a reduced Betti number that
vanishes mod p vanishes over Q as well.  Whenever the shortcut reports a
nonzero value the computation is redone exactly over Q, so reported values
are always exact over the requested field.

Projective dimension and depth come from the squarefree correspondence: for
a squarefree ideal, the graded Betti numbers of S/I are dimensions of
reduced homology of vertex-restrictions of the associated complex, summed
over all vertex subsets.  Non-squarefree input is polarized first, which
preserves all Betti numbers; depth is then n - pd by Auslander-Buchsbaum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, InputError
from .fields import DEFAULT_PRIME, GF, QQ
from .linalg import rank_of_rows
from .monomials import MonomialIdeal, polarize
from .simplicial import SimplicialComplex


def _boundary_rows(faces_k, index_km1):
    rows = []
    for f in faces_k:
        row = [0] * len(index_km1)
        for j in range(len(f)):
            row[index_km1[f[:j] + f[j + 1 :]]] = -1 if j % 2 else 1
        rows.append(row)
    return rows


def _betti_from_faces(faces_by_dim: dict, field) -> dict:
    """Reduced Betti numbers from a dict dim -> sorted face tuples.

    The empty face at dimension -1 must be included; its presence makes the
    chain complex reduced, so the result covers degrees -1..dim.
    """
    if not faces_by_dim:
        return {}
    top = max(faces_by_dim)
    index = {k: {f: i for i, f in enumerate(fs)} for k, fs in faces_by_dim.items()}
    ranks = {k: 0 for k in range(-1, top + 2)}
    for k in range(0, top + 1):
        if k in faces_by_dim and (k - 1) in faces_by_dim:
            ranks[k] = rank_of_rows(_boundary_rows(faces_by_dim[k], index[k - 1]), field)
    betti = {}
    for k in range(-1, top + 1):
        ck = len(faces_by_dim.get(k, ()))
        betti[k] = ck - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return betti


def _complex_faces_by_dim(cx: SimplicialComplex) -> dict:
    return cx.faces_by_dim() | ({-1: [()]} if not cx.is_void() else {})


def reduced_homology_ranks(cx: SimplicialComplex, field=QQ) -> tuple:
    """(betti_0, ..., betti_dim) over the given field; () for the complex {∅}."""
    if cx.is_void():
        raise InputError("the void complex has no reduced homology")
    if cx.dim < 0:
        return ()
    betti = _betti_from_faces(_complex_faces_by_dim(cx), field)
    return tuple(betti[k] for k in range(0, cx.dim + 1))


@dataclass(frozen=True)
class CMCertificate:
    """Outcome of the homological (link-vanishing) test over one field."""

    is_cm: bool
    field_name: str
    faces_checked: int
    witness: tuple | None = None  # (face, degree, betti) on failure

    def __bool__(self):
        return self.is_cm


def _betti_below_top(cx: SimplicialComplex, field) -> dict:
    """Reduced Betti numbers in degrees 0..dim-1 (the degrees the link test
    inspects; the top boundary rank is still needed for degree dim-1)."""
    betti = _betti_from_faces(_complex_faces_by_dim(cx), field)
    return {k: v for k, v in betti.items() if 0 <= k < cx.dim}


def is_cohen_macaulay(cx: SimplicialComplex, field=QQ) -> CMCertificate:
    """Exhaustive link test: every face's link must have vanishing reduced
    homology below its own dimension.  Returns the first failing witness."""
    if cx.is_void():
        raise InputError("the void complex is not a ring-theoretic object here")
    shortcut = GF(DEFAULT_PRIME) if field == QQ else None
    checked = 0
    for face in sorted(cx.faces(), key=lambda f: (len(f), sorted(f))):
        link = cx.link(face)
        checked += 1
        if link.is_void() or link.dim <= 0:
            continue
        probe = _betti_below_top(link, shortcut or field)
        if any(probe.values()):
            exact = _betti_below_top(link, field) if shortcut else probe
            for k in sorted(exact):
                if exact[k]:
                    witness = (tuple(sorted(face)), k, exact[k])
                    return CMCertificate(False, field.name, checked, witness)
    return CMCertificate(True, field.name, checked)


# ---------------------------------------------------------------------------
# graded Betti numbers of squarefree quotients by restriction homology


def _restriction_betti(face_ok, sigma: int, field, shortcut) -> dict:
    """Reduced Betti numbers of the subcomplex of faces contained in sigma."""
    faces_by_dim: dict = {}
    t = sigma
    while True:
        if face_ok[t]:
            bits = []
            m = t
            while m:
                low = m & -m
                bits.append(low.bit_length() - 1)
                m ^= low
            faces_by_dim.setdefault(len(bits) - 1, []).append(tuple(bits))
        if t == 0:
            break
        t = (t - 1) & sigma
    for k in faces_by_dim:
        faces_by_dim[k].sort()
    if shortcut is not None:
        probe = _betti_from_faces(faces_by_dim, shortcut)
        if not any(probe.values()):
            return probe
        return _betti_from_faces(faces_by_dim, field)
    return _betti_from_faces(faces_by_dim, field)


def total_betti_numbers(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(beta_0, beta_1, ..., beta_pd) of S/I over the field.

    Polarizes non-squarefree input first; the exhaustive subset enumeration
    refuses supports larger than the budget.  Subsets with a cone vertex
    (one not covered by any generator inside the subset) are skipped, since
    their restriction is contractible.
    """
    if not ideal.is_proper():
        raise InputError("Betti numbers of the zero module are not defined here")
    # the polarized support size is the sum of per-variable maximal
    # exponents; refuse before polarizing, which can be enormous itself
    spread = [0] * ideal.n
    for g in ideal.generators:
        for v, e in enumerate(g.exponents):
            if e > spread[v]:
                spread[v] = e
    s = sum(spread)
    if s > budget:
        raise BudgetExceededError(
            f"support of size {s} exceeds the subset-enumeration budget {budget}"
        )
    square, _classes = polarize(ideal)
    support_list = sorted({j for g in square.generators for j in g.support()})
    pos = {v: i for i, v in enumerate(support_list)}
    gmasks = [sum(1 << pos[j] for j in g.support()) for g in square.generators]
    size = 1 << s
    face_ok = bytearray([1]) * size
    for gm in gmasks:
        free = (size - 1) & ~gm
        sub = free
        while True:
            face_ok[gm | sub] = 0
            if sub == 0:
                break
            sub = (sub - 1) & free
    shortcut = GF(DEFAULT_PRIME) if field == QQ else None
    totals: dict = {}
    for sigma in range(size):
        covered = 0
        for gm in gmasks:
            if gm & sigma == gm:
                covered |= gm
        if covered != sigma:
            continue
        betti = _restriction_betti(face_ok, sigma, field, shortcut)
        card = bin(sigma).count("1")
        for j, b in betti.items():
            if b:
                totals[card - 1 - j] = totals.get(card - 1 - j, 0) + b
    pd = max(totals)
    return tuple(totals.get(i, 0) for i in range(pd + 1))


def depth_and_pd(ideal: MonomialIdeal, field=QQ, budget: int = 16) -> tuple:
    """(depth, pd) of S/I over the field; depth = n - pd."""
    if ideal.is_zero():
        return ideal.n, 0
    betti = total_betti_numbers(ideal, field, budget)
    pd = len(betti) - 1
    return ideal.n - pd, pd
