"""Linear forms, products of linear forms, and exact rank computation.

Every matrix here has integer entries.  Ranks over the rationals are
computed by fraction-free (Bareiss) elimination; ranks over GF(p) use
ordinary modular elimination, and ``ModularEchelon`` keeps a GF(p) basis
that rows can be pushed onto and popped off.  A form with rational
coefficients is a scalar multiple of an integer one, so nothing is lost by
accepting only integers.  No floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .fields import QQ, PrimeField


@dataclass(frozen=True)
class LinearForm:
    """A linear form, stored as its coefficient vector over the ambient ring."""

    coefficients: tuple

    def __post_init__(self):
        coefficients = tuple(self.coefficients)
        if any(not isinstance(c, int) for c in coefficients):
            raise InputError("linear form coefficients must be integers")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def support(self) -> tuple:
        return tuple(j for j, c in enumerate(self.coefficients) if c != 0)

    @staticmethod
    def variable(j: int, n: int) -> "LinearForm":
        return LinearForm(tuple(1 if i == j else 0 for i in range(n)))


@dataclass(frozen=True)
class ProductOfLinearForms:
    """A product of linear forms; each factor must be nonzero."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.is_zero():
                raise InputError("zero linear form used as a factor")
        if len({f.n for f in self.factors}) > 1:
            raise InputError("factors live in different ambient rings")

    @property
    def degree(self) -> int:
        return len(self.factors)


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by one-step fraction-free elimination."""
    mat = [list(r) for r in rows]
    m = len(mat)
    if m == 0:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(rank, m):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        p = pr[c]
        for i in range(rank + 1, m):
            ri = mat[i]
            f = ri[c]
            for j in range(c + 1, ncols):
                # exact by Sylvester's identity
                ri[j] = (ri[j] * p - f * pr[j]) // prev
            ri[c] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def modular_rank(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    mat = [[c % p for c in r] for r in rows]
    m = len(mat)
    if m == 0:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, m):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        inv = pow(pr[c], -1, p)
        for i in range(rank + 1, m):
            ri = mat[i]
            if ri[c]:
                f = ri[c] * inv % p
                for j in range(c, ncols):
                    ri[j] = (ri[j] - f * pr[j]) % p
        rank += 1
        if rank == m:
            break
    return rank


class ModularEchelon:
    """An echelon basis over GF(p) that grows and shrinks like a stack.

    Rows are sparse dicts {column: integer}.  Each stored row is reduced
    against the rows pushed before it and scaled to 1 at its pivot, so a new
    row is reduced in one pass over the stack, and ``pop`` undoes the last
    successful ``push`` without touching the rows below it.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: list = []  # (pivot column, row), in push order

    def push(self, vector: dict) -> bool:
        """Add the row if it is independent of the basis mod p; report which."""
        p = self.p
        v = {c: a % p for c, a in vector.items() if a % p}
        for pivot, row in self.rows:
            f = v.get(pivot)
            if f:
                for c, a in row.items():
                    x = (v.get(c, 0) - f * a) % p
                    if x:
                        v[c] = x
                    else:
                        del v[c]
        if not v:
            return False
        pivot = min(v)
        inv = pow(v[pivot], -1, p)
        self.rows.append((pivot, {c: a * inv % p for c, a in v.items()}))
        return True

    def pop(self):
        self.rows.pop()


def rank_of_rows(rows, field=QQ) -> int:
    """Exact rank of a list of integer rows over the given field."""
    if isinstance(field, PrimeField):
        return modular_rank(rows, field.p)
    return bareiss_rank(rows)


def rank_of_forms(forms, field=QQ) -> int:
    """Rank of the coefficient matrix of a family of linear forms."""
    forms = list(forms)
    if not forms:
        return 0
    if len({f.n for f in forms}) > 1:
        raise InputError("forms live in different ambient rings")
    return rank_of_rows([f.coefficients for f in forms], field)
