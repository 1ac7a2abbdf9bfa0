"""Linear forms, products of linear forms, and exact rank computation.

Every matrix here has integer entries, given as sparse rows {column:
entry}.  There is one eliminator over GF(p): ``ModularEchelon``, a basis
that rows can be pushed onto and popped off, and ``modular_rank`` counts
the pushes it accepts and can report the pivot columns of the basis.
``xor_rank`` is the same elimination mod 2 on rows stored as int bitsets,
for homology, whose boundary rows have entries +-1.
Fraction-free (Bareiss) elimination is kept for exact ranks over the
rationals only; homology and the regular-sequence sweep reach it only
after a probe mod p, to confirm a nonzero Betti number or to rank subsets
one by one after a dependency.  A form with rational coefficients is a
scalar multiple of an integer one, so nothing is lost by accepting only
integers.  No floating point is involved anywhere.
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
    """Rank over Q of sparse integer rows by one-step fraction-free
    elimination, dense over the columns that occur."""
    columns = sorted(set().union(*rows))
    mat = [[r.get(c, 0) for c in columns] for r in rows]
    m = len(mat)
    ncols = len(columns)
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


class ModularEchelon:
    """An echelon basis over GF(p) that grows and shrinks like a stack.

    Rows are sparse dicts {column: integer}.  Each stored row is keyed by
    its pivot, its largest column, and scaled to 1 there; a new row is
    reduced at its largest column until that column is no stored pivot.
    Keys keep their insertion order, so ``pop`` undoes the last successful
    ``push`` without touching the rows below it.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int):
        self.p = p
        self.rows: dict = {}  # pivot column -> row

    def push(self, vector: dict) -> bool:
        """Add the row if it is independent of the basis mod p; report which."""
        p = self.p
        rows = self.rows
        v = {}
        # a loop costs less than a comprehension on rows of a few entries
        for c, a in vector.items():
            if x := a % p:
                v[c] = x
        while v:
            pivot = max(v)
            row = rows.get(pivot)
            if row is None:
                if v[pivot] != 1:
                    inv = pow(v[pivot], -1, p)
                    v = {c: a * inv % p for c, a in v.items()}
                rows[pivot] = v
                return True
            f = v[pivot]
            for c, a in row.items():
                x = (v.get(c, 0) - f * a) % p
                if x:
                    v[c] = x
                else:
                    del v[c]
        return False

    def pop(self):
        self.rows.popitem()


def modular_rank(rows, p: int, pivots: set | None = None) -> int:
    """Rank over GF(p) of sparse integer rows.  ``pivots``, when given,
    receives the pivot columns of the echelon basis: each is the largest
    column of some combination of the rows that is nonzero there mod p."""
    echelon = ModularEchelon(p)
    rank = sum(map(echelon.push, rows))
    if pivots is not None:
        pivots.update(echelon.rows)
    return rank


def xor_rank(rows, pivots: set | None = None) -> int:
    """Rank over GF(2) of rows given as int bitsets, bit c for column c.

    A row is reduced at its top bit until that bit is no stored pivot, as in
    ``ModularEchelon`` with every entry 1; ``pivots`` is filled as in
    ``modular_rank``.
    """
    basis: dict = {}  # pivot column -> row
    for v in rows:
        while v:
            top = v.bit_length() - 1
            row = basis.get(top)
            if row is None:
                basis[top] = v
                break
            v ^= row
    if pivots is not None:
        pivots.update(basis)
    return len(basis)


def rank_of_rows(rows, field=QQ, pivots: set | None = None) -> int:
    """Exact rank over the given field of a list of sparse integer rows
    {column: entry}; over GF(p) ``pivots`` is filled as in ``modular_rank``,
    over Q it is left alone."""
    if isinstance(field, PrimeField):
        return modular_rank(rows, field.p, pivots)
    return bareiss_rank(rows)

