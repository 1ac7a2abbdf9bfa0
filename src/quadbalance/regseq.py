"""Regular sequences of products of linear forms inside quadratic monomial ideals.

Given an ideal I generated in degree 2 and a smallest minimal prime
(x_{p_1}, ..., x_{p_g}), the degree-two piece of I splits as a direct sum of
summands x_{p_j} * V_j, where V_j is spanned by the cofactor variables of the
generators assigned to position j.  A tuple of forms l_j in V_j yields a
regular sequence (x_{p_1} l_1, ..., x_{p_g} l_g) exactly when every mixed
choice -- prime variables on a subset of positions, the forms elsewhere --
spans dimension g.  That condition on all 2^g subsets is the certificate.

It is first proved at once by peeling.  Call a column allowed for position j
if it is x_{p_j} or a non-prime variable.  Repeatedly remove a position j
with an allowed column c_j where l_j is nonzero and no other remaining form
is: the singleton-column pass of sparse LU preordering (Duff, Erisman and
Reid, *Direct Methods for Sparse Matrices*).  Removing a position never
takes a singleton column away from another, so the greedy order finds one
whenever one exists.  If every position is removed, each form vanishes on
the columns of the positions removed before it.  For any subset A, the
forms l_j with j outside A, restricted to the columns c_k with k outside A,
then form a triangular matrix with a nonzero diagonal; none of those
columns is an x_{p_i} with i in A, so the forms stay independent after the
unit rows of A are projected out, and the choice has rank g.  "Nonzero" is
taken in the field, so the argument holds over Q and over GF(p) alike.

Forms that do not peel are swept: one depth-first sweep mod p covers all
2^g choices (full rank mod p implies full rank over Q), and subsets are
ranked one by one, exactly, only when the sweep meets a dependency.

Candidate forms are sampled with small random integer coefficients; a
failure survives a single sample with probability at most 1/2 at the default
coefficient range, and every sample is verified exactly, never trusted.

Suitable forms exist for every minimal prime P of size g = height, so for a
prime given with ``--prime`` too.  Let A be the positions that take their
forms; position j may then use the variables of spaces[j] for j in A and
only x_{p_j} otherwise, and each perfect matching of positions to distinct
variables is a term of the choice's determinant, as a polynomial in the
coefficients, that no other term cancels.  So generic forms pass every
subset once Hall's condition holds for every A.  Suppose some A violates it
through a set B of positions whose neighbours N(B) are fewer than |B|.  Then
(P - {p_j : j in B n A}) u U_{j in B n A} spaces[j] still covers every
generator, because each generator sits at its smallest prime position: one
at j outside B n A is divisible by x_{p_j}, and one at j in B n A is x_{p_j}
times a variable of spaces[j].  Its size is at most
g - |B n A| + |N(B)| - |B - A| < g, since N(B) holds the x_{p_j} of B - A,
which contradicts height g.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from .covers import is_minimal_prime, smallest_minimal_prime
from .errors import BudgetExceededError, InputError, RegularSequenceNotFoundError
from .fields import DEFAULT_PRIME, QQ, PrimeField
from .linalg import ModularEchelon, rank_of_rows
from .monomials import MonomialIdeal, _quadric_outside, _require_quadratic, format_monomial, support

MAX_PRIME_SIZE = 20
# seeded samples find_regular_sequence tries before its deterministic fallback
_SAMPLES = 8


@dataclass(frozen=True)
class RegularSequenceCertificate:
    """Forms and the outcome of the transversal-rank check on all 2^g subsets.

    ``forms[j]`` is the integer coefficient tuple of l_j over x1..xn, the
    form that multiplies x_{prime[j]}.  ``failing_subset`` is None when all
    2^g subsets passed; the certificate then witnesses that (x_{p_j} l_j) is
    a regular sequence.
    """

    prime: tuple
    forms: tuple
    field_name: str
    subsets_checked: int
    seed: int | None = None
    attempts: int = 1
    failing_subset: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.failing_subset is None


def decompose_degree_two(ideal: MonomialIdeal, prime) -> tuple:
    """Split the generators by their smallest prime divisor.

    Each generator x_a x_b goes to the position of the smallest prime member
    dividing it, contributing its cofactor variable to that space; the
    summands then span the whole degree-two piece and are disjoint.  Returns
    the spaces, one per position of the sorted prime, each listing its
    cofactor variables in increasing order.
    """
    if ideal.is_zero() or not ideal.is_proper():
        raise InputError("decomposition needs a nonzero proper ideal")
    if not ideal.generated_in_degree(2):
        raise InputError("all generators must have degree exactly 2")
    prime = tuple(sorted(set(prime)))
    for p in prime:
        if not 0 <= p < ideal.n:
            raise InputError(f"prime member x{p + 1} out of range")
    pset = set(prime)
    spaces = [set() for _ in prime]
    pos = {p: j for j, p in enumerate(prime)}
    for gmon in ideal.generators:
        divisors = sorted(support(gmon) & pset)
        if not divisors:
            raise InputError(f"prime misses the generator {format_monomial(gmon)}")
        p = divisors[0]
        exps = list(gmon)
        exps[p] -= 1
        cofactor = [j for j, e in enumerate(exps) if e]
        spaces[pos[p]].add(cofactor[0] if cofactor else p)
    for j, space in enumerate(spaces):
        if not space:
            raise InputError(
                f"x{prime[j] + 1} divides no generator; the prime is not minimal"
            )
    return tuple(tuple(sorted(s)) for s in spaces)


def default_coefficient_range(g: int) -> int:
    # union bound: each subset determinant has degree <= g, so one sample
    # fails with probability <= 2^g * g / R <= 1/2
    return max(4, 2 * g * g * (1 << g))


def _forms(n: int, spaces, coefficient) -> tuple:
    """One form per position, coefficient(j, v) on variable v of space j,
    called in space order; a singleton space normalizes to 1 without a call."""
    forms = []
    for j, space in enumerate(spaces):
        coeffs = [0] * n
        for v in space:
            coeffs[v] = 1 if len(space) == 1 else coefficient(j, v)
        forms.append(tuple(coeffs))
    return tuple(forms)


def sample_forms(n: int, spaces, seed: int):
    """Seeded integer forms in n variables, one per space; singleton spaces
    normalize to 1."""
    bound = default_coefficient_range(len(spaces))
    rng = random.Random(seed)
    return _forms(n, spaces, lambda j, v: rng.randint(1, bound))


def _subsets_lex(g: int):
    """All subsets of 0..g-1 in lexicographic order of their sorted tuples."""

    def rec(prefix: list, start: int):
        yield tuple(prefix)
        for v in range(start, g):
            prefix.append(v)
            yield from rec(prefix, v + 1)
            prefix.pop()

    yield from rec([], 0)


def _independent_mod_p(prime, forms, p: int) -> bool:
    """Whether every mixed choice has full rank mod p.

    Walks the choices depth first, position by position, pushing the form
    or the prime variable onto one shared basis and popping it on the way
    back: 2^(g+1) row insertions in all.  A dependent prefix fails every
    choice that extends it, so the walk stops there.
    """
    choices = [
        ({v: c for v, c in enumerate(form) if c}, {q: 1})
        for q, form in zip(prime, forms)
    ]
    basis = ModularEchelon(p)

    def walk(j: int) -> bool:
        if j == len(choices):
            return True
        for vector in choices[j]:
            if not basis.push(vector):
                return False
            independent = walk(j + 1)
            basis.pop()
            if not independent:
                return False
        return True

    return walk(0)


def _peels(prime, forms, field) -> bool:
    """Whether the positions peel into a triangular order, which proves
    every mixed choice at once (see the module docstring)."""
    primes = set(prime)
    supports = [
        {v for v, c in enumerate(form) if not field.is_zero(c)}
        for form in forms
    ]
    # how many remaining forms are nonzero at each column
    count = Counter(v for support in supports for v in support)
    left = set(range(len(prime)))
    while left:
        for j in left:
            if any(count[v] == 1 and (v == prime[j] or v not in primes) for v in supports[j]):
                break
        else:
            return False
        left.remove(j)
        count.subtract(supports[j])
    return True


def certify_transversal_ranks(prime, forms, field=QQ) -> RegularSequenceCertificate:
    """Check every mixed choice of prime variables and forms.

    Each form is a tuple of integer coefficients; a form with rational
    coefficients is a scalar multiple of an integer one, so nothing is lost.
    For a subset A of positions the prime variables there are unit vectors,
    so the full-rank condition reduces to the forms outside A keeping rank
    g - |A| after the prime columns of A are deleted.

    Peeling (see the module docstring) first tries to prove all 2^g choices
    at once: repeatedly remove a position with an allowed column, its own
    prime variable or a non-prime one, where its form is the only remaining
    nonzero one.  If every position is removed, the removal order is
    triangular and every choice has rank g.  Otherwise all 2^g choices are
    swept together mod p (the field's own p, or ``DEFAULT_PRIME`` over Q,
    where full rank mod p implies full rank).  Only when the sweep meets a
    dependency are the subsets ranked one by one in the field itself, to
    find the lexicographically first failing one, or over Q to overrule a
    dependency that holds only mod p.
    """
    prime = tuple(prime)
    forms = tuple(map(tuple, forms))
    if any(not isinstance(c, int) for form in forms for c in form):
        raise InputError("linear form coefficients must be integers")
    g = len(prime)
    if len(forms) != g:
        raise InputError("need exactly one form per prime position")
    if g > MAX_PRIME_SIZE:
        raise BudgetExceededError(f"2^{g} subsets exceed the hard cap g <= {MAX_PRIME_SIZE}")
    p = field.p if isinstance(field, PrimeField) else DEFAULT_PRIME
    if _peels(prime, forms, field) or _independent_mod_p(prime, forms, p):
        return RegularSequenceCertificate(prime, forms, field.name, 1 << g)
    checked = 0
    for subset in _subsets_lex(g):
        checked += 1
        drop = {prime[j] for j in subset}
        aset = set(subset)
        rows = [
            {idx: c for idx, c in enumerate(forms[j]) if idx not in drop}
            for j in range(g)
            if j not in aset
        ]
        if rank_of_rows(rows, field) != g - len(subset):
            return RegularSequenceCertificate(
                prime, forms, field.name, checked, failing_subset=subset
            )
    return RegularSequenceCertificate(prime, forms, field.name, checked)


def product_outside_ideal(ideal: MonomialIdeal, prime, forms, field):
    """The first (p, v) with x_p * x_v outside the ideal, where x_v occurs in
    the form multiplying x_p; None when every product lies in the ideal."""
    products = (
        (p, v) for p, form in zip(prime, forms) for v, c in enumerate(form) if not field.is_zero(c)
    )
    return _quadric_outside(ideal.generators, ideal.n, products)


def find_regular_sequence(
    ideal: MonomialIdeal,
    seed: int = 0,
    field=QQ,
    prime=None,
) -> RegularSequenceCertificate:
    """Produce a certified regular sequence (x_{p_1} l_1, ..., x_{p_g} l_g) in I.

    g is the height of I; the prime defaults to the lexicographically first
    smallest minimal prime but may be overridden with any minimal prime of
    the same size.  Identical inputs and seed give identical certificates.
    """
    _require_quadratic(ideal, "the zero ideal contains no regular sequence of products")
    if prime is None:
        # the cap needs only "height > MAX_PRIME_SIZE", not the height itself
        chosen = smallest_minimal_prime(ideal, limit=MAX_PRIME_SIZE)
        if chosen is None:
            raise BudgetExceededError(f"the height exceeds the hard cap g <= {MAX_PRIME_SIZE}")
    else:
        chosen = frozenset(prime)
        if not is_minimal_prime(ideal, chosen):
            raise InputError("the supplied prime is not a minimal prime of the ideal")
        # a minimal prime bounds the height, so this search ends at the cap;
        # above it (None), certify_transversal_ranks refuses the 2^|P| subsets
        smallest = smallest_minimal_prime(ideal, min(len(chosen), MAX_PRIME_SIZE))
        if smallest is not None and len(smallest) != len(chosen):
            raise InputError(
                f"the supplied prime has size {len(chosen)}, but the height is {len(smallest)}"
            )
    chosen = tuple(sorted(chosen))
    spaces = decompose_degree_two(ideal, chosen)

    def candidates():
        # seeded samples, then the fallback: the structured family puts
        # t^((j+1)(v+1)) on variable v at position j
        for k in range(_SAMPLES):
            yield sample_forms(ideal.n, spaces, seed + k), seed + k
        for t in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            yield _forms(ideal.n, spaces, lambda j, v: t ** ((j + 1) * (v + 1))), None

    for attempts, (forms, form_seed) in enumerate(candidates(), 1):
        cert = certify_transversal_ranks(chosen, forms, field)
        if cert.ok:
            escaped = product_outside_ideal(ideal, cert.prime, cert.forms, field)
            if escaped is not None:
                p, v = escaped
                raise RuntimeError(
                    f"internal error: product x{p + 1}*x{v + 1} escaped the ideal"
                )
            return replace(cert, seed=form_seed, attempts=attempts)
    if isinstance(field, PrimeField):
        # the sampled and structured coefficients can collapse mod a small p
        raise RegularSequenceNotFoundError(
            f"sampling and the structured fallback were exhausted over {field.name}; "
            "the field may be too small for this search, and a larger prime or q "
            "may succeed"
        )
    raise RegularSequenceNotFoundError(
        "sampling and the structured fallback were exhausted; this is not "
        "expected to be reachable for a genuine height-g quadratic ideal"
    )
