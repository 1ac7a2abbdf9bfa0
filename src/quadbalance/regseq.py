"""Regular sequences of products of linear forms inside quadratic monomial ideals.

Given an ideal I generated in degree 2 and a smallest minimal prime
(x_{p_1}, ..., x_{p_g}), the degree-two piece of I splits as a direct sum of
summands x_{p_j} * V_j, where V_j is spanned by the cofactor variables of the
generators assigned to position j.  A tuple of forms l_j in V_j yields a
regular sequence (x_{p_1} l_1, ..., x_{p_g} l_g) exactly when every mixed
choice -- prime variables on a subset of positions, the forms elsewhere --
spans dimension g.  That condition is checked exhaustively over all 2^g
subsets, which is the certificate: one depth-first sweep mod p covers them
all (full rank mod p implies full rank over Q), and subsets are ranked one
by one, exactly, only when the sweep meets a dependency.

Candidate forms are sampled with small random integer coefficients; a
failure survives a single sample with probability at most 1/2 at the default
coefficient range, and every sample is verified exactly, never trusted.  If
sampling is exhausted, a deterministic fallback first certifies solvability
by finding a perfect matching for every subset (Hall's condition holds
whenever the ideal really has height g) and then walks a structured family
of integer coefficient vectors, again verifying each candidate exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product as iter_product

from .covers import is_minimal_prime, smallest_minimal_prime
from .errors import BudgetExceededError, InputError, RegularSequenceNotFoundError
from .fields import DEFAULT_PRIME, QQ, PrimeField
from .linalg import (
    LinearForm,
    ModularEchelon,
    ProductOfLinearForms,
    rank_of_forms,
    rank_of_rows,
)
from .monomials import Monomial, MonomialIdeal

MAX_PRIME_SIZE = 20


@dataclass(frozen=True)
class DegreeTwoDecomposition:
    """Assignment of the degree-two generators to prime positions.

    ``prime`` lists the variables of the chosen minimal prime in increasing
    order; ``spaces[j]`` lists the cofactor variables available at position j.
    """

    ideal: MonomialIdeal
    prime: tuple
    spaces: tuple

    @property
    def g(self) -> int:
        return len(self.prime)


@dataclass(frozen=True)
class MatchingInstance:
    """Bipartite instance for one subset of positions.

    Position j may use any variable of ``spaces[j]`` when j is active, and
    only its own prime variable otherwise.  ``matching[j]`` is the assigned
    variable on success; ``deficient`` is a set of positions whose combined
    neighborhood is too small (a Hall violation) on failure.
    """

    active: tuple
    neighbors: tuple
    matching: tuple | None = None
    deficient: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.matching is not None


@dataclass(frozen=True)
class RegularSequenceCertificate:
    """Forms and the exhaustive transversal-rank check outcome.

    ``failing_subset`` is None when all 2^g subsets passed; the certificate
    then witnesses that (x_{p_j} l_j) is a regular sequence.
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

    def products(self) -> tuple:
        n = self.forms[0].n if self.forms else 0
        return tuple(
            ProductOfLinearForms((LinearForm.variable(p, n), f))
            for p, f in zip(self.prime, self.forms)
        )


def decompose_degree_two(ideal: MonomialIdeal, prime) -> DegreeTwoDecomposition:
    """Split the generators by their smallest prime divisor.

    Each generator x_a x_b goes to the position of the smallest prime member
    dividing it, contributing its cofactor variable to that space; the
    summands then span the whole degree-two piece and are disjoint.
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
        divisors = sorted(gmon.support() & pset)
        if not divisors:
            raise InputError(f"prime misses the generator {gmon}")
        p = divisors[0]
        exps = list(gmon.exponents)
        exps[p] -= 1
        cofactor = [j for j, e in enumerate(exps) if e]
        spaces[pos[p]].add(cofactor[0] if cofactor else p)
    for j, space in enumerate(spaces):
        if not space:
            raise InputError(
                f"x{prime[j] + 1} divides no generator; the prime is not minimal"
            )
    return DegreeTwoDecomposition(ideal, prime, tuple(tuple(sorted(s)) for s in spaces))


def build_matching_instance(dec: DegreeTwoDecomposition, active) -> MatchingInstance:
    active = tuple(sorted(set(active)))
    for j in active:
        if not 0 <= j < dec.g:
            raise InputError(f"position {j} out of range 0..{dec.g - 1}")
    aset = set(active)
    neighbors = tuple(
        dec.spaces[j] if j in aset else (dec.prime[j],) for j in range(dec.g)
    )
    return MatchingInstance(active, neighbors)


def find_matching(inst: MatchingInstance) -> MatchingInstance:
    """Augmenting-path maximum matching; failure carries a deficient set."""
    g = len(inst.neighbors)
    match_var: dict = {}

    def augment(j: int, banned: set) -> bool:
        for v in inst.neighbors[j]:
            if v in banned:
                continue
            banned.add(v)
            if v not in match_var or augment(match_var[v], banned):
                match_var[v] = j
                return True
        return False

    for j in range(g):
        if not augment(j, set()):
            block = {j}
            while True:
                reachable = {v for i in block for v in inst.neighbors[i]}
                grown = block | {match_var[v] for v in reachable if v in match_var}
                if grown == block:
                    break
                block = grown
            return replace(inst, deficient=tuple(sorted(block)))
    assigned = {j: v for v, j in match_var.items()}
    return replace(inst, matching=tuple(assigned[j] for j in range(g)))


def default_coefficient_range(g: int) -> int:
    # union bound: each subset determinant has degree <= g, so one sample
    # fails with probability <= 2^g * g / R <= 1/2
    return max(4, 2 * g * g * (1 << g))


def sample_forms(dec: DegreeTwoDecomposition, seed: int, coefficient_range=None):
    """Seeded integer forms, one per position; singleton spaces normalize to 1."""
    bound = coefficient_range or default_coefficient_range(dec.g)
    rng = random.Random(seed)
    n = dec.ideal.n
    forms = []
    for space in dec.spaces:
        coeffs = [0] * n
        if len(space) == 1:
            coeffs[space[0]] = 1
        else:
            for v in space:
                coeffs[v] = rng.randint(1, bound)
        forms.append(LinearForm(tuple(coeffs)))
    return tuple(forms)


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
        ({v: c for v, c in enumerate(form.coefficients) if c}, {q: 1})
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


def certify_transversal_ranks(
    prime, forms, field=QQ, seed=None, attempts: int = 1
) -> RegularSequenceCertificate:
    """Exhaustively check every mixed choice of prime variables and forms.

    For a subset A of positions the prime variables there are unit vectors,
    so the full-rank condition reduces to the forms outside A keeping rank
    g - |A| after the prime columns of A are deleted.  Stops at the
    lexicographically first failing subset.

    All 2^g choices are first swept together mod p (the field's own p, or
    ``DEFAULT_PRIME`` over Q, where full rank mod p implies full rank).
    Only when the sweep meets a dependency are the subsets ranked one by
    one in the field itself, to find the first failing one, or over Q to
    overrule a dependency that holds only mod p.
    """
    prime = tuple(prime)
    forms = tuple(forms)
    g = len(prime)
    if len(forms) != g:
        raise InputError("need exactly one form per prime position")
    if g > MAX_PRIME_SIZE:
        raise BudgetExceededError(f"2^{g} subsets exceed the hard cap g <= {MAX_PRIME_SIZE}")
    p = field.p if isinstance(field, PrimeField) else DEFAULT_PRIME
    if _independent_mod_p(prime, forms, p):
        return RegularSequenceCertificate(prime, forms, field.name, 1 << g, seed, attempts)
    checked = 0
    for subset in _subsets_lex(g):
        checked += 1
        drop = {prime[j] for j in subset}
        aset = set(subset)
        rows = [
            {idx: c for idx, c in enumerate(forms[j].coefficients) if idx not in drop}
            for j in range(g)
            if j not in aset
        ]
        if rank_of_rows(rows, field) != g - len(subset):
            return RegularSequenceCertificate(
                prime, forms, field.name, checked, seed, attempts, failing_subset=subset
            )
    return RegularSequenceCertificate(prime, forms, field.name, checked, seed, attempts)


def is_regular_sequence_of_products(products, field=QQ):
    """Transversal criterion: every choice of one factor per product must
    have full rank.  Returns (True, None) or (False, witness) where the
    witness records the first rank-deficient choice.

    The vanishing locus of the products is the union over all choices of
    the chosen forms' common zero set, so the products have height equal to
    the number of products exactly when every choice is independent.
    """
    products = tuple(products)
    r = len(products)
    if r == 0:
        return True, None
    if len({p.factors[0].n for p in products}) > 1:
        raise InputError("products live in different ambient rings")
    for choice in iter_product(*(range(len(p.factors)) for p in products)):
        chosen = tuple(p.factors[c] for p, c in zip(products, choice))
        rank = rank_of_forms(chosen, field)
        if rank != r:
            return False, TransversalWitness(choice, chosen, rank)
    return True, None


@dataclass(frozen=True)
class TransversalWitness:
    """A factor choice whose forms fail to reach full rank."""

    choice: tuple
    forms: tuple
    rank: int


def monomial_as_product(m: Monomial) -> ProductOfLinearForms:
    """View a monomial as the product of its variables, with multiplicity."""
    if m.degree == 0:
        raise InputError("the constant monomial is not a product of linear forms")
    factors = []
    for j, e in enumerate(m.exponents):
        factors.extend([LinearForm.variable(j, m.n)] * e)
    return ProductOfLinearForms(tuple(factors))


def _structured_forms(dec: DegreeTwoDecomposition, t: int):
    """Fallback family: coefficient t^((j+1)(v+1)) for variable v at position j."""
    n = dec.ideal.n
    forms = []
    for j, space in enumerate(dec.spaces):
        coeffs = [0] * n
        if len(space) == 1:
            coeffs[space[0]] = 1
        else:
            for v in space:
                coeffs[v] = t ** ((j + 1) * (v + 1))
        forms.append(LinearForm(tuple(coeffs)))
    return tuple(forms)


def product_outside_ideal(ideal: MonomialIdeal, prime, forms, field):
    """The first (p, v) with x_p * x_v outside the ideal, where x_v occurs in
    the form multiplying x_p; None when every product lies in the ideal."""
    for p, form in zip(prime, forms):
        for v, c in enumerate(form.coefficients):
            if field.is_zero(c):
                continue
            exps = [0] * ideal.n
            exps[p] += 1
            exps[v] += 1
            if not ideal.contains(Monomial(tuple(exps))):
                return p, v
    return None


def _assert_products_in_ideal(cert: RegularSequenceCertificate, ideal: MonomialIdeal, field):
    escaped = product_outside_ideal(ideal, cert.prime, cert.forms, field)
    if escaped is not None:
        p, v = escaped
        raise RuntimeError(f"internal error: product x{p + 1}*x{v + 1} escaped the ideal")


def find_regular_sequence(
    ideal: MonomialIdeal,
    seed: int = 0,
    retries: int = 8,
    field=QQ,
    prime=None,
    coefficient_range=None,
) -> RegularSequenceCertificate:
    """Produce a certified regular sequence (x_{p_1} l_1, ..., x_{p_g} l_g) in I.

    g is the height of I; the prime defaults to the lexicographically first
    smallest minimal prime but may be overridden with any minimal prime of
    the same size.  Identical inputs and seed give identical certificates.
    """
    if ideal.is_zero():
        raise InputError("the zero ideal contains no regular sequence of products")
    if not ideal.is_proper():
        raise InputError("the unit ideal is out of scope")
    if not ideal.generated_in_degree(2):
        bad = [str(g) for g in ideal.generators if g.degree != 2]
        raise InputError(f"generators must have degree 2; offending: {', '.join(bad)}")
    smallest = smallest_minimal_prime(ideal)
    g = len(smallest)
    if prime is None:
        chosen = smallest
    else:
        chosen = frozenset(prime)
        if not is_minimal_prime(ideal, chosen):
            raise InputError("the supplied prime is not a minimal prime of the ideal")
        if len(chosen) != g:
            raise InputError(
                f"the supplied prime has size {len(chosen)}, but the height is {g}"
            )
    if g > MAX_PRIME_SIZE:
        raise BudgetExceededError(f"2^{g} subsets exceed the hard cap g <= {MAX_PRIME_SIZE}")
    dec = decompose_degree_two(ideal, sorted(chosen))

    attempts = 0
    for k in range(max(1, retries)):
        attempts += 1
        forms = sample_forms(dec, seed + k, coefficient_range)
        cert = certify_transversal_ranks(
            dec.prime, forms, field, seed=seed + k, attempts=attempts
        )
        if cert.ok:
            _assert_products_in_ideal(cert, ideal, field)
            return cert

    # deterministic fallback: matchings certify that every subset admits an
    # independent choice, then a structured integer family is tried
    for subset in _subsets_lex(dec.g):
        inst = find_matching(build_matching_instance(dec, subset))
        if not inst.ok:
            raise RegularSequenceNotFoundError(
                f"positions {inst.deficient} violate the matching condition; "
                "the ideal cannot have height g, input is inconsistent"
            )
    for t in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        attempts += 1
        forms = _structured_forms(dec, t)
        cert = certify_transversal_ranks(dec.prime, forms, field, seed=None, attempts=attempts)
        if cert.ok:
            _assert_products_in_ideal(cert, ideal, field)
            return cert
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
