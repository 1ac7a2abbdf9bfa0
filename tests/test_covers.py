import random

import pytest

from quadbalance import InputError, MonomialIdeal, height, minimal_primes
from quadbalance.covers import is_minimal_prime, smallest_minimal_prime
from quadbalance.monomials import support

from oracles import brute_minimal_covers, random_exponents, random_quadratic_exponents


def idl(n, *gens):
    return MonomialIdeal.from_strings(n, list(gens))


def test_triangle_primes():
    primes = minimal_primes(idl(3, "x1*x2", "x1*x3", "x2*x3"))
    assert set(primes) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }


def test_single_square():
    assert minimal_primes(idl(2, "x1^2")) == (frozenset({0}),)


def test_path_primes():
    primes = minimal_primes(idl(3, "x1*x2", "x2*x3"))
    assert set(primes) == {frozenset({1}), frozenset({0, 2})}
    # sorted by (size, members): the singleton comes first
    assert primes[0] == frozenset({1})


def test_height_examples():
    assert height(idl(3, "x1*x2", "x2*x3")) == 1
    assert height(idl(3, "x1*x2", "x1*x3", "x2*x3")) == 2
    for g in range(1, 5):
        squares = [f"x{i + 1}^2" for i in range(g)]
        assert height(idl(g, *squares)) == g
    assert height(MonomialIdeal(3, ())) == 0


def test_rejects_unit():
    for fn in (minimal_primes, smallest_minimal_prime, lambda i: is_minimal_prime(i, {0})):
        with pytest.raises(InputError, match="unit ideal"):
            fn(idl(2, "1"))
        with pytest.raises(InputError, match="zero ideal"):
            fn(MonomialIdeal(2, ()))


def test_primes_are_antichain_and_match_brute_force():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        gens = set()
        for _ in range(rng.randint(1, 7)):
            size = rng.randint(1, n)
            gens.add(frozenset(rng.sample(range(n), size)))
        ideal = MonomialIdeal(n, tuple(tuple(int(j in g) for j in range(n)) for g in gens))
        primes = minimal_primes(ideal)
        # supports of the *minimal* generators, matching what the ideal keeps
        expected = brute_minimal_covers(list(map(support, ideal.generators)))
        assert set(primes) == set(expected)
        for a in primes:
            for b in primes:
                assert a == b or not a <= b
        assert height(ideal) == min(len(p) for p in primes)


def test_primes_of_nonsquarefree_use_support():
    ideal = idl(3, "x1^2*x2", "x2^2*x3")
    assert set(minimal_primes(ideal)) == {
        frozenset({1}),
        frozenset({0, 2}),
    }


def _random_hypergraph_ideal(rng, kind):
    n = rng.randint(1, 8)
    if kind == "quadratic":
        exps = random_quadratic_exponents(rng, n, 14)
    elif kind == "squarefree":
        edges = {
            frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 9))
        }
        exps = [tuple(int(v in e) for v in range(n)) for e in edges]
    else:
        exps = random_exponents(rng, n, 9, 4)
    return MonomialIdeal(n, tuple(exps))


def test_smallest_prime_and_minimality_against_brute_force():
    rng = random.Random(23)
    for i in range(2000):
        ideal = _random_hypergraph_ideal(rng, ("quadratic", "squarefree", "powers")[i % 3])
        covers = brute_minimal_covers(list(map(support, ideal.generators)))
        assert smallest_minimal_prime(ideal) == covers[0]
        assert height(ideal) == len(covers[0])
        # a limit at the height changes nothing; one below it gives None
        limit = len(covers[0]) - rng.randint(0, 1)
        expected = covers[0] if limit == len(covers[0]) else None
        assert smallest_minimal_prime(ideal, limit=limit) == expected
        n = ideal.n
        candidates = list(covers)
        for c in covers:
            candidates += [c | {v} for v in range(n) if v not in c]
            candidates += [c - {v} for v in c]
        candidates += [frozenset(v for v in range(n) if rng.random() < 0.5) for _ in range(4)]
        for c in candidates:
            assert is_minimal_prime(ideal, c) == (c in covers), (ideal, c)
