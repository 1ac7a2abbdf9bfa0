import random

import pytest

from quadbalance import (
    InputError,
    Monomial,
    MonomialIdeal,
    hilbert_function,
    hilbert_series_equal,
    series_numerator,
)
from quadbalance import hilbert
from quadbalance.hilbert import (
    _numerator,
    poly_mul,
    window_from_numerator,
)

from oracles import count_standard_monomials, random_exponents


def idl(n, *gens):
    return MonomialIdeal.from_strings(n, list(gens))


def test_window_examples():
    assert hilbert_function(idl(2, "x1^2", "x2^2"), 3).window == (1, 2, 1, 0)
    assert hilbert_function(MonomialIdeal(3, ()), 2).window == (1, 3, 6)
    assert hilbert_function(idl(3, "x1*x2", "x2*x3"), 2).window == (1, 3, 4)


def test_series_equal_examples():
    assert hilbert_series_equal(idl(2, "x1*x2"), idl(2, "x1^2"))
    assert not hilbert_series_equal(idl(2, "x1"), idl(2, "x1^2"))
    triangle = idl(3, "x1*x2", "x1*x3", "x2*x3")
    assert hilbert_series_equal(triangle, triangle)
    with pytest.raises(InputError):
        hilbert_series_equal(idl(2, "x1"), idl(3, "x1"))


def test_numerator_base_cases():
    assert series_numerator(MonomialIdeal(4, ())) == (1,)
    assert series_numerator(idl(3, "1")) == ()
    # complete intersection: product of 1 - t^deg
    ci = series_numerator(idl(3, "x1^2", "x2^3"))
    assert ci == poly_mul((1, 0, -1), (1, 0, 0, -1))


def test_numerator_ignores_ambient_and_order():
    a = idl(3, "x1*x2")
    b = idl(5, "x4*x5")
    assert series_numerator(a) == series_numerator(b)


def test_value_agrees_with_window():
    data = hilbert_function(idl(3, "x1*x2", "x2*x3"), 6)
    for d, v in enumerate(data.window):
        assert data.value(d) == v
    assert data.value(-1) == 0


def test_against_brute_force_enumeration():
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(1, 5)
        gens = random_exponents(rng, n, 5, 4)
        ideal = MonomialIdeal(n, tuple(Monomial(e) for e in gens))
        bound = rng.randint(0, 7)
        window = hilbert_function(ideal, bound).window
        for d in range(bound + 1):
            assert window[d] == count_standard_monomials(n, gens, d), (n, gens, d)


def test_numerator_of_redundant_generators():
    # verify feeds a report's flat generator list to the recursion without
    # minimalizing it first
    rng = random.Random(29)
    redundant = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = random_exponents(rng, n, 8, 4)
        ideal = MonomialIdeal(n, tuple(Monomial(e) for e in gens))
        redundant += len(ideal.generators) < len(gens)
        hilbert._MEMO.clear()
        assert _numerator(frozenset(gens)) == series_numerator(ideal), (n, gens)
    assert redundant >= 50


def test_window_from_numerator_matches_series():
    # numerator (1-t^2)^2 over (1-t)^3: quotient by two quadrics in 3 vars
    num = poly_mul((1, 0, -1), (1, 0, -1))
    assert window_from_numerator(num, 3, 4) == hilbert_function(
        idl(3, "x1^2", "x2^2"), 4
    ).window
