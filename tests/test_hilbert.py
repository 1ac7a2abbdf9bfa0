import random

from quadbalance import (
    Monomial,
    MonomialIdeal,
    egh_for_quadratic,
    series_numerator,
)
from quadbalance import hilbert
from quadbalance.hilbert import _numerator, poly_mul

from quadbalance.monomials import _minimalize

from oracles import (
    count_standard_monomials,
    hilbert_function,
    pivot_numerator,
    random_exponents,
    random_quadratic_exponents,
    window_from_numerator,
)


def idl(n, *gens):
    return MonomialIdeal.from_strings(n, list(gens))


def test_window_examples():
    assert hilbert_function(idl(2, "x1^2", "x2^2"), 3).window == (1, 2, 1, 0)
    assert hilbert_function(MonomialIdeal(3, ()), 2).window == (1, 3, 6)
    assert hilbert_function(idl(3, "x1*x2", "x2*x3"), 2).window == (1, 3, 4)


def test_series_equal_examples():
    assert series_numerator(idl(2, "x1*x2")) == series_numerator(idl(2, "x1^2"))
    assert series_numerator(idl(2, "x1")) != series_numerator(idl(2, "x1^2"))
    triangle = idl(3, "x1*x2", "x1*x3", "x2*x3")
    assert series_numerator(triangle) == series_numerator(triangle)


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
        window = hilbert_function(ideal, bound, series_numerator(ideal)).window
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


def _companion_exponents(seed):
    # a criterion-2 style ideal (see test_acceptance) and its egh companion
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    gens = random_quadratic_exponents(rng, n, 12, allow_squares=rng.random() < 0.5)
    ideal = MonomialIdeal(n, tuple(Monomial(e) for e in gens))
    return [m.exponents for m in egh_for_quadratic(ideal).ideal.generators]


def test_numerator_against_pivot_oracle():
    rng = random.Random(31)
    redundant = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        gens = random_exponents(rng, n, 10, 5)
        redundant += len(MonomialIdeal(n, tuple(Monomial(e) for e in gens)).generators) < len(gens)
        hilbert._MEMO.clear()
        assert _numerator(frozenset(gens)) == pivot_numerator(gens), (n, gens)
    assert redundant >= 50
    # deep lex tails, out of count_standard_monomials' reach; on a minimal
    # set both recursions visit the same generator sets
    for seed in (7, 9, 27):
        gens = _companion_exponents(seed)
        assert 100 <= len(gens) <= 700
        hilbert._MEMO.clear()
        memo = {}
        assert _numerator(frozenset(gens)) == pivot_numerator(gens, memo), seed
        assert hilbert._MEMO.keys() == memo.keys()


def test_numerator_minimalizes_once(monkeypatch):
    calls = []

    def counting(exponents):
        calls.append(1)
        return _minimalize(exponents)

    monkeypatch.setattr(hilbert, "_minimalize", counting)
    rng = random.Random(37)
    inputs = [random_exponents(rng, 5, 10, 5) for _ in range(50)] + [_companion_exponents(9)]
    for gens in inputs:
        hilbert._MEMO.clear()
        calls.clear()
        _numerator(frozenset(gens))
        assert len(calls) == 1


def test_numerator_of_deep_generators():
    # I = x2*x3^(D-1) * (x2, x3) has numerator 1 - 2t^(D+1) + t^(D+2), and
    # the pivot recursion takes one step per power of x3: far past Python's
    # recursion limit
    d = 2000
    hilbert._MEMO.clear()
    want = [0] * (d + 3)
    want[0], want[d + 1], want[d + 2] = 1, -2, 1
    assert _numerator(frozenset([(0, 1, d), (0, 2, d - 1)])) == tuple(want)
