import random

import pytest

from quadbalance import (
    HilbertData,
    InputError,
    LppTarget,
    Monomial,
    MonomialIdeal,
    UnattainableTargetError,
    construct_lex_plus_powers,
    depth_and_pd,
    egh_for_quadratic,
    height,
    hilbert_function,
    series_numerator,
)

from oracles import count_standard_monomials, quotient_exponents, random_quadratic_exponents

TRIANGLE = MonomialIdeal.from_strings(3, ["x1*x2", "x1*x3", "x2*x3"])


def pds(rep):
    return depth_and_pd(rep.source)[1], depth_and_pd(rep.ideal)[1]


def test_quotient_monomials_examples():
    assert quotient_exponents(3, (2, 2, 2), 2) == [
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
    ]
    assert quotient_exponents(3, (2, 2, 2), 0) == [(0, 0, 0)]
    assert quotient_exponents(3, (2,), 2) == [
        (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_quotient_monomials_order_and_count():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 5)
        g = rng.randint(0, n)
        d = rng.randint(0, 6)
        ms = quotient_exponents(n, (2,) * g, d)
        squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(g)]
        assert len(ms) == count_standard_monomials(n, squares, d)
        assert len(set(ms)) == len(ms)
        for a, b in zip(ms, ms[1:]):
            assert a > b


def test_companion_degrees_are_lex_segments():
    # in every degree, the companion's monomials outside the squares form an
    # initial segment of the quotient monomials in descending lex order
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 5)
        gens = random_quadratic_exponents(rng, n, 6)
        rep = egh_for_quadratic(MonomialIdeal(n, tuple(Monomial(e) for e in gens)))
        for d in range(rep.result.top_degree + 2):
            inside = [
                rep.ideal.contains(Monomial(e))
                for e in quotient_exponents(n, (2,) * rep.g, d)
            ]
            assert inside == sorted(inside, reverse=True)


def test_target_validation():
    data = hilbert_function(TRIANGLE)
    with pytest.raises(InputError):
        LppTarget(2, (2, 2), data)
    with pytest.raises(InputError):
        LppTarget(3, (2, 2, 2, 2), data)
    assert LppTarget(3, (2, 2), data).powers == (2, 2)


def test_construct_squares_only():
    squares = MonomialIdeal.from_strings(3, ["x1^2", "x2^2", "x3^2"])
    target = LppTarget(3, (2, 2, 2), hilbert_function(squares, bound=0))
    result = construct_lex_plus_powers(target)
    assert set(result.ideal.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
    assert result.picked_by_degree == {} and result.series_equal
    assert result.top_degree == 0


def test_construct_with_degree_one_pick():
    # target values (1, 2, 1, 0, ...): numerator (1 + 2t + t^2)(1 - t)^3
    target = LppTarget(
        3, (2, 2, 2), HilbertData(3, (1, 2, 1, 0), (1, -1, -2, 2, 1, -1))
    )
    result = construct_lex_plus_powers(target)
    assert set(result.ideal.generator_strings()) == {"x1", "x2^2", "x3^2"}
    assert result.picked_by_degree == {1: 1}
    assert result.series_equal and result.top_degree == 1


def test_construct_pure_lex_ideal():
    # no forced powers; target values (1, 2, 2, 1, 0, ...) in two variables
    target = LppTarget(2, (), HilbertData(2, (1, 2, 2, 1, 0), (1, 0, -1, -1, 0, 1)))
    result = construct_lex_plus_powers(target)
    assert set(result.ideal.generator_strings()) == {"x1^2", "x1*x2^2", "x2^4"}
    assert result.picked_by_degree == {2: 1, 3: 1, 4: 1}
    assert result.series_equal


def test_construct_monotone_in_degree_cap():
    target = LppTarget(2, (), HilbertData(2, (1, 2, 2, 1, 0), (1, 0, -1, -1, 0, 1)))
    full = construct_lex_plus_powers(target)
    for cap in range(1, full.top_degree + 1):
        part = construct_lex_plus_powers(target, max_degree=cap)
        assert part.picked_by_degree == {
            d: k for d, k in full.picked_by_degree.items() if d <= cap
        }
        assert part.series_equal == (cap >= full.top_degree)


def test_unattainable_target():
    ambient = hilbert_function(MonomialIdeal(3, ()), bound=0)
    target = LppTarget(3, (2, 2, 2), ambient)
    with pytest.raises(UnattainableTargetError) as err:
        construct_lex_plus_powers(target)
    assert err.value.degree == 2
    with pytest.raises(UnattainableTargetError) as err:
        construct_lex_plus_powers(LppTarget(1, (), HilbertData(1, (), ())))
    assert err.value.degree == 0


def test_egh_examples():
    one_edge = egh_for_quadratic(MonomialIdeal.from_strings(2, ["x1*x2"]))
    assert one_edge.g == 1
    assert one_edge.ideal.generator_strings() == ["x1^2"]
    assert pds(one_edge) == (1, 1)

    three_edges = egh_for_quadratic(
        MonomialIdeal.from_strings(6, ["x1*x2", "x3*x4", "x5*x6"])
    )
    assert three_edges.g == 3
    assert set(three_edges.ideal.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
    assert three_edges.result.picked_by_degree == {}
    assert pds(three_edges) == (3, 3)


def test_egh_triangle_and_fixed_point():
    rep = egh_for_quadratic(TRIANGLE)
    assert rep.g == 2 and rep.result.series_equal
    assert set(rep.ideal.generator_strings()) == {"x1^2", "x1*x2", "x2^2"}
    assert pds(rep) == (2, 2)
    assert series_numerator(TRIANGLE) == series_numerator(rep.ideal)
    again = egh_for_quadratic(rep.ideal)
    assert again.ideal == rep.ideal


def test_egh_rejects_out_of_scope_input():
    with pytest.raises(InputError):
        egh_for_quadratic(MonomialIdeal.from_strings(2, []))
    with pytest.raises(InputError):
        egh_for_quadratic(MonomialIdeal.from_strings(2, ["1"]))
    with pytest.raises(InputError, match="offending"):
        egh_for_quadratic(MonomialIdeal.from_strings(2, ["x1^3"]))


def test_egh_degree_cap_failure_is_reported():
    with pytest.raises(UnattainableTargetError, match="within degree 1"):
        egh_for_quadratic(TRIANGLE, max_degree=1)


def test_egh_on_random_quadratic_ideals():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(2, 6)
        gens = random_quadratic_exponents(rng, n, 9)
        ideal = MonomialIdeal(n, tuple(Monomial(e) for e in gens))
        rep = egh_for_quadratic(ideal)
        assert rep.g == height(ideal)
        assert rep.result.series_equal
        assert series_numerator(ideal) == series_numerator(rep.ideal)
        for i in range(rep.g):
            square = Monomial(tuple(2 if j == i else 0 for j in range(n)))
            assert rep.ideal.contains(square)


def test_egh_deep_lex_tail():
    # The edge ideal below has a unique minimum vertex cover, so its quotient
    # has multiplicity 1 while the four forced squares leave multiplicity 16.
    # Closing that gap takes lex picks out to degree 100; any construction
    # that stops at a small fixed degree gets this one wrong.  The pinned
    # sizes are regression guards; the series comparison at the end reproves
    # correctness from scratch on every run.
    ideal = MonomialIdeal.from_strings(8, [
        "x1*x2", "x1*x3", "x2*x3", "x2*x6", "x2*x7", "x2*x8",
        "x3*x8", "x4*x6", "x4*x7", "x5*x6", "x5*x7", "x6*x8",
    ])
    rep = egh_for_quadratic(ideal)
    assert rep.g == 4
    assert rep.result.series_equal
    assert rep.result.top_degree == 100
    assert sum(rep.result.picked_by_degree.values()) == 547
    assert len(rep.ideal.generators) == 551
    assert series_numerator(ideal) == series_numerator(rep.ideal)
