import random

import pytest

from quadbalance import (
    InputError,
    MonomialIdeal,
    UnattainableTargetError,
    construct_lex_plus_powers,
    depth_and_pd,
    egh_for_quadratic,
    height,
    series_numerator,
)
from quadbalance.lpp import missing_square

from oracles import (
    WalkRefused,
    count_standard_monomials,
    in_ideal,
    lex_walk,
    quotient_exponents,
    random_exponents,
    random_quadratic_exponents,
)

TRIANGLE = MonomialIdeal.from_strings(3, ["x1*x2", "x1*x3", "x2*x3"])


def pds(source, rep):
    return depth_and_pd(source)[1], depth_and_pd(rep.ideal)[1]


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
        rep = egh_for_quadratic(MonomialIdeal(n, tuple(gens)))
        for d in range(rep.top_degree + 2):
            inside = [
                in_ideal(rep.ideal.generators, e)
                for e in quotient_exponents(n, (2,) * rep.g, d)
            ]
            assert inside == sorted(inside, reverse=True)


def test_target_validation():
    numerator = series_numerator(TRIANGLE)
    for g in (-1, 4):
        with pytest.raises(InputError):
            construct_lex_plus_powers(3, g, numerator)


def test_construct_squares_only():
    squares = MonomialIdeal.from_strings(3, ["x1^2", "x2^2", "x3^2"])
    result = construct_lex_plus_powers(3, 3, series_numerator(squares))
    assert set(result.ideal.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
    assert result.picked_by_degree == {} and result.series_equal
    assert result.top_degree == 0


def test_construct_with_degree_one_pick():
    # target values (1, 2, 1, 0, ...): numerator (1 + 2t + t^2)(1 - t)^3
    result = construct_lex_plus_powers(3, 3, (1, -1, -2, 2, 1, -1))
    assert set(result.ideal.generator_strings()) == {"x1", "x2^2", "x3^2"}
    assert result.picked_by_degree == {1: 1}
    assert result.series_equal and result.top_degree == 1


# target values (1, 2, 2, 1, 0, ...) in two variables
PURE_LEX = (1, 0, -1, -1, 0, 1)


def test_construct_pure_lex_ideal():
    # no squares
    result = construct_lex_plus_powers(2, 0, PURE_LEX)
    assert set(result.ideal.generator_strings()) == {"x1^2", "x1*x2^2", "x2^4"}
    assert result.picked_by_degree == {2: 1, 3: 1, 4: 1}
    assert result.series_equal


def random_walk_target(rng):
    """(n, g, numerator): mostly the numerator of the squares plus random
    monomials of degree 1 to 3, which is attainable; else one with a
    coefficient moved by one, or a random one, which mostly is not.  Five
    variables come with at least two squares: with fewer, a lex tail can
    run past degree 40, where the oracle lists slices of 10^5 monomials."""
    n = rng.randint(1, 5)
    g = rng.randint(0 if n < 5 else 2, n)
    squares = [tuple(2 * (j == i) for j in range(n)) for i in range(g)]
    gens = squares + random_exponents(rng, n, 4, 3)
    numerator = list(series_numerator(MonomialIdeal(n, tuple(gens))))
    draw = rng.random()
    if draw < 0.2:
        numerator[rng.randrange(len(numerator))] += rng.choice((-1, 1))
    elif draw < 0.3:
        numerator = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
    return n, g, numerator if rng.random() < 0.5 else tuple(numerator)


def test_walk_against_slice_listing_oracle():
    rng = random.Random(79)
    seen = {"built": 0, "capped": 0, "refused": 0, "eclipsed": 0}
    for _ in range(400):
        n, g, numerator = random_walk_target(rng)
        max_degree = rng.choice((None, None, 1, 2, 3))
        try:
            expected = lex_walk(n, g, numerator, max_degree)
        except WalkRefused as refusal:
            with pytest.raises(UnattainableTargetError) as err:
                construct_lex_plus_powers(n, g, numerator, max_degree)
            assert (str(err.value), err.value.degree) == (str(refusal), refusal.degree)
            seen["refused"] += 1
            continue
        result = construct_lex_plus_powers(n, g, numerator, max_degree)
        generators = result.ideal.generators
        assert len(set(generators)) == len(generators)
        got = (set(generators), result.picked_by_degree, result.top_degree, result.series_equal)
        assert got == expected, (n, g, numerator, max_degree)
        seen["built" if result.series_equal else "capped"] += 1
        seen["eclipsed"] += len(generators) < g + sum(result.picked_by_degree.values())
    assert min(seen.values()) >= 20, seen


def test_construct_monotone_in_degree_cap():
    full = construct_lex_plus_powers(2, 0, PURE_LEX)
    for cap in range(1, full.top_degree + 1):
        part = construct_lex_plus_powers(2, 0, PURE_LEX, max_degree=cap)
        assert part.picked_by_degree == {
            d: k for d, k in full.picked_by_degree.items() if d <= cap
        }
        assert part.series_equal == (cap >= full.top_degree)


def test_unattainable_target():
    ambient = series_numerator(MonomialIdeal(3, ()))
    with pytest.raises(UnattainableTargetError) as err:
        construct_lex_plus_powers(3, 3, ambient)
    assert err.value.degree == 2
    with pytest.raises(UnattainableTargetError) as err:
        construct_lex_plus_powers(1, 0, ())
    assert err.value.degree == 0


def test_egh_examples():
    edge = MonomialIdeal.from_strings(2, ["x1*x2"])
    one_edge = egh_for_quadratic(edge)
    assert one_edge.g == 1
    assert one_edge.ideal.generator_strings() == ["x1^2"]
    assert pds(edge, one_edge) == (1, 1)

    matching = MonomialIdeal.from_strings(6, ["x1*x2", "x3*x4", "x5*x6"])
    three_edges = egh_for_quadratic(matching)
    assert three_edges.g == 3
    assert set(three_edges.ideal.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
    assert three_edges.picked_by_degree == {} and three_edges.top_degree == 0
    assert pds(matching, three_edges) == (3, 3)


def test_egh_triangle_and_fixed_point():
    rep = egh_for_quadratic(TRIANGLE)
    assert rep.g == 2 and rep.series_equal
    assert set(rep.ideal.generator_strings()) == {"x1^2", "x1*x2", "x2^2"}
    assert pds(TRIANGLE, rep) == (2, 2)
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
        ideal = MonomialIdeal(n, tuple(gens))
        rep = egh_for_quadratic(ideal)
        assert rep.g == height(ideal)
        assert rep.series_equal
        assert series_numerator(ideal) == series_numerator(rep.ideal)
        for i in range(rep.g):
            square = tuple(2 if j == i else 0 for j in range(n))
            assert in_ideal(rep.ideal.generators, square)


def test_missing_square_against_divisibility():
    # x_i^2 is missing when no generator divides it; for i >= n the square
    # is the zero tuple, which only the unit generator divides
    rng = random.Random(73)
    missing = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        g = rng.randint(0, n + 2)
        gens = [
            tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
            for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.05:
            gens.append((0,) * n)
        gens += rng.sample(gens, min(len(gens), rng.randint(0, 2)))
        rng.shuffle(gens)
        squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(g)]
        expected = next(
            (
                i
                for i, square in enumerate(squares)
                if not any(all(a <= b for a, b in zip(m, square)) for m in gens)
            ),
            None,
        )
        assert missing_square(gens, n, g) == expected, (gens, n, g)
        missing += expected is not None
    assert 500 <= missing <= 1800, missing


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
    assert rep.series_equal
    assert rep.top_degree == 100
    assert sum(rep.picked_by_degree.values()) == 547
    assert len(rep.ideal.generators) == 551
    assert series_numerator(ideal) == series_numerator(rep.ideal)
