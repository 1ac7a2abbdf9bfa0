import random
from itertools import combinations

import pytest
from oracles import (
    format_factors,
    in_ideal,
    minimal_exponents,
    parse_factors,
    random_exponents,
)

from quadbalance import InputError, MonomialIdeal, parse_monomial, polarize
from quadbalance.monomials import (
    _format_all,
    _ideal_from_minimal,
    _minimalize,
    _quadric_outside,
    format_monomial,
    support,
)

# every character str.strip removes
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]


def m(n, *pairs):
    exps = [0] * n
    for v, e in pairs:
        exps[v] = e
    return tuple(exps)


def test_parse_basic():
    assert parse_monomial("x1*x2", 3) == (1, 1, 0)
    assert parse_monomial("x3^2", 3) == (0, 0, 2)
    assert parse_monomial("x2^3*x1", 2) == (1, 3)
    assert parse_monomial("1", 2) == (0, 0)
    # repeated variable multiplies
    assert parse_monomial("x1*x1", 2) == (2, 0)


def test_parse_errors_carry_position():
    with pytest.raises(InputError) as err:
        parse_monomial("x1*y2", 3)
    assert "y2" in str(err.value)
    with pytest.raises(InputError):
        parse_monomial("x4", 3)
    with pytest.raises(InputError):
        parse_monomial("", 3)
    with pytest.raises(InputError):
        parse_monomial("x0", 3)


def test_format_round_trip():
    # format_monomial and generator_strings share one writer; it must agree
    # with an independent formatter, and parse_monomial must invert it.  The
    # lists are written column by column; half of them hold the unit,
    # anywhere in them
    assert _format_all(()) == []
    for rows in (1, 3):
        assert _format_all(((),) * rows) == ["1"] * rows
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        rows = rng.randint(1, 120)
        tuples = [
            tuple(
                rng.choice((10**6, 10**6 + 1, 10**12)) if rng.random() < 0.03 else rng.randint(0, 3)
                for _ in range(n)
            )
            for _ in range(rows)
        ]
        if rng.random() < 0.5:
            tuples.insert(rng.randint(0, len(tuples)), (0,) * n)
        for exps in tuples:
            assert format_monomial(exps) == format_factors(exps)
            assert parse_monomial(format_monomial(exps), n) == exps
        # the formatter needs no minimality: hold the list as it stands
        ideal = _ideal_from_minimal(n, tuples)
        assert ideal.generator_strings() == [format_factors(g) for g in ideal.generators]


def _outcome(parse, error, text, n):
    try:
        return parse(text, n)
    except error as exc:
        return f"error: {exc}"


def _digits(rng, value: int) -> str:
    """value in ASCII, Arabic-Indic or fullwidth decimal digits."""
    zero = rng.choice((0x30, 0x660, 0xFF10))
    return "".join(chr(zero + int(d)) for d in str(value))


def _random_text(rng, n: int) -> str:
    factors = []
    for _ in range(rng.randint(1, 4)):
        index = rng.randint(1, n) if n and rng.random() < 0.9 else rng.choice((0, n + 1))
        factor = "x" + _digits(rng, index)
        if rng.random() < 0.5:
            factor += "^" + _digits(rng, rng.randint(0, 12))
        pad = "".join(rng.choices(SPACES + [""] * 20, k=2))
        factors.append(pad[0:1] + factor + pad[1:])
    text = "*".join(factors)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice("x1^*0y \u00a0\u0663") + text[i:]
    return text


@pytest.mark.parametrize("n", [0, 1, 3])
def test_parse_against_factor_oracle(n):
    def new(text, n):
        return parse_monomial(text, n)

    fixed = [
        "", "1", " 1\t", "x0", "x1^", "x1**x2", "x1*", "*x1", "x1 ^2", "x 1", "x1^2^3",
        "X1", "x1x2", f"x{n + 1}", "x\u0663", "x1^\u0663", "x\uff11*x\uff12",
        "\u3000x1\u00a0*\u2003x2^3\x1c", "1*x1", "x1*1", "x01^02", "x1^0", "x-1", "x1^-2",
    ]
    rng = random.Random(29 + n)
    for text in fixed + [_random_text(rng, n) for _ in range(1500)]:
        assert _outcome(new, InputError, text, n) == _outcome(parse_factors, ValueError, text, n)


def test_parse_long_numbers_in_reading_order():
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits;
    # the first bad factor or number in reading order is the one refused
    big = "7" * 5000
    digits = "a number in monomial {!r}... has too many digits"
    for text, message in (
        (f"x{big}", digits),
        (f"x1^{big}", digits),
        # a long exponent before a malformed factor is met first
        (f"x1^{big}*y", digits),
        (f"y*x1^{big}", "bad monomial factor 'y' at position 0 in {!r}"),
        (f"x9^{big}", "variable x9 out of range 1..3 at position 0 in {!r}"),
        (f"x1*x9^{big}*y", "variable x9 out of range 1..3 at position 3 in {!r}"),
    ):
        expected = message.format(text[:40]) if message is digits else message.format(text)
        with pytest.raises(InputError) as err:
            parse_monomial(text, 3)
        assert str(err.value) == expected


def test_minimalize_against_sweep_oracle():
    rng = random.Random(41)
    cases = [[(0, 0, 0)], [(10**6, 0)], [(2, 1), (2, 1)]]
    for _ in range(400):
        n = rng.randint(1, 6)
        # a few values per case, so that divisibility is common
        values = ([0, 1] + rng.sample(range(2, 10**6 + 1), 2)) if rng.random() < 0.3 else range(4)
        gens = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(1, 12))]
        gens += rng.choices(gens, k=rng.randint(0, 3))
        if rng.random() < 0.1:
            gens.append((0,) * n)
        cases.append(gens)
    # 3003 squarefree quintics in 15 variables, with tuples above and below
    quintics = [tuple(int(j in c) for j in range(15)) for c in combinations(range(15), 5)]
    cases.append(quintics + random_exponents(rng, 15, 60, 8) + [(10**6,) + (1,) * 14])
    for gens in cases:
        assert _minimalize(gens) == minimal_exponents(gens), gens[:20]


def test_quadric_outside_against_divisibility():
    # only 1, x_a, x_b and x_a*x_b divide x_a*x_b, so the set lookup must
    # agree with a divisibility scan on generators of any degree
    rng = random.Random(43)
    for trial in range(300):
        n = rng.randint(1, 5)
        # degree-1 generators among them; a unit one now and then
        gens = random_exponents(rng, n, 8, 4) if trial else []
        if rng.random() < 0.1:
            gens.append((0,) * n)
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for a, b in pairs:
            exps = tuple(int(j == a) + int(j == b) for j in range(n))
            expected = None if in_ideal(gens, exps) else (a, b)
            assert _quadric_outside(gens, n, [(a, b)]) == expected, (gens, a, b)
        expected = next(
            (
                (a, b)
                for a, b in pairs
                if not in_ideal(gens, tuple(int(j == a) + int(j == b) for j in range(n)))
            ),
            None,
        )
        assert _quadric_outside(gens, n, pairs) == expected
        # an index from n on names no variable: only a listed unit covers it
        beyond = rng.randint(n, n + 3)
        for pair in ((beyond, beyond), (rng.randrange(n), beyond)):
            expected = None if (0,) * n in gens else pair
            assert _quadric_outside(gens, n, [pair]) == expected


def test_monomial_ops():
    a = m(3, (0, 1), (1, 1))
    b = m(3, (0, 2), (1, 1), (2, 1))
    assert sum(a) == 2 and sum(b) == 4
    assert in_ideal([a], b) and not in_ideal([b], a)
    assert MonomialIdeal(3, (a,)).is_squarefree() and not MonomialIdeal(3, (b,)).is_squarefree()
    assert support(a) == frozenset({0, 1})


def test_ideal_minimalizes():
    ideal = MonomialIdeal.from_strings(3, ["x1*x2", "x1^2*x2", "x1*x2*x3"])
    assert ideal.generator_strings() == ["x1*x2"]
    assert in_ideal(ideal.generators, parse_monomial("x1*x2*x3^4", 3))
    assert not in_ideal(ideal.generators, parse_monomial("x1*x3", 3))


@pytest.mark.parametrize(
    "generator, message",
    [
        pytest.param((1, -1), "negative exponent", id="negative"),
        pytest.param((1, 1, 0), "generator x1*x2 has 3 variables, ambient has 2", id="long"),
        pytest.param((1,), "generator x1 has 1 variables, ambient has 2", id="short"),
        pytest.param((), "zero-length exponent vector is disallowed", id="empty"),
        pytest.param(5, "generator 5 is not a vector of integer exponents", id="int"),
        pytest.param(
            "x1*x2", "generator 'x1*x2' is not a vector of integer exponents", id="string"
        ),
    ],
)
def test_ideal_refuses_bad_generators(generator, message):
    with pytest.raises(InputError) as err:
        MonomialIdeal(2, ((1, 0), generator))
    assert str(err.value) == message


def test_ideal_flags():
    zero = MonomialIdeal(3, ())
    unit = MonomialIdeal.from_strings(3, ["1"])
    assert zero.is_zero() and not zero.is_unit() and zero.is_proper()
    assert unit.is_unit() and not unit.is_proper()
    quad = MonomialIdeal.from_strings(3, ["x1*x2", "x3^2"])
    assert quad.generated_in_degree(2)
    assert not MonomialIdeal.from_strings(3, ["x1", "x2*x3"]).generated_in_degree(2)


def test_polarize_single_power():
    ideal = MonomialIdeal.from_strings(1, ["x1^2"])
    pol, classes = polarize(ideal)
    assert pol.generator_strings() == ["x1*x2"]
    assert classes == [(0, 1)]


def test_polarize_mixed():
    ideal = MonomialIdeal.from_strings(2, ["x1^2", "x2^2", "x1*x2"])
    pol, classes = polarize(ideal)
    assert pol.n == 4
    assert set(pol.generator_strings()) == {"x1*x2", "x3*x4", "x1*x3"}
    assert classes == [(0, 1), (2, 3)]


def test_polarize_fixes_squarefree():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        gens = set()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, n)
            gens.add(frozenset(rng.sample(range(n), size)))
        ideal = MonomialIdeal(n, tuple(tuple(int(j in g) for j in range(n)) for g in gens))
        pol, classes = polarize(ideal)
        assert pol == ideal
        assert all(len(c) == 1 for c in classes)


def test_polarize_degrees_match():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        exps = []
        for _ in range(rng.randint(1, 5)):
            exps.append(tuple(rng.randint(0, 3) for _ in range(n)))
        exps = [e for e in exps if sum(e)]
        if not exps:
            continue
        ideal = MonomialIdeal(n, tuple(exps))
        pol, _classes = polarize(ideal)
        assert pol.is_squarefree()
        assert sorted(map(sum, pol.generators)) == sorted(map(sum, ideal.generators))
