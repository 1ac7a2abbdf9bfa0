import random
from collections import Counter

from quadbalance import (
    MonomialIdeal,
    egh_for_quadratic,
    series_numerator,
)
from quadbalance import hilbert
from quadbalance.hilbert import _numerator, _stable_numerator, pole_order, poly_mul

from quadbalance.monomials import _minimalize, support

from oracles import (
    brute_minimal_covers,
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
        ideal = MonomialIdeal(n, tuple(gens))
        bound = rng.randint(0, 7)
        window = hilbert_function(ideal, bound, series_numerator(ideal)).window
        for d in range(bound + 1):
            assert window[d] == count_standard_monomials(n, gens, d), (n, gens, d)


def test_numerator_of_redundant_generators():
    # the recursion minimalizes its input once, on entry
    rng = random.Random(29)
    redundant = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = random_exponents(rng, n, 8, 4)
        ideal = MonomialIdeal(n, tuple(gens))
        redundant += len(ideal.generators) < len(gens)
        hilbert._MEMO.clear()
        assert _numerator(frozenset(gens)) == series_numerator(ideal), (n, gens)
    assert redundant >= 50


def test_pole_order_is_the_smallest_cover_size():
    # the order of t = 1 in N is n - dim S/I, the size of a smallest vertex
    # cover of the generator supports; the draws mix quadrics with and
    # without squares, unused variables and higher degrees
    rng = random.Random(41)
    orders = Counter()
    for i in range(600):
        n = rng.randint(2, 7)
        if i % 3 == 2:
            gens = random_exponents(rng, n, 8, 4)
        else:
            gens = random_quadratic_exponents(rng, n, 10, allow_squares=i % 3 == 0)
        unused = rng.randint(0, 2)
        ideal = MonomialIdeal(n + unused, tuple(g + (0,) * unused for g in gens))
        covers = brute_minimal_covers(list(map(support, ideal.generators)))
        assert pole_order(series_numerator(ideal)) == len(covers[0]), (n, gens)
        orders[len(covers[0])] += 1
    assert len(orders) >= 5
    # (1 - t^2)^g: the squares of g variables
    for g in range(8):
        assert pole_order(series_numerator(idl(g + 1, *(f"x{i + 1}^2" for i in range(g))))) == g
    assert pole_order(series_numerator(MonomialIdeal(4, ()))) == 0
    # the unit ideal's numerator is 0, a root of every order: 0, and no endless loop
    assert pole_order(series_numerator(idl(3, "1"))) == pole_order(()) == 0


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
    ideal = MonomialIdeal(n, tuple(gens))
    return list(egh_for_quadratic(ideal).ideal.generators)


def test_numerator_against_pivot_oracle():
    rng = random.Random(31)
    redundant = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        gens = random_exponents(rng, n, 10, 5)
        redundant += len(MonomialIdeal(n, tuple(gens)).generators) < len(gens)
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


def _stable_closure(gens, n, g):
    """The monomials reached from gens by the moves u -> x_j*u/x_max(u),
    j < max(u), that stay nonzero modulo the squares of x1..xg."""
    seen, todo = set(gens), list(gens)
    while todo:
        u = todo.pop()
        if any(e > 1 for e in u[:g]):
            continue
        m = max(j for j, e in enumerate(u) if e)
        for j in range(m):
            if j >= g or not u[j]:
                w = list(u)
                w[j] += 1
                w[m] -= 1
                if tuple(w) not in seen:
                    seen.add(tuple(w))
                    todo.append(tuple(w))
    return seen


def _draw_stable_list(rng):
    """n, g and a list over the squares of x1..xg: the minimal generators of
    a stable ideal, or that list spoiled in one way."""
    n = rng.randint(1, 5)
    g = rng.randint(0, n)
    squares = [tuple(2 * (j == i) for j in range(n)) for i in range(g)]
    seeds = [tuple(rng.randint(0, 1 if j < g else 3) for j in range(n)) for _ in range(3)]
    seeds = [u for u in seeds if any(u)]
    kind = rng.choice(["stable", "stable", "unclosed", "dropped", "multiple", "square", "linear"])
    gens = seeds if kind == "unclosed" else _stable_closure(seeds, n, g)
    gens = list(MonomialIdeal(n, tuple(gens) + tuple(squares)).generators)
    if kind == "dropped" and len(gens) > g:
        gens.remove(rng.choice([u for u in gens if u not in squares]))
    elif kind == "multiple" and gens:
        u = list(rng.choice(gens))
        u[rng.randrange(n)] += 1
        gens.append(tuple(u))
    elif kind in ("square", "linear") and g:
        # a redundant multiple of a square; "linear" also lists x_i in place
        # of x_i^2, which the formula refuses
        i = rng.randrange(g)
        u = [rng.randint(0, 1) for _ in range(n)]
        u[i] = 2
        gens.append(tuple(u))
        if kind == "linear":
            gens = [u for u in gens if u != squares[i]] + [tuple(int(j == i) for j in range(n))]
    return n, g, gens, kind


def test_stable_numerator_against_pivot_oracle():
    # the formula either refuses a list or agrees with the pivot recursion;
    # stable closures are rarely lex, and every kind of spoiling shows up
    rng = random.Random(41)
    accepted, refused = Counter(), Counter()
    for _ in range(1500):
        n, g, gens, kind = _draw_stable_list(rng)
        stated = _stable_numerator(gens, n, g)
        if stated is None:
            refused[kind] += 1
            continue
        accepted[kind] += 1
        want = {d: a for d, a in enumerate(pivot_numerator(gens)) if a}
        assert stated == want, (n, g, gens)
    assert sum(accepted.values()) >= 200 and sum(refused.values()) >= 200
    assert min(accepted[k] for k in ("stable", "dropped", "multiple", "square")) >= 20
    assert min(refused[k] for k in ("unclosed", "dropped", "multiple", "linear")) >= 20


def test_stable_numerator_of_companions():
    # the lex-plus-squares companion always passes the checks, and a huge
    # exponent costs one entry of the sparse numerator
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        ideal = MonomialIdeal(n, tuple(random_quadratic_exponents(rng, n, 12)))
        rep = egh_for_quadratic(ideal)
        stated = _stable_numerator(rep.ideal.generators, n, rep.g)
        assert stated == {d: a for d, a in enumerate(series_numerator(ideal)) if a}, seed
    deep = 10**12
    assert _stable_numerator([(2, 0), (1, deep)], 2, 1) == {0: 1, 2: -1, deep + 1: -1, deep + 2: 1}
