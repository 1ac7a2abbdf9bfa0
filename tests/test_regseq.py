import random

import pytest

from quadbalance import (
    GF,
    QQ,
    BudgetExceededError,
    InputError,
    MonomialIdeal,
    RegularSequenceNotFoundError,
    certify_transversal_ranks,
    decompose_degree_two,
    find_regular_sequence,
    format_monomial,
    minimal_primes,
    sample_forms,
)
from quadbalance import regseq
from quadbalance.fields import DEFAULT_PRIME
from quadbalance.reports import regseq_report, verify_report

from oracles import (
    height,
    in_ideal,
    is_regular_sequence_of_products,
    monomial_as_product,
    perfect_matching,
    position_neighbors,
    random_quadratic_exponents,
    transversal_ranks,
)

TRIANGLE = MonomialIdeal.from_strings(3, ["x1*x2", "x1*x3", "x2*x3"])


def quadratic_ideal(rng, n, max_gens, allow_squares=True):
    exps = random_quadratic_exponents(rng, n, max_gens, allow_squares)
    return MonomialIdeal(n, tuple(exps))


def factors(cert):
    """The certificate's products x_p * l as coefficient tuples, one per factor."""
    return [
        [tuple(int(v == p) for v in range(len(form))), form]
        for p, form in zip(cert.prime, cert.forms)
    ]


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of every mod-p sweep that certify_transversal_ranks runs."""
    calls = []
    sweep = regseq._independent_mod_p

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(regseq, "_independent_mod_p", counting)
    return calls


def neighbors(ideal, prime, active):
    return position_neighbors(prime, decompose_degree_two(ideal, prime), active)


def test_decomposition_examples():
    assert decompose_degree_two(TRIANGLE, (0, 1)) == ((1, 2), (2,))
    # the prime is sorted and deduplicated first
    assert decompose_degree_two(TRIANGLE, (1, 0, 1)) == ((1, 2), (2,))
    squares = MonomialIdeal.from_strings(3, ["x1^2", "x2^2", "x3^2"])
    assert decompose_degree_two(squares, (0, 1, 2)) == ((0,), (1,), (2,))
    shared = MonomialIdeal.from_strings(3, ["x1*x3", "x2*x3"])
    assert decompose_degree_two(shared, (2,)) == ((0, 1),)


def test_decomposition_rejects_bad_input():
    with pytest.raises(InputError, match="misses the generator"):
        decompose_degree_two(TRIANGLE, (0,))
    with pytest.raises(InputError, match="divides no generator"):
        decompose_degree_two(MonomialIdeal.from_strings(2, ["x1*x2"]), (0, 1))
    with pytest.raises(InputError, match="degree exactly 2"):
        decompose_degree_two(MonomialIdeal.from_strings(3, ["x1*x2*x3"]), (0,))
    with pytest.raises(InputError):
        decompose_degree_two(MonomialIdeal.from_strings(2, []), (0,))


def test_matching_instances():
    assert neighbors(TRIANGLE, (0, 1), (1,)) == ((0,), (2,))
    assert neighbors(TRIANGLE, (0, 1), ()) == ((0,), (1,))
    assert neighbors(TRIANGLE, (0, 1), (0, 1)) == ((1, 2), (2,))


def test_find_matching():
    assert perfect_matching(neighbors(TRIANGLE, (0, 1), (0, 1))) == (1, 2)
    assert perfect_matching(neighbors(TRIANGLE, (0, 1), ())) == (0, 1)
    path = MonomialIdeal.from_strings(3, ["x1*x2", "x2*x3"])
    assert perfect_matching(neighbors(path, (0, 2), (0, 1))) is None


def test_hall_condition_on_random_ideals():
    # the lemma in the regseq module docstring: for every minimal prime of
    # size g = height, every subset of positions admits a perfect matching
    rng = random.Random(53)
    primes = 0
    for _ in range(1500):
        n = rng.randint(2, 6)
        ideal = quadratic_ideal(rng, n, 8)
        g = height(ideal)
        for prime in minimal_primes(ideal):
            if len(prime) != g:
                continue
            primes += 1
            prime = tuple(sorted(prime))
            spaces = decompose_degree_two(ideal, prime)
            for mask in range(1 << g):
                active = tuple(j for j in range(g) if mask >> j & 1)
                assert perfect_matching(position_neighbors(prime, spaces, active)) is not None
    assert primes > 1500


def test_sample_forms():
    forms = sample_forms(3, decompose_degree_two(TRIANGLE, (0, 1)), seed=0)
    assert len(forms) == 2
    assert forms[0][0] == 0
    assert all(1 <= forms[0][v] <= 32 for v in (1, 2))
    # singleton spaces are normalized, not sampled
    assert forms[1] == (0, 0, 1)
    squares = MonomialIdeal.from_strings(3, ["x1^2", "x2^2", "x3^2"])
    for j, form in enumerate(sample_forms(3, decompose_degree_two(squares, (0, 1, 2)), seed=7)):
        assert form == tuple(1 if v == j else 0 for v in range(3))


def test_certify_examples():
    empty = certify_transversal_ranks((), ())
    assert empty.ok and empty.subsets_checked == 1
    l1 = (0, 1, 1)
    l2 = (0, 0, 1)
    cert = certify_transversal_ranks((0, 1), (l1, l2))
    assert cert.ok and cert.subsets_checked == 4
    assert cert.failing_subset is None and cert.field_name == "Q"
    assert cert.forms == (l1, l2)
    # forms given as lists are stored as tuples, and bools count as integers
    listed = certify_transversal_ranks([0, 1], [[0, True, 1], [0, False, 1]])
    assert listed.ok and listed.forms == (l1, l2)
    bad = certify_transversal_ranks((0, 1), ((0, 1, 0),) * 2)
    assert not bad.ok and bad.failing_subset == ()
    with pytest.raises(InputError):
        certify_transversal_ranks((0, 1), (l1,))
    for coefficient in (1.0, "1", None):
        with pytest.raises(InputError, match="^linear form coefficients must be integers$"):
            certify_transversal_ranks((0, 1), (l1, (0, 0, coefficient)))


def test_certify_depends_on_field():
    # over GF(2) the two forms become equal
    l1 = (0, 1, 1)
    l2 = (0, 1, 3)
    assert certify_transversal_ranks((0, 1), (l1, l2), QQ).ok
    assert not certify_transversal_ranks((0, 1), (l1, l2), GF(2)).ok


def test_products_of_monomials():
    assert monomial_as_product((2, 1, 0)) == ((1, 0, 0), (1, 0, 0), (0, 1, 0))


def test_regular_sequence_criterion_negative():
    a = monomial_as_product((2, 1, 0))
    b = monomial_as_product((0, 2, 1))
    ok, witness = is_regular_sequence_of_products((a, b))
    assert not ok
    assert witness.choice == (2, 0) and witness.rank == 1
    assert witness.forms == ((0, 1, 0), (0, 1, 0))


def test_regular_sequence_criterion_positive():
    a = monomial_as_product((1, 1, 0, 0))
    b = monomial_as_product((0, 0, 1, 1))
    assert is_regular_sequence_of_products((a, b)) == (True, None)
    assert is_regular_sequence_of_products((a,)) == (True, None)
    assert is_regular_sequence_of_products(()) == (True, None)


def test_cubic_ideal_has_no_regular_pair_of_monomials():
    # height 2, but every pair of generators shares a linear factor up to
    # the transversal criterion, so no two generators form a regular sequence
    ideal = MonomialIdeal.from_strings(3, ["x1^2*x2", "x1*x3^2", "x2^2*x3"])
    gens = ideal.generators
    assert [format_monomial(m) for m in gens] == ["x1^2*x2", "x1*x3^2", "x2^2*x3"]
    assert height(ideal) == 2
    expected_witness = {
        (0, 1): ((1, 0, 0), (1, 0, 0)),
        (0, 2): ((0, 1, 0), (0, 1, 0)),
        (1, 2): ((0, 0, 1), (0, 0, 1)),
    }
    for (i, j), coeffs in expected_witness.items():
        ok, witness = is_regular_sequence_of_products(
            (monomial_as_product(gens[i]), monomial_as_product(gens[j]))
        )
        assert not ok
        assert witness.forms == coeffs
        assert witness.rank == 1


def test_find_regular_sequence_squares():
    squares = MonomialIdeal.from_strings(3, ["x1^2", "x2^2", "x3^2"])
    cert = find_regular_sequence(squares)
    assert cert.ok and cert.prime == (0, 1, 2)
    assert cert.subsets_checked == 8 and cert.attempts == 1
    prods = factors(cert)
    assert len(prods) == 3
    for i, p in enumerate(prods):
        assert p == [tuple(1 if v == i else 0 for v in range(3))] * 2


def test_find_regular_sequence_triangle():
    cert = find_regular_sequence(TRIANGLE, seed=0)
    assert cert.ok and cert.prime == (0, 1)
    assert cert.seed == 0 and cert.attempts == 1
    assert cert.subsets_checked == 4
    assert cert.forms[1] == (0, 0, 1)
    c0 = cert.forms[0]
    assert c0[0] == 0 and c0[1] > 0 and c0[2] > 0
    ok, witness = is_regular_sequence_of_products(factors(cert))
    assert ok and witness is None


def test_find_regular_sequence_octahedron_ideal():
    ideal = MonomialIdeal.from_strings(6, ["x1*x2", "x3*x4", "x5*x6"])
    cert = find_regular_sequence(ideal)
    assert cert.ok and cert.prime == (0, 2, 4)
    products = {tuple(sorted(f.index(1) for f in p)) for p in factors(cert)}
    assert products == {(0, 1), (2, 3), (4, 5)}


def test_find_regular_sequence_is_deterministic():
    a = find_regular_sequence(TRIANGLE, seed=11)
    b = find_regular_sequence(TRIANGLE, seed=11)
    assert a == b
    assert find_regular_sequence(TRIANGLE, seed=12).ok


def test_prime_override():
    cert = find_regular_sequence(TRIANGLE, prime=(1, 2))
    assert cert.ok and cert.prime == (1, 2)
    with pytest.raises(InputError, match="not a minimal prime"):
        find_regular_sequence(TRIANGLE, prime=(0,))
    path = MonomialIdeal.from_strings(3, ["x1*x2", "x2*x3"])
    assert find_regular_sequence(path, prime=(1,)).prime == (1,)
    with pytest.raises(InputError, match="height is 1"):
        find_regular_sequence(path, prime=(0, 2))


def test_field_choice():
    cert = find_regular_sequence(TRIANGLE, field=GF(5))
    assert cert.ok and cert.field_name == "GF(5)"
    ok, _ = is_regular_sequence_of_products(factors(cert), 5)
    assert ok


def test_rejects_out_of_scope_input():
    with pytest.raises(InputError):
        find_regular_sequence(MonomialIdeal.from_strings(2, []))
    with pytest.raises(InputError):
        find_regular_sequence(MonomialIdeal.from_strings(2, ["1"]))
    with pytest.raises(InputError, match="offending: x1"):
        find_regular_sequence(MonomialIdeal.from_strings(2, ["x1", "x1*x2"]))


def test_hard_cap_on_prime_size():
    n = 21
    squares = MonomialIdeal.from_strings(n, [f"x{i}^2" for i in range(1, n + 1)])
    with pytest.raises(BudgetExceededError):
        find_regular_sequence(squares)


def test_random_ideals_yield_certified_sequences():
    rng = random.Random(59)
    for _ in range(80):
        n = rng.randint(2, 7)
        ideal = quadratic_ideal(rng, n, 10)
        g = height(ideal)
        cert = find_regular_sequence(ideal, seed=rng.randrange(1 << 30))
        assert cert.ok and len(cert.forms) == g
        # independent re-check of regularity, enumerating factor choices
        ok, witness = is_regular_sequence_of_products(factors(cert))
        assert ok, witness
        # every product expands to monomials inside the ideal
        for p, form in zip(cert.prime, cert.forms):
            for v, c in enumerate(form):
                if c:
                    exps = [0] * n
                    exps[p] += 1
                    exps[v] += 1
                    assert in_ideal(ideal.generators, tuple(exps))


def test_structured_fallback(monkeypatch):
    # with every sampled coefficient 1 both forms are x3 + x4, so all eight
    # samples fail and the structured family t^((j+1)(v+1)) takes over at t=2
    monkeypatch.setattr(regseq, "default_coefficient_range", lambda g: 1)
    ideal = MonomialIdeal.from_strings(4, ["x1*x3", "x1*x4", "x2*x3", "x2*x4"])
    cert = find_regular_sequence(ideal)
    assert cert.ok and cert.attempts == 9 and cert.seed is None
    assert cert.forms == ((0, 0, 8, 16), (0, 0, 64, 256))


def test_fallback_exhaustion(monkeypatch):
    # the structured family collapses mod 2 too: 8 samples, then all 16
    # values of t, are certified and fail before the search gives up
    monkeypatch.setattr(regseq, "default_coefficient_range", lambda g: 1)
    certified = []

    def counting(*args):
        certified.append(args)
        return certify_transversal_ranks(*args)

    monkeypatch.setattr(regseq, "certify_transversal_ranks", counting)
    ideal = MonomialIdeal.from_strings(4, ["x1*x3", "x1*x4", "x2*x3", "x2*x4"])
    with pytest.raises(RegularSequenceNotFoundError, match="exhausted over GF\\(2\\)"):
        find_regular_sequence(ideal, field=GF(2))
    assert len(certified) == 24


@pytest.mark.parametrize("p", [None, 2, 3])
def test_certify_against_subset_oracle(p):
    # small coefficients, so that both outcomes are common
    field = QQ if p is None else GF(p)
    rng = random.Random(71 + (p or 0))
    failed = 0
    for _ in range(300):
        g = rng.randint(1, 5)
        n = g + rng.randint(0, 3)
        prime = tuple(sorted(rng.sample(range(n), g)))
        forms = [tuple(rng.choice((0, 0, 1, 2, -1)) for _ in range(n)) for _ in range(g)]
        cert = certify_transversal_ranks(prime, forms, field)
        expected = transversal_ranks(prime, forms, p)
        assert (cert.ok, cert.failing_subset, cert.subsets_checked) == expected
        failed += not cert.ok
    assert 60 <= failed <= 240, failed


def test_certify_overrules_modular_dependency(sweeps):
    # the forms agree modulo the prime the Q sweep works in, but they are
    # independent over Q; they share both free columns, so they do not peel,
    # and the certificate must still pass every subset through the Q redo
    forms = ((0, 0, 1, 1), (0, 0, 1, 1 + DEFAULT_PRIME))
    cert = certify_transversal_ranks((0, 1), forms, QQ)
    assert cert.ok and cert.subsets_checked == 4
    assert len(sweeps) == 1
    bad = certify_transversal_ranks((0, 1), forms, GF(DEFAULT_PRIME))
    assert bad.failing_subset == () and bad.subsets_checked == 1


@pytest.mark.parametrize("p", [None, 2, 3])
def test_peeling_against_subset_oracle(p, sweeps):
    # sparse forms with coefficients that vanish in GF(2) or GF(3), so that
    # both peeled and swept certificates are common
    field = QQ if p is None else GF(p)
    rng = random.Random(89 + (p or 0))
    peeled = 0
    for _ in range(400):
        g = rng.randint(1, 6)
        n = g + rng.randint(0, 3)
        prime = tuple(sorted(rng.sample(range(n), g)))
        forms = [tuple(rng.choice((0, 0, 0, 1, 2, 3, -1)) for _ in range(n)) for _ in range(g)]
        swept = len(sweeps)
        cert = certify_transversal_ranks(prime, forms, field)
        expected = transversal_ranks(prime, forms, p)
        assert (cert.ok, cert.failing_subset, cert.subsets_checked) == expected
        peeled += len(sweeps) == swept
    assert 60 <= peeled <= 340, peeled


def _family(g):
    # the bench's I = (x_i^2, x_i*x_j : i <= g, j in three extra variables)
    gens = [f"x{i}^2" for i in range(1, g + 1)]
    gens += [f"x{i}*x{j}" for i in range(1, g + 1) for j in range(g + 1, g + 4)]
    return MonomialIdeal.from_strings(g + 3, gens)


def _matching(k):
    return MonomialIdeal.from_strings(2 * k, [f"x{2 * i - 1}*x{2 * i}" for i in range(1, k + 1)])


SHAPES = {"family": _family, "matching": _matching}


@pytest.mark.parametrize("field", [QQ, GF(DEFAULT_PRIME)], ids=str)
@pytest.mark.parametrize(
    "shape, g",
    [("family", g) for g in (8, 9, 10, 11, 20)] + [("matching", k) for k in (8, 9, 10, 20)],
)
def test_bench_shapes_peel_without_sweeping(field, shape, g, sweeps):
    # the family peels through its squares, a matching through the partner
    # variables; search and verify both certify all 2^g subsets unswept
    report = regseq_report(SHAPES[shape](g), field, 3)
    assert report["subsets_checked"] == 1 << g
    assert verify_report(report)["ok"]
    assert sweeps == []
