"""End-to-end acceptance suite.

Each test prints one summary line (visible under ``pytest -s``) and enforces
its own runtime budget.  Random instances are generated with fixed seeds, so
every run exercises the same inputs.
"""

import random
import time
from itertools import combinations

from quadbalance import (
    MonomialIdeal,
    SimplicialComplex,
    balance,
    balance_report,
    canonical_json,
    check_balanced,
    decompose_degree_two,
    egh_for_quadratic,
    egh_report,
    f_vector,
    find_regular_sequence,
    independence_complex,
    is_cohen_macaulay,
    minimal_primes,
    regseq_report,
)
from quadbalance.fields import GF, QQ
from quadbalance.hilbert import poly_trim, series_numerator

from oracles import (
    count_standard_monomials,
    height,
    hilbert_function,
    in_ideal,
    is_regular_sequence_of_products,
    monomial_as_product,
    oracle_reduced_betti,
    perfect_matching,
    position_neighbors,
    random_facets,
    random_quadratic_exponents,
    reduced_homology_ranks,
    standard_monomial_counts,
)


def _line(num, ok, message, start):
    print(f"[{num}] {'PASS' if ok else 'FAIL'} {message} ({time.perf_counter() - start:.2f}s)")


def random_quadratic_ideal(rng, n, max_gens, allow_squares=True):
    exps = random_quadratic_exponents(rng, n, max_gens, allow_squares)
    return MonomialIdeal(n, tuple(exps))


def test_criterion_1_no_regular_pair_in_the_cubic_example():
    start = time.perf_counter()
    ideal = MonomialIdeal.from_strings(3, ["x1^2*x2", "x2^2*x3", "x1*x3^2"])
    gens = ideal.generators
    failures = []
    witnesses = 0
    for i, j in combinations(range(3), 2):
        ok, witness = is_regular_sequence_of_products(
            (monomial_as_product(gens[i]), monomial_as_product(gens[j]))
        )
        if ok or witness is None or witness.rank >= 2:
            failures.append((i, j))
        else:
            witnesses += 1
    elapsed = time.perf_counter() - start
    _line(1, not failures and elapsed < 1.0,
          f"cubic example: {witnesses}/3 generator pairs rejected with rank witnesses",
          start)
    assert not failures, failures
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_regular_sequence_and_realization_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    runs = 0
    while runs < 500:
        n = rng.randint(2, 8)
        ideal = random_quadratic_ideal(rng, n, 12, allow_squares=rng.random() < 0.5)
        runs += 1
        g = height(ideal)
        cert = find_regular_sequence(ideal, seed=rng.randrange(1 << 32))
        if not cert.ok or cert.subsets_checked != 1 << g:
            failures.append(("cert", ideal))
            continue
        for p, form in zip(cert.prime, cert.forms):
            for v, c in enumerate(form):
                if c:
                    exps = [0] * n
                    exps[p] += 1
                    exps[v] += 1
                    if not in_ideal(ideal.generators, tuple(exps)):
                        failures.append(("membership", ideal))
        rep = egh_for_quadratic(ideal)
        if not rep.series_equal:
            failures.append(("series", ideal))
        elif len(rep.ideal.generators) <= 3000:
            if series_numerator(ideal) != series_numerator(rep.ideal):
                failures.append(("series", ideal))
        else:
            # The independent series recheck is quadratic in the generator
            # count; the few companions past this size get a windowed
            # recount of standard monomials instead.
            want = standard_monomial_counts(n, list(ideal.generators), 8)
            got = standard_monomial_counts(n, list(rep.ideal.generators), 8)
            if want != got:
                failures.append(("window", ideal))
        for i in range(rep.g):
            square = tuple(2 if j == i else 0 for j in range(n))
            if not in_ideal(rep.ideal.generators, square):
                failures.append(("squares", ideal))
    elapsed = time.perf_counter() - start
    _line(2, not failures and elapsed < 300,
          f"random-ideal sweep: {runs} quadratic ideals, certificates and series all verified",
          start)
    assert not failures, failures[:5]
    assert elapsed < 300, f"took {elapsed:.2f}s, budget 300s"


def test_criterion_3_balanced_companions_for_all_small_graphs():
    start = time.perf_counter()
    failures = []
    graphs = 0
    balanced = 0
    for k in range(7):
        pairs = list(combinations(range(k), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            cx = independence_complex(k, edges)
            graphs += 1
            if not is_cohen_macaulay(cx).is_cm:
                continue
            rep = balance(cx)
            balanced += 1
            if poly_trim(rep.h_source) != poly_trim(rep.h_result):
                failures.append(("h", k, edges))
            if check_balanced(rep.result, rep.coloring) != rep.coloring:
                failures.append(("coloring", k, edges))
            # the result's certificate is stated by the theorem; the link
            # test must agree with it, face count included
            if not rep.cm_result.is_cm or is_cohen_macaulay(rep.result) != rep.cm_result:
                failures.append(("cm", k, edges))
    elapsed = time.perf_counter() - start
    _line(3, not failures and elapsed < 600,
          f"balance sweep: {graphs} graphs, {balanced} CM complexes balanced, zero failures",
          start)
    assert graphs == 33868
    assert not failures, failures[:5]
    assert elapsed < 600, f"took {elapsed:.2f}s, budget 600s"


def test_criterion_4_octahedron_golden():
    start = time.perf_counter()
    octa = SimplicialComplex.from_faces(
        6,
        [
            frozenset(f)
            for f in [
                (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
                (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
            ]
        ],
    )
    rep = balance(octa)
    ok = (
        rep.h_source == (1, 3, 3, 1)
        and rep.g == 3
        and set(rep.artinian.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
        and f_vector(rep.result) == (1, 6, 12, 8)
    )
    _line(4, ok, "octahedron golden: h=(1,3,3,1), g=3, squares ideal, f=(1,6,12,8)", start)
    assert ok


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(555)
    failures = []
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = set()
        for _ in range(rng.randint(0, 6)):
            exps = [0] * n
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(n)] += 1
            gens.add(tuple(exps))
        ideal = MonomialIdeal(n, tuple(sorted(gens)))
        data = hilbert_function(ideal, bound=8, numerator=series_numerator(ideal))
        want = tuple(
            count_standard_monomials(n, list(ideal.generators), d)
            for d in range(9)
        )
        if data.window != want:
            failures.append(("hilbert", ideal))
    for _ in range(100):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 6))
        facets = [tuple(sorted(f)) for f in cx.facets]
        for field, p in ((QQ, None), (GF(2), 2)):
            want = oracle_reduced_betti(facets, p)
            got = reduced_homology_ranks(cx, field)
            if got != tuple(want[k] for k in range(cx.dim + 1)):
                failures.append(("homology", facets, p))
    elapsed = time.perf_counter() - start
    _line(5, not failures,
          "oracle equivalence: 200 Hilbert windows and 100 homology computations match",
          start)
    assert not failures, failures[:5]


def test_criterion_6_hall_guarantee():
    start = time.perf_counter()
    rng = random.Random(666)
    failures = []
    accepted = 0
    while accepted < 200:
        n = rng.randint(2, 7)
        ideal = random_quadratic_ideal(rng, n, 10, allow_squares=rng.random() < 0.5)
        prime = tuple(sorted(minimal_primes(ideal)[0]))
        if len(prime) > 6:
            continue
        accepted += 1
        spaces = decompose_degree_two(ideal, prime)
        for mask in range(1 << len(prime)):
            active = tuple(j for j in range(len(prime)) if mask >> j & 1)
            if perfect_matching(position_neighbors(prime, spaces, active)) is None:
                failures.append((ideal, active))
    elapsed = time.perf_counter() - start
    _line(6, not failures,
          f"hall guarantee: {accepted} height-g ideals, perfect matchings on every subset",
          start)
    assert not failures, failures[:5]


def test_criterion_7_deterministic_reports():
    start = time.perf_counter()
    rng = random.Random(777)
    ideals = [MonomialIdeal.from_strings(3, ["x1*x2", "x1*x3", "x2*x3"])]
    for _ in range(3):
        ideals.append(random_quadratic_ideal(rng, rng.randint(2, 6), 8))
    complexes = [
        SimplicialComplex.from_faces(
            6,
            [
                frozenset(f)
                for f in [
                    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
                    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
                ]
            ],
        ),
        independence_complex(5, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    failures = []
    for ideal in ideals:
        a = canonical_json(regseq_report(ideal, QQ, seed=42))
        b = canonical_json(regseq_report(ideal, QQ, seed=42))
        if a != b:
            failures.append(("regseq", ideal))
        a = canonical_json(egh_report(ideal, QQ))
        b = canonical_json(egh_report(ideal, QQ))
        if a != b:
            failures.append(("egh", ideal))
    for cx in complexes:
        a = canonical_json(balance_report(cx, QQ))
        b = canonical_json(balance_report(cx, QQ))
        if a != b:
            failures.append(("balance", cx))
    _line(7, not failures,
          "determinism: repeated regseq/egh/balance reports are byte-identical",
          start)
    assert not failures, failures
