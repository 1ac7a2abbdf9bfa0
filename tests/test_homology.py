import random
from math import comb

import pytest

from quadbalance import (
    GF,
    QQ,
    BudgetExceededError,
    Monomial,
    MonomialIdeal,
    NotCohenMacaulayError,
    SimplicialComplex,
    balance,
    depth_and_pd,
    egh_for_quadratic,
    f_vector,
    height,
    independence_complex,
    is_cohen_macaulay,
    polarize,
    stanley_reisner,
)
from quadbalance import homology
from quadbalance.homology import reduced_homology_ranks, total_betti_numbers

from oracles import brute_cohen_macaulay, hochster_betti, oracle_reduced_betti, random_facets

# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    frozenset(v - 1 for v in f)
    for f in [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
    ]
]


# a cone over a disk (vertex 0) and a cone over an annulus (vertex 1), the
# disk being the annulus cut open along 2-5: lk 0 and lk 1 both have the
# vertex set 2..7 but different facets, and only lk 1 has homology (H~_1)
ANNULUS = [(2, 3, 5), (3, 5, 6), (3, 4, 6), (4, 6, 7), (2, 4, 7), (2, 5, 7)]
SAME_VERTICES = SimplicialComplex.from_faces(
    8,
    [frozenset({0, *t}) for t in ANNULUS if not {2, 5} <= set(t)]
    + [frozenset({1, *t}) for t in ANNULUS],
)


def cycle_complex(n):
    edges = [frozenset({i, (i + 1) % n}) for i in range(n)]
    return SimplicialComplex.from_faces(n, edges)


def test_reduced_homology_examples():
    assert reduced_homology_ranks(cycle_complex(3)) == (0, 1)
    point = SimplicialComplex.from_faces(1, [frozenset({0})])
    assert reduced_homology_ranks(point) == (0,)
    two_points = SimplicialComplex.from_faces(2, [frozenset({0}), frozenset({1})])
    assert reduced_homology_ranks(two_points) == (1,)
    assert reduced_homology_ranks(SimplicialComplex(2, frozenset([frozenset()]))) == ()


def test_torsion_detected_by_field():
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    assert f_vector(rp2) == (1, 6, 15, 10)
    assert reduced_homology_ranks(rp2, QQ) == (0, 0, 0)
    assert reduced_homology_ranks(rp2, GF(2)) == (0, 1, 1)
    assert reduced_homology_ranks(rp2, GF(3)) == (0, 0, 0)


def test_homology_against_oracle():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 6))
        facets = [tuple(sorted(f)) for f in cx.facets]
        for field, p in ((QQ, None), (GF(2), 2)):
            got = reduced_homology_ranks(cx, field)
            want = oracle_reduced_betti(facets, p)
            assert got == tuple(want[k] for k in range(cx.dim + 1))
            assert want[-1] == 0


def test_euler_characteristic():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 5))
        f = f_vector(cx)
        chi = -sum((-1) ** i * f[i] for i in range(len(f)))
        betti = reduced_homology_ranks(cx)
        assert chi == sum((-1) ** k * b for k, b in enumerate(betti))


def test_boundary_matrix_built_once_per_dimension(monkeypatch):
    built = []
    original = homology._boundary_rows

    def counting(faces_k, index_km1):
        built.append(len(faces_k[0]) - 1)
        return original(faces_k, index_km1)

    monkeypatch.setattr(homology, "_boundary_rows", counting)
    octa = SimplicialComplex.from_faces(
        6,
        [frozenset(f) for f in [
            (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        ]],
    )
    # the probe of degree 2 is nonzero, so its boundary rows are ranked
    # over Q as well, from the same build
    assert reduced_homology_ranks(octa) == (0, 0, 1)
    assert sorted(built) == [0, 1, 2]


def test_cohen_macaulay_examples():
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
    cert = is_cohen_macaulay(octa)
    assert cert.is_cm and bool(cert) and cert.faces_checked == 27
    assert cert.field_name == "Q" and cert.witness is None
    assert is_cohen_macaulay(SimplicialComplex.full_simplex(4)).is_cm
    two_edges = SimplicialComplex.from_faces(
        4, [frozenset({0, 1}), frozenset({2, 3})]
    )
    bad = is_cohen_macaulay(two_edges)
    assert not bad.is_cm and bad.witness == ((), 0, 1)


def test_cohen_macaulay_depends_on_field():
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    assert is_cohen_macaulay(rp2, QQ).is_cm
    bad = is_cohen_macaulay(rp2, GF(2))
    assert not bad.is_cm
    assert bad.field_name == "GF(2)"
    assert bad.witness == ((), 1, 1)


def cone(cx):
    return SimplicialComplex(cx.n_vertices + 1, frozenset(f | {cx.n_vertices} for f in cx.facets))


def test_cohen_macaulay_against_link_oracle():
    # the certificate, faces_checked and first witness included, against
    # Reisner's criterion with every link rebuilt from the facets
    rng = random.Random(59)
    lk0, lk1 = (SAME_VERTICES.link({v}) for v in (0, 1))
    assert set().union(*lk0.facets) == set().union(*lk1.facets) == set(range(2, 8))
    assert lk0.facets != lk1.facets
    cases = [
        SimplicialComplex.from_faces(6, RP2_FACETS),
        SimplicialComplex.from_faces(4, [frozenset({0, 1}), frozenset({2, 3})]),
        SAME_VERTICES,
        cone(SAME_VERTICES),
        # lk 0, lk 1 and lk 2 are cones; lk 3 is two components
        SimplicialComplex.from_faces(
            5, [frozenset(f) for f in [(0, 1, 2), (0, 1, 3), (3, 4)]]
        ),
    ]
    companions = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        cases.append(SimplicialComplex.from_faces(n, random_facets(rng, n, 6)))
        cases.append(cone(cases[-1]))
        # independence complexes of random graphs, CM often enough to
        # reach the deeper links, and the balanced companions of CM ones:
        # those are not flag, so a link is not fixed by its vertices
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        cases.append(independence_complex(n, edges))
        if n <= 6:
            try:
                cases.append(balance(cases[-1]).result)
                companions += 1
            except NotCohenMacaulayError:
                pass
    verdicts = set()
    for cx in cases:
        facets = [tuple(sorted(f)) for f in cx.facets]
        for field, p in ((QQ, None), (GF(2), 2), (GF(3), 3)):
            cert = is_cohen_macaulay(cx, field)
            assert cert.field_name == field.name
            assert (cert.is_cm, cert.faces_checked, cert.witness) == brute_cohen_macaulay(
                facets, p
            ), (facets, field.name)
            verdicts.add(cert.is_cm)
    assert verdicts == {True, False} and companions >= 5
    assert is_cohen_macaulay(SAME_VERTICES).witness == ((1,), 1, 1)
    rp2 = [tuple(sorted(f)) for f in RP2_FACETS]
    assert brute_cohen_macaulay(rp2)[0] and not brute_cohen_macaulay(rp2, 2)[0]


def test_cross_polytope_links_reach_homology_once(monkeypatch):
    # the k-pair cross-polytope has 3^k faces, and the link of a face is
    # the cross-polytope on the pairs it misses: 2^k distinct links; over
    # its cone, a face without the apex has a cone for its link, and the
    # faces with the apex have the same 2^k links as before
    listed = []
    original = homology._faces

    def counting(lt, within):
        listed.append(within)
        return original(lt, within)

    monkeypatch.setattr(homology, "_faces", counting)
    k = 6
    cross = independence_complex(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    for cx, faces in ((cross, 3**k), (cone(cross), 2 * 3**k)):
        listed.clear()
        cert = is_cohen_macaulay(cx)
        assert cert.is_cm and cert.faces_checked == faces
        # the first listing is the complex's own faces, the rest are links
        assert len(listed) - 1 <= 2**k


def test_cone_preserves_cohen_macaulayness():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 6)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 4))
        assert is_cohen_macaulay(cone(cx)).is_cm == is_cohen_macaulay(cx).is_cm


def test_total_betti_examples():
    assert total_betti_numbers(MonomialIdeal.from_strings(2, ["x1*x2"])) == (1, 1)
    assert total_betti_numbers(
        MonomialIdeal.from_strings(3, ["x1*x2", "x2*x3"])
    ) == (1, 2, 1)
    g = 4
    squares = MonomialIdeal.from_strings(g, [f"x{i}^2" for i in range(1, g + 1)])
    assert total_betti_numbers(squares) == tuple(comb(g, i) for i in range(g + 1))


def test_depth_and_pd_examples():
    assert depth_and_pd(MonomialIdeal.from_strings(2, ["x1*x2"])) == (1, 1)
    assert depth_and_pd(MonomialIdeal.from_strings(3, ["x1*x2", "x2*x3"])) == (1, 2)
    assert depth_and_pd(MonomialIdeal.from_strings(3, [])) == (3, 0)
    two_edges = MonomialIdeal.from_strings(4, ["x1*x2", "x3*x4"])
    assert depth_and_pd(two_edges) == (2, 2)


def test_polarization_preserves_betti_numbers():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = {
            tuple(rng.randint(0, 2) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        }
        gens = {g for g in gens if any(g)}
        if not gens:
            continue
        ideal = MonomialIdeal(n, tuple(Monomial(g) for g in gens))
        square, _ = polarize(ideal)
        assert total_betti_numbers(ideal) == total_betti_numbers(square)


def test_cm_iff_pd_equals_height():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 6)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 5))
        ideal = stanley_reisner(cx)
        _, pd = depth_and_pd(ideal)
        assert (pd == height(ideal)) == is_cohen_macaulay(cx).is_cm


def test_budget_refusal():
    ideal = MonomialIdeal.from_strings(6, ["x1*x2", "x3*x4", "x5*x6"])
    with pytest.raises(BudgetExceededError):
        total_betti_numbers(ideal, budget=5)
    assert total_betti_numbers(ideal, budget=6) == (1, 3, 3, 1)


def random_small_support_ideal(rng):
    """Random monomial ideal with n <= 5, exponents <= 3, polarized support <= 10."""
    while True:
        n = rng.randint(1, 5)
        gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        gens = sorted(g for g in gens if any(g))
        if gens and sum(max(column) for column in zip(*gens)) <= 10:
            return MonomialIdeal(n, tuple(Monomial(g) for g in gens))


def test_betti_numbers_and_pd_against_hochster_oracle():
    rng = random.Random(53)
    for _ in range(210):
        ideal = random_small_support_ideal(rng)
        gens = [g.exponents for g in ideal.generators]
        for field, p in ((QQ, None), (GF(2), 2), (GF(32003), 32003)):
            want = hochster_betti(ideal.n, gens, p)
            assert total_betti_numbers(ideal, field) == want
            assert depth_and_pd(ideal, field) == (ideal.n - len(want) + 1, len(want) - 1)


def test_betti_numbers_see_torsion():
    # Stanley-Reisner ideal of a 6-vertex triangulation of RP^2: its 2-torsion
    # adds a syzygy over GF(2) and raises pd from 3 to 4
    rp2 = SimplicialComplex.from_faces(6, [
        frozenset(int(c) - 1 for c in f)
        for f in "124 126 135 136 145 234 235 256 346 456".split()
    ])
    ideal = stanley_reisner(rp2)
    assert total_betti_numbers(ideal, QQ) == (1, 10, 15, 6)
    assert depth_and_pd(ideal, QQ) == (3, 3)
    assert total_betti_numbers(ideal, GF(2)) == (1, 10, 15, 7, 1)
    assert depth_and_pd(ideal, GF(2)) == (2, 4)
    assert total_betti_numbers(ideal, GF(3)) == (1, 10, 15, 6)


def test_criterion_7_companion():
    # the powers-plus-lex companion whose pd dominated the determinism
    # criterion of the acceptance suite: 14 generators on polarized support
    # 15, inside the default budget of 16
    source = MonomialIdeal.from_strings(6, ["x2^2", "x2*x3", "x2*x4", "x4^2", "x4*x5"])
    companion = egh_for_quadratic(source).ideal
    assert len(companion.generators) == 14
    assert sum(max(column) for column in zip(*(g.exponents for g in companion.generators))) == 15
    assert total_betti_numbers(companion) == (1, 14, 42, 59, 45, 18, 3)
    assert depth_and_pd(companion) == (0, 6)
    with pytest.raises(BudgetExceededError):
        depth_and_pd(companion, budget=14)
