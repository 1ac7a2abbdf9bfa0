import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from quadbalance import (
    GF,
    QQ,
    BudgetExceededError,
    MonomialIdeal,
    NotCohenMacaulayError,
    SimplicialComplex,
    balance,
    depth_and_pd,
    egh_for_quadratic,
    f_vector,
    h_vector,
    independence_complex,
    is_cohen_macaulay,
    polarize,
    stanley_reisner,
)
from quadbalance import homology, simplicial
from quadbalance.homology import total_betti_numbers

from oracles import (
    brute_cohen_macaulay,
    height,
    hochster_betti,
    integer_rank,
    oracle_boundary_ranks,
    oracle_reduced_betti,
    random_facets,
    reduced_homology_ranks,
)

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


def test_euler_characteristic():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 5))
        f = f_vector(cx)
        chi = -sum((-1) ** i * f[i] for i in range(len(f)))
        betti = reduced_homology_ranks(cx)
        assert chi == sum((-1) ** k * b for k, b in enumerate(betti))


def octahedron():
    return SimplicialComplex.from_faces(
        6,
        [frozenset(f) for f in [
            (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        ]],
    )


def cross_polytope(k):
    return independence_complex(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def test_homology_against_oracle():
    # each boundary map's rank, asked for in ascending and in descending
    # order (mod p the maps are ranked top down and cleared by the pivots
    # of the map above, whichever degree is asked first), and the reduced
    # Betti numbers, against ranks with every row kept
    rng = random.Random(31)
    cases = [SimplicialComplex.from_faces(6, RP2_FACETS), octahedron(), cross_polytope(4)]
    for _ in range(60):
        n = rng.randint(1, 8)
        cases.append(SimplicialComplex.from_faces(n, random_facets(rng, n, 6)))
    verdicts = set()
    for cx in cases:
        facets = [tuple(sorted(f)) for f in cx.facets]
        faces = cx._listed
        dims = range(-1, cx.dim + 3)
        for field, p in ((QQ, None), (GF(2), 2), (GF(3), 3), (GF(32003), 32003)):
            want = oracle_boundary_ranks(facets, p)
            for order in (dims, reversed(dims)):
                link = homology._Link(faces, {})
                got = {d: homology._rank(link, field, d) for d in order}
                assert got == {d: want.get(d, 0) for d in dims}, (facets, field.name)
            betti = oracle_reduced_betti(facets, p, integer_rank)
            assert reduced_homology_ranks(cx, field) == tuple(betti[k] for k in range(cx.dim + 1))
            assert betti[-1] == 0
            verdicts.add(is_cohen_macaulay(cx, field).is_cm)
    assert verdicts == {True, False}
    assert reduced_homology_ranks(cases[0], GF(2)) == (0, 1, 1)


def test_boundary_rows_built_once_and_never_cleared(monkeypatch):
    # the faces are listed once per complex instance, and every later
    # reader of that instance lists nothing; each table of a dimension
    # (face index, faces through each vertex, mod-2 and signed rows) is
    # built once.  Per field path (the probe mod 2, then Q only where the
    # probe is nonzero) each degree is ranked at most once.  Mod p a
    # degree's rows skip the faces at the pivots of the map above, so their
    # count is f_d - rank_p d_{d+1}; degree 1 is ranked mod 2 for every
    # field, cleared by the pivots of the map above over that field
    listed, built, ranked = [], [], []
    faces, xor_rank, rank_of_rows = homology._faces, homology.xor_rank, homology.rank_of_rows

    def listing(lt, within):
        listed.append(within)
        return faces(lt, within)

    def building(name, position):
        # records a table of a dimension when it is about to be built
        build = getattr(homology, name)

        def wrapped(*args):
            if name == "_signed":  # (link, e, kept)
                cache, d = args[0].cache, args[1] + len(args[0].face)
            else:  # (faces, cache, d)
                cache, d = args[1:]
            if d not in cache or cache[d][position] is None:
                built.append((name, d))
            return build(*args)

        monkeypatch.setattr(homology, name, wrapped)

    def degree(row):
        # a restricted row of degree d has d + 1 entries
        return (row.bit_count() if isinstance(row, int) else len(row)) - 1

    def counting_xor(rows, pivots=None):
        rank = xor_rank(rows, pivots)
        ranked.append(("GF(2)", degree(rows[0]) if rows else None, len(rows), rank))
        return rank

    def counting_rank(rows, field=QQ, pivots=None):
        rank = rank_of_rows(rows, field, pivots)
        ranked.append((field.name, degree(rows[0]), len(rows), rank))
        return rank

    monkeypatch.setattr(simplicial, "_faces", listing)
    for position, name in enumerate(("_index", "_through", "_rows", "_signed")):
        building(name, position)
    monkeypatch.setattr(homology, "xor_rank", counting_xor)
    monkeypatch.setattr(homology, "rank_of_rows", counting_rank)
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    cases = [
        (octahedron(), QQ, (0, 0, 1)),
        (rp2, QQ, (0, 0, 0)),
        (rp2, GF(2), (0, 1, 1)),
        (cross_polytope(4), GF(3), (0, 0, 0, 1)),
        (cycle_complex(5), GF(3), (0, 1)),
    ]
    seen = []
    for cx, field, betti in cases:
        listed.clear()
        built.clear()
        ranked.clear()
        assert reduced_homology_ranks(cx, field) == betti
        fresh = not any(cx is other for other in seen)
        seen.append(cx)
        assert len(listed) == fresh and len(built) == len(set(built))
        facets = [tuple(sorted(f)) for f in cx.facets]
        f = f_vector(cx)
        probe = GF(2) if field == QQ else field
        mod_p = oracle_boundary_ranks(facets, probe.p)
        mod_2 = oracle_boundary_ranks(facets, 2)
        for name, d, count, rank in ranked:
            if name == "Q":
                assert d >= 2 and count == f[d + 1] and rank == oracle_boundary_ranks(facets)[d]
                continue
            if d is None:  # every row cleared
                assert count == 0
                continue
            assert name == ("GF(2)" if d < 2 else probe.name)
            assert count == f[d + 1] - mod_p.get(d + 1, 0) and rank == mod_p[d]
            if d < 2:  # a graph's rank is the same over every field
                assert rank == mod_2[d]
        # every degree once per field path, each probed mod 2 over Q
        paths = [(name if d is None or d >= 2 else probe.name, d) for name, d, _, _ in ranked]
        assert len(paths) == len(set(paths))
        # degree 0 has rank 1 on a nonempty vertex set, with no elimination
        assert {d for name, d in paths if name == probe.name} == set(range(1, cx.dim + 1))
        # the octahedron's probe of degree 2 is nonzero, but its probe of
        # degree 1 is 0, which closes d_2 over Q; RP^2's of degrees 1 and 2
        # are both nonzero (2-torsion), so its d_2 is redone over Q on all
        # rows.  Signed rows are built only for the degrees ranked over Q
        # or an odd p
        redone = {d for name, d, _, _ in ranked if name == "Q"}
        assert redone == ({2} if field == QQ and cx is rp2 else set())
        signed = {d for name, d in built if name == "_signed"}
        odd = set(range(2, cx.dim + 1)) if field != GF(2) else set()
        assert signed == (redone if field == QQ else odd)
    # maps are ranked from the top down only as far as a degree asks, so
    # projective dimension's top-down walk can stop after the top map
    ranked.clear()
    assert homology._betti(homology._Link(octahedron()._listed, {}), 2, GF(2)) == 1
    assert [(name, d) for name, d, _, _ in ranked] == [("GF(2)", 2)]
    # the CM test lists the complex once and ranks its links on their
    # stars, listing the boundary of each face at most once mod 2
    boundaries = Counter()

    def facets_of(face, size):
        boundaries[size] += 1
        return combinations(face, size)

    monkeypatch.setattr(homology, "combinations", facets_of)
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    for cx in (octahedron(), rp2, cone(rp2), cross_polytope(5), cycle_complex(6)):
        listed.clear()
        boundaries.clear()
        is_cohen_macaulay(cx, GF(2))
        f = f_vector(cx)
        assert boundaries and all(boundaries[d] <= f[d + 1] for d in boundaries)
        assert len(listed) == 1
        # a second call on the same instance, or any other reader, lists nothing
        is_cohen_macaulay(cx, QQ)
        cx.faces()
        h_vector(cx)
        assert len(listed) == 1


def test_cohen_macaulay_examples():
    cert = is_cohen_macaulay(octahedron())
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


def test_passing_certificate_counts_every_face():
    # a passing link test counts every face, the empty face included, so
    # its face count is the sum of the f-vector; ``balance`` states its
    # result's certificate on that count without running the test
    rng = random.Random(67)
    passed = failed = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        for cx in (
            SimplicialComplex.from_faces(n, random_facets(rng, n, 5)),
            independence_complex(n, edges),
        ):
            for field in (QQ, GF(2), GF(3)):
                cert = is_cohen_macaulay(cx, field)
                if cert.is_cm:
                    assert cert.faces_checked == sum(f_vector(cx)), (cx, field.name)
                    passed += 1
                else:
                    assert cert.faces_checked < sum(f_vector(cx))
                    failed += 1
    assert passed >= 60 and failed >= 60


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


def test_cohen_macaulay_on_stars_against_link_oracle():
    # every link is ranked inside the complex's own boundary rows, probed
    # mod 2 over Q; the certificate, faces_checked and first witness
    # included, against Reisner's criterion with each link rebuilt from
    # the facets, on complexes with 2-torsion, cones, spheres, unused
    # vertices and facets of mixed sizes
    rng = random.Random(67)
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    cases = [
        rp2,
        cone(rp2),
        # RP^2 with an edge hanging off vertex 0 and an unused vertex 8
        SimplicialComplex(9, frozenset(rp2.facets | {frozenset({0, 6})})),
        SimplicialComplex(7, rp2.facets),
        cycle_complex(4),
        cycle_complex(6),
        cone(cycle_complex(6)),
        *(cross_polytope(k) for k in (1, 2, 3, 4)),
        cone(cross_polytope(3)),
    ]
    for _ in range(60):
        n = rng.randint(1, 9)
        used = rng.sample(range(n), rng.randint(1, n))
        facets = [frozenset(used[i] for i in f) for f in random_facets(rng, len(used), 7)]
        cases.append(SimplicialComplex.from_faces(n, facets))
        if rng.random() < 0.3:
            cases.append(cone(cases[-1]))
    verdicts = {}
    for cx in cases:
        facets = [tuple(sorted(f)) for f in cx.facets]
        for field, p in ((QQ, None), (GF(2), 2), (GF(3), 3)):
            cert = is_cohen_macaulay(cx, field)
            want = brute_cohen_macaulay(facets, p)
            assert (cert.is_cm, cert.faces_checked, cert.witness) == want, (facets, field.name)
            verdicts[cx, field.name] = cert.is_cm
    assert verdicts[rp2, "Q"] and verdicts[rp2, "GF(3)"] and not verdicts[rp2, "GF(2)"]
    assert not verdicts[cone(rp2), "GF(2)"] and verdicts[cone(rp2), "Q"]
    assert {v for (cx, name), v in verdicts.items() if name == "Q"} == {True, False}


def test_star_ranks_against_listed_link_oracle():
    # the rank of each boundary map of lk F, restricted from the complex's
    # own rows to the star of F, against the link listed from its facets
    # with every row kept; degrees asked in ascending and in descending
    # order, since mod p the maps are ranked top down with clearing
    rng = random.Random(71)
    complexes = [SimplicialComplex.from_faces(6, RP2_FACETS), cross_polytope(3)]
    for _ in range(40):
        n = rng.randint(1, 8)
        complexes.append(SimplicialComplex.from_faces(n, random_facets(rng, n, 6)))
    ranked = 0
    for cx in complexes:
        listed = cx._listed
        every = [face for d in sorted(listed) for face in listed[d]]
        for face in [()] + rng.sample(every, min(6, len(every))):
            link = [tuple(sorted(set(f) - set(face))) for f in cx.facets if set(face) <= f]
            top = max(map(len, link)) - 1
            dims = range(-1, top + 3)
            for field, p in ((QQ, None), (GF(2), 2), (GF(3), 3)):
                want = oracle_boundary_ranks(link, p)
                betti = oracle_reduced_betti(link, p, integer_rank)
                for order in (dims, reversed(dims)):
                    lk = homology._Link(listed, {}, face)
                    got = {e: homology._rank(lk, field, e) for e in order}
                    assert got == {e: want.get(e, 0) for e in dims}, (cx.facets, face, field.name)
                    ranked += any(got.values())
                inside = homology._Link(listed, {}, face)
                got = {j: homology._betti(inside, j, field) for j in range(-1, top + 1)}
                assert got == betti, (cx.facets, face, field.name)
    assert ranked >= 300


def test_cross_polytope_links_reach_homology_once(monkeypatch):
    # the k-pair cross-polytope has 3^k faces, and the link of a face is
    # the cross-polytope on the pairs it misses: 2^k distinct links; over
    # its cone, a face without the apex has a cone for its link, and the
    # faces with the apex have the same 2^k links as before
    listed, ranked = [], []
    original, link = simplicial._faces, homology._Link

    def counting(lt, within):
        listed.append(within)
        return original(lt, within)

    def linking(*args):
        ranked.append(args)
        return link(*args)

    monkeypatch.setattr(simplicial, "_faces", counting)
    monkeypatch.setattr(homology, "_Link", linking)
    k = 6
    cross = cross_polytope(k)
    for cx, faces in ((cross, 3**k), (cone(cross), 2 * 3**k)):
        listed.clear()
        ranked.clear()
        cert = is_cohen_macaulay(cx)
        assert cert.is_cm and cert.faces_checked == faces
        # the complex's own faces are listed once, and no link is listed
        assert len(listed) == 1 and 0 < len(ranked) <= 2**k


def test_cross_polytope_pushes_only_rows_that_can_be_independent(monkeypatch):
    # the link of a face missing s of the k pairs is the cross-polytope on
    # those s pairs, an (s-1)-sphere, and it is ranked mod 2 inside the
    # complex's boundary rows.  A link of dimension 0 (s = 1) tests no
    # degree and is not ranked.  A sphere has one top cycle and no other
    # homology, and cleared rows are never pushed, so each ranked link has
    # exactly one row that reduces to zero: the 42 links with s >= 3 in a
    # degree of 2 or more, the 15 circles (s = 2) in degree 1.  Degree 0 is
    # never eliminated, so every ranked link ranks its degree 1 once.
    ranked = []
    xor_rank = homology.xor_rank

    def counting(rows, pivots=None):
        rank = xor_rank(rows, pivots)
        ranked.append((rows[0].bit_count() - 1, len(rows) - rank))
        return rank

    monkeypatch.setattr(homology, "xor_rank", counting)
    monkeypatch.setattr(homology, "rank_of_rows", None)  # no exact redo
    k = 6
    cert = is_cohen_macaulay(cross_polytope(k))
    assert cert.is_cm and cert.faces_checked == 3**k
    # the complex itself is the link of the empty face, s = k
    links = sum(comb(k, s) for s in range(2, k + 1))
    assert sum(d == 1 for d, _ in ranked) == links == 57
    assert min(d for d, _ in ranked) == 1
    spheres = sum(comb(k, s) for s in range(3, k + 1))
    assert sum(zero for d, zero in ranked if d >= 2) == spheres == 42
    assert sum(zero == 1 for d, zero in ranked if d >= 2) == 42
    assert sum(zero for d, zero in ranked if d == 1) == comb(k, 2) == 15


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
        ideal = MonomialIdeal(n, tuple(gens))
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
            return MonomialIdeal(n, tuple(gens))


def test_betti_numbers_and_pd_against_hochster_oracle():
    rng = random.Random(53)
    for _ in range(210):
        ideal = random_small_support_ideal(rng)
        gens = list(ideal.generators)
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


def test_exact_redos_only_where_mod_2_neighbours_leave_them_open(monkeypatch):
    # rank_Q d_k = rank_2 d_k once betti mod 2 is 0 in degree k or k - 1:
    # RP^2's d_2 has betti_2 = 1 on both sides, so its 2-torsion still
    # reaches Q.  The source below had two redos over Q, each confirming
    # its probe, and now has none
    exact = []
    rank_of_rows = homology.rank_of_rows

    def counting(rows, field=QQ, pivots=None):
        exact.append(field == QQ)
        return rank_of_rows(rows, field, pivots)

    monkeypatch.setattr(homology, "rank_of_rows", counting)
    ideal = stanley_reisner(SimplicialComplex.from_faces(6, RP2_FACETS))
    assert depth_and_pd(ideal, QQ) == (3, 3)
    assert any(exact)
    exact.clear()
    assert depth_and_pd(ideal, GF(2)) == (2, 4)
    assert not exact
    source = MonomialIdeal.from_strings(5, ["x1^2", "x1*x2", "x1*x3", "x2*x4", "x5^2"])
    assert depth_and_pd(source, QQ) == (1, 4)
    assert not exact


def test_criterion_7_companion():
    # the powers-plus-lex companion whose pd dominated the determinism
    # criterion of the acceptance suite: 14 generators on polarized support
    # 15, inside the default budget of 16
    source = MonomialIdeal.from_strings(6, ["x2^2", "x2*x3", "x2*x4", "x4^2", "x4*x5"])
    companion = egh_for_quadratic(source).ideal
    assert len(companion.generators) == 14
    assert sum(max(column) for column in zip(*companion.generators)) == 15
    assert total_betti_numbers(companion) == (1, 14, 42, 59, 45, 18, 3)
    assert depth_and_pd(companion) == (0, 6)
    with pytest.raises(BudgetExceededError):
        depth_and_pd(companion, budget=14)
