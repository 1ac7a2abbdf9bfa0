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
from quadbalance.covers import _bits
from quadbalance.homology import CMCertificate, total_betti_numbers

from oracles import (
    _by_dim,
    all_faces,
    brute_cohen_macaulay,
    height,
    hochster_betti,
    integer_rank,
    oracle_boundary_ranks,
    oracle_reduced_betti,
    random_facets,
    random_quadratic_exponents,
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
                link = homology._Link(faces)
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
    # (face index, mod-2 and signed rows) is built once, the rows only for
    # the faces that are pushed.  Per field path (the probe mod 2, then Q only where the
    # probe is nonzero) each degree is ranked at most once.  Mod p a
    # degree's rows skip the faces at the pivots of the map above, so their
    # count is f_d - rank_p d_{d+1}; degree 1 is ranked mod 2 for every
    # field, cleared by the pivots of the map above over that field
    listed, built, ranked = [], [], []
    faces, xor_rank, rank_of_rows = homology._faces, homology.xor_rank, homology.rank_of_rows

    def listing(lt, within):
        listed.append(within)
        return faces(lt, within)

    def building(name):
        # records a table of a dimension when it is about to be built: the
        # face index on first use, the rows on every call
        build = getattr(homology, name)

        def wrapped(link, d, *kept):
            if kept or d not in link.index:
                built.append((name, d))
            return build(link, d, *kept)

        monkeypatch.setattr(homology, name, wrapped)

    def degree(row):
        # a boundary row of degree d has d + 1 entries
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
    for name in ("_index", "_rows", "_signed"):
        building(name)
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
    assert homology._betti(homology._Link(octahedron()._listed), 2, GF(2)) == 1
    assert [(name, d) for name, d, _, _ in ranked] == [("GF(2)", 2)]
    # the CM test's link walk lists the complex once and ranks each link
    # on its own listing, listing the boundary of each face of a ranked
    # link at most once mod 2
    boundaries, links = Counter(), []
    link = homology._Link

    def facets_of(face, size):
        boundaries[size] += 1
        return combinations(face, size)

    def linking(faces):
        links.append(link(faces))
        return links[-1]

    monkeypatch.setattr(homology, "combinations", facets_of)
    monkeypatch.setattr(homology, "_Link", linking)
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    for cx in (octahedron(), rp2, cone(rp2), cross_polytope(5), cycle_complex(6)):
        listed.clear()
        boundaries.clear()
        links.clear()
        homology._link_walk(cx, GF(2))
        assert boundaries and all(
            boundaries[d] <= sum(len(lk.faces.get(d, ())) for lk in links) for d in boundaries
        )
        assert len(listed) == 1
        # a second call on the same instance, or any other reader, lists nothing
        homology._link_walk(cx, QQ)
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


def join(a, b):
    shift = a.n_vertices
    return SimplicialComplex(
        shift + b.n_vertices,
        frozenset(f | {v + shift for v in g} for f in a.facets for g in b.facets),
    )


def facet_masks(cx):
    return frozenset(sum(1 << v for v in f) for f in cx.facets)


def spy_on_the_link_walk(monkeypatch):
    """The fields that ``homology._link_walk`` is called with, in order."""
    walked, walk = [], homology._link_walk

    def spy(cx, field):
        walked.append(field)
        return walk(cx, field)

    monkeypatch.setattr(homology, "_link_walk", spy)
    return walked


def test_decomposition_certificate_equals_the_link_walk(monkeypatch):
    # a complex that the greedy vertex decomposition certifies gets the
    # walk's own passing certificate, every face counted; any other goes
    # to the walk, whose certificate, witness included, comes back as is
    walk = homology._link_walk
    walked = spy_on_the_link_walk(monkeypatch)
    rng = random.Random(71)
    shortcut = fallback = failed = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
        m = min(n, 8)
        for cx in (
            independence_complex(n, edges),
            SimplicialComplex.from_faces(m, random_facets(rng, m, 7)),
        ):
            for field in (QQ, GF(2), GF(3)):
                walked.clear()
                cert = is_cohen_macaulay(cx, field)
                assert cert == walk(cx, field), (cx.facets, field.name)
                if walked:
                    fallback += 1
                    failed += not cert.is_cm
                else:
                    shortcut += 1
                    assert cert.is_cm and cert.faces_checked == sum(f_vector(cx))
    # 783 certified, 417 walked, 411 of them failing
    assert shortcut >= 600 and fallback >= 300 and failed >= 300 and fallback - failed >= 3


def test_rp2_is_not_vertex_decomposable(monkeypatch):
    # RP^2's deletion of any vertex is a Moebius strip, which is not CM, so
    # the greedy decomposition fails and the walk decides: CM over Q and
    # GF(3), and over GF(2) the failing witness of its 2-torsion
    rp2 = SimplicialComplex.from_faces(6, RP2_FACETS)
    assert homology._Decomposition(10**6)(facet_masks(rp2)) is False
    walked = spy_on_the_link_walk(monkeypatch)
    for field in (QQ, GF(3)):
        walked.clear()
        assert is_cohen_macaulay(rp2, field) == CMCertificate(True, field.name, 32)
        assert walked == [field]
    walked.clear()
    assert is_cohen_macaulay(rp2, GF(2)) == CMCertificate(False, "GF(2)", 1, ((), 1, 1))
    assert walked == [GF(2)]


def test_long_deletion_runs_stop_at_the_ridge_allowance(monkeypatch):
    # a path on m vertices decomposes by peeling one edge at a time, and
    # each node counts the ridges of every edge left: about m^2 ridges for
    # its 2m - 1 faces, so past the allowance the link walk decides
    m = 300
    path = SimplicialComplex.from_faces(m, [{i, i + 1} for i in range(m - 1)])
    faces = sum(f_vector(path))
    assert homology._Decomposition(m * m)(facet_masks(path)) is True
    decomposes = homology._Decomposition(homology._RIDGES_PER_FACE * faces)
    assert decomposes(facet_masks(path)) is None and decomposes.left < 0
    walked = spy_on_the_link_walk(monkeypatch)
    assert is_cohen_macaulay(path) == CMCertificate(True, "Q", faces)
    assert walked == [QQ]
    # the suspension of the path on apexes 0 and 1 sheds 0 first, and its
    # link, the path, runs out: the top node's answer is unknown, not False
    suspension = facet_masks(path)
    suspension = frozenset(f << 2 | apex for f in suspension for apex in (1, 2))
    assert homology._Decomposition(2 * m * m)(suspension) is True
    assert homology._Decomposition(6 * m)(suspension) is None


class CountingMemo(dict):
    """A memo that counts the nodes looked up in it, one per node visited;
    with ``remember`` off it keeps nothing, so every node is expanded."""

    def __init__(self, remember=True):
        super().__init__()
        self.remember, self.visits = remember, 0

    def get(self, key, default=None):
        self.visits += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        if self.remember:
            super().__setitem__(key, value)


def test_matchings_decompose_within_2f_minus_1_nodes(monkeypatch):
    # the independence complex of the k-edge perfect matching is the
    # k-cross-polytope, with F = 2^k facets; lk v and the deletion of v (a
    # cone with v's partner as apex) are both the (k-1)-cross-polytope, so
    # without the memo the decomposition visits exactly 2F - 1 nodes, the
    # bound, and with it 2k + 1
    for k in (12, 13):
        masks = facet_masks(cross_polytope(k))
        assert len(masks) == 2**k
        for memo, visits in ((CountingMemo(), 2 * k + 1), (CountingMemo(False), 2**(k + 1) - 1)):
            decomposes = homology._Decomposition(10**9)
            decomposes.memo = memo
            assert decomposes(masks) is True and memo.visits == visits
    # and is_cohen_macaulay certifies it with no walk
    walked = spy_on_the_link_walk(monkeypatch)
    assert is_cohen_macaulay(cross_polytope(8), GF(3)) == CMCertificate(True, "GF(3)", 3**8)
    assert walked == []


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
    # every link is ranked on its own listing, probed mod 2 over Q; the
    # certificate, faces_checked and first witness included, against
    # Reisner's criterion with each link rebuilt from the facets, on
    # complexes with 2-torsion, cones, spheres, unused vertices and facets
    # of mixed sizes
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


def test_listed_link_ranks_against_link_oracle():
    # lk F listed as the link walk lists it, on its own vertices (those of
    # the facets through F, outside F) by their facet masks inside the
    # facets through F, against the link listed from its facets; the empty
    # face's link is the complex's own listing.  Then the rank of each
    # boundary map and each Betti number, degrees asked in ascending and in
    # descending order, since mod p the maps are ranked top down with
    # clearing, against every row kept
    rng = random.Random(71)
    complexes = [SimplicialComplex.from_faces(6, RP2_FACETS), cross_polytope(3)]
    for _ in range(40):
        n = rng.randint(1, 8)
        complexes.append(SimplicialComplex.from_faces(n, random_facets(rng, n, 6)))
    ranked = 0
    for cx in complexes:
        listed = cx._listed
        members, masks = cx._masks
        every = [face for d in sorted(listed) for face in listed[d]]
        for face in [()] + rng.sample(every, min(6, len(every))):
            # the facets through F, bit i for the i-th facet of the view
            through = [i for i, m in enumerate(members) if set(face) <= set(_bits(m))]
            within = sum(1 << i for i in through)
            link = [tuple(sorted(set(_bits(members[i])) - set(face))) for i in through]
            outside = sorted(set().union(*link))
            faces = homology._faces([masks[v] for v in outside], within)
            want = _by_dim(all_faces(link))
            relabelled = {d: [tuple(outside[i] for i in f) for f in fs] for d, fs in faces.items()}
            assert relabelled == want, (cx.facets, face)
            if not face:
                assert listed == want
            top = max(map(len, link)) - 1
            dims = range(-1, top + 3)
            for field, p in ((QQ, None), (GF(2), 2), (GF(3), 3)):
                want = oracle_boundary_ranks(link, p)
                betti = oracle_reduced_betti(link, p, integer_rank)
                for order in (dims, reversed(dims)):
                    lk = homology._Link(faces)
                    got = {e: homology._rank(lk, field, e) for e in order}
                    assert got == {e: want.get(e, 0) for e in dims}, (cx.facets, face, field.name)
                    ranked += any(got.values())
                lk = homology._Link(faces)
                got = {j: homology._betti(lk, j, field) for j in range(-1, top + 1)}
                assert got == betti, (cx.facets, face, field.name)
    assert ranked >= 300


def test_cross_polytope_links_reach_homology_once(monkeypatch):
    # the k-pair cross-polytope has 3^k faces, and the link of a face is
    # the cross-polytope on the pairs it misses: 2^k distinct links; over
    # its cone, a face without the apex has a cone for its link, and the
    # faces with the apex have the same 2^k links as before.  Both are
    # vertex decomposable, so the link walk is called directly
    listed, links, ranked = [], [], []
    original, link = simplicial._faces, homology._Link

    def counting(into):
        def wrapped(lt, within):
            into.append(within)
            return original(lt, within)

        return wrapped

    def linking(faces):
        ranked.append(faces)
        return link(faces)

    monkeypatch.setattr(simplicial, "_faces", counting(listed))
    monkeypatch.setattr(homology, "_faces", counting(links))
    monkeypatch.setattr(homology, "_Link", linking)
    k = 6
    cross = cross_polytope(k)
    for cx, faces in ((cross, 3**k), (cone(cross), 2 * 3**k)):
        listed.clear()
        links.clear()
        ranked.clear()
        cert = homology._link_walk(cx, QQ)
        assert cert.is_cm and cert.faces_checked == faces
        # the complex's own faces are listed once, and ranked as they are
        # for the empty face unless the complex is a cone; every other link
        # ranked is listed once, on its own vertices
        assert len(listed) == 1 and 0 < len(ranked) <= 2**k
        assert (cx._listed in ranked) == (cx is cross)
        assert len(links) == sum(faces is not cx._listed for faces in ranked)


def test_links_are_ranked_on_their_own_faces(monkeypatch):
    # every row pushed while a link is ranked indexes that link's own faces
    # one dimension down, so no table is as wide as the complex's.  RP^2
    # joined with the 3-cross-polytope is CM over GF(3) and Q but not over
    # GF(2), so not vertex decomposable, and the link walk decides it; over
    # Q the links with RP^2's 2-torsion are redone exactly
    links, pushed = [], Counter()
    link, xor_rank, rank_of_rows = homology._Link, homology.xor_rank, homology.rank_of_rows

    def linking(*args):
        links.append(link(*args))
        return links[-1]

    def own(rows, name):
        faces = links[-1].faces
        for row in rows:
            if isinstance(row, int):
                d, top = row.bit_count() - 1, row.bit_length() - 1
            else:
                d, top = len(row) - 1, max(row)
            assert top < len(faces[d - 1]), (name, d, top)
        pushed[name] += len(rows)

    def counting_xor(rows, pivots=None):
        own(rows, "GF(2)")
        return xor_rank(rows, pivots)

    def counting_rank(rows, field=QQ, pivots=None):
        own(rows, field.name)
        return rank_of_rows(rows, field, pivots)

    monkeypatch.setattr(homology, "_Link", linking)
    monkeypatch.setattr(homology, "xor_rank", counting_xor)
    monkeypatch.setattr(homology, "rank_of_rows", counting_rank)
    cx = join(SimplicialComplex.from_faces(6, RP2_FACETS), cross_polytope(3))
    for field in (GF(3), QQ):
        links.clear()
        pushed.clear()
        assert is_cohen_macaulay(cx, field) == CMCertificate(True, field.name, sum(f_vector(cx)))
        assert len(links) > 1 and pushed["GF(2)"] and pushed[field.name]


def test_cross_polytope_pushes_only_rows_that_can_be_independent(monkeypatch):
    # the link of a face missing s of the k pairs is the cross-polytope on
    # those s pairs, an (s-1)-sphere, and it is ranked mod 2 on its own
    # boundary rows.  A link of dimension 0 (s = 1) tests no
    # degree and is not ranked.  A sphere has one top cycle and no other
    # homology, and cleared rows are never pushed, so each ranked link has
    # exactly one row that reduces to zero: the 42 links with s >= 3 in a
    # degree of 2 or more, the 15 circles (s = 2) in degree 1.  Degree 0 is
    # never eliminated, so every ranked link ranks its degree 1 once.  The
    # link walk is called directly: the cross-polytope is vertex
    # decomposable, so ``is_cohen_macaulay`` ranks nothing
    ranked = []
    xor_rank = homology.xor_rank

    def counting(rows, pivots=None):
        rank = xor_rank(rows, pivots)
        ranked.append((rows[0].bit_count() - 1, len(rows) - rank))
        return rank

    monkeypatch.setattr(homology, "xor_rank", counting)
    monkeypatch.setattr(homology, "rank_of_rows", None)  # no exact redo
    k = 6
    cert = homology._link_walk(cross_polytope(k), QQ)
    assert cert.is_cm and cert.faces_checked == 3**k
    # the complex itself is the link of the empty face, s = k
    links = sum(comb(k, s) for s in range(2, k + 1))
    assert sum(d == 1 for d, _ in ranked) == links == 57
    assert min(d for d, _ in ranked) == 1
    spheres = sum(comb(k, s) for s in range(3, k + 1))
    assert sum(zero for d, zero in ranked if d >= 2) == spheres == 42
    assert sum(zero == 1 for d, zero in ranked if d >= 2) == 42
    assert sum(zero for d, zero in ranked if d == 1) == comb(k, 2) == 15


def test_certificate_is_computed_once_per_complex_and_field(monkeypatch):
    # the octahedron is vertex decomposable, two disjoint edges are not CM,
    # so the link walk decides them; each complex keeps its certificates
    decomposition, link_walk = homology._Decomposition, homology._link_walk
    computed = Counter()

    def decomposing(ridges):
        computed["_Decomposition"] += 1
        return decomposition(ridges)

    def walking(cx, field):
        computed["_link_walk"] += 1
        return link_walk(cx, field)

    monkeypatch.setattr(homology, "_Decomposition", decomposing)
    monkeypatch.setattr(homology, "_link_walk", walking)
    two_edges = SimplicialComplex.from_faces(4, [[0, 1], [2, 3]])
    for cx, walks in ((octahedron(), 0), (two_edges, 1)):
        computed.clear()
        first = is_cohen_macaulay(cx, QQ)
        assert is_cohen_macaulay(cx, QQ) is first
        assert (computed["_Decomposition"], computed["_link_walk"]) == (1, walks)
        # over GF(3) as well: two certificates computed in all
        third = is_cohen_macaulay(cx, GF(3))
        assert is_cohen_macaulay(cx, GF(3)) is third and third.field_name == "GF(3)"
        assert is_cohen_macaulay(cx, QQ) is first
        assert (computed["_Decomposition"], computed["_link_walk"]) == (2, 2 * walks)
        # an equal complex built anew keeps its own certificates
        assert is_cohen_macaulay(SimplicialComplex(cx.n_vertices, cx.facets), QQ) == first
        assert computed["_Decomposition"] == 3


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


# two sources of the pd_companions bench catalogue, whose companions
# polarize to support 12: pd = n = 6 (depth 0), and pd = n - 1 = 5
DEPTH_0_SOURCE = MonomialIdeal(6, (
    (0, 0, 1, 1, 0, 0), (0, 0, 0, 2, 0, 0), (1, 0, 0, 0, 1, 0), (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 0, 2, 0), (0, 1, 0, 0, 0, 1), (1, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1), (2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0),
))
PD_5_SOURCE = MonomialIdeal(6, (
    (1, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1),
    (0, 0, 1, 1, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0),
))


# pd = 4 = n - 1, but every C - v with v != x1 is a face of K^b at the top
# level: under each of its five rotations, a sphere test that skips any one
# position reads a sphere there, and pd = 5
NEAR_SPHERE = (
    (1, 1, 0, 0, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 1),
    (0, 0, 2, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2),
)

# pd = 4 from a sphere two levels below the top, after the level above it
# left pd at 3: a walk that stops once pd reaches a level's size - 1 misses it
LATE_SPHERE = MonomialIdeal(6, (
    (2, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0),
))


def criterion_2_sources(rng, count):
    """Quadratic sources of the acceptance criterion-2 shape: n 5..8, squares
    allowed, polarized support at most 12."""
    sources = []
    while len(sources) < count:
        n = rng.randint(5, 8)
        gens = random_quadratic_exponents(rng, n, 12, allow_squares=rng.random() < 0.7)
        if sum(max(column) for column in zip(*gens)) <= 12:
            sources.append(MonomialIdeal(n, tuple(gens)))
    return sources


def test_pd_by_levels_against_hochster_oracle(monkeypatch):
    # every rule of the level walk reaches an answer here: a top-level
    # sphere (pd = n), a sphere below the top level, a point that is not a
    # sphere, and RP^2's 2-torsion, which only GF(2) sees
    ended_on = []
    is_sphere = homology._is_sphere

    def spying(lt, divisors):
        found = is_sphere(lt, divisors)
        if found:
            ended_on.append(len(lt))
        return found

    monkeypatch.setattr(homology, "_is_sphere", spying)
    rp2 = stanley_reisner(SimplicialComplex.from_faces(6, RP2_FACETS))
    rotations = [MonomialIdeal(5, tuple(g[r:] + g[:r] for g in NEAR_SPHERE)) for r in range(5)]
    sources = [DEPTH_0_SOURCE, PD_5_SOURCE, LATE_SPHERE, rp2, *rotations]
    sources += criterion_2_sources(random.Random(59), 45)
    seen = Counter()
    for ideal in sources:
        used = sum(1 for column in zip(*ideal.generators) if any(column))
        for field, p in ((QQ, None), (GF(2), 2)):
            ended_on.clear()
            want = hochster_betti(ideal.n, list(ideal.generators), p)
            depth, pd = depth_and_pd(ideal, field)
            assert (depth, pd) == (ideal.n - len(want) + 1, len(want) - 1), (ideal, field.name)
            assert len(ended_on) <= 1
            if pd == ideal.n:
                seen["pd = n"] += 1
            if ended_on and ended_on[0] < used:
                seen["sphere below the top level"] += 1
            if not ended_on and pd > 1:
                seen["not a sphere"] += 1
    assert min(seen.values()) >= 3 and len(seen) == 3, seen
    assert depth_and_pd(rp2, QQ) == (3, 3) and depth_and_pd(rp2, GF(2)) == (2, 4)


def spy_on_the_walk(monkeypatch):
    """Lists of the complexes K^b listed and of the level sizes drawn."""
    listed, drawn = [], []
    faces, levels = homology._faces, homology._levels

    def listing(lt, within):
        listed.append(lt)
        return faces(lt, within)

    def drawing(*args, **kwargs):
        for size, points in levels(*args, **kwargs):
            drawn.append(size)
            yield size, points

    monkeypatch.setattr(homology, "_faces", listing)
    monkeypatch.setattr(homology, "_levels", drawing)
    return listed, drawn


def test_depth_0_source_lists_no_upper_koszul_complex(monkeypatch):
    # a sphere on the top level decides pd = n with no face listed
    listed, drawn = spy_on_the_walk(monkeypatch)
    for field in (QQ, GF(2), GF(3)):
        assert depth_and_pd(DEPTH_0_SOURCE, field) == (0, 6)
    assert listed == [] and drawn == [6, 6, 6]


def test_pd_n_minus_1_source_lists_no_level_below_it(monkeypatch):
    listed, drawn = spy_on_the_walk(monkeypatch)
    for field in (QQ, GF(2)):
        assert depth_and_pd(PD_5_SOURCE, field) == (1, 5)
    # the top level's points that are not spheres leave pd = 5, and no
    # level of size 5 can beat it
    assert drawn == [6, 6] and listed
    # pd is at most the number of generators (Taylor): two generators on
    # seven variables list their top level only, and a principal ideal lists
    # no level; a budget refusal comes first
    drawn.clear()
    assert depth_and_pd(MonomialIdeal.from_strings(7, ["x1*x2*x3*x4", "x4*x5*x6*x7"])) == (5, 2)
    assert drawn == [7]
    drawn.clear()
    assert depth_and_pd(MonomialIdeal.from_strings(3, ["x1*x2^3*x3"])) == (2, 1)
    assert drawn == []
    with pytest.raises(BudgetExceededError):
        depth_and_pd(MonomialIdeal.from_strings(1, ["x1^20"]))
