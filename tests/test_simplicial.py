import random
from itertools import combinations, product

import pytest

from quadbalance import (
    InputError,
    MonomialIdeal,
    SimplicialComplex,
    check_balanced,
    complex_of_ideal,
    f_vector,
    h_vector,
    independence_complex,
    is_flag,
    minimal_non_faces,
    stanley_reisner,
)

from oracles import (
    all_faces,
    brute_minimal_covers,
    brute_minimal_non_faces,
    height,
    hvector_from_f,
    random_facets,
)

OCTA_FACETS = [
    frozenset(f)
    for f in [
        (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
    ]
]


def octahedron():
    return SimplicialComplex.from_faces(6, OCTA_FACETS)


def test_f_vector_examples():
    assert f_vector(octahedron()) == (1, 6, 12, 8)
    assert f_vector(SimplicialComplex.full_simplex(3)) == (1, 3, 3, 1)
    assert f_vector(SimplicialComplex(3, frozenset([frozenset()]))) == (1,)


def test_h_vector_examples():
    assert h_vector(octahedron()) == (1, 3, 3, 1)
    assert h_vector(SimplicialComplex.full_simplex(3)) == (1, 0, 0, 0)
    two_points = SimplicialComplex.from_faces(2, [frozenset({0}), frozenset({1})])
    assert h_vector(two_points) == (1, 1)


def test_h_vector_against_oracle():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 6))
        assert h_vector(cx) == hvector_from_f(f_vector(cx))


def test_faces_and_purity():
    cx = octahedron()
    assert cx.dim == 2
    faces = cx.faces()
    assert frozenset() in faces and len(faces) == 27
    assert faces == all_faces(cx.facets) | {frozenset()}


def test_faces_and_f_vector_against_oracle():
    rng = random.Random(29)
    cases = [
        (3, []),  # void
        (4, [frozenset()]),  # {∅}
        (5, [frozenset(range(5))]),  # full simplex
        (6, [frozenset({0, 2}), frozenset({2, 3})]),  # unused vertices 1, 4, 5
    ]
    for _ in range(2000):
        n = rng.randint(1, 8)
        # facets on part of the vertex set leave ambient vertices unused
        used = rng.randint(1, n)
        cases.append((n, random_facets(rng, used, 6)))
    for n, facets in cases:
        cx = SimplicialComplex.from_faces(n, facets)
        expected = all_faces(cx.facets)
        assert cx.faces() == expected
        if cx.is_void():
            with pytest.raises(InputError):
                f_vector(cx)
            continue
        counts = [0] * (cx.dim + 2)
        for face in expected:
            counts[len(face)] += 1
        assert f_vector(cx) == tuple(counts)


def test_link_and_cone():
    cx = octahedron()
    link = cx.link(frozenset({0}))
    # link of a vertex of the octahedron is a 4-cycle
    assert f_vector(link) == (1, 4, 4)
    with pytest.raises(InputError):
        cx.link(frozenset({0, 1}))


def test_minimal_non_faces_and_flag():
    cx = octahedron()
    assert set(minimal_non_faces(cx)) == {
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    }
    assert is_flag(cx)
    triangle_boundary = SimplicialComplex.from_faces(
        3, [frozenset(p) for p in combinations(range(3), 2)]
    )
    assert minimal_non_faces(triangle_boundary) == (frozenset({0, 1, 2}),)
    assert not is_flag(triangle_boundary)


def test_stanley_reisner_examples():
    triangle_boundary = SimplicialComplex.from_faces(
        3, [frozenset(p) for p in combinations(range(3), 2)]
    )
    assert stanley_reisner(triangle_boundary).generator_strings() == ["x1*x2*x3"]
    one_edge = independence_complex(3, [(0, 1)])
    assert stanley_reisner(one_edge).generator_strings() == ["x1*x2"]


def test_stanley_reisner_round_trip():
    cx = octahedron()
    ideal = stanley_reisner(cx)
    assert set(ideal.generator_strings()) == {"x1*x2", "x3*x4", "x5*x6"}
    assert complex_of_ideal(ideal).facets == cx.facets
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 7)
        cx = SimplicialComplex.from_faces(n, random_facets(rng, n, 6))
        back = complex_of_ideal(stanley_reisner(cx))
        assert back.facets == cx.facets and back.n_vertices == cx.n_vertices
    with pytest.raises(InputError):
        complex_of_ideal(MonomialIdeal.from_strings(2, ["x1^2"]))


def test_height_against_stanley_reisner_oracle():
    # the minimal primes of the Stanley-Reisner ideal are the facet
    # complements, so its height is read off a largest facet: n - dim - 1
    def agrees(cx):
        return height(stanley_reisner(cx)) == cx.n_vertices - cx.dim - 1

    for n in range(6):
        assert agrees(SimplicialComplex(n, frozenset([frozenset()])))
        assert agrees(SimplicialComplex.full_simplex(n))
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 8)
        # facets on the first few vertices only, so the rest go unused
        cx = SimplicialComplex.from_faces(n, random_facets(rng, rng.randint(1, n), 6))
        assert agrees(cx)
        edges = [pair for pair in combinations(range(n), 2) if rng.random() < 0.4]
        assert agrees(independence_complex(n, edges))


def test_independence_complexes():
    matching = independence_complex(6, [(0, 1), (2, 3), (4, 5)])
    assert matching.facets == octahedron().facets
    assert is_flag(matching)
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = [
            pair for pair in combinations(range(n), 2) if rng.random() < 0.4
        ]
        cx = independence_complex(n, edges)
        assert is_flag(cx)
        # faces are exactly the independent sets
        for face in cx.faces():
            assert not any(set(e) <= face for e in edges)
        if edges:
            everything = frozenset(range(n))
            assert cx.facets == {everything - c for c in brute_minimal_covers(edges)}
    with pytest.raises(InputError):
        independence_complex(3, [(0, 0)])


def test_independence_complex_of_a_large_star():
    star = independence_complex(1201, [(0, leaf) for leaf in range(1, 1201)])
    assert star.facets == {frozenset({0}), frozenset(range(1, 1201))}


def test_minimal_non_faces_against_brute_force():
    cases = [
        (0, [frozenset()]),
        (4, [frozenset()]),
        (4, [frozenset(range(4))]),
        (5, [frozenset({0, 1}), frozenset({1, 2})]),
        (3, []),
    ]
    rng = random.Random(37)
    for _ in range(2000):
        n = rng.randint(1, 8)
        used = rng.randint(1, n)  # vertices used..n-1 lie in no facet
        cases.append((n, random_facets(rng, used, 6)))
    for n, facets in cases:
        cx = SimplicialComplex.from_faces(n, facets)
        expected = brute_minimal_non_faces(n, cx.facets)
        assert minimal_non_faces(cx) == expected
        assert is_flag(cx) == all(len(m) == 2 for m in expected)


def test_check_balanced():
    assert check_balanced(octahedron(), (1, 1, 2, 2, 3, 3)) == (1, 1, 2, 2, 3, 3)
    assert check_balanced(SimplicialComplex.full_simplex(3), (1, 2, 3)) == (1, 2, 3)
    # improper: vertices 0,1 share color but {0,2,4} vs... use a facet pair
    assert check_balanced(octahedron(), (1, 1, 1, 2, 3, 3)) is None
    cycle = SimplicialComplex.from_faces(
        3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    )
    # odd cycle is 1-dimensional: 2 colors can never be proper
    for colors in product((1, 2), repeat=3):
        assert check_balanced(cycle, colors) is None


def test_void_and_empty():
    void = SimplicialComplex(3, frozenset())
    assert void.is_void()
    with pytest.raises(InputError):
        f_vector(void)
    empty = SimplicialComplex(4, frozenset([frozenset()]))
    assert empty.dim == -1
    assert minimal_non_faces(empty) == tuple(
        frozenset({v}) for v in range(4)
    )
    assert not is_flag(empty)

