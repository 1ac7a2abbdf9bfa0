import json
import random
from itertools import combinations

import pytest

from quadbalance import (
    GF,
    QQ,
    InputError,
    NotCohenMacaulayError,
    SimplicialComplex,
    balance,
    canonical_json,
    check_balanced,
    complex_of_ideal,
    construct_lex_plus_powers,
    f_vector,
    h_vector,
    independence_complex,
    is_cohen_macaulay,
    is_flag,
    polarize,
)

from quadbalance import reports
from quadbalance.hilbert import one_minus_t_power, poly_mul, poly_trim
from quadbalance.jsonio import complex_from_obj

OCTAHEDRON = SimplicialComplex.from_faces(
    6,
    [
        frozenset(f)
        for f in [
            (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        ]
    ],
)


def test_octahedron_golden():
    rep = balance(OCTAHEDRON)
    assert rep.h_source == (1, 3, 3, 1) and rep.g == 3
    assert set(rep.artinian.generator_strings()) == {"x1^2", "x2^2", "x3^2"}
    assert set(rep.polarized.generator_strings()) == {"x1*x2", "x3*x4", "x5*x6"}
    assert rep.classes == ((0, 1), (2, 3), (4, 5))
    assert rep.result.facets == OCTAHEDRON.facets
    assert f_vector(rep.result) == (1, 6, 12, 8)
    assert rep.coloring == (1, 1, 2, 2, 3, 3)
    assert rep.h_result == (1, 3, 3, 1)
    assert rep.cm_source.is_cm and rep.cm_result.is_cm
    assert rep.field_name == "Q"


def test_full_simplex_is_its_own_companion():
    simplex = SimplicialComplex.full_simplex(3)
    rep = balance(simplex)
    assert rep.h_source == (1, 0, 0, 0) and rep.g == 0
    assert rep.artinian.n == 0 and rep.artinian.generators == ()
    assert rep.classes == ()
    assert rep.result is simplex or rep.result.facets == simplex.facets
    assert rep.coloring == (1, 2, 3)
    assert rep.h_result == rep.h_source


def test_five_cycle_drops_a_dimension():
    # independence complex of the 5-cycle: CM of dim 1, companion has dim 2
    cx = independence_complex(5, [(i, (i + 1) % 5) for i in range(5)])
    rep = balance(cx)
    assert rep.h_source == (1, 3, 1) and rep.g == 3
    assert set(rep.artinian.generator_strings()) == {
        "x1^2", "x1*x2", "x1*x3", "x2^2", "x3^2",
    }
    assert set(rep.polarized.generator_strings()) == {
        "x1*x2", "x1*x3", "x1*x5", "x3*x4", "x5*x6",
    }
    assert rep.h_result == (1, 3, 1, 0)
    assert poly_trim(rep.h_source) == poly_trim(rep.h_result)
    assert rep.coloring == (1, 1, 2, 2, 3, 3)
    assert len(rep.result.facets) == 5
    assert rep.cm_result.is_cm


def test_rejects_non_flag_input():
    boundary = SimplicialComplex.from_faces(
        3, [frozenset(p) for p in combinations(range(3), 2)]
    )
    with pytest.raises(InputError, match=r"minimal non-face \{1, 2, 3\} has size 3"):
        balance(boundary)
    with pytest.raises(InputError):
        balance(SimplicialComplex(2, frozenset()))


def test_rejects_non_cm_input():
    two_edges = SimplicialComplex.from_faces(
        4, [frozenset({0, 1}), frozenset({2, 3})]
    )
    with pytest.raises(NotCohenMacaulayError) as err:
        balance(two_edges)
    assert "link of {}" in str(err.value)
    assert "rank 1 in degree 0 over Q" in str(err.value)
    assert err.value.witness == ((), 0, 1)


def test_field_matters():
    # RP^2 is CM over Q only; over GF(2) balance must refuse
    rp2 = SimplicialComplex.from_faces(
        6,
        [
            frozenset(v - 1 for v in f)
            for f in [
                (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
            ]
        ],
    )
    # not flag, so it is refused before any homology runs
    with pytest.raises(InputError):
        balance(rp2)
    path = independence_complex(4, [(0, 1), (1, 2), (2, 3)])
    rep = balance(path, field=GF(2))
    assert rep.field_name == "GF(2)"
    assert rep.cm_result.field_name == "GF(2)"


def test_every_graph_on_four_vertices():
    pairs = list(combinations(range(4), 2))
    seen_cm = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        cx = independence_complex(4, edges)
        try:
            rep = balance(cx)
        except NotCohenMacaulayError:
            assert not is_cohen_macaulay(cx).is_cm
            continue
        seen_cm += 1
        assert poly_trim(rep.h_source) == poly_trim(rep.h_result)
        assert check_balanced(rep.result, rep.coloring) == rep.coloring
        assert rep.cm_result.is_cm
        # the companion complex is balanced with one color per class
        if rep.g:
            assert len(set(rep.coloring)) == rep.g
            assert rep.result.n_vertices == 2 * rep.g
    assert seen_cm > 0


def test_idempotence_on_flag_companions():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 5)
        edges = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
        cx = independence_complex(n, edges)
        try:
            rep = balance(cx)
        except NotCohenMacaulayError:
            continue
        if not is_flag(rep.result):
            continue
        again = balance(rep.result)
        assert poly_trim(again.h_source) == poly_trim(rep.h_source)
        assert poly_trim(again.h_result) == poly_trim(rep.h_result)


def test_companion_can_leave_flag_territory():
    # target h = (1, 3, 3, 0) forces a cubic lex pick; the resulting companion
    # is balanced and Cohen-Macaulay but not flag, so feeding it back in is
    # refused rather than re-balanced
    numerator = poly_mul((1, 3, 3), one_minus_t_power(3))
    built = construct_lex_plus_powers(3, 3, numerator)
    assert built.g == 3 and built.series_equal
    assert set(built.ideal.generator_strings()) == {
        "x1^2", "x2^2", "x3^2", "x1*x2*x3",
    }
    polarized, classes = polarize(built.ideal)
    companion = complex_of_ideal(polarized)
    assert h_vector(companion) == (1, 3, 3, 0)
    assert not is_flag(companion)
    assert is_cohen_macaulay(companion).is_cm
    coloring = [0] * polarized.n
    for i, cls in enumerate(classes):
        for v in cls:
            coloring[v] = i + 1
    assert check_balanced(companion, tuple(coloring)) is not None
    with pytest.raises(InputError, match="not a flag complex"):
        balance(companion)


def whiskered(m, edges):
    """The independence complex of a graph on 0..m-1 with a pendant edge
    from each vertex i to m + i: a CM flag complex."""
    return independence_complex(2 * m, list(edges) + [(i, m + i) for i in range(m)])


def test_result_certificate_matches_the_link_test():
    # the result's certificate comes from the theorem, not from a test run:
    # it must be the very certificate the exhaustive link test gives, field
    # name and face count (empty face included) alike, over every field
    rng = random.Random(83)
    cases = []
    for m in range(2, 6):
        pairs = list(combinations(range(m), 2))
        for _ in range(3):
            cases.append(whiskered(m, [p for p in pairs if rng.random() < 0.5]))
    for k in range(1, 5):
        cases.append(independence_complex(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))
    random_cm = 0
    while random_cm < 25:
        n = rng.randint(1, 7)
        edges = [p for p in combinations(range(n), 2) if rng.random() < 0.45]
        cx = independence_complex(n, edges)
        if is_cohen_macaulay(cx, GF(3)).is_cm:
            cases.append(cx)
            random_cm += 1
    moved = 0
    for cx in cases:
        for field in (QQ, GF(2), GF(3)):
            rep = balance(cx, field)
            assert rep.cm_result == is_cohen_macaulay(rep.result, field), (cx, field.name)
            assert rep.cm_result.faces_checked == sum(f_vector(rep.result))
            moved += rep.cm_result != rep.cm_source
    # companions that drop a dimension change the face count, so the
    # source's certificate cannot stand in for the result's
    assert moved >= 10


def test_verify_settles_the_result_by_the_theorem(monkeypatch):
    # a genuine report's polarization check settles the result's
    # Cohen-Macaulayness, so verify runs the link test on the source alone;
    # the link test must pass every result it skips, counting every face
    rng = random.Random(29)
    cases = [independence_complex(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
             for k in range(1, 6)]
    for m in range(2, 7):
        pairs = list(combinations(range(m), 2))
        for _ in range(2):
            cases.append(whiskered(m, [p for p in pairs if rng.random() < 0.5]))
    tested = []

    def counting(cx, field):
        tested.append(cx)
        return is_cohen_macaulay(cx, field)

    monkeypatch.setattr(reports, "is_cohen_macaulay", counting)
    for cx in cases:
        for field in (QQ, GF(2), GF(3)):
            rep = json.loads(canonical_json(reports.balance_report(cx, field)))
            tested.clear()
            assert reports.verify_report(rep)["ok"] is True
            assert tested == [cx]
            result = complex_from_obj(rep["result"])
            cert = is_cohen_macaulay(result, field)
            assert cert.is_cm, (cx, field.name)
            assert cert.faces_checked == sum(f_vector(result))
