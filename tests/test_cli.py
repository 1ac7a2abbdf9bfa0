import contextlib
import copy
import io
import json
import sys
import time

import pytest

from quadbalance import (
    InputError,
    MonomialIdeal,
    canonical_json,
    complex_of_ideal,
    egh_for_quadratic,
    f_vector,
    find_regular_sequence,
    polarize,
)
from quadbalance import cli, hilbert, homology, monomials, regseq, reports, simplicial
from quadbalance.cli import main
from quadbalance.jsonio import (
    MAX_VARIABLES,
    complex_from_obj,
    complex_to_obj,
    ideal_from_obj,
    ideal_to_obj,
    load_input_obj,
)

OCTA_OBJ = {
    "vertices": 6,
    "facets": [
        [1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 5], [2, 4, 6],
    ],
}
TRIANGLE_OBJ = {"n": 3, "generators": ["x1*x2", "x1*x3", "x2*x3"]}
PATH_OBJ = {"vertices": 4, "facets": [[1, 2], [2, 3], [3, 4]]}


@pytest.fixture
def run(capsys, tmp_path):
    counter = [0]

    def _run(*argv, data=None):
        argv = list(argv)
        if data is not None:
            counter[0] += 1
            path = tmp_path / f"input{counter[0]}.json"
            path.write_text(json.dumps(data))
            argv.append(str(path))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def parse(out: str) -> dict:
    return json.loads(out)


def test_analyze_octahedron(run):
    code, out, err = run("analyze", data=OCTA_OBJ)
    assert code == 0 and err == ""
    rep = parse(out)
    assert rep["kind"] == "analyze" and rep["field"] == "q"
    assert rep["f_vector"] == [1, 6, 12, 8]
    assert rep["h_vector"] == [1, 3, 3, 1]
    assert rep["height"] == 3 and rep["dim"] == 2
    assert rep["flag"] is True and rep["cm"] is True
    assert rep["faces_checked"] == 27 and rep["cm_witness"] is None
    # stdout is the canonical encoding
    assert out == canonical_json(rep) + "\n"


def test_analyze_accepts_squarefree_ideal(run):
    code, out, _ = run("analyze", data=TRIANGLE_OBJ)
    assert code == 0
    rep = parse(out)
    assert rep["complex"]["facets"] == [[1], [2], [3]]
    assert rep["h_vector"] == [1, 2] and rep["cm"] is True


def test_analyze_graph_input(run):
    code, out, _ = run(
        "analyze", data={"vertices": 6, "edges": [[1, 2], [3, 4], [5, 6]]}
    )
    assert code == 0
    rep = parse(out)
    assert rep["f_vector"] == [1, 6, 12, 8] and rep["flag"] is True


def test_analyze_ideal_of_all_variables(run):
    # every listing here is as deep as the number of variables
    data = {"n": 1000, "generators": [f"x{i}" for i in range(1, 1001)]}
    code, out, err = run("analyze", data=data)
    assert code == 0 and err == ""
    rep = parse(out)
    assert rep["height"] == 1000 and rep["complex"]["facets"] == [[]]
    assert rep["flag"] is False and rep["cm"] is True
    assert rep["faces_checked"] == 1


def test_analyze_rejects_non_squarefree_ideal(run):
    code, _, err = run("analyze", data={"n": 2, "generators": ["x1^2"]})
    assert code == 2 and "squarefree" in err


def test_analyze_reports_cm_failure_without_failing(run):
    data = {"vertices": 4, "facets": [[1, 2], [3, 4]]}
    code, out, _ = run("analyze", data=data)
    assert code == 0
    rep = parse(out)
    assert rep["cm"] is False
    assert rep["cm_witness"] == {"face": [], "degree": 0, "betti": 1}


def test_regseq_triangle_frozen(run):
    code, out, err = run("regseq", "--seed", "0", data=TRIANGLE_OBJ)
    assert code == 0 and err == ""
    rep = parse(out)
    assert rep["kind"] == "regseq" and rep["seed"] == 0
    assert rep["prime"] == [1, 2] and rep["attempts"] == 1
    assert rep["subsets_checked"] == 4
    assert rep["forms"] == [
        {"coefficients": {"x2": 25, "x3": 27}, "times_variable": 1},
        {"coefficients": {"x3": 1}, "times_variable": 2},
    ]


def test_regseq_deterministic_bytes(run):
    first = run("regseq", data=TRIANGLE_OBJ)
    second = run("regseq", data=TRIANGLE_OBJ)
    assert first == second and first[0] == 0


def test_regseq_on_complex_input(run):
    code, out, _ = run("regseq", data=OCTA_OBJ)
    assert code == 0
    rep = parse(out)
    assert rep["prime"] == [1, 3, 5]
    assert rep["forms"] == [
        {"coefficients": {"x2": 1}, "times_variable": 1},
        {"coefficients": {"x4": 1}, "times_variable": 3},
        {"coefficients": {"x6": 1}, "times_variable": 5},
    ]


def test_regseq_small_field_exhaustion(run):
    # mod 3 every sampled and structured choice of forms is dependent,
    # while a larger prime and the rationals succeed
    data = {
        "n": 4,
        "generators": ["x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3", "x3*x4", "x4^2"],
    }
    code, out, err = run("regseq", "--field", "p:3", data=data)
    assert code == 1 and out == ""
    assert err.startswith("failed: ") and "over GF(3)" in err
    assert "a larger prime or q may succeed" in err and "genuine" not in err
    for field in ("p:5", "q"):
        code, _, _ = run("regseq", "--field", field, data=data)
        assert code == 0


def test_regseq_fallback_exhaustion(run, monkeypatch):
    # with every sampled coefficient 1, mod 2 the samples and the whole
    # structured family are dependent on this ideal
    monkeypatch.setattr(regseq, "default_coefficient_range", lambda g: 1)
    data = {"n": 4, "generators": ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]}
    code, out, err = run("regseq", "--field", "p:2", data=data)
    assert code == 1 and out == ""
    assert err.startswith("failed: sampling and the structured fallback were exhausted over GF(2)")


def test_regseq_prime_override(run):
    code, out, _ = run("regseq", "--prime", "2,3", data=TRIANGLE_OBJ)
    assert code == 0 and parse(out)["prime"] == [2, 3]
    code, _, err = run("regseq", "--prime", "1", data=TRIANGLE_OBJ)
    assert code == 2 and "not a minimal prime" in err
    code, _, err = run("regseq", "--prime", "1,9", data=TRIANGLE_OBJ)
    assert code == 2 and "out of range" in err
    code, _, err = run("regseq", "--prime", "a,b", data=TRIANGLE_OBJ)
    assert code == 2 and "comma-separated" in err


def _matching(k):
    return [f"x{2 * i + 1}*x{2 * i + 2}" for i in range(k)]


def test_regseq_large_height_fails_fast(run):
    # the height is found without listing the 2^k minimal primes, so the
    # hard cap on g and a bad --prime are reported at once
    start = time.perf_counter()
    code, out, err = run("regseq", data={"n": 42, "generators": _matching(21)})
    assert code == 3 and out == "" and "hard cap g <= 20" in err
    assert time.perf_counter() - start < 1
    # 18 disjoint edges and the path x37-x38-x39: height 19, and the
    # minimal primes with x37 and x39 have size 20
    data = {"n": 39, "generators": _matching(18) + ["x37*x38", "x38*x39"]}
    odd = ",".join(str(2 * i + 1) for i in range(18))
    for prime, message in (
        (odd + ",2,38", "not a minimal prime"),
        (odd + ",37,39", "the supplied prime has size 20, but the height is 19"),
    ):
        start = time.perf_counter()
        code, out, err = run("regseq", "--prime", prime, data=data)
        assert code == 2 and out == "" and message in err, err
        assert time.perf_counter() - start < 1


def test_regseq_refuses_a_height_above_the_cap_without_finding_it(run):
    # 20 disjoint edges plus K40 on x41..x80 have height 20 + 39; the
    # packing bound alone exceeds the cap, so no transversal is searched
    k40 = [f"x{a}*x{b}" for a in range(41, 81) for b in range(a + 1, 81)]
    start = time.perf_counter()
    code, out, err = run("regseq", data={"n": 80, "generators": _matching(20) + k40})
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "budget exceeded: the height exceeds the hard cap g <= 20\n"


def test_verify_keeps_the_cap_on_a_forged_large_report(run, tmp_path):
    # a 21-edge matching with one-variable forms would peel, so the cap on
    # g must be checked before any certificate is tried
    report = {
        "kind": "regseq",
        "field": "q",
        "ideal": {"n": 42, "generators": _matching(21)},
        "seed": 0,
        "prime": [2 * i + 1 for i in range(21)],
        "forms": [
            {"times_variable": 2 * i + 1, "coefficients": {f"x{2 * i + 2}": 1}}
            for i in range(21)
        ],
        "subsets_checked": 1 << 21,
        "attempts": 1,
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, out, _ = run("verify", str(path))
    assert code == 1
    verdict = parse(out)
    assert verdict["ok"] is False
    cap = "2^21 subsets exceed the hard cap g <= 20"
    assert verdict["failures"] == [
        {"check": "height", "detail": "the height exceeds the hard cap g <= 20"},
        {"check": "ranks", "detail": cap},
        {"check": "reproduction", "detail": cap},
    ]


def _edges_and_k40():
    # 20 disjoint edges plus K40 on x41..x80: height 20 + 39, and the
    # minimal prime (x1, x3, ..., x39, x41, ..., x79) has size 59
    k40 = [f"x{a}*x{b}" for a in range(41, 81) for b in range(a + 1, 81)]
    prime = [2 * i + 1 for i in range(20)] + list(range(41, 80))
    return {"n": 80, "generators": _matching(20) + k40}, prime


def test_regseq_prime_above_the_cap_stops_at_the_cap(run):
    # --prime needs only "height > 20" too, never the exact height 59
    data, prime = _edges_and_k40()
    start = time.perf_counter()
    code, out, err = run("regseq", "--prime", ",".join(map(str, prime)), data=data)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "budget exceeded: 2^59 subsets exceed the hard cap g <= 20\n"
    # 20 edges and a path on x41..x45: height 22 < |P| = 23 is refused at
    # the cap too (exit 3), without the exact height an exit 2 would name
    data = {"n": 45, "generators": _matching(20) + ["x41*x42", "x42*x43", "x43*x44", "x44*x45"]}
    prime = ",".join(map(str, [2 * i + 1 for i in range(20)] + [41, 43, 45]))
    code, out, err = run("regseq", "--prime", prime, data=data)
    assert (code, out) == (3, "")
    assert err == "budget exceeded: 2^23 subsets exceed the hard cap g <= 20\n"


def test_verify_forged_report_above_the_cap_stops_at_the_cap(run, tmp_path):
    data, prime = _edges_and_k40()
    # x_p*x_{p+1} on the edges and x_p*x80 in K40: every product is in I
    forms = [{"times_variable": p, "coefficients": {f"x{p + 1}": 1}} for p in prime[:20]]
    forms += [{"times_variable": p, "coefficients": {"x80": 1}} for p in prime[20:]]
    report = {
        "kind": "regseq", "field": "q", "ideal": data, "seed": 0, "prime": prime,
        "forms": forms, "subsets_checked": 1 << 59, "attempts": 1,
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    start = time.perf_counter()
    code, out, _ = run("verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    verdict = parse(out)
    cap = "2^59 subsets exceed the hard cap g <= 20"
    assert verdict["checks_run"] == ["height", "minimal_prime", "membership", "ranks", "reproduction"]
    assert verdict["failures"] == [
        {"check": "height", "detail": "the height exceeds the hard cap g <= 20"},
        {"check": "ranks", "detail": cap},
        {"check": "reproduction", "detail": cap},
    ]


def test_verify_forged_regseq_over_the_zero_ideal(run, tmp_path):
    # the zero ideal has height 0, so an empty prime passes the height
    # check; the other checks refuse the ideal itself
    report = {
        "kind": "regseq", "field": "q", "ideal": {"n": 3, "generators": []}, "seed": 0,
        "prime": [], "forms": [], "subsets_checked": 1, "attempts": 1,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(report))
    assert run("verify", str(path)) == (
        1,
        '{"checks_run":["height","minimal_prime","membership","ranks","reproduction"],'
        '"failures":[{"check":"minimal_prime",'
        '"detail":"the zero ideal has no associated support hypergraph"},'
        '{"check":"reproduction",'
        '"detail":"the zero ideal contains no regular sequence of products"}],'
        '"kind":"verify","ok":false,"target_kind":"regseq"}\n',
        "",
    )


def test_regseq_family_at_the_cap_round_trips(run, tmp_path):
    # I = (x_i^2, x_i*x_j : i <= 20, j in three extra variables) peels
    # through its squares, so search and verify skip the 2^20 sweep
    gens = [f"x{i}^2" for i in range(1, 21)]
    gens += [f"x{i}*x{j}" for i in range(1, 21) for j in (21, 22, 23)]
    report = tmp_path / "family20.json"
    code, _, err = run("regseq", "--out", str(report), data={"n": 23, "generators": gens})
    assert code == 0, err
    assert parse(report.read_text())["subsets_checked"] == 1 << 20
    code, out, err = run("verify", str(report))
    assert code == 0 and parse(out)["ok"] is True, err


def _path(n):
    return {"n": n, "generators": [f"x{i}*x{i + 1}" for i in range(1, n)]}


@pytest.mark.parametrize("options", [(), ("--max-degree", "2")])
def test_egh_refuses_an_over_budget_source_before_the_walk(run, options):
    # P18 polarizes to support 18, 20 edges plus K40 to 80: both exceed the
    # default budget 16, and their walks run for minutes.  pd_source's
    # refusal comes first, so P18 under --max-degree 2 exits 3, not with
    # the walk's "no powers-plus-lex ideal matched" (exit 1)
    for data, support in ((_path(18), 18), (_edges_and_k40()[0], 80)):
        start = time.perf_counter()
        code, out, err = run("egh", *options, data=data)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            f"budget exceeded: support of size {support} exceeds the "
            "subset-enumeration budget 16\n"
        )


def test_verify_of_an_egh_report_over_its_budget_fails_reproduction(run, tmp_path):
    # the 9-variable path plus squares polarizes to support 18: egh needs
    # a budget of 18, and verify at the default budget fails its reproduction
    # check (exit 1), since only the rebuilt report needs pd_source
    data = _path(9)
    data["generators"] += [f"x{i}^2" for i in range(1, 10)]
    path = tmp_path / "report.json"
    code, _, err = run("egh", "--budget", "20", "--out", str(path), data=data)
    assert code == 0, err
    detail = "support of size 18 exceeds the subset-enumeration budget 16"
    assert run("verify", str(path)) == (
        1,
        '{"checks_run":["height","squares","series","reproduction"],'
        f'"failures":[{{"check":"reproduction","detail":"{detail}"}}],'
        '"kind":"verify","ok":false,"target_kind":"egh"}\n',
        "",
    )
    assert run("verify", "--budget", "18", str(path))[0] == 0


def test_egh_triangle(run):
    code, out, _ = run("egh", data=TRIANGLE_OBJ)
    assert code == 0
    rep = parse(out)
    assert rep["kind"] == "egh" and rep["powers"] == 2
    assert rep["generators"] == ["x1^2", "x1*x2", "x2^2"]
    assert rep["series_equal"] is True
    assert rep["picked_by_degree"] == {"2": 1}
    assert rep["pd_source"] == 2 and rep["pd_result"] == 2


def test_balance_octahedron(run):
    code, out, _ = run("balance", data=OCTA_OBJ)
    assert code == 0
    rep = parse(out)
    assert rep["h_source"] == [1, 3, 3, 1] and rep["g"] == 3
    assert rep["artinian_ideal"] == {"n": 3, "generators": ["x1^2", "x2^2", "x3^2"]}
    assert rep["polarized_ideal"]["generators"] == ["x1*x2", "x3*x4", "x5*x6"]
    assert rep["classes"] == [[1, 2], [3, 4], [5, 6]]
    assert rep["coloring"] == [1, 1, 2, 2, 3, 3]
    assert rep["result"]["facets"] == OCTA_OBJ["facets"]
    assert rep["h_result"] == [1, 3, 3, 1]
    assert rep["cm_source"]["cm"] is True and rep["cm_result"]["cm"] is True


def test_balance_non_cm_is_verified_negative(run):
    code, _, err = run("balance", data={"vertices": 4, "facets": [[1, 2], [3, 4]]})
    assert code == 1
    assert err.startswith("negative:") and "link of {}" in err


def test_balance_non_flag_is_input_error(run):
    code, _, err = run(
        "balance", data={"vertices": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
    )
    assert code == 2
    assert "minimal non-face {1, 2, 3} has size 3" in err


def test_verify_round_trips(run, tmp_path):
    cases = [
        ("analyze", OCTA_OBJ, ()),
        ("regseq", TRIANGLE_OBJ, ("--seed", "3")),
        ("egh", TRIANGLE_OBJ, ()),
        ("balance", OCTA_OBJ, ()),
    ]
    for command, data, extra in cases:
        code, out, _ = run(command, *extra, data=data)
        assert code == 0
        report_path = tmp_path / f"report-{command}.json"
        report_path.write_text(out)
        code, vout, verr = run("verify", str(report_path))
        assert code == 0, (command, verr)
        verdict = parse(vout)
        assert verdict["ok"] is True and verdict["failures"] == []
        assert verdict["target_kind"] == command
        assert len(verdict["checks_run"]) >= 1


def tampered(out: str, mutate) -> dict:
    rep = json.loads(out)
    mutate(rep)
    return rep


def test_verify_catches_coefficient_tamper(run, tmp_path):
    _, out, _ = run("regseq", data=TRIANGLE_OBJ)

    def bump(rep):
        rep["forms"][0]["coefficients"]["x2"] += 1

    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered(out, bump)))
    code, vout, _ = run("verify", str(path))
    assert code == 1
    verdict = parse(vout)
    assert verdict["ok"] is False
    failing = {f["check"] for f in verdict["failures"]}
    assert "reproduction" in failing
    detail = next(f["detail"] for f in verdict["failures"] if f["check"] == "reproduction")
    assert "forms" in detail


def test_verify_catches_rank_breaking_tamper(run, tmp_path):
    _, out, _ = run("regseq", data=TRIANGLE_OBJ)

    def collapse(rep):
        rep["forms"][0]["coefficients"] = {"x3": 1}

    path = tmp_path / "collapsed.json"
    path.write_text(json.dumps(tampered(out, collapse)))
    code, vout, _ = run("verify", str(path))
    assert code == 1
    verdict = parse(vout)
    ranks = next(f for f in verdict["failures"] if f["check"] == "ranks")
    assert "rank deficient at subset A = []" in ranks["detail"]


def test_verify_catches_reseeded_report(run, tmp_path):
    _, out, _ = run("regseq", data=TRIANGLE_OBJ)
    path = tmp_path / "reseeded.json"
    path.write_text(json.dumps(tampered(out, lambda rep: rep.update(seed=1))))
    code, vout, _ = run("verify", str(path))
    assert code == 1
    failing = {f["check"] for f in parse(vout)["failures"]}
    assert failing == {"reproduction"}


def test_verify_catches_series_tamper(run, tmp_path):
    _, out, _ = run("egh", data=TRIANGLE_OBJ)

    def swap(rep):
        rep["generators"] = ["x1^2", "x1*x3", "x2^2"]

    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(tampered(out, swap)))
    code, vout, _ = run("verify", str(path))
    assert code == 1
    failing = {f["check"] for f in parse(vout)["failures"]}
    assert "series" in failing


def _verify_egh_tampered(run, tmp_path, monkeypatch, mutate):
    # the source is (x1*x2, x1*x3); the series check reads a stated list
    # off the stable-ideal formula, so the pivot recursion, whose work grows
    # with a stated degree, sees the source's generators only
    def source_only(gens):
        assert set(gens) == {(1, 1, 0), (1, 0, 1)}, "a stated list reached the recursion"
        return numerator(gens)

    numerator = hilbert._numerator
    monkeypatch.setattr(hilbert, "_numerator", source_only)
    _, out, _ = run("egh", data={"n": 3, "generators": ["x1*x2", "x1*x3"]})
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered(out, mutate)))
    start = time.perf_counter()
    code, vout, verr = run("verify", str(path))
    assert time.perf_counter() - start < 1
    assert verr == ""
    return code, {f["check"]: f["detail"] for f in parse(vout)["failures"]}


_NOT_STABLE = (
    "the result is not the minimal generating set of a stable ideal containing the squares; "
    "series not rechecked"
)


def test_verify_deep_appended_generators(run, tmp_path, monkeypatch):
    # x2^2*x3^99999 moves to x2^3*x3^99998, which no listed ascending prefix
    # divides: the list is not stable, so the formula does not apply
    def append(rep):
        rep["generators"] += ["x2*x3^100000", "x2^2*x3^99999"]

    code, failures = _verify_egh_tampered(run, tmp_path, monkeypatch, append)
    assert code == 1
    assert failures["series"] == _NOT_STABLE


def test_verify_deep_generator_without_squares(run, tmp_path, monkeypatch):
    # without x1^2 the formula does not apply: the check fails without
    # claiming the series differ, and without recomputing them
    def swap(rep):
        rep["generators"] = ["x1*x2", "x2*x3^100000"]

    code, failures = _verify_egh_tampered(run, tmp_path, monkeypatch, swap)
    assert code == 1
    assert failures["squares"] == "x1^2 is not in the result"
    assert failures["series"] == _NOT_STABLE


def test_verify_redundant_deep_generator_keeps_series(run, tmp_path, monkeypatch):
    # x1^2*x3^100000 lies in (x1^2), so the formula drops it: the series
    # check passes and reproduction fails
    def append(rep):
        rep["generators"].append("x1^2*x3^100000")

    code, failures = _verify_egh_tampered(run, tmp_path, monkeypatch, append)
    assert code == 1
    assert set(failures) == {"reproduction"}


def test_verify_max_degree_below_companion_fails_series(run, tmp_path):
    # a cap below the companion's top degree forbids rebuilding it, and the
    # series check reports the failed rebuild
    _, out, _ = run("egh", data={"n": 3, "generators": ["x1*x2", "x2*x3"]})
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run("verify", str(path), "--max-degree", "2")[0] == 0
    code, vout, _ = run("verify", str(path), "--max-degree", "1")
    assert code == 1
    detail = "no powers-plus-lex ideal matched the series within degree 1"
    assert parse(vout)["failures"] == [
        {"check": "series", "detail": detail},
        {"check": "reproduction", "detail": detail},
    ]


def test_verify_builds_the_companion_once(run, tmp_path, monkeypatch):
    # the build runs once, before the checks; when it fails under
    # --max-degree, series and reproduction report its message where they
    # need the result
    _, out, _ = run("egh", data=TRIANGLE_OBJ)
    path = tmp_path / "report.json"
    path.write_text(out)
    calls = []
    build = reports.egh_for_quadratic

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(reports, "egh_for_quadratic", counting)
    code, vout, verr = run("verify", str(path), "--max-degree", "1")
    assert len(calls) == 1
    detail = "no powers-plus-lex ideal matched the series within degree 1"
    assert (code, verr) == (1, "")
    assert vout == (
        '{"checks_run":["height","squares","series","reproduction"],"failures":['
        f'{{"check":"series","detail":"{detail}"}},'
        f'{{"check":"reproduction","detail":"{detail}"}}],'
        '"kind":"verify","ok":false,"target_kind":"egh"}\n'
    )
    calls.clear()
    assert run("verify", str(path))[0] == 0
    assert len(calls) == 1


# the companion of the bench's above_cap ideal has 17494 generators and top
# degree 2203
ABOVE_CAP_OBJ = {
    "n": 8,
    "generators": ["x1*x4", "x1*x7", "x3*x6", "x4*x5", "x4*x6", "x5*x8", "x6*x7"],
}


def test_verify_tests_only_deep_generators_against_the_list(run, tmp_path, monkeypatch):
    # 2500 shallow generators and one deep generator that x1^2 divides: the
    # formula tests the deep one against the listed squares and drops it,
    # and no step minimalizes the stated list
    _, out, _ = run("egh", data=ABOVE_CAP_OBJ)
    rep = json.loads(out)
    rep["generators"] = rep["generators"][:2500] + ["x1^2*x8^100000"]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(rep))
    sizes = []

    def counting(exponents):
        exponents = list(exponents)
        sizes.append(len(exponents))
        return minimalize(exponents)

    minimalize = monomials._minimalize
    for module in (monomials, hilbert, reports):
        monkeypatch.setattr(module, "_minimalize", counting, raising=False)
    code, vout, _ = run("verify", str(path))
    assert code == 1
    assert parse(vout)["failures"] == [
        {"check": "series", "detail": "Hilbert series of source and result differ"},
        {"check": "reproduction", "detail": "re-derivation differs in: generators"},
    ]
    # only the source ideal is minimalized
    assert max(sizes) == len(ABOVE_CAP_OBJ["generators"])


def test_verify_egh_stops_a_rebuild_the_stated_list_cannot_match(run, tmp_path):
    # the companion of P10, the edge ideal of the 10-vertex path, is too
    # large to build; a report listing only its five squares stops the
    # rebuild once its picks pass the floor of 2^18 exponent entries over
    # n = 10 variables, far beyond the five stated generators
    p10 = {"n": 10, "generators": [f"x{i}*x{i + 1}" for i in range(1, 10)]}
    rep = {
        "kind": "egh", "field": "q", "ideal": p10, "powers": 5,
        "generators": [f"x{i}^2" for i in range(1, 6)], "series_equal": True,
        "picked_by_degree": {}, "pd_source": None, "pd_result": None,
    }
    path = tmp_path / "p10.json"
    path.write_text(json.dumps(rep))
    start = time.perf_counter()
    code, vout, verr = run("verify", str(path))
    assert time.perf_counter() - start < 1
    detail = "the companion has more than 26214 generators: its picks pass that count in degree 37"
    failure = f'"detail":"{detail}"}}'
    assert (code, verr) == (1, "")
    assert vout == _egh_verdict('{"check":"series",' + failure,
                                '{"check":"reproduction",' + failure)


def test_verify_parses_only_the_source_of_a_genuine_report(run, tmp_path, monkeypatch):
    # the stated list equals the rebuilt companion's strings, so only the
    # source ideal's echo goes through the parser
    _, out, _ = run("egh", data=EGH_SOURCE_OBJ)
    path = tmp_path / "report.json"
    path.write_text(out)
    parsed = []

    def counting(text, n):
        parsed.append(text)
        return parse_monomial(text, n)

    parse_monomial = monomials.parse_monomial
    monkeypatch.setattr(monomials, "parse_monomial", counting)
    monkeypatch.setattr(reports, "parse_monomial", counting)
    code, vout, _ = run("verify", str(path))
    assert code == 0 and parse(vout)["ok"] is True
    assert parsed == EGH_SOURCE_OBJ["generators"]


# companion x1^2, x1*x2, x1*x3^2, x2^2: mixed degrees, so a dropped, doubled
# or moved generator changes what the checks see
EGH_SOURCE_OBJ = {"n": 5, "generators": ["x1*x2", "x1*x3", "x4*x5"]}
_EGH_CHECKS = '"checks_run":["height","squares","series","reproduction"]'
_REDERIVED = '{"check":"reproduction","detail":"re-derivation differs in: generators"}'
_SERIES = '{"check":"series","detail":"Hilbert series of source and result differ"}'


def _egh_verdict(*failures: str) -> str:
    return (
        f'{{{_EGH_CHECKS},"failures":[{",".join(failures)}],'
        '"kind":"verify","ok":false,"target_kind":"egh"}\n'
    )


def _stated(*generators):
    return lambda rep: rep.update(generators=list(generators))


def _non_quadratic_source(*generators):
    def mutate(rep):
        rep["ideal"] = {"n": 5, "generators": ["x1^3", "x2*x3"]}
        rep["generators"] = list(generators)

    return mutate


@pytest.mark.parametrize(
    "mutate, code, verdict, error",
    [
        pytest.param(
            _stated("x1^2", "x2*x1", "x1*x3^2", "x2^2"), 1, _egh_verdict(_REDERIVED), "",
            id="respelled-factor-order",
        ),
        pytest.param(
            _stated("x1^2", "x1^1*x2", "x1*x3^2", "x2^2"), 1, _egh_verdict(_REDERIVED), "",
            id="respelled-exponent-one",
        ),
        pytest.param(
            _stated("x1^2", " x1*x2 ", "x1*x3^2", "x2^2"), 1, _egh_verdict(_REDERIVED), "",
            id="respelled-padded",
        ),
        pytest.param(
            _stated("x1^2", "x1*x2", "x2^2"), 1, _egh_verdict(_SERIES, _REDERIVED), "",
            id="dropped",
        ),
        pytest.param(
            _stated("x1^2", "x1*x2", "x1*x3^2"),
            1,
            _egh_verdict(
                '{"check":"squares","detail":"x2^2 is not in the result"}',
                '{"check":"series","detail":"' + _NOT_STABLE + '"}',
                _REDERIVED,
            ),
            "",
            id="dropped-square",
        ),
        pytest.param(
            _stated("x1^2", "x1*x2", "x1*x2", "x1*x3^2", "x2^2"),
            1,
            _egh_verdict(_REDERIVED),
            "",
            id="duplicated",
        ),
        pytest.param(
            _stated("x1*x2", "x1^2", "x1*x3^2", "x2^2"), 1, _egh_verdict(_REDERIVED), "",
            id="swapped",
        ),
        pytest.param(
            _stated("x1^2", 5, "x1*x3^2", "x2^2"),
            2,
            "",
            "error: a monomial must be a string, got int\n",
            id="non-string",
        ),
        pytest.param(
            _stated("x1^2", "x1*y2", "x1*x3^2", "x2^2"),
            2,
            "",
            "error: bad monomial factor 'y2' at position 3 in 'x1*y2'\n",
            id="malformed",
        ),
        # the parse still runs before the quadratic refusal
        pytest.param(
            _non_quadratic_source("x1^2", "x1*y2", "x1*x3^2", "x2^2"),
            2,
            "",
            "error: bad monomial factor 'y2' at position 3 in 'x1*y2'\n",
            id="malformed-non-quadratic-source",
        ),
    ],
)
def test_verify_egh_list_unlike_the_companion(run, tmp_path, mutate, code, verdict, error):
    # a stated list that differs from the rebuilt strings is parsed and
    # checked in full: same exit code and verdict bytes as a list that
    # was never compared
    _, out, _ = run("egh", data=EGH_SOURCE_OBJ)
    assert parse(out)["generators"] == ["x1^2", "x1*x2", "x1*x3^2", "x2^2"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered(out, mutate)))
    assert run("verify", str(path)) == (code, verdict, error)


def test_verify_catches_recolored_balance(run, tmp_path):
    # a permuted coloring is still proper; only reproduction can catch it
    _, out, _ = run("balance", data=OCTA_OBJ)

    def recolor(rep):
        rep["coloring"] = [2, 2, 1, 1, 3, 3]

    path = tmp_path / "recolored.json"
    path.write_text(json.dumps(tampered(out, recolor)))
    code, vout, _ = run("verify", str(path))
    assert code == 1
    verdict = parse(vout)
    failing = {f["check"] for f in verdict["failures"]}
    assert failing == {"reproduction"}
    detail = verdict["failures"][0]["detail"]
    assert "coloring" in detail


C5_OBJ = {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]}


@pytest.fixture
def cm_tests(monkeypatch):
    """The complexes whose Cohen-Macaulay certificate is computed, not read
    from the complex's memo, in order."""
    tested = []
    original = homology._certify

    def counting(cx, field):
        tested.append(cx)
        return original(cx, field)

    monkeypatch.setattr(homology, "_certify", counting)
    return tested


@pytest.mark.parametrize("data", [OCTA_OBJ, C5_OBJ], ids=["octahedron", "c5"])
def test_verify_balance_tests_each_complex_once(run, tmp_path, cm_tests, data):
    _, out, _ = run("balance", data=data)
    rep = parse(out)
    complexes = {complex_from_obj(rep[key]) for key in ("complex", "result")}
    cm_tests.clear()
    path = tmp_path / "report.json"
    path.write_text(out)
    code, vout, _ = run("verify", str(path))
    assert code == 0 and parse(vout)["ok"] is True
    # the cm_source check and the reproduction share the source's one test;
    # the passing polarization check settles the result without one
    assert cm_tests == [complex_from_obj(rep["complex"])]
    assert len(complexes) == (1 if data is OCTA_OBJ else 2)


def test_verify_balance_lists_the_source_non_faces_once(run, tmp_path, monkeypatch):
    _, out, _ = run("balance", data=PATH_OBJ)
    path = tmp_path / "report.json"
    path.write_text(out)
    listed = []
    enumerate_transversals = simplicial._minimal_transversals

    def counting(supports):
        listed.append(supports)
        return enumerate_transversals(supports)

    monkeypatch.setattr(simplicial, "_minimal_transversals", counting)
    code, vout, _ = run("verify", str(path))
    assert code == 0 and parse(vout)["ok"] is True
    # the flag check and the reproduction's balance share one listing
    assert len(listed) == 1


def test_verify_balance_tests_a_replaced_result(run, tmp_path, cm_tests):
    _, out, _ = run("balance", data=C5_OBJ)
    two_edges = {"vertices": 6, "facets": [[1, 2], [3, 4]]}
    path = tmp_path / "replaced.json"
    path.write_text(json.dumps(tampered(out, _set("result", two_edges))))
    cm_tests.clear()
    code, vout, _ = run("verify", str(path))
    assert code == 1
    failures = parse(vout)["failures"]
    detail = "result complex is not Cohen-Macaulay over the stated field"
    assert {"check": "cm_result", "detail": detail} in failures
    # the stated result is tested itself; the reproduction tests only the
    # source, which the cm_source check already did
    assert complex_from_obj(two_edges) in cm_tests and len(cm_tests) == 2


@pytest.mark.parametrize("data", [OCTA_OBJ, C5_OBJ], ids=["octahedron", "c5"])
def test_balance_tests_only_its_source(run, cm_tests, data):
    # the result is Cohen-Macaulay by construction: its certificate counts
    # every face, with no link test run on it
    code, out, _ = run("balance", data=data)
    assert code == 0
    rep = parse(out)
    assert cm_tests == [complex_from_obj(rep["complex"])]
    faces = sum(f_vector(complex_from_obj(rep["result"])))
    assert rep["cm_result"] == {"cm": True, "faces_checked": faces}


def test_balance_max_degree_below_companion_names_the_cap(run):
    # C5 is CM; its companion needs degree-2 picks, so a cap of 1 stops
    # the lex walk, which says nothing about the input
    code, out, err = run("balance", "--max-degree", "1", data=C5_OBJ)
    assert code == 1 and out == ""
    assert err == (
        "negative: no powers-plus-lex quotient matched the h-vector (1, 3, 1) "
        "within degree 1\n"
    )
    assert "Cohen-Macaulay" not in err
    assert run("balance", "--max-degree", "2", data=C5_OBJ)[0] == 0


def test_verify_balance_rejects_forged_cm_flag(run, tmp_path, cm_tests):
    _, out, _ = run("balance", data=C5_OBJ)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(tampered(out, lambda rep: rep["cm_source"].update(cm=False))))
    cm_tests.clear()
    code, vout, _ = run("verify", str(path))
    assert code == 1
    detail = "input complex is not Cohen-Macaulay over the stated field"
    assert parse(vout)["failures"] == [
        {"check": "cm_source", "detail": detail},
        {"check": "reproduction", "detail": "re-derivation differs in: cm_source"},
    ]
    # the source alone: the polarization check settles the result
    assert len(cm_tests) == 1


def _with_artinian(art_obj):
    """Replace the report's Artinian ideal, keeping the polarized ideal, the
    classes and the result consistent with it."""

    def mutate(rep):
        polarized, classes = polarize(ideal_from_obj(art_obj))
        rep["artinian_ideal"] = art_obj
        rep["polarized_ideal"] = ideal_to_obj(polarized)
        rep["classes"] = [[v + 1 for v in cls] for cls in classes]
        rep["result"] = complex_to_obj(complex_of_ideal(polarized))

    return mutate


_NOT_CM_RESULT = {
    "check": "cm_result",
    "detail": "result complex is not Cohen-Macaulay over the stated field",
}
_POLARIZATION_DIFFERS = {
    "check": "reproduction",
    "detail": "re-derivation differs in: artinian_ideal, classes, polarized_ideal, result",
}
TWO_EDGES_OBJ = {"vertices": 4, "facets": [[1, 2], [3, 4]]}


@pytest.mark.parametrize(
    "mutate, failures",
    [
        pytest.param(
            # all g squares, but in g + 1 variables: not Artinian, and the
            # polarization of (x1^2, x2^2, x1*x3, x2*x3) is not CM
            _with_artinian({"n": 3, "generators": ["x1^2", "x1*x3", "x2^2", "x2*x3"]}),
            [
                {"check": "h_vectors", "detail": "h_result does not match the result complex"},
                {"check": "balanced",
                 "detail": "coloring must assign a color to every ambient vertex"},
                _NOT_CM_RESULT,
                _POLARIZATION_DIFFERS,
            ],
            id="n-is-g-plus-one",
        ),
        pytest.param(
            _with_artinian({"n": 2, "generators": ["1"]}),
            [
                {"check": "h_vectors", "detail": "the void complex has no f-vector"},
                {"check": "balanced", "detail": "the void complex cannot be colored"},
                {"check": "cm_result",
                 "detail": "the void complex is not a ring-theoretic object here"},
                _POLARIZATION_DIFFERS,
            ],
            id="unit-void-result",
        ),
        pytest.param(
            # g = 0 passes the polarization check on any result equal to the
            # input, here two disjoint edges, which are not CM
            lambda rep: rep.update(
                complex=TWO_EDGES_OBJ, result=TWO_EDGES_OBJ, g=0, h_source=[1, 2, -1],
                h_result=[1, 2, -1], coloring=[1, 2, 3, 4], classes=[],
                artinian_ideal={"n": 0, "generators": []},
                polarized_ideal={"n": 0, "generators": []},
            ),
            [
                {"check": "cm_source",
                 "detail": "input complex is not Cohen-Macaulay over the stated field"},
                {"check": "height", "detail": "stated g = 0, Stanley-Reisner height = 2"},
                {"check": "balanced", "detail": "stated coloring is not proper"},
                _NOT_CM_RESULT,
                {"check": "reproduction",
                 "detail": "link of {} has reduced homology of rank 1 in degree 0 over Q"},
            ],
            id="trivial-g-zero",
        ),
    ],
)
def test_verify_balance_tests_a_result_the_theorem_does_not_cover(
    run, tmp_path, cm_tests, mutate, failures
):
    # only a passing polarization check with g >= 1, the Artinian ideal in
    # g variables and a nonvoid result settles cm_result; these stated
    # results all claim cm and still go through the CM test, which certifies
    # a nonvoid one and refuses a void one, as the failures above state
    _, out, _ = run("balance", data=PATH_OBJ)
    rep = tampered(out, mutate)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(rep))
    cm_tests.clear()
    code, vout, _ = run("verify", str(path))
    assert code == 1
    assert parse(vout)["failures"] == failures
    result = complex_from_obj(rep["result"])
    assert cm_tests[-1] == result or (result.is_void() and result not in cm_tests)


def test_verify_balance_refuses_huge_artinian_exponent(run, tmp_path, monkeypatch):
    def unreachable(ideal):
        raise AssertionError("polarize was called")

    _, out, _ = run("balance", data=PATH_OBJ)
    rep = parse(out)
    rep["artinian_ideal"]["generators"][0] = "x1^99999999999"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(rep))
    monkeypatch.setattr(reports, "polarize", unreachable)
    code, vout, _ = run("verify", str(path))
    assert code == 1
    failures = {f["check"]: f["detail"] for f in parse(vout)["failures"]}
    assert failures["polarization"] == (
        "the Artinian ideal's polarized support 100000000001 exceeds the result's 4 vertices"
    )


def test_verify_catches_h_vector_tamper(run, tmp_path):
    _, out, _ = run("balance", data=OCTA_OBJ)
    path = tmp_path / "hswap.json"
    path.write_text(
        json.dumps(tampered(out, lambda rep: rep.update(h_result=[1, 3, 3, 2])))
    )
    code, vout, _ = run("verify", str(path))
    assert code == 1
    failing = {f["check"] for f in parse(vout)["failures"]}
    assert "h_vectors" in failing


def test_verify_rejects_unknown_kind(run, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"kind": "mystery"}')
    code, _, err = run("verify", str(path))
    assert code == 2 and "cannot verify" in err
    for kind in ([], {}, ["egh"], 5, None):
        path.write_text(json.dumps({"kind": kind}))
        code, out, err = run("verify", str(path))
        assert (code, out) == (2, "") and err.startswith("error: cannot verify kind"), kind
    path.write_text("[1, 2, 3]")
    code, _, err = run("verify", str(path))
    assert code == 2


def _set(key, value):
    return lambda rep: rep.update({key: value})


@pytest.mark.parametrize(
    "command, data, mutate",
    [
        pytest.param("balance", OCTA_OBJ, _set("cm_source", 5), id="cm_source-int"),
        pytest.param("balance", OCTA_OBJ, _set("cm_source", {}), id="cm_source-empty"),
        pytest.param("balance", OCTA_OBJ, _set("cm_result", 5), id="cm_result-int"),
        pytest.param("balance", OCTA_OBJ, _set("h_source", 5), id="h_source-int"),
        pytest.param("balance", OCTA_OBJ, _set("h_result", 5), id="h_result-int"),
        pytest.param("balance", OCTA_OBJ, _set("complex", 3), id="complex-int"),
        pytest.param("balance", OCTA_OBJ, _set("result", 3), id="result-int"),
        pytest.param(
            "regseq", TRIANGLE_OBJ, lambda rep: rep["forms"].__setitem__(0, 5), id="form-int"
        ),
        pytest.param(
            "regseq",
            TRIANGLE_OBJ,
            lambda rep: rep["forms"][0].update(coefficients=[1]),
            id="coefficients-list",
        ),
        pytest.param("regseq", TRIANGLE_OBJ, _set("ideal", 3), id="ideal-int"),
        pytest.param("egh", TRIANGLE_OBJ, _set("generators", 5), id="generators-int"),
        pytest.param("egh", TRIANGLE_OBJ, _set("generators", [5]), id="generators-int-list"),
        pytest.param("egh", TRIANGLE_OBJ, _set("ideal", [1]), id="ideal-list"),
        # the series check would expand (1 - t^d) for the source's degree d
        pytest.param(
            "egh",
            TRIANGLE_OBJ,
            _set("ideal", {"n": 3, "generators": ["x1^4000000000"]}),
            id="ideal-huge-degree",
        ),
    ],
)
def test_verify_malformed_report_exits_two(run, tmp_path, command, data, mutate):
    _, out, _ = run(command, data=data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(tampered(out, mutate)))
    start = time.perf_counter()
    code, vout, err = run("verify", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and vout == "", err
    assert err.startswith("error: ") and "Traceback" not in err


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, strong pseudoprime to 2..37

FORGED_VALUES = [
    -1, 0, 10**12, True, "s", [], {}, None, [[[[]]]], "x1^99999999999",
    # digit strings longer than int() converts, a digit int() refuses, a
    # composite the bases 2..37 pass
    "x1^" + "9" * 5000, {"x" + "1" * 5000: 1}, "p:²", f"p:{PSI_12}",
]


def _paths(obj, depth: int = 3):
    """Every path of object keys and list positions into obj, up to depth long."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield (key,)
        if depth > 1:
            yield from ((key, *rest) for rest in _paths(value, depth - 1))


@pytest.mark.parametrize(
    "command, data",
    [("egh", TRIANGLE_OBJ), ("regseq", TRIANGLE_OBJ), ("balance", PATH_OBJ)],
)
def test_verify_survives_forged_values(run, tmp_path, monkeypatch, command, data):
    # every entry down to depth 3 replaced by each forged value: verify ends
    # with a verdict or an input error, and a huge exponent reaches neither
    # polarize nor the pivot recursion, whose work grows with it; the
    # recursion runs on the report's source ideal only
    def bounded_polarize(ideal):
        assert all(max(m) < 1000 for m in ideal.generators), "huge polarization"
        return polarize(ideal)

    def source_only(gens):
        assert set(gens) == source, "a stated list reached the recursion"
        return numerator(gens)

    polarize, numerator = reports.polarize, hilbert._numerator
    monkeypatch.setattr(reports, "polarize", bounded_polarize)
    monkeypatch.setattr(hilbert, "_numerator", source_only)
    source = _source_generators(data)
    _, out, _ = run(command, data=data)
    genuine = parse(out)
    path = tmp_path / "forged.json"
    for keys in _paths(genuine):
        for value in FORGED_VALUES:
            forged = copy.deepcopy(genuine)
            target = forged
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            source = _source_generators(forged.get("ideal", forged))
            path.write_text(json.dumps(forged))
            code, _, err = run("verify", str(path))
            assert code in (0, 1, 2) and "Traceback" not in err, (keys, value, code, err)


def _source_generators(obj) -> set:
    """The generators of the ideal obj describes, or none when it is no ideal."""
    try:
        return set(ideal_from_obj(obj).generators)
    except InputError:
        return set()


def test_verify_forged_report_in_1000_variables(run, tmp_path, monkeypatch):
    # x1^2 and x_a*x_j for a = 1, 2, 3 over a source (x1*x2) in 1000
    # variables: x2*x3 moves to x2^2, which is not listed, so the list is
    # refused before any numerator work; the pivot recursion never splits
    def refuse(*args):
        raise AssertionError("the pivot recursion split a node")

    monkeypatch.setattr(hilbert, "_split", refuse)
    n = 1000
    generators = ["x1^2"] + [f"x{a}*x{j}" for a in (1, 2, 3) for j in range(a + 1, n + 1)]
    report = {
        "kind": "egh", "field": "q", "ideal": {"n": n, "generators": ["x1*x2"]},
        "powers": 1, "generators": generators[:2500], "series_equal": True,
        "picked_by_degree": {}, "pd_source": 1, "pd_result": 1,
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    start = time.perf_counter()
    code, vout, verr = run("verify", str(path))
    assert time.perf_counter() - start < 2
    assert (code, verr) == (1, "")
    failures = {f["check"]: f["detail"] for f in parse(vout)["failures"]}
    assert failures["series"] == _NOT_STABLE


def test_verify_forged_regseq_report_in_1000_variables(run, tmp_path, monkeypatch):
    # (x1*x_j : j = 2..1000) with one dense form: every product x1*x_j is
    # answered by a set lookup, so no divisor index is ever built
    built = []
    index = monomials._DivisorIndex

    def counted(gens):
        built.append(len(gens))
        return index(gens)

    monkeypatch.setattr(monomials, "_DivisorIndex", counted)
    n = 1000
    report = {
        "kind": "regseq", "field": "q",
        "ideal": {"n": n, "generators": [f"x1*x{j}" for j in range(2, n + 1)]},
        "seed": 0, "prime": [1],
        "forms": [{"times_variable": 1, "coefficients": {f"x{j}": 1 for j in range(2, n + 1)}}],
        "subsets_checked": 2, "attempts": 1,
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, vout, verr = run("verify", str(path))
    assert (code, verr) == (1, "")
    assert parse(vout)["failures"] == [
        {"check": "reproduction", "detail": "re-derivation differs in: forms"}
    ]
    assert built == []


@pytest.mark.parametrize(
    "generators, message",
    [
        pytest.param([], None, id="zero"),
        pytest.param(["1"], "the unit ideal is out of scope", id="unit"),
        pytest.param(
            ["x1*x2", "x3", "x1^3"],
            "generators must have degree 2; offending: x1^3, x3",
            id="degree",
        ),
    ],
)
def test_quadratic_guard_messages(run, tmp_path, generators, message):
    ideal = MonomialIdeal.from_strings(3, generators)
    regseq_zero = "the zero ideal contains no regular sequence of products"
    egh_zero = "the zero ideal needs no realization"
    with pytest.raises(InputError) as err:
        find_regular_sequence(ideal)
    assert str(err.value) == (message or regseq_zero)
    with pytest.raises(InputError) as err:
        egh_for_quadratic(ideal)
    assert str(err.value) == (message or egh_zero)
    _, out, _ = run("egh", data=TRIANGLE_OBJ)
    path = tmp_path / "source.json"
    path.write_text(json.dumps(tampered(out, _set("ideal", ideal_to_obj(ideal)))))
    code, vout, verr = run("verify", str(path))
    assert (code, vout, verr) == (2, "", f"error: {message or egh_zero}\n")


def test_stdin_input(run, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TRIANGLE_OBJ)))
    code, out, _ = run("egh", "-")
    assert code == 0 and parse(out)["kind"] == "egh"


def test_out_file_and_pretty(run, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run("analyze", "--pretty", "--out", str(out_path), data=OCTA_OBJ)
    assert code == 0
    assert "h-vector: (1, 3, 3, 1)" in out
    assert "CM (q): yes (27 links checked)" in out
    assert "{" not in out
    written = out_path.read_text()
    assert written.endswith("\n")
    rep = json.loads(written)
    assert written == canonical_json(rep) + "\n"
    # a second run reproduces the file byte for byte
    code, _, _ = run("analyze", "--out", str(out_path), data=OCTA_OBJ)
    assert code == 0 and out_path.read_text() == written


def test_pretty_regseq(run):
    code, out, _ = run("regseq", "--pretty", data=TRIANGLE_OBJ)
    assert code == 0
    assert "x1 * (25*x2 + 27*x3)" in out
    assert "x2 * (x3)" in out
    assert "all 4 subset ranks verified" in out


def test_field_flag(run):
    for p in (32003, 2**61 - 1):
        code, out, _ = run("analyze", "--field", f"p:{p}", data=OCTA_OBJ)
        assert code == 0 and parse(out)["field"] == f"p:{p}"
    code, _, err = run("analyze", "--field", "z", data=OCTA_OBJ)
    assert code == 2 and "field" in err
    code, _, err = run("analyze", "--field", "p:4", data=OCTA_OBJ)
    assert code == 2 and "prime" in err


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(f"p:{PSI_12}", id="psi12"),
        pytest.param("p:3317044064679887385961981", id="psi13"),
        pytest.param("p:3317044064679887385961987", id="above-psi13"),
        # odd and free of factors up to 41: only Miller-Rabin could reject it
        pytest.param("p:" + "9" * 4299 + "1", id="4300-digits"),
        pytest.param("p:²", id="superscript"),
    ],
)
def test_field_flag_refuses_unprovable_characteristic(run, spec):
    start = time.perf_counter()
    code, out, err = run("analyze", "--field", spec, data=OCTA_OBJ)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_budget_exceeded_exit_code(run):
    data = {"n": 6, "generators": ["x1*x2", "x3*x4", "x5*x6"]}
    code, _, err = run("egh", "--budget", "5", data=data)
    assert code == 3 and err.startswith("budget exceeded:")


def test_egh_deep_tail_degrades_result_pd(run, tmp_path):
    # This ideal's lex picks run out to degree 100, so the companion
    # polarizes to a support no budget can enumerate.  The source pd must
    # still be reported, the companion's goes null instead of failing the
    # run, and the emitted report must survive verification.
    data = {
        "n": 8,
        "generators": [
            "x1*x2", "x1*x3", "x2*x3", "x2*x6", "x2*x7", "x2*x8",
            "x3*x8", "x4*x6", "x4*x7", "x5*x6", "x5*x7", "x6*x8",
        ],
    }
    code, out, _ = run("egh", data=data)
    assert code == 0
    rep = parse(out)
    assert rep["series_equal"] is True
    assert rep["pd_source"] == 6
    assert rep["pd_result"] is None
    assert len(rep["generators"]) == 551

    report_path = tmp_path / "deep.json"
    report_path.write_text(out)
    code, vout, _ = run("verify", str(report_path))
    assert code == 0 and parse(vout)["ok"] is True

    code, out, _ = run("egh", "--pretty", data=data)
    assert code == 0
    assert "projective dimension: 6 -> n/a (over budget)" in out


def test_bad_json_reports_position(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "generators": [}')
    code, _, err = run("analyze", str(path))
    assert code == 2 and "line 1" in err
    code, _, err = run("analyze", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err


def test_non_utf8_input_exits_two(run, tmp_path, monkeypatch):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"n":1}')
    for command in ("analyze", "regseq", "egh", "balance", "verify"):
        code, out, err = run(command, str(path))
        assert (code, out, err) == (2, "", f"error: cannot read {path}: not UTF-8 text\n")
    # stdin decodes with the interpreter's own error handler, strict here
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()), "utf-8"))
    assert run("analyze", "-") == (2, "", "error: cannot read -: not UTF-8 text\n")


def test_unparseable_json_exits_two(run, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 2, "generators": ["x1*x2"], "pad": ' + "9" * 5000 + "}")
    for path in (deep, huge):
        for command in ("analyze", "verify"):
            code, _, err = run(command, str(path))
            assert code == 2 and err.startswith("error: bad JSON"), (path, err)


def test_unrecognized_input_shape(run):
    code, _, err = run("analyze", data={"foo": 1})
    assert code == 2
    code, _, err = run("regseq", data={"n": 2, "generators": ["1"]})
    assert code == 2


def test_bad_monomial_syntax(run):
    code, _, err = run("egh", data={"n": 2, "generators": ["x1*.x2"]})
    assert code == 2 and "error:" in err


def test_out_of_range_arguments_exit_two(run):
    cases = [
        ("egh", "--budget", "-1"),
        ("egh", "--max-degree", "-1"),
        ("balance", "--max-degree", "-1"),
        ("verify", "--budget", "-1"),
        ("regseq", "--seed", "-5"),
        ("regseq", "--seed", str(2**64 + 1)),
    ]
    for argv in cases:
        code, out, err = run(*argv, data=TRIANGLE_OBJ)
        assert code == 2 and out == "" and "must be an integer" in err, argv


def test_oversized_counts_exit_two(run):
    # the cheap boundary first, so that a missing cap fails here before the
    # huge counts below could reach an n-sized allocation
    assert ideal_from_obj({"n": MAX_VARIABLES, "generators": ["x1*x2"]}).n == MAX_VARIABLES
    for obj in (
        {"n": MAX_VARIABLES + 1, "generators": ["x1"]},
        {"vertices": MAX_VARIABLES + 1, "edges": []},
        {"vertices": MAX_VARIABLES + 1, "facets": []},
    ):
        with pytest.raises(InputError, match="must be an integer in"):
            load_input_obj(obj)
    huge_ideal = {"n": 10**12, "generators": ["x1"]}
    huge_graph = {"vertices": 10**12, "edges": []}
    cases = [
        ("egh", huge_ideal),
        ("regseq", huge_ideal),
        ("analyze", huge_graph),
        ("balance", huge_graph),
        ("verify", {"kind": "egh", "ideal": huge_ideal}),
    ]
    for command, data in cases:
        code, out, err = run(command, data=data)
        assert code == 2 and out == "", (command, err)
        assert "must be an integer in" in err and f"..{MAX_VARIABLES}" in err, err


def test_wide_facet_exits_three_before_listing(run):
    # one edge on v vertices: two facets on v - 1 vertices, each with
    # 2^(v - 1) faces, which the face listing refuses before it starts
    wide = {"vertices": 40, "facets": [list(range(2, 41)), [1, *range(3, 41)]]}
    for data in (
        {"vertices": 40, "edges": [[1, 2]]},
        {"vertices": 1000, "edges": [[1, 2]]},
        wide,
    ):
        for command in ("analyze", "balance"):
            start = time.perf_counter()
            code, out, err = run(command, data=data)
            assert time.perf_counter() - start < 1, command
            assert code == 3 and out == "", (command, err)
            assert err.startswith("budget exceeded: a facet on ") and "at most 24" in err
    code, out, _ = run("analyze", data=OCTA_OBJ)
    forged = {**parse(out), "complex": wide}
    start = time.perf_counter()
    code, out, err = run("verify", data=forged)
    assert time.perf_counter() - start < 1
    assert code == 1 and err == "", err
    [failure] = parse(out)["failures"]
    assert failure["check"] == "reproduction" and "a facet on 39 vertices" in failure["detail"]


def test_emitted_regseq_reports_verify(run, tmp_path):
    # a seed is either refused up front or yields a report that verifies;
    # both ends of the accepted range yield reports
    for seed in (-1, 0, 2**64, 2**64 + 1):
        report = tmp_path / f"seed-{seed}.json"
        code, _, _ = run("regseq", "--seed", str(seed), "--out", str(report), data=TRIANGLE_OBJ)
        if code == 2:
            assert seed not in (0, 2**64)
            continue
        assert code == 0
        code, out, err = run("verify", str(report))
        assert code == 0 and parse(out)["ok"] is True, (seed, err)


def test_argparse_errors_exit_two(run, capsys):
    assert main(["frobnicate", "x.json"]) == 2
    capsys.readouterr()
    assert main(["analyze"]) == 2
    capsys.readouterr()
    assert main(["analyze", "a.json", "--json", "--pretty"]) == 2
    capsys.readouterr()


def _argv_id(argv):
    text = " ".join(argv) or "(none)"
    return text if len(text) <= 40 else f"{text[:30]}...({len(text)} chars)"


ACCEPTED_ARGV = [
    ["analyze", "x.json"],
    ["analyze", "-", "--field", "p:3", "--json", "--out", "r.json"],
    ["analyze", "--field=q", "--pretty", "--out=r.json", "x.json"],
    ["analyze", "--fi", "p:2", "--pre", "--o", "r.json", "x.json"],
    ["regseq", "x.json", "--seed", "7", "--prime", "1,2"],
    ["regseq", "--seed=0", "--prime=3", "-"],
    ["regseq", "x.json", "--se", str(2**64), "--pri", "2,1", "--json"],
    ["egh", "x.json", "--budget", "12", "--max-degree", "5"],
    ["egh", "--bud", "12", "--max", "0", "--", "x.json"],
    ["egh", "-", "--budget=0", "--max-degree=9", "--out", "-"],
    ["balance", "x.json", "--max-degree=3", "--field", "p:32003"],
    ["balance", "--", "x.json"],
    ["balance", "--m", "4", "--pretty", "-"],
    ["verify", "x.json", "--budget", "20", "--max-degree", "2", "--pretty"],
    ["verify", "--json", "--", "-"],
    ["verify", "--b=3", "--ma=1", "--out=r.json", "--field=q", "x.json"],
]


REFUSED_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["frobnicate", "x.json"],
    ["--field", "q", "analyze", "x.json"],
    *([command, "-h"] for command in ("analyze", "regseq", "egh", "balance", "verify")),
    *([command, "x.json", "--he"] for command in ("analyze", "regseq", "egh", "balance", "verify")),
    ["analyze", "-h x"],
    ["analyze", "x.json", "-hx"],
    ["analyze"],
    ["analyze", "x.json", "extra"],
    ["analyze", "x.json", "--json", "--pretty"],
    ["analyze", "x.json", "--bogus"],
    ["analyze", "x.json", "--budget", "3"],
    ["analyze", "x.json", "--out"],
    ["regseq", "x.json", "--pr", "1"],
    ["regseq", "x.json", "--seed", "9" * 5000],
    ["regseq", "x.json", "--seed", str(2**64 + 1)],
    ["egh", "x.json", "--budget", "-1"],
    ["balance", "x.json", "--max-degree", "two"],
    ["verify", "x.json", "--seed", "1"],
]


def _fresh_parse(argv):
    """A newly built parser's answer to argv: its Namespace, or the exit
    code, stdout and stderr of its help or error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit as exc:
            return (int(exc.code or 0), out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", REFUSED_ARGV, ids=_argv_id)
def test_help_and_errors_come_from_full_parser(argv, capsys, monkeypatch):
    # main keeps one parser for the process: each refused argv, run twice
    # around main's parses of every accepted argv, answers as a newly built
    # parser does, and every accepted argv reaches _dispatch as the
    # Namespace a newly built parser gives it
    parsed = []
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch", lambda args: parsed.append(args) or dispatch(args))
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    expected = _fresh_parse(argv)
    assert isinstance(expected, tuple)
    for _ in range(2):
        assert (main(argv), *capsys.readouterr()) == expected
        for accepted in ACCEPTED_ARGV:
            # x.json does not exist and stdin is empty: a read error, exit 2
            assert main(accepted) == 2 and capsys.readouterr().out == ""
            assert parsed.pop() == _fresh_parse(accepted)
    assert parsed == []


def test_console_script_reads_sys_argv(monkeypatch, capsys, tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_OBJ))
    argv = ["egh", str(path), "--budget", "12"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def rebuild():
        raise AssertionError("the parser is built once per process")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    monkeypatch.setattr(sys, "argv", ["quadbalance", *argv])
    assert main() == 0 and capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["quadbalance", "egh", "-h"])
    assert main() == 0 and capsys.readouterr().out.startswith("usage: quadbalance egh")
