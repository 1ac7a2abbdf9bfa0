import io
import json
import time

import pytest

from quadbalance import InputError, canonical_json
from quadbalance.cli import main
from quadbalance.jsonio import MAX_VARIABLES, ideal_from_obj, load_input_obj

OCTA_OBJ = {
    "vertices": 6,
    "facets": [
        [1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 5], [2, 4, 6],
    ],
}
TRIANGLE_OBJ = {"n": 3, "generators": ["x1*x2", "x1*x3", "x2*x3"]}


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
    ],
)
def test_verify_malformed_report_exits_two(run, tmp_path, command, data, mutate):
    _, out, _ = run(command, data=data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(tampered(out, mutate)))
    code, vout, err = run("verify", str(path))
    assert code == 2 and vout == "", err
    assert err.startswith("error: ") and "Traceback" not in err


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
    code, out, _ = run("analyze", "--field", "p:32003", data=OCTA_OBJ)
    assert code == 0 and parse(out)["field"] == "p:32003"
    code, _, err = run("analyze", "--field", "z", data=OCTA_OBJ)
    assert code == 2 and "field" in err
    code, _, err = run("analyze", "--field", "p:4", data=OCTA_OBJ)
    assert code == 2 and "prime" in err


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
