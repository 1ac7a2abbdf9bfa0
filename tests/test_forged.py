"""Forged reports: every hostile value at every slot of a genuine report.

Each genuine report (one per kind) has every value under a key, and the
first entry of every list, replaced in turn by each value in ``HOSTILE``
and by the vertex id one past each complex's vertex count in it; each list
there is also truncated by one and given its first entry twice.
``verify`` must exit 0 only when the forged report is byte for byte the
genuine one, or the genuine report of its own source (``n`` = 1000 in
place of 3 leaves an ``egh`` or ``regseq`` report of the triangle as the
command writes it for 1000 variables), and otherwise exit 1 (a failed
check) or 2 (a malformed report), never with an uncaught exception.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

from quadbalance import cli
from quadbalance.jsonio import canonical_json


def _nested(depth: int):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# 1000 is the largest n a report may state
HOSTILE = (
    None, True, False, 0, -1, 1000, 10**6, 10**12, 2**64, "", "x1^1000000",
    [], [[]], {}, 1.5, [1001], _nested(50),
)

# the key under which each kind of report restates its source
SOURCE_KEY = {"analyze": "complex", "regseq": "ideal", "egh": "ideal", "balance": "complex"}

SOURCES = {
    # two disjoint edges: not Cohen-Macaulay, so the report holds a witness
    "analyze": (["analyze"], {"vertices": 4, "facets": [[1, 2], [3, 4]]}),
    "regseq": (["regseq", "--seed", "1"], {"n": 3, "generators": ["x1*x2", "x1*x3", "x2*x3"]}),
    "egh": (["egh"], {"n": 3, "generators": ["x1*x2", "x1*x3", "x2*x3"]}),
    "balance": (["balance"], {"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}),
}


def _call(argv, stdin_text: str):
    """main(argv) with stdin_text on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _slots(value, path=()):
    """(path, value held there) for every value under a key, and for the
    first entry of every list, in a report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,), item
            yield from _slots(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,), value[0]
        yield from _slots(value[0], path + (0,))


def _forgeries(report: dict):
    """(path, value) pairs: each hostile value, and each vertex id one past
    a complex's vertex count, at each slot, and each nonempty list at a
    slot truncated by one and with its first entry repeated."""
    past = sorted({held + 1 for path, held in _slots(report) if path[-1] == "vertices"})
    for path, held in _slots(report):
        for value in (*HOSTILE, *past):
            yield path, value
        if isinstance(held, list) and held:
            yield path, held[:-1]
            yield path, held + held[:1]


def _replaced(report: dict, path: tuple, value):
    forged = copy.deepcopy(report)
    holder = forged
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return forged


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_forged_reports_exit_one_or_two(kind):
    argv, source = SOURCES[kind]
    code, genuine_text, err = _call([*argv, "-"], json.dumps(source))
    assert code == 0, err
    genuine = json.loads(genuine_text)
    assert _call(["verify", "-"], genuine_text)[0] == 0
    codes = []
    for path, value in _forgeries(genuine):
        forged = _replaced(genuine, path, value)
        try:
            code, out, err = _call(["verify", "-"], json.dumps(forged))
        except Exception as exc:  # noqa: BLE001  reported with its slot
            pytest.fail(f"{path} = {value!r}: uncaught {type(exc).__name__}: {exc}")
        if code == 0:
            if canonical_json(forged) != canonical_json(genuine):
                # accepted only as the genuine report of the source it states
                redo, text, _ = _call([*argv, "-"], json.dumps(forged[SOURCE_KEY[kind]]))
                assert redo == 0, (path, value)
                assert canonical_json(json.loads(text)) == canonical_json(forged), (path, value)
        elif code == 1:
            assert json.loads(out)["ok"] is False and err == "", (path, value)
        else:
            assert code == 2 and out == "", (path, value, code)
            assert err.startswith("error: "), (path, value, err)
        codes.append(code)
    # both refusals occur, and most forgeries are refused
    assert codes.count(1) >= 10 and codes.count(2) >= 10
    assert codes.count(0) * 10 < len(codes)


def test_pd_source_off_by_one_fails_reproduction():
    # a depth-0 source, whose pd = n = 6 the level walk reads off a sphere
    # on its top level
    source = {"n": 6, "generators": [
        "x3*x4", "x4^2", "x1*x5", "x3^2", "x5^2", "x2*x6",
        "x1*x4", "x1*x2", "x3*x6", "x1^2", "x2*x5",
    ]}
    code, genuine_text, err = _call(["egh", "-"], json.dumps(source))
    assert code == 0, err
    genuine = json.loads(genuine_text)
    assert genuine["pd_source"] == 6 and _call(["verify", "-"], genuine_text)[0] == 0
    for pd in (5, 7):
        code, out, err = _call(["verify", "-"], json.dumps({**genuine, "pd_source": pd}))
        assert code == 1 and err == "", (pd, code, err)
        verdict = json.loads(out)
        assert verdict["failures"] == [
            {"check": "reproduction", "detail": "re-derivation differs in: pd_source"}
        ], pd
