"""Forged reports: every hostile value at every slot of a genuine report.

Each genuine report (one per kind) has every value under a key, and the
first entry of every list, replaced in turn by each value in ``HOSTILE``;
each list there is also truncated by one and given its first entry twice.
``verify`` must exit 0 only when the forged report is byte for byte the
genuine one, and otherwise exit 1 (a failed check) or 2 (a malformed
report), never with an uncaught exception.
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


HOSTILE = (
    None, True, False, 0, -1, 10**6, 10**12, 2**64, "", "x1^1000000",
    [], [[]], {}, 1.5, [1001], _nested(50),
)

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
    """(path, value) pairs: each hostile value at each slot, and each
    nonempty list at a slot truncated by one and with its first entry
    repeated."""
    for path, held in _slots(report):
        for value in HOSTILE:
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
            assert canonical_json(forged) == canonical_json(genuine), (path, value)
        elif code == 1:
            assert json.loads(out)["ok"] is False and err == "", (path, value)
        else:
            assert code == 2 and out == "", (path, value, code)
            assert err.startswith("error: "), (path, value, err)
        codes.append(code)
    # both refusals occur, and most forgeries are refused
    assert codes.count(1) >= 10 and codes.count(2) >= 10
    assert codes.count(0) * 10 < len(codes)
