"""Seeded inputs of the four benchmark workloads and the outcomes they must reach.

A workload turns a seed into one pass: a list of inputs, each a JSON file
the CLI reads plus the CLI calls made on it.  Every call carries the exit
code it must end with, worked out from how the input was built and never
by asking the package:

- egh on an ideal whose polarized support (the sum of the per-variable
  maximum exponents) exceeds the --budget exits 3, and its report is not
  verified because there is none;
- balance on the independence complex of the 4-cycle (disconnected) or the
  6-cycle (not pure) exits 1;
- every other call exits 0, and every verify verdict must read ok.

The seed relabels variables or vertices, shuffles generator, edge and
input order and draws the regseq seeds.  The ideals of ideal_stream and
pd_companions come from fixed pools in catalogue.json (see
make_catalogue.py), every pool entry once per pass, and the whiskered base
graphs from a fixed seed, so two seeds give different files of the same
shape and nearly the same cost.  The ideal_stream pools are sized in
proportion to the share of criterion-2 draws that falls in each stratum,
with at least one entry per stratum kept.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
STREAM_BUDGET = 12
PRIME_FIELD = "p:32003"

WHISKERED = {5: 6, 6: 2}  # base-graph vertex count -> graphs per pass
BASE_GRAPH_SEED = 2024
CROSS_POLYTOPES = (4, 5, 6)
MATCHINGS = (8, 9, 10)
FAMILY = (8, 9, 10, 11)

# the README's triangle and the bytes it documents for `regseq --seed 1`
TRIANGLE = {"n": 3, "generators": ["x1*x2", "x1*x3", "x2*x3"]}
TRIANGLE_REGSEQ_SEED1 = (
    '{"attempts":1,"field":"q","forms":[{"coefficients":{"x2":9,"x3":5},'
    '"times_variable":1},{"coefficients":{"x3":1},"times_variable":2}],'
    '"ideal":{"generators":["x1*x2","x1*x3","x2*x3"],"n":3},"kind":"regseq",'
    '"prime":[1,2],"seed":1,"subsets_checked":4}\n'
)
OCTAHEDRON_ANALYZE = {"f_vector": [1, 6, 12, 8], "h_vector": [1, 3, 3, 1], "faces_checked": 27}
OCTAHEDRON_BALANCE = {"g": 3, "h_source": [1, 3, 3, 1]}


@dataclass(frozen=True)
class Input:
    """One input file and the CLI calls made on it, in order.

    ``calls`` holds (argv, expected exit code) pairs; ``golden`` maps a call
    index to report fields whose values are known in advance.
    """

    name: str
    calls: tuple
    golden: dict = field(default_factory=dict)


def call_cli(argv):
    """Run one CLI call in-process as a fresh `quadbalance` process would.

    Returns (exit code, stdout text, seconds spent in ``cli.main``).  A new
    process starts with an empty Hilbert numerator memo, so the memo is
    emptied first: no call may reuse numerators an earlier call computed.
    An exception escaping ``main`` (a traceback, for a user) comes back as
    the code "uncaught <name>", which no call expects.
    """
    from quadbalance import cli, hilbert

    hilbert._MEMO.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001  counted as a failed call, not fatal
            code = f"uncaught {type(exc).__name__}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


# ---------------------------------------------------------------------------
# generators and file writers


def draw_quadratic(rng: random.Random):
    """One draw from the acceptance criterion-2 distribution: n in 2..8, at
    most 12 distinct degree-2 generators, squares allowed half the time."""
    n = rng.randint(2, 8)
    squares = rng.random() < 0.5
    pool = [
        tuple((i == a) + (i == b) for i in range(n))
        for a in range(n)
        for b in range(a if squares else a + 1, n)
    ]
    rng.shuffle(pool)
    return n, pool[: rng.randint(1, min(12, len(pool)))]


def polarized_support(exps) -> int:
    """Sum of the per-variable maximum exponents: the support egh enumerates."""
    return sum(max(column) for column in zip(*exps)) if exps else 0


def _monomial(exps) -> str:
    return "*".join(
        f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e
    )


def _write(work: str, name: str, obj: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def write_ideal(work: str, name: str, n: int, exps) -> str:
    return _write(work, name, {"n": n, "generators": [_monomial(e) for e in exps]})


def _relabel(rng: random.Random, n: int, exps) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for e in exps:
        moved = [0] * n
        for j, x in enumerate(e):
            moved[perm[j]] = x
        out.append(tuple(moved))
    rng.shuffle(out)
    return out


def _graph(rng: random.Random, n: int, edges) -> dict:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    moved = [sorted((perm[a - 1], perm[b - 1])) for a, b in edges]
    rng.shuffle(moved)
    return {"vertices": n, "edges": moved}


def _catalogue() -> dict:
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _report(work: str, name: str, tag: str) -> str:
    return os.path.join(work, f"{name}.{tag}.report.json")


# ---------------------------------------------------------------------------
# call lists


def ideal_stream_calls(work: str, name: str, path: str, seed: int, support: int) -> tuple:
    regseq_out = _report(work, name, "regseq")
    egh_out = _report(work, name, "egh")
    budget = ("--budget", str(STREAM_BUDGET))
    calls = [
        (["regseq", path, "--seed", str(seed), "--out", regseq_out], 0),
        (["egh", path, *budget, "--out", egh_out], 3 if support > STREAM_BUDGET else 0),
        (["verify", regseq_out, *budget], 0),
    ]
    if support <= STREAM_BUDGET:
        calls.append((["verify", egh_out, *budget], 0))
    return tuple(calls)


def pd_calls(work: str, name: str, path: str) -> tuple:
    out = _report(work, name, "egh")
    return ((["egh", path, "--out", out], 0), (["verify", out], 0))


def _regseq_both_fields(work: str, name: str, path: str, seed: int) -> tuple:
    calls = []
    for tag, spec in (("q", "q"), ("p", PRIME_FIELD)):
        out = _report(work, name, tag)
        calls.append((["regseq", path, "--field", spec, "--seed", str(seed), "--out", out], 0))
        calls.append((["verify", out], 0))
    return tuple(calls)


def flag_calls(work: str, name: str, path: str, cm: bool) -> tuple:
    out = _report(work, name, "balance")
    calls = [(["analyze", path], 0), (["balance", path, "--out", out], 0 if cm else 1)]
    if cm:
        calls.append((["verify", out], 0))
    return tuple(calls)


# ---------------------------------------------------------------------------
# workloads


def ideal_stream(seed: int, work: str) -> list:
    rng = random.Random(seed)
    pools = _catalogue()["ideal_stream"]
    inputs = []
    for stratum, pool in pools.items():
        for i, entry in enumerate(pool):
            n = entry["n"]
            exps = _relabel(rng, n, entry["exponents"])
            name = f"{stratum}{i}"
            path = write_ideal(work, name, n, exps)
            calls = ideal_stream_calls(
                work, name, path, rng.randrange(1 << 32), polarized_support(exps)
            )
            inputs.append(Input(name, calls))
    rng.shuffle(inputs)
    return inputs


def pd_companions(seed: int, work: str) -> list:
    rng = random.Random(seed)
    pools = _catalogue()["pd_companions"]
    inputs = []
    for stratum, pool in pools.items():
        for i, entry in enumerate(pool):
            name = f"{stratum}_{i}"
            path = write_ideal(work, name, entry["n"], _relabel(rng, entry["n"], entry["exponents"]))
            inputs.append(Input(name, pd_calls(work, name, path)))
    rng.shuffle(inputs)
    return inputs


def _cycle(n: int) -> list:
    return [(i + 1, (i + 1) % n + 1) for i in range(n)]


def _matching(k: int) -> list:
    return [(2 * i + 1, 2 * i + 2) for i in range(k)]


def flag_balance(seed: int, work: str) -> list:
    rng = random.Random(seed)
    # the base graphs are drawn once, from a fixed seed: a whiskered graph's
    # cost follows its base graph's density, and the run seed only relabels
    base_rng = random.Random(BASE_GRAPH_SEED)
    graphs = []  # (name, vertex count, edges, CM?)
    for m, count in WHISKERED.items():
        for i in range(count):
            pairs = itertools.combinations(range(1, m + 1), 2)
            base = [e for e in pairs if base_rng.random() < 0.5]
            whiskers = [(v, m + v) for v in range(1, m + 1)]
            graphs.append((f"whiskered{m}_{i}", 2 * m, base + whiskers, True))
    for k in CROSS_POLYTOPES:
        graphs.append((f"cross{k}", 2 * k, _matching(k), True))
    graphs.append(("octahedron", 6, _matching(3), True))
    graphs.append(("c5", 5, _cycle(5), True))
    graphs.append(("c4", 4, _cycle(4), False))
    graphs.append(("c6", 6, _cycle(6), False))
    inputs = []
    for name, n, edges, cm in graphs:
        path = _write(work, name, _graph(rng, n, edges))
        golden = {0: OCTAHEDRON_ANALYZE, 1: OCTAHEDRON_BALANCE} if name == "octahedron" else {}
        inputs.append(Input(name, flag_calls(work, name, path, cm), golden))
    rng.shuffle(inputs)
    return inputs


def regseq_height(seed: int, work: str) -> list:
    rng = random.Random(seed)
    ideals = []  # (name, n, exponent tuples)
    for k in MATCHINGS:
        n = 2 * k
        ideals.append((f"matching{k}", n, [_unit(n, a - 1, b - 1) for a, b in _matching(k)]))
    for g in FAMILY:
        n = g + 3
        gens = [_unit(n, i, i) for i in range(g)]
        gens += [_unit(n, i, j) for i in range(g) for j in range(g, g + 3)]
        ideals.append((f"family{g}", n, gens))
    inputs = []
    for name, n, exps in ideals:
        path = write_ideal(work, name, n, _relabel(rng, n, exps))
        inputs.append(Input(name, _regseq_both_fields(work, name, path, rng.randrange(1 << 32))))
    rng.shuffle(inputs)
    return inputs


def _unit(n: int, a: int, b: int) -> tuple:
    exps = [0] * n
    exps[a] += 1
    exps[b] += 1
    return tuple(exps)


WORKLOADS = {
    "ideal_stream": ideal_stream,
    "flag_balance": flag_balance,
    "regseq_height": regseq_height,
    "pd_companions": pd_companions,
}


def warmup_argv(work: str) -> list:
    """The untimed first call: the README triangle, whose bytes are known."""
    return ["regseq", _write(work, "triangle", TRIANGLE), "--seed", "1"]
