"""Regenerate bench/catalogue.json, the ideal pools behind two workloads.

    PYTHONPATH=src python3 bench/make_catalogue.py

Draws ``DRAWS`` quadratic monomial ideals from the acceptance criterion-2
distribution (n in 2..8, at most 12 distinct degree-2 generators, squares
allowed in half of the draws) with a fixed catalogue seed and sorts every
draw into a stratum by companion size and polarized support.  The share of
draws in each stratum is stored, and each ideal_stream pool is sized in
proportion to its stratum's share of a pass of about ``PASS_INPUTS``
inputs, with at least one entry per stratum that is kept.  The pools are
filled from the first draws of each stratum.

The package is used only here, to measure each draw's companion; the
benchmark itself reads the stored pools and never asks the package which
stratum an input is in.  Each pool entry keeps the seconds its full input
took when it was drawn, as a record of why the strata are cut where they
are.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from quadbalance import Monomial, MonomialIdeal, egh_for_quadratic, hilbert  # noqa: E402

import workloads  # noqa: E402

CATALOGUE_SEED = 2024
DRAWS = 20000
PASS_INPUTS = 56
SERIES_CAP = 3000  # verify rechecks the Hilbert series up to this many generators

# stratum -> predicate on (companion generators, source support), in order;
# a draw belongs to the first stratum whose predicate holds
IDEAL_STRATA = {
    "over_budget": lambda gens, s: s > workloads.STREAM_BUDGET,
    "bulk": lambda gens, s: gens < 100 and s <= 9,
    "pd": lambda gens, s: gens < 100,
    "mid": lambda gens, s: gens < 300,
    "wide": lambda gens, s: gens < 450,
    "near_cap": lambda gens, s: gens < 1000,
    "series_heavy": lambda gens, s: gens <= SERIES_CAP,
    "above_cap": lambda gens, s: True,
}
# counted in the shares but given no pool: verify's series recheck takes
# 25-90 s on each of these companions (31.9 s on one of 1670 generators)
LEFT_OUT = ("series_heavy",)
# companion polarized support -> pool size; support 14 (4-16 s per pd, two
# pds per input) is left out for run length
PD_STRATA = {"support12": 3, "support13": 1}


def _companion(n: int, exps) -> MonomialIdeal:
    hilbert._MEMO.clear()
    ideal = MonomialIdeal(n, tuple(Monomial(tuple(e)) for e in exps))
    return egh_for_quadratic(ideal, with_pd=False).ideal


def _stratum(gens: int, support: int) -> str:
    return next(name for name, keep in IDEAL_STRATA.items() if keep(gens, support))


def _timed(entry: dict, calls) -> dict:
    start = time.perf_counter()
    for argv, _expected in calls:
        workloads.call_cli(argv)
    entry["seconds"] = round(time.perf_counter() - start, 3)
    return entry


def main() -> int:
    rng = random.Random(CATALOGUE_SEED)
    work = os.path.join(os.path.dirname(HERE), ".bench_out", "catalogue")
    os.makedirs(work, exist_ok=True)
    draws = []  # (n, exponents, companion generators, companion support, stratum)
    for _ in range(DRAWS):
        n, exps = workloads.draw_quadratic(rng)
        comp = _companion(n, exps).generators
        comp_support = workloads.polarized_support([m.exponents for m in comp])
        stratum = _stratum(len(comp), workloads.polarized_support(exps))
        draws.append((n, exps, len(comp), comp_support, stratum))
    counts = Counter(stratum for *_, stratum in draws)
    shares = {name: counts[name] / DRAWS for name in IDEAL_STRATA}
    sizes = {
        name: max(1, round(PASS_INPUTS * share))
        for name, share in shares.items()
        if name not in LEFT_OUT
    }

    ideal_pools = {name: [] for name in sizes}
    pd_pools = {name: [] for name in PD_STRATA}
    for n, exps, comp_generators, comp_support, stratum in draws:
        support = workloads.polarized_support(exps)
        entry = {"n": n, "exponents": [list(e) for e in exps],
                 "companion_generators": comp_generators, "support": support}
        if stratum in sizes and len(ideal_pools[stratum]) < sizes[stratum]:
            path = workloads.write_ideal(work, "cat", n, exps)
            ideal_pools[stratum].append(
                _timed(entry, workloads.ideal_stream_calls(work, "cat", path, 1, support))
            )
        key = f"support{comp_support}"
        if n in (5, 6) and key in pd_pools and len(pd_pools[key]) < PD_STRATA[key]:
            path = workloads.write_ideal(work, "cat", n, exps)
            pd_entry = dict(entry, companion_support=comp_support)
            pd_pools[key].append(_timed(pd_entry, workloads.pd_calls(work, "cat", path)))
    out = {
        "catalogue_seed": CATALOGUE_SEED,
        "draws": DRAWS,
        "ideal_stream_shares": {name: round(share, 5) for name, share in shares.items()},
        "ideal_stream_left_out": list(LEFT_OUT),
        "ideal_stream": ideal_pools,
        "pd_companions": pd_pools,
    }
    with open(os.path.join(HERE, "catalogue.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{DRAWS} draws, shares", out["ideal_stream_shares"])
    print("pools", {k: len(v) for k, v in ideal_pools.items()},
          {k: len(v) for k, v in pd_pools.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
