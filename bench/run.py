"""quadbalance benchmark: one workload, one process, every call through the CLI.

    python3 bench/run.py --workload ideal_stream --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` and
driven only through ``quadbalance.cli.main(argv)``, in-process, on JSON
files generated from ``--seed`` (see workloads.py).  After setup the run
repeats passes over the same inputs until ``--seconds`` have gone by,
checking every call's outcome.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of layertrace.py instead.  The last
line of stdout is one JSON object; the lines before it print every metric
by name and unit.  Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layertrace import COUNTERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
CHUNK_STEPS = 10000
CHUNK_EVERY_S = 0.1
SUBCOMMANDS = ("regseq", "egh", "balance", "analyze", "verify")
# Percentile of the per-input times reported as input_tail_s.  Each keeps
# at least ten pooled samples above it at the pass counts a 30 s run gives,
# and falls between two inputs whose cost does not move with the seed's
# relabelling (flag_balance's p80 would lean on one whiskered graph that
# does).  pd_companions runs too few inputs for ten samples above anything
# past its median; its p75 leans on its one support-13 input.
TAIL_PERCENTILE = {"ideal_stream": 90, "flag_balance": 75, "regseq_height": 70, "pd_companions": 75}


def _median(values):
    return statistics.median(values) if values else 0.0


# Seconds one calibration chunk takes on the reference machine: every time
# the benchmark reports is scaled by this over the chunk's time measured
# around the same call (see calibration_chunk).
REFERENCE_CHUNK_S = 0.002
# keys of the allocating half of a calibration chunk, built once
_CHUNK_KEYS = [(i % 97, i % 89, (i * 7) % 5) for i in range(1500)]


def calibration_chunk() -> float:
    """Time one fixed chunk of pure-Python work, in seconds.

    A shared machine's speed drifts by 15-70 % over seconds to minutes, more
    than any averaging inside one run removes.  Chunks run before and after
    every CLI call, and each call's time is scaled by ``REFERENCE_CHUNK_S``
    over the median of the chunks around it, which reports it at the
    reference machine's speed.  Half of the chunk is integer arithmetic and
    half builds dicts and frozensets of small tuples, as the package does:
    code that allocates slows down more than arithmetic when the machine's
    neighbours load it, and a chunk of both tracks the package's speed more
    closely than either half alone.  The garbage collector is off while the
    chunk runs and everything it allocates is freed, so it touches no
    package state, and nothing the package does changes it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x = 0
    for i in range(CHUNK_STEPS):
        x = (x * 31 + i) % 1000003
    counts: dict = {}
    for key in _CHUNK_KEYS:
        counts[key] = counts.get(key, 0) + 1
        frozenset(key)
    seconds = time.perf_counter() - start
    del counts
    if enabled:
        gc.enable()
    return seconds


def _chunks(around_s: float) -> list:
    """Calibration chunks to run next to calls of up to ``around_s`` seconds:
    one, and one more per CHUNK_EVERY_S, up to ten, so that a long call's
    speed rests on as many chunks as its stretch of drift needs."""
    return [calibration_chunk() for _ in range(1 + min(9, int(around_s / CHUNK_EVERY_S)))]


def _scaled(call_s, stats) -> list:
    return [seconds * scale for seconds, scale in zip(call_s, stats["call_scale"])]


def _low_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _wrong_outcome(argv, expected: int, code: int, out: str, golden) -> str:
    """Why a call did not end as the workload says it must; "" when it did."""
    if code != expected:
        return f"exit {code}, expected {expected}"
    if argv[0] == "verify" and json.loads(out).get("ok") is not True:
        return "verify verdict not ok"
    if golden:
        report = json.loads(out)
        wrong = sorted(k for k, v in golden.items() if report.get(k) != v)
        if wrong:
            return f"golden values differ: {', '.join(wrong)}"
    return ""


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(OUT, f"{workload}-{os.getpid()}")
        self.inputs: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.reference: list | None = None  # per-call digests every pass must repeat
        self.stored = _stored_digests().get(workload) if seed == workloads.DEFAULT_SEED else None
        self.passes: list = []
        self.tracer = None

    # ----------------------------------------------------------------- setup

    def setup_once(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.inputs = workloads.WORKLOADS[self.workload](self.seed, self.work)
        code, out, _ = workloads.call_cli(workloads.warmup_argv(self.work))
        self.attempted += 1
        if code != 0 or out != workloads.TRIANGLE_REGSEQ_SEED1:
            self.failed += 1
            self.failures.append("warm-up: README triangle regseq --seed 1 bytes differ")

    # ------------------------------------------------------------ one pass

    def run_pass(self, traced: bool):
        from quadbalance import hilbert

        if traced:
            self.tracer.reset()
            self.tracer.install()
        stats = {
            "traced": traced,
            "call_s": [],
            "chunk_s": [],
            "inputs_ok": 0,
            "memo_entries": 0,
            "over_budget": 0,
        }
        digests = []
        # each call's time in the previous pass, so that a long call gets
        # as many chunks before it as after it
        last = self.passes[-1]["call_s"] if self.passes else []
        start = time.perf_counter()
        seconds = 0.0
        for inp in self.inputs:
            for argv, _ in inp.calls:
                if "--out" in argv:
                    _remove(argv[argv.index("--out") + 1])
            input_ok = True
            for i, (argv, expected) in enumerate(inp.calls):
                position = len(digests)
                upcoming = last[position] if last else 0.0
                stats["chunk_s"].append(_chunks(max(seconds, upcoming)))
                code, out, seconds = workloads.call_cli(argv)
                stats["memo_entries"] += len(hilbert._MEMO)
                stats["over_budget"] += argv[0] == "egh" and code == 3
                stats["call_s"].append(seconds)
                digest = _digest(out)
                digests.append(digest)
                wrong = _wrong_outcome(argv, expected, code, out, inp.golden.get(i))
                reference = self.stored or self.reference
                if not wrong and reference is not None and (
                    position >= len(reference) or reference[position] != digest
                ):
                    wrong = "report digest differs"
                self.attempted += 1
                if wrong:
                    self.failed += 1
                    input_ok = False
                    self.failures.append(f"{inp.name}: {argv[0]}: {wrong}")
            stats["inputs_ok"] += input_ok
        groups = stats["chunk_s"]
        groups.append(_chunks(seconds))
        chunks = [c for group in groups for c in group]
        stats["wall_s"] = time.perf_counter() - start - sum(chunks)
        stats["scale"] = REFERENCE_CHUNK_S / statistics.median(chunks)
        # call i ran between chunk groups i and i + 1
        stats["call_scale"] = [
            REFERENCE_CHUNK_S / statistics.median(groups[i] + groups[i + 1])
            for i in range(len(stats["call_s"]))
        ]
        if traced:
            self.tracer.uninstall()
            stats["layers"] = self._layer_snapshot()
        if self.reference is None:
            self.reference = digests
        self.passes.append(stats)

    def _layer_snapshot(self) -> dict:
        t = self.tracer
        snap = {"calls": dict(t.calls), "busy": dict(t.busy), "self": dict(t.self_s)}
        snap["counters"] = dict(t.counters) | dict(t.maxima)
        return snap

    # -------------------------------------------------------------- metrics

    def typical_pass(self, passes) -> dict:
        """A pass made of each call's lower-quartile time over the given passes.

        Times are at the reference speed (see ``calibration_chunk``).  The
        code under test is deterministic, so what is left of a call's
        variation comes from bursts of load on a shared machine; the lower
        quartile, taken call by call, keeps them out of the figures unless
        they cover most passes, and unlike the minimum it does not rest on a
        single lucky pass.
        """
        call_s = [
            _low_quartile(times) for times in zip(*(_scaled(p["call_s"], p) for p in passes))
        ]
        per_input, by_command = self._split(call_s)
        harness = _low_quartile([(p["wall_s"] - sum(p["call_s"])) * p["scale"] for p in passes])
        return {"by_command": by_command, "per_input": per_input, "wall_s": sum(call_s) + harness}

    def _split(self, call_s):
        """Per-input sums and per-subcommand sums of one pass's call times."""
        by_command = dict.fromkeys(SUBCOMMANDS, 0.0)
        per_input = []
        calls = iter(call_s)
        for inp in self.inputs:
            spent = 0.0
            for (argv, _), seconds in zip(inp.calls, calls):
                by_command[argv[0]] += seconds
                spent += seconds
            per_input.append(spent)
        return per_input, by_command

    def end_to_end(self, setup_s: float) -> tuple:
        passes = self.passes
        typical = self.typical_pass(passes)
        per_input, by_command = typical["per_input"], typical["by_command"]
        pooled = [s for p in passes for s in self._split(_scaled(p["call_s"], p))[0]]
        pct = TAIL_PERCENTILE[self.workload]
        tail = statistics.quantiles(per_input, n=100, method="inclusive")[pct - 1]
        beyond = sum(1 for s in pooled if s > tail)
        wall = sum(p["wall_s"] for p in passes)
        scales = [p["scale"] for p in passes]
        values = {
            "setup_s": setup_s,
            "inputs_per_s": min(p["inputs_ok"] for p in passes) / typical["wall_s"],
            "input_p50_s": statistics.median(per_input),
            "input_tail_s": tail,
            "produce_s": sum(v for c, v in by_command.items() if c != "verify"),
            "verify_s": by_command["verify"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = [
            f"passes {len(passes)}, inputs per pass {len(self.inputs)}, timed wall {wall:.3f} s",
            "pass walls (s as measured) " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
            "pass speeds (reference chunk over measured chunk) "
            + " ".join(f"{x:.3f}" for x in scales),
            f"input_tail_s is p{pct} of {len(per_input)} per-input times, "
            f"{beyond} of {len(pooled)} pooled samples above it",
        ]
        slowest = sorted(zip(per_input, (i.name for i in self.inputs)), reverse=True)[:12]
        notes.append("slowest inputs (s): " + ", ".join(f"{n} {t:.3f}" for t, n in slowest))
        if beyond < 10:
            notes.append(f"warning: fewer than ten samples above p{pct}; run longer")
        for c in SUBCOMMANDS:
            notes.append(f"{c}_s {by_command[c]:.6f} s (per pass, lower quartile call by call)")
        return values, notes

    def per_layer(self) -> tuple:
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        names = sorted(self.tracer.wrapped)
        values = {}

        def med(fn):
            return _median([fn(p) for p in traced])

        for name in names:
            values[f"{name}.calls"] = med(lambda p: p["layers"]["calls"].get(name, 0))
            values[f"{name}.busy_s"] = med(
                lambda p: p["layers"]["busy"].get(name, 0.0) * p["scale"]
            )
            values[f"{name}.self_s"] = med(
                lambda p: p["layers"]["self"].get(name, 0.0) * p["scale"]
            )
        modules = sorted({n.split(".")[0] for n in names})
        for mod in modules:
            values[f"{mod}.self_s"] = med(
                lambda p: p["scale"] * sum(
                    v for n, v in p["layers"]["self"].items() if n.split(".")[0] == mod
                )
            )
        for c in COUNTERS:
            values[c] = med(lambda p: p["layers"]["counters"].get(c, 0))
        q_modular = values.get("linalg.homology_q_modular", 0)
        values["linalg.exact_fallback_ratio"] = (
            values.get("linalg.homology_q_bareiss", 0) / q_modular if q_modular else 0.0
        )
        values["hilbert.memo_entries"] = med(lambda p: p["memo_entries"])
        values["egh.over_budget"] = med(lambda p: p["over_budget"])
        traced_wall = med(lambda p: p["wall_s"] * p["scale"])
        plain_wall = _median([p["wall_s"] * p["scale"] for p in plain])
        values["trace.traced_pass_s"] = traced_wall
        values["trace.untraced_pass_s"] = plain_wall
        values["trace.overhead_s"] = traced_wall - plain_wall
        values["trace.accounted_share"] = med(
            lambda p: sum(p["layers"]["self"].values()) / p["wall_s"]
        )
        for c, seconds in self.typical_pass(plain)["by_command"].items():
            values[f"cmd.{c}_s"] = seconds
        notes = [
            f"passes {len(plain)} untraced + {len(traced)} traced, "
            f"spans kept {len(self.tracer.span_name)}, dropped {self.tracer.dropped}",
            f"tracing overhead {values['trace.overhead_s']:.3f} s per pass "
            f"({traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced)",
        ]
        return values, notes


def _remove(path: str):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _stored_digests() -> dict:
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store the first pass's per-call report digests for the default seed "
        "in bench/digests.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record-digests needs the default seed")
    spec = _benchmark_spec()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quadbalance.cli  # noqa: F401  (import time is part of setup)

    import_s = time.perf_counter() - PROCESS_START
    run = Run(args.workload, args.seed)
    if args.record_digests:
        run.stored = None
    repeats, chunks = [], []
    for _ in range(SETUP_REPEATS):
        chunks.append(calibration_chunk())
        start = time.perf_counter()
        run.setup_once()
        repeats.append(time.perf_counter() - start)
    setup_scale = REFERENCE_CHUNK_S / statistics.median(chunks)
    setup_s = (import_s + statistics.median(repeats)) * setup_scale

    if args.trace:
        run.tracer = Tracer()
    begin = time.perf_counter()
    while True:
        run.run_pass(traced=args.trace and len(run.passes) % 2 == 1)
        # stop before a pass that would end past --seconds; the longer of the
        # last two passes stands for the next (traced passes run slower)
        next_pass = max(p["wall_s"] for p in run.passes[-2:])
        ending = time.perf_counter() - begin + next_pass
        if ending > args.seconds and (not args.trace or len(run.passes) >= 2):
            break

    if args.record_digests:
        stored = _stored_digests()
        stored[args.workload] = run.reference
        with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if args.trace:
        values, notes = run.per_layer()
        wanted = spec["per_layer"]
        run.tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"))
        with open(os.path.join(OUT, f"layers-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(values, handle, indent=1, sort_keys=True)
    else:
        values, notes = run.end_to_end(setup_s)
        wanted = spec["end_to_end"]
    shutil.rmtree(run.work, ignore_errors=True)
    unmeasured = [m["name"] for m in wanted if m["name"] not in values]
    if unmeasured:
        # a renamed or unwrapped function: its metrics would silently read 0
        print(f"error: BENCHMARK.json names metrics this run did not measure: {unmeasured}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"failed_share {run.failed / run.attempted:.6f} ratio "
          f"({run.failed} of {run.attempted} calls)")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
