"""Self-test of the benchmark harness on tiny inputs; exits 1 on any failure.

    python3 bench/selftest.py

Checks that a run prints every metric BENCHMARK.json names, with and
without tracing; that a per-layer metric the tracer cannot measure (a
function it did not wrap) stops the run instead of reading 0; that an
expected exit 3 (egh over budget) is not counted as a failure; and that a
tampered report (one regseq coefficient changed) is counted as one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# x1^2..x7^2 polarizes to support 14 > 12, so egh --budget 12 must exit 3
OVER_BUDGET = (7, [tuple(2 if i == j else 0 for i in range(7)) for j in range(7)])


def tiny(seed: int, work: str) -> list:
    path = workloads.write_ideal(work, "triangle", 3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    over = workloads.write_ideal(work, "over", *OVER_BUDGET)
    c5 = os.path.join(work, "c5.json")
    with open(c5, "w", encoding="utf-8") as handle:
        json.dump({"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}, handle)
    return [
        workloads.Input("triangle", workloads.ideal_stream_calls(work, "triangle", path, seed, 2)),
        workloads.Input("over", workloads.ideal_stream_calls(work, "over", over, seed, 14)),
        workloads.Input("c5", workloads.flag_calls(work, "c5", c5, True)),
    ]


def tampered(seed: int, work: str) -> list:
    inputs = tiny(seed, work)
    regseq_argv = inputs[0].calls[0][0]
    code, out, _ = workloads.call_cli(regseq_argv[: regseq_argv.index("--out")])
    report = json.loads(out)
    form = report["forms"][0]["coefficients"]
    key = sorted(form)[0]
    form[key] += 1
    bad = os.path.join(work, "tampered.report.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    inputs.append(workloads.Input("tampered", ((["verify", bad], 0),)))
    return inputs


def _run(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def main() -> int:
    workloads.WORKLOADS.update(tiny=tiny, tampered=tampered)
    run.TAIL_PERCENTILE.update(tiny=50, tampered=50)
    spec = run._benchmark_spec()
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = _run("tiny", trace)
        names = [m["name"] for m in spec[key]]
        printed = {line.split(" ")[0] for line in lines[:-1]}
        missing = [n for n in names if n not in printed or n not in result["metrics"]]
        if code != 0 or missing or set(result["metrics"]) != set(names):
            problems.append(f"trace {trace}: metrics missing or extra: {missing}")
        if result["failed"] != 0 or result["correct"] is not True:
            problems.append(f"trace {trace}: the expected exit 3 counted as a failure")

    # a per-layer metric of a function the tracer did not wrap (renamed, say)
    # must stop the run, not print 0
    bogus = dict(spec, per_layer=spec["per_layer"] + [
        {"name": "covers.no_such_function.calls", "unit": "count", "better": "lower"}
    ])
    real_spec = run._benchmark_spec
    run._benchmark_spec = lambda: bogus
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0", "--trace", "1"])
    finally:
        run._benchmark_spec = real_spec
    if code == 0:
        problems.append("an unmeasured per-layer metric did not stop the run")

    code, lines, result = _run("tampered", 0)
    passes = int(next(line for line in lines if line.startswith("passes ")).split()[1].rstrip(","))
    if result["failed"] != passes or result["correct"] is not False:
        problems.append(
            f"tampered report: {result['failed']} failures over {passes} passes, expected one a pass"
        )

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
