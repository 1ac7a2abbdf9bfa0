"""Command-line interface: JSON in, JSON out, deterministic bytes.

Subcommands: analyze, regseq, egh, balance, verify.  Input is a file path or
"-" for stdin, holding an ideal ("n"/"generators"), a complex
("vertices"/"facets"), or a graph ("vertices"/"edges", read as its
independence complex).  Exit codes: 0 success, 1 verified negative (a failed
certificate, a non-CM input to balance), 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BudgetExceededError,
    InputError,
    NotCohenMacaulayError,
    RegularSequenceNotFoundError,
    UnattainableTargetError,
)
from .fields import parse_field_spec
from .jsonio import canonical_json, load_input_obj, parse_json_text
from .reports import (
    SEED_RANGE,
    analyze_report,
    balance_report,
    egh_report,
    regseq_report,
    verify_report,
)
from .simplicial import complex_of_ideal, stanley_reisner


def _int_in(low: int, high: int | None = None):
    """argparse type for an integer in low..high, or >= low without a high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be an integer {span}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadbalance",
        description="Regular sequences, powers-plus-lex realizations, and "
        "balanced companions of flag complexes, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, max_degree=False):
        p.add_argument("input", help='input JSON file, or "-" for stdin')
        p.add_argument(
            "--field",
            default="q",
            metavar="q|p:<prime>",
            help="coefficient field (default: q, the rationals)",
        )
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--json", action="store_true", help="canonical JSON to stdout (default)"
        )
        mode.add_argument(
            "--pretty", action="store_true", help="human-readable summary instead"
        )
        p.add_argument("--out", metavar="FILE", help="also write canonical JSON here")
        if budget:
            p.add_argument(
                "--budget",
                type=_int_in(0),
                default=16,
                metavar="N",
                help="largest polarized support (the sum of the per-variable "
                "maximal exponents) allowed for projective dimension (default 16)",
            )
        if max_degree:
            p.add_argument(
                "--max-degree",
                type=_int_in(0),
                default=None,
                metavar="D",
                help="cap on lex-pick degrees (default: none; the construction "
                "runs until series equality is certified)",
            )

    common(sub.add_parser("analyze", help="f/h-vectors, height, flagness, CM check"))

    p = sub.add_parser("regseq", help="regular sequence of variable-times-form products")
    common(p)
    p.add_argument(
        "--seed", type=_int_in(*SEED_RANGE), default=0, help="sampling seed (default 0)"
    )
    p.add_argument(
        "--prime",
        default=None,
        metavar="i,j,...",
        help="1-based variables of the minimal prime to use "
        "(default: lexicographically first smallest one)",
    )

    common(
        sub.add_parser("egh", help="powers-plus-lex ideal with the same Hilbert function"),
        budget=True,
        max_degree=True,
    )
    common(
        sub.add_parser("balance", help="balanced CM companion with the same h-vector"),
        max_degree=True,
    )
    common(
        sub.add_parser("verify", help="recheck an emitted report from its JSON alone"),
        budget=True,
        max_degree=True,
    )
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(args):
    return load_input_obj(parse_json_text(_read_text(args.input)))


def _need_complex(kind, value):
    if kind == "complex":
        return value
    # squarefree ideals convert through the face-ring correspondence
    if not value.is_squarefree():
        raise InputError(
            "this command needs a complex (or a squarefree ideal); "
            f"{value} has a non-squarefree generator"
        )
    return complex_of_ideal(value)


def _need_ideal(kind, value):
    if kind == "ideal":
        return value
    return stanley_reisner(value)


def _parse_prime(spec: str | None, n: int):
    if spec is None:
        return None
    try:
        members = tuple(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise InputError(f"--prime must be comma-separated integers, got {spec!r}") from exc
    for v in members:
        if not 1 <= v <= n:
            raise InputError(f"--prime member {v} out of range 1..{n}")
    return tuple(v - 1 for v in members)


def _dispatch(args):
    """Returns (report dict, exit code)."""
    field = parse_field_spec(args.field)
    if args.command == "verify":
        obj = parse_json_text(_read_text(args.input))
        verdict = verify_report(obj, budget=args.budget, max_degree=args.max_degree)
        return verdict, 0 if verdict["ok"] else 1
    kind, value = _load(args)
    if args.command == "analyze":
        return analyze_report(_need_complex(kind, value), field), 0
    if args.command == "regseq":
        ideal = _need_ideal(kind, value)
        prime = _parse_prime(args.prime, ideal.n)
        return regseq_report(ideal, field, args.seed, prime=prime), 0
    if args.command == "egh":
        ideal = _need_ideal(kind, value)
        return egh_report(ideal, field, args.max_degree, args.budget), 0
    return balance_report(_need_complex(kind, value), field, args.max_degree), 0


# ---------------------------------------------------------------------------
# human-readable summaries


def _ideal_line(obj: dict) -> str:
    gens = ", ".join(obj["generators"]) or "0"
    return f"({gens}) in {obj['n']} variable(s)"


def _form_text(entry: dict) -> str:
    parts = []
    for name in sorted(entry["coefficients"], key=lambda s: int(s[1:])):
        c = entry["coefficients"][name]
        parts.append(name if c == 1 else f"{c}*{name}")
    return f"x{entry['times_variable']} * ({' + '.join(parts)})"


def _vec(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _pretty_lines(report: dict) -> list:
    kind = report["kind"]
    if kind == "analyze":
        cm = "yes" if report["cm"] else "no"
        lines = [
            f"complex: {report['complex']['vertices']} vertices, "
            f"{len(report['complex']['facets'])} facets, dim {report['dim']}",
            f"f-vector: {_vec(report['f_vector'])}",
            f"h-vector: {_vec(report['h_vector'])}",
            f"height:   {report['height']}",
            f"flag:     {'yes' if report['flag'] else 'no'}",
            f"CM ({report['field']}): {cm} ({report['faces_checked']} links checked)",
        ]
        if report["cm_witness"]:
            w = report["cm_witness"]
            lines.append(
                f"witness: link of {w['face']} has homology rank {w['betti']} "
                f"in degree {w['degree']}"
            )
        return lines
    if kind == "regseq":
        lines = [
            f"ideal: {_ideal_line(report['ideal'])}",
            f"prime: ({', '.join('x%d' % p for p in report['prime'])}), "
            f"seed {report['seed']}, attempt {report['attempts']}",
            "sequence:",
        ]
        lines.extend(f"  {_form_text(entry)}" for entry in report["forms"])
        lines.append(
            f"all {report['subsets_checked']} subset ranks verified "
            f"over field {report['field']}"
        )
        return lines
    if kind == "egh":
        pds = tuple(
            "n/a (over budget)" if report[key] is None else report[key]
            for key in ("pd_source", "pd_result")
        )
        return [
            f"source: {_ideal_line(report['ideal'])}",
            f"powers: x1^2 .. x{report['powers']}^2" if report["powers"] else "powers: none",
            f"result: ({', '.join(report['generators'])})",
            f"series equal: {'yes' if report['series_equal'] else 'no'}",
            f"projective dimension: {pds[0]} -> {pds[1]}",
        ]
    if kind == "balance":
        return [
            f"input: {report['complex']['vertices']} vertices, "
            f"{len(report['complex']['facets'])} facets, h = {_vec(report['h_source'])}",
            f"g = {report['g']}, Artinian ideal "
            f"({', '.join(report['artinian_ideal']['generators'])})",
            f"result: {report['result']['vertices']} vertices, "
            f"{len(report['result']['facets'])} facets, h = {_vec(report['h_result'])}",
            f"coloring: {' '.join(str(c) for c in report['coloring'])}",
            f"CM input: {'yes' if report['cm_source']['cm'] else 'no'}   "
            f"CM result: {'yes' if report['cm_result']['cm'] else 'no'}",
        ]
    lines = [
        f"verify {report['target_kind']}: {'OK' if report['ok'] else 'FAILED'} "
        f"({len(report['checks_run'])} checks)"
    ]
    lines.extend(f"  {f['check']}: {f['detail']}" for f in report["failures"])
    return lines


def _emit(report: dict, args):
    text = canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    if args.pretty:
        print("\n".join(_pretty_lines(report)))
    else:
        print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = _dispatch(args)
        _emit(report, args)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotCohenMacaulayError, UnattainableTargetError) as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 1
    except RegularSequenceNotFoundError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
