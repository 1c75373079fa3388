"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a counterexample or
mismatch is printed), 2 usage error (including an --out file that
cannot be written).  All output is deterministic for a given command
line.  Each command's JSON output conforms to the versioned schema
shipped under schemas/.  Each subcommand imports the library modules
it runs, so starting the CLI loads none of them.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_schema(command: str, version: int = 1) -> dict:
    """The JSON schema describing a command's --format json output."""
    from importlib import resources

    text = (
        resources.files("ascentseq.schemas")
        .joinpath(f"{command}.v{version}.schema.json")
        .read_text()
    )
    return json.loads(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _count_tsv(counts) -> str:
    return "".join(f"{n}\t{c}\n" for n, c in enumerate(counts))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascentseq",
        description="Exact counting, series, bijections and Wilf classes "
        "for 021-avoiding ascent sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count avoiders of a pattern set by length")
    p.add_argument("--patterns", required=True, help='e.g. "021,0010"')
    p.add_argument("--n", "--horizon", dest="horizon", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv", "bfile"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("series", help="expand a catalog generating function")
    p.add_argument("--pattern", required=True, help="021 or a length-4 pattern")
    p.add_argument("--order", "--n", dest="order", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv", "bfile"), default="json")
    p.add_argument(
        "--verify-n",
        type=int,
        default=None,
        help="cross-check coefficients against the search count up to this length",
    )
    p.add_argument("--out")

    p = sub.add_parser("wilf", help="classify a pattern universe by count vectors")
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--horizon", "--n", dest="horizon", type=int, default=12)
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("bijection", help="verify an avoidance-class bijection")
    p.add_argument("--map", required=True, dest="map_id",
                   help="e.g. 1100-to-1000, or tuple-jumps with --r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="jump bound for tuple-jumps")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out")

    p = sub.add_parser("distribution", help="statistic distribution tables")
    p.add_argument("--statistic", choices=("pjum", "jum"), default="pjum")
    p.add_argument("--patterns", help="pattern set for pjum (e.g. 021,0111)")
    p.add_argument("--horizon", "--n", dest="horizon", type=int, required=True)
    p.add_argument("--max-jumps", type=int, default=4,
                   help="column cap for the jum statistic")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("catalog", help="list the generating function catalog")
    p.add_argument("--pattern", default=None, help="restrict to one pattern")
    p.add_argument("--order", "--n", dest="order", type=int, default=12)
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out")

    return parser


def _cmd_count(args, parser) -> int:
    from .patterns import count_avoiders

    cv = count_avoiders(args.patterns, args.horizon)
    if args.format == "json":
        text = _json(cv.to_json_dict())
    elif args.format == "tsv":
        text = _count_tsv(cv.counts)
    else:
        text = cv.to_bfile()
    _emit(text, args.out)
    return 0


def _cmd_series(args, parser) -> int:
    from .core import _check_length
    from .patterns import PatternSet, count_avoiders
    from .series import gf_catalog

    _check_length(args.order)  # gf_catalog has no cap of its own
    series = gf_catalog(args.pattern, args.order)
    coeffs = series.int_coeffs()
    if args.verify_n is not None:
        searched = count_avoiders(
            PatternSet.of("021", args.pattern), args.verify_n
        ).counts
        upto = min(args.verify_n, args.order)
        if searched[: upto + 1] != coeffs[: upto + 1]:
            bad = next(
                n for n in range(upto + 1) if searched[n] != coeffs[n]
            )
            sys.stderr.write(
                f"verification failed for {args.pattern} at n={bad}: "
                f"search count {searched[bad]} != series {coeffs[bad]}\n"
            )
            return 1
    if args.format == "json":
        data = series.to_json_dict()
        data["pattern"] = args.pattern
        text = _json(data)
    elif args.format == "tsv":
        text = _count_tsv(coeffs)
    else:
        text = series.to_bfile()
    _emit(text, args.out)
    return 0


def _cmd_wilf(args, parser) -> int:
    from .wilf import wilf_classify

    report = wilf_classify(args.length, args.horizon)
    if args.format == "json":
        text = _json(report.to_json_dict())
    else:
        text = report.to_markdown()
    _emit(text, args.out)
    return 0


def _cmd_bijection(args, parser) -> int:
    from .bijections import BIJECTIONS, verify_bijection, verify_tuple_bijection

    if args.map_id == "tuple-jumps":
        if args.r is None:
            parser.error("tuple-jumps needs --r")
        report = verify_tuple_bijection(args.r, args.n)
    elif args.map_id in BIJECTIONS:
        if args.r is not None:
            parser.error(f"--r applies only to tuple-jumps, not {args.map_id}")
        report = verify_bijection(args.map_id, args.n)
    else:
        parser.error(
            f"unknown map {args.map_id!r}; choose from "
            f"{', '.join(sorted(BIJECTIONS))}, tuple-jumps"
        )
    _emit(_json(report.to_json_dict()), args.out)
    if not report.success:
        for failure in report.failures[:3]:
            sys.stderr.write(f"counterexample: {failure}\n")
        if report.domain_size != report.codomain_size:
            sys.stderr.write(
                f"cardinality mismatch: domain {report.domain_size} vs "
                f"codomain {report.codomain_size}\n"
            )
        return 1
    return 0


def _cmd_distribution(args, parser) -> int:
    from .recur import jump_distribution, pjum_distribution

    if args.statistic == "pjum":
        if not args.patterns:
            parser.error("pjum distribution needs --patterns")
        table = pjum_distribution(args.patterns, args.horizon)
    else:
        table = jump_distribution(args.horizon, args.max_jumps)
    text = _json(table.to_json_dict()) if args.format == "json" else table.to_tsv()
    _emit(text, args.out)
    return 0


def _cmd_catalog(args, parser) -> int:
    from .core import _check_length
    from .series import RESTRICTIVE_PATTERNS, gf_catalog

    _check_length(args.order)  # gf_catalog has no cap of its own
    names = [args.pattern] if args.pattern else ["021", *RESTRICTIVE_PATTERNS]
    entries = []
    for name in names:
        coeffs = gf_catalog(name, args.order).int_coeffs()
        entries.append({"pattern": name, "counts": list(coeffs)})
    if args.format == "json":
        text = _json({"order": args.order, "entries": entries})
    else:
        lines = ["| pattern | counts |", "|---|---|"]
        for e in entries:
            lines.append(
                f"| {e['pattern']} | " + ", ".join(map(str, e["counts"])) + " |"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "series": _cmd_series,
    "wilf": _cmd_wilf,
    "bijection": _cmd_bijection,
    "distribution": _cmd_distribution,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except ArithmeticError as exc:
        sys.stderr.write(f"error: internal check failed: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
