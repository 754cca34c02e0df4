"""Command-line interface.

Subcommands: bspline, zeros, extend, verify, conjecture, boxspline.
Exit codes: 0 = ran (and, for verifications, no violations); 1 = a
verification found a violation; 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boxspline import (
    conjecture_verdict,
    box_spline_eval,
    format_matrix,
    parse_vector_config,
)
from .bspline import cardinal_bspline, extend_compact
from .errors import FormatError, SplineZerosError
from .harness import (MAX_DENOMINATOR_BOUND, MAX_INTERIOR_KNOTS, MAX_NUMERATOR_BOUND,
                      MAX_TRIALS, SUITE_KINDS, GeneratorConfig, run_verification_suite)
from .rational import format_rational, parse_rational
from .spline import (
    MAX_CARDINAL_DEGREE,
    Spline,
    insert_knot,
    separated_zero_count,
    spline_eval,
    spline_from_document,
    spline_to_document,
)


def build_parser() -> argparse.ArgumentParser:
    defaults = GeneratorConfig._field_defaults
    parser = argparse.ArgumentParser(
        prog="splinezeros",
        description="Exact spline zero counting and box-spline "
                    "collocation determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bspline", help="print (and evaluate) a cardinal B-spline")
    p.add_argument("--m", type=int, required=True,
                   help=f"degree (1..{MAX_CARDINAL_DEGREE})")
    p.add_argument("--eval", dest="eval_at", metavar="P/Q",
                   help="evaluate at a rational point")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("zeros", help="separated-zero census of a spline file")
    p.add_argument("--in", dest="infile", required=True, metavar="SPLINE.JSON")
    p.add_argument("--from", dest="from_", metavar="P/Q",
                   help="census window start (default: first knot)")
    p.add_argument("--to", dest="to", metavar="P/Q",
                   help="census window end (default: last knot)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("extend", help="extend a spline to compact support")
    p.add_argument("--in", dest="infile", required=True, metavar="SPLINE.JSON")
    p.add_argument("--out", dest="outfile", required=True, metavar="OUT.JSON")

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--kind", required=True, choices=SUITE_KINDS)
    p.add_argument("--m", type=int, required=True,
                   help=f"spline degree (1..{MAX_CARDINAL_DEGREE})")
    p.add_argument("--knots", type=int, required=True,
                   help=f"index n of the last knot, 1..{MAX_INTERIOR_KNOTS + 1} "
                        "(window [0, n], n-1 random interior knots)")
    p.add_argument("--trials", type=int, required=True,
                   help=f"number of random splines, 1..{MAX_TRIALS}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-bound", type=int, default=defaults["numerator_bound"],
                   help="largest |numerator| of a random coefficient, "
                        f"1..{MAX_NUMERATOR_BOUND} (default %(default)s)")
    p.add_argument("--den-bound", type=int, default=defaults["denominator_bound"],
                   help="largest denominator of a random knot or coefficient, "
                        f"1..{MAX_DENOMINATOR_BOUND} (default %(default)s)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("conjecture",
                       help="build A_X and report its exact determinant")
    p.add_argument("--vectors", required=True,
                   help='e.g. "1,0;1,1;0,1" (semicolon-separated vectors)')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("boxspline", help="evaluate a box spline at a point")
    p.add_argument("--vectors", required=True)
    p.add_argument("--eval", dest="eval_at", required=True, metavar="X[,Y]")

    return parser


def _cmd_bspline(args) -> int:
    b = cardinal_bspline(args.m)
    doc = spline_to_document(b)
    value = None
    if args.eval_at is not None:
        value = spline_eval(b, parse_rational(args.eval_at))
    if args.json:
        out = {"command": "bspline", "m": args.m, **doc}
        if value is not None:
            out["eval_at"] = args.eval_at
            out["value"] = format_rational(value)
        print(json.dumps(out, indent=2))
    else:
        print(f"B_{args.m}: degree {args.m}, knots {doc['knots']}")
        for knot, piece in zip(["-inf"] + doc["knots"], doc["pieces"]):
            print(f"  piece right of {knot}: {piece}")
        if value is not None:
            print(f"B_{args.m}({args.eval_at}) = {format_rational(value)}")
    return 0


def _read_spline(path: str) -> Spline:
    """The spline document in the file at path. Text that is not UTF-8 or
    not JSON and an integer literal past Python's digit limit (each a
    ValueError), and arrays nested past the recursion limit, raise
    FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: {exc}") from None
    return spline_from_document(doc)


def _cmd_zeros(args) -> int:
    s = _read_spline(args.infile)
    a = parse_rational(args.from_) if args.from_ else s.knots[0]
    b = parse_rational(args.to) if args.to else s.knots[-1]
    for point in (a, b):
        if point not in s.knots:
            s = insert_knot(s, point)
    z, report = separated_zero_count(s, a, b)
    if args.json:
        out = {
            "command": "zeros",
            "window": [format_rational(a), format_rational(b)],
            "Z": z,
            "domains": [
                {
                    "left": format_rational(d.left),
                    "right": format_rational(d.right),
                    "identically_zero": d.identically_zero,
                    "open_interior_distinct_roots":
                        d.open_interior_distinct_roots,
                }
                for d in report.domains
            ],
            "knot_value_zero": list(report.knot_value_zero),
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"window [{format_rational(a)}, {format_rational(b)}]: Z = {z}")
        for d in report.domains:
            if d.identically_zero:
                desc = "identically zero"
            else:
                desc = f"{d.open_interior_distinct_roots} interior root(s)"
            print(f"  [{format_rational(d.left)}, {format_rational(d.right)}]: "
                  f"{desc}")
    return 0


def _cmd_extend(args) -> int:
    s = _read_spline(args.infile)
    extension = extend_compact(s)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        json.dump(spline_to_document(extension), fh, indent=2)
        fh.write("\n")
    print(f"extended: knots {len(s.knots)} -> {len(extension.knots)}, "
          f"support [{format_rational(extension.knots[0])}, "
          f"{format_rational(extension.knots[-1])}]")
    return 0


def _cmd_verify(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        degree=args.m,
        interior_knots=args.knots - 1,
        numerator_bound=args.num_bound,
        denominator_bound=args.den_bound,
    )
    report = run_verification_suite(args.kind, cfg, args.trials)
    if args.json:
        print(json.dumps(report.to_document(), indent=2))
    else:
        print(f"{args.kind}: {report.trials} trials, "
              f"{report.violations} violations, max Z = {report.max_Z}, "
              f"bound = {report.bound}, witnesses = {len(report.witnesses)}, "
              f"{report.elapsed_ms} ms")
    return 1 if report.violations else 0


def _cmd_conjecture(args) -> int:
    config = parse_vector_config(args.vectors)
    verdict = conjecture_verdict(config)
    if args.json:
        out = {
            "command": "conjecture",
            "vectors": str(config),
            "omega": [[format_rational(c) for c in w] for w in verdict.omega],
            "omega_size": len(verdict.omega),
            "unimodular": verdict.unimodular,
            "matrix": [
                [format_rational(verdict.matrix.get(i, j))
                 for j in range(verdict.matrix.cols)]
                for i in range(verdict.matrix.rows)
            ],
            "determinant": format_rational(verdict.determinant),
            "invertible": verdict.invertible,
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"configuration: {config}")
        print(f"|Omega| = {len(verdict.omega)}")
        print("A_X =")
        print(format_matrix(verdict.matrix))
        print(f"det = {format_rational(verdict.determinant)}")
        print(f"unimodular: {'yes' if verdict.unimodular else 'no'}")
        print(f"invertible: {'yes' if verdict.invertible else 'NO'}")
    return 0


def _cmd_boxspline(args) -> int:
    config = parse_vector_config(args.vectors)
    point = [parse_rational(c) for c in args.eval_at.split(",")]
    value = box_spline_eval(config, point)
    print(f"B_X({args.eval_at}) = {format_rational(value)}")
    return 0


_HANDLERS = {
    "bspline": _cmd_bspline,
    "zeros": _cmd_zeros,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "boxspline": _cmd_boxspline,
}


def main(argv=None) -> int:
    """Run one subcommand. argparse would read a value such as -1/2 as an
    option, so a single-dash token other than -h after a --option is passed
    as --option=token."""
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if (tokens and tokens[-1][:2] == "--" and "=" not in tokens[-1]
                and token[:1] == "-" and token[:2] != "--" and token != "-h"):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        return _HANDLERS[args.command](args)
    except (SplineZerosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
