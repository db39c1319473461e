"""Command line: inspect diagrams, emit Fulton generators, synthesize union
bases, and run the verification suites.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input
errors.  Data goes to stdout (or --out); verification reports go to stderr
so JSON output stays parseable.
"""

import argparse
import reprlib
import sys

from .ideals import fulton_generators, generator_polynomials, load_spec, spec_to_json
from .groebner import buchberger, generates, intersect_many, is_groebner
from .permutations import diagram_json, diagram_text, parse_one_line
from .polynomials import json_text, polynomial_text
from .union import basis_json_text, union_basis
from .verify import (
    EXHAUSTIVE,
    SUITES,
    membership_failures,
    run_suite,
    spec_bases,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwgb",
        description="Groebner bases for unions of schemes given by northwest rank conditions",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_diagram = sub.add_parser(
        "diagram", parents=[common], help="Rothe diagram, essential set and rank matrix"
    )
    p_diagram.add_argument("permutation", help='one-line notation, e.g. "2 1 4 3"')

    p_fulton = sub.add_parser(
        "fulton", parents=[common], help="Fulton generators of one spec file"
    )
    p_fulton.add_argument("spec", help="path to a spec JSON file")

    p_groebner = sub.add_parser(
        "groebner", parents=[common], help="reduced Groebner basis of one spec's ideal"
    )
    p_groebner.add_argument("spec", help="path to a spec JSON file")

    p_union = sub.add_parser(
        "union", parents=[common], help="Groebner basis of the intersection of the specs"
    )
    p_union.add_argument("specs", nargs="+", help="paths to spec JSON files")
    p_union.add_argument(
        "--verify",
        choices=("none", "membership", "full-oracle"),
        default="none",
        help="check the emitted basis against the oracle",
    )
    p_union.add_argument(
        "--max-oracle-n",
        type=int,
        default=5,
        help="largest ambient size allowed under --verify=full-oracle",
    )

    # a suite report is text only
    p_verify = sub.add_parser("verify", parents=[out], help="run a property suite")
    p_verify.add_argument("suite", help=f"one of: all, {', '.join(sorted(SUITES))}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=None)
    return parser


def _emit(text: str, args: argparse.Namespace):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_diagram(args: argparse.Namespace) -> int:
    p = parse_one_line(args.permutation)
    if args.format == "json":
        _emit(json_text(diagram_json(p)) + "\n", args)
    else:
        _emit(diagram_text(p), args)
    return EXIT_OK


def _cmd_fulton(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    gens = fulton_generators(spec)
    if args.format == "json":
        payload = {
            "spec": spec_to_json(spec),
            "generators": [
                {
                    "rows": list(g.rows),
                    "cols": list(g.cols),
                    "condition": {
                        "i": g.source.row,
                        "j": g.source.col,
                        "r": g.source.max_rank,
                    },
                    "poly": g.poly,
                }
                for g in gens
            ],
        }
        _emit(json_text(payload) + "\n", args)
    else:
        _emit("".join(polynomial_text(g.poly) + "\n" for g in gens), args)
    return EXIT_OK


def _cmd_groebner(args: argparse.Namespace) -> int:
    basis = buchberger(generator_polynomials(load_spec(args.spec)))
    if args.format == "json":
        _emit(json_text(basis) + "\n", args)
    else:
        _emit("".join(polynomial_text(f) + "\n" for f in basis), args)
    return EXIT_OK


def _cmd_union(args: argparse.Namespace) -> int:
    specs = [load_spec(path) for path in args.specs]
    ambient = specs[0].ambient_n
    if args.verify == "full-oracle" and ambient > args.max_oracle_n:
        print(
            f"error: ambient {reprlib.repr(ambient)} exceeds the full-oracle guard "
            f"(--max-oracle-n={args.max_oracle_n})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    basis = union_basis(specs)
    if args.format == "json":
        _emit(basis_json_text(basis) + "\n", args)
    else:
        _emit("".join(polynomial_text(g.poly) + "\n" for g in basis), args)
    if args.verify == "none":
        return EXIT_OK

    polys = [g.poly for g in basis]
    bases = spec_bases(specs)
    failures = membership_failures(polys, specs, bases)
    print(
        f"membership: {len(basis) * len(specs)} checks, {len(failures)} failures",
        file=sys.stderr,
    )
    ok = not failures
    if args.verify == "full-oracle":
        groebner_ok = is_groebner(polys)
        print(
            f"groebner criterion: {'ok' if groebner_ok else 'FAILED'}", file=sys.stderr
        )
        equal_ok = generates(polys, intersect_many(bases))
        print(
            f"ideal equality vs oracle intersection: {'ok' if equal_ok else 'FAILED'}",
            file=sys.stderr,
        )
        ok = ok and groebner_ok and equal_ok
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        # the count goes to the sampled suites only
        runs = [(name, None if name in EXHAUSTIVE else args.cases) for name in sorted(SUITES)]
    else:
        runs = [(args.suite, args.cases)]
    try:
        reports = [run_suite(name, seed=args.seed, cases=cases) for name, cases in runs]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    lines = [report.summary() for report in reports]
    for report in reports:
        lines.extend(f"  {detail}" for detail in report.failures)
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


_HANDLERS = {
    "diagram": _cmd_diagram,
    "fulton": _cmd_fulton,
    "groebner": _cmd_groebner,
    "union": _cmd_union,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        # the handlers raise these only on bad input: an unreadable spec or
        # --out path, a malformed spec or permutation, mismatched ambients,
        # a --cases below 1 or given to an exhaustive suite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())
