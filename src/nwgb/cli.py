"""Command line: inspect diagrams, emit Fulton generators, synthesize union
bases, and run the verification suites.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input
errors.  Data goes to stdout (or --out); verification reports go to stderr
so JSON output stays parseable.

Every run builds its parser cold, so the parser holds only what the given
command needs: every command's name and help, for the top-level help and
errors, and the arguments of the one command named.  Each formatter is
also given the help width, which argparse would otherwise read through
``shutil``, an import that loads the compression modules.
"""

import argparse
import functools
import os
import reprlib
import sys
from typing import Sequence

from .ideals import fulton_generators, generator_polynomials, load_spec, spec_to_json
from .groebner import buchberger
from .permutations import diagram_json, diagram_text, parse_one_line
from .polynomials import json_text, polynomial_text
from .union import basis_json_text, union_basis
from .verify import (
    SUITES,
    full_oracle_verdicts,
    membership_failures,
    run_suite,
    spec_bases,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _help_width() -> int:
    """The width argparse's default formatter takes from
    ``shutil.get_terminal_size().columns - 2``: COLUMNS, else the terminal
    on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is registered with its name
    and help, so the top-level help and errors are whole, but only the
    command argparse will dispatch to, the first argument that is not an
    option, gets its arguments."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    formatter = functools.partial(argparse.HelpFormatter, width=_help_width())
    parser = argparse.ArgumentParser(
        prog="nwgb",
        description="Groebner bases for unions of schemes given by northwest rank conditions",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=help_text, formatter_class=formatter)
        if name == command:
            for flag, options in arguments:
                p_command.add_argument(flag, **options)
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
        raise ValueError(
            f"ambient {reprlib.repr(ambient)} exceeds the full-oracle guard "
            f"(--max-oracle-n={reprlib.repr(args.max_oracle_n)})"
        )
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
        groebner_ok, equal_ok = full_oracle_verdicts(polys, bases, not failures)
        print(
            f"groebner criterion: {'ok' if groebner_ok else 'FAILED'}", file=sys.stderr
        )
        print(
            f"ideal equality vs oracle intersection: {'ok' if equal_ok else 'FAILED'}",
            file=sys.stderr,
        )
        ok = ok and groebner_ok and equal_ok
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        # the count goes to the sampled suites only
        runs = [
            (name, None if default is None else args.cases)
            for name, (_, default) in sorted(SUITES.items())
        ]
    else:
        runs = [(args.suite, args.cases)]
    reports = [run_suite(name, seed=args.seed, cases=cases) for name, cases in runs]
    lines = [report.summary() for report in reports]
    for report in reports:
        lines.extend(f"  {detail}" for detail in report.failures)
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


_OUT = ("--out", {"default": None, "help": "write output to this path"})
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_SPEC = ("spec", {"help": "path to a spec JSON file"})

# name -> (help, the add_argument calls of its parser, handler)
_COMMANDS = {
    "diagram": (
        "Rothe diagram, essential set and rank matrix",
        [_OUT, _FORMAT, ("permutation", {"help": 'one-line notation, e.g. "2 1 4 3"'})],
        _cmd_diagram,
    ),
    "fulton": ("Fulton generators of one spec file", [_OUT, _FORMAT, _SPEC], _cmd_fulton),
    "groebner": (
        "reduced Groebner basis of one spec's ideal",
        [_OUT, _FORMAT, _SPEC],
        _cmd_groebner,
    ),
    "union": (
        "Groebner basis of the intersection of the specs",
        [
            _OUT,
            _FORMAT,
            ("specs", {"nargs": "+", "help": "paths to spec JSON files"}),
            (
                "--verify",
                {
                    "choices": ("none", "membership", "full-oracle"),
                    "default": "none",
                    "help": "check the emitted basis against the oracle",
                },
            ),
            (
                "--max-oracle-n",
                {
                    "type": int,
                    "default": 5,
                    "help": "largest ambient size allowed under --verify=full-oracle",
                },
            ),
        ],
        _cmd_union,
    ),
    "verify": (
        "run a property suite",
        [  # a suite report is text only
            _OUT,
            ("suite", {"help": f"one of: all, {', '.join(sorted(SUITES))}"}),
            ("--seed", {"type": int, "default": 0}),
            ("--cases", {"type": int, "default": None}),
        ],
        _cmd_verify,
    ),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (OSError, ValueError) as exc:
        # the handlers raise these only on bad input: an unreadable spec or
        # --out path, a malformed spec or permutation, mismatched ambients,
        # an ambient over the full-oracle guard, an unknown suite, a --seed
        # below 0, a --cases below 1 or given to an exhaustive suite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())
