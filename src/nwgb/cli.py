"""Command line: inspect diagrams, emit Fulton generators, synthesize union
bases, and run the verification suites.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input
errors.  Data goes to stdout (or --out); verification reports go to stderr
so JSON output stays parseable.  Input whose work, counted from the specs
or the permutation before any minor or rank matrix is built, passes
``nwgb.ideals.WORK_LIMIT`` exits 2 before any output.  ``nwgb union``
writes each generator as its packed product is formed and then drops it;
--verify, whose checks divide every product, forms each once before the
write and keeps it, so the writer and the checks read one product.
A closed stdout or stderr pipe also ends a run with exit 2, and with no
``error:`` line, since it is no bad input (see ``run``).

``_COMMANDS`` is the one description of each command's arguments.  Every
run starts cold, so ``main`` first reads argv straight from that table
(``_read_args``) and builds argparse from it only for what the reader
declines: help, usage errors and the rarer spellings argparse also takes
(abbreviated flags, values that start with "-").  A successful run of the
plain form so loads neither argparse nor the ``gettext`` and ``locale``
imports behind its messages, and argparse alone writes help, usage and
error text.  No command imports ``typing``, and only the sampled suites
import ``random``.  The import ends with ``gc.freeze()`` (see there), so
the collections a command triggers walk only the objects it made.
"""

import gc
import os
import sys
from collections.abc import Iterable, Sequence
from itertools import chain
from types import SimpleNamespace

from .ideals import check_work, fulton_generators, generator_polynomials, load_spec, spec_to_json
from .groebner import buchberger
from .permutations import diagram_json, diagram_text, parse_one_line
from .polynomials import json_text, polynomial_text
from .union import basis_json_chunks, basis_text_chunks, hold, union_basis
from .verify import SUITES, run_suite, union_verdicts

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _build_parser():
    """argparse's parser for every command in ``_COMMANDS``.  argparse
    swallows an error in writing its help, usage and error text, so a help
    written unbuffered into a closed pipe would exit 0; this parser and
    its subparsers let the error rise to ``run``, as every other write of
    a run does."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            if message:
                (file or sys.stderr).write(message)

    parser = Parser(
        prog="nwgb",
        description="Groebner bases for unions of schemes given by northwest rank conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p_command.add_argument(flag, **options)
    return parser


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` gives, read from
    ``_COMMANDS`` without argparse, or None unless argv has the plain form:
    a command, then its own flags spelled in full as ``--flag=value`` or
    ``--flag value``, each value not starting with "-" and passing the
    flag's type and choices (the last of a repeated flag wins), and one
    unbroken run of positionals: exactly one, or at least one for
    ``nargs="+"``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    flags = {}
    for flag, options in _COMMANDS[argv[0]][1]:
        if flag.startswith("-"):
            dest = flag[2:].replace("-", "_")
            flags[flag] = (dest, options)
            values[dest] = options.get("default")
        else:
            positional, many = flag, options.get("nargs") == "+"
    tokens = iter(argv[1:])
    positionals, closed = [], False
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            positionals.append(token)
            continue
        closed = bool(positionals)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            return None
        if not eq:
            value = next(tokens, "-")
        # a missing value, and one that starts with "-" in either spelling,
        # go to argparse, which also reads --flag=-- as an empty list
        if value.startswith("-"):
            return None
        dest, options = flags[flag]
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest] = value
    if len(positionals) != 1 and not (many and positionals):
        return None
    values[positional] = positionals if many else positionals[0]
    return SimpleNamespace(**values)


def _emit(pieces: Iterable[str], args: SimpleNamespace):
    """Write each piece of text as it arrives, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _cmd_diagram(args: SimpleNamespace) -> int:
    p = parse_one_line(args.permutation)
    check_work(p.n**2)  # the entries of its rank matrix
    if args.format == "json":
        _emit([json_text(diagram_json(p)) + "\n"], args)
    else:
        _emit([diagram_text(p)], args)
    return EXIT_OK


def _cmd_fulton(args: SimpleNamespace) -> int:
    spec = load_spec(args.spec)
    gens = fulton_generators(spec)
    if args.format == "json":
        payload = {
            "spec": spec_to_json(spec),
            "generators": [
                {
                    "rows": list(rows),
                    "cols": list(cols),
                    "condition": {"i": cond.row, "j": cond.col, "r": cond.max_rank},
                    "poly": poly,
                }
                for cond, rows, cols, poly in gens
            ],
        }
        _emit([json_text(payload) + "\n"], args)
    else:
        _emit(["".join(polynomial_text(poly) + "\n" for _, _, _, poly in gens)], args)
    return EXIT_OK


def _cmd_groebner(args: SimpleNamespace) -> int:
    basis = buchberger(generator_polynomials(load_spec(args.spec)))
    if args.format == "json":
        _emit([json_text(basis) + "\n"], args)
    else:
        _emit(["".join(polynomial_text(f) + "\n" for f in basis)], args)
    return EXIT_OK


def _cmd_union(args: SimpleNamespace) -> int:
    specs = [load_spec(path) for path in args.specs]
    basis = union_basis(specs)
    # --verify holds every product; otherwise each is formed, written and
    # dropped
    if args.verify != "none":
        basis = hold(basis)
    if args.format == "json":
        _emit(chain(basis_json_chunks(basis), ["\n"]), args)
    else:
        _emit(basis_text_chunks(basis), args)
    if args.verify == "none":
        return EXIT_OK

    failures, groebner_ok, equal_ok = union_verdicts(basis, specs, args.verify)
    print(
        f"membership: {len(basis) * len(specs)} checks, {len(failures)} failures",
        file=sys.stderr,
    )
    if args.verify == "membership":
        return EXIT_VERIFY if failures else EXIT_OK
    print(f"groebner criterion: {'ok' if groebner_ok else 'FAILED'}", file=sys.stderr)
    print(
        f"ideal equality vs oracle intersection: {'ok' if equal_ok else 'FAILED'}",
        file=sys.stderr,
    )
    return EXIT_OK if not failures and groebner_ok and equal_ok else EXIT_VERIFY


def _cmd_verify(args: SimpleNamespace) -> int:
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
    _emit(["\n".join(lines) + "\n"], args)
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
    args = _read_args(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv, SimpleNamespace())
        # argparse reads --flag=-- as an empty list
        for flag, options in _COMMANDS[args.command][1]:
            dest = flag.lstrip("-").replace("-", "_")
            if options.get("nargs") != "+" and isinstance(getattr(args, dest), list):
                parser.error(f"argument {flag}: expected one argument")
    try:
        return _COMMANDS[args.command][2](args)
    except BrokenPipeError:  # the reader went away: no bad input, see run
        raise
    except (OSError, ValueError) as exc:
        # the handlers raise these only on bad input: an unreadable spec or
        # --out path, a malformed spec or permutation, mismatched ambients,
        # a spec or union whose work passes WORK_LIMIT, an unknown suite, a
        # --seed below 0, a --cases below 1 or given to an exhaustive suite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    """The console entry point: ``main`` with argv, flushed, as the exit
    status.  A closed stdout or stderr pipe (the reader went away) ends the
    run with exit 2 and no traceback: the standard streams are pointed at
    the null device, so the flush the interpreter makes at exit has nothing
    left to fail on."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.dup2(null, sys.stderr.fileno())
        code = EXIT_USAGE
    sys.exit(code)


# What the import built lives as long as the process.  Moved to the cycle
# collector's permanent generation, it is never walked again, so the
# collections a command triggers cost what the command's own objects cost,
# not what the import left young.  This runs here, not in the package, so
# that importing nwgb as a library leaves the collector as it was, and at
# import, not in main, for a caller that imports this module and then calls
# the library directly.
gc.freeze()
