"""The plain writers of ``nwgb diagram`` and ``nwgb fulton``.

``diagram_text`` and ``diagram_json`` write a permutation's Rothe diagram,
essential boxes and rank matrix; ``json_text`` lays out the JSON payloads
of both commands, a diagram's and a spec's Fulton generators, as
``json.dumps(..., indent=2)`` would; ``diagram_pieces`` and
``fulton_pieces`` are the two commands' work, from their argument to the
text that ``nwgb.cli`` writes.  The bases of ``nwgb groebner`` and ``nwgb
union`` are written by the packed writers of ``nwgb.polynomials`` and
``nwgb.union`` instead, so only these two commands load this module:
``nwgb.cli`` imports it inside them, and the other commands never compile
it.
"""

from __future__ import annotations

from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

from .ideals import check_work, fulton_generators, load_spec, spec_to_json
from .permutations import PartialPermutation, _diagram_and_essential, parse_one_line, rank_matrix
from .polynomials import Polynomial, _json_list, _Made, _TermLayout, polynomial_text


def diagram_text(p: PartialPermutation) -> str:
    """The text of ``nwgb diagram``: a grid with '1' for matrix ones, 'e'
    essential boxes, 'D' other diagram cells and '.' elsewhere, a blank
    line, the essential boxes with their ranks, and the rank matrix."""
    ranks = rank_matrix(p)
    diagram, essential = _diagram_and_essential(ranks)
    # a Cell is a named tuple, so the plain (i, j) below finds it
    marks = dict.fromkeys(diagram, "D")
    marks.update((cell, "e") for cell, _ in essential)
    lines = [
        " ".join("1" if value == j else marks.get((i, j), ".") for j in range(1, p.n + 1))
        for i, value in enumerate(p.images, 1)
    ]
    boxes = "; ".join(f"({c.row},{c.col}) rank {r}" for c, r in sorted(essential))
    lines += ["", f"essential: {boxes or 'none'}", "rank matrix:"]
    lines += (" ".join(map(str, row)) for row in ranks)
    return "\n".join(lines) + "\n"


def diagram_json(p: PartialPermutation) -> dict:
    """Diagram, essential boxes and rank matrix in the documented schema."""
    ranks = rank_matrix(p)
    diagram, essential = _diagram_and_essential(ranks)
    return {
        "n": p.n,
        "permutation": p.one_line(),
        "diagram": {"cells": [[c.row, c.col] for c in sorted(diagram)]},
        "essential": [
            {"cell": [cell.row, cell.col], "rank": rank} for cell, rank in sorted(essential)
        ],
        "rank_matrix": [list(row) for row in ranks],
    }


def _polynomial_json(layout: _TermLayout, f: Polynomial) -> str:
    """The terms of f, largest first, as ``polynomial_to_json`` lists them,
    each written in one piece from the fixed texts and the cached
    ``[row, col, exp]`` blocks of ``layout``."""
    coeff_text = layout.coeff
    monomial = layout.monomial
    block_between = layout.block_between
    end = layout.end
    row_major = layout.blocks.row_major
    terms = []
    for coeff, mono in f.sorted_terms():
        key = mono.key
        if len(key) == 1:
            terms.append(f"{coeff_text}{coeff!s}{layout.constant}")
        else:
            blocks = block_between.join(row_major(key))
            terms.append(f"{coeff_text}{coeff!s}{monomial}{blocks}{end}")
    return _json_list(terms, layout.indent, "[]")


def json_text(value) -> str:
    """``json.dumps(value, indent=2)`` of dicts with string keys, lists,
    strings, ints, and :class:`Polynomial` values, each as
    ``polynomial_to_json`` gives it; anything else, a packed polynomial
    too, raises ``TypeError``.  ``indent`` sends ``json`` to its
    pure-Python encoder; here each ``[row, col, exp]`` block is written
    once per call and indent, and each term of a polynomial in one
    piece."""
    layouts = _Made(_TermLayout)

    def write(value, indent: int) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return str(value)
        if kind is list:
            return _json_list([write(item, indent + 2) for item in value], indent, "[]")
        if kind is dict:  # the encoder raises TypeError on a key that is not a str
            items = [
                encode_basestring_ascii(k) + ": " + write(v, indent + 2) for k, v in value.items()
            ]
            return _json_list(items, indent, "{}")
        if kind is Polynomial:
            return _polynomial_json(layouts[indent], value)
        raise TypeError(f"{kind.__name__} is not written as JSON")

    return write(value, 0)


def diagram_pieces(permutation: str, as_json: bool) -> list[str]:
    """The text of ``nwgb diagram`` for a permutation in one-line
    notation, as JSON or plain text.  A permutation whose n^2 rank-matrix
    entries pass the work limit raises ValueError before any is made."""
    p = parse_one_line(permutation)
    check_work(p.n**2)  # the entries of its rank matrix
    if as_json:
        return [json_text(diagram_json(p)) + "\n"]
    return [diagram_text(p)]


def fulton_pieces(path: str, as_json: bool) -> Iterable[str]:
    """The text of ``nwgb fulton`` for the spec file at ``path``, as JSON
    or plain text.  The spec is read and its generators are formed before
    this returns, so a bad spec raises before ``--out`` is opened; the
    text form is then written one line per generator."""
    spec = load_spec(path)
    gens = fulton_generators(spec)
    if as_json:
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
        # the payload nests the spec around the generators, so it is
        # written whole, in one json_text call
        return [json_text(payload) + "\n"]
    return (polynomial_text(poly) + "\n" for _, _, _, poly in gens)
