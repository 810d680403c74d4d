"""Command-line front end: generate weighted class listings, run the verifier.

Coefficients are always rendered as exact fractions "p/q" in lowest
terms; output for fixed flags is byte-deterministic (classes are listed
in canonical key order), whatever the job count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, TextIO

from .canon import LinearCombination, key_texts, legs_by_label
from .graph import GraphError
from .recursion import BetaEngine, BetaKey, BlockLimits

_FAMILY_BY_FLAG = {
    "biconn": "biconn",
    "conn": "conn",
    "2edge": "two_edge",
    "2edge-cycles": "two_edge_cycles",
}
_JOBS_HELP = "helper processes for large evaluations, at most one per CPU"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autgraph",
        description="Generate multigraph isomorphism classes weighted by 1/|Aut|.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="compute one family value and print its classes"
    )
    generate.add_argument("--family", required=True, choices=sorted(_FAMILY_BY_FLAG))
    generate.add_argument("--n", type=int, required=True, help="vertex count")
    generate.add_argument("--k", type=int, required=True, help="cyclomatic number")
    generate.add_argument("--s", type=int, default=0, help="external leg count")
    generate.add_argument(
        "--min-block-n", type=int, default=None, help="least vertex count per block"
    )
    generate.add_argument(
        "--min-block-k", type=int, default=None, help="least cyclomatic number per block"
    )
    generate.add_argument("--format", required=True, choices=("json", "dot", "table"))
    generate.add_argument("--cache", default=None, metavar="DIR", help="on-disk memo cache")
    generate.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)

    verify = subparsers.add_parser("verify", help="check families against brute force")
    verify.add_argument("--max-order", type=int, required=True, help="bound on n+k")
    verify.add_argument("--s", type=int, default=0, help="check leg counts 0..S")
    verify.add_argument("--family", default="all", choices=["all", *sorted(_FAMILY_BY_FLAG)])
    verify.add_argument("--format", default="table", choices=("table", "json"))
    verify.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    return parser


# ----------------------------------------------------------------------
# rendering

def _classes(combo: LinearCombination):
    """(key, coefficient, n, edge text, leg text) of each class in key order, the
    coefficient as "p/q": the texts of the canonical form that the key spells
    (``canon.key_texts``)."""
    for key, coeff in sorted(combo.class_coefficients().items()):
        yield (key, f"{coeff.numerator}/{coeff.denominator}", *key_texts(key))


def _per_leg_text(build: Callable[[list[list[str]]], str]) -> Callable[[str], str]:
    """``build`` of the [label, v] legs of a leg text in label order, computed
    once for each distinct leg text that the returned function is given."""
    built: dict[str, str] = {}

    def cached(leg_text: str) -> str:
        text = built.get(leg_text)
        if text is None:
            text = built[leg_text] = build(legs_by_label(leg_text))
        return text

    return cached


def _json_legs(legs: list[list[str]]) -> str:
    if not legs:
        return "[]"
    # a label is x1, x2, ...: nothing in it needs escaping
    items = ",\n".join(
        [
            f'        {{\n          "label": "{label}",\n          "vertex": {v}\n        }}'
            for label, v in legs
        ]
    )
    return f"[\n{items}\n      ]"


def render_json(combo: LinearCombination, out: TextIO) -> None:
    """Write to ``out`` what ``json.dumps([...], indent=2)`` would print for the
    records, one record at a time: the indenting encoder is pure Python and
    dominated large outputs, and a whole output held at once dominated memory.
    Each edge list is the key's edge text with its separators replaced."""
    json_legs = _per_leg_text(_json_legs)
    separator = "[\n"
    for key, coefficient, n, edge_text, leg_text in _classes(combo):
        edges = (
            "[\n        [\n          "
            + edge_text.replace(",", ",\n          ").replace(";", "\n        ],\n        [\n          ")
            + "\n        ]\n      ]"
            if edge_text
            else "[]"
        )
        out.write(
            f'{separator}  {{\n    "graph": {{\n      "n": {n},\n      "edges": {edges},\n'
            f'      "external": {json_legs(leg_text)}\n    }},\n'
            f'    "coefficient": "{coefficient}",\n    "key": "{key.hex()}"\n  }}'
        )
        separator = ",\n"
    out.write("[]\n" if separator == "[\n" else "\n]\n")


# "u,v;..." -> "u-v ...": an edge cell is as long as the key's edge text
_TABLE_EDGES = str.maketrans(",;", "- ")


def render_table(combo: LinearCombination, out: TextIO) -> None:
    """Write the classes to ``out`` as a table, one row at a time: a first pass
    over the classes finds the column widths, so no row is held.  An edge or
    leg cell is as long as its text in the key ("-" if that is empty), so the
    first pass reads only lengths."""
    header = ("coefficient", "n", "edges", "legs")
    widths = [len(title) for title in header]
    for _, coefficient, n, edge_text, leg_text in _classes(combo):
        lengths = (len(coefficient), len(n), len(edge_text) or 1, len(leg_text) or 1)
        widths = [max(width, length) for width, length in zip(widths, lengths)]
    # the last cell is never empty and so never padded
    row = "{:<%d}  {:<%d}  {:<%d}  {}\n" % tuple(widths[:3])
    table_legs = _per_leg_text(lambda legs: " ".join([f"{label}@{v}" for label, v in legs]) or "-")
    out.write(row.format(*header) + row.format(*["-" * width for width in widths]))
    for _, coefficient, n, edge_text, leg_text in _classes(combo):
        edges = edge_text.translate(_TABLE_EDGES) if edge_text else "-"
        out.write(row.format(coefficient, n, edges, table_legs(leg_text)))


def _dot_legs(legs: list[list[str]]) -> str:
    return "".join(
        [f'  leg#_{label} [shape=point, xlabel="{label}"];\n  v#_{v} -- leg#_{label};\n' for label, v in legs]
    )


def render_dot(combo: LinearCombination, out: TextIO) -> None:
    """Write each class to ``out`` as one DOT graph, one class at a time,
    with an empty line between two graphs.  The lines of the vertices,
    edges and legs are built from the key's texts, "#" standing for the
    class's index: the vertices once per vertex count and the legs once
    per leg text."""
    vertex_lines: dict[str, str] = {}
    dot_legs = _per_leg_text(_dot_legs)
    separator = ""
    for index, (key, coefficient, n, edge_text, leg_text) in enumerate(_classes(combo)):
        vertices = vertex_lines.get(n)
        if vertices is None:
            vertices = vertex_lines[n] = "".join([f"  v#_{v};\n" for v in range(1, int(n) + 1)])
        edges = "  v#_" + edge_text.replace(",", " -- v#_").replace(";", ";\n  v#_") + ";\n"
        body = (vertices + (edges if edge_text else "") + dot_legs(leg_text)).replace("#", str(index))
        out.write(
            f"{separator}// class {index}: coefficient {coefficient}, key {key.hex()}\n"
            f'graph class_{index} {{\n  label="{coefficient}";\n  node [shape=circle];\n{body}}}\n'
        )
        separator = "\n"


_RENDERERS = {"json": render_json, "table": render_table, "dot": render_dot}


# ----------------------------------------------------------------------
# subcommands

def cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    options = None
    if args.min_block_n is not None or args.min_block_k is not None:
        if args.family not in ("2edge", "2edge-cycles"):
            parser.error("--min-block-n/--min-block-k apply only to 2edge and 2edge-cycles")
        options = BlockLimits(
            min_n=args.min_block_n if args.min_block_n is not None else 2,
            min_k=args.min_block_k if args.min_block_k is not None else 1,
        )
    cache_dir = os.environ.get("AUTGRAPH_CACHE") or args.cache
    key = BetaKey(_FAMILY_BY_FLAG[args.family], args.n, args.k, options=options)
    combo = BetaEngine(cache_dir=cache_dir, jobs=args.jobs).with_legs(key, args.s)
    _RENDERERS[args.format](combo, sys.stdout)
    return 0


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    # imported here so that generate never loads the verifier
    from . import verify as verification

    max_order = args.max_order
    if max_order > verification.DEFAULT_MAX_ORDER:
        raise GraphError(
            f"--max-order {max_order} exceeds the enumeration bound "
            f"{verification.DEFAULT_MAX_ORDER}"
        )
    if max_order < 2:
        raise GraphError("--max-order must be at least 2")
    if args.s < 0:
        raise GraphError("cyclomatic number and leg count must be nonnegative")
    if args.s > verification.MAX_LEGS:
        raise GraphError(f"--s must be at most {verification.MAX_LEGS}")
    families = (
        list(_FAMILY_BY_FLAG.values())
        if args.family == "all"
        else [_FAMILY_BY_FLAG[args.family]]
    )
    reports = []
    engine = BetaEngine(jobs=args.jobs)
    for family in families:
        needs_cycle = family in ("two_edge", "two_edge_cycles")
        for s in range(args.s + 1):
            for n in range(2, max_order + 1):
                for k in range(1 if needs_cycle else 0, max_order - n + 1):
                    reports.append(verification.verify_beta(family, n, k, s, engine=engine))
    lemmas = verification.verify_lemmas(bound=min(max(max_order, 3), 5), engine=engine)
    all_passed = all(report.passed for report in reports) and lemmas.passed
    if args.format == "json":
        import json  # here, so that generate never loads it

        payload = {
            "passed": all_passed,
            "beta": [report.to_json_dict() for report in reports],
            "lemmas": lemmas.to_json_dict(),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for report in reports:
            sys.stdout.write(report.to_text() + "\n")
        sys.stdout.write(lemmas.to_text() + "\n")
        sys.stdout.write(f"overall: {'pass' if all_passed else 'FAIL'}\n")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command = cmd_generate if args.command == "generate" else cmd_verify
        code = command(args, parser)
        sys.stdout.flush()  # here, so that a reader gone by now is caught below
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: no error to report.  The
        # rest of the output goes to devnull, so that Python's flush at
        # shutdown raises nothing more (the Python docs' advice on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GraphError, OSError) as exc:
        # OSError: a file the run cannot use (the message names it) or a dead helper process
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
