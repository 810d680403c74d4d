"""Command-line front end: generate weighted class listings, run the verifier.

Coefficients are always rendered as exact fractions "p/q" in lowest
terms; output for fixed flags is byte-deterministic (classes are listed
in canonical key order), whatever the job count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TextIO

from .canon import LinearCombination, key_fields
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

def _coefficient_str(coeff) -> str:
    return f"{coeff.numerator}/{coeff.denominator}"


def _classes(combo: LinearCombination):
    """(key, coefficient, n, edges, legs) of each class in key order: the text
    of the canonical form that the key spells (``canon.key_fields``)."""
    for key, coeff in sorted(combo.class_coefficients().items()):
        yield (key, coeff, *key_fields(key))


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _json_record(key, coeff, n: str, edges, legs) -> str:
    edge_list = _json_list(
        [f"        [\n          {u},\n          {v}\n        ]" for u, v in edges], "      "
    )
    # a label is x1, x2, ...: nothing in it needs escaping
    leg_list = _json_list(
        [
            f'        {{\n          "label": "{label}",\n          "vertex": {v}\n        }}'
            for label, v in legs
        ],
        "      ",
    )
    return (
        f'  {{\n    "graph": {{\n      "n": {n},\n      "edges": {edge_list},\n'
        f'      "external": {leg_list}\n    }},\n'
        f'    "coefficient": "{_coefficient_str(coeff)}",\n    "key": "{key.hex()}"\n  }}'
    )


def render_json(combo: LinearCombination, out: TextIO) -> None:
    """Write to ``out`` what ``json.dumps([...], indent=2)`` would print for the
    records, one record at a time: the indenting encoder is pure Python and
    dominated large outputs, and a whole output held at once dominated memory."""
    separator = "[\n"
    for fields in _classes(combo):
        out.write(separator + _json_record(*fields))
        separator = ",\n"
    out.write("[]\n" if separator == "[\n" else "\n]\n")


def _table_row(key, coeff, n: str, edges, legs) -> tuple[str, str, str, str]:
    return (
        _coefficient_str(coeff),
        n,
        " ".join(f"{u}-{v}" for u, v in edges) if edges else "-",
        " ".join(f"{label}@{v}" for label, v in legs) if legs else "-",
    )


def render_table(combo: LinearCombination, out: TextIO) -> None:
    """Write the classes to ``out`` as a table, one row at a time: a first pass
    over the classes finds the column widths, so no row is held."""
    header = ("coefficient", "n", "edges", "legs")
    widths = [len(title) for title in header]
    for fields in _classes(combo):
        widths = [max(width, len(cell)) for width, cell in zip(widths, _table_row(*fields))]

    def write_row(row) -> None:
        out.write("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n")

    write_row(header)
    write_row(["-" * width for width in widths])
    for fields in _classes(combo):
        write_row(_table_row(*fields))


def render_dot(combo: LinearCombination, out: TextIO) -> None:
    """Write each class to ``out`` as one DOT graph, one class at a time,
    with an empty line between two graphs."""
    for index, (key, coeff, n, edges, legs) in enumerate(_classes(combo)):
        coefficient = _coefficient_str(coeff)
        lines = [
            f"// class {index}: coefficient {coefficient}, key {key.hex()}",
            f"graph class_{index} {{",
            f'  label="{coefficient}";',
            "  node [shape=circle];",
        ]
        lines.extend(f"  v{index}_{v};" for v in range(1, int(n) + 1))
        lines.extend(f"  v{index}_{u} -- v{index}_{v};" for u, v in edges)
        for label, v in legs:
            lines.append(f'  leg{index}_{label} [shape=point, xlabel="{label}"];')
            lines.append(f"  v{index}_{v} -- leg{index}_{label};")
        lines.append("}")
        out.write(("\n" if index else "") + "\n".join(lines) + "\n")


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
