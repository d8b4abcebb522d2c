"""Command line interface.

Exit codes: 0 on success with all verified bounds holding, 1 when a
verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Sequence

from .brick_brace import decompose
from .formats import EDGE_LIST, FORMATS, ParseError, parse, write
from .harness import (
    CATALOG_CLASSES,
    _worker_count,
    generate_catalog,
    verify_catalog,
    verify_graph,
)
from .klee import enumerate_klee
from .matching import count_perfect_matchings_oracle, matching_profile
from .multigraph import MultiGraph


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cubicmatch",
        description="Exact perfect-matching structure analysis of small cubic graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="input file (or '-' for stdin)")
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=EDGE_LIST,
            help="input format (default edge_list)",
        )

    p_count = sub.add_parser("count", help="perfect matching count and per-edge counts")
    add_input(p_count)
    p_count.add_argument("--force", type=int, action="append", default=[],
                         metavar="EDGE", help="edge index that must be used")
    p_count.add_argument("--forbid", type=int, action="append", default=[],
                         metavar="EDGE", help="edge index that must be avoided")
    p_count.add_argument("--oracle", action="store_true",
                         help="use the brute-force subset oracle")
    p_count.set_defaults(run=_cmd_count)

    p_dec = sub.add_parser("decompose", help="brick and brace decomposition")
    add_input(p_dec)
    p_dec.set_defaults(run=_cmd_decompose)

    p_an = sub.add_parser("analyze", help="full bound report as JSON")
    add_input(p_an)
    p_an.set_defaults(run=_cmd_analyze)

    p_klee = sub.add_parser("klee", help="klee-graph utilities")
    klee_sub = p_klee.add_subparsers(dest="klee_command", required=True)
    p_kenum = klee_sub.add_parser("enum", help="enumerate klee-graphs of order n")
    p_kenum.add_argument("--n", type=int, required=True)
    p_kenum.add_argument("--out-format", choices=FORMATS, default=EDGE_LIST)
    p_kenum.set_defaults(run=_cmd_klee_enum)

    p_cat = sub.add_parser("catalog", help="catalog sweeps")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p_cver = cat_sub.add_parser(
        "verify",
        help="verify all bounds over a catalog",
        description="Verify every bound over the order-n catalog of one class: "
        "one JSON report per graph on stdout (or in --out), a summary on stderr.",
    )
    p_cver.add_argument("--n", type=int, required=True)
    p_cver.add_argument("--class", dest="klass", choices=CATALOG_CLASSES,
                        default="all_bridgeless_cubic")
    p_cver.add_argument("--out", help="write JSONL reports here")
    p_cver.add_argument("--simple-only", action="store_true")
    p_cver.set_defaults(run=_cmd_catalog_verify)

    p_gen = sub.add_parser("gen", help="emit a catalog")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--class", dest="klass", choices=CATALOG_CLASSES,
                       default="all_bridgeless_cubic")
    p_gen.add_argument("--simple-only", action="store_true")
    p_gen.add_argument("--out-format", choices=FORMATS, default=EDGE_LIST)
    p_gen.set_defaults(run=_cmd_gen)
    return top


def _read_one(path: str, fmt: str) -> MultiGraph:
    """The one graph in the file at ``path``, or on stdin when ``path`` is
    '-'. An OSError from opening the file is raised unchanged."""
    graphs = list(parse(sys.stdin if path == "-" else path, fmt))
    if not graphs:
        raise ParseError("no graph in input", path)
    if len(graphs) > 1:
        raise ParseError(f"expected one graph, found {len(graphs)}", path)
    return graphs[0]


def _cmd_count(args: argparse.Namespace) -> int:
    g = _read_one(args.path, args.format)
    forced, forbidden = frozenset(args.force), frozenset(args.forbid)
    if args.oracle:
        total = count_perfect_matchings_oracle(g, forced, forbidden)
        # the matchings through e are those that do not avoid it
        per_edge = {
            e: total if e in forced else 0 if e in forbidden
            else total - count_perfect_matchings_oracle(g, forced, forbidden | {e})
            for e in range(len(g.edges))
        }
    else:
        profile = matching_profile(g, forced, forbidden)
        total, per_edge = profile.total, profile.per_edge
    print(total)
    for e, (u, v) in enumerate(g.edges):
        print(f"edge {e} {u} {v} {per_edge[e]}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _read_one(args.path, args.format)
    dec = decompose(g)
    for i, (piece, kind) in enumerate(dec.pieces):
        print(f"piece {i} kind={kind} n={piece.vertex_count} m={len(piece.edges)}")
    print(f"bricks {dec.brick_count}")
    print(f"braces {dec.brace_count}")
    print(f"dimension {dec.dimension}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_one(args.path, args.format)
    report = verify_graph(g)
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.all_satisfied else 1


def _cmd_klee_enum(args: argparse.Namespace) -> int:
    graphs = enumerate_klee(args.n)
    sys.stdout.write(write(graphs, args.out_format))
    return 0


def _cmd_catalog_verify(args: argparse.Namespace) -> int:
    # a bad worker count or --out fails before the sweep, not after it
    _worker_count(None)
    sink = open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout)
    with sink as out:
        graphs = generate_catalog(args.n, args.klass, simple_only=args.simple_only)
        reports = verify_catalog(graphs)
        out.writelines(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in reports)
    ok = all(r.all_satisfied for r in reports)
    print(
        f"verified {len(reports)} graphs of order {args.n} in class {args.klass}: "
        f"{'all bounds hold' if ok else 'VIOLATIONS FOUND'}",
        file=sys.stderr,
    )
    for r in reports:
        if not r.all_satisfied:
            failed = ",".join(t.tag for t in r.results if not t.satisfied)
            print(
                f"violation: index {r.index} canonical {r.canonical_hex} failed {failed}",
                file=sys.stderr,
            )
    if reports:
        least = min(reports, key=lambda r: r.pm_count)
        print(f"least pm_count {least.pm_count} at index {least.index}", file=sys.stderr)
    # per bound tag, in first-appearance order: the least slack and the
    # first report to attain it; one tag has one denominator at one n, so
    # the integer measured * den - num orders its slacks
    least_slack: dict[str, tuple[int, str, int]] = {}
    for r in reports:
        for t in r.results:
            if t.kind != "bound":
                continue
            slack = t.measured * t.den - t.num
            if t.tag not in least_slack or slack < least_slack[t.tag][0]:
                least_slack[t.tag] = (slack, t.to_json()["slack"], r.index)
    for tag, (_, text, index) in least_slack.items():
        print(f"least slack {tag} {text} at index {index}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    graphs = generate_catalog(args.n, args.klass, simple_only=args.simple_only)
    sys.stdout.write(write(graphs, args.out_format))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ParseError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
