"""Command line interface.

Exit codes: 0 on success with all verified bounds holding, 1 when a
verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .brick_brace import decompose
from .formats import EDGE_LIST, GRAPH6, SPARSE6, ParseError, parse, write
from .harness import (
    CATALOG_CLASSES,
    generate_catalog,
    scarce_matching_graphs,
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
            choices=[EDGE_LIST, GRAPH6, SPARSE6],
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

    p_dec = sub.add_parser("decompose", help="brick and brace decomposition")
    add_input(p_dec)

    p_an = sub.add_parser("analyze", help="full bound report as JSON")
    add_input(p_an)

    p_klee = sub.add_parser("klee", help="klee-graph utilities")
    klee_sub = p_klee.add_subparsers(dest="klee_command", required=True)
    p_kenum = klee_sub.add_parser("enum", help="enumerate klee-graphs of order n")
    p_kenum.add_argument("--n", type=int, required=True)
    p_kenum.add_argument("--out-format", choices=[EDGE_LIST, GRAPH6, SPARSE6],
                         default=EDGE_LIST)

    p_cat = sub.add_parser("catalog", help="catalog sweeps")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p_cver = cat_sub.add_parser("verify", help="verify all bounds over a catalog")
    p_cver.add_argument("--n", type=int, required=True)
    p_cver.add_argument("--class", dest="klass", choices=CATALOG_CLASSES,
                        default="all_bridgeless_cubic")
    p_cver.add_argument("--out", help="write JSONL reports here")
    p_cver.add_argument("--simple-only", action="store_true")

    p_gen = sub.add_parser("gen", help="emit a catalog")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--class", dest="klass", choices=CATALOG_CLASSES,
                       default="all_bridgeless_cubic")
    p_gen.add_argument("--simple-only", action="store_true")
    p_gen.add_argument("--out-format", choices=[EDGE_LIST, GRAPH6, SPARSE6],
                       default=EDGE_LIST)
    return top


def _read_one(path: str, fmt: str) -> MultiGraph:
    if path == "-":
        graphs = list(parse(sys.stdin, fmt))
    else:
        if not os.path.exists(path):
            raise OSError(f"cannot open input file {path!r}")
        graphs = list(parse(path, fmt))
    if not graphs:
        raise ParseError("no graph in input", path)
    return graphs[0]


def _cmd_count(args: argparse.Namespace) -> int:
    g = _read_one(args.path, args.format)
    forced, forbidden = frozenset(args.force), frozenset(args.forbid)
    if args.oracle:
        total = count_perfect_matchings_oracle(g, forced, forbidden)
        taken = {v for e in forced for v in g.edges[e]}
        per_edge = {}
        for e, (u, v) in enumerate(g.edges):
            # a forbidden edge, or one meeting a forced edge, is in no matching
            clash = e in forbidden or (e not in forced and taken & {u, v})
            per_edge[e] = 0 if clash else count_perfect_matchings_oracle(
                g, forced | {e}, forbidden)
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
    print(f"dimension {len(g.edges) - g.vertex_count + 1 - dec.brick_count}")
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
    graphs = generate_catalog(args.n, args.klass, simple_only=args.simple_only)
    reports = verify_catalog(graphs)
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    ok = all(r.all_satisfied for r in reports)
    scarce = [
        (n, canon, pm)
        for n, canon, pm in scarce_matching_graphs(args.n)
    ]
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
    if scarce:
        print(
            f"graphs with at most n/2+1 perfect matchings up to n={args.n}: "
            f"{len(scarce)}",
            file=sys.stderr,
        )
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
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "klee":
            return _cmd_klee_enum(args)
        if args.command == "catalog":
            return _cmd_catalog_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
