"""Command line front end: argument parsing and output.

Subcommands: gen, verify, chi, decide, certify, bounds, search, reproduce.
Exit codes: 0 valid/SAT/solved, 1 invalid/UNSAT/failed, 2 budget expired,
3 usage or bad input.  `reproduce` runs the check table of
`sierpack.reproduce` and emits its RunManifest (text table, or JSON under
--json).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from typing import NamedTuple, Sequence

from . import __version__
from ._data import MissingData
from .certify import (DEFAULT_EMPIRICAL_DEPTH, REFINED, REFUTED, CertifyError,
                      certify_generalized_tiling, certify_triangle_tiling, lower_bound_sequence)
from .graph_core import GraphError, read_graph, write_graph
from .packing import (DEFAULT_BUDGET, EXACT, SAT, TIMEOUT, UNSAT, ColorConstraints, chi_rho,
                      format_coloring_text, is_packing_k_colorable, max_color, read_coloring,
                      verify_packing_coloring, write_coloring)
from .reproduce import CheckRow, RunManifest, Settings, run_suite
from .search import SearchConfig, search_certified_coloring
from .sierpinski import base_graph_library, gen_generalized, gen_sierpinski, gen_triangle

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


# ------------------------------------------------------------ subcommands


class _Result(NamedTuple):
    """What a single-result subcommand found, before it is printed."""

    code: int
    rows: list[tuple[str, str, str, str]]  # name, claim, status, detail
    text: str
    quiet: str | None = None  # the --quiet output; None prints `text`
    inputs: tuple[str, ...] = ()  # files hashed into the --json manifest


def _hash_path(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _single_result(cmd):
    """Time a single-result subcommand and print its result as text, as the
    quiet one-liner, or as a JSON RunManifest."""
    @functools.wraps(cmd)
    def run(args, parser) -> int:
        t0 = time.perf_counter()
        res = cmd(args, parser)
        elapsed = time.perf_counter() - t0
        if args.json:
            manifest = RunManifest(
                command=_echo(args), elapsed=elapsed,
                inputs={path: _hash_path(path) for path in res.inputs},
                results=[CheckRow(name, claim, status, elapsed, detail)
                         for name, claim, status, detail in res.rows])
            print(manifest.to_json())
        elif args.quiet and res.quiet is not None:
            print(res.quiet)
        else:
            print(res.text)
        return res.code
    return run


def cmd_gen(args, parser) -> int:
    if args.family == "sierpinski":
        if args.k is None:
            parser.error("--family sierpinski requires --k")
        g = gen_sierpinski(args.n, args.k)
        desc = f"S^{args.n}_{args.k}"
    elif args.family == "generalized":
        if args.base is None:
            parser.error("--family generalized requires --base")
        g = gen_generalized(args.n, base_graph_library(args.base))
        desc = f"S^{args.n}_{args.base}"
    else:
        g = gen_triangle(args.n)
        desc = f"ST^{args.n}"
    write_graph(args.output, g)
    if not args.quiet:
        print(f"wrote {desc}: {g.n} vertices, {g.edge_count} edges"
              f" -> {args.output}")
    return EXIT_OK


@_single_result
def cmd_verify(args, parser) -> _Result:
    g = read_graph(args.graph)
    coloring = read_coloring(args.coloring)
    report = verify_packing_coloring(g, coloring)
    if report.ok:
        detail = f"valid, max color {max_color(coloring)}"
        text = f"VALID (max color {max_color(coloring)})"
    else:
        parts = []
        if report.uncolored:
            parts.append(f"{len(report.uncolored)} uncolored,"
                         f" first {report.uncolored[0]}")
        for c, u, v, d in report.violations[:5]:
            parts.append(f"color {c} pair {u} {v} distance {d}")
        detail = "; ".join(parts)
        text = f"INVALID: {detail}"
    row = ("verify", "coloring is a packing coloring",
           "pass" if report.ok else "fail", detail)
    return _Result(EXIT_OK if report.ok else EXIT_NEGATIVE, [row], text,
                   "VALID" if report.ok else "INVALID",
                   (args.graph, args.coloring))


@_single_result
def cmd_chi(args, parser) -> _Result:
    res = chi_rho(read_graph(args.graph), budget=args.timeout)
    if res.status == EXACT:
        code, status, detail = EXIT_OK, "pass", f"chi_rho = {res.upper}"
        text = (f"chi_rho = {res.upper}"
                f" ({res.nodes_explored} nodes, {res.elapsed:.1f}s)")
        quiet = str(res.upper)
    else:
        code, status = EXIT_BUDGET, "report"
        detail = f"{res.status}: bounds {res.lower}..{res.upper}"
        text = (f"budget expired: bounds {res.lower}..{res.upper}"
                f" ({res.status}, {res.nodes_explored} nodes)")
        quiet = f"{res.lower}..{res.upper}"
    row = ("chi", "exact packing chromatic number", status,
           detail + f", {res.nodes_explored} nodes")
    return _Result(code, [row], text, quiet, (args.graph,))


def _parse_constraints(forbid: Sequence[str], require: Sequence[str],
                       parser) -> ColorConstraints:
    forbidden: dict[str, frozenset[int]] = {}
    required: dict[str, int] = {}
    try:
        for item in forbid:
            label, _, colors = item.partition("=")
            if not colors:
                raise ValueError(item)
            vals = frozenset(int(c) for c in colors.split(","))
            forbidden[label] = forbidden.get(label, frozenset()) | vals
        for item in require:
            label, _, color = item.partition("=")
            if not color:
                raise ValueError(item)
            required[label] = int(color)
    except ValueError as exc:
        parser.error(f"bad constraint syntax: {exc}")
    return ColorConstraints(forbidden=forbidden, required=required)


@_single_result
def cmd_decide(args, parser) -> _Result:
    g = read_graph(args.graph)
    constraints = _parse_constraints(args.forbid, args.require, parser)
    res = is_packing_k_colorable(g, args.k, constraints=constraints,
                                 budget=args.timeout)
    status, code = {SAT: ("pass", EXIT_OK), UNSAT: ("fail", EXIT_NEGATIVE),
                    TIMEOUT: ("report", EXIT_BUDGET)}[res.status]
    line = f"{res.status} ({res.nodes_explored} nodes, {res.elapsed:.1f}s)"
    text = line
    if res.witness is not None:
        text += "\n" + format_coloring_text(res.witness).rstrip("\n")
    row = ("decide", f"packing colorable with {args.k} colors", status,
           f"{res.status}, {res.nodes_explored} nodes")
    return _Result(code, [row], text, line, (args.graph,))


@_single_result
def cmd_certify(args, parser) -> _Result:
    block = read_coloring(args.coloring)
    if args.family == "triangle":
        report = certify_triangle_tiling(args.m, block,
                                         empirical_depth=args.depth)
    else:
        if args.base is None:
            parser.error("--family generalized requires --base")
        report = certify_generalized_tiling(
            base_graph_library(args.base), args.m, block,
            mode=args.mode, empirical_depth=args.depth)
    text = report.text_report().rstrip("\n")
    row = ("certify", "block coloring lifts to all dimensions",
           "fail" if report.status == REFUTED else "pass", text.splitlines()[0])
    return _Result(EXIT_OK if report.status != REFUTED else EXIT_NEGATIVE,
                   [row], text, inputs=(args.coloring,))


@_single_result
def cmd_bounds(args, parser) -> _Result:
    seq = lower_bound_sequence(args.k, args.n,
                               literal=args.literal_recurrence)
    terms = range(1, args.n + 1)
    rows = [(f"bounds.a{n}", f"a_{n} lower bound for k={args.k}", "report",
             str(seq.term(n))) for n in terms]
    return _Result(EXIT_OK, rows,
                   "\n".join(f"{n} {seq.term(n)}" for n in terms))


@_single_result
def cmd_search(args, parser) -> _Result:
    if args.family == "generalized" and args.base is None:
        parser.error("--family generalized requires --base")
    base = base_graph_library(args.base) if args.base else None
    kwargs = dict(family=args.family, m=args.m, max_color=args.max_color,
                  base=base, seed=args.seed)
    if args.iters is not None:
        kwargs["iterations"] = args.iters
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    cfg = SearchConfig(**kwargs)
    out = search_certified_coloring(cfg, threads=args.threads)
    write_coloring(args.output, out.best)
    certified = out.certified_bound is not None
    if certified:
        detail = f"certified bound {out.certified_bound}"
        text = (f"CERTIFIED bound {out.certified_bound}"
                f" (seed {out.seed}) -> {args.output}")
    else:
        detail = f"no certificate, penalty {out.penalty}"
        text = (f"no certificate (best penalty {out.penalty},"
                f" seed {out.seed}) -> {args.output}")
    row = ("search", "block coloring with a lift certificate",
           "pass" if certified else "fail", detail)
    return _Result(EXIT_OK if certified else EXIT_NEGATIVE, [row], text)


def cmd_reproduce(args, parser) -> int:
    manifest = run_suite(_echo(args),
                         Settings.from_env(args.profile, args.threads))
    if args.json:
        print(manifest.to_json())
    elif args.quiet:
        print("PASSED" if manifest.passed else "FAILED")
    else:
        print(manifest.text_table())
    return EXIT_OK if manifest.passed else EXIT_NEGATIVE


# ------------------------------------------------------------- the parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _echo(args) -> list[str]:
    return list(getattr(args, "_argv", []))


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timeout", type=float, metavar="SECS",
                        default=argparse.SUPPRESS,
                        help="solver budget in seconds")
    common.add_argument("--threads", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="worker processes for restarts")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress the per-check table")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the run manifest as JSON")

    parser = _Parser(prog="sierpack",
                     description="Packing colorings of Sierpinski-type "
                                 "graphs: generation, exact solving, lift "
                                 "certificates, and stochastic search.",
                     parents=[common])
    parser.set_defaults(timeout=DEFAULT_BUDGET, threads=1, quiet=False,
                        json=False)
    parser.add_argument("--version", action="version",
                        version=f"sierpack {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("gen", parents=[common],
                       help="write a family member as a graph file")
    p.add_argument("--family", required=True,
                   choices=("sierpinski", "generalized", "triangle"))
    p.add_argument("--k", type=int, help="alphabet size (sierpinski)")
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[common],
                       help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi", parents=[common],
                       help="exact packing chromatic number")
    p.add_argument("graph")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("decide", parents=[common],
                       help="decide k-colorability under constraints")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.add_argument("--forbid", action="append", default=[],
                   metavar="LABEL=COLORS",
                   help="forbid comma-separated colors on a vertex")
    p.add_argument("--require", action="append", default=[],
                   metavar="LABEL=COLOR", help="pin a vertex to a color")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("certify", parents=[common],
                       help="lift certificate for a block coloring")
    p.add_argument("--family", required=True,
                   choices=("generalized", "triangle"))
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--m", type=int, required=True, help="block dimension")
    p.add_argument("--mode", choices=("conservative", "refined"),
                   default=REFINED)
    p.add_argument("--depth", type=int, default=DEFAULT_EMPIRICAL_DEPTH,
                   help="extra dimensions verified exhaustively")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", parents=[common],
                       help="lower-bound sequence for complete bases")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True,
                   help="last index to print")
    p.add_argument("--literal-recurrence", action="store_true",
                   help="evaluate the recurrence term by term")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", parents=[common],
                       help="stochastic search for certifiable colorings")
    p.add_argument("--family", required=True,
                   choices=("triangle", "generalized"))
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--m", type=int, required=True, help="block dimension")
    p.add_argument("--max-color", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, help="iterations per restart")
    p.add_argument("--restarts", type=int)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run the full headline check suite")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["sierpack"] + argv
    try:
        return args.func(args, parser)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"sierpack: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except MissingData as exc:
        print(f"sierpack: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (GraphError, CertifyError, ValueError) as exc:
        print(f"sierpack: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
