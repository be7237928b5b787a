"""Command-line interface.

Exit codes: 0 success / affirmative answer, 1 negative answer or no witness,
2 invalid input, 3 internal error.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .census import _run_census, usable_cpus
from .classify import a_equivalent
from .errors import PageFormatError, RoundFoldError
from .foldmaps import (
    RoundFoldDescriptor,
    admits_directed,
    admits_round_fold,
    build_total_space,
    fold_counts,
)
from .jsonio import parse_manifold_spec, parse_page, serialize_page
from .manifolds import describe
from .pages import regular_fiber_counts, surface_type
from .render import render_critical_values, render_reeb

# page-only subcommands still build a descriptor; any dimension >= 5 works
_DEFAULT_N = 5


def _load_page(path: str, validate: bool = True):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PageFormatError([f"$: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from exc
    return parse_page(text, validate=validate)


def _cmd_validate(args: argparse.Namespace) -> int:
    report = _load_page(args.file, validate=False).report
    if report.ok:
        print("valid")
        return 0
    for v in report.violations:
        print(f"{v.code}: {v.message}", file=sys.stderr)
    print("invalid")
    return 1


def _cmd_invariants(args: argparse.Namespace) -> int:
    graph = _load_page(args.file)
    rf = RoundFoldDescriptor(_DEFAULT_N, graph)
    st = surface_type(graph)
    n0, n1 = fold_counts(rf)
    print(f"surface: {st.describe()}" + (" closed" if st.closed else ""))
    print("fiber counts: " + " ".join(str(c) for c in regular_fiber_counts(graph)))
    print(f"fold counts: n0={n0} n1={n1}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = _load_page(args.file)
    d = build_total_space(RoundFoldDescriptor(args.n, graph, args.clutching))
    print(describe(d))
    return 0


def _cmd_admits(args: argparse.Namespace) -> int:
    d = parse_manifold_spec(args.manifold)
    if args.directed:
        rf = admits_directed(d)
        if rf is None:
            print("none")
            return 1
    else:
        rf = admits_round_fold(d)
    witness = {
        "n": rf.n,
        "clutching": rf.clutching,
        "page": json.loads(serialize_page(rf.page)),
    }
    print(json.dumps(witness, indent=2))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    rf0 = RoundFoldDescriptor(args.n, _load_page(args.file0), args.clutching0)
    rf1 = RoundFoldDescriptor(args.n, _load_page(args.file1), args.clutching1)
    if a_equivalent(rf0, rf1):
        print("A-equivalent")
        return 0
    print("not A-equivalent")
    return 1


def _cmd_census(args: argparse.Namespace) -> int:
    workers = usable_cpus() if args.workers is None else args.workers
    # the census parts format their own lines, and JSONL lines are written as
    # the parts finish, so the document is never one string; the table header
    # counts the lines first
    if args.format == "jsonl":
        lines = _run_census(args.n, args.s_max, args.k_max, workers, jsonio._jsonl_row)
        sys.stdout.writelines(f"{line}\n" for line in lines)
    else:
        bodies = list(_run_census(args.n, args.s_max, args.k_max, workers, jsonio._text_row))
        sys.stdout.writelines(jsonio._text_document(args.n, args.s_max, args.k_max, bodies))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    graph = _load_page(args.file)
    if args.kind == "circles":
        rf = RoundFoldDescriptor(args.n, graph, args.clutching)
        doc = render_critical_values(rf, format=args.format)
    else:
        doc = render_reeb(graph, format=args.format)
    Path(args.out).write_text(doc, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundfold",
        description="Decide, construct and classify round fold maps of closed "
        "n-manifolds (n >= 4) into R^(n-1) from labeled Reeb graph pages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a page JSON file against the page invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="print surface type, fiber counts and fold counts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("build", help="print the total-space manifold of a page")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clutching", type=int, default=0)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("admits", help="witness page for a manifold, or 'none'")
    p.add_argument("--manifold", required=True, help="e.g. 'handle_sum n=5 a=2 b=0'")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_admits)

    p = sub.add_parser("classify", help="decide A-equivalence of two pages at dimension n")
    p.add_argument("file0")
    p.add_argument("file1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clutching0", type=int, default=0)
    p.add_argument("--clutching1", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("census", help="enumerate equivalence classes up to a size bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-max", type=int, required=True, dest="s_max")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--format", choices=("table", "jsonl"), default="table")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes, at most the usable CPUs (default: the usable CPUs)",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("render", help="draw critical circles or the Reeb graph")
    p.add_argument("file")
    p.add_argument("--kind", choices=("circles", "reeb"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("svg", "dot"), default="svg")
    p.add_argument("--n", type=int, default=_DEFAULT_N)
    p.add_argument("--clutching", type=int, default=0)
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use.  Parsing leaves it
    unchanged: every default is a constant, and ``--workers`` is resolved
    when the census runs."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except RoundFoldError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:  # console-script entry point
    sys.exit(main())
