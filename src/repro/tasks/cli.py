"""Command-line entry point: run any grid cell from the shell.

``python -m repro.tasks --datasets digg --methods EHNA LINE --tasks
link_prediction`` executes the requested (datasets × methods × tasks)
rectangle through the caching Runner and prints a markdown or JSON
:class:`~repro.tasks.results.ResultTable`.  ``make tables`` runs the
smallest-scale grid through this interface.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datasets.registry import UnknownDatasetError, available
from repro.experiments.methods import default_methods
from repro.tasks import TASK_TYPES, Runner

#: Per-task constructor kwargs derived from the CLI's --repeats knob.
_REPEAT_KWARG = {
    "link_prediction": "repeats",
    "reconstruction": "repeats",
    "node_classification": "repeats",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tasks",
        description=(
            "Run a (datasets × methods × tasks) evaluation grid with one "
            "fit() per method/dataset and structured results."
        ),
    )
    parser.add_argument(
        "--datasets", nargs="+", default=["digg"], metavar="NAME",
        help=f"dataset names (registry: {', '.join(available())})",
    )
    parser.add_argument(
        "--methods", nargs="+", default=["EHNA"], metavar="NAME",
        help="method names from the Section V roster "
             "(LINE, Node2Vec, CTDNE, HTNE, EHNA)",
    )
    parser.add_argument(
        "--tasks", nargs="+", default=["link_prediction"], metavar="NAME",
        choices=sorted(TASK_TYPES), help=f"task names: {', '.join(sorted(TASK_TYPES))}",
    )
    parser.add_argument("--scale", type=float, default=0.3,
                        help="dataset scale multiplier (default 0.3)")
    parser.add_argument("--seed", type=int, default=0, help="grid seed (default 0)")
    parser.add_argument("--dim", type=int, default=32,
                        help="embedding dimension (default 32)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="classifier-split repeats per eval (default 3)")
    parser.add_argument("--candidates", type=int, default=20,
                        help="temporal_ranking distractors per query (default 20)")
    parser.add_argument("--queries", type=int, default=40,
                        help="temporal_ranking max held-out queries (default 40)")
    parser.add_argument("--ehna-epochs", type=int, default=3,
                        help="EHNA training epochs (default 3)")
    parser.add_argument("--sgns-epochs", type=int, default=2,
                        help="skip-gram baseline epochs (default 2)")
    parser.add_argument("--format", choices=("markdown", "json"),
                        default="markdown", help="output format")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the rendered table to this file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    roster = default_methods(
        dim=args.dim,
        seed=args.seed,
        ehna_epochs=args.ehna_epochs,
        sgns_epochs=args.sgns_epochs,
    )
    unknown = [m for m in args.methods if m not in roster]
    if unknown:
        print(
            f"error: unknown methods {unknown}; expected among {list(roster)}",
            file=sys.stderr,
        )
        return 2
    methods = {name: roster[name] for name in args.methods}

    tasks = []
    for name in args.tasks:
        kwargs = {}
        repeat_kwarg = _REPEAT_KWARG.get(name)
        if repeat_kwarg:
            kwargs[repeat_kwarg] = args.repeats
        if name == "temporal_ranking":
            kwargs["num_candidates"] = args.candidates
            kwargs["max_queries"] = args.queries
        if name == "streaming_replay":
            kwargs["max_queries"] = args.queries
        tasks.append(TASK_TYPES[name](**kwargs))

    runner = Runner(
        args.datasets,
        methods,
        tasks,
        scale=args.scale,
        seed=args.seed,
        verbose=not args.quiet,
    )
    try:
        table = runner.run()
    except UnknownDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        table.to_markdown() if args.format == "markdown" else table.to_json(indent=2)
    )
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.out is not None:
        args.out.write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0
