"""Command-line interface: sampling, decomposition, analytics, experiments."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cap import CapDecomposition
from .experiments import (
    RUNNERS,
    config_from_mapping,
    parse_config_file,
)
from .graph import dump_graph, load_graph, sample_ecer
from .params import LambdaVector


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", type=str, default=None,
                        help="comma-separated color intensities, e.g. 2,2")
    parser.add_argument("--n", type=str, default=None,
                        help="comma-separated vertex counts")
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--depth-cap", type=int, default=None)
    parser.add_argument("--node-cap", type=int, default=None)
    parser.add_argument("--ell-max", type=int, default=None)
    parser.add_argument("--eps", type=str, default=None,
                        help="comma-separated decreasing epsilon grid")
    parser.add_argument("--d", type=int, default=None, help="ball depth")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags override it")


def _gather(args: argparse.Namespace, kind: str) -> dict[str, str]:
    items: dict[str, str] = {}
    if args.config:
        items.update(parse_config_file(args.config))
    items["kind"] = kind
    mapping = {
        "k": args.k, "lambda": args.lam, "n": args.n,
        "replicas": args.replicas, "samples": args.samples,
        "seed": args.seed, "out": args.out, "workers": args.workers,
        "depth_cap": args.depth_cap, "node_cap": args.node_cap,
        "ell_max": args.ell_max, "eps": args.eps, "d": args.d,
    }
    for key, val in mapping.items():
        if val is not None:
            items[key] = str(val)
    if "k" not in items and "lambda" in items:
        items["k"] = str(len(items["lambda"].split(",")))
    return items


def _run_experiment(args: argparse.Namespace, kind: str) -> int:
    try:
        cfg = config_from_mapping(_gather(args, kind))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    record = RUNNERS[kind](cfg)
    if cfg.out:
        run_dir = record.write()
        print(f"wrote {run_dir}", file=sys.stderr)
    print(json.dumps(record.to_json_dict(), indent=2, sort_keys=True))
    return 0 if record.checks_passed else 1


def _cmd_sample_ecer(args: argparse.Namespace) -> int:
    try:
        cfg = config_from_mapping(_gather(args, "ecer-convergence"))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    n = cfg.n_list[-1]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    g = sample_ecer(n, n, LambdaVector(cfg.lam), rng)
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"ecer-n{n}-seed{cfg.seed}.txt"
        with path.open("w") as fh:
            dump_graph(g, fh)
        print(f"wrote {path}", file=sys.stderr)
    else:
        dump_graph(g, sys.stdout)
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    path = Path(args.graph)
    if not path.exists():
        print(f"config error: no such graph file {path}", file=sys.stderr)
        return 2
    try:
        with path.open() as fh:
            g = load_graph(fh)
    except ValueError as exc:
        print(f"config error: malformed graph file {path}: {exc}",
              file=sys.stderr)
        return 2
    dec = CapDecomposition.from_graph(g)
    if sum(dec.size_histogram.values()) != 1:
        print("normalization check failed", file=sys.stderr)
        return 1
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / (path.stem + "-components.csv")
        with out_path.open("w") as fh:
            dec.to_csv(fh)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        dec.to_csv(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caperc",
        description="Color-avoiding percolation: simulation and analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-ecer", help="sample an ECER graph dump")
    _add_common(p)
    p.set_defaults(fn=_cmd_sample_ecer)

    p = sub.add_parser("components",
                       help="decompose a graph dump into color-avoiding components")
    p.add_argument("graph", type=str, help="graph dump file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_components)

    for kind, cmd in (("analytic-report", "analytic"),
                      ("ecbp-mc", "ecbp-mc"),
                      ("ecer-convergence", "convergence"),
                      ("local-weak-check", "local-weak"),
                      ("near-critical", "near-critical")):
        p = sub.add_parser(cmd, help=f"run the {kind} experiment")
        _add_common(p)
        p.set_defaults(fn=_run_experiment, kind=kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fn is _run_experiment:
        return _run_experiment(args, args.kind)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
