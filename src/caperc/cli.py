"""Command-line interface: sampling, decomposition, analytics, experiments."""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import cache, partial
from pathlib import Path

import numpy as np

from .analytic import PSystemError, SeriesTruncationError
from .cap import CapDecomposition
from .experiments import (
    CONFIG_KEYS,
    KINDS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    run_experiment,
)
from .graph import dump_graph, load_graph, sample_ecer
from .localweak import EmptyCatalogError


class _InputError(Exception):
    """Invalid input at any stage: `main` prints it and exits 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one config error line, no usage dump
        raise _InputError(message)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    try:
        items = parse_config_file(args.config) if args.config else {}
        # kind comes from the subcommand's defaults; a file may only repeat it
        if items.get("kind", args.kind) != args.kind:
            raise ValueError(f"config file has kind={items['kind']}, but "
                             f"this subcommand runs kind={args.kind}")
        items.update({key: val for key, val in vars(args).items()
                      if key in CONFIG_KEYS and val is not None})
        return config_from_mapping(items)
    except (ValueError, OSError) as exc:
        raise _InputError(exc) from None


@contextmanager
def _writing(path):
    """Report a failure to create or write `path` as invalid input."""
    try:
        yield
    except OSError as exc:
        raise _InputError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _run_experiment(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # an unwritable --out is reported before the run, not after it
    if cfg.out:
        with _writing(cfg.out):
            cfg.run_dir().mkdir(parents=True, exist_ok=True)
    record = run_experiment(cfg)
    if cfg.out:
        with _writing(cfg.out):
            text = record.write()
        print(f"wrote {cfg.run_dir()}", file=sys.stderr)
    else:
        text = record.to_json()
    sys.stdout.write(text)
    return 0 if record.checks_passed else 1


def _write_out(out, name: str, write) -> None:
    """write(fh) to out/name, making out if missing, or else to stdout."""
    if not out:
        return write(sys.stdout)
    path = Path(out) / name
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            write(fh)
    print(f"wrote {path}", file=sys.stderr)


def _cmd_sample_ecer(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    n = cfg.n_list[-1]
    g = sample_ecer(n, cfg.lam, np.random.default_rng(cfg.seed))
    _write_out(cfg.out, f"ecer-n{n}-seed{cfg.seed}.txt",
               partial(dump_graph, g))
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    path = Path(args.graph)
    try:
        with path.open() as fh:
            g = load_graph(fh)
    except OSError as exc:
        raise _InputError(
            f"cannot read graph file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise _InputError(f"malformed graph file {path}: {exc}") from None
    dec = CapDecomposition.from_graph(g)
    # the blocks cover every vertex once; integers, so this holds at n = 0
    if sum(size * count for size, count in dec.size_counts.items()) != dec.n:
        print("normalization check failed", file=sys.stderr)
        return 1
    _write_out(args.out, path.stem + "-components.csv", dec.to_csv)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a fresh
    namespace."""
    parser = _Parser(
        prog="caperc",
        description="Color-avoiding percolation: simulation and analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, spec in KINDS.items():
        # a kind without a body writes a graph dump, not a record; a flag
        # is never abbreviated, so --n does not stand for --node-cap
        p = sub.add_parser(spec.command, allow_abbrev=False, help=(
            f"run the {kind} experiment" if spec.body
            else "sample an ECER graph dump"))
        for key in (*spec.reads, "out"):
            p.add_argument("--" + key.replace("_", "-"),
                           help=CONFIG_KEYS[key].metadata.get("help"))
        p.add_argument("--config",
                       help="flat key=value config file; flags override it")
        p.set_defaults(fn=_run_experiment if spec.body else _cmd_sample_ecer,
                       kind=kind)

    p = sub.add_parser("components",
                       help="decompose a graph dump into color-avoiding components")
    p.add_argument("graph", type=str, help="graph dump file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_components)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    # the closed forms reject a lambda they cannot evaluate to tolerance, and
    # the local weak check one whose balls all fall outside the catalog
    except (_InputError, PSystemError, SeriesTruncationError,
            EmptyCatalogError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
