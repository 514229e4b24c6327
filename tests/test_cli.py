"""Command-line interface tests: exit codes, artifacts, and byte-for-byte
determinism of seeded runs."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caperc
from caperc import cap, cli
from caperc.analytic import f_infinity_inclusion_exclusion
from caperc.cli import main
from caperc.experiments import CONFIG_KEYS, KINDS
from caperc.graph import (
    EdgeColoredGraph,
    connected_components,
    dump_graph,
    load_graph,
    sample_ecer,
)
from test_graph import load_graph_by_line


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the `caperc ...` lines of README's command-line block, in order:
    # components reads the graph that sample-ecer writes
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("caperc ")]
    assert {argv[0] for argv in commands} == {
        "analytic", "sample-ecer", "components", "ecbp-mc", "convergence",
        "local-weak", "near-critical"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_invalid_config_exits_2(capsys):
    # analytic takes k from lambda's length, so --k is a usage error
    assert main(["analytic", "--k", "3", "--lambda", "2,2"]) == 2
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --k 3\n")


@pytest.mark.parametrize("argv", [
    # the friend-count sampler needs every single color subcritical at k = 3
    ["ecbp-mc", "--lambda", "0.5,0.6,2", "--samples", "10"],
    # a friend needs a second color to avoid
    ["ecbp-mc", "--lambda", "2", "--samples", "10"],
    ["local-weak", "--d", "-1"],
    ["analytic", "--lambda", "2"],
    ["near-critical", "--k", "1"],
    # lambda must be positive with a finite sum
    ["analytic", "--lambda", "nan,nan"],
    ["analytic", "--lambda", "inf,2"],
    # the eps grid: two or more entries, decreasing, below 1/(k-2)
    ["near-critical", "--k", "2", "--eps", "0.1,0.2"],
    ["near-critical", "--k", "2", "--eps", "0.05"],
    ["near-critical", "--k", "3", "--eps", "2,1"],
    # eps^k underflows to zero, or overflows
    ["near-critical", "--k", "3", "--eps", "1e-200,1e-201"],
    ["near-critical", "--k", "2", "--eps", "1e300,1e299"],
    ["ecbp-mc", "--depth-cap", "-3", "--samples", "10"],
    # vertex pair keys u * n + v must fit in int64
    ["convergence", "--n", "4000000000"],
    ["sample-ecer", "--n", "3037000500"],
    ["ecbp-mc", "--node-cap", "-5", "--samples", "10"],
    ["ecbp-mc", "--k", "two"],
    # unreadable config file, unwritable output
    ["sample-ecer", "--config", "{missing}"],
    ["ecbp-mc", "--config", "{missing}"],
    # a config file that gives one key twice
    ["analytic", "--config", "{twice}"],
    ["ecbp-mc", "--samples", "10", "--out", "{file}/sub"],
    ["sample-ecer", "--n", "50", "--out", "{file}/sub"],
    ["components", "{graph}", "--out", "{file}/sub"],
    # the two-color series tail is not certified this close to criticality
    ["analytic", "--lambda", "1.0000001,1.0000001"],
    ["convergence", "--lambda", "1.0000001,1.0000001"],
    # no depth-1 ball is tree-like within the catalog's size cap
    ["local-weak", "--lambda", "40,40", "--n", "50", "--replicas", "1"],
    # k ceilings: 2^k tables to k = 20, and ecbp-mc's k * 4^k to k = 12
    ["near-critical", "--k", "40"],
    ["analytic", "--lambda", ",".join(["0.1"] * 30)],
    ["analytic", "--lambda", ",".join(["0.1"] * 21)],
    ["convergence", "--lambda", ",".join(["0.1"] * 21), "--n", "10"],
    ["ecbp-mc", "--lambda", ",".join(["0.05"] * 13), "--samples", "10"],
    # ell_max ceiling: the two-color series cost grows as ell_max^2
    ["analytic", "--lambda", "2,2", "--ell-max", "1001"],
    ["ecbp-mc", "--samples", "10", "--ell-max", "100000000"],
    ["convergence", "--n", "10", "--replicas", "1", "--ell-max", "3000"],
])
def test_invalid_experiment_input_exits_2(tmp_path, capsys, argv):
    missing, file, graph, twice = (
        tmp_path / name
        for name in ("missing.cfg", "file", "graph.txt", "twice.cfg"))
    file.write_text("")
    twice.write_text("lambda=2,2\nlambda=3,3\n")
    with graph.open("w") as fh:
        dump_graph(EdgeColoredGraph(3, [[(0, 1)], [(1, 2)]]), fh)
    argv = [arg.format(missing=missing, file=file, graph=graph, twice=twice)
            for arg in argv]
    assert main(argv) == 2
    # one line, no traceback
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["convergence", "--n", "10", "--replicas", "1", "--d", "3"],
    ["ecbp-mc", "--samples", "10", "--d", "3"],
    ["ecbp-mc", "--samples", "10", "--n", "0"],
    ["analytic", "--lambda", "2,2", "--replicas", "0"],
    # ell_max is read by convergence, ecbp-mc and analytic, the caps by
    # ecbp-mc alone
    ["near-critical", "--k", "2", "--ell-max", "0"],
    ["local-weak", "--lambda", "1,1", "--n", "300", "--replicas", "1",
     "--ell-max", "0"],
    # local-weak reads the exact tree-ball law, not sampled balls
    ["local-weak", "--lambda", "1,1", "--n", "300", "--replicas", "1",
     "--samples", "0"],
    ["analytic", "--lambda", "2,2", "--node-cap", "-1"],
    ["near-critical", "--k", "2", "--depth-cap", "-5"],
    # sample-ecer reads lambda, n and seed alone; analytic and near-critical
    # read no seed, and near-critical no lambda
    ["sample-ecer", "--n", "10", "--d", "3"],
    ["sample-ecer", "--n", "10", "--replicas", "0"],
    ["sample-ecer", "--n", "10", "--samples", "0"],
    ["near-critical", "--k", "3", "--lambda", "0,1"],
    ["analytic", "--lambda", "2,2", "--seed", "-1"],
])
def test_a_value_the_kind_does_not_read_is_not_checked(tmp_path, capsys,
                                                       argv):
    # as a flag it is a usage error; in a config file it is dropped
    # unchecked, and the record does not hold it
    command, reads = argv[0], KINDS[_KIND_OF[argv[0]]].reads
    flags = list(zip(argv[1::2], argv[2::2]))
    unread = {flag[2:].replace("-", "_"): value for flag, value in flags}
    unread = {key: value for key, value in unread.items() if key not in reads}
    assert unread
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unrecognized arguments: ")
    assert err.count("\n") == 1
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key}={val}\n" for key, val in unread.items()))
    read_flags = [arg for flag, value in flags
                  if flag[2:].replace("-", "_") in reads
                  for arg in (flag, value)]
    assert main([command, *read_flags, "--config", str(path)]) == 0
    out = capsys.readouterr().out
    if command != "sample-ecer":
        assert not set(unread) & set(json.loads(out)["config"])


def test_unwritable_out_is_reported_before_the_run(tmp_path, capsys,
                                                   monkeypatch):
    file = tmp_path / "file"
    file.write_text("")

    def run_experiment(cfg):
        raise AssertionError("the runner ran")
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    argv = ["ecbp-mc", "--lambda", "2,2", "--samples", "10",
            "--out", f"{file}/sub"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ")
    assert err.count("\n") == 1


def test_config_file_kind_must_match_the_subcommand(tmp_path, capsys):
    assert main(["ecbp-mc", "--lambda", "2,2", "--samples", "7"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key}={val}\n" for key, val in config.items()))
    # a record's config block, its kind line included, runs as it was
    assert main(["ecbp-mc", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == config
    # another subcommand does not take it over
    assert main(["analytic", "--config", str(path), "--lambda", "2,2"]) == 2
    assert capsys.readouterr().err == (
        "config error: config file has kind=ecbp-mc, but this subcommand "
        "runs kind=analytic-report\n")


def test_sample_ecer_config_file_names_its_own_kind(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("kind=sample-ecer\nlambda=1,1\nn=20\n")
    assert main(["sample-ecer", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "20 2"
    path.write_text("kind=local-weak-check\nlambda=1,1\nn=20\n")
    assert main(["sample-ecer", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: config file has kind=local-weak-check, but this "
        "subcommand runs kind=sample-ecer\n")


def test_every_subcommand_but_components_is_one_kind():
    parser = cli.build_parser()
    commands = [spec.command for spec in KINDS.values()]
    assert sorted(_subparsers()) == sorted(commands + ["components"])
    for kind, spec in KINDS.items():
        assert parser.parse_args([spec.command]).kind == kind
    assert not hasattr(parser.parse_args(["components", "g.txt"]), "kind")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flags(parser: argparse.ArgumentParser) -> list[str]:
    return [flag for a in parser._actions for flag in a.option_strings
            if flag not in ("-h", "--help")]


def test_each_subcommand_takes_the_flags_its_kind_reads():
    subparsers = _subparsers()
    counted = 0
    for spec in KINDS.values():
        flags = _flags(subparsers[spec.command])
        assert sorted(flags) == sorted(
            ["--config", "--out",
             *("--" + key.replace("_", "-") for key in spec.reads)])
        assert ("--k" in flags) == (spec.command == "near-critical")
        counted += len(flags)
    assert counted == 38


def test_readme_lists_each_subcommand_s_flags():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("## Command line", 1)[1]
    text = text.split("Exit codes", 1)[0]
    # "- `command`: ..." items, each up to the next item or blank line
    listed = {m[1]: sorted(set(re.findall(r"`(--[a-z-]+)", m[2])))
              for m in re.finditer(r"^- `([a-z-]+)`:(.*?)(?=^- |^$)", text,
                                   re.M | re.S)}
    assert listed == {command: sorted(_flags(parser))
                      for command, parser in _subparsers().items()}


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("lambda=2,2\nsample=500\n")
    assert main(["ecbp-mc", "--config", str(path)]) == 2
    assert "unknown config key(s): sample" in capsys.readouterr().err


def _other_value(default) -> str:
    if isinstance(default, tuple):
        return ",".join(str(x // 2 if isinstance(x, int) else x / 2)
                        for x in default)
    return str(default + 1)


# for each key, a cheap run of a kind that reads it
_READER = {
    "k": ["near-critical"],
    "lambda": ["ecbp-mc", "--samples", "10"],
    "n": ["convergence", "--replicas", "1"],
    "replicas": ["convergence", "--n", "10"],
    "samples": ["ecbp-mc"],
    "seed": ["convergence", "--n", "10", "--replicas", "1"],
    "depth_cap": ["ecbp-mc", "--samples", "10"],
    "node_cap": ["ecbp-mc", "--samples", "10"],
    "ell_max": ["analytic"],
    "eps": ["near-critical"],
    "d": ["local-weak", "--lambda", "1,1", "--n", "50", "--replicas", "1"],
    # one task: no pool is started
    "workers": ["convergence", "--n", "10", "--replicas", "1"],
}


@pytest.mark.parametrize(
    "key", [key for key in CONFIG_KEYS if key not in ("kind", "out")])
def test_flag_and_config_line_give_the_same_config(tmp_path, capsys, key):
    value = _other_value(CONFIG_KEYS[key].default)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    configs = []
    for argv in ([], ["--" + key.replace("_", "-"), value],
                 ["--config", str(path)]):
        assert main([*_READER[key], *argv]) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs[1] == configs[2]
    assert {k for k in configs[0] if configs[1][k] != configs[0][k]} == {key}


def test_unknown_kind_protected_by_argparse(capsys):
    assert main(["no-such-command"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: argument command: invalid choice: "
                          "'no-such-command' (choose from 'analytic', ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["ecbp-mc", "--samples"], "argument --samples: expected one argument"),
    (["ecbp-mc", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # no abbreviations: --n does not stand for --node-cap
    (["ecbp-mc", "--n", "7"], "unrecognized arguments: --n 7"),
])
def test_a_usage_error_is_one_config_error_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ecbp-mc", "--help"])
    assert exc.value.code == 0
    assert "--node-cap" in capsys.readouterr().out


def test_near_critical_cli(capsys):
    assert main(["near-critical", "--k", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["checks_passed"] is True
    assert abs(record["results"]["estimate"] - 4.0) < 0.1


def test_near_critical_cli_close_to_criticality(capsys):
    assert main(["near-critical", "--k", "2", "--eps", "2e-8,1e-8"]) == 0
    estimate = json.loads(capsys.readouterr().out)["results"]["estimate"]
    assert abs(estimate - 4.0) <= 1e-6 * 4.0


@pytest.mark.parametrize("argv, passed", [
    (["--k", "5"], True),
    (["--k", "5", "--eps", "2e-4,1e-4"], False),
    # its floor at eps = 2e-4 is 1.9e-3 of the ratio
    (["--k", "5", "--eps", "5e-4,2e-4"], False),
    (["--k", "3", "--eps", "2e-8,1e-8"], False),
])
def test_near_critical_cli_checks_noise_floors(capsys, argv, passed):
    # a grid whose ratios sink into their cancellation noise fails
    assert main(["near-critical", *argv]) == (0 if passed else 1)
    record = json.loads(capsys.readouterr().out)
    res = record["results"]
    assert record["checks_passed"] is passed
    assert res["monotone"]
    assert len(res["noise_floors"]) == len(res["ratios"])
    assert passed == all(f <= 1e-4 * r for f, r in zip(res["noise_floors"],
                                                       res["ratios"]))


def test_near_critical_cli_reads_no_lambda(tmp_path, capsys):
    # the README command: k = 3 alongside the default two-entry lambda
    assert main(["near-critical", "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["k"] == 3
    # nor does it take a lambda: as a flag it is a usage error, and a config
    # file's lambda sets no k, so this runs at the default k = 2
    assert main(["near-critical", "--lambda", "1,1,1"]) == 2
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --lambda 1,1,1\n")
    path = tmp_path / "run.cfg"
    path.write_text("lambda=1,1,1\n")
    assert main(["near-critical", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"] == {"kind": "near-critical", "k": "2",
                                "eps": "0.01,0.005,0.002,0.001"}
    assert record["results"]["k"] == 2


def test_analytic_cli_infers_k(capsys):
    assert main(["analytic", "--lambda", "2,2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["k"] == "2"
    assert record["results"]["regime"]["fully_supercritical"]


def test_analytic_cli_runs_the_generating_function_route_at_k7(capsys):
    # every 6-sum above 1 and every 5-sum below 1
    assert main(["analytic", "--lambda",
                 "0.18,0.17,0.19,0.18,0.18,0.175,0.185"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["checks_passed"]
    res = record["results"]
    assert res["regime"]["fully_supercritical"]
    assert res["regime"]["assumption_holds"]
    assert abs(res["f_inf_generating_function"]
               - res["f_inf_inclusion_exclusion"]) <= 1e-12


def test_analytic_cli_skips_the_generating_function_route_above_k10(capsys):
    # every 10-sum above 1 and every 9-sum below 1; the route costs 4^k
    assert main(["analytic", "--lambda", ",".join(["0.101"] * 11)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["checks_passed"]
    res = record["results"]
    assert res["regime"]["fully_supercritical"]
    assert res["regime"]["assumption_holds"]
    assert res["f_inf_generating_function"] is None
    assert res["f_inf_inclusion_exclusion"] > 0.0


@pytest.mark.parametrize("lam", ["20,20", "40,40"])
def test_analytic_cli_relevance_when_p_rounds_to_one(capsys, lam):
    # p_[k] rounds to 1.0 at these lambdas, yet the table is relevant
    assert main(["analytic", "--lambda", lam]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["p_table_relevant"] is res["regime"]["fully_supercritical"]
    assert res["p_table_relevant"]


def test_local_weak_empty_catalog_names_the_depth(capsys):
    assert main(["local-weak", "--lambda", "40,40", "--n", "50", "--d", "2",
                 "--replicas", "1"]) == 2
    assert "no depth-2 ball was tree-like" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # one intensity dwarfs the other: the total minus it cancels
    ["analytic", "--lambda", "1e17,1"],
    ["ecbp-mc", "--lambda", "1e17,1", "--samples", "10"],
    ["analytic", "--lambda", "1e308,2"],
    # the first level's Poisson mean is beyond numpy's limit
    ["ecbp-mc", "--lambda", "1e19,1", "--samples", "10"],
])
def test_dominant_intensity_runs_or_exits_2(capsys, argv):
    code = main(argv)
    assert code in (0, 2)
    if argv[2] == "1e19,1":
        assert code == 2
        assert "Poisson limit" in capsys.readouterr().err


def _perfbench_tracing():
    """perfbench/tracing.py, loaded from its file as perfbench runs it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    # two k = 2 chunks, both outcomes
    ["--lambda", "2,2", "--samples", "20000"],
    # k = 3 over two blocks, with node-capped samples too
    ["--lambda", "0.9,0.8,0.7", "--samples", "5000", "--node-cap", "50"],
])
def test_traced_outcomes_tally_to_the_record(capsys, argv):
    # perfbench's traced check: the outcome tags of the spans its tracer
    # wraps around FriendCountSampler.sample must tally to the record's
    # histogram and censored count
    tracer = _perfbench_tracing().Tracer()
    tracer.install()
    try:
        rc, first = tracer.run_unit(main, ["ecbp-mc", "--seed", "3",
                                           "--workers", "1", *argv])
    finally:
        tracer.uninstall()
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["results"]
    tags = tracer.tags_since(first)
    censored = tags.pop("depth-cap", 0) + tags.pop("node-cap", 0)
    assert censored == round(res["censored_mass"] * res["samples"]) > 0
    assert tags == {int(ell): c for ell, c in res["histogram"].items()}
    assert sum(tags.values()) + censored == res["samples"]


def test_ecbp_mc_when_theta_rounds_to_one(capsys):
    # theta(40) rounds to 1.0: every cluster is certified from its first
    # node, so every sample is censored, and f_inf rounds to 1.0 as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ecbp-mc", "--lambda", "40,40", "--samples", "10"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["censored_mass"] == 1.0
    assert f_infinity_inclusion_exclusion((40.0, 40.0)) == 1.0


def _record_without_timing(text: str) -> dict:
    record = json.loads(text)
    del record["elapsed_s"]
    return record


def test_successive_calls_match_fresh_processes(capsys):
    # the parser is built once per process; no flag value may leak from one
    # call into the next
    runs = [["ecbp-mc", "--lambda", "2,2", "--samples", "300", "--seed", "5"],
            ["ecbp-mc", "--lambda", "2,2", "--samples", "300"]]
    in_process = []
    for argv in runs:
        assert main(argv) == 0
        in_process.append(_record_without_timing(capsys.readouterr().out))
    src = str(Path(caperc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = [_record_without_timing(subprocess.run(
        [sys.executable, "-m", "caperc", *argv], env=env, check=True,
        capture_output=True, text=True).stdout) for argv in runs]
    assert in_process == fresh
    assert in_process[1]["config"]["seed"] == "0"


def test_python_m_caperc_runs_from_the_checkout():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-m", "caperc", "near-critical",
                           "--k", "2"], cwd=root, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["checks_passed"] is True


def test_the_cli_loads_no_test_oracle():
    # the tree arena and the chronology atlas live beside the tests
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, caperc.cli; print(*sys.modules)"],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "caperc.cli" in loaded
    assert not {"caperc.chronology", "caperc.trees"} & loaded


def test_ecbp_mc_cli(capsys):
    assert main(["ecbp-mc", "--lambda", "2,2", "--samples", "1000",
                 "--seed", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["results"]["samples"] == 1000
    assert 0.0 < record["results"]["censored_mass"] < 1.0


def test_convergence_cli_deterministic_csv(tmp_path, capsys):
    args = ["convergence", "--lambda", "2,2", "--n", "200,400",
            "--replicas", "2", "--seed", "5"]
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(args + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        csv_files = list(out_dir.glob("*/convergence.csv"))
        assert len(csv_files) == 1
        outs.append(csv_files[0].read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"# schema: caperc-convergence-v1\n")


def test_convergence_cli_ell_max_above_n(tmp_path, capsys):
    # no component is larger than the graph: f_ell = 0 for ell > n
    assert main(["convergence", "--lambda", "2,2", "--n", "10",
                 "--ell-max", "20", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = next(tmp_path.glob("*/convergence.csv")).read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert {int(row[2]) for row in rows} == set(range(1, 21))
    assert all(float(row[3]) == 0.0 for row in rows if int(row[2]) > 10)
    # sample-ecer goes through the same config with its default ell_max
    assert main(["sample-ecer", "--lambda", "2,2", "--n", "3",
                 "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3 2"


def test_ecbp_mc_at_one_color_names_the_k_bound(capsys):
    assert main(["ecbp-mc", "--lambda", "2", "--samples", "10"]) == 2
    assert capsys.readouterr().err == "config error: ecbp-mc needs k >= 2\n"


def test_convergence_at_tiny_lambda_is_edgeless(tmp_path, capsys):
    # lambda / n this small once kept the ECER sampler from ending
    assert main(["convergence", "--lambda", "1e-300,1e-300", "--n", "10",
                 "--replicas", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = next(tmp_path.glob("*/convergence.csv")).read_text().splitlines()
    # no edges: every vertex is a component of its own
    assert [float(row.split(",")[3]) for row in lines[2:]] == [1.0, 0, 0, 0, 0]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=2,2\nsamples=400\nseed=1\n")
    assert main(["ecbp-mc", "--config", str(cfg), "--samples", "600"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["samples"] == "600"
    assert record["config"]["seed"] == "1"


def test_sample_ecer_cli(tmp_path, capsys):
    args = ["sample-ecer", "--lambda", "1.5,0.5", "--n", "300",
            "--seed", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    path = tmp_path / "ecer-n300-seed4.txt"
    with path.open() as fh:
        g = load_graph(fh)
    assert g.n == 300 and g.k == 2
    first = path.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_sample_ecer_has_no_k_ceiling(capsys):
    # sample-ecer builds no 2^k table, unlike convergence
    lam = ",".join(["0.1"] * 21)
    assert main(["sample-ecer", "--lambda", lam, "--n", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "50 21"
    assert main(["convergence", "--lambda", lam, "--n", "50"]) == 2
    assert capsys.readouterr().err == (
        "config error: ecer-convergence needs k <= 20\n")


def test_sample_ecer_cli_stdout(capsys):
    assert main(["sample-ecer", "--lambda", "1,1", "--n", "50",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "50 2"


def test_components_cli(tmp_path, capsys):
    g = EdgeColoredGraph(3, [[(0, 1), (0, 2)], [(1, 2)]])
    graph_path = tmp_path / "tri.txt"
    with graph_path.open("w") as fh:
        dump_graph(g, fh)
    assert main(["components", str(graph_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "tri-components.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# schema: cap-sizes-v1"
    fracs = [float(line.split(",")[1]) for line in lines[2:]]
    assert abs(sum(fracs) - 1.0) < 1e-12


def test_components_cli_graph_without_vertices(tmp_path, capsys):
    # the blocks cover all 0 vertices: a header-only CSV, exit 0
    path = tmp_path / "empty.txt"
    path.write_text("0 2\n")
    assert main(["components", str(path)]) == 0
    assert capsys.readouterr().out == (
        "# schema: cap-sizes-v1\nsize,fraction,count\n")


def test_components_meets_over_the_colors_with_edges(tmp_path, capsys,
                                                    monkeypatch):
    # 48 of the 50 colors have no edges: without one of them the graph is
    # whole, so the meet takes one projection per color with edges
    path = tmp_path / "wide.txt"
    path.write_text("6 50\n7 0 1\n7 1 2\n7 3 4\n31 0 1\n31 1 2\n31 4 5\n")
    calls = []

    def counted(n, edges):
        calls.append(len(edges))
        return connected_components(n, edges)
    monkeypatch.setattr(cap, "connected_components", counted)
    assert main(["components", str(path)]) == 0
    assert calls == [1, 1]
    # blocks {0, 1, 2}, {3}, {4}, {5}
    assert capsys.readouterr().out == (
        "# schema: cap-sizes-v1\nsize,fraction,count\n1,0.5,3\n3,0.5,1\n")


def test_components_cli_missing_file(capsys):
    assert main(["components", "/nonexistent/path.txt"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("dump", [
    "3\n0 0 1\n",      # header without k
    "3 2\n2 0 1\n",    # color out of range
    "3 2\n0 0 3\n",    # endpoint out of range
    "3 2\n0 0 x\n",    # non-integer token
    "3 2\n0\n",        # one field
    "3 2\n0 0\n",      # two fields
    "3 2\n0 0 1 2\n",  # four fields
    "3 2\n0 0 1\n1 1\n",  # two fields after three
    "3 2\n0 0 1.0\n",  # float token
    "3 2\n0 0 2e0\n",  # float token
    "3 2\n0 0 #\n",    # comment token
    "3 2\n# edges\n",  # comment line
    "3 2\n0 0 1 # e\n",  # trailing comment
    "3 2\n-1 0 1\n",   # negative color
    "3 2\n0 0 99999999999999999999\n",  # beyond int64
    "",                 # no header
    "3 x\n0 0 1\n",    # non-integer k
    "3 2 1\n0 0 1\n",  # three header fields
    "3 0\n",           # no colors
    "-3 2\n",          # negative n
    "4000000000 2\n0 1 2\n",  # pair keys beyond int64
])
def test_components_cli_malformed_dump_exits_2(tmp_path, capsys, dump):
    path = tmp_path / "bad.txt"
    path.write_text(dump)
    assert main(["components", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("dump", ["3 1_0\n0 0 1\n", "\u0663 2\n"])
def test_components_header_takes_ascii_integers_only(tmp_path, capsys, dump):
    # Python's int reads these headers as 10 colors and as n = 3; the rows'
    # parser, np.loadtxt, takes neither
    path = tmp_path / "bad.txt"
    path.write_text(dump, encoding="utf-8")
    assert main(["components", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("dump", [
    "3 1000000\n",                    # a million colors, none with edges
    "3 3000000000\n0 0 1\n",          # 3e9 colors, one edge
    "3 99999999999999999999\n",       # k beyond int64
])
def test_components_on_a_wide_header(dump):
    # no part of a graph grows with k, so each is three singletons; the
    # first took 2.5 s and 393 MB, and the second, 22.4 GiB, exited 1 with
    # a traceback, when every color had an array
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(dump)
        code, out, err = _run_main(["components", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["1,1.0,3"]


def test_components_csv_matches_per_line_loader(tmp_path, monkeypatch,
                                               capsys):
    g = sample_ecer(200000, (1.0, 1.0), np.random.default_rng(10))
    graph_path = tmp_path / "g.txt"
    with graph_path.open("w") as fh:
        dump_graph(g, fh)
    assert main(["components", str(graph_path), "--out",
                 str(tmp_path / "new")]) == 0
    monkeypatch.setattr(cli, "load_graph", load_graph_by_line)
    assert main(["components", str(graph_path), "--out",
                 str(tmp_path / "old")]) == 0
    capsys.readouterr()
    new, old = ((tmp_path / d / "g-components.csv").read_bytes()
                for d in ("new", "old"))
    assert new == old


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["analytic", "--lambda", "0.9,0.8,0.7"],
    ["ecbp-mc", "--lambda", "2,2", "--samples", "300"],
    # no closed-form f_ell targets at k = 3: they are null, not NaN
    ["convergence", "--lambda", "0.9,0.8,0.7", "--n", "200", "--replicas",
     "2"],
    ["local-weak", "--lambda", "1,1", "--n", "300", "--replicas", "2"],
    ["near-critical", "--k", "2"],
], ids=lambda argv: argv[0])
def test_experiment_stdout_is_strict_json(capsys, tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    record = json.loads(out, parse_constant=_reject_constant)
    if argv[0] == "convergence":
        assert record["results"]["target_f_ell"] == [None] * 5
    # one serialization goes to stdout and to record.json
    assert next(tmp_path.glob("*/record.json")).read_text() == out


# entries outside every range: zero, negative, nan, infinite, huge, tiny,
# subnormal, and text that is not a number
_BAD_ENTRIES = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300",
                "1e-300", "5e-324", "x", "", "1e"]


def _entries(in_range, edges: list[str]):
    """A comma-joined list of 1 to 5 entries: each in range, at an edge of
    it or from _BAD_ENTRIES."""
    entry = (in_range.map(repr) | st.sampled_from(edges)
             | st.sampled_from(_BAD_ENTRIES))
    return st.lists(entry, min_size=1, max_size=5).map(",".join)


def _flag(name: str, values):
    # --flag=value, so that argparse takes "-1" as a value, not a flag
    return values.map(lambda value: f"--{name}={value}")


_LAMBDA = _entries(st.floats(0.05, 4.0), ["1", "1.0", "0.5"])
# a random list is seldom strictly decreasing, so valid grids are drawn too
_EPS = _entries(st.floats(1e-4, 0.3), ["0.5", "1", "1e-154"]) | st.lists(
    st.floats(1e-4, 0.3), min_size=2, max_size=4, unique=True).map(
        lambda grid: ",".join(map(repr, sorted(grid, reverse=True))))
# the engine's ceiling k = 20 is left out: a run there takes seconds
_K = (st.sampled_from(["2", "3", "4"])
      | st.sampled_from(["1", "0", "-1", "21", "2.5", "x", ""]))


@given(st.tuples(st.just("analytic"), _flag("lambda", _LAMBDA))
       | st.tuples(st.just("analytic"), _flag("lambda", _LAMBDA),
                   _flag("k", _K))
       | st.tuples(st.just("near-critical"), _flag("k", _K))
       | st.tuples(st.just("near-critical"), _flag("k", _K),
                   _flag("eps", _EPS)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_analytic_and_near_critical_exit_0_1_or_2_on_any_value(argv):
    code, out, err = _run_main(argv)
    if code != 2:
        assert not err, argv
        json.loads(out, parse_constant=_reject_constant)


def _run_main(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, once its exit code is
    checked to be 0, 1 or 2, and exit 2 to print one config error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), argv
    if code == 2:
        # one line, no traceback
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1
    return code, out.getvalue(), err.getvalue()


def _ints(lo: int, hi: int, edges: list[str]):
    """One int in [lo, hi], at an edge of it or from _BAD_ENTRIES."""
    return (st.integers(lo, hi).map(str) | st.sampled_from(edges)
            | st.sampled_from(_BAD_ENTRIES))


# a value for each schema key: in range, with the sizes kept small, at an
# edge, or bad; workers is 1 in range, as a pool would start processes
_VALUES = {
    "k": _K,
    "lambda": _LAMBDA,
    "n": _entries(st.integers(1, 60), ["1", "60"]),
    "replicas": _ints(1, 2, ["1"]),
    "samples": _ints(1, 200, ["200"]),
    "seed": _ints(0, 2**32, ["99999999999999999999"]),
    "depth_cap": _ints(0, 50, ["0"]),
    "node_cap": _ints(0, 1000, [str(10**19)]),
    "ell_max": _ints(1, 20, ["1001"]),
    "eps": _EPS,
    "d": _ints(0, 2, ["3"]),
    "workers": st.just("1") | st.sampled_from(_BAD_ENTRIES),
}
# the sizes each run is given, so that it stays cheap
_SIZES = {"ecbp-mc": ["samples"], "convergence": ["n", "replicas"],
          "local-weak": ["n", "replicas"], "sample-ecer": ["n"]}
_KIND_OF = {spec.command: kind for kind, spec in KINDS.items()}


@st.composite
def _experiment_argvs(draw, command: str) -> list[str]:
    """command with its size flags and up to four more schema flags, each
    one its kind reads or, as often, any schema flag."""
    reads = KINDS[_KIND_OF[command]].reads
    more = st.sampled_from(reads) | st.sampled_from(sorted(_VALUES))
    keys = _SIZES[command] + draw(st.lists(more, max_size=4, unique=True))
    return [command, *(draw(_flag(key.replace("_", "-"), _VALUES[key]))
                       for key in keys)]


def _check_run(command: str, out_dir: str, code: int, out: str,
               err: str) -> None:
    """A run that did not exit 2 wrote its record to stdout, or, for
    sample-ecer, its dump to out_dir."""
    if code == 2:
        return
    if command == "sample-ecer":
        (dump,) = Path(out_dir).glob("*.txt")
        assert err == f"wrote {dump}\n" and not out
    else:
        assert not err
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("command", sorted(_SIZES))
@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_experiments_exit_0_1_or_2_on_any_flag(command, data):
    argv = data.draw(_experiment_argvs(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        if command == "sample-ecer":
            argv.append(f"--out={tmp}")
        _check_run(command, tmp, *_run_main(argv))


@st.composite
def _config_files(draw, command: str) -> bytes:
    """A config file for command: its sizes and up to four more schema
    keys, read or not, then perhaps an unknown key, a kind line, a comment,
    a line without "=" or a line given twice, all in any order, and perhaps
    a byte that is not UTF-8."""
    keys = _SIZES.get(command, []) + draw(
        st.lists(st.sampled_from(sorted(_VALUES)), max_size=4))
    lines = [f"{key}={draw(_VALUES[key])}" for key in dict.fromkeys(keys)]
    lines += draw(st.lists(st.sampled_from(
        ["sample=500", f"kind={_KIND_OF[command]}", "kind=ecbp-mc",
         "# comment", "", "no equals sign"]), max_size=2))
    lines += draw(st.sampled_from([[], [], [], lines[:1]]))
    data = "\n".join(draw(st.permutations(lines))).encode()
    cut = draw(st.integers(0, len(data)))
    bad_byte = draw(st.sampled_from([b""] * 4 + [b"\xff", b"\xc3"]))
    return data[:cut] + bad_byte + data[cut:]


@given(st.sampled_from(sorted(_KIND_OF)).flatmap(
    lambda command: st.tuples(st.just(command), _config_files(command))))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_experiments_exit_0_1_or_2_on_any_config_file(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(data)
        argv = [command, "--config", str(path)]
        if command == "sample-ecer":
            argv += ["--out", tmp]
        _check_run(command, tmp, *_run_main(argv))


_ELAPSED = re.compile(rb'"elapsed_s": [-+.0-9eE]+')
# a cheap run of each kind that writes a record, as config-file lines
_SMALL_RUNS = {
    "analytic": "lambda=2,2\n",
    "ecbp-mc": "lambda=2,2\nsamples=50\nseed=1\n",
    "convergence": "lambda=2,2\nn=30,60\nreplicas=1\n",
    "local-weak": "lambda=1,1\nn=60\nreplicas=1\n",
    "near-critical": "k=3\n",
}


@st.composite
def _unread_lines(draw) -> tuple[str, str]:
    """A command of _SMALL_RUNS and a config line its kind does not read,
    with any value: one of _VALUES or printable ASCII text."""
    command = draw(st.sampled_from(sorted(_SMALL_RUNS)))
    reads = KINDS[_KIND_OF[command]].reads
    key = draw(st.sampled_from([key for key in _VALUES if key not in reads]))
    value = draw(_VALUES[key] | st.text(st.characters(min_codepoint=32,
                                                      max_codepoint=126)))
    return command, f"{key}={value}\n"


@given(_unread_lines())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_an_unread_config_key_changes_no_byte_of_the_record(case):
    command, line = case
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("a", ""), ("b", line)):
            path = Path(tmp) / f"{name}.cfg"
            path.write_text(_SMALL_RUNS[command] + text)
            code, out, _ = _run_main([command, "--config", str(path),
                                      "--out", f"{tmp}/{name}"])
            assert code == 0
            (run_dir,) = Path(tmp, name).iterdir()
            written.append((run_dir.name, _ELAPSED.sub(
                b"", (run_dir / "record.json").read_bytes())))
    assert written[0] == written[1]


def test_ecbp_mc_writes_one_run_whatever_unread_keys_its_file_names(
        tmp_path, capsys):
    argv = ["ecbp-mc", "--lambda", "2,2", "--samples", "2000", "--seed", "1",
            "--out", str(tmp_path / "runs")]
    records = set()
    for line in ("", "eps=0.5,0.1\n", "n=7\n"):
        path = tmp_path / "run.cfg"
        path.write_text(line)
        assert main([*argv, "--config", str(path)]) == 0
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        records.add(_ELAPSED.sub(b"", (run_dir / "record.json").read_bytes()))
    assert len(records) == 1
    assert main([*argv, "--eps", "0.5,0.1"]) == 2
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --eps 0.5,0.1\n")


_DUMP_TOKENS = st.integers(-1, 6).map(str) | st.sampled_from(
    ["", "x", "1.0", "2e0", "#", "+1", "-0", "0x1", "\x00", "\u0663",
     "99999999999999999999"])


@st.composite
def _graph_dumps(draw) -> bytes:
    """A graph dump: a valid header or, one time in four, tokens, then edges
    (self-loops among them) and blank lines, perhaps an edge repeated,
    perhaps a row of tokens, and perhaps a byte that is not UTF-8. The
    header's k runs up to 10^12, its rows' colors stay below 5."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 10**12))
    tokens = st.lists(_DUMP_TOKENS, max_size=4).map(" ".join)
    vertex = st.integers(0, max(n - 1, 0))
    edge = st.tuples(st.integers(0, min(k, 5) - 1), vertex, vertex).map(
        lambda row: "%d %d %d" % row)
    header = draw(tokens) if draw(st.integers(0, 3)) == 3 else f"{n} {k}"
    lines = [header, *draw(st.lists(edge | st.just(""), max_size=6))]
    lines += draw(st.sampled_from([[], [], [lines[-1]]]))
    for row in draw(st.lists(tokens, max_size=1)):
        lines.insert(draw(st.integers(1, len(lines))), row)
    data = "\n".join(lines).encode()
    cut = draw(st.integers(0, len(data)))
    bad_byte = draw(st.sampled_from([b""] * 4 + [b"\xff", b"\xc3"]))
    return data[:cut] + bad_byte + data[cut:]


@given(_graph_dumps())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_components_exits_0_1_or_2_on_any_dump(dump):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(dump)
        code, out, err = _run_main(["components", str(path)])
    if code == 0:
        assert not err and out.startswith("# schema: cap-sizes-v1\n")
