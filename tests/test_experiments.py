"""Experiment runner tests: config parsing, hashing, determinism, artifacts."""

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caperc import analytic, experiments
from caperc.analytic import near_critical_constant
from caperc.cli import main
from caperc.experiments import (
    CONFIG_KEYS,
    KINDS,
    ExperimentConfig,
    config_from_mapping,
    dumps,
    parse_config_file,
    run_experiment,
)
from caperc.localweak import ISOLATED_ROOT_KEY
from test_analytic import _same_bits


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(kind="near-critical")
    cfg.validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ecbp-mc", k=3, lam=(2.0, 2.0)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="ecbp-mc", seed=-1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="local-weak-check", d=3).validate()


def test_config_from_mapping_and_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "kind=ecbp-mc\n"
        "lambda = 2.0,2.0\n"
        "samples = 500\n"
        "\n"
        "seed=9\n")
    cfg = config_from_mapping(parse_config_file(path))
    assert cfg.kind == "ecbp-mc"
    assert cfg.lam == (2.0, 2.0)
    assert cfg.samples == 500 and cfg.seed == 9

    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not key value\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    bad.write_text("lambda=2,2\nseed=1\nlambda = 3,3\n")
    with pytest.raises(ValueError, match="'lambda' given twice"):
        parse_config_file(bad)


def test_record_keys_are_the_config_keys():
    # kind, k and the keys the kind reads, each a schema key
    for kind, spec in KINDS.items():
        keys = {"kind", "k", *spec.reads}
        assert keys <= set(CONFIG_KEYS) - {"out"}
        assert set(ExperimentConfig(kind=kind).to_flat_dict()) == keys


# every key away from its default, each on a kind that reads it
@pytest.mark.parametrize("cfg", [
    ExperimentConfig(kind="near-critical", k=3, eps_grid=(0.3, 0.1)),
    ExperimentConfig(kind="ecbp-mc", k=3, lam=(0.1 + 0.2, 0.5, 0.7),
                     samples=7, depth_cap=0, node_cap=0, ell_max=9,
                     workers=2),
    ExperimentConfig(kind="local-weak-check", n_list=(10, 30), replicas=2,
                     seed=11, d=0),
])
def test_flat_dict_round_trip(cfg):
    assert config_from_mapping(cfg.to_flat_dict()) == cfg


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="sample"):
        config_from_mapping({"kind": "ecbp-mc", "sample": "500"})


def test_config_from_mapping_drops_the_keys_its_kind_does_not_read():
    # unread keys are not parsed; k follows lambda where lambda is read
    cfg = config_from_mapping({"kind": "ecbp-mc", "k": "5", "lambda": "2,3",
                               "n": "x", "eps": "", "d": "-1"})
    assert cfg == ExperimentConfig(kind="ecbp-mc", lam=(2.0, 3.0))
    cfg = config_from_mapping({"kind": "near-critical", "k": "4",
                               "lambda": "1", "samples": "0"})
    assert cfg == ExperimentConfig(kind="near-critical", k=4)
    with pytest.raises(ValueError, match="bad value for eps"):
        config_from_mapping({"kind": "near-critical", "eps": "x"})


# the sha256 of kind, k and the read keys but workers, as sorted key=value
# lines
@pytest.mark.parametrize("items, expected", [
    ({"kind": "ecbp-mc", "k": "2", "lambda": "2,2", "samples": "1000",
      "seed": "3"}, "326fd7cce937"),
    ({"kind": "ecer-convergence", "k": "2", "lambda": "2,2", "n": "200000",
      "replicas": "1", "seed": "5", "workers": "1"}, "1c88b9279947"),
    ({"kind": "near-critical", "k": "3"}, "4a91b09945cc"),
    ({"kind": "analytic-report", "k": "3", "lambda": "0.31,0.29,0.333333"},
     "60f8a21f781e"),
    ({"kind": "near-critical", "k": "2", "eps": "0.02,0.01"},
     "5de7a1387232"),
])
def test_config_hash_pinned(items, expected):
    assert config_from_mapping(items).config_hash() == expected


def test_config_hash_is_the_digest_of_kind_k_and_the_read_keys():
    cfg = config_from_mapping({"kind": "ecbp-mc", "lambda": "2,2",
                               "samples": "1000", "seed": "3", "n": "7",
                               "workers": "3"})
    blob = ("depth_cap=40\nell_max=5\nk=2\nkind=ecbp-mc\nlambda=2.0,2.0\n"
            "node_cap=1000000\nsamples=1000\nseed=3")
    assert cfg.config_hash() == hashlib.sha256(blob.encode()).hexdigest()[:12]
    # a value set on a kind that does not read it is neither recorded nor
    # hashed
    unread = ExperimentConfig(kind="ecbp-mc", lam=(2.0, 2.0), samples=1000,
                              seed=3, workers=3, n_list=(7,), d=2)
    assert unread.to_flat_dict() == cfg.to_flat_dict()
    assert unread.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("k, grid", [
    (2, (0.1, 0.2)), (2, (0.05,)), (3, (2.0, 1.0)), (2, (0.1, 0.1)),
    (2, (0.1, -0.1)),
    # eps^k must be a nonzero, finite float
    (3, (1e-200, 1e-201)), (2, (1e300, 1e299)),
])
def test_config_and_constant_reject_the_same_eps_grids(k, grid):
    with pytest.raises(ValueError):
        near_critical_constant(k, grid)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="near-critical", k=k, eps_grid=grid)


def test_config_hash_ignores_workers_and_out():
    a = ExperimentConfig(kind="ecbp-mc", workers=1)
    b = ExperimentConfig(kind="ecbp-mc", workers=4, out="/tmp/x")
    c = ExperimentConfig(kind="ecbp-mc", seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def _small_convergence_cfg(**kw):
    base = dict(kind="ecer-convergence", lam=(2.0, 2.0),
                n_list=(200, 400), replicas=3, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def _convergence_csv(cfg):
    return run_experiment(cfg).csv["convergence.csv"]


def test_convergence_record_and_determinism():
    rec1 = run_experiment(_small_convergence_cfg())
    lines = rec1.csv["convergence.csv"]
    assert lines == _convergence_csv(_small_convergence_cfg())
    assert lines[0] == "# schema: caperc-convergence-v1"
    assert lines[1] == ("n,replica,ell,f_ell,target_f_ell,"
                        "max_fraction,target_f_inf")
    # 2 sizes x 3 replicas x 5 ell values
    assert len(lines) == 2 + 2 * 3 * 5
    assert rec1.checks_passed
    # different seed, different data
    assert _convergence_csv(_small_convergence_cfg(seed=8)) != lines


def test_convergence_csv_row_contents():
    rec = run_experiment(_small_convergence_cfg())
    row = rec.csv["convergence.csv"][2].split(",")
    assert int(row[0]) == 200 and int(row[1]) == 0 and int(row[2]) == 1
    target_inf = rec.results["target_f_inf"]
    assert float(row[6]) == target_inf
    assert 0.0 <= float(row[3]) <= 1.0
    # f_1's target, written with !r as a plain float
    assert float(row[4]) == analytic.two_color_f_ell(2.0, 2.0, 1)[0]


def test_record_write(tmp_path):
    cfg = _small_convergence_cfg(out=str(tmp_path))
    rec = run_experiment(cfg)
    text = rec.write()
    run_dir = cfg.run_dir()
    assert (run_dir / "record.json").read_text() == text
    assert run_dir.name == f"ecer-convergence-{cfg.config_hash()}"
    payload = json.loads((run_dir / "record.json").read_text())
    assert payload["checks_passed"] is True
    assert payload["config"]["kind"] == "ecer-convergence"
    csv_text = (run_dir / "convergence.csv").read_text()
    assert csv_text.splitlines() == rec.csv["convergence.csv"]


def test_ecbp_mc_runner_counts_every_sample():
    cfg = ExperimentConfig(kind="ecbp-mc", lam=(2.0, 2.0), samples=2000, seed=1)
    rec = run_experiment(cfg)
    assert rec.checks_passed
    hist_total = sum(rec.results["histogram"].values())
    censored = round(rec.results["censored_mass"] * cfg.samples)
    assert hist_total + censored == cfg.samples
    assert len(rec.results["frequencies"]) == cfg.ell_max


def test_ecbp_mc_results_independent_of_workers():
    # 40 000 samples make three seeded chunks; workers only map them
    records = []
    for workers in (1, 2):
        cfg = ExperimentConfig(kind="ecbp-mc", lam=(2.0, 2.0),
                               samples=40_000, seed=3, workers=workers)
        payload = run_experiment(cfg).to_json_dict()
        del payload["elapsed_s"]
        assert payload["config"].pop("workers") == str(workers)
        records.append(payload)
    assert records[0] == records[1]


def test_pool_starts_no_more_processes_than_tasks(monkeypatch):
    # 40 000 samples make three chunks, so 16 workers start three processes
    pools = []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*args) for args in tasks]

    class FakeContext:
        Pool = FakePool

        def __init__(self, method):
            pools.append(method)
    monkeypatch.setattr(experiments, "get_context", FakeContext)
    payloads = []
    for workers in (16, 1):
        cfg = ExperimentConfig(kind="ecbp-mc", lam=(2.0, 2.0),
                               samples=40_000, seed=3, workers=workers)
        payload = run_experiment(cfg).to_json_dict()
        del payload["elapsed_s"], payload["config"]["workers"]
        payloads.append(payload)
    assert pools == ["spawn", 3]
    assert payloads[0] == payloads[1]


def test_analytic_report_route_agreement():
    rec = run_experiment(ExperimentConfig(kind="analytic-report",
                                          lam=(2.0, 2.0)))
    assert rec.checks_passed
    res = rec.results
    assert res["regime"]["fully_supercritical"]
    assert abs(res["f_inf_inclusion_exclusion"]
               - res["f_inf_generating_function"]) <= 1e-9
    assert abs(sum(res["phat"]) - 1.0) < 1e-9
    assert len(res["f_ell"]) == 5


def _table_values(k: int) -> list[float]:
    """2^k random floats after the edge cases of float text."""
    return [0.0, -0.0, 1.0, 5e-324, 1e-300, math.inf, -math.inf, math.nan,
            *np.random.default_rng(k).random(1 << k).tolist()]


@pytest.mark.parametrize("k", range(1, 16))
def test_tables_write_as_json_does(k):
    tables = {"p_table": _table_values(k), "phat": _table_values(k)[::-1]}
    # the tables at two depths, beside other values, and on their own
    record = {"results": {**tables, "lambda": [0.5] * k, "relevant": True},
              "elapsed_s": 0.25, "tables": tables}
    for obj in (record, tables["p_table"]):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("k, lam_i", [(2, 2.0), (10, 0.115), (11, 0.095),
                                      (12, 0.095), (15, 0.075)])
def test_analytic_record_is_built_in_key_order(k, lam_i):
    # the key is the index: entry m of a table is its value at mask m
    cfg = ExperimentConfig(kind="analytic-report", k=k, lam=(lam_i,) * k)
    record = run_experiment(cfg)
    assert record.checks_passed
    results = record.results
    table = analytic.solve_p_system(cfg.lam)
    law = analytic.extended_type_distribution(cfg.lam, table)
    for key, values in (("p_table", table.p), ("phat", law)):
        assert len(results[key]) == 1 << k
        assert _same_bits(results[key], values)
    assert record.to_json() == json.dumps(
        record.to_json_dict(), indent=2, sort_keys=True) + "\n"


def test_analytic_check_passes_at_k_18():
    # the clamp at 0 adds 1.2e-9 to this law's sum, beyond a fixed 1e-9
    cfg = ExperimentConfig(kind="analytic-report", k=18, lam=(0.3,) * 18)
    record = run_experiment(cfg)
    assert record.checks_passed
    phat = np.array(record.results["phat"])
    assert experiments._sums_to_one(phat)
    for shift in (1e-6, -1e-6):
        off = phat.copy()
        off[0] += shift
        assert not experiments._sums_to_one(off)


@pytest.mark.parametrize("k", range(1, 21))
def test_a_law_off_by_1e_6_fails_the_check(k):
    law = np.full(1 << k, 2.0 ** -k)
    assert experiments._sums_to_one(law)
    for shift in (1e-6, -1e-6):
        off = law.copy()
        off[-1] += shift
        assert not experiments._sums_to_one(off)


def _solves(monkeypatch, cfg: ExperimentConfig) -> int:
    """How many times a run of cfg, whose checks must pass, solves the
    p-system."""
    calls = []
    solve = analytic.solve_p_system

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(analytic, "solve_p_system", counted)
    assert run_experiment(cfg).checks_passed
    return len(calls)


@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.9, 0.9, 0.9), (0.5, 0.5)])
def test_analytic_report_solves_the_p_system_once(monkeypatch, lam):
    cfg = ExperimentConfig(kind="analytic-report", k=len(lam), lam=lam)
    assert _solves(monkeypatch, cfg) == 1


@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.9, 0.8, 0.7)])
def test_convergence_solves_the_p_system_once(monkeypatch, lam):
    # the f_inf target and, at k = 2, the f_ell targets read one table
    cfg = ExperimentConfig(kind="ecer-convergence", k=len(lam), lam=lam,
                           n_list=(100,), replicas=1)
    assert _solves(monkeypatch, cfg) == 1


@pytest.mark.parametrize("lam", [(0.3,) * 8, (0.5, 0.5), (0.5, 0.5, 0.5)])
def test_analytic_report_classifies_once(monkeypatch, lam):
    # without the generating-function route, which checks its own input
    calls = []
    classify = analytic.classify_lambda

    def counted(*args):
        calls.append(args)
        return classify(*args)
    monkeypatch.setattr(analytic, "classify_lambda", counted)
    rec = run_experiment(ExperimentConfig(kind="analytic-report",
                                          k=len(lam), lam=lam))
    assert rec.checks_passed
    assert "f_inf_generating_function" not in rec.results
    assert len(calls) == 1


def _local_weak_cfg(**kw):
    return ExperimentConfig(kind="local-weak-check", lam=(1.0, 1.0),
                            n_list=(2000,), replicas=2, seed=3, **kw)


def test_local_weak_isolated_root_targets():
    rec = run_experiment(_local_weak_cfg())
    res = rec.results
    assert rec.checks_passed
    assert res["ecbp_isolated_root_target"] == math.exp(-2.0)
    assert res["ecer_isolated_root_target"] == math.exp(-2.0 * 1999 / 2000)
    # at d = 0 every ball is the bare root
    rec = run_experiment(_local_weak_cfg(d=0))
    assert rec.checks_passed
    assert rec.results["ecer_isolated_root_freq"] == 1.0
    for side in ("ecer", "ecbp"):
        assert rec.results[f"{side}_isolated_root_target"] == 1.0
    # and the law gives the bare root probability 1
    assert rec.results["restricted_tv"] == 0.0


def test_local_weak_check_fails_on_wrong_isolated_frequency(monkeypatch):
    # graph balls that never show an isolated root
    ball_counts = experiments.ecer_ball_counts

    def no_isolated(g, d):
        counts, out = ball_counts(g, d)
        counts = Counter(counts)
        counts[((1, ()),)] += counts.pop(ISOLATED_ROOT_KEY, 0)
        return counts, out
    monkeypatch.setattr(experiments, "ecer_ball_counts", no_isolated)
    rec = run_experiment(_local_weak_cfg())
    assert rec.results["ecer_isolated_root_freq"] == 0.0
    assert not rec.checks_passed


def test_local_weak_check_fails_when_a_root_goes_uncounted(monkeypatch,
                                                           capsys):
    argv = ["local-weak", "--lambda", "1,1", "--n", "2000", "--replicas",
            "2", "--seed", "3"]
    assert main(argv) == 0
    # ball counts that lose one root of their most common key: the catalog
    # and out-of-catalog roots no longer add up to replicas * n
    ball_counts = experiments.ecer_ball_counts

    def drop_one_root(g, d):
        counts, out = ball_counts(g, d)
        counts = Counter(counts)
        counts[counts.most_common(1)[0][0]] -= 1
        return counts, out
    monkeypatch.setattr(experiments, "ecer_ball_counts", drop_one_root)
    capsys.readouterr()
    assert main(argv) == 1
    res = json.loads(capsys.readouterr().out)
    assert not res["checks_passed"]
    # the isolated-root frequency still passes: the identity failed
    assert abs(res["results"]["ecer_isolated_root_freq"]
               - res["results"]["ecer_isolated_root_target"]) < 0.01


def test_a_kind_without_a_body_has_no_record():
    with pytest.raises(ValueError, match="sample-ecer writes a graph dump"):
        run_experiment(ExperimentConfig(kind="sample-ecer"))


def test_near_critical_runner():
    rec = run_experiment(ExperimentConfig(kind="near-critical", k=2))
    assert rec.checks_passed
    assert rec.results["monotone"]
    assert abs(rec.results["estimate"] - 4.0) < 0.1


# -- record serialization ----------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, 1e-300, -1e-300, 5e-324])
            | st.text() | st.sampled_from(['"quoted"', "\\ \n\t", "é∞𝄞"]))
# json sorts a dict's keys as they are, so one dict's keys must compare:
# str keys, numeric keys, a lone None key, or a tuple key (a TypeError)
_NUMBER_KEYS = st.integers() | st.floats(allow_nan=True) | st.booleans()


def _json_values(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.dictionaries(_NUMBER_KEYS, children, max_size=4)
            | st.dictionaries(st.none(), children, max_size=1)
            | st.dictionaries(st.tuples(st.integers()), children, max_size=1))


@given(st.recursive(_SCALARS, _json_values, max_leaves=30))
@settings(max_examples=200, deadline=None)
def test_dumps_matches_json_indent_2_sorted(obj):
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            dumps(obj)
        return
    assert dumps(obj) == expected


@pytest.mark.parametrize("obj", [
    {"int": {3: [1], -2: {"a": 0}, 10: []}, "list": [0]},
    {"float": {2.5: [1.0], -0.0: {"b": None}, 1e300: [], 5e-324: [2],
               float("inf"): [3], -float("inf"): [4]}, "list": [0]},
    {"bool": {True: [1], False: {"c": []}}, "list": [0]},
    {"none": {None: [{"d": 1}]}, "list": [0]},
    {"mixed": {1: [1], 0.5: [2], False: {"e": 3}}, "list": [0]},
], ids=["int", "float", "bool", "none", "mixed"])
def test_dumps_writes_non_str_keys_as_json_does(obj):
    # keys of a dict that holds containers are written one by one
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(kind="ecer-convergence", lam=(2.0, 2.0), n_list=(200,),
                     replicas=2),
    ExperimentConfig(kind="ecer-convergence", k=3, lam=(0.9, 0.8, 0.7),
                     n_list=(200,), replicas=2),
    ExperimentConfig(kind="ecbp-mc", samples=500),
    ExperimentConfig(kind="analytic-report", lam=(2.0, 2.0)),
    ExperimentConfig(kind="analytic-report", k=3, lam=(0.9, 0.8, 0.7)),
    ExperimentConfig(kind="analytic-report", k=8, lam=(0.3,) * 8),
    ExperimentConfig(kind="local-weak-check", n_list=(300,), replicas=2),
    ExperimentConfig(kind="near-critical"),
], ids=lambda cfg: f"{cfg.kind}-k{cfg.k}")
def test_every_runner_record_serializes_as_json_does(cfg):
    record = run_experiment(cfg)
    assert record.to_json() == json.dumps(
        record.to_json_dict(), indent=2, sort_keys=True) + "\n"
