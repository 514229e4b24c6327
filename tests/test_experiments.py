"""Experiment runner tests: config parsing, hashing, determinism, artifacts."""

import json

import pytest

from caperc.experiments import (
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    run_analytic_report,
    run_ecbp_mc,
    run_ecer_convergence,
    run_near_critical,
)


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


def test_convergence_record_and_determinism():
    rec1 = run_ecer_convergence(_small_convergence_cfg())
    rec2 = run_ecer_convergence(_small_convergence_cfg())
    assert rec1.csv_lines == rec2.csv_lines
    assert rec1.csv_lines[0] == "# schema: caperc-convergence-v1"
    assert rec1.csv_lines[1] == ("n,replica,ell,f_ell,target_f_ell,"
                                 "max_fraction,target_f_inf")
    # 2 sizes x 3 replicas x 5 ell values
    assert len(rec1.csv_lines) == 2 + 2 * 3 * 5
    assert rec1.checks_passed
    # different seed, different data
    rec3 = run_ecer_convergence(_small_convergence_cfg(seed=8))
    assert rec3.csv_lines != rec1.csv_lines


def test_convergence_csv_row_contents():
    rec = run_ecer_convergence(_small_convergence_cfg())
    row = rec.csv_lines[2].split(",")
    assert int(row[0]) == 200 and int(row[1]) == 0 and int(row[2]) == 1
    target_inf = rec.results["target_f_inf"]
    assert float(row[6]) == target_inf
    assert 0.0 <= float(row[3]) <= 1.0


def test_record_write(tmp_path):
    cfg = _small_convergence_cfg(out=str(tmp_path))
    rec = run_ecer_convergence(cfg)
    run_dir = rec.write()
    assert run_dir.name == f"ecer-convergence-{cfg.config_hash()}"
    payload = json.loads((run_dir / "record.json").read_text())
    assert payload["checks_passed"] is True
    assert payload["config"]["kind"] == "ecer-convergence"
    csv_text = (run_dir / "convergence.csv").read_text()
    assert csv_text.splitlines() == rec.csv_lines


def test_ecbp_mc_runner_counts_every_sample():
    cfg = ExperimentConfig(kind="ecbp-mc", lam=(2.0, 2.0), samples=2000, seed=1)
    rec = run_ecbp_mc(cfg)
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
        payload = run_ecbp_mc(cfg).to_json_dict()
        del payload["elapsed_s"]
        assert payload["config"].pop("workers") == str(workers)
        records.append(payload)
    assert records[0] == records[1]


def test_analytic_report_route_agreement():
    rec = run_analytic_report(ExperimentConfig(kind="analytic-report",
                                               lam=(2.0, 2.0)))
    assert rec.checks_passed
    res = rec.results
    assert res["regime"]["fully_supercritical"]
    assert abs(res["f_inf_inclusion_exclusion"]
               - res["f_inf_generating_function"]) <= 1e-9
    assert abs(sum(res["phat"].values()) - 1.0) < 1e-9
    assert len(res["f_ell"]) == 5


def test_near_critical_runner():
    rec = run_near_critical(ExperimentConfig(kind="near-critical", k=2))
    assert rec.checks_passed
    assert rec.results["monotone"]
    assert abs(rec.results["estimate"] - 4.0) < 0.1
