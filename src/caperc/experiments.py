"""Reproducible experiment runners: configs, run records, CSV/JSON artifacts."""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache
from json.encoder import encode_basestring_ascii
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analytic
from .cap import CapDecomposition
from .ecbp import (
    DEPTH_CAP,
    NODE_CAP,
    POISSON_MAX,
    McHistogram,
    mc_component_size_distribution,
)
from .graph import MAX_N, sample_ecer
from .localweak import (
    ISOLATED_ROOT_KEY,
    EmptyCatalogError,
    ecer_ball_counts,
    restricted_tv,
)
from .params import LambdaVector

# largest k per kind, from runs on a 2-core Xeon: the 2^k analytic engine
# (analytic, near-critical, convergence) took 2-4 s and 266 MB for one
# analytic run at k = 20; ecbp-mc blocks of >= 1024 samples hold k * 2^k
# cells each a level (11-12 s, 1.5 GB at k = 12). Local weak balls hold none.
# Largest ell_max: the two-color series in analytic costs ell_max^2 (1.5 s
# at ell_max = 1000, 11 s at 3000).
ENGINE_MAX_K = 20
ECBP_MAX_K = 12
ELL_MAX = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings, valid once constructed. The fields are the config
    schema, each under its flat key (its metadata "key", else its name); a
    record holds kind, k and the keys KINDS[kind].reads, its CLI flags."""

    kind: str
    k: int = 2
    lam: tuple[float, ...] = field(
        default=(2.0, 2.0),
        metadata={"key": "lambda",
                  "help": "comma-separated color intensities, e.g. 2,2"})
    n_list: tuple[int, ...] = field(
        default=(500, 1000, 2000, 4000),
        metadata={"key": "n", "help": "comma-separated vertex counts"})
    replicas: int = 30
    samples: int = 100_000
    seed: int = 0
    depth_cap: int = DEPTH_CAP
    node_cap: int = NODE_CAP
    ell_max: int = 5
    eps_grid: tuple[float, ...] = field(
        default=analytic.DEFAULT_EPS_GRID,
        metadata={"key": "eps",
                  "help": "comma-separated decreasing epsilon grid"})
    d: int = field(default=1, metadata={"help": "ball depth"})
    workers: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # config_from_mapping leaves an unread value at its default, and a
        # default passes every check but three, guarded below: lambda's
        # length, the small-subset assumption and, from k = 102, eps
        _, _, min_k, max_k, reads = KINDS[self.kind]
        if "lambda" in reads:
            if len(self.lam) != self.k:
                raise ValueError("lambda length must equal k")
            # a finite total also keeps every subset sum finite
            if not (all(x > 0 for x in self.lam) and sum(self.lam) < math.inf):
                raise ValueError("lambda entries must be positive, with a "
                                 "finite sum")
        if self.k < min_k:
            raise ValueError(f"{self.kind} needs k >= {min_k}")
        if self.k > max_k:
            raise ValueError(f"{self.kind} needs k <= {max_k}")
        # the friend-count sampler's small-subset assumption
        if "node_cap" in reads:
            analytic.check_small_subsets(self.lam, self.kind)
            # a growing sample draws Poisson(lambda_c * nodes) for fewer
            # than node_cap nodes, or for the root alone
            if max(self.lam) * max(self.node_cap, 1) >= POISSON_MAX:
                raise ValueError(
                    f"{self.kind} needs max lambda * max(node_cap, 1) below "
                    f"numpy's Poisson limit {POISSON_MAX:.3g}")
        if not all(0 < n <= MAX_N for n in self.n_list):
            raise ValueError(f"n values must lie in [1, {MAX_N}]")
        for key, low in (("replicas", 1), ("samples", 1), ("seed", 0),
                         ("depth_cap", 0), ("node_cap", 0), ("workers", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        if not 0 <= self.d <= 2:
            raise ValueError("ball depth d must lie in [0, 2]")
        if not 1 <= self.ell_max <= ELL_MAX:
            raise ValueError(f"ell_max must lie in [1, {ELL_MAX}]")
        if "eps" in reads:
            analytic.check_eps_grid(self.k, self.eps_grid)

    def to_flat_dict(self) -> dict[str, str]:
        """kind, k and the keys the kind reads, as config-file text."""
        flat = {key: getattr(self, CONFIG_KEYS[key].name)
                for key in ("kind", "k", *KINDS[self.kind].reads)}
        return {key: ",".join(map(repr, val)) if isinstance(val, tuple)
                else str(val) for key, val in flat.items()}

    def config_hash(self) -> str:
        # workers and output location do not affect results
        items = {key: val for key, val in self.to_flat_dict().items()
                 if key != "workers"}
        blob = "\n".join(f"{key}={val}" for key, val in sorted(items.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def run_dir(self) -> Path:
        """The directory a run's record goes to, under out (default: .)."""
        return Path(self.out or ".") / f"{self.kind}-{self.config_hash()}"


# flat key -> field, in field order
CONFIG_KEYS = {f.metadata.get("key", f.name): f
               for f in fields(ExperimentConfig)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines, each key at most once; blank lines and
    #-comments ignored."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"config key {key!r} given twice")
        out[key] = val
    return out


def _parse_value(default, text: str):
    """Parse a flat value as the type of its field's default."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(","))
    return int(text) if isinstance(default, int) else text


def config_from_mapping(items: dict[str, str]) -> ExperimentConfig:
    """items' kind, out and the keys the kind reads, k = len(lambda) if it
    reads lambda; other keys are dropped, so a file can serve many kinds."""
    unknown = sorted(set(items) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    kind = items.get("kind")
    taken = ("kind", "out", *(KINDS[kind].reads if kind in KINDS else ()))
    kwargs = {}
    for key, text in items.items():
        if key not in taken:
            continue
        f = CONFIG_KEYS[key]
        try:
            kwargs[f.name] = _parse_value(f.default, text)
        except ValueError:
            raise ValueError(f"bad value for {key}: {text!r}") from None
    if "lam" in kwargs:
        kwargs["k"] = len(kwargs["lam"])
    return ExperimentConfig(**kwargs)


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte. indent turns
    off json's C encoder, so each container of scalars goes to it in one
    call, with the line break and indent as item separator; only the nesting
    above those containers runs in Python. The pieces are joined once, so
    no container's text is copied into its parent's."""
    pieces: list[str] = []
    _write(obj, "\n", pieces)
    return "".join(pieces)


@cache
def _encoder(separator: str) -> json.JSONEncoder:
    """json.dumps's encoder for sort_keys and these item separators."""
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": "))


def _key(key) -> str:
    """A dict key as json writes it: a str quoted, anything else by json's
    own conversion, read off a one-item dict (int, float, bool and None keys
    each have their own text)."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: 0})[1:-len(": 0}")]


def _write(obj, newline: str, pieces: list[str]) -> None:
    """Append the pieces of obj's JSON text to pieces, its inner lines
    indented two spaces past newline."""
    put = pieces.append
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        put(json.dumps(obj))
        return
    inner = newline + "  "
    is_dict = isinstance(obj, dict)
    # the distinct types, not every value, are tested: a C-level pass
    if not any(issubclass(t, (dict, list, tuple)) for t in
               set(map(type, obj.values() if is_dict else obj))):
        text = _encoder("," + inner).encode(obj)
        put(text[0] + inner)
        put(text[1:-1])
        put(newline + text[-1])
        return
    put(("{" if is_dict else "[") + inner)
    for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
        if i:
            put("," + inner)
        if is_dict:
            put(_key(item[0]) + ": ")
            item = item[1]
        _write(item, inner, pieces)
    put(newline + ("}" if is_dict else "]"))


@dataclass
class RunRecord:
    config: ExperimentConfig
    results: dict
    checks_passed: bool
    # CSV file name -> lines, written beside record.json
    csv: dict[str, list[str]]
    elapsed_s: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_flat_dict(),
            "config_hash": self.config.config_hash(),
            "version": __version__,
            "elapsed_s": self.elapsed_s,
            "checks_passed": self.checks_passed,
            "results": self.results,
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict()) + "\n"

    def write(self) -> str:
        """Write record.json and the CSVs; returns the record's JSON text."""
        run_dir = self.config.run_dir()
        run_dir.mkdir(parents=True, exist_ok=True)
        text = self.to_json()
        (run_dir / "record.json").write_text(text)
        for name, lines in self.csv.items():
            (run_dir / name).write_text("\n".join(lines) + "\n")
        return text


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run and record cfg, timed in elapsed_s."""
    body = KINDS[cfg.kind].body
    if body is None:
        raise ValueError(f"{cfg.kind} writes a graph dump, not a record")
    start = time.perf_counter()
    results, checks_passed, csv = body(cfg)
    return RunRecord(cfg, results, bool(checks_passed), csv,
                     time.perf_counter() - start)


def _parallel_map(task, cfg: ExperimentConfig, sizes: list[int]) -> list:
    """[task(cfg, seed_i, sizes[i])], seed_i the i-th child of cfg.seed, on
    min(cfg.workers, len(sizes)) processes. Each seed is its task's, so
    workers do not change the results."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    tasks = [(cfg, seed, size) for seed, size in zip(seeds, sizes)]
    workers = min(cfg.workers, len(tasks))
    if workers <= 1:
        return [task(*args) for args in tasks]
    with get_context("spawn").Pool(workers) as pool:
        return pool.starmap(task, tasks)


# ---------------------------------------------------------------------------
# ECER convergence
# ---------------------------------------------------------------------------

def _convergence_task(cfg: ExperimentConfig, seed, n: int):
    g = sample_ecer(n, LambdaVector(cfg.lam), np.random.default_rng(seed))
    dec = CapDecomposition.from_graph(g)
    f_ells = [float(dec.component_size_density(ell))
              for ell in range(1, cfg.ell_max + 1)]
    return f_ells, float(dec.max_fraction)


def _ecer_convergence(cfg: ExperimentConfig):
    lam = LambdaVector(cfg.lam)
    table = analytic.solve_p_system(lam)
    target_f_inf = analytic.f_infinity_inclusion_exclusion(lam, table)
    if cfg.k == 2:
        targets = analytic.two_color_f_ell(*lam, cfg.ell_max, table=table)
    else:  # no closed form: nan in the CSV, null in the record
        targets = [math.nan] * cfg.ell_max

    sizes = [n for n in cfg.n_list for _ in range(cfg.replicas)]
    rows = _parallel_map(_convergence_task, cfg, sizes)

    csv_lines = ["# schema: caperc-convergence-v1",
                 "n,replica,ell,f_ell,target_f_ell,max_fraction,target_f_inf"]
    per_n_dev: dict[int, list[float]] = {n: [] for n in cfg.n_list}
    per_n_f1: dict[int, list[float]] = {n: [] for n in cfg.n_list}
    for i, (n, (f_ells, max_frac)) in enumerate(zip(sizes, rows)):
        per_n_dev[n].append(abs(max_frac - target_f_inf))
        per_n_f1[n].append(f_ells[0])
        for ell in range(1, cfg.ell_max + 1):
            csv_lines.append(
                f"{n},{i % cfg.replicas},{ell},{f_ells[ell - 1]!r},"
                f"{targets[ell - 1]!r},{max_frac!r},{target_f_inf!r}")
    results = {
        "target_f_inf": target_f_inf,
        "target_f_ell": targets if cfg.k == 2 else [None] * cfg.ell_max,
        "mean_abs_max_fraction_deviation": {
            str(n): sum(vals) / len(vals) for n, vals in per_n_dev.items()},
        "mean_f1": {str(n): sum(vals) / len(vals)
                    for n, vals in per_n_f1.items()},
    }
    # checks nothing yet: ROADMAP item 3 gives it windows on f_ell and f_inf
    return results, True, {"convergence.csv": csv_lines}


# ---------------------------------------------------------------------------
# ECBP Monte Carlo
# ---------------------------------------------------------------------------

# samples per seeded ecbp-mc chunk
_CHUNK = 16384


def _ecbp_task(cfg: ExperimentConfig, seed, samples: int):
    hist = mc_component_size_distribution(
        LambdaVector(cfg.lam), samples, np.random.default_rng(seed),
        cfg.depth_cap, cfg.node_cap)
    return hist.finite_counts, hist.censored_counts


def _ecbp_mc(cfg: ExperimentConfig):
    # fixed-size chunks, one seed each: workers only map chunks to processes
    sizes = [min(_CHUNK, cfg.samples - i)
             for i in range(0, cfg.samples, _CHUNK)]
    finite: Counter = Counter()
    censored: Counter = Counter()
    for fin, cen in _parallel_map(_ecbp_task, cfg, sizes):
        finite.update(fin)
        censored.update(cen)
    hist = McHistogram(cfg.samples, dict(finite), dict(censored))
    results = {
        "lambda": list(cfg.lam),
        "samples": cfg.samples,
        "caps": {"depth_cap": cfg.depth_cap, "node_cap": cfg.node_cap},
        "seed": cfg.seed,
        "histogram": hist.to_json_dict()["histogram"],
        "frequencies": hist.dense(cfg.ell_max),
        "censored_mass": hist.censored_mass,
        "stderrs": [hist.stderr(ell) for ell in range(1, cfg.ell_max + 1)],
        "censored_stderr": hist.censored_stderr(),
    }
    return results, finite.total() + censored.total() == cfg.samples, {}


# ---------------------------------------------------------------------------
# Analytic report
# ---------------------------------------------------------------------------

# the generating-function cross-check costs about 4^k (0.2 s at k = 10,
# minutes from k = 14); above this k the record holds null for it
_GF_MAX_K = 10


def _sums_to_one(phat: np.ndarray) -> bool:
    """Whether the extended type law sums to 1 up to its round-off. Each of
    its 2^k entries is an alternating sum of 2^k terms. Before the clamp at
    0 their round-off sums to 0 (the law summed to 1.0 exactly at k = 12..20),
    but the clamp drops its negative part, and that grows as 4^k: 1.2e-9 at
    lambda = 0.3 each and k = 18, 2.3e-8 at k = 20, and at most 0.44 of
    4^k 2^-62 over 24 lambda vectors at each k = 16..20. The tolerance is
    twice that, and at least 1e-9: 4.8e-7 at k = 20, so that a law off by
    1e-6 fails at every k."""
    return abs(phat.sum() - 1.0) <= max(1e-9, len(phat) ** 2 * 2.0 ** -61)


def _analytic_report(cfg: ExperimentConfig):
    lam = LambdaVector(cfg.lam)
    regime = analytic.classify_lambda(lam)
    table = analytic.solve_p_system(lam)
    phat = analytic.extended_type_distribution(lam, table)
    results: dict = {
        "lambda": list(cfg.lam),
        "regime": {
            "fully_supercritical": regime.fully_supercritical,
            "fully_critical_subcritical": regime.fully_critical_subcritical,
            "assumption_holds": regime.assumption_holds,
            "supercritical_indices": sorted(regime.supercritical_indices),
        },
        "theta_avoid": table.theta.tolist(),
        "p_table": table.p.tolist(),
        "p_table_relevant": table.relevant,
        "p_table_max_residual": table.max_residual,
        "phat": phat.tolist(),
        "f_inf_inclusion_exclusion":
            analytic.f_infinity_inclusion_exclusion(lam, table),
    }
    checks = table.max_residual <= 1e-10 and _sums_to_one(phat)
    if regime.fully_supercritical and regime.assumption_holds:
        gf = (analytic.f_infinity_generating_function(lam, table)
              if cfg.k <= _GF_MAX_K else None)
        results["f_inf_generating_function"] = gf
        checks = checks and (gf is None or abs(
            gf - results["f_inf_inclusion_exclusion"]) <= 1e-9)
    if cfg.k == 2:
        results["f_ell"] = analytic.two_color_f_ell(*lam, cfg.ell_max,
                                                    table=table)
    return results, checks, {}


# ---------------------------------------------------------------------------
# Local weak convergence check
# ---------------------------------------------------------------------------

def _local_weak_task(cfg: ExperimentConfig, seed, n: int):
    g = sample_ecer(n, LambdaVector(cfg.lam), np.random.default_rng(seed))
    counts, out = ecer_ball_counts(g, cfg.d)
    return dict(counts), out


def _local_weak_check(cfg: ExperimentConfig):
    lam = LambdaVector(cfg.lam)
    n = cfg.n_list[-1]
    ecer_counts: Counter = Counter()
    ecer_out = 0
    for counts, out in _parallel_map(_local_weak_task, cfg,
                                     [n] * cfg.replicas):
        ecer_counts.update(counts)
        ecer_out += out
    ecer_total = cfg.replicas * n
    if not ecer_counts:
        raise EmptyCatalogError(
            f"no depth-{cfg.d} ball was tree-like within the catalog's size "
            "cap, so there is nothing to compare; lower lambda or d")
    tv = restricted_tv(ecer_counts, ecer_total, lam.lam, cfg.d)
    # a root is isolated with probability exp(-lambda_uc) on the tree, and
    # exp(-lambda_uc (n-1)/n) in the graph, where each color joins a pair
    # with probability 1 - exp(-lambda_i/n); at d = 0 every ball is the root
    iso_ecer = ecer_counts.get(ISOLATED_ROOT_KEY, 0) / ecer_total
    target_ecer = math.exp(-lam.lambda_uc * (n - 1) / n) if cfg.d else 1.0
    results = {
        "n": n,
        "d": cfg.d,
        "replicas": cfg.replicas,
        "restricted_tv": tv,
        "ecer_out_of_catalog": ecer_out / ecer_total,
        "ecer_isolated_root_freq": iso_ecer,
        "ecer_isolated_root_target": target_ecer,
        "ecbp_isolated_root_target":
            math.exp(-lam.lambda_uc) if cfg.d else 1.0,
        "catalog_size": len(ecer_counts),
    }
    # every root is keyed once: in the catalog or out of it
    checks = (ecer_counts.total() + ecer_out == ecer_total
              and _within_binomial_se(iso_ecer, target_ecer, ecer_total))
    return results, checks, {}


def _within_binomial_se(freq: float, target: float, trials: int) -> bool:
    """|freq - target| within 5 binomial standard errors of the target."""
    return abs(freq - target) <= 5.0 * math.sqrt(
        target * (1.0 - target) / trials)


# ---------------------------------------------------------------------------
# Near-critical constant
# ---------------------------------------------------------------------------

def _near_critical(cfg: ExperimentConfig):
    estimate, diag = analytic.near_critical_constant(cfg.k, cfg.eps_grid)
    results = {
        "k": cfg.k,
        "estimate": estimate,
        "eps_grid": list(diag.eps_grid),
        "ratios": list(diag.ratios),
        "pair_extrapolants": list(diag.pair_extrapolants),
        "monotone": diag.monotone,
        "noise_floors": list(diag.noise_floors),
    }
    # each ratio must stand well clear of its rounding noise
    checks = diag.monotone and all(
        f <= 1e-4 * abs(r) for f, r in zip(diag.noise_floors, diag.ratios))
    return results, checks, {}


class Kind(NamedTuple):
    """An experiment kind: its subcommand, its body returning (results,
    checks passed, CSV name -> lines), k range and the config keys it reads."""

    command: str
    body: Callable[[ExperimentConfig], tuple] | None  # None: a graph dump
    min_k: int
    max_k: float  # inf: no 2^k table, so no ceiling
    reads: tuple[str, ...]


KINDS = {
    "analytic-report": Kind("analytic", _analytic_report, 2, ENGINE_MAX_K,
                            ("lambda", "ell_max")),
    "ecbp-mc": Kind("ecbp-mc", _ecbp_mc, 2, ECBP_MAX_K,
                    ("lambda", "samples", "seed", "depth_cap", "node_cap",
                     "ell_max", "workers")),
    "ecer-convergence": Kind(
        "convergence", _ecer_convergence, 1, ENGINE_MAX_K,
        ("lambda", "n", "replicas", "seed", "ell_max", "workers")),
    "local-weak-check": Kind("local-weak", _local_weak_check, 1, math.inf,
                             ("lambda", "n", "replicas", "seed", "d",
                              "workers")),
    # the constant depends on k alone
    "near-critical": Kind("near-critical", _near_critical, 2, ENGINE_MAX_K,
                          ("k", "eps")),
    "sample-ecer": Kind("sample-ecer", None, 1, math.inf,
                        ("lambda", "n", "seed")),
}
