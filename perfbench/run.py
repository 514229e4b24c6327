"""Seeded benchmark for caperc.

Each workload calls the documented entry point `caperc.cli.main(argv)` in
this process, with `--workers 1`, on inputs drawn from `--seed`. Run it from
the repository root:

    python3 perfbench/run.py --workload friend-mc --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
metrics (see tracing.py). The last line of standard output is one JSON
object; the lines before it are a readable report. perfbench/NOTES.md
describes the workloads, metrics and checks.
"""

from __future__ import annotations

import math
import time

# Times are rescaled to a machine on which the reference loop takes
# REF_NOMINAL_S: a shared machine's speed drifts by tens of percent within
# minutes, so each timed stretch is paired with the loop run just before and
# just after it.
REF_ITERS = 100_000
REF_NOMINAL_S = 0.03


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop (ints, floats, a dict and a
    list, like the package's hot loops)."""
    t0 = time.perf_counter()
    acc, counts, items = 0.0, {}, []
    for i in range(REF_ITERS):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        items.append(i)
        acc += math.sqrt(i)
    return time.perf_counter() - t0


def median_reference_s() -> float:
    return sorted(reference_s() for _ in range(3))[1]


REF_BEFORE_SETUP = median_reference_s()
T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"

SETUP_REPEATS = 5    # set-ups per untraced run: this process plus probes
PROBE_TIMEOUT_S = 60
Z_WINDOW = 5.0       # pooled Monte Carlo checks, in standard errors

# closed-form targets (caperc.analytic at the benchmark's first commit);
# kept as literals so the checks do not depend on the code under test
F_ELL_2_2 = (0.2699060865138533, 0.05550321452668545, 0.020629213465120328,
             0.009168581299757981, 0.004497625751468205)
F_INF_2_2 = 0.6349095705470413
F_ELL_15_05 = (0.8264443729726614, 0.09811713381901657, 0.03730310814381475,
               0.017218805810123097, 0.008840478993750974)
C_2 = 4.0


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


class Friend:
    """`ecbp-mc` at one lambda vector; a unit is one invocation of
    `samples` friend-count samples."""

    rate_name, rate_unit = "friend_samples_per_s", "samples/s"
    median_unit = False
    slow_factor = 4.0

    def __init__(self, lam: str, samples: int, f_ell, f_inf: float):
        self.lam, self.samples = lam, samples
        self.f_ell, self.f_inf = f_ell, f_inf
        self.n = 0
        self.finite: Counter = Counter()
        self.censored = 0

    def argv(self, seed: int) -> list[str]:
        return ["ecbp-mc", "--lambda", self.lam,
                "--ell-max", str(len(self.f_ell)),
                "--samples", str(self.samples), "--seed", str(seed),
                "--workers", "1"]

    def warmup(self, rng, out_dir):
        return self.argv(_draw_seed(rng))

    def rounds(self, rng, out_dir):
        while True:
            yield [self.argv(_draw_seed(rng))]

    def items(self, argv) -> int:
        return self.samples

    def outcomes(self, record) -> Counter:
        """Friend counts and censored total as the run record states them."""
        res = record["results"]
        hist = Counter({int(ell): c for ell, c in res["histogram"].items()})
        hist["censored"] = round(res["censored_mass"] * res["samples"])
        return hist

    def check(self, argv, record):
        res = record["results"]
        hist = self.outcomes(record)
        if res["samples"] != self.samples or sum(hist.values()) != self.samples:
            return "histogram does not sum to the sample count", None
        self.n += self.samples
        self.censored += hist.pop("censored")
        self.finite.update(hist)
        return None, None

    def pooled(self):
        """z-checks of the pooled frequencies against the closed forms."""
        out = []
        targets = [(f"f_{ell}", self.finite[ell], p)
                   for ell, p in enumerate(self.f_ell, start=1)]
        targets.append(("censored_mass", self.censored, self.f_inf))
        for name, count, p in targets:
            freq = count / self.n
            # a zero target has no binomial spread; allow Z_WINDOW samples
            se = math.sqrt(max(p * (1.0 - p), 1.0 / self.n) / self.n)
            z = (freq - p) / se
            out.append((name, abs(z) <= Z_WINDOW,
                        f"{freq:.6f} vs {p:.6f} over {self.n} samples, "
                        f"z={z:+.2f}"))
        return out


class Ecer:
    """`convergence` at lambda=(2,2), n=2e5; a unit is one replica: sample
    the ECER graph and decompose it. Checks read the per-replica CSV."""

    rate_name, rate_unit = "ecer_vertices_per_s", "vertices/s"
    # Every unit is one replica of the same size, and replicas cost much the
    # same. A 2-3 s unit is paired only with the reference loops at its
    # ends, so its rescaled time is noisy; the median unit is steadier than
    # the summed time (over six seeds, spread 0.09 against 0.15).
    median_unit = True
    slow_factor = None
    N = 200_000
    # Per-replica windows of Z_REPLICA standard deviations. The SD of f_ell
    # is taken as sqrt(ell * f_ell / N), as if the count of size-ell
    # components were Poisson; over 40 replicas at N the measured SDs were
    # within 17% of it, and the mean bias below 0.4 SD. The largest
    # fraction's SD was measured there: 0.0018.
    Z_REPLICA = 7.0
    SD_MAX_FRACTION = 0.0018

    def argv(self, seed: int, out_dir) -> list[str]:
        return ["convergence", "--lambda", "2,2", "--n", str(self.N),
                "--replicas", "1", "--seed", str(seed), "--workers", "1",
                "--out", str(out_dir)]

    def warmup(self, rng, out_dir):
        return self.argv(_draw_seed(rng), out_dir)

    def rounds(self, rng, out_dir):
        while True:
            yield [self.argv(_draw_seed(rng), out_dir)]

    def items(self, argv) -> int:
        return self.N

    def check(self, argv, record):
        run_dir = Path(argv[-1]) / f"ecer-convergence-{record['config_hash']}"
        try:
            text = (run_dir / "convergence.csv").read_text()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        lines = text.splitlines()
        if not lines or lines[0] != "# schema: caperc-convergence-v1":
            return "convergence.csv schema line missing", text
        rows = list(csv.DictReader(lines[1:]))
        if [int(r["ell"]) for r in rows] != list(range(1, len(F_ELL_2_2) + 1)):
            return "convergence.csv rows are not ell=1..5", text
        for ell, (row, target) in enumerate(zip(rows, F_ELL_2_2), start=1):
            if abs(float(row["target_f_ell"]) - target) > 1e-9:
                return f"target f_{ell} is {row['target_f_ell']}", text
            tol = self.Z_REPLICA * math.sqrt(ell * target / self.N)
            if abs(float(row["f_ell"]) - target) > tol:
                return f"f_{ell}={row['f_ell']} vs {target} +- {tol:.5f}", text
        if abs(float(rows[0]["target_f_inf"]) - F_INF_2_2) > 1e-9:
            return f"target f_inf is {rows[0]['target_f_inf']}", text
        dev = abs(float(rows[0]["max_fraction"]) - F_INF_2_2)
        if dev > self.Z_REPLICA * self.SD_MAX_FRACTION:
            return f"largest fraction is {dev:.4f} from f_inf", text
        return None, text

    def pooled(self):
        return []


class Analytic:
    """`analytic --lambda ...` at distinct seeded lambda vectors, plus the
    README's `near-critical --k 2`. A round is one point for each k below
    and one near-critical run."""

    rate_name, rate_unit = "analytic_points_per_s", "points/s"
    median_unit = False
    slow_factor = None
    # fully supercritical with the small-subset assumption: the
    # generating-function route runs (k=7 takes ~10 s, so stop at 6)
    GF_KS = (2, 3, 4, 5, 6)
    # fully supercritical with the assumption failing: the 2^k p-system and
    # the 3^k extended-type inversion dominate
    IE_KS = (8, 9, 10, 11, 12)
    README_FAILING = (3, 4, 5)

    @staticmethod
    def lam(rng, k: int) -> str:
        if k == 2:
            lo, hi = 1.2, 3.0
        elif k in Analytic.GF_KS:
            # every (k-1)-sum > 1 and every (k-2)-sum < 1, with 1% margin
            lo, hi = 1.01 / (k - 1), 0.99 / (k - 2)
        else:
            lo, hi = 0.25, 0.35
        return ",".join(f"{x:.6f}" for x in rng.uniform(lo, hi, k))

    def warmup(self, rng, out_dir):
        return ["analytic", "--lambda", self.lam(rng, 5)]

    def rounds(self, rng, out_dir):
        while True:
            yield ([["analytic", "--lambda", self.lam(rng, k)]
                    for k in self.GF_KS + self.IE_KS]
                   + [["near-critical", "--k", "2"]])

    def items(self, argv) -> int:
        return 1

    def check(self, argv, record):
        res = record["results"]
        if argv[0] == "near-critical":
            if abs(res["estimate"] - C_2) > 0.01 * C_2:
                return f"C(2) estimate {res['estimate']} vs {C_2}", None
            return None, None
        k = len(res["lambda"])
        regime = res["regime"]
        if not regime["fully_supercritical"]:
            return "point is not fully supercritical", None
        if regime["assumption_holds"] != (k in self.GF_KS):
            return "point is in the wrong assumption regime", None
        if (k in self.GF_KS) != ("f_inf_generating_function" in res):
            return "generating-function route did not run as expected", None
        return None, None

    def pooled(self):
        return []


WORKLOADS = {
    "friend-mc": lambda: Friend("2,2", 1000, F_ELL_2_2, F_INF_2_2),
    "friend-finite": lambda: Friend("1.5,0.5", 5000, F_ELL_15_05, 0.0),
    "ecer-cap": Ecer,
    "analytic-sweep": Analytic,
}


class RssMonitor:
    """Samples this process's resident set every `interval` seconds on a
    thread; `peak_mb` is the highest sample since the last `reset`."""

    def __init__(self, interval: float = 0.005):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._interval = interval
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _poll(self) -> None:
        while not self._stop.wait(self._interval):
            rss = self._rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def reset(self) -> None:
        with self._lock:
            self._peak = self._rss()

    def peak_mb(self) -> float:
        rss = self._rss()
        with self._lock:
            return max(self._peak, rss) / 2**20

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def release_memory() -> None:
    """Free cyclic garbage and return freed heap pages to the system between
    units, as the end of a CLI process would, so that one unit's garbage and
    peak do not carry into the next. (The friend sampler's recursive
    closures form reference cycles, so its trees wait for the collector.)"""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).malloc_trim(0)


def import_cli():
    if not (SRC / "caperc" / "cli.py").is_file():
        sys.exit(f"perfbench: caperc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import caperc.cli
    return caperc.cli


def call_cli(cli, argv, tracer=None):
    """One unit: returns (exit code or None if it raised, seconds, stdout,
    stderr, index of the unit's first span)."""
    out, err = io.StringIO(), io.StringIO()
    first = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc, first = tracer.run_unit(cli.main, argv)
    except SystemExit as exc:  # argparse rejected argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a failing unit is counted, not fatal
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue(), first


def unit_outcome(wl, argv, rc, stdout, stderr):
    """Checks one unit; returns (error or None, fingerprint of its record)."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        return f"exit {rc}: {tail[0]}", None
    try:
        record = json.loads(stdout)
    except ValueError:
        return "run record is not JSON", None
    record.pop("elapsed_s", None)
    error, extra = wl.check(argv, record)
    return error, (record, extra)


def setup_probe(args) -> tuple[float, float]:
    """(set-up seconds, reference seconds right after) of a fresh process
    running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def machine_line() -> str:
    import numpy as np
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10, check=True).stdout.strip()
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"commit={commit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = import_cli()
    import numpy as np

    wl = WORKLOADS[args.workload]()
    rng = np.random.default_rng(
        [args.seed, sorted(WORKLOADS).index(args.workload)])
    out_dir = OUT_BASE / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # the warm-up unit is the same in every run, so that set-up time
        # does not depend on --seed
        warm_argv = wl.warmup(np.random.default_rng(0), out_dir)
        rounds = wl.rounds(rng, out_dir)
        warm = call_cli(cli, warm_argv)
        setup = (time.perf_counter() - T_START,
                 (REF_BEFORE_SETUP + median_reference_s()) / 2)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        return measure(args, cli, wl, rounds, setup, warm_argv, warm)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_BASE.rmdir()


def measure(args, cli, wl, rounds, setup, warm_argv, warm) -> int:
    failures: list[str] = []
    bad_outputs = 0
    attempted = 1
    rc, warm_s, stdout, stderr, _ = warm
    error, _ = unit_outcome(wl, warm_argv, rc, stdout, stderr)
    if error:
        failures.append(f"warm-up {' '.join(warm_argv)}: {error}")
        bad_outputs += rc == 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    # per timed unit, untraced or traced: (items, seconds inside cli.main
    # at reference speed, the same by the wall clock). At reference speed,
    # the seconds are multiplied by REF_NOMINAL_S over the mean time of the
    # reference loops run just before and just after the unit.
    units_done: dict[bool, list[tuple[int, float, float]]] = {
        False: [], True: []}
    rounds_done = {False: 0, True: 0}
    refs = [reference_s()]
    unit_times: list[float] = []
    unit_peaks: list[float] = []
    monitor = RssMonitor()
    first_traced = None   # (argv, fingerprint) of the first traced unit
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            # with tracing, rounds alternate untraced/traced so the
            # difference in their rates is the tracing overhead
            traced = tracer is not None and (
                rounds_done[False] > rounds_done[True])
            if traced:
                tracer.install()
            for argv in next(rounds):
                attempted += 1
                release_memory()
                monitor.reset()
                rc, secs, stdout, stderr, first = call_cli(
                    cli, argv, tracer if traced else None)
                unit_peaks.append(monitor.peak_mb())
                unit_times.append(secs)
                refs.append(reference_s())
                units_done[traced].append(
                    (wl.items(argv),
                     secs * REF_NOMINAL_S * 2 / (refs[-2] + refs[-1]), secs))
                error, fingerprint = unit_outcome(
                    wl, argv, rc, stdout, stderr)
                if error is None and traced and isinstance(wl, Friend):
                    tags = tracer.tags_since(first)
                    tags["censored"] = tags.pop("depth-cap", 0) + tags.pop(
                        "node-cap", 0)
                    if +tags != +wl.outcomes(fingerprint[0]):
                        error = "traced outcomes differ from the histogram"
                if error is None:
                    if traced and first_traced is None:
                        first_traced = (argv, fingerprint)
                else:
                    failures.append(f"{' '.join(argv)}: {error}")
                    bad_outputs += rc == 0
            if traced:
                tracer.uninstall()
            rounds_done[traced] += 1
            if time.perf_counter() >= deadline and (
                    tracer is None or rounds_done[True]):
                break
    finally:
        monitor.close()
        if tracer is not None:
            tracer.uninstall()

    checks = []
    for name, ok, detail in wl.pooled():
        attempted += 1
        checks.append(f"check {name}: {detail} {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"pooled check {name}: {detail}")
            bad_outputs += 1
    if first_traced is not None:
        # the same unit untraced must give the identical record
        attempted += 1
        argv, fingerprint = first_traced
        rc, _, stdout, stderr, _ = call_cli(cli, argv)
        error, again = unit_outcome(wl, argv, rc, stdout, stderr)
        if error is not None or again != fingerprint:
            failures.append(
                f"traced and untraced records differ: {' '.join(argv)}")
            bad_outputs += 1

    readme = []
    if isinstance(wl, Analytic):
        # README commands run as written; known to exit 2 at the commit
        # that added this benchmark (near-critical falls back to lambda=(2,2))
        for k in wl.README_FAILING:
            rc, _, _, stderr, _ = call_cli(
                cli, ["near-critical", "--k", str(k)])
            msg = (stderr.strip().splitlines() or [""])[-1]
            readme.append((k, rc, msg))

    setups = [setup]
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        attempted += 1
        try:
            setups.append(setup_probe(args))
        except (subprocess.SubprocessError, ValueError, KeyError) as exc:
            failures.append(f"set-up probe: {exc!r}")

    def rate(units, column: int = 1) -> float:
        """Items over summed seconds, or over the median unit's seconds:
        at reference speed (column 1) or by the wall clock (column 2)."""
        if wl.median_unit:
            return units[0][0] / statistics.median(u[column] for u in units)
        return sum(u[0] for u in units) / sum(u[column] for u in units)

    def split_slow(units):
        """(regular units, slow units). On friend-*, a unit is slow when it
        takes over `slow_factor` times the median unit at reference speed:
        it holds a sample that reached node-cap (1-2 s each, about one in
        10^5 samples). Too rare to weigh steadily in one run, they are left
        out of items_per_s and reported apart."""
        if wl.slow_factor is None:
            return units, []
        cut = wl.slow_factor * statistics.median(u[1] for u in units)
        return ([u for u in units if u[1] <= cut],
                [u for u in units if u[1] > cut])

    regular, slow = split_slow(units_done[False])
    result_rate = rate(regular)
    e2e = {
        "items_per_s": (result_rate, "items/s"),
        "setup_s": (statistics.median(
            secs * REF_NOMINAL_S / ref for secs, ref in setups), "s"),
        "peak_rss_mb": (statistics.median(unit_peaks), "MB"),
    }
    failed = len(failures)
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}", machine_line()]
    lines.append(
        f"{wl.rate_name} {result_rate:.6g} {wl.rate_unit} "
        f"({'median' if wl.median_unit else 'sum'} of {len(regular)} "
        f"untraced units at reference speed; "
        f"{rate(regular, 2):.6g} by the wall clock; "
        f"reported as items_per_s)")
    if wl.slow_factor is not None:
        lines.append(
            f"slow units (over {wl.slow_factor:g}x the median): {len(slow)} "
            f"of {len(units_done[False])}, {sum(u[1] for u in slow):.4f} s "
            f"at reference speed; with them the rate would be "
            f"{rate(units_done[False]):.6g} {wl.rate_unit}")
    lines.append(
        f"reference loop {statistics.median(refs):.5f} s median, "
        f"{min(refs):.5f}..{max(refs):.5f} s (nominal {REF_NOMINAL_S} s)")
    lines.append(
        f"setup_s {e2e['setup_s'][0]:.4f} s at reference speed (median of "
        f"{len(setups)} set-ups; by the wall clock "
        f"{' '.join(f'{secs:.4f}' for secs, _ in setups)} s; "
        f"each includes "
        f"one warm-up unit, here {warm_s:.4f} s against a median timed "
        f"unit of {statistics.median(unit_times):.4f} s)")
    lines.append(
        f"peak_rss_mb {e2e['peak_rss_mb'][0]:.2f} MB (median per-unit peak "
        f"of {len(unit_peaks)} units, max {max(unit_peaks):.2f} MB; process "
        f"peak {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f}"
        f" MB)")
    lines.append(f"failed_frac {failed / attempted:.6g} "
                 f"(ops_attempted {attempted}, ops_failed {failed})")
    lines += checks
    lines += [f"failed: {f}" for f in failures[:20]]
    for k, rc, msg in readme:
        lines.append(f"readme near-critical --k {k}: exit {rc} {msg} "
                     f"(not counted in ops)")

    if tracer is None:
        metrics = e2e
    else:
        layer = tracer.metrics()
        traced_rate = rate(split_slow(units_done[True])[0])
        layer["trace.overhead_frac"] = 1.0 - traced_rate / result_rate
        every = units_done[False] + units_done[True]
        layer["ecbp.slow_units.time_share"] = sum(
            u[1] for u in split_slow(every)[1]) / sum(u[1] for u in every)
        metrics = {name: (layer[name], unit)
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        lines.append(
            f"tracing overhead {layer['trace.overhead_frac']:+.4f} "
            f"(untraced {result_rate:.6g}, traced {traced_rate:.6g} "
            f"{wl.rate_unit}; {tracer.units} traced units)")
        if tracer.sample_count():
            lines.append(
                f"ecbp.sample.us_tail is p"
                f"{tracing.tail_percentile(tracer.sample_count()):g} of "
                f"{tracer.sample_count()} samples")
        for name in ("analytic.solve_p_system",
                     "analytic.extended_type_distribution"):
            per_k = tracer.by_tag(name)
            if per_k:
                lines.append(f"{name} by k: " + " ".join(
                    f"k={k}:{n}x{secs * 1e3:.4g}ms"
                    for k, (n, secs) in per_k.items()))
        for name in tracer.absent:
            lines.append(f"absent span: {name} (its metrics read 0)")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": bad_outputs == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
