"""Runs the benchmark over several seeds and prints each end-to-end metric's
median, quartiles and spread, with each workload's own throughput name.

    python3 perfbench/spread.py --seeds 1,2,3,4,5 --seconds 20
    python3 perfbench/spread.py --workloads friend-mc --seeds 1-10

The spread is (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`; it is compared with a third of the
metric's bound in BENCHMARK.json. One line per run, with its wall time, is
printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            res = run_once(workload, seed, args.seconds)
            wall = time.perf_counter() - t0
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} wall={wall:.1f}s "
                  f"correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}",
                  flush=True)

    print(f"\n{'workload':15} {'metric':24} {'unit':10} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        names = {"items_per_s": WORKLOADS[workload]().rate_name}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:15} {names.get(metric, metric):24} "
                  f"{runs[0]['metrics'][metric]['unit']:10} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.4f} "
                  f"{bound if bound is not None else '-':>6} {flag}")
        print(f"{workload:15} {'failed_frac':24} {'ops':10} "
              f"{failed / attempted:12.6g}   ({failed} of {attempted} ops, "
              f"correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
