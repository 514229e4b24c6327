"""Check that two caperc source trees write the same bytes.

Runs a fixed list of CLI commands once against each tree, every command in
a fresh process and a fresh working directory, and compares the exit code,
stdout, stderr and every file the command left behind (record.json, CSVs,
graph dumps). The one value that may differ, a record's "elapsed_s", is
masked first. Run it from the repository root, giving the two `src`
directories (for example a `git archive` of the parent commit and this
tree):

    python tools/same_bytes.py /path/to/parent/src src --jobs 2

It prints each difference and a summary, and exits 1 if anything differs.
The list holds the README's commands and 333 more: `analytic` at k = 2..13
over four lambda ranges, six points each (both regimes of the
generating-function check, and points below and near criticality), and at
k = 14..16, one point per range, where the layer tables of the p_I solve
go from kept to built for each run in blocks, `near-critical --k 2..7`,
`convergence` at k = 2, 3 and 4 and at lambda = (1, 1), where the meet
sorts about a quarter of the vertices, `components` on a lambda = (1, 1)
dump, `ecbp-mc` at k = 2, 3, 5 and 7, `analytic --ell-max 40`, `ecbp-mc` and
`near-critical` run from one config file that names keys for both, and
`sample-ecer`, `components` and `convergence` at n = 3..5, where edge
probabilities reach 1/3 and more, `components` on a written dump whose
header names 1000 colors, few of them with edges, `sample-ecer`,
`components` and `convergence` at lambda = (2, 1e-6, 2), whose middle
color has no edges, `local-weak` at k = 3 and depth 2, and at n = 2e5,
where a graph's per-color work is shared with a helper thread,
`convergence` at lambda = (2, 2) and (0.7, 0.7, 0.7), whose three colors
give one pair of projections and one on its own, and `sample-ecer` with
`components` on its dump, and `sample-ecer` at n = 2^31 and 2^31 + 1, the
most vertices whose ids are int32 and the fewest whose ids are int64.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ELAPSED = re.compile(rb'"elapsed_s": [-+.0-9eE]+')

# input files, written into the working directory of each group that
# names one; each subcommand takes the config keys it reads and drops the
# rest, and the dump's colors with edges are interleaved, their endpoints in
# either order, with edgeless colors between them and above them
INPUT_FILES = {
    "two-kinds.cfg": "# ecbp-mc reads lambda, samples and seed, "
                     "near-critical k and eps\nlambda=0.9,0.8,0.7\n"
                     "samples=3000\nseed=6\nk=3\neps=0.02,0.01\nn=7\n",
    "wide.txt": "12 1000\n999 1 0\n3 0 1\n512 2 1\n3 2 1\n999 1 2\n"
                "512 0 2\n3 4 3\n999 3 4\n3 5 4\n512 5 4\n999 6 5\n"
                "512 7 6\n3 8 7\n999 8 9\n512 9 8\n3 10 9\n999 11 10\n",
}

# run in order in one directory, so that components finds sample-ecer's dump
README = [
    ["analytic", "--lambda", "2,2"],
    ["sample-ecer", "--lambda", "2,2", "--n", "4000", "--seed", "1",
     "--out", "runs/"],
    ["components", "runs/ecer-n4000-seed1.txt", "--out", "runs/"],
    ["ecbp-mc", "--lambda", "2,2", "--samples", "100000", "--seed", "0"],
    ["convergence", "--lambda", "2,2", "--n", "500,1000,2000,4000",
     "--replicas", "30", "--seed", "0"],
    ["local-weak", "--lambda", "1,1", "--n", "4000", "--replicas", "10"],
    ["near-critical", "--k", "3"],
    ["analytic", "--lambda", "2,2", "--out", "runs/"],
]


def lambda_ranges(k: int) -> list[tuple[float, float]]:
    """Four ranges: every (k-1)-sum above 1 and every (k-2)-sum below 1 (the
    generating-function check runs); supercritical with small subsets that
    fail it (from k = 5); a wide range; and around criticality."""
    gf = (1.2, 3.0) if k == 2 else (1.01 / (k - 1), 0.99 / (k - 2))
    return [gf, (0.25, 0.35), (0.05, 3.0), (0.9 / (k - 1), 1.1 / (k - 1))]


def commands() -> list[list[list[str]]]:
    """Groups of argvs; the argvs of a group share a working directory."""
    rng = random.Random(27)
    groups = [README]
    for k in range(2, 14):
        for lo, hi in lambda_ranges(k):
            for _ in range(6):
                lam = ",".join(f"{rng.uniform(lo, hi):.6f}" for _ in range(k))
                groups.append([["analytic", "--lambda", lam]])
    # one point per range at k = 14, analytic.KEPT_MAX_K, the largest k
    # whose layer tables are kept, and at 15 and 16, where the layer tables,
    # in blocks of at most 1024 masks, are built for each run
    for k in range(14, 17):
        for lo, hi in lambda_ranges(k):
            lam = ",".join(f"{rng.uniform(lo, hi):.6f}" for _ in range(k))
            groups.append([["analytic", "--lambda", lam]])
    groups += [[["near-critical", "--k", str(k)]] for k in range(2, 8)]
    groups += [
        [["convergence", "--lambda", "2,2", "--n", "300,600", "--replicas",
          "3", "--seed", "1", "--ell-max", "8", "--out", "runs/"]],
        [["convergence", "--lambda", "0.9,0.8,0.7", "--n", "300",
          "--replicas", "2", "--seed", "2"]],
        [["convergence", "--lambda", "1,1", "--n", "20000", "--replicas",
          "2"]],
        [["convergence", "--lambda", "0.5,0.5,0.5,0.5", "--n", "2000",
          "--replicas", "2", "--seed", "3"]],
        [["sample-ecer", "--lambda", "1,1", "--n", "20000", "--seed", "4",
          "--out", "runs/"],
         ["components", "runs/ecer-n20000-seed4.txt", "--out", "runs/"]],
        [["ecbp-mc", "--lambda", "2,2", "--samples", "20000", "--seed", "1"]],
        [["ecbp-mc", "--lambda", "0.9,0.8,0.7", "--samples", "5000",
          "--seed", "2", "--out", "runs/"]],
        # k = 5 and 7, where a level's entries sum into 30 and 126 child
        # masks
        [["ecbp-mc", "--lambda", "0.3,0.3,0.3,0.3,0.3", "--samples", "3000",
          "--seed", "4"]],
        [["ecbp-mc", "--lambda", "0.18,0.18,0.18,0.18,0.18,0.18,0.18",
          "--samples", "3000", "--seed", "5"]],
        [["analytic", "--lambda", "1.5,0.5", "--ell-max", "40"]],
        [["ecbp-mc", "--config", "two-kinds.cfg", "--out", "runs/"],
         ["near-critical", "--config", "two-kinds.cfg"]],
        # edge probabilities 0.49 (n = 3) and 0.39 (n = 4), where the pair
        # sampler's skips are numpy's geometric search, and 0.33 (n = 5),
        # just below 1/3, where they are its inversion
        [["sample-ecer", "--lambda", "2,2", "--n", "3", "--seed", "5",
          "--out", "runs/"],
         ["components", "runs/ecer-n3-seed5.txt", "--out", "runs/"],
         ["convergence", "--lambda", "2,2", "--n", "4,5", "--replicas", "3",
          "--seed", "1"]],
        [["components", "wide.txt", "--out", "runs/"]],
        # an edgeless middle color: the meet takes two projections, each a
        # run of rows at one end of the table
        [["sample-ecer", "--lambda", "2,0.000001,2", "--n", "500", "--seed",
          "6", "--out", "runs/"],
         ["components", "runs/ecer-n500-seed6.txt", "--out", "runs/"],
         ["convergence", "--lambda", "2,0.000001,2", "--n", "500",
          "--replicas", "2", "--seed", "6"]],
        [["local-weak", "--lambda", "0.6,0.5,0.4", "--n", "2000",
          "--replicas", "2", "--d", "2"]],
        # above the size from which a graph's per-color work is shared with
        # a helper thread: two projections at a time, and at k = 3 one pair
        # and one projection on its own
        [["convergence", "--lambda", "2,2", "--n", "200000", "--replicas",
          "2"]],
        [["convergence", "--lambda", "0.7,0.7,0.7", "--n", "200000",
          "--replicas", "1"]],
        [["sample-ecer", "--lambda", "2,2", "--n", "200000", "--seed", "7",
          "--out", "runs/"],
         ["components", "runs/ecer-n200000-seed7.txt", "--out", "runs/"]],
        # either side of the vertex dtype switch: ids are int32 up to
        # n = 2^31 and int64 above, and at both the pair offsets and keys
        # are past int32 (about 11 edges a color)
        [["sample-ecer", "--lambda", "1e-8,1e-8", "--n", "2147483648",
          "--seed", "0"]],
        [["sample-ecer", "--lambda", "1e-8,1e-8", "--n", "2147483649",
          "--seed", "0"]],
    ]
    return groups


def run_group(src: Path, group: list[list[str]]) -> dict[str, bytes]:
    """Everything the group's commands wrote, by name, elapsed_s masked."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    out: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INPUT_FILES.items():
            if any(name in argv for argv in group):
                Path(cwd, name).write_text(text)
        for i, argv in enumerate(group):
            proc = subprocess.run([sys.executable, "-m", "caperc", *argv],
                                  cwd=cwd, env=env, capture_output=True)
            out[f"{i}:exit"] = str(proc.returncode).encode()
            out[f"{i}:stdout"] = proc.stdout
            out[f"{i}:stderr"] = proc.stderr
        for path in sorted(Path(cwd).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(cwd))] = path.read_bytes()
    return {name: ELAPSED.sub(b'"elapsed_s": MASKED', text)
            for name, text in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--jobs", type=int, default=2,
                    help="commands run at once (default 2)")
    args = ap.parse_args(argv)
    groups = commands()

    def compare(group):
        old, new = run_group(args.old_src, group), run_group(args.new_src,
                                                             group)
        return [name for name in sorted(set(old) | set(new))
                if old.get(name) != new.get(name)], len(old)

    differ, outputs = 0, 0
    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        for group, (names, count) in zip(groups, pool.map(compare, groups)):
            outputs += count
            for name in names:
                differ += 1
                i = int(name.split(":")[0]) if ":" in name else -1
                print(f"differs: {name} of caperc {' '.join(group[i])}")
    n_cmds = sum(len(group) for group in groups)
    print(f"{n_cmds} commands, {outputs} outputs compared "
          f"(exit codes, stdout, stderr, files), {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
