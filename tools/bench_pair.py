"""Collect paired benchmark runs of two commits into a BENCH_*.json file.

Usage (from the root of a git checkout):

    python3 tools/bench_pair.py --parent REV --change REV \
        --workload ps-scan --seeds 10-19 --workdir DIR --out BENCH_6.json

Each revision is exported with `git archive` into DIR (which must lie
outside the checkout; one inside it is refused) and benchmarked there
with its own `perfbench/run.py --trace 0`, so both sides run their
committed files.  For every seed the two sides run one after the other,
and the side that runs first alternates from seed to seed.  Each run's
result line, seed and order go into the output file, together with the
revisions, the hashes of their `src` trees, the Python and numpy
versions and `nproc`.  The runs never inherit PYTHONDONTWRITEBYTECODE,
so the first one in a tree writes its bytecode cache; `meta` records
whether it was set here.  Runs of further workloads or seeds of the same
two revisions are appended to an existing output file (one that holds
runs of other revisions is refused), and the summary (per side: median
and quartiles of every end-to-end metric, the pairs each side won on
each metric, and the runs that left no result line) is recomputed over
all runs.

The script records numbers; it gates nothing and exits 0 whatever they
are.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout_root():
    """The top of the git checkout around the working directory.  Raises
    SystemExit outside one."""
    try:
        return Path(git("rev-parse", "--show-toplevel"))
    except subprocess.CalledProcessError:
        raise SystemExit("bench_pair: run this tool from the root of a git "
                         "checkout") from None


def export(rev, workdir):
    """The committed files of rev in workdir/<full rev>; returns the path."""
    full = git("rev-parse", f"{rev}^{{commit}}")
    tree = workdir / full
    if not tree.is_dir():
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", full],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"bench_pair: git archive {full} failed")
    return full, tree


def check_workdir(workdir, checkout):
    """Refuse a workdir inside the checkout, where the exported trees
    would fill the working tree and `git add -A` would stage them.

    Both paths are resolved first.  Raises SystemExit naming both.
    """
    workdir, checkout = workdir.resolve(), checkout.resolve()
    if workdir.is_relative_to(checkout):
        raise SystemExit(
            f"bench_pair: --workdir {workdir} lies inside the checkout "
            f"{checkout}; give a directory outside it")


def check_revs(data, revs):
    """Refuse to pool this pair's runs with runs of other revisions.

    `data` is the content of an existing output file and `revs` maps each
    side to this pair's revision.  Raises SystemExit naming both pairs.
    """
    old = data.get("meta", {}).get("revs")
    if data.get("runs") and old != revs:
        def pair(r):
            if not r:
                return "unrecorded revisions"
            return f"parent {r.get('parent')} and change {r.get('change')}"
        raise SystemExit(
            f"bench_pair: the output file holds runs of {pair(old)}, not "
            f"of {pair(revs)}; write this pair to another --out file")


def child_env():
    """This process's environment without PYTHONDONTWRITEBYTECODE.

    With it set, no child writes a bytecode cache, so every child run in
    a fresh export compiles `primscan` again while it imports it.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree, workload, seed, seconds):
    """One perfbench run in tree; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, env=child_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-2000:],
                "exit": proc.returncode}
    return json.loads(lines[-1])


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better):
    """Per workload and side, median [q1, q3] of each metric, and the
    pairs won by each side (ties count for neither).

    A pair counts only if both of its runs left a result line; `no_result`
    counts, per side, the runs that did not (a non-zero exit or no
    output), which no pair holds.
    """
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        summary = {"pairs": len(pairs), "failed": {
            side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "no_result": {side: sum(
                1 for r in runs if r["workload"] == workload
                and r["side"] == side and "metrics" not in r["result"])
                for side in SIDES}}
        for metric, direction in better.items():
            values = {side: [p[side]["metrics"][metric]["value"]
                             for p in pairs] for side in SIDES}
            wins = {side: 0 for side in SIDES}
            for p in pairs:
                a, b = (p[side]["metrics"][metric]["value"] for side in SIDES)
                if a != b:
                    lower_wins = direction == "lower"
                    wins["change" if (b < a) == lower_wins else "parent"] += 1
            entry = {"wins": wins}
            for side in SIDES:
                if values[side]:
                    q1, med, q3 = quartiles(values[side])
                    entry[side] = {"median": med, "q1": q1, "q3": q3}
            summary[metric] = entry
        out[workload] = summary
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 10-19 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    check_workdir(args.workdir, checkout_root())
    workdir = args.workdir.resolve()
    trees = {side: export(getattr(args, side), workdir) for side in SIDES}
    contract = json.loads((trees["change"][1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}

    revs = {side: rev for side, (rev, _) in trees.items()}
    data = {"runs": []}
    if args.out.exists():
        data = json.loads(args.out.read_text())
        check_revs(data, revs)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    data["meta"] = {
        "revs": revs,
        "src_trees": {side: git("rev-parse", f"{rev}:src")
                      for side, (rev, _) in trees.items()},
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds T --trace 0, in a git archive of each rev",
        "pythondontwritebytecode_set": "PYTHONDONTWRITEBYTECODE" in os.environ,
    }
    start = len(data["runs"]) // 2
    for i, seed in enumerate(args.seeds):
        order = SIDES if (start + i) % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side][1], args.workload, seed,
                              args.seconds)
            data["runs"].append({"workload": args.workload, "seed": seed,
                                 "side": side, "first": order[0],
                                 "result": result})
            wall = result.get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{args.workload} seed {seed} {side}: wall_s {wall}",
                  flush=True)
            data["summary"] = summarize(data["runs"], better)
            args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
