"""Command-line front end: enumeration, lemma suites, scans, and
certificate checks.

Each command runs one library operation and emits a deterministic report:
JSON-lines records with the aggregate as the final line (default), or CSV
with a leading `kind` column.  With a fixed seed the output is
byte-identical across runs.

Exit codes: 0 — the run passed; 1 — violations were found (they are in
the report); 2 — bad input or a failed precondition (message on stderr).
"""

import argparse
import csv
import gc
import json
import re
import sys

from .blocks import SUITES, build_blocks, enumerate_primitive_classes, run_suite
from .certify import (
    SamplerError,
    detour_verify,
    path_lower_bound,
    quadrilateral_check,
)
from .geometry import parse_rep_file
from .scans import (
    bowditch_scan,
    excursion_profile,
    find_quasi_loops,
    local_global_scan,
    perturbation_scan,
    ps_scan,
)

__all__ = ["main", "run"]


def _parse_slope(text):
    try:
        p_str, q_str = text.split("/", 1)
        return int(p_str), int(q_str)
    except ValueError as e:
        raise ValueError(f"slope must be P/Q with integers, got {text!r}") from e


class _Parser(argparse.ArgumentParser):
    """argparse reads a value that starts with '-' and is not a plain
    number as an option, so `--slope -3/2` would lack its argument; the
    parser takes it as `--slope=-3/2`."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] == "--slope" and re.fullmatch(
                    r"-\d+/-?\d+", arg):
                joined[-1] = f"--slope={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def emit(records, aggregate, fmt, stream):
    """Write the report: one record per line plus the aggregate last."""
    if fmt == "jsonl":
        stream.writelines(json.dumps(r) + "\n" for r in [*records, aggregate])
        return
    columns = []
    for row in [*records, aggregate]:
        for key in row:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["kind", *columns])
    for record in records:
        writer.writerow(["record", *(_cell(record.get(c)) for c in columns)])
    writer.writerow(["aggregate", *(_cell(aggregate.get(c)) for c in columns)])


# ------------------------------------------------------------- commands

def _cmd_enumerate(args):
    records = []
    for slope, tower in enumerate_primitive_classes(args.max_den):
        records.append({
            "p": slope.p, "q": slope.q, "len": len(tower.word),
            "cf": list(tower.cf), "swap": tower.swap, "word": tower.word,
        })
    return records, {"classes": len(records)}, 0


def _cmd_blocks(args):
    p, q = _parse_slope(args.slope)
    tower = build_blocks(p, q)
    records = [
        {"i": i, "w": tower.w[i], "wp": tower.wp[i],
         "l": tower.l[i], "lp": tower.lp[i]}
        for i in range(tower.depth + 1)
    ]
    aggregate = {"p": tower.p, "q": tower.q, "cf": list(tower.cf),
                 "swap": tower.swap, "word": tower.word}
    return records, aggregate, 0


def _cmd_verify_lemmas(args):
    suites = SUITES if args.suite == "all" else (args.suite,)
    caps = {suite: ("--max-den", args.max_den) if suite == "recurrences"
            else ("--max-block-len", args.max_block_len) for suite in suites}
    for flag, cap in caps.values():
        if cap < 1:
            raise ValueError(f"{flag} must be >= 1, got {cap}")
    records, total_checks, total_failures = [], 0, 0
    for suite in suites:
        cap = caps[suite][1]
        report = run_suite(suite, cap)
        records.append({"suite": suite, "cap": cap, "checks": report.checks,
                        "failures": len(report.failures)})
        records.extend({"suite": suite, **f} for f in report.failures)
        total_checks += report.checks
        total_failures += len(report.failures)
    aggregate = {"suites": len(suites), "checks": total_checks,
                 "failures": total_failures}
    return records, aggregate, 1 if total_failures else 0


def _cmd_scan_bowditch(args):
    rep = parse_rep_file(args.rep)
    scan = bowditch_scan(rep, args.max_den)
    code = 1 if scan.aggregate["violations"] else 0
    return scan.records, scan.aggregate, code


def _cmd_scan_ps(args):
    rep = parse_rep_file(args.rep)
    scan = ps_scan(rep, args.max_den)
    code = 1 if scan.aggregate["violations"] else 0
    return scan.records, scan.aggregate, code


def _cmd_excursion(args):
    rep = parse_rep_file(args.rep)
    p, q = _parse_slope(args.slope)
    gamma = build_blocks(p, q).word
    prof = excursion_profile(rep, gamma, step=args.step)
    periodicity = prof.periodicity_defect()
    lipschitz = prof.lipschitz_defect()
    # A profile that fails its own seam or Lipschitz bound has lost
    # precision in its rotation axes; refuse it.
    if periodicity > 1e-6:
        raise ValueError(f"periodicity defect {periodicity:.3g} exceeds "
                         f"the bound 1e-06")
    if lipschitz > 1e-6 * prof.step:
        raise ValueError(f"Lipschitz defect {lipschitz:.3g} exceeds "
                         f"the bound 1e-06 * step = {1e-6 * prof.step:.3g}")
    records = [{"u": float(u), "E": float(v)}
               for u, v in zip(prof.us, prof.values)]
    aggregate = {
        "gamma": gamma, "period": prof.period, "step": prof.step,
        "max": prof.max_excursion, "min": prof.min_excursion,
        "periodicity_defect": periodicity,
        "lipschitz_defect": lipschitz,
    }
    return records, aggregate, 0


def _cmd_quasi_loops(args):
    rep = parse_rep_file(args.rep)
    p, q = _parse_slope(args.slope)
    gamma = build_blocks(p, q).word
    report = find_quasi_loops(rep, gamma, args.eps, min_len=args.min_len,
                              C=args.C)
    records = [
        {"word": loop.word, "position": loop.position,
         "len": len(loop.word), "displacement": loop.displacement}
        for loop in report.loops
    ]
    aggregate = {
        "gamma": gamma, "eps": args.eps, "loops": len(report.loops),
        "packed": len(report.packed), "coverage": report.coverage,
        "contradiction": report.contradiction,
    }
    confirmed = report.contradiction and report.contradiction["confirmed"]
    return records, aggregate, 1 if confirmed else 0


def _cmd_bounds(args):
    bound = path_lower_bound(d=args.d, K=args.K, C=args.C, delta=args.delta,
                             Kx=args.Kx, Ky=args.Ky, regime=args.regime)
    value = bound.bound
    text = str(int(value)) if value == int(value) else repr(value)
    print(text)
    return None, None, 0


def _cmd_detour(args):
    report = detour_verify(args.trials, K=args.K, C=args.C,
                           delta=args.delta, seed=args.seed)
    return report.records, report.aggregate(), 0 if report.passed else 1


def _cmd_quadrilateral(args):
    report = quadrilateral_check(args.trials, delta=args.delta,
                                 seed=args.seed)
    return report.records, report.aggregate(), 0 if report.passed else 1


def _cmd_local_global(args):
    rep = parse_rep_file(args.rep)
    scan = local_global_scan(rep, args.power, args.window, args.words,
                             seed=args.seed)
    return scan.records, scan.aggregate, 0


def _cmd_perturb(args):
    rep = parse_rep_file(args.rep)
    report = perturbation_scan(rep, args.radius, args.trials, args.max_den,
                               seed=args.seed)
    records = [{"trial": i, "min_ratio": v}
               for i, v in enumerate(report["values"])]
    aggregate = {k: v for k, v in report.items() if k != "values"}
    return records, aggregate, 0


def build_parser():
    parser = _Parser(
        prog="primscan",
        description="primitive-class scans and hyperbolic certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, seeded=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", choices=("jsonl", "csv"), default="jsonl")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = add("enumerate", _cmd_enumerate,
            help="list primitive classes up to a denominator cap")
    p.add_argument("--max-den", type=int, default=20)

    p = add("blocks", _cmd_blocks, help="block tower of one slope")
    p.add_argument("--slope", required=True, help="slope as P/Q")

    p = add("verify-lemmas", _cmd_verify_lemmas,
            help="exhaustive combinatorial suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--max-block-len", type=int, default=60,
                   help="class-word length cap for the string suites")
    p.add_argument("--max-den", type=int, default=200,
                   help="slope cap for the recurrences suite")

    p = add("scan-bowditch", _cmd_scan_bowditch,
            help="trace/translation-ratio scan over primitive classes")
    p.add_argument("--rep", required=True)
    p.add_argument("--max-den", type=int, default=20)

    p = add("scan-ps", _cmd_scan_ps,
            help="orbit-map quasi-geodesic scan over primitive classes")
    p.add_argument("--rep", required=True)
    p.add_argument("--max-den", type=int, default=10)

    p = add("excursion", _cmd_excursion,
            help="axis-distance profile along one class leaf")
    p.add_argument("--rep", required=True)
    p.add_argument("--slope", required=True, help="slope as P/Q")
    p.add_argument("--step", type=float, default=0.25)

    p = add("quasi-loops", _cmd_quasi_loops,
            help="low-displacement cyclic subwords and their coverage")
    p.add_argument("--rep", required=True)
    p.add_argument("--slope", required=True, help="slope as P/Q")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--C", type=float, default=None,
                   help="displacement-ratio constant for the contradiction test")

    p = add("bounds", _cmd_bounds,
            help="exponential lower bound for a detour path length")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--K", type=float, default=0.0)
    p.add_argument("--C", "--cprime", dest="C", type=float, default=0.0)
    p.add_argument("--Kx", type=float, default=0.0)
    p.add_argument("--Ky", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--regime", choices=("near", "far", "close", "general"),
                   default="near")

    p = add("detour", _cmd_detour, seeded=True,
            help="Monte Carlo check of the detour length bound")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--delta", type=float, default=1.0)

    p = add("quadrilateral", _cmd_quadrilateral, seeded=True,
            help="Monte Carlo check of the quadrilateral dichotomy")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--delta", type=float, default=1.0)

    p = add("local-global", _cmd_local_global, seeded=True,
            help="local vs global quasi-geodesic constants")
    p.add_argument("--rep", required=True)
    p.add_argument("--power", type=int, default=3,
                   help="minimum run of the loxodromic generator")
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--words", type=int, default=8)

    p = add("perturb", _cmd_perturb, seeded=True,
            help="minimum-ratio robustness under entrywise noise")
    p.add_argument("--rep", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-den", type=int, default=10)

    return parser


def run(args, stream=None):
    """Dispatch a parsed command; returns the exit code."""
    stream = stream if stream is not None else sys.stdout
    records, aggregate, code = args.func(args)
    if records is not None:
        emit(records, aggregate, args.out, stream)
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # The scans allocate millions of short-lived tuples while holding
    # every record alive; at the default first-generation threshold of 700
    # that triggers full collections over all of them.  The caller's
    # threshold is restored on return.
    thresholds = gc.get_threshold()
    gc.set_threshold(50_000)
    try:
        return run(args)
    except (SamplerError, OSError, ValueError) as e:
        print(f"primscan: error: {e}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
