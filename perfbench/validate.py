"""Output checks for the workloads.

Each check takes the stdout of one `primscan` command and returns the
largest Fricke-trace relative error it saw (0.0 where the command reports
no traces), or raises `Invalid`.  A command whose output is invalid counts
as failed and its iteration is never timed as a success.
"""

import json
import math
from functools import lru_cache

from inputs import MARKOFF_TRACES

# Exhaustive suites at the verify-lemmas default caps (recurrences at 200,
# the string suites at 60); the counts are exact.
LEMMA_CHECKS = {
    "recurrences": 907_899,
    "magic-len": 138_502,
    "perm-cycl": 61_226,
    "bloc": 1_832_450,
}
SCAN_CLASSES = {20: 257, 200: 24_465}
TRIALS = 1000
FRICKE_TOL = 1e-9


class Invalid(ValueError):
    """The output of a command fails validation."""


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise Invalid(f"non-finite number {text} in output")
    return value


def _non_finite(name):
    raise Invalid(f"non-finite number {name} in output")


def parse_jsonl(text):
    """(records, aggregate) of a JSON-lines report; every number finite."""
    lines = text.splitlines()
    if not lines:
        raise Invalid("empty output")
    try:
        rows = [json.loads(line, parse_float=_finite,
                           parse_constant=_non_finite) for line in lines]
    except json.JSONDecodeError as e:
        raise Invalid(f"malformed JSON line: {e}") from e
    if not all(isinstance(row, dict) for row in rows):
        raise Invalid("a line is not a JSON object")
    return rows[:-1], rows[-1]


def _expect(cond, what):
    if not cond:
        raise Invalid(what)


def check_lemmas(text):
    records, aggregate = parse_jsonl(text)
    got = {r.get("suite"): (r.get("checks"), r.get("failures"))
           for r in records}
    _expect(len(records) == len(LEMMA_CHECKS),
            f"{len(records)} suite records, expected {len(LEMMA_CHECKS)}")
    for suite, checks in LEMMA_CHECKS.items():
        _expect(got.get(suite) == (checks, 0),
                f"suite {suite}: (checks, failures) = {got.get(suite)}, "
                f"expected ({checks}, 0)")
    _expect(aggregate == {"suites": 4, "checks": sum(LEMMA_CHECKS.values()),
                          "failures": 0},
            f"aggregate {aggregate}")
    return 0.0


@lru_cache(maxsize=None)
def fricke_traces(tr_a, tr_b, tr_ab, max_den):
    """Trace of every primitive class p/q with p, q <= max_den, keyed by
    (p, q), from the trace triple by the Farey-tree recursion
    tr(mediant of L, R) = tr(L) tr(R) - tr(the previous mediant)."""
    out = {(1, 0): tr_a, (0, 1): tr_b}
    stack = [((0, 1), tr_b, (1, 0), tr_a, tr_ab)]
    while stack:
        left, t_left, right, t_right, t_mid = stack.pop()
        mid = (left[0] + right[0], left[1] + right[1])
        if mid[0] > max_den or mid[1] > max_den:
            continue
        out[mid] = t_mid
        stack.append((left, t_left, mid, t_mid, t_left * t_mid - t_right))
        stack.append((mid, t_mid, right, t_right, t_mid * t_right - t_left))
    return out


def check_scan(text, max_den):
    """A scan-bowditch or scan-ps report over every class up to max_den:
    class count, no violations, and traces matching the Fricke oracle."""
    records, aggregate = parse_jsonl(text)
    classes = SCAN_CLASSES[max_den]
    _expect(aggregate.get("classes") == classes and len(records) == classes,
            f"{len(records)} records / aggregate classes "
            f"{aggregate.get('classes')}, expected {classes}")
    _expect(aggregate.get("violations") == 0,
            f"aggregate violations {aggregate.get('violations')}")
    oracle = fricke_traces(*MARKOFF_TRACES, max_den)
    _expect({(r.get("p"), r.get("q")) for r in records} == oracle.keys(),
            "records do not cover each class exactly once")
    worst = 0.0
    for r in records:
        _expect(not r.get("flags"), f"class {r['p']}/{r['q']} flagged "
                                    f"{r.get('flags')}")
        _expect(isinstance(r.get("tl"), float), f"class {r['p']}/{r['q']} "
                                                f"tl = {r.get('tl')!r}")
        tr = r.get("tr")
        _expect(isinstance(tr, list) and len(tr) == 2
                and all(isinstance(x, (int, float)) for x in tr),
                f"class {r['p']}/{r['q']} tr = {tr!r}")
        exact = oracle[r["p"], r["q"]]
        re, im = tr
        worst = max(worst, math.hypot(re - exact, im) / abs(exact))
    _expect(worst <= FRICKE_TOL,
            f"trace relative error {worst:.3g} exceeds {FRICKE_TOL:g}")
    return worst


def check_trials(text):
    """A detour or quadrilateral report: every trial ran and passed."""
    records, aggregate = parse_jsonl(text)
    _expect(aggregate.get("trials") == TRIALS and len(records) == TRIALS,
            f"{len(records)} records / aggregate trials "
            f"{aggregate.get('trials')}, expected {TRIALS}")
    _expect(aggregate.get("violations") == 0,
            f"aggregate violations {aggregate.get('violations')}")
    _expect(all(r.get("ok") is True for r in records), "a trial failed")
    return 0.0
