"""Acceptance gate: one test per release criterion, with the stated
tolerances and runtime budgets enforced.  Each test prints a single
summary line (visible with -s, or in the captured output on failure).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from primscan.blocks import (
    build_blocks,
    enumerate_primitive_classes,
    is_primitive,
    run_suite,
)
from primscan.certify import detour_verify, quadrilateral_check
from primscan.cli import main
from primscan.geometry import (
    BASEPOINT,
    HPoint,
    NotLoxodromic,
    Representation,
    apply,
    classify,
    distance,
    power_displacement,
    translation_length,
    unimodularize,
)
from primscan.scans import (
    bowditch_scan,
    excursion_profile,
    ps_scan,
)
from primscan.words import (
    cyclic_reduce,
    invert,
    rotations,
    substitute,
)

from references import enumerate_reduced, exact_fricke_traces


def markoff_rep():
    return Representation(
        "H2",
        np.array([[1, 1], [1, 2]], dtype=complex),
        np.array([[1, -1], [-1, 2]], dtype=complex))


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# 1. block-tower exactness for all slopes with numerator, denominator <= 200
# ---------------------------------------------------------------------------

def test_criterion_01_block_tower_exactness_to_200():
    t0 = time.perf_counter()
    suite = run_suite("recurrences", 200)
    elapsed = time.perf_counter() - t0
    classes = len(enumerate_primitive_classes(200))
    assert suite.failures == []
    assert suite.checks == 907_899
    assert classes > 24_000
    assert elapsed < 10.0
    report(f"[criterion 1] PASS: {classes} classes, {suite.checks} exact "
           f"recurrence/inequality checks, 0 failures, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. primitivity verdict vs the brute-force reference set, length <= 12
# ---------------------------------------------------------------------------

_RELABELINGS = [
    {"a": "a", "b": "b"},
    {"a": "A", "b": "b"},
    {"a": "a", "b": "B"},
    {"a": "A", "b": "B"},
]


def _reference_primitive_words(max_len):
    """Every cyclically reduced primitive word of length <= max_len,
    built only from tower words, sign relabelings, inverses, rotations."""
    base = [t.word for t in enumerate_primitive_classes(max_len)
            if len(t.word) <= max_len]
    out = set()
    for w in base:
        for sub in _RELABELINGS:
            v = substitute(w, sub)
            for u in (v, invert(v)):
                out.update(rotations(u))
    return out


def test_criterion_02_primitivity_matches_reference_set():
    t0 = time.perf_counter()
    max_len = 12
    reference = _reference_primitive_words(max_len)
    checked = disagreements = 0
    for w in enumerate_reduced(max_len):
        checked += 1
        if is_primitive(w) != (cyclic_reduce(w)[0] in reference):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert checked > 700_000
    assert elapsed < 120.0
    report(f"[criterion 2] PASS: {checked} reduced words vs "
           f"{len(reference)}-word reference set, 0 disagreements, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. combinatorial lemma suites exhaustive at class length <= 60
# ---------------------------------------------------------------------------

def test_criterion_03_lemma_suites_exhaustive_to_60():
    t0 = time.perf_counter()
    results = {suite: run_suite(suite, 60)
               for suite in ("magic-len", "perm-cycl", "bloc")}
    elapsed = time.perf_counter() - t0
    for suite, result in results.items():
        assert result.failures == [], suite
    assert {suite: r.checks for suite, r in results.items()} == {
        "magic-len": 138_502, "perm-cycl": 61_226, "bloc": 1_832_450}
    assert elapsed < 60.0
    total = sum(r.checks for r in results.values())
    report(f"[criterion 3] PASS: {total} checks across "
           f"{'/'.join(results)}, 100% pass, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Markoff fixture: commutator trace, minimum class trace, cap growth
# ---------------------------------------------------------------------------

def test_criterion_04_markoff_traces_and_cap_growth():
    rep = markoff_rep()
    scans = {cap: bowditch_scan(rep, cap) for cap in (5, 10, 15, 20)}
    agg20 = scans[20].aggregate

    assert agg20["commutator_trace"][0] == pytest.approx(-2.0, abs=1e-9)
    assert agg20["commutator_trace"][1] == pytest.approx(0.0, abs=1e-9)
    assert agg20["min_trace"] == pytest.approx(3.0, abs=1e-9)

    oracle = exact_fricke_traces((3.0, 3.0, 3.0), 20)
    assert min(abs(t) for t in oracle.values()) == pytest.approx(3.0, abs=1e-9)
    for record in scans[20].records:
        expected = oracle[(record["p"], record["q"])]
        assert complex(*record["tr"]) == pytest.approx(expected, rel=1e-9)
    # an oracle that shares no code with the scan's Farey walk: the trace
    # of the exact integer product of the Markoff letters along the
    # `build_blocks` word
    letters = {"a": ((1, 1), (1, 2)), "b": ((1, -1), (-1, 2))}
    for record in scans[20].records:
        m = ((1, 0), (0, 1))
        for x in build_blocks(record["p"], record["q"]).word:
            (a, b), (c, d) = m
            (e, f), (g, h) = letters[x]
            m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        exact = m[0][0] + m[1][1]
        assert record["tr"][1] == 0.0
        assert abs(record["tr"][0] - exact) <= 1e-12 * abs(exact), record

    ratios = [scans[cap].aggregate["min_ratio"] for cap in (5, 10, 15, 20)]
    assert all(r > 0 for r in ratios)
    for prev, cur in zip(ratios, ratios[1:]):
        assert cur >= prev - 1e-3
    report(f"[criterion 4] PASS: commutator -2, min |trace| 3 vs Fricke "
           f"oracle over 257 classes, min ratio {ratios[0]:.6f} -> "
           f"{ratios[-1]:.6f} across caps 5..20")


# ---------------------------------------------------------------------------
# 5. violation detection: elliptic generator flagged, exit code 1
# ---------------------------------------------------------------------------

def test_criterion_05_elliptic_generator_flagged(tmp_path, capsys):
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps({
        "model": "H2",
        "A": [[1, 0], [1, 0], [1, 0], [2, 0]],
        "B": [[0, 0], [1, 0], [-1, 0], [0, 0]],
    }))
    code = main(["scan-bowditch", "--rep", str(path), "--max-den", "4"])
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    flagged = {(r["p"], r["q"]): r for r in rows[:-1] if r.get("flags")}
    assert code == 1
    assert flagged[(0, 1)]["flags"] == ["elliptic"]
    assert flagged[(0, 1)]["ratio"] == 0.0
    report("[criterion 5] PASS: tr(B)=0 flagged elliptic at slope 0/1 "
           "with ratio 0, exit code 1")


# ---------------------------------------------------------------------------
# 6. Monte-Carlo detour and quadrilateral checks, 10^3 trials each
# ---------------------------------------------------------------------------

def test_criterion_06_monte_carlo_inequalities():
    t0 = time.perf_counter()
    detour = detour_verify(1000, delta=1.0, seed=2026)
    quad = quadrilateral_check(1000, delta=1.0, seed=2026)
    elapsed = time.perf_counter() - t0
    assert detour.trials == 1000 and detour.passed
    assert quad.trials == 1000 and quad.passed
    assert elapsed < 30.0
    report(f"[criterion 6] PASS: detour {detour.aggregate()['branches']} "
           f"and quadrilateral {quad.aggregate()['branches']} — 0 "
           f"violations in 2x1000 trials, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. hyperbolic numerics: invariances and stable-length convergence
# ---------------------------------------------------------------------------

def _random_isometry(rng, model):
    while True:
        entries = rng.normal(size=(2, 2))
        if model == "H3":
            entries = entries + 1j * rng.normal(size=(2, 2))
        m = np.asarray(entries, dtype=complex)
        if abs(np.linalg.det(m)) > 0.1:
            return np.reshape(unimodularize(m), (2, 2))


def _random_point(rng, model):
    z = rng.normal() + (1j * rng.normal() if model == "H3" else 0.0)
    return HPoint(z, math.exp(rng.normal()))


def test_criterion_07_hyperbolic_numerics():
    rng = np.random.default_rng(77)
    for model in ("H2", "H3"):
        for _ in range(200):
            m = _random_isometry(rng, model)
            p, q = _random_point(rng, model), _random_point(rng, model)
            d = distance(p, q)
            assert distance(apply(m, p), apply(m, q)) == pytest.approx(
                d, rel=1e-9, abs=1e-9)
            g = _random_isometry(rng, model)
            tl = translation_length(m)
            assert translation_length(g @ m @ np.linalg.inv(g)) == (
                pytest.approx(tl, rel=1e-9, abs=1e-9))
            assert tl <= distance(apply(m, p), p) + 1e-9

    A = np.array([[1, 1], [1, 2]], dtype=complex)
    stable = 2.0 * math.log((3.0 + math.sqrt(5.0)) / 2.0)
    n = 10_000
    errs = []
    for o in (BASEPOINT, HPoint(1.0, 2.0)):
        err = abs(power_displacement(A, n, o) / n - stable)
        assert err <= 5.0 / n
        errs.append(err)
    report(f"[criterion 7] PASS: isometry/conjugacy invariance and "
           f"l_S <= displacement over 800 samples; |d(A^n o,o)/n - "
           f"2 ln lambda| = {max(errs):.2e} <= {5.0 / n:.0e} at n=10^4")


# ---------------------------------------------------------------------------
# 8. excursion machinery on 50 seeded (rep, slope) pairs
# ---------------------------------------------------------------------------

def _seeded_small_rep(rng):
    """A representation by two loxodromics with small translation
    lengths and crossing axes, so that two periods of any class word of
    length <= 8 stay numerically well-conditioned."""
    s, r = rng.uniform(0.05, 0.35, size=2)
    theta = rng.uniform(0.3, math.pi - 0.3)
    x = rng.uniform(-0.5, 0.5)
    K = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    G = np.array([[1.0, x], [0.0, 1.0]]) @ K
    A = np.diag([math.exp(s), math.exp(-s)]).astype(complex)
    B = (G @ np.diag([math.exp(r), math.exp(-r)]) @
         np.linalg.inv(G)).astype(complex)
    return Representation("H2", A, B)


def test_criterion_08_excursion_on_seeded_pairs():
    slopes = [tower for tower in enumerate_primitive_classes(5)
              if 3 <= len(tower.word) <= 8]
    rng = np.random.default_rng(8)
    pairs = retrievals = 0
    worst_periodicity = worst_lipschitz = -math.inf
    while pairs < 50:
        rep = _seeded_small_rep(rng)
        tower = slopes[pairs % len(slopes)]
        try:
            prof = excursion_profile(rep, tower.word, step=0.25)
        except NotLoxodromic:
            continue
        worst_periodicity = max(worst_periodicity,
                                prof.periodicity_defect())
        worst_lipschitz = max(worst_lipschitz, prof.lipschitz_defect())
        assert prof.periodicity_defect() <= 1e-6
        assert prof.lipschitz_defect() <= 1e-6 * prof.step
        for a in (0.5, 1.0, 2.0):
            try:
                _, _, _, length = prof.sub_excursion_in(a)
            except ValueError:
                continue
            assert a - prof.step - 1e-9 <= length <= 2 * a + prof.step + 1e-9
            retrievals += 1
        pairs += 1
    assert retrievals >= 50
    report(f"[criterion 8] PASS: 50 pairs — periodicity defect <= "
           f"{worst_periodicity:.1e}, Lipschitz slack within C'+1e-6, "
           f"{retrievals} in-window [a,2a] retrievals (+- one grid step)")


# ---------------------------------------------------------------------------
# 9. desk-scale correlation report: Markoff -> degenerate trace family
# ---------------------------------------------------------------------------

def test_criterion_09_degeneration_correlation_report(tmp_path):
    rows = []
    for eta in np.linspace(1.0, 0.1, 10):
        z = 2.0 + float(eta)
        xi = (z + math.sqrt(z * z - 4.0)) / 2.0
        rep = Representation(
            "H2",
            np.array([[3.0, -1.0], [1.0, 0.0]], dtype=complex),
            np.array([[0.0, xi], [-1.0 / xi, 3.0]], dtype=complex))
        bow = bowditch_scan(rep, 20).aggregate
        ps = ps_scan(rep, 20).aggregate
        rows.append({
            "eta": round(float(eta), 6),
            "tr_ab": z,
            "bowditch_min_ratio": bow["min_ratio"],
            "ps_max_tube": ps["max_tube"],
            "bowditch_violations": bow["violations"],
            "ps_violations": ps["violations"],
        })

    out = tmp_path / "degeneration.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    ratios = [r["bowditch_min_ratio"] for r in rows]
    tubes = [r["ps_max_tube"] for r in rows]
    assert all(math.isfinite(v) for v in ratios + tubes)
    ratio_down = all(b < a for a, b in zip(ratios, ratios[1:]))
    tube_up = all(b > a for a, b in zip(tubes, tubes[1:]))
    assert ratio_down and tube_up
    lines = "\n".join(
        f"  eta={r['eta']:<8} min_ratio={r['bowditch_min_ratio']:.6f} "
        f"max_tube={r['ps_max_tube']:.6f}" for r in rows)
    report(f"[criterion 9] REPORT (CSV at {out}):\n{lines}\n"
           f"  min ratio falls {ratios[0]:.3f}->{ratios[-1]:.3f} while "
           f"tube radius rises {tubes[0]:.3f}->{tubes[-1]:.3f}: monotone, "
           f"opposite directions.  The asymptotic equivalence itself is "
           f"not reproducible at desk scale.")
