"""Tests for the representation scanners.

Oracle values are frozen from independent computations: diagonal orbits
in closed form, the trace recursion over the Farey tree, translation
lengths from arccosh of half-traces, and parabolic displacements
2 asinh(k/2) for [[1,k],[0,1]].
"""

import functools
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from primscan.blocks import build_blocks, enumerate_primitive_classes
from primscan.geometry import (
    HPoint,
    NotLoxodromic,
    Representation,
    Segment,
    apply,
    axis_of,
    dist_to_geodesic,
    distance,
    parse_rep_file,
    translation_length,
    _entries,
    _mul,
    _pow,
)
from primscan import scans
from primscan.scans import (
    PreconditionError,
    _displacements,
    _letter_images,
    _offset_grid,
    _offset_minima,
    _rotation_images,
    bowditch_scan,
    class_matrix,
    excursion_profile,
    find_quasi_loops,
    fricke_traces,
    local_global_scan,
    perturbation_scan,
    ps_scan,
)
from primscan.words import rotate

MARKOFF_A = [[1, 1], [1, 2]]
MARKOFF_B = [[1, -1], [-1, 2]]
# tl of a trace-3 element: 2 arccosh(3/2).
TRACE3_LENGTH = 2.0 * math.acosh(1.5)


def markoff():
    return Representation("H2", MARKOFF_A, MARKOFF_B, basepoint=HPoint(0, 1))


def criterion_9_rep(eta):
    """The degenerating family of acceptance criterion 9, tr AB = 2 + eta."""
    z = 2.0 + eta
    xi = (z + math.sqrt(z * z - 4.0)) / 2.0
    return Representation("H2", [[3.0, -1.0], [1.0, 0.0]],
                          [[0.0, xi], [-1.0 / xi, 3.0]])


def diagonal_rep():
    return Representation("H2", [[2, 0], [0, 0.5]], [[2, -4.5], [0, 0.5]],
                          basepoint=HPoint(0, 1))


# ------------------------------------------------------------ class_matrix

def test_class_matrix_matches_letterwise_product():
    rep = markoff()
    for slope, tower in enumerate_primitive_classes(6):
        got = class_matrix(rep, tower)
        want = rep.word_image(tower.word)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10), slope


def test_deepest_class_at_cap_600_has_finite_length():
    # |w| = 1199 and tr ~ 5e250: tr^2 overflows, so the translation
    # length must come from ln|tr| directly
    tower = build_blocks(599, 600)
    m = class_matrix(markoff(), tower)
    tr = complex(np.trace(m))
    want = fricke_traces(3.0, 3.0, 3.0, 600)[(599, 600)]
    assert len(tower.word) == 1199 and want > 1e250
    assert tr.real == pytest.approx(want, rel=1e-12)
    assert translation_length(m) == pytest.approx(2 * math.log(want),
                                                  rel=1e-12)


def random_h3_rep(seed):
    rng = np.random.default_rng(seed)

    def unimodular():
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return M / np.sqrt(np.linalg.det(M))

    return Representation("H3", unimodular(), unimodular())


@pytest.mark.parametrize("rep", [markoff(), random_h3_rep(3)],
                         ids=["markoff", "random-h3"])
def test_class_matrix_matches_numpy_reduce(rep):
    # the tower recursion on the scalar kernel against a plain numpy
    # product of the letter images, for every class up to cap 30
    for slope, tower in enumerate_primitive_classes(30):
        got = class_matrix(rep, tower)
        want = functools.reduce(np.matmul,
                                [rep.gen_image(x) for x in tower.word])
        assert got.shape == (2, 2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), slope


def test_class_matrix_deep_class_stays_unimodular_in_effect():
    # (20, 19) has entries ~ 1e8; the trace must still match the exact
    # integer value predicted by the trace recursion.
    rep = markoff()
    oracle = fricke_traces(3.0, 3.0, 3.0, 20)
    for slope, tower in enumerate_primitive_classes(20):
        if (slope.p, slope.q) == (20, 19):
            tr = complex(np.trace(class_matrix(rep, tower)))
            want = oracle[(20, 19)]
            assert tr.imag == pytest.approx(0.0, abs=1e-6)
            assert tr.real == pytest.approx(want, rel=1e-12)
            break
    else:
        pytest.fail("class (20, 19) not enumerated")


# ------------------------------------------------- vectorized displacements

def reference_class_matrix(rep, tower):
    """The per-class recursion that `class_matrix` ran before level products
    were shared across classes, as a kernel 4-tuple."""
    w = rep._product(tower.w[0])
    wp = rep._product(tower.wp[0])
    for n in tower.cf:
        w_next = _mul(_pow(w, n - 1), wp)
        wp = _mul(w, w_next)
        w = w_next
    return w


def _bits(X):
    return [(z.real.hex(), z.imag.hex()) for z in X]


ROOT = Path(__file__).resolve().parents[1]


def benchmark_rep(seed, tmp_path):
    """The representation file that the benchmark's scan workloads read at
    `seed`, loaded the way the CLI loads it."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path / f"seed{seed}.json"
    path.write_text(json.dumps(inputs.seeded_rep(seed)))
    return parse_rep_file(str(path))


@pytest.mark.parametrize("which", ["fixture", "seed-3"])
def test_level_table_matches_per_class_recursion(tmp_path, which):
    rep = (parse_rep_file(str(ROOT / "tests" / "data" / "markoff.json"))
           if which == "fixture" else benchmark_rep(3, tmp_path))
    classes = enumerate_primitive_classes(200)
    levels = {}
    for slope, tower in classes:
        want = _bits(reference_class_matrix(rep, tower))
        assert _bits(scans._class_image(rep, tower, levels)) == want, slope
        if slope.q % 50 == 1:
            assert _bits(_entries(class_matrix(rep, tower))) == want
    # one table entry per distinct lower level (base words and entries
    # prefix), shared between classes
    assert len(levels) < len(classes) / 2


def reference_pair_distances(rep, letters, kmax):
    """The per-offset loop that `_offset_grid` replaces: entry k-1 is the
    array d(v_m, v_{m+k}) for every start m = 0..n-k, each offset in its
    own `_displacements` call."""
    n = len(letters)
    kmax = min(kmax, n)
    mats = _letter_images(rep, letters)
    W = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    out = []
    for k in range(1, kmax + 1):
        W = W[: n - k + 1] @ mats[k - 1:]
        out.append(_displacements(W, rep.basepoint))
    return out


def grid_by_offset(rep, letters, kmax, starts):
    """`_offset_grid` split back into one array per offset."""
    out = []
    for _, bounds, disps in _offset_grid(rep, letters, kmax, starts):
        out += np.split(disps, bounds[1:])
    return out


def test_vectorized_displacements_match_scalar_action():
    rep = Representation("H2", MARKOFF_A, MARKOFF_B, basepoint=HPoint(0.3, 1.7))
    words = ["a", "ab", "abAB", "aabAbb", "BAba"]
    W = np.stack([rep.word_image(w) for w in words])
    fast = _displacements(W, rep.basepoint)
    slow = [distance(apply(M, rep.basepoint), rep.basepoint) for M in W]
    assert np.abs(fast - np.array(slow)).max() < 1e-12


def test_vectorized_displacements_match_scalar_action_h3():
    rep = Representation("H3", [[2, 0], [0, 0.5]], [[1, 1j], [0, 1]],
                         basepoint=HPoint(0.1 + 0.2j, 1.0))
    words = ["a", "ab", "abAB", "aabAbb"]
    W = np.stack([rep.word_image(w) for w in words])
    fast = _displacements(W, rep.basepoint)
    slow = [distance(apply(M, rep.basepoint), rep.basepoint) for M in W]
    assert np.abs(fast - np.array(slow)).max() < 1e-12


@pytest.mark.parametrize("rep", [
    markoff(), criterion_9_rep(1.0), criterion_9_rep(0.1)],
    ids=["markoff", "eta=1.0", "eta=0.1"])
def test_offset_minima_match_reference_loop(rep):
    # the shape local_global_scan passes, (word, n, n): every offset up to
    # the word length from every start, bit for bit as the reference loop
    for _, tower in enumerate_primitive_classes(20):
        gamma = tower.word
        n = len(gamma)
        want = [float(d.min()) for d in reference_pair_distances(rep, gamma, n)]
        assert _offset_minima(rep, gamma, n, n) == want, gamma


@pytest.mark.parametrize("word, starts", [("abaab" * 3, 5), ("abaab" * 3, 15),
                                          ("aabAb" * 4, 20)])
def test_offset_grid_batches_match_reference_loop(monkeypatch, word, starts):
    # batches of a few rows split the grid inside and between offsets
    want = [d[:starts] for d in reference_pair_distances(markoff(), word,
                                                         len(word))]
    for rows in (7, 60, scans._GRID_ROWS):
        monkeypatch.setattr(scans, "_GRID_ROWS", rows)
        got = grid_by_offset(markoff(), word, len(word), starts)
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want), 1):
            assert np.array_equal(g, w), (rows, k)


def test_quasi_loops_do_not_depend_on_batching(monkeypatch):
    rep = Representation("H2", [[1, 1], [0, 1]], [[1, 0], [1, 1]])
    want = find_quasi_loops(rep, "a" * 12, 0.6, min_len=8).loops
    monkeypatch.setattr(scans, "_GRID_ROWS", 5)
    got = find_quasi_loops(rep, "a" * 12, 0.6, min_len=8).loops
    assert {len(l.word) for l in want} == set(range(8, 13))
    assert [(l.word, l.position, l.displacement) for l in got] == \
        [(l.word, l.position, l.displacement) for l in want]


def test_displacements_keep_small_distances():
    # acosh(1 + x) rounded these to 0
    o = HPoint(0, 1)
    for shift in (1e-9, 1e-12, 1e-5):
        M = np.array([[1, shift], [0, 1]], dtype=complex)
        got = _displacements(M[None], o)[0]
        assert got == pytest.approx(distance(apply(M, o), o), rel=1e-12)
        assert got == pytest.approx(shift, rel=1e-6)


def test_quasi_loops_report_small_displacements():
    rep = Representation("H2", [[1, 1e-9], [0, 1]], [[2, 1], [1, 1]])
    loops = find_quasi_loops(rep, "ab", eps=0.01).loops
    assert [l.word for l in loops] == ["a"]
    assert loops[0].displacement == pytest.approx(1e-9, rel=1e-6)


def test_pair_distances_are_reanchored_subword_displacements():
    rep = Representation("H2", MARKOFF_A, MARKOFF_B, basepoint=HPoint(0.3, 1.7))
    letters = "abaab" * 3
    dists = grid_by_offset(rep, letters, 6, len(letters))
    for k in range(1, 7):
        for m in range(len(letters) - k + 1):
            sub = letters[m:m + k]
            want = rep.displacement(sub)
            assert dists[k - 1][m] == pytest.approx(want, abs=1e-10), (m, k)


@pytest.mark.parametrize("slope, want", [((55, 34), 98.99096780),
                                         ((199, 200), 385.05451883)],
                         ids=["55/34", "199/200"])
def test_displacement_of_deep_class_matches_reanchored_distance(slope, want):
    # 89- and 399-letter class words: the scalar product and action agree
    # with the batch path, which takes the determinant as 1
    rep = markoff()
    w = build_blocks(*slope).word
    batch = grid_by_offset(rep, w, len(w), len(w))[-1][0]
    assert rep.displacement(w) == pytest.approx(batch, rel=1e-9)
    assert batch == pytest.approx(want, rel=1e-9)


def test_pair_distances_survive_huge_coordinates():
    # 200 letters of a triangular pair push |z| past 1e240; the distances
    # must come back finite and close to the letter-count scale.
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]],
                         basepoint=HPoint(0, 1))
    word = ("b" + "a" * 4) * 40
    dists = grid_by_offset(rep, word, len(word), len(word))
    top = dists[-1][0]
    assert math.isfinite(top)
    assert top == pytest.approx(len(word) * math.log(4.0) * 2.0, rel=0.3)


# ------------------------------------------------------- excursion profile

def test_excursion_zero_on_axis_power():
    prof = excursion_profile(diagonal_rep(), "a", step=0.5)
    assert prof.max_excursion < 1e-9
    assert prof.min_excursion >= 0.0


def test_excursion_matches_direct_distance_at_vertices():
    # the per-rotation frames against the deep orbit: vertex j is
    # rho(gamma[:j]) o, and the edge midpoints lie on the deep segments
    rep = markoff()
    gamma = "abaab"
    prof = excursion_profile(rep, gamma, step=0.25)
    line = axis_of(rep.word_image(gamma), basepoint=rep.basepoint)
    vertices = [apply(rep.word_image((gamma * 2)[:j]), rep.basepoint)
                for j in range(7)]
    for j in range(6):
        want = dist_to_geodesic(vertices[j], line)
        assert prof.value(float(j)) == pytest.approx(want, abs=1e-12)
        mid = Segment(vertices[j], vertices[j + 1]).interpolate(0.5)
        assert prof.value(j + 0.5) == pytest.approx(
            dist_to_geodesic(mid, line), abs=1e-12)


def test_excursion_periodicity_and_lipschitz():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    assert prof.periodicity_defect() < 1e-9
    assert prof.lipschitz_defect() <= 1e-9


def test_excursion_seam_with_cancelling_fixed_point():
    # the axis of rotation 0 needs the repelling point -0.5 of
    # A A B = [[2e8, 1e8], [1e-8, 1e-8]], which the quadratic formula
    # cancels to 0; a wrong axis breaks the seams between the frames
    rep = Representation("H2", [[1e4, 0], [0, 1e-4]], [[2, 1], [1, 1]])
    prof = excursion_profile(rep, "aab", step=0.25)
    assert prof.periodicity_defect() <= 1e-12


def test_rotation_images_match_fresh_products():
    # prefix/suffix products against a fresh product of each rotated word
    rep = markoff()
    words = [t.word for _, t in enumerate_primitive_classes(20)]
    words.append(build_blocks(199, 200).word)
    for gamma in words:
        images = _rotation_images(rep, gamma)
        assert len(images) == len(gamma)
        for j, X in enumerate(images):
            want = rep.word_image(rotate(gamma, j))
            err = np.abs(np.array(X).reshape(2, 2) - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (gamma, j)


# rounding allowance between the tube, measured at o, and the profile
# samples, measured at o rebuilt by Segment.interpolate: a few ulps of
# values below 5
TUBE_SLACK = 1e-12


def test_ps_scan_tube_is_the_excursion_maximum():
    # distance to the axis is convex along each geodesic leaf edge, so no
    # sample of a 1/16-step profile lies farther than the farthest vertex;
    # the vertices are samples too, so the two maxima agree up to rounding
    # (either side may be the larger by a few ulps)
    towers = {(s.p, s.q): t for s, t in enumerate_primitive_classes(8)}
    for rep in (markoff(), criterion_9_rep(0.1), random_h3_rep(3)):
        records = ps_scan(rep, 8).records
        assert len(records) == len(towers)
        for r in records:
            word = towers[r["p"], r["q"]].word
            top = excursion_profile(rep, word, step=1 / 16).max_excursion
            assert abs(r["tube"] - top) <= TUBE_SLACK, word


def test_excursion_grid_covers_period_exactly():
    prof = excursion_profile(markoff(), "aab", step=0.4)
    # effective step divides the period evenly
    n = round(prof.period / prof.step)
    assert n * prof.step == pytest.approx(prof.period, abs=1e-12)
    assert prof.step <= 0.4 + 1e-12
    assert prof.us[0] == 0.0
    assert prof.us[-1] == pytest.approx(prof.period, abs=1e-12)
    assert len(prof.values) == n + 1


def _brute_circular_runs(vals, K, step, period):
    """(start_index, inner_length) of maximal circular runs with
    vals >= K, by direct scanning of the doubled mask."""
    n = len(vals)
    mask = [v >= K for v in vals]
    if all(mask):
        return [(0, period)]
    if not any(mask):
        return []
    runs = []
    for i in range(n):
        if mask[i] and not mask[(i - 1) % n]:
            j = i
            while mask[(j + 1) % n]:
                j += 1
            runs.append((i, (j - i) * step))
    return runs


def test_sub_excursion_against_brute_force():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    grid = prof.values[:-1]
    for K in sorted(set(np.round(grid, 6))):
        if K > prof.max_excursion:
            continue
        u0, u1, length = prof.sub_excursion(float(K))
        oracle = _brute_circular_runs(grid.tolist(), float(K), prof.step,
                                      prof.period)
        assert length == pytest.approx(max(l for _, l in oracle), abs=1e-12)
        assert u1 - u0 == pytest.approx(length, abs=1e-12)
        # the reported start parameter really sits at level >= K
        assert prof.value(u0 % prof.period) >= K - 1e-9


def test_sub_excursion_full_circle_has_period_length():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    u0, u1, length = prof.sub_excursion(prof.min_excursion)
    assert length == pytest.approx(prof.period, abs=1e-12)


def test_sub_excursion_above_max_raises():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    with pytest.raises(ValueError):
        prof.sub_excursion(prof.max_excursion + 0.1)


def test_sub_excursion_in_window():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    for a in (0.25, 0.5, 1.0, 2.0):
        K, u0, u1, length = prof.sub_excursion_in(a)
        assert a - prof.step - 1e-9 <= length <= 2 * a + prof.step + 1e-9
        assert K <= prof.max_excursion + 1e-12
        assert u1 - u0 == pytest.approx(length, abs=1e-12)
    with pytest.raises(ValueError):
        prof.sub_excursion_in(100.0)


def test_excursion_rejects_bad_words():
    rep = markoff()
    # empty, not reduced, not cyclically reduced
    for gamma in ("", "aA", "abA"):
        with pytest.raises(ValueError, match="cyclically reduced"):
            excursion_profile(rep, gamma)


def test_excursion_rejects_bad_inputs():
    rep = markoff()
    with pytest.raises(ValueError):
        excursion_profile(rep, "abaab", step=0.0)
    with pytest.raises(ValueError):
        excursion_profile(rep, "abaab", step=1.5)
    elliptic = Representation("H2", MARKOFF_A, [[0, 1], [-1, 0]])
    with pytest.raises(NotLoxodromic):
        excursion_profile(elliptic, "b")


# ------------------------------------------------------------- quasi-loops

def test_quasi_loops_identity_rep_finds_everything():
    rep = Representation("H2", [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    report = find_quasi_loops(rep, "aab", 0.5)
    assert len(report.loops) == 9  # 3 positions x 3 lengths
    assert report.coverage == 1.0
    assert len(report.packed) == 1
    assert len(report.packed[0].word) == 3


def test_quasi_loops_strongly_loxodromic_rep_finds_none():
    report = find_quasi_loops(markoff(), "abaab", 0.01)
    assert report.loops == []
    assert report.coverage == 0.0
    assert report.contradiction is None


def test_quasi_loops_parabolic_powers_and_contradiction():
    rep = Representation("H2", [[1, 1], [0, 1]], [[1, 0], [1, 1]],
                         basepoint=HPoint(0, 1))
    gamma = "a" * 16
    report = find_quasi_loops(rep, gamma, 0.5, C=1.5)
    # displacement of a^k is 2 asinh(k/2); it drops below k/2 at k = 9
    lengths = sorted({len(l.word) for l in report.loops})
    assert lengths == list(range(9, 17))
    assert len(report.loops) == 16 * 8
    assert report.coverage == 1.0
    assert report.contradiction is not None
    assert report.contradiction["confirmed"] is True
    assert report.contradiction["displacement"] == pytest.approx(
        2.0 * math.asinh(8.0), rel=1e-12)
    assert report.contradiction["bound"] == pytest.approx(16 / 1.5, rel=1e-12)


def test_quasi_loop_inequality_recomputed():
    rep = markoff()
    report = find_quasi_loops(rep, "abAB", 0.9)
    for loop in report.loops:
        disp = rep.displacement(loop.word)
        assert disp <= 0.9 * len(loop.word) + 1e-9
        assert disp == pytest.approx(loop.displacement, abs=1e-9)


def test_quasi_loops_packing_is_disjoint():
    rep = Representation("H2", [[1, 1], [0, 1]], [[1, 0], [1, 1]])
    report = find_quasi_loops(rep, "a" * 12, 0.6)
    n = 12
    covered = set()
    for loop in report.packed:
        cells = {(loop.position + i) % n for i in range(len(loop.word))}
        assert not cells & covered
        covered |= cells
    assert report.coverage == pytest.approx(len(covered) / n)


def test_quasi_loops_validation():
    rep = markoff()
    with pytest.raises(ValueError):
        find_quasi_loops(rep, "ab", 0.0)
    with pytest.raises(ValueError):
        find_quasi_loops(rep, "", 0.5)
    with pytest.raises(ValueError):
        find_quasi_loops(rep, "ab", 0.5, min_len=0)
    with pytest.raises(ValueError):
        find_quasi_loops(rep, "ab" * 5001, 0.5)


def trace_1001_rep():
    # rho(a^k) has entries near 1001^k: the displacement formula's squares
    # leave the float range from k = 52 on, the product itself past k = 102
    return Representation("H2", [[1000, 1], [999, 1]], MARKOFF_B)


def test_quasi_loops_refuse_displacements_past_the_float_range():
    with pytest.raises(ValueError, match="52-letter subword .* float range"):
        find_quasi_loops(trace_1001_rep(), "a" * 200, 1.0)
    assert find_quasi_loops(trace_1001_rep(), "a" * 51, 1.0).loops == []


# ----------------------------------------------------------- trace oracle

def test_fricke_traces_markoff_values():
    out = fricke_traces(3.0, 3.0, 3.0, 5)
    assert out[(1, 0)] == 3.0
    assert out[(0, 1)] == 3.0
    assert out[(1, 1)] == 3.0
    assert out[(1, 2)] == 6.0
    assert out[(2, 1)] == 6.0
    assert out[(1, 3)] == 15.0
    assert out[(3, 2)] == 15.0
    assert out[(5, 3)] == 87.0


def test_fricke_traces_cover_all_classes():
    for cap in (4, 7, 12):
        classes = enumerate_primitive_classes(cap)
        oracle = fricke_traces(3.0, 3.0, 3.0, cap)
        assert set(oracle) == {(s.p, s.q) for s, _ in classes}


# ----------------------------------------------------------- bowditch scan

def test_bowditch_markoff_aggregate():
    scan = bowditch_scan(markoff(), 20)
    agg = scan.aggregate
    assert agg["classes"] == 257
    assert agg["violations"] == 0
    assert scan.passed
    assert agg["commutator_trace"][0] == pytest.approx(-2.0, abs=1e-9)
    assert agg["commutator_trace"][1] == pytest.approx(0.0, abs=1e-9)
    assert agg["min_ratio"] == pytest.approx(math.acosh(1.5), rel=1e-12)
    assert agg["fitted_C"] == pytest.approx(1.0 / math.acosh(1.5), rel=1e-12)
    assert agg["fitted_D"] == 0.0
    assert agg["small_trace_count"] == 0


def test_bowditch_markoff_generator_traces():
    scan = bowditch_scan(markoff(), 5)
    by_slope = {(r["p"], r["q"]): r for r in scan.records}
    for key in ((1, 0), (0, 1), (1, 1)):
        assert by_slope[key]["tr"][0] == pytest.approx(3.0, abs=1e-12)
        assert by_slope[key]["tr"][1] == pytest.approx(0.0, abs=1e-12)


def test_bowditch_ratio_times_length_is_translation_length():
    scan = bowditch_scan(markoff(), 12)
    for r in scan.records:
        assert r["ratio"] * r["len"] == pytest.approx(r["tl"], abs=1e-9)


def test_bowditch_matches_fricke_oracle():
    scan = bowditch_scan(markoff(), 20)
    oracle = fricke_traces(3.0, 3.0, 3.0, 20)
    for r in scan.records:
        want = oracle[(r["p"], r["q"])]
        assert r["tr"][0] == pytest.approx(want, rel=1e-9), (r["p"], r["q"])
        assert abs(r["tr"][1]) <= 1e-9 * max(1.0, abs(want))


def test_bowditch_flags_elliptic_generator():
    rep = Representation("H2", MARKOFF_A, [[0, 1], [-1, 0]])
    scan = bowditch_scan(rep, 5)
    by_slope = {(r["p"], r["q"]): r for r in scan.records}
    assert by_slope[(0, 1)]["flags"] == ["elliptic"]
    assert by_slope[(0, 1)]["ratio"] == 0.0
    assert not scan.passed
    assert scan.aggregate["violations"] >= 1
    assert scan.aggregate["min_ratio"] == 0.0
    assert scan.aggregate["fitted_C"] is None


@pytest.mark.parametrize("h, flagged", [(4e-4, True), (6e-4, False)])
def test_bowditch_low_ratio_threshold(h, flagged):
    # the class 1/0 is the word "a", whose ratio is tl = 2h per letter:
    # flagged below 1e-3 only
    A = [[math.exp(h), 0], [0, math.exp(-h)]]
    records = bowditch_scan(Representation("H2", A, [[2, 1], [1, 1]]),
                            1).records
    a = next(r for r in records if (r["p"], r["q"]) == (1, 0))
    assert a["ratio"] == pytest.approx(2 * h, rel=1e-6)
    assert a["flags"] == (["low-ratio"] if flagged else [])


def test_bowditch_deterministic():
    a = bowditch_scan(markoff(), 8)
    b = bowditch_scan(markoff(), 8)
    assert a.records == b.records
    assert a.aggregate == b.aggregate


def test_bowditch_h3_runs_clean():
    rep = Representation("H3", [[2, 1j], [0, 0.5]], MARKOFF_B)
    scan = bowditch_scan(rep, 4)
    assert scan.aggregate["classes"] == 13
    assert any(abs(r["tr"][1]) > 1e-9 for r in scan.records)


# ----------------------------------------------------------------- ps scan

def test_ps_scan_markoff_clean():
    scan = ps_scan(markoff(), 8)
    agg = scan.aggregate
    assert agg["classes"] == 45
    assert agg["violations"] == 0
    assert agg["min_rate"] > 0.9
    assert 0.5 < agg["max_tube"] < 1.1
    assert 0.0 < agg["max_osc"] < 2.0
    assert agg["max_period_error"] < 1e-12
    assert list(agg) == ["classes", "min_rate", "max_osc",
                         "max_period_error", "max_tube", "violations"]
    for r in scan.records:
        assert list(r) == ["p", "q", "len", "tr", "tl", "rate", "osc",
                           "period_error", "tube", "flags"]
        assert r["rate"] > 0.0 and r["osc"] >= 0.0
        assert r["flags"] == []


# rounding allowance of the projection bound: rate * k - osc sums unit-scale
# foot increments over one period, and d comes from products of at most 69
# letters; each is a few ulps of values below 100, about 1e-14
PROJECTION_SLACK = 1e-12


@pytest.mark.parametrize("rep", [
    markoff(), criterion_9_rep(0.1), criterion_9_rep(0.01),
    random_h3_rep(0), random_h3_rep(3), random_h3_rep(7)],
    ids=["markoff", "eta=0.1", "eta=0.01", "h3-0", "h3-3", "h3-7"])
def test_ps_scan_projection_bound_holds_for_every_pair(rep):
    # projection onto the axis is 1-Lipschitz, so d(v_i, v_j) >=
    # rate * (j - i) - osc for every pair of vertices, checked over three
    # periods against fresh subword products
    towers = {(s.p, s.q): t for s, t in enumerate_primitive_classes(12)}
    scan = ps_scan(rep, 12)
    for r in scan.records:
        gamma = towers[r["p"], r["q"]].word
        n = len(gamma)
        for k, d in enumerate(grid_by_offset(rep, gamma * 3, 3 * n, 3 * n),
                              1):
            assert (r["rate"] * k - r["osc"] <= d + PROJECTION_SLACK).all(), \
                (gamma, k)
    # the rate is bowditch_scan's ratio, bit for bit
    min_ratio = bowditch_scan(rep, 12).aggregate["min_ratio"]
    assert min(r["rate"] for r in scan.records) == min_ratio
    assert scan.aggregate["min_rate"] == min_ratio


def test_ps_scan_flags_low_ratio_as_bowditch_scan_does():
    # class 7/12 of this representation translates 0.0036 over 19 letters
    rep = random_h3_rep(4)

    def flagged(scan):
        return {(r["p"], r["q"]): r["flags"] for r in scan.violations}

    assert (flagged(ps_scan(rep, 12)) == flagged(bowditch_scan(rep, 12))
            == {(7, 12): ["low-ratio"]})


def test_ps_scan_flags_period_error(monkeypatch):
    # no known input breaks the frames, so a stand-in tolerance drives it
    monkeypatch.setattr(scans, "_PERIOD_TOL", -1.0)
    scan = ps_scan(markoff(), 4)
    assert all(r["flags"] == ["period-error"] for r in scan.records)


def test_ps_scan_identity_rep_all_violations():
    rep = Representation("H2", [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    scan = ps_scan(rep, 4)
    assert scan.aggregate["classes"] == 13
    assert scan.aggregate["violations"] == 13
    assert scan.aggregate["min_rate"] == 0.0
    for r in scan.records:
        assert r["flags"] == ["not-loxodromic"]
        assert r["osc"] is None and r["tube"] is None


def test_ps_scan_validation():
    with pytest.raises(ValueError, match="max_den"):
        ps_scan(markoff(), 0)


def test_ps_scan_schottky_like_pair():
    scan = ps_scan(diagonal_rep(), 6)
    assert scan.aggregate["violations"] == 0
    assert scan.aggregate["min_rate"] > 0.0


# ------------------------------------------------------- local-global scan

def test_local_global_pure_powers_hit_translation_length():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]],
                         basepoint=HPoint(0, 1))
    scan = local_global_scan(rep, 3, 5, ["a" * m for m in (5, 9, 14)])
    for r in scan.records:
        assert r["global_rate"] == pytest.approx(2.0 * math.log(4.0), rel=1e-12)
        assert r["global_defect"] == pytest.approx(0.0, abs=1e-9)


def test_local_global_generated_words_shape_and_rates():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]],
                         basepoint=HPoint(0, 1))
    scan = local_global_scan(rep, 3, 20, 6, seed=1)
    assert len(scan.records) == 6
    assert scan.records[0]["len"] >= 10
    assert scan.records[-1]["len"] >= 195
    for r in scan.records:
        assert r["local_rate"] >= r["global_rate"] > 0.0
        assert r["global_defect"] >= 0.0
    assert scan.aggregate["worst_global_rate"] > 0.0


def test_local_global_word_generator_matches_contract():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    from primscan.scans import _local_global_word
    rng = np.random.default_rng(7)
    for target in (10, 50, 200):
        word = _local_global_word(rng, 3, target)
        assert re.fullmatch(r"(?:ba{3,6})+", word)
        assert len(word) >= target


@pytest.mark.parametrize("words", [[], (), iter([])])
def test_local_global_refuses_an_empty_word_list(words):
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    with pytest.raises(ValueError, match="sample_words must not be"):
        local_global_scan(rep, 3, 10, words)


def test_local_global_refuses_displacements_past_the_float_range():
    with pytest.raises(ValueError, match="52-letter subword .* float range"):
        local_global_scan(trace_1001_rep(), 3, 5, ["b" + "a" * 200])


def test_local_global_deterministic():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    a = local_global_scan(rep, 3, 20, 4, seed=9)
    b = local_global_scan(rep, 3, 20, 4, seed=9)
    assert a.records == b.records


def test_local_global_precondition_elliptic_generator():
    rep = Representation("H2", [[0, 1], [-1, 0]], MARKOFF_B)
    with pytest.raises(PreconditionError):
        local_global_scan(rep, 3, 10, 2)


def test_local_global_precondition_fixed_point_swap():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[0, -1], [1, 0]])
    with pytest.raises(PreconditionError) as info:
        local_global_scan(rep, 3, 10, 2)
    assert "fixed point" in str(info.value)


# ------------------------------------------------------- perturbation scan

def test_perturbation_zero_radius_is_exact():
    report = perturbation_scan(markoff(), 0.0, 3, 5, seed=2)
    assert report["degenerate"] == 0
    for v in report["values"]:
        assert v == report["unperturbed"]


def test_perturbation_small_radius_stays_close():
    report = perturbation_scan(markoff(), 1e-6, 6, 5, seed=2)
    assert report["degenerate"] == 0
    assert len(report["values"]) == 6
    assert abs(report["min"] - report["unperturbed"]) < 1e-3
    assert abs(report["median"] - report["unperturbed"]) < 1e-3


def test_perturbation_deterministic():
    a = perturbation_scan(markoff(), 1e-4, 4, 4, seed=11)
    b = perturbation_scan(markoff(), 1e-4, 4, 4, seed=11)
    assert a["values"] == b["values"]


def test_perturbation_rejects_negative_radius():
    with pytest.raises(ValueError):
        perturbation_scan(markoff(), -0.1, 2, 3)
