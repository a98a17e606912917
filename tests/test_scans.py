"""Tests for the representation scanners.

Oracle values are frozen from independent computations: diagonal orbits
in closed form, the trace recursion over the Farey tree, translation
lengths from arccosh of half-traces, and parabolic displacements
2 asinh(k/2) for [[1,k],[0,1]].
"""

import functools
import importlib.util
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from primscan import blocks, geometry
from primscan.blocks import (
    build_blocks,
    enumerate_primitive_classes,
)
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
    geodesic_metrics,
    translation_length,
    _entries,
    _mul,
    _sinh_half_displacement,
)
from primscan import scans
from primscan.scans import (
    PreconditionError,
    _offset_grid,
    _offset_minima,
    _rotation_images,
    bowditch_scan,
    class_matrix,
    excursion_profile,
    find_quasi_loops,
    local_global_scan,
    perturbation_scan,
    ps_scan,
)
from primscan.words import rotate

from references import class_pairs, exact_fricke_traces, farey_parents

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


def elliptic_rep():
    """tests/data/elliptic.json: b is a half-turn about o, so the leaf of
    a^k b a^m b runs k letters out along the axis of a and back, and its
    osc is about k; its integer products are exact."""
    return parse_rep_file(
        str(Path(__file__).resolve().parent / "data" / "elliptic.json"))


# ------------------------------------------------------------ class_matrix

def test_class_matrix_matches_letterwise_product():
    rep = markoff()
    for tower in enumerate_primitive_classes(6):
        got = class_matrix(rep, tower)
        want = rep.word_image(tower.word)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10), tower.word


def test_deepest_class_at_cap_600_has_finite_length():
    # |w| = 1199 and tr ~ 5e250: tr^2 overflows, so the translation
    # length must come from ln|tr| directly
    tower = build_blocks(599, 600)
    m = class_matrix(markoff(), tower)
    tr = complex(np.trace(m))
    want = exact_fricke_traces((3.0, 3.0, 3.0), 600)[599, 600]
    assert len(tower.word) == 1199 and want > 1e250
    assert tr.real == pytest.approx(want, rel=1e-12)
    assert translation_length(m) == pytest.approx(2 * math.log(want),
                                                  rel=1e-12)


def random_h3_rep(seed, basepoint=HPoint(0, 1)):
    rng = np.random.default_rng(seed)

    def unimodular():
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return M / np.sqrt(np.linalg.det(M))

    return Representation("H3", unimodular(), unimodular(),
                          basepoint=basepoint)


@pytest.mark.parametrize("rep", [markoff(), random_h3_rep(3)],
                         ids=["markoff", "random-h3"])
def test_class_matrix_matches_numpy_reduce(rep):
    # the tower recursion on the scalar kernel against a plain numpy
    # product of the letter images, for every class up to cap 30
    for tower in enumerate_primitive_classes(30):
        got = np.array(class_matrix(rep, tower))
        want = functools.reduce(np.matmul,
                                [np.array(rep.word_image(x))
                                 for x in tower.word])
        assert got.shape == (2, 2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
            tower.word


def test_class_matrix_deep_class_stays_unimodular_in_effect():
    # (20, 19) has entries ~ 1e8; the trace must still match the exact
    # integer value predicted by the trace recursion.
    rep = markoff()
    oracle = exact_fricke_traces((3.0, 3.0, 3.0), 20)
    for tower in enumerate_primitive_classes(20):
        if (tower.p, tower.q) == (20, 19):
            tr = complex(np.trace(class_matrix(rep, tower)))
            want = oracle[(20, 19)]
            assert tr.imag == pytest.approx(0.0, abs=1e-6)
            assert tr.real == pytest.approx(want, rel=1e-12)
            break
    else:
        pytest.fail("class (20, 19) not enumerated")


# ------------------------------------------------- vectorized displacements

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


def walk(rep, cap):
    """`ps_scan`'s class images and words of `rep` to the cap, in walk
    order, as (p, q, image, word)."""
    for p, q, (_, m, gamma) in scans._class_walk(rep, cap):
        yield p, q, m, gamma


def record_order(pairs):
    """The (p, q) of `pairs` by q, then p: the order of the records."""
    return sorted(pairs, key=lambda pq: (pq[1], pq[0]))


def _rel_gap(got, want):
    want = np.array(want)
    return np.abs(np.array(got) - want).max() / np.abs(want).max()


@pytest.mark.parametrize("which", ["fixture", "seed-3", "random-h3"])
def test_walk_images_match_their_word_products(tmp_path, which):
    # every class to cap 40, and at cap 200 the classes of length >= 360
    # or with p or q <= 3 (the deepest and the longest-power towers): the
    # image of each class from its Farey parents against the plain product
    # along the class word
    rep = {"fixture": lambda: parse_rep_file(
               str(ROOT / "tests" / "data" / "markoff.json")),
           "seed-3": lambda: benchmark_rep(3, tmp_path),
           "random-h3": lambda: random_h3_rep(3)}[which]()
    for cap, picked in ((40, lambda p, q: True),
                        (200, lambda p, q: p + q >= 360 or min(p, q) <= 3)):
        checked = 0
        for p, q, m, gamma in walk(rep, cap):
            if picked(p, q):
                want = rep._product(gamma)
                assert _rel_gap(m, want) <= 1e-12, (p, q)
                checked += 1
        assert checked > 400


def test_walk_words_are_rotations_of_the_tower_words():
    # the words of `ps_scan`: each class word is a cyclic rotation of the
    # `build_blocks` word, and the walk meets each class once
    seen = []
    for p, q, _, gamma in walk(markoff(), 40):
        word = build_blocks(p, q).word
        assert len(gamma) == len(word) and gamma in word + word, (p, q)
        seen.append((p, q))
    assert len(seen) == 981 and record_order(seen) == list(class_pairs(40))


@pytest.mark.parametrize("cap", [0, -3])
def test_scans_refuse_a_cap_below_one(cap):
    for scan in (lambda: bowditch_scan(markoff(), cap),
                 lambda: ps_scan(markoff(), cap)):
        with pytest.raises(ValueError, match="max_den must be >= 1"):
            scan()


def test_plan_image_carries_the_abelianization():
    # every class of nonnegative slope to cap 12 (the scans skip the
    # negative ones): the class word of the scans abelianizes to (p, q),
    # and the image has the trace of the tower word's image, its conjugate
    rep = random_h3_rep(3)
    seen = 0
    for p, q, m, gamma in walk(rep, 12):
        assert blocks.abelianization(gamma) == (p, q)
        want = np.trace(class_matrix(rep, build_blocks(p, q)))
        assert abs(m[0] + m[3] - want) <= 1e-12 * abs(want), (p, q)
        seen += 1
    assert seen == len(list(class_pairs(12)))


def test_plan_image_refuses_an_entry_below_one(monkeypatch):
    # the tower still refuses a recursion entry below one; the scans read
    # no entries, so a broken plan leaves them as they were
    want = bowditch_scan(markoff(), 12)
    monkeypatch.setattr(blocks, "_tower_plan", lambda p, q: ((2, 0), "none"))
    with pytest.raises(blocks.LemmaViolation, match="entry 0 < 1"):
        build_blocks(2, 1)
    got = bowditch_scan(markoff(), 12)
    assert got.records == want.records and got.aggregate == want.aggregate


def test_bowditch_scan_builds_no_word(monkeypatch):
    def refuse(*args):
        raise AssertionError("bowditch_scan built a word")

    want = bowditch_scan(markoff(), 40)
    for name in ("_extend", "_tower_walk"):
        monkeypatch.setattr(blocks, name, refuse)
    walks = []
    farey_walk = scans._farey_walk

    def record(cap, a, b, ab, join):
        walks.append((a, b))
        return farey_walk(cap, a, b, ab, join)

    monkeypatch.setattr(scans, "_farey_walk", record)
    got = bowditch_scan(markoff(), 40)
    assert got.records == want.records and got.aggregate == want.aggregate
    assert got.aggregate["classes"] == 981
    # one walk, of traces: none of images or words
    A, B = markoff()._letters["a"], markoff()._letters["b"]
    assert walks == [(A[0] + A[3], B[0] + B[3])]


def test_ps_scan_builds_no_axis(monkeypatch):
    # the tube and the feet come from the carried fixed points: no
    # `Geodesic` per rotation, nor any other
    def refuse(*args, **kwargs):
        raise AssertionError("ps_scan built an axis")

    want = ps_scan(markoff(), 40)
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "axis_of", refuse)
        patch.setattr(geometry, "Geodesic", refuse)
        got = ps_scan(markoff(), 40)
    assert got.records == want.records and got.aggregate == want.aggregate
    assert got.aggregate["classes"] == 981
    # `excursion_profile` builds one `Geodesic` per leaf edge, the four
    # of `_leaf_edges`, whatever the length of the word
    built = []
    init = geometry.Geodesic.__init__

    def count(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.Geodesic, "__init__", count)
    prof = excursion_profile(markoff(), build_blocks(199, 200).word)
    prof.periodicity_defect()
    prof.value(123.4)
    assert prof.period == 399 and len(built) == 4


def test_ps_scan_walks_the_tower_words(monkeypatch):
    walked = []
    axes = scans._rotation_axes

    def record(rep, gamma, m):
        walked.append(gamma)
        return axes(rep, gamma, m)

    def refuse(rep, gamma):
        raise AssertionError(f"{gamma} left the carried fixed points")

    monkeypatch.setattr(scans, "_rotation_axes", record)
    monkeypatch.setattr(scans, "_image_axes", refuse)
    scan = ps_scan(markoff(), 40)
    # every class of the fixture is loxodromic, so every class is walked,
    # and none backs away from its axis by _MAX_CARRIED_OSC
    assert len(walked) == len(scan.records) == 981
    # walked in walk order: each word's slope finds its record
    by_slope = {blocks.abelianization(gamma): gamma for gamma in walked}
    assert len(by_slope) == 981
    for r in scan.records:
        gamma = by_slope[r["p"], r["q"]]
        word = build_blocks(r["p"], r["q"]).word
        # a cyclic rotation of the tower word
        assert len(gamma) == len(word) and gamma in word + word, \
            (r["p"], r["q"])
        assert r["len"] == len(gamma)


def kernel_displacements(W, o):
    """d(M o, o) for each 2x2 matrix M of W (say, an (n, 2, 2) stack),
    from the kernel."""
    return [2.0 * math.asinh(_sinh_half_displacement(_entries(M), o))
            for M in W]


def reference_pair_distances(rep, letters, kmax):
    """The per-offset loop of `_offset_grid` with every start, written
    apart: entry k-1 is the list d(v_m, v_{m+k}) for m = 0..n-k, from the
    product of letters[m:m+k] taken left to right, one `_mul` per
    letter."""
    n = len(letters)
    images = [rep._letters[x] for x in letters]
    W, out = images, []
    for k in range(1, min(kmax, n) + 1):
        if k > 1:
            W = [_mul(W[m], images[m + k - 1]) for m in range(n - k + 1)]
        out.append(kernel_displacements(W, rep.basepoint))
    return out


def matmul_pair_distances(rep, letters, kmax):
    """`reference_pair_distances` from an independent product: (n, 2, 2)
    numpy stacks of the letter images, multiplied with np.matmul."""
    n = len(letters)
    mats = np.array([rep.word_image(x) for x in letters])
    W = mats
    out = []
    for k in range(1, min(kmax, n) + 1):
        if k > 1:
            W = W[: n - k + 1] @ mats[k - 1:]
        out.append(kernel_displacements(W, rep.basepoint))
    return out


def grid_by_offset(rep, letters, kmax, starts):
    """`_offset_grid` as a list of its rows, one per offset."""
    return list(_offset_grid(rep, letters, kmax, starts))


def test_vectorized_displacements_match_scalar_action():
    rep = Representation("H2", MARKOFF_A, MARKOFF_B, basepoint=HPoint(0.3, 1.7))
    words = ["a", "ab", "abAB", "aabAbb", "BAba"]
    W = np.stack([rep.word_image(w) for w in words])
    fast = kernel_displacements(W, rep.basepoint)
    slow = [distance(apply(M, rep.basepoint), rep.basepoint) for M in W]
    assert np.abs(fast - np.array(slow)).max() < 1e-12


def test_vectorized_displacements_match_scalar_action_h3():
    rep = Representation("H3", [[2, 0], [0, 0.5]], [[1, 1j], [0, 1]],
                         basepoint=HPoint(0.1 + 0.2j, 1.0))
    words = ["a", "ab", "abAB", "aabAbb"]
    W = np.stack([rep.word_image(w) for w in words])
    fast = kernel_displacements(W, rep.basepoint)
    slow = [distance(apply(M, rep.basepoint), rep.basepoint) for M in W]
    assert np.abs(fast - np.array(slow)).max() < 1e-12


# the grid's kernel products against numpy's matmul on classes of up to
# 39 letters: both round each of the |w| - 1 products, and the widest gap
# measured, on random-h3, is 1.0e-14
MATMUL_RTOL = 1e-12


@pytest.mark.parametrize("rep", [
    markoff(), criterion_9_rep(1.0), criterion_9_rep(0.1), random_h3_rep(3)],
    ids=["markoff", "eta=1.0", "eta=0.1", "random-h3"])
def test_offset_minima_match_reference_loop(rep):
    # the shape local_global_scan passes, (word, n, n): every offset up to
    # the word length from every start, bit for bit as the reference loop
    # on the same kernel, and every row of the grid to MATMUL_RTOL as the
    # np.matmul stacks
    for tower in enumerate_primitive_classes(20):
        gamma = tower.word
        n = len(gamma)
        got = _offset_minima(rep, gamma, n, n)
        want = [min(d) for d in reference_pair_distances(rep, gamma, n)]
        assert got == want, gamma
        grid = grid_by_offset(rep, gamma, n, n)
        independent = matmul_pair_distances(rep, gamma, n)
        assert len(grid) == len(independent) == n
        for k, (row, ref) in enumerate(zip(grid, independent), 1):
            assert np.allclose(row, ref, rtol=MATMUL_RTOL, atol=0), (gamma, k)


@pytest.mark.parametrize("word, starts", [("abaab" * 3, 5), ("abaab" * 3, 15),
                                          ("aabAb" * 4, 20)])
def test_offset_grid_batches_match_reference_loop(word, starts):
    # each row the grid yields, one per offset, holds the first `starts`
    # of the reference row (all of them once fewer are left), on H2 and
    # on H3
    for rep in (markoff(), random_h3_rep(3)):
        want = [d[:starts] for d in reference_pair_distances(rep, word,
                                                             len(word))]
        assert grid_by_offset(rep, word, len(word), starts) == want, \
            rep.model


def test_displacements_keep_small_distances():
    # acosh(1 + x) rounded these to 0
    o = HPoint(0, 1)
    for shift in (1e-9, 1e-12, 1e-5):
        M = np.array([[1, shift], [0, 1]], dtype=complex)
        got = kernel_displacements(M[None], o)[0]
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
    # the rotation axes at the basepoint against the deep orbit: vertex j
    # is rho(gamma[:j]) o, and the edge midpoints lie on the deep segments
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
    # cancels to 0; a wrong axis breaks the seams between the rotations
    rep = Representation("H2", [[1e4, 0], [0, 1e-4]], [[2, 1], [1, 1]])
    prof = excursion_profile(rep, "aab", step=0.25)
    assert prof.periodicity_defect() <= 1e-12


def test_rotation_images_match_fresh_products():
    # prefix/suffix products against a fresh product of each rotated word
    rep = markoff()
    words = [t.word for t in enumerate_primitive_classes(20)]
    words.append(build_blocks(199, 200).word)
    for gamma in words:
        images = _rotation_images(rep, gamma)
        assert len(images) == len(gamma)
        for j, X in enumerate(images):
            want = rep.word_image(rotate(gamma, j))
            err = np.abs(np.array(X).reshape(2, 2) - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (gamma, j)


def test_ps_scan_memory_peak():
    # one class's axes at a time: the records and the walk's stack set the
    # peak, 2.54 MB on Python 3.11.7 (86.6 MB with every rotation image of
    # every class held at once)
    tracemalloc.start()
    try:
        ps_scan(markoff(), 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


# rounding allowance between the tube, measured at o, and the profile
# samples, measured at o rebuilt by Segment.interpolate: a few ulps of
# values below 5
TUBE_SLACK = 1e-12


def test_ps_scan_tube_is_the_excursion_maximum():
    # distance to the axis is convex along each geodesic leaf edge, so no
    # sample of a 1/16-step profile lies farther than the farthest vertex;
    # the vertices are samples too, so the two maxima agree up to rounding
    # (either side may be the larger by a few ulps)
    towers = {(t.p, t.q): t for t in enumerate_primitive_classes(8)}
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


@pytest.mark.parametrize("slope, step", [
    ((3, 2), 0.25), ((2, 1), 0.4), ((5, 3), 0.7), ((1, 0), 1.0),
    ((13, 8), 0.1), ((89, 55), 0.013)])
def test_excursion_samples_are_numpys_linspace(slope, step):
    # u_i = i (period / count), the last exactly the period: numpy's
    # linspace(0, period, count + 1), bit for bit
    word = build_blocks(*slope).word
    prof = excursion_profile(markoff(), word, step=step)
    count = len(prof.us) - 1
    assert count == max(1, math.ceil(len(word) / step - 1e-9))
    want = np.linspace(0, prof.period, count + 1).tolist()
    assert [u.hex() for u in prof.us] == [u.hex() for u in want]
    assert prof.us == [i * (prof.period / count)
                       for i in range(count)] + [float(prof.period)]


def test_local_global_targets_are_numpys_rounded_linspace():
    # the word lengths local_global_scan draws toward
    for num in range(1, 60):
        want = np.linspace(10, 200, num)
        assert scans._linspace(10, 200, num) == want.tolist(), num
        assert [round(t) for t in scans._linspace(10, 200, num)] == \
            want.round().astype(int).tolist(), num


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


def sub_excursion(prof, K):
    """The longest circular interval where E >= K, as (u_start, u_end,
    length); parameters are reported modulo the period.  Raises ValueError
    when K exceeds the profile maximum."""
    if K > prof.max_excursion:
        raise ValueError("threshold exceeds the maximal excursion")
    vals, shift = prof._circular()
    runs = prof._runs(vals, K)
    start, end = max(runs, key=lambda r: r[1] - r[0])
    length = prof._run_span(start, end, len(vals))
    u_start = ((start + shift) % len(vals)) * prof.step
    return u_start, u_start + length, length


def test_sub_excursion_against_brute_force():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    grid = prof.values[:-1]
    for K in sorted(set(np.round(grid, 6))):
        if K > prof.max_excursion:
            continue
        u0, u1, length = sub_excursion(prof, float(K))
        oracle = _brute_circular_runs(grid, float(K), prof.step,
                                      prof.period)
        assert length == pytest.approx(max(l for _, l in oracle), abs=1e-12)
        assert u1 - u0 == pytest.approx(length, abs=1e-12)
        # the reported start parameter really sits at level >= K
        assert prof.value(u0 % prof.period) >= K - 1e-9


def test_sub_excursion_full_circle_has_period_length():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    u0, u1, length = sub_excursion(prof, prof.min_excursion)
    assert length == pytest.approx(prof.period, abs=1e-12)


def test_sub_excursion_above_max_raises():
    prof = excursion_profile(markoff(), "abaab", step=0.25)
    with pytest.raises(ValueError):
        sub_excursion(prof, prof.max_excursion + 0.1)


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
    with pytest.raises(ValueError, match="invalid letter 'x' .* 'abx'"):
        excursion_profile(rep, "abx")


def test_excursion_rejects_bad_inputs():
    rep = markoff()
    with pytest.raises(ValueError):
        excursion_profile(rep, "abaab", step=0.0)
    with pytest.raises(ValueError):
        excursion_profile(rep, "abaab", step=1.5)
    elliptic = Representation("H2", MARKOFF_A, [[0, 1], [-1, 0]])
    with pytest.raises(NotLoxodromic):
        excursion_profile(elliptic, "b")


def test_excursion_refuses_more_samples_than_the_cap(monkeypatch):
    # checked before any sample is allocated; the cap is lowered here so
    # that both of its sides run small
    monkeypatch.setattr(scans, "_MAX_EXCURSION_SAMPLES", 8)
    assert len(excursion_profile(markoff(), "ab", step=0.25).us) == 9
    with pytest.raises(ValueError, match=r"step must be at least 0\.25 on a "
                       r"2-letter word: 0\.2 gives 10 samples"):
        excursion_profile(markoff(), "ab", step=0.2)


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
    # min_len drops the shorter loops and leaves the others as they were
    loops = find_quasi_loops(rep, gamma, 0.5, min_len=12).loops
    assert [(l.word, l.position, l.displacement) for l in loops] == [
        (l.word, l.position, l.displacement) for l in report.loops
        if len(l.word) >= 12]


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
        find_quasi_loops(rep, "ab", 0.5, min_len=0)
    with pytest.raises(ValueError):
        find_quasi_loops(rep, "ab" * 5001, 0.5)
    # each bad word is named: a letter outside aAbB, an unreduced word,
    # and one that is not cyclically reduced (the search wraps around it)
    with pytest.raises(ValueError, match="invalid letter 'x' .* 'abx'"):
        find_quasi_loops(rep, "abx", 0.5)
    for gamma in ("", "aAb", "abA"):
        with pytest.raises(ValueError, match=f"cyclically reduced.*'{gamma}'"):
            find_quasi_loops(rep, gamma, 0.5)


def trace_1001_rep():
    # rho(a^k) has entries near 1001^k: the product, and with it the
    # displacement, which is linear in the entries, leaves the float range
    # past k = 102
    return Representation("H2", [[1000, 1], [999, 1]], MARKOFF_B)


def test_quasi_loops_refuse_displacements_past_the_float_range():
    with pytest.raises(ValueError, match="103-letter subword .* float range"):
        find_quasi_loops(trace_1001_rep(), "a" * 200, 1.0)
    assert find_quasi_loops(trace_1001_rep(), "a" * 102, 1.0).loops == []


def test_word_displacement_refuses_past_the_float_range():
    rep = trace_1001_rep()
    with pytest.raises(ValueError, match="103-letter word .* float range"):
        rep.displacement("a" * 103)
    assert math.isfinite(rep.displacement("a" * 102))


# ----------------------------------------------------------- trace oracle

def test_fricke_traces_markoff_values():
    scan = bowditch_scan(markoff(), 5)
    traces = {(r["p"], r["q"]): r["tr"] for r in scan.records}
    for pq, tr in (((1, 0), 3.0), ((0, 1), 3.0), ((1, 1), 3.0),
                   ((1, 2), 6.0), ((2, 1), 6.0), ((1, 3), 15.0),
                   ((3, 2), 15.0), ((5, 3), 87.0)):
        assert traces[pq] == [tr, 0.0], pq


def test_fricke_traces_walk_past_the_recursion_limit():
    # a recursive descent raised RecursionError from cap 1000 on: the
    # walk meets each class of the cap once
    cap = 1000
    seen = bytearray((cap + 1) ** 2)
    for p, q, _ in scans._farey_walk(cap, None, None, None,
                                     lambda u, v, w: None):
        assert not seen[p * (cap + 1) + q], (p, q)
        seen[p * (cap + 1) + q] = 1
    pairs = list(class_pairs(cap))
    assert seen.count(1) == len(pairs)
    assert all(seen[p * (cap + 1) + q] for p, q in pairs)


def test_farey_walk_joins_each_class_from_its_farey_parents():
    # each class after 1/1 is joined from the Farey parents u, v that the
    # reference names (u of larger slope) and the region across their
    # edge; the walk meets each class of the cap once, and the row of
    # each q in one run of p, increasing for q <= 1 and decreasing beyond:
    # the runs that `_record_rows` sorts
    cap = 60
    triples = {}

    def join(u, v, w):
        x = u[0] + v[0], u[1] + v[1]
        triples[x] = u, v, w
        return x

    seen = []
    for p, q, x in scans._farey_walk(cap, (1, 0), (0, 1), (1, 1), join):
        assert x == (p, q)
        seen.append(x)
    assert record_order(seen) == list(class_pairs(cap))
    assert len(triples) == len(seen) - 3
    for (p, q), (u, v, w) in triples.items():
        assert (u, v) == farey_parents(p, q)
        assert w == (abs(u[0] - v[0]), abs(u[1] - v[1])), (p, q)
    for q in range(cap + 1):
        row = [p for p, r in seen if r == q]
        assert row == sorted(row, reverse=q >= 2), q


def benchmark_validate(monkeypatch):
    """perfbench/validate.py, which walks the tree on its own, in
    integers."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "benchmark_validate", ROOT / "perfbench" / "validate.py")
    validate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validate)
    return validate


def test_fricke_traces_match_the_benchmark_oracle(monkeypatch):
    # the tests' reference, in integers, against the recursion that
    # perfbench/validate.py gates the benchmark's scans with
    validate = benchmark_validate(monkeypatch)
    assert (exact_fricke_traces((3, 3, 3), 20)
            == validate.fricke_traces(3, 3, 3, 20))


# ----------------------------------------------------------- bowditch scan

def flagged(scan):
    """The flags of each flagged record of a scan, keyed by (p, q)."""
    return {(r["p"], r["q"]): r["flags"] for r in scan.records if r["flags"]}


def test_bowditch_markoff_aggregate():
    scan = bowditch_scan(markoff(), 20)
    agg = scan.aggregate
    assert agg["classes"] == 257
    assert agg["violations"] == 0
    assert flagged(scan) == {}
    assert agg["commutator_trace"][0] == pytest.approx(-2.0, abs=1e-9)
    assert agg["commutator_trace"][1] == pytest.approx(0.0, abs=1e-9)
    assert agg["min_ratio"] == pytest.approx(math.acosh(1.5), rel=1e-12)
    assert agg["fitted_C"] == pytest.approx(1.0 / math.acosh(1.5), rel=1e-12)
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


def class_products(rep, cap):
    """Each class image as the plain product along its `build_blocks` word
    (`Representation._product`), keyed by (p, q): the reference of the
    scans' traces, independent of their recursion."""
    return {(t.p, t.q): rep._product(t.word)
            for t in enumerate_primitive_classes(cap)}


@pytest.mark.parametrize("which", ["fixture", "seed-3", "random-h3",
                                   "eta=0.01"])
def test_bowditch_matches_the_class_products(tmp_path, which):
    # every class to cap 40; the largest gap measured on these reps is
    # 1.5e-14 of max(1, |tr|)
    rep = {"fixture": markoff, "seed-3": lambda: benchmark_rep(3, tmp_path),
           "random-h3": lambda: random_h3_rep(3),
           "eta=0.01": lambda: criterion_9_rep(0.01)}[which]()
    reference = class_products(rep, 40)
    scan = bowditch_scan(rep, 40)
    assert len(scan.records) == len(reference) == 981
    for r in scan.records:
        m = reference[r["p"], r["q"]]
        want = m[0] + m[3]
        assert abs(complex(*r["tr"]) - want) <= 1e-12 * max(1.0, abs(want)), \
            (r["p"], r["q"])
        assert r["tl"] == pytest.approx(translation_length(m), rel=1e-12)


def test_bowditch_traces_match_the_integer_oracle_at_the_benchmark_cap(
        tmp_path):
    # the benchmark's representations (the fixture and two seeded
    # conjugates) at its cap of 200 against the reference in integers,
    # well inside the 1e-9 gate of perfbench/validate.py: at most 8.1e-14
    # relative is measured
    exact = exact_fricke_traces((3, 3, 3), 200)
    for rep in (markoff(), benchmark_rep(1, tmp_path),
                benchmark_rep(7, tmp_path)):
        scan = bowditch_scan(rep, 200)
        assert scan.aggregate["classes"] == 24465
        for r in scan.records:
            want = exact[r["p"], r["q"]]
            assert abs(complex(*r["tr"]) - want) <= 1e-12 * want, \
                (r["p"], r["q"])


def inverted_338_rep():
    """The (3, 3, 8) representation of criterion 9's family with B
    inverted: trace triple (3, 3, 3 * 3 - 8 = 1), so 589 of the classes to
    cap 80 are elliptic, while the entries of their images grow."""
    xi = 4.0 + math.sqrt(15.0)    # xi + 1/xi = 8
    return Representation("H2", [[3.0, -1.0], [1.0, 0.0]],
                          [[3.0, -xi], [1.0 / xi, 0.0]])


@pytest.mark.parametrize("cap, elliptic", [(20, 63), (40, 189), (80, 589)])
def test_bowditch_elliptic_traces_match_the_exact_recursion(cap, elliptic):
    # an elliptic trace stays below 2 while the entries of the class images
    # grow: the traces of the Farey walk's image products are off by
    # 1.8e-10, 7.5e-9 and 2.3e-7 at caps 20, 40 and 80, the float
    # recursion by at most 1.4e-27, 2.3e-26 and 4.1e-25
    rep = inverted_338_rep()
    triple = [rep._product(w) for w in ("a", "b", "ab")]
    assert all(m[0].imag == m[3].imag == 0.0 for m in triple)
    exact = exact_fricke_traces(
        [Fraction((m[0] + m[3]).real) for m in triple], cap)
    seen = 0
    for r in bowditch_scan(rep, cap).records:
        want = exact[r["p"], r["q"]]
        if abs(want) < 2:
            assert r["flags"] == ["elliptic"], (r["p"], r["q"])
            assert r["tr"][1] == 0.0
            assert abs(Fraction(r["tr"][0]) - want) <= 1e-11, (r["p"], r["q"])
            seen += 1
    assert seen == elliptic


def test_bowditch_refuses_a_deep_cap_before_any_later_class():
    # Markoff's traces leave the float range at 738/1, on the row of q = 1
    # that the Farey walk meets first: the scan refuses there and computes
    # no later class.  The walk holds one frame per level of its path and
    # no table (one of 741^2 cells would take 4.4 MB alone): the peak is
    # 0.2 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="class 738/1 is not finite at "
                                             "max_den 740"):
            bowditch_scan(markoff(), 740)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_bowditch_flags_elliptic_generator():
    rep = Representation("H2", MARKOFF_A, [[0, 1], [-1, 0]])
    scan = bowditch_scan(rep, 5)
    by_slope = {(r["p"], r["q"]): r for r in scan.records}
    assert by_slope[(0, 1)]["flags"] == ["elliptic"]
    assert by_slope[(0, 1)]["ratio"] == 0.0
    assert scan.aggregate["violations"] == len(flagged(scan)) >= 1
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


@pytest.mark.parametrize("b, kind", [
    ([[0.5, 0.0], [0.0, 2.0]], "identity"),
    ([[0.5, 0.5], [0.0, 2.0]], "parabolic")])
def test_scans_tell_the_identity_from_a_parabolic(b, kind):
    # with a = diag(2, 1/2), class p/q has trace 2^(p-q) + 2^(q-p), so only
    # 1/1 has trace 2: ab is the identity when b = a^-1, and [[1, 1], [0, 1]]
    # in the other rep.  A trace cannot tell the two apart; the image can
    rep = Representation("H2", [[2.0, 0.0], [0.0, 0.5]], b)
    scan = bowditch_scan(rep, 6)
    assert flagged(scan) == {(1, 1): [kind]}
    assert scan.aggregate["small_trace_count"] == 1
    ps = ps_scan(rep, 6)
    assert flagged(ps) == {(1, 1): ["not-loxodromic"]}
    assert [r["tube"] for r in ps.records if r["flags"]] == [None]


def test_identity_classes_take_one_image_walk(monkeypatch):
    # with a = b = identity every trace is 2: `bowditch_scan`'s class
    # images uv decide, from one walk of products (one per class) next to
    # its trace walk, and `ps_scan` takes one walk; no tower is built
    def refuse(*args):
        raise AssertionError("the scan built a word")

    for name in ("_extend", "_tower_walk"):
        monkeypatch.setattr(blocks, name, refuse)
    walks, products = [], []
    farey_walk, mul = scans._farey_walk, scans._mul

    def record(cap, a, b, ab, join):
        walks.append(a)
        return farey_walk(cap, a, b, ab, join)

    def count(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(scans, "_farey_walk", record)
    monkeypatch.setattr(scans, "_mul", count)
    identity = [[1.0, 0.0], [0.0, 1.0]]
    rep = Representation("H2", identity, identity)
    scan = bowditch_scan(rep, 40)
    assert scan.aggregate["classes"] == 981
    assert {tuple(r["flags"]) for r in scan.records} == {("identity",)}
    # traces, then the class walk of traces, images and words
    assert walks == [2.0, (2.0, rep._letters["a"], "a")]
    assert len(products) <= 981
    # `ps_scan` walks once, the class walk, and flags each class from its
    # trace: it classifies no image, and takes no second walk of images
    # (1,958 products here with one)
    walks.clear()
    products.clear()
    scan = ps_scan(rep, 40)
    assert {tuple(r["flags"]) for r in scan.records} == {("not-loxodromic",)}
    assert walks == [(2.0, rep._letters["a"], "a")]
    assert len(products) <= 981


@pytest.mark.parametrize("which", [
    "fixture", "elliptic", "identity", "parabolic", "random-h3", "seed-1",
    "seed-7"])
def test_ps_scan_heads_match_bowditch_scan_bit_for_bit(tmp_path, which):
    # the two scans walk the tree apart, `ps_scan` on its class walk and
    # `bowditch_scan` on its trace walk: record by record, the traces,
    # translation lengths and rates must agree bit for bit, and a class is
    # not loxodromic to the one exactly when it is to the other
    rep = {"fixture": lambda: parse_rep_file(
               str(ROOT / "tests" / "data" / "markoff.json")),
           "elliptic": elliptic_rep,
           "identity": lambda: Representation(
               "H2", [[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]),
           "parabolic": lambda: Representation(
               "H2", [[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.5], [0.0, 2.0]]),
           "random-h3": lambda: random_h3_rep(3),
           "seed-1": lambda: benchmark_rep(1, tmp_path),
           "seed-7": lambda: benchmark_rep(7, tmp_path)}[which]()
    ps, bowditch = ps_scan(rep, 20).records, bowditch_scan(rep, 20).records
    assert len(ps) == len(bowditch) == 257
    for g, w in zip(ps, bowditch):
        assert (g["p"], g["q"]) == (w["p"], w["q"])
        assert [x.hex() for x in (*g["tr"], g["tl"], g["rate"])] \
            == [x.hex() for x in (*w["tr"], w["tl"], w["ratio"])], (g, w)
        assert ("not-loxodromic" in g["flags"]) == bool(
            {"elliptic", "parabolic", "identity"} & set(w["flags"])), (g, w)


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


def _exact_line_fit(xs, ys):
    """The least-squares line (rate, intercept) through the points, in
    exact rational arithmetic."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    rate = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))
    return rate, ybar - rate * xbar


def test_bowditch_line_fit_matches_the_exact_fit():
    scan = bowditch_scan(parse_rep_file(
        str(ROOT / "tests" / "data" / "markoff.json")), 200)
    lox = [r for r in scan.records if not r["flags"]]
    rate, intercept = _exact_line_fit([r["len"] for r in lox],
                                      [r["tl"] for r in lox])
    agg = scan.aggregate
    assert agg["lsq_rate"] == pytest.approx(float(rate), rel=1e-12)
    assert agg["lsq_intercept"] == pytest.approx(float(intercept), rel=1e-12)


def test_bowditch_line_fit_is_flat_on_the_elliptic_fixture():
    # every loxodromic class to cap 30 has the same translation length,
    # so the exact rate is 0
    scan = bowditch_scan(parse_rep_file(
        str(ROOT / "tests" / "data" / "elliptic.json")), 30)
    lox = [r for r in scan.records if not r["flags"]]
    assert _exact_line_fit([r["len"] for r in lox],
                           [r["tl"] for r in lox])[0] == 0
    assert scan.aggregate["lsq_rate"] == 0.0


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


def rotation_frames(rep, gamma, edges):
    """Frame j of gamma for each rotation j: (axis of rho(rotate(gamma,
    j)), edges[gamma[j]]), with `edges` from `scans._leaf_edges`: one
    `Geodesic` per rotation, the reference for the carried fixed points of
    `scans._rotation_axes`.  Raises NotLoxodromic when a rotated image is
    not loxodromic."""
    return [(axis_of(X, basepoint=rep.basepoint), edges[x])
            for X, x in zip(_rotation_images(rep, gamma), gamma)]


def frame_excursion_values(rep, gamma, us):
    """E(u) at each u from the frame of rotation floor(u) mod the period:
    the reference for `excursion_profile`."""
    frames = rotation_frames(rep, gamma, scans._leaf_edges(rep))
    values = []
    for u in us:
        j = math.floor(u)
        line, seg = frames[j % len(frames)]
        values.append(dist_to_geodesic(seg.interpolate(u - j), line))
    return values


def frame_ps_records(rep, max_denominator):
    """`ps_scan`'s records from the frames of `rotation_frames`, keyed by
    (p, q), the reference for its closed forms: the tube as the largest
    `dist_to_geodesic(o, axis)` and each foot increment as the
    `geodesic_metrics` coordinate of the end of its leaf edge on that
    axis."""
    records = {}
    o = rep.basepoint
    edges = scans._leaf_edges(rep)
    for p, q, (tr, _, gamma) in scans._class_walk(rep, max_denominator):
        kind = geometry._trace_kind(tr)
        tl = geometry._trace_length(tr) if kind == "loxodromic" else 0.0
        # the head is the scan's: its traces are `test_bowditch_*`'s to check
        head = {"p": p, "q": q, "len": p + q, "tr": [tr.real, tr.imag],
                "tl": tl}
        rate = tl / (p + q)
        frames = None
        if kind == "loxodromic":
            try:
                frames = rotation_frames(rep, gamma, edges)
            except NotLoxodromic:
                pass
        if frames is None:
            records[p, q] = {
                **head, "rate": rate, "osc": None, "period_error": None,
                "tube": None, "flags": ["not-loxodromic"],
            }
            continue
        tube = max(dist_to_geodesic(o, line) for line, _ in frames)
        # the edge starts at o, the anchor of the line, whose coordinate
        # is 0
        deltas = [geodesic_metrics(edge.q, line).coordinate
                  for line, edge in frames]
        # e_m = s_m - m * rate for m < n, with s_0 = 0
        feet = itertools.accumulate(deltas[:-1], initial=0.0)
        offsets = [s - i * rate for i, s in enumerate(feet)]
        osc = max(offsets) - min(offsets)
        period_error = abs(sum(deltas) - head["tl"]) / max(1.0, head["tl"])
        flags = []
        if rate < scans._LOW_RATIO:
            flags.append("low-ratio")
        if not period_error <= scans._PERIOD_TOL:
            flags.append("period-error")
        records[p, q] = {
            **head, "rate": rate, "osc": osc, "period_error": period_error,
            "tube": tube, "flags": flags,
        }
    return records


# allowance between `ps_scan` and its frame reference: the two round
# differently (entry fractions against a normalized point action), a few
# ulps of values below 10 per rotation, summed over at most 40 foot
# increments at cap 20; the largest gap measured on these reps is 5e-14
FRAME_TOL = 1e-12
OFF_ORIGIN = HPoint(0.3 + 0.2j, 1.3)


@pytest.mark.parametrize("rep", [
    markoff(), criterion_9_rep(0.1), criterion_9_rep(0.01),
    random_h3_rep(1, OFF_ORIGIN), random_h3_rep(2, OFF_ORIGIN),
    random_h3_rep(5, OFF_ORIGIN), diagonal_rep(), elliptic_rep()],
    ids=["markoff", "eta=0.1", "eta=0.01", "h3-1", "h3-2", "h3-5",
         "diagonal", "elliptic"])
def test_ps_scan_matches_the_frame_reference(rep):
    # every record at cap 20; on the diagonal rep every rotation image
    # has c = 0, so one fixed point of each is INF; on the elliptic rep
    # the leaves with osc past _MAX_CARRIED_OSC take the rotation images
    # (carried, 19/2 would have a tube of 1.4e-9 where the frames give 0)
    got = ps_scan(rep, 20).records
    want = frame_ps_records(rep, 20)
    assert len(got) == len(want) == 257
    for g in got:
        w = want[g["p"], g["q"]]
        head = ("p", "q", "len", "tr", "tl", "rate", "flags")
        assert {k: g[k] for k in head} == {k: w[k] for k in head}
        for k in ("osc", "period_error", "tube"):
            if w[k] is None:
                assert g[k] is None, (g["p"], g["q"], k)
            else:
                assert abs(g[k] - w[k]) <= FRAME_TOL * max(1.0, w[k]), \
                    (g["p"], g["q"], k, g[k], w[k])


# allowance between `excursion_profile` and its frame reference: both
# evaluate at the same points of the leaf edges and differ only in the
# axis (carried fixed points against a normalized point action); the
# largest gap measured on these reps, over every class word up to cap 12,
# is 1.4e-14, about 7 times below this
EXCURSION_TOL = 1e-13
MARKOFF_SLOPES = [(8, 5), (55, 34), (199, 200), (-5, 8)]


@pytest.mark.parametrize("rep, slopes", [
    (markoff(), MARKOFF_SLOPES),
    *[(rep, [(8, 5), (3, 2), (-5, 8)]) for rep in (
        criterion_9_rep(0.1), criterion_9_rep(0.01), diagonal_rep(),
        random_h3_rep(1, OFF_ORIGIN), random_h3_rep(2, OFF_ORIGIN),
        random_h3_rep(5, OFF_ORIGIN))],
    (elliptic_rep(), [(19, 2), (37, 2), (3, 8)])],
    ids=["markoff", "eta=0.1", "eta=0.01", "diagonal", "h3-1", "h3-2",
         "h3-5", "elliptic"])
def test_excursion_matches_the_frame_reference(rep, slopes):
    # every sample, a point off the grid in each edge and the seams; on
    # the diagonal rep every rotation image has c = 0
    for p, q in slopes:
        gamma = build_blocks(p, q).word
        prof = excursion_profile(rep, gamma, step=0.25)
        off_grid = np.arange(prof.period) + 0.3
        got = [*prof.values, *(prof.value(u) for u in off_grid)]
        want = frame_excursion_values(rep, gamma, [*prof.us, *off_grid])
        for u, g, w in zip([*prof.us, *off_grid], got, want):
            assert abs(g - w) <= EXCURSION_TOL * max(1.0, w), (p, q, u, g, w)
        assert prof.periodicity_defect() <= 1e-12, (p, q)


def test_rotation_axes_are_the_fixed_points():
    # each carried pair against `geometry.fixed_points` of a fresh product
    # of the rotated word; on the diagonal rep every letter has c = 0, so
    # one fixed point of every rotation is INF, carried as d = 0
    words = [t.word for t in enumerate_primitive_classes(8)]
    words += [build_blocks(-5, 8).word, build_blocks(-13, 8).word]
    cases = [(rep, gamma) for rep in (
        random_h3_rep(1, OFF_ORIGIN), random_h3_rep(2, OFF_ORIGIN),
        random_h3_rep(5, OFF_ORIGIN), diagonal_rep()) for gamma in words]
    cases.append((markoff(), build_blocks(199, 200).word))
    # the leaves of osc past _MAX_CARRIED_OSC, from the rotation images
    elliptic = elliptic_rep()
    cases += [(elliptic, gamma) for gamma in words + [
        build_blocks(37, 2).word] if geometry.classify(
            elliptic._product(gamma)) == "loxodromic"]
    infinite = 0
    for rep, gamma in cases:
        axes = scans._rotation_axes(rep, gamma, rep._product(gamma))
        assert len(axes) == len(gamma)
        for j, (na, da, nb, db, _) in enumerate(axes):
            want = geometry.fixed_points(rep._product(rotate(gamma, j)))
            for n, d, w in ((na, da, want[0]), (nb, db, want[1])):
                if w is geometry.INF:
                    assert d == 0, (gamma, j)
                    infinite += 1
                else:
                    assert abs(n / d - w) <= 1e-12 * max(1.0, abs(w)), \
                        (gamma, j, n / d, w)
    assert infinite == sum(len(w) for w in words)


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
    towers = {(t.p, t.q): t for t in enumerate_primitive_classes(12)}
    scan = ps_scan(rep, 12)
    for r in scan.records:
        gamma = towers[r["p"], r["q"]].word
        n = len(gamma)
        for k, d in enumerate(grid_by_offset(rep, gamma * 3, 3 * n, 3 * n),
                              1):
            assert r["rate"] * k - r["osc"] <= min(d) + PROJECTION_SLACK, \
                (gamma, k)
    # the rate is bowditch_scan's ratio, bit for bit
    min_ratio = bowditch_scan(rep, 12).aggregate["min_ratio"]
    assert min(r["rate"] for r in scan.records) == min_ratio
    assert scan.aggregate["min_rate"] == min_ratio


def test_ps_scan_flags_low_ratio_as_bowditch_scan_does():
    # class 7/12 of this representation translates 0.0036 over 19 letters
    rep = random_h3_rep(4)
    assert (flagged(ps_scan(rep, 12)) == flagged(bowditch_scan(rep, 12))
            == {(7, 12): ["low-ratio"]})


def test_ps_scan_flags_period_error(monkeypatch):
    # no known input breaks the closed forms, so a stand-in tolerance
    # drives it
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
    rng = random.Random(7)
    for target in (10, 50, 200):
        word = _local_global_word(rng, 3, target)
        assert re.fullmatch(r"(?:ba{3,6})+", word)
        assert len(word) >= target


@pytest.mark.parametrize("words", [[], (), iter([])])
def test_local_global_refuses_an_empty_word_list(words):
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    with pytest.raises(ValueError, match="sample_words must not be"):
        local_global_scan(rep, 3, 10, words)


@pytest.mark.parametrize("word, message", [
    ("abc", "invalid letter 'c' .* 'abc'"),
    ("", "nonempty reduced word, got ''"),
    ("baAb", "'baAb' is not freely reduced")])
def test_local_global_refuses_a_bad_word(word, message):
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    with pytest.raises(ValueError, match=message):
        local_global_scan(rep, 3, 5, ["baaab", word])


def test_local_global_refuses_displacements_past_the_float_range():
    with pytest.raises(ValueError, match="103-letter subword .* float range"):
        local_global_scan(trace_1001_rep(), 3, 5, ["b" + "a" * 200])


def test_local_global_deterministic():
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    a = local_global_scan(rep, 3, 20, 4, seed=9)
    b = local_global_scan(rep, 3, 20, 4, seed=9)
    assert a.records == b.records


def test_local_global_draws_pin_the_standard_library_stream():
    # the word lengths are integers set by the run-length draws alone
    rep = Representation("H2", [[4, 0], [0, 0.25]], [[4, -3.75], [0, 0.25]])
    scan = local_global_scan(rep, 3, 20, 4, seed=7)
    assert [r["len"] for r in scan.records] == [11, 76, 141, 203]


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


def test_perturbation_draws_pin_the_standard_library_stream():
    # the ratios pass through libm, so they are pinned to 1e-12 relative:
    # far below the 1e-4 that a noise draw of radius 1e-3 moves them
    report = perturbation_scan(markoff(), 1e-3, 3, 4, seed=7)
    assert report["values"] == pytest.approx(
        [0.9626560597305218, 0.9628790321761137, 0.9614813028090887],
        rel=1e-12)


def test_perturbation_rejects_negative_radius():
    with pytest.raises(ValueError):
        perturbation_scan(markoff(), -0.1, 2, 3)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seeded_scans_refuse_a_seed_that_is_not_a_natural_number(seed):
    # random.Random would take -1 as 1, a float or a string by its hash,
    # and None as a seed from the system's entropy.  The perturbation
    # scan checks its seed before its base scan, which here would refuse
    # class 103/1 past the float range
    message = f"seed must be an integer >= 0, got {re.escape(repr(seed))}"
    with pytest.raises(ValueError, match=message):
        perturbation_scan(trace_1001_rep(), 1e-3, 1, 110, seed=seed)
    with pytest.raises(ValueError, match=message):
        local_global_scan(markoff(), 3, 10, 2, seed=seed)
