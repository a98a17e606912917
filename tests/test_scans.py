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
import re
from pathlib import Path

import numpy as np
import pytest

from primscan import blocks, geometry
from primscan.blocks import (
    build_blocks,
    enumerate_primitive_classes,
    farey_walk,
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
    for slope, tower in enumerate_primitive_classes(30):
        got = class_matrix(rep, tower)
        want = functools.reduce(np.matmul,
                                [rep.word_image(x) for x in tower.word])
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


def walk(rep, cap, combine=scans._image):
    """The scans' walk of `rep` to the cap with the image payload, or with
    the image and word payload of `ps_scan`."""
    a, b = rep._letters["a"], rep._letters["b"]
    if combine is scans._image:
        return farey_walk(a, b, _mul(a, b), combine, cap)
    return farey_walk((a, "a"), (b, "b"), (_mul(a, b), "ab"), combine, cap)


def _bits(X):
    return [(z.real.hex(), z.imag.hex()) for z in X]


def _rel_gap(got, want):
    want = np.array(want)
    return np.abs(np.array(got) - want).max() / np.abs(want).max()


@pytest.mark.parametrize("which", ["fixture", "seed-3", "random-h3"])
def test_walk_images_match_their_word_products(tmp_path, which):
    # every class to cap 40, and at cap 200 the classes of length >= 360
    # or with p or q <= 3 (the deepest and the longest-power towers): the
    # image payload against the plain product along the class word, and
    # bit for bit against the image and word payload
    rep = {"fixture": lambda: parse_rep_file(
               str(ROOT / "tests" / "data" / "markoff.json")),
           "seed-3": lambda: benchmark_rep(3, tmp_path),
           "random-h3": lambda: random_h3_rep(3)}[which]()
    for cap, picked in ((40, lambda p, q: True),
                        (200, lambda p, q: p + q >= 360 or min(p, q) <= 3)):
        images = {(p, q): m for p, q, m in walk(rep, cap)}
        checked = 0
        for p, q, (m, gamma) in walk(rep, cap, scans._image_and_word):
            assert _bits(m) == _bits(images[p, q]), (p, q)
            if picked(p, q):
                want = rep._product(gamma)
                assert _rel_gap(m, want) <= 1e-12, (p, q)
                checked += 1
        assert checked > 400


def test_walk_words_are_rotations_of_the_tower_words():
    # the word payload of `ps_scan`: each class word is a cyclic rotation
    # of the `build_blocks` word
    seen = 0
    for p, q, (_, gamma) in walk(markoff(), 40, scans._image_and_word):
        word = build_blocks(p, q).word
        assert len(gamma) == len(word) and gamma in word + word, (p, q)
        seen += 1
    assert seen == 981


def test_plan_image_carries_the_abelianization():
    # every class of nonnegative slope to cap 12 (the scans skip the
    # negative ones): the class word of the walk abelianizes to (p, q),
    # and the image has the trace of the tower word's image, its conjugate
    rep = random_h3_rep(3)
    images = {(p, q): m for p, q, m in walk(rep, 12)}
    seen = 0
    for p, q, (m, gamma) in walk(rep, 12, scans._image_and_word):
        assert blocks.abelianization(gamma) == (p, q)
        assert _bits(m) == _bits(images[p, q]), (p, q)
        want = np.trace(class_matrix(rep, build_blocks(p, q)))
        assert abs(m[0] + m[3] - want) <= 1e-12 * abs(want), (p, q)
        seen += 1
    assert seen == len(blocks._class_pairs(12))


def test_plan_image_refuses_an_entry_below_one(monkeypatch):
    # the tower still refuses a recursion entry below one; the scans read
    # no entries, so a broken plan leaves them as they were
    want = bowditch_scan(markoff(), 12)
    monkeypatch.setattr(blocks, "_tower_plan", lambda slope: ((2, 0), "none"))
    with pytest.raises(blocks.LemmaViolation, match="entry 0 < 1"):
        build_blocks(2, 1)
    got = bowditch_scan(markoff(), 12)
    assert got.records == want.records and got.aggregate == want.aggregate


def test_bowditch_scan_builds_no_word(monkeypatch):
    def refuse(*args):
        raise AssertionError("bowditch_scan built a word")

    want = bowditch_scan(markoff(), 40)
    for name in ("_tower_levels", "_build_tower"):
        monkeypatch.setattr(blocks, name, refuse)
    monkeypatch.setattr(scans, "_image_and_word", refuse)
    got = bowditch_scan(markoff(), 40)
    assert got.records == want.records and got.aggregate == want.aggregate
    assert got.aggregate["classes"] == 981


def test_ps_scan_builds_no_axis(monkeypatch):
    # the tube and the feet come from the entries of the rotation images:
    # no `Geodesic` per rotation, nor any other
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
    images = scans._rotation_images

    def record(rep, gamma):
        walked.append(gamma)
        return images(rep, gamma)

    monkeypatch.setattr(scans, "_rotation_images", record)
    scan = ps_scan(markoff(), 40)
    # every class of the fixture is loxodromic, so every class is walked
    assert len(walked) == len(scan.records) == 981
    for r, gamma in zip(scan.records, walked):
        word = build_blocks(r["p"], r["q"]).word
        # a cyclic rotation of the tower word
        assert len(gamma) == len(word) and gamma in word + word, \
            (r["p"], r["q"])
        assert r["len"] == len(gamma)


def kernel_displacements(W, o):
    """d(W[i] o, o) for a stacked (n, 2, 2) array, from the kernel."""
    return 2.0 * np.arcsinh(_sinh_half_displacement(W.reshape(-1, 4).T, o))


def reference_pair_distances(rep, letters, kmax):
    """The per-offset loop that `_offset_grid` batches: entry k-1 is the
    array d(v_m, v_{m+k}) for every start m = 0..n-k, from the entry
    arrays of the subword products on `_mul`, each offset in its own
    `_sinh_half_displacement` call."""
    n = len(letters)
    cols = [np.array([rep._letters[x][i] for x in letters]) for i in range(4)]
    W = cols
    out = []
    for k in range(1, min(kmax, n) + 1):
        if k > 1:
            W = _mul([w[:n - k + 1] for w in W], [c[k - 1:] for c in cols])
        out.append(2.0 * np.arcsinh(
            _sinh_half_displacement(W, rep.basepoint)))
    return out


def matmul_pair_distances(rep, letters, kmax):
    """`reference_pair_distances` from an independent product: (n, 2, 2)
    numpy stacks of the letter images, multiplied with np.matmul."""
    n = len(letters)
    mats = np.stack([rep.word_image(x) for x in letters])
    W = mats
    out = []
    for k in range(1, min(kmax, n) + 1):
        if k > 1:
            W = W[: n - k + 1] @ mats[k - 1:]
        out.append(kernel_displacements(W, rep.basepoint))
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
    # on the same kernel, and to MATMUL_RTOL as the np.matmul stacks
    for _, tower in enumerate_primitive_classes(20):
        gamma = tower.word
        n = len(gamma)
        got = _offset_minima(rep, gamma, n, n)
        want = [float(d.min()) for d in reference_pair_distances(rep, gamma, n)]
        assert got == want, gamma
        independent = [d.min() for d in matmul_pair_distances(rep, gamma, n)]
        assert np.allclose(got, independent, rtol=MATMUL_RTOL, atol=0), gamma


@pytest.mark.parametrize("word, starts", [("abaab" * 3, 5), ("abaab" * 3, 15),
                                          ("aabAb" * 4, 20)])
def test_offset_grid_batches_match_reference_loop(monkeypatch, word, starts):
    # batches of a few rows split the grid inside and between offsets, on
    # H2 and on H3
    for rep in (markoff(), random_h3_rep(3)):
        want = [d[:starts] for d in reference_pair_distances(rep, word,
                                                             len(word))]
        for rows in (7, 60, scans._GRID_ROWS):
            monkeypatch.setattr(scans, "_GRID_ROWS", rows)
            got = grid_by_offset(rep, word, len(word), starts)
            assert len(got) == len(want)
            for k, (g, w) in enumerate(zip(got, want), 1):
                assert np.array_equal(g, w), (rep.model, rows, k)


@pytest.mark.parametrize("rows", [scans._GRID_ROWS, 50])
def test_offset_grid_enters_the_error_state_once_per_batch(monkeypatch, rows):
    # the products of a batch share one error state; the displacement
    # kernel enters its own
    rep = markoff()
    entries = []
    real = np.errstate

    def counted(**kwargs):
        entries.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    monkeypatch.setattr(scans, "_GRID_ROWS", rows)
    batches = 0
    for _ in _offset_grid(rep, "ab" * 200, 300, 2):
        assert len(entries) <= 2
        entries.clear()
        batches += 1
    # 300 offsets of 2 starts each
    assert batches == math.ceil(600 / rows)


def test_offset_grid_yields_in_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(scans, "_GRID_ROWS", 50)
    with np.errstate(all="raise"):
        caller = np.geterr()
        batches = 0
        for _ in _offset_grid(markoff(), "ab" * 200, 300, 2):
            assert np.geterr() == caller
            batches += 1
    assert batches > 1


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
        oracle = _brute_circular_runs(grid.tolist(), float(K), prof.step,
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


def test_fricke_traces_walk_past_the_recursion_limit():
    # a recursive descent raised RecursionError from cap 1000 on
    pairs = blocks._class_pairs(1000)
    out = fricke_traces(3.0, 3.0, 3.0, 1000)
    assert len(out) == len(pairs) and all(pq in out for pq in pairs)


def test_fricke_traces_match_the_benchmark_oracle(monkeypatch):
    # perfbench/validate.py walks the tree on its own, in integers
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "benchmark_validate", ROOT / "perfbench" / "validate.py")
    validate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validate)
    assert fricke_traces(3, 3, 3, 20) == validate.fricke_traces(3, 3, 3, 20)


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


def rotation_frames(rep, gamma, edges):
    """Frame j of gamma for each rotation j: (axis of rho(rotate(gamma,
    j)), edges[gamma[j]]), with `edges` from `scans._leaf_edges`: one
    `Geodesic` per rotation, the reference for the closed forms of
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
    """`ps_scan`'s records from the frames of `rotation_frames`, the
    reference for its closed forms: the tube as the largest
    `dist_to_geodesic(o, axis)` and each foot increment as the
    `geodesic_metrics` coordinate of the end of its leaf edge on that
    axis."""
    records = []
    o = rep.basepoint
    edges = scans._leaf_edges(rep)
    for gamma, kind, head in scans._scanned_classes(rep, max_denominator,
                                                    words=True):
        rate = head["tl"] / head["len"]
        frames = None
        if kind == "loxodromic":
            try:
                frames = rotation_frames(rep, gamma, edges)
            except NotLoxodromic:
                pass
        if frames is None:
            records.append({
                **head, "rate": rate, "osc": None, "period_error": None,
                "tube": None, "flags": ["not-loxodromic"],
            })
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
        records.append({
            **head, "rate": rate, "osc": osc, "period_error": period_error,
            "tube": tube, "flags": flags,
        })
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
    random_h3_rep(5, OFF_ORIGIN), diagonal_rep()],
    ids=["markoff", "eta=0.1", "eta=0.01", "h3-1", "h3-2", "h3-5",
         "diagonal"])
def test_ps_scan_matches_the_frame_reference(rep):
    # every record at cap 20; on the diagonal rep every rotation image
    # has c = 0, so one fixed point of each is INF
    got = ps_scan(rep, 20).records
    want = frame_ps_records(rep, 20)
    assert len(got) == len(want) == 257
    for g, w in zip(got, want):
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
# axis (entry fractions against a normalized point action); the largest
# gap measured on these reps, over every class word up to cap 12, is
# 3.0e-15, about 30 times below this
EXCURSION_TOL = 1e-13
MARKOFF_SLOPES = [(8, 5), (55, 34), (199, 200), (-5, 8)]


@pytest.mark.parametrize("rep, slopes", [
    (markoff(), MARKOFF_SLOPES),
    *[(rep, [(8, 5), (3, 2), (-5, 8)]) for rep in (
        criterion_9_rep(0.1), criterion_9_rep(0.01), diagonal_rep(),
        random_h3_rep(1, OFF_ORIGIN), random_h3_rep(2, OFF_ORIGIN),
        random_h3_rep(5, OFF_ORIGIN))]],
    ids=["markoff", "eta=0.1", "eta=0.01", "diagonal", "h3-1", "h3-2",
         "h3-5"])
def test_excursion_matches_the_frame_reference(rep, slopes):
    # every sample, a point off the grid in each edge and the seams; on
    # the diagonal rep every rotation image has c = 0
    for p, q in slopes:
        gamma = build_blocks(p, q).word
        prof = excursion_profile(rep, gamma, step=0.25)
        off_grid = np.arange(prof.period) + 0.3
        got = [*prof.values.tolist(), *(prof.value(u) for u in off_grid)]
        want = frame_excursion_values(rep, gamma, [*prof.us, *off_grid])
        for u, g, w in zip([*prof.us, *off_grid], got, want):
            assert abs(g - w) <= EXCURSION_TOL * max(1.0, w), (p, q, u, g, w)
        assert prof.periodicity_defect() <= 1e-12, (p, q)


def test_rotation_axes_are_the_fixed_points():
    # the fractions m / 2c and -2b / m against `geometry.fixed_points`:
    # m / 2c attracts when sign > 0, and it is INF where c = 0
    rng = np.random.default_rng(22)
    general = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
    general /= np.sqrt(general[:, 0] * general[:, 3]
                       - general[:, 1] * general[:, 2])[:, None]
    upper = general.copy()
    upper[:, 2], upper[:, 3] = 0.0, 1.0 / upper[:, 0]
    for images in (general, upper):
        b, c, m, s, sign = scans._rotation_axes(images)
        for X, bj, cj, mj, sj, signj in zip(images.tolist(), b.tolist(),
                                            c.tolist(), m.tolist(),
                                            s.tolist(), sign.tolist()):
            over_c = geometry.INF if cj == 0 else mj / (2 * cj)
            roots = (over_c, -2 * bj / mj)
            want = geometry.fixed_points(X)
            got = roots if signj > 0 else roots[::-1]
            for g, w in zip(got, want):
                if w is geometry.INF:
                    assert g is geometry.INF, (X, got, want)
                else:
                    assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), \
                        (X, got, want)
            if cj != 0:    # |alpha - beta| = |s / c|
                assert abs(got[0] - got[1]) == pytest.approx(abs(sj / cj),
                                                             rel=1e-12)


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
