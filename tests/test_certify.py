import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primscan import certify
from primscan.certify import (
    PathBound,
    SamplerError,
    check_quadrilateral,
    detour_verify,
    measure_detour,
    path_lower_bound,
    quadrilateral_check,
    segment_gap,
    _chord_limit,
    _sample_detour_path,
    _segment_clearance,
)
from primscan.geometry import (
    Geodesic,
    HPoint,
    INF,
    Segment,
    dist_to_geodesic,
    dist_to_segment,
    distance,
    fermi_point,
    geodesic_metrics,
    minimize_convex,
)

AXIS = Geodesic(INF, 0.0)


# ---------------------------------------------------------------- bounds

def test_near_regime_worked_example():
    pb = path_lower_bound(d=40.0, C=1.0, delta=1.0, regime="near")
    assert pb.bound == pytest.approx(16382.0, abs=1e-9)
    assert pb.regime == "near"
    assert pb.n is None


def test_near_regime_uses_max_of_c_and_delta():
    # C below delta is lifted to delta before entering the exponent
    small = path_lower_bound(d=40.0, C=0.0, delta=1.0, regime="near")
    assert small.bound == pytest.approx(16382.0, abs=1e-9)
    big = path_lower_bound(d=40.0, C=3.0, delta=1.0, regime="near")
    assert big.bound == pytest.approx((2.0 ** 12 - 2.0), abs=1e-9)


def test_close_regime_clamps_to_zero():
    assert path_lower_bound(K=3.0, delta=1.0, regime="close").bound == 0.0
    assert path_lower_bound(K=0.5, delta=1.0, regime="close").bound == 0.0


def test_close_regime_positive():
    pb = path_lower_bound(K=5.0, delta=1.0, regime="close")
    assert pb.bound == pytest.approx(2.0, abs=1e-12)


def test_general_regime_formula():
    pb = path_lower_bound(d=30.0, K=4.0, Kx=2.0, Ky=3.0, delta=1.0,
                          regime="general")
    expected = (2.0 ** ((30.0 - 2.0 - 3.0 + 8.0) / 2.0 - 5.0) - 2.0)
    assert pb.bound == pytest.approx(expected, rel=1e-12)


def test_far_regime_worked_example():
    pb = path_lower_bound(d=100.0, K=10.0, C=1.0, delta=1.0, regime="far")
    assert pb.bound == pytest.approx(420.0, abs=1e-9)
    assert pb.n == 5
    assert pb.chain_bound == pytest.approx(504.0, abs=1e-9)
    assert pb.diameter_cap == pytest.approx(112.0, abs=1e-9)
    # the chain pair implies the closed form
    assert pb.chain_bound >= pb.bound


def test_far_regime_vacuous_when_clearance_small():
    # 2^(K/delta - 3) - 2 <= 0 for K <= 4 delta: both bounds clamp
    pb = path_lower_bound(d=100.0, K=3.0, C=1.0, delta=1.0, regime="far")
    assert pb.bound == 0.0
    assert pb.chain_bound == 0.0
    assert pb.n >= 2


def test_far_chain_count_consistent_with_cap():
    for d in (20.0, 50.0, 123.4, 400.0):
        pb = path_lower_bound(d=d, K=10.0, C=1.0, delta=1.0, regime="far")
        assert pb.n >= 2
        assert d <= pb.diameter_cap + 1e-9


def test_small_pieces_consistency():
    # at d = Kx + Ky + 6*delta the general bound dominates the close bound
    rng = np.random.default_rng(3)
    for _ in range(100):
        delta = float(rng.uniform(0.2, 2.0))
        k = float(rng.uniform(0.0, 8.0))
        kx = float(rng.uniform(0.0, 6.0))
        ky = float(rng.uniform(0.0, 6.0))
        d = kx + ky + 6.0 * delta
        general = path_lower_bound(d=d, K=k, Kx=kx, Ky=ky, delta=delta,
                                   regime="general").bound
        close = path_lower_bound(K=k, delta=delta, regime="close").bound
        assert general >= close - 1e-9


def test_bound_validation():
    with pytest.raises(ValueError, match="delta"):
        path_lower_bound(d=1.0, delta=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        path_lower_bound(d=-1.0)
    with pytest.raises(ValueError, match="unknown regime"):
        path_lower_bound(d=1.0, regime="sideways")


# ------------------------------------------------------- quadrilaterals

def test_segment_gap_matches_dense_sampling():
    rng = np.random.default_rng(12)
    for _ in range(40):
        pts = [HPoint(float(rng.normal(scale=2.0)),
                      math.exp(float(rng.normal()))) for _ in range(4)]
        seg_a, seg_b = Segment(pts[0], pts[1]), Segment(pts[2], pts[3])
        got = segment_gap(seg_a, seg_b)
        step = seg_a.length / 599
        sampled = min(
            dist_to_segment(seg_a.point_at(s), seg_b)
            for s in np.linspace(0.0, seg_a.length, 600))
        # the sampled minimum over a 1-Lipschitz function is within one
        # grid step of the true minimum (and never below it)
        assert got <= sampled + 1e-9
        assert got >= sampled - step


# segment_gap takes the least of a finite candidate set; the golden-section
# search along seg_a that it replaced is the reference.  The search returns
# an achieved value within its 1e-10 bracket of the gap, so the closed form
# may sit below it by that much but above it only by rounding.

def _reference_segment_gap(seg_a, seg_b):
    if seg_a.length < 1e-12:
        return dist_to_segment(seg_a.p, seg_b)
    _, gap = minimize_convex(
        lambda s: dist_to_segment(seg_a.point_at(s), seg_b),
        0.0, seg_a.length)
    return gap


def _endpoint_distances(seg_a, seg_b):
    return [dist_to_segment(seg_a.p, seg_b), dist_to_segment(seg_a.q, seg_b),
            dist_to_segment(seg_b.p, seg_a), dist_to_segment(seg_b.q, seg_a)]


def _arc(m, radius, theta_lo, theta_hi):
    """The segment of the geodesic with centre m and radius `radius`
    between two angles."""
    return Segment(*(HPoint(m + radius * math.cos(th), radius * math.sin(th))
                     for th in (theta_lo, theta_hi)))


def _assert_matches_reference(seg_a, seg_b, got):
    want = _reference_segment_gap(seg_a, seg_b)
    assert want - 1e-9 <= got <= want + 1e-12


def test_segment_gap_matches_the_line_search_on_random_pairs():
    rng = np.random.default_rng(31)
    zs = rng.normal(scale=2.0, size=(5000, 4)).tolist()
    ts = np.exp(rng.normal(scale=1.2, size=(5000, 4))).tolist()
    for z, t in zip(zs, ts):
        pts = [HPoint(a, b) for a, b in zip(z, t)]
        seg_a, seg_b = Segment(pts[0], pts[1]), Segment(pts[2], pts[3])
        _assert_matches_reference(seg_a, seg_b, segment_gap(seg_a, seg_b))


# seg_b on the vertical axis; seg_a on the geodesic with centre 3 and radius
# 1, whose common perpendicular with the axis has its foot at cos(theta) =
# -1/3 on seg_a and at height sqrt(8) on the axis, and length asinh(sqrt(8))
PERP = math.asinh(math.sqrt(8.0))
PERP_FOOT = math.acos(-1.0 / 3.0)


def test_segment_gap_of_crossing_segments_is_zero():
    seg_a = Segment(HPoint(-1.0, 1.0), HPoint(1.0, 1.0))
    seg_b = Segment(HPoint(0.0, 0.5), HPoint(0.0, 3.0))
    assert segment_gap(seg_a, seg_b) == 0.0
    assert segment_gap(seg_b, seg_a) == 0.0
    assert min(_endpoint_distances(seg_a, seg_b)) > 0.3


def test_segment_gap_takes_the_common_perpendicular_inside_both():
    seg_a = _arc(3.0, 1.0, PERP_FOOT - 0.4, PERP_FOOT + 0.5)
    seg_b = Segment(HPoint(0.0, 0.2), HPoint(0.0, 5.0))
    for got in (segment_gap(seg_a, seg_b), segment_gap(seg_b, seg_a)):
        assert got == pytest.approx(PERP, abs=1e-12)
        assert got < min(_endpoint_distances(seg_a, seg_b)) - 0.01
    _assert_matches_reference(seg_a, seg_b, segment_gap(seg_a, seg_b))


@pytest.mark.parametrize("seg_a, seg_b", [
    # the foot on the axis, at height sqrt(8), lies above seg_b
    (_arc(3.0, 1.0, PERP_FOOT - 0.4, PERP_FOOT + 0.5),
     Segment(HPoint(0.0, 0.2), HPoint(0.0, 2.0))),
    # the foot on the arc lies before seg_a
    (_arc(3.0, 1.0, PERP_FOOT + 0.3, PERP_FOOT + 0.9),
     Segment(HPoint(0.0, 0.2), HPoint(0.0, 5.0))),
], ids=["foot-outside-b", "foot-outside-a"])
def test_segment_gap_takes_an_endpoint_when_a_foot_is_outside(seg_a, seg_b):
    got = segment_gap(seg_a, seg_b)
    assert got == min(_endpoint_distances(seg_a, seg_b))
    assert got > PERP + 0.01
    _assert_matches_reference(seg_a, seg_b, got)


@pytest.mark.parametrize("seg_a", [
    Segment(HPoint(1.0, 0.5), HPoint(1.0, 4.0)),   # both end at INF
    _arc(1.0, 1.0, 1.0, 2.0),                        # both end at 0
], ids=["at-infinity", "at-zero"])
def test_segment_gap_of_asymptotic_geodesics_takes_an_endpoint(seg_a):
    seg_b = Segment(HPoint(0.0, 0.3), HPoint(0.0, 6.0))
    got = segment_gap(seg_a, seg_b)
    assert got == min(_endpoint_distances(seg_a, seg_b))
    _assert_matches_reference(seg_a, seg_b, got)


@pytest.mark.parametrize("up", [True, False])
def test_segment_gap_on_a_geodesic_through_infinity(up):
    # a vertical seg_b at x = 0.5: its geodesic is Geodesic(INF, 0.5) when
    # it runs upward and Geodesic(0.5, INF) when it runs down
    ends = (HPoint(0.5, 0.2), HPoint(0.5, 5.0))
    seg_b = Segment(*(ends if up else ends[::-1]))
    assert INF in seg_b._g.endpoints
    seg_a = _arc(3.5, 1.0, PERP_FOOT - 0.4, PERP_FOOT + 0.5)
    assert segment_gap(seg_a, seg_b) == pytest.approx(PERP, abs=1e-12)
    crossing = Segment(HPoint(-0.5, 1.0), HPoint(1.5, 1.0))
    assert segment_gap(crossing, seg_b) == 0.0


def test_segment_gap_of_degenerate_segments():
    p, r = HPoint(0.7, 1.3), HPoint(-0.4, 2.1)
    seg = Segment(HPoint(-1.0, 0.5), HPoint(2.0, 0.8))
    point = Segment(p, p)
    assert segment_gap(point, seg) == dist_to_segment(p, seg)
    assert segment_gap(seg, point) == dist_to_segment(p, seg)
    assert segment_gap(point, Segment(r, r)) == distance(p, r)


def test_segment_gap_refuses_points_off_h2():
    seg = Segment(HPoint(0.0, 1.0), HPoint(1.0, 2.0))
    off = Segment(HPoint(0.1 + 0.2j, 1.0), HPoint(1.0, 1.0))
    for pair in ((off, seg), (seg, off)):
        with pytest.raises(ValueError, match="H\\^2 only"):
            segment_gap(*pair)


@pytest.mark.parametrize("seed", [0, 1, 5, 11, 2026])
def test_quadrilateral_records_match_the_line_search(monkeypatch, seed):
    got = quadrilateral_check(1000, seed=seed).records
    monkeypatch.setattr(certify, "segment_gap", _reference_segment_gap)
    want = quadrilateral_check(1000, seed=seed).records
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["branch"], g["ok"], g["failed"]) == (
            w["branch"], w["ok"], w["failed"])
        assert g["gap"] == pytest.approx(w["gap"], abs=1e-9)


def test_points_on_the_line_project_to_themselves():
    line = Geodesic(2.0, -1.0)
    x, y = line.point_at(-1.7), line.point_at(2.4)
    record = check_quadrilateral(x, y, line, delta=1.0)
    assert record["ok"]
    assert record["branch"] == "close"
    assert record["Kx"] == pytest.approx(0.0, abs=1e-9)
    assert record["d1"] == pytest.approx(record["d"], abs=1e-9)


def test_equal_height_far_apart_hits_the_close_branch():
    # two points at clearance 6 whose chord dips toward the axis: the
    # lower bound d >= Kx + Ky - 4*delta is nontrivial and satisfied
    x = fermi_point(-4.0, 6.0)
    y = fermi_point(4.0, 6.0)
    record = check_quadrilateral(x, y, AXIS, delta=1.0)
    assert record["ok"]
    assert record["branch"] == "close"
    assert record["Kx"] == pytest.approx(6.0, abs=1e-9)
    assert record["Ky"] == pytest.approx(6.0, abs=1e-9)
    assert record["d"] >= 6.0 + 6.0 - 4.0


def test_nearby_points_high_above_hit_the_apart_branch():
    x = HPoint(5.0, 0.1)
    y = HPoint(5.3, 0.11)
    record = check_quadrilateral(x, y, AXIS, delta=1.0)
    assert record["ok"]
    assert record["branch"] == "apart"
    assert record["d1"] <= 8.0


def test_coincident_feet_degenerate_projected_segment():
    x, y = HPoint(-2.0, 1.0), HPoint(2.0, 1.0)
    record = check_quadrilateral(x, y, AXIS, delta=1.0)
    assert record["ok"]
    assert record["d1"] == pytest.approx(0.0, abs=1e-9)


def test_quadrilateral_monte_carlo_clean():
    report = quadrilateral_check(1000, delta=1.0, seed=11)
    assert report.passed
    assert report.trials == 1000
    assert set(report.branches) == {"close", "apart"}
    assert min(report.branches.values()) > 50


def test_quadrilateral_check_deterministic():
    a = quadrilateral_check(50, delta=1.0, seed=4)
    b = quadrilateral_check(50, delta=1.0, seed=4)
    assert a.records == b.records


# --------------------------------------------------------------- detours
#
# The sampler and measure_detour work on float lists (zs, ts), and
# _segment_clearance on the floats of two points; these helpers take and
# give HPoint lists, z real.

def _floats(vertices):
    return [p.z.real for p in vertices], [p.t for p in vertices]


def _points(zs, ts):
    return [HPoint(z, t) for z, t in zip(zs, ts)]


def _clearance(p, q):
    return _segment_clearance(p.z.real, p.t, q.z.real, q.t)


def _measure(vertices, delta):
    return measure_detour(*_floats(vertices), delta=delta)


def test_segment_clearance_matches_line_search():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = HPoint(float(rng.uniform(0.01, 4.0)), math.exp(float(rng.normal())))
        q = HPoint(float(rng.uniform(0.01, 4.0)), math.exp(float(rng.normal())))
        seg = Segment(p, q)
        if seg.length < 1e-9:
            continue
        _, oracle = minimize_convex(
            lambda s: dist_to_geodesic(seg.point_at(s), AXIS),
            0.0, seg.length)
        assert _clearance(p, q) == pytest.approx(oracle, abs=1e-7)
        # mirrored onto the other side the clearance is unchanged
        assert _clearance(
            HPoint(-p.z.real, p.t), HPoint(-q.z.real, q.t)
        ) == pytest.approx(oracle, abs=1e-7)


def test_segment_clearance_degenerate_cases():
    assert _clearance(HPoint(-1.0, 1.0), HPoint(2.0, 1.0)) == 0.0
    assert _clearance(HPoint(0.0, 1.0), HPoint(0.0, 3.0)) == 0.0
    # vertical chord: the minimum sits at the top endpoint
    got = _clearance(HPoint(1.0, 1.0), HPoint(1.0, 4.0))
    assert got == pytest.approx(math.asinh(0.25), abs=1e-12)


def test_degenerate_detour_passes_trivially():
    p = fermi_point(0.0, 2.0)
    m = _measure([p, p], delta=1.0)
    assert m.satisfied
    assert m.d == pytest.approx(0.0, abs=1e-12)
    assert m.bound.bound == 0.0


def test_measure_detour_refuses_a_path_off_the_plane():
    with pytest.raises(ValueError, match="at least two vertices"):
        measure_detour([1.0], [1.0])
    with pytest.raises(ValueError, match="2 heights for 3 vertices"):
        measure_detour([1.0, 2.0, 3.0], [1.0, 1.0])
    bad = [([1.0, math.nan], [1.0, 1.0]), ([1.0, -math.inf], [1.0, 1.0]),
           ([1.0, 2.0], [1.0, 0.0]), ([1.0, 2.0], [-1.0, 1.0]),
           ([1.0, 2.0], [1.0, math.inf]), ([1.0, 2.0], [math.nan, 1.0])]
    for zs, ts in bad:
        with pytest.raises(ValueError, match="positive, finite height"):
            measure_detour(zs, ts)


def test_geodesic_arc_detour_at_clearance_two():
    # a single geodesic arc whose dip stays above clearance 2, discretized
    # into 200 chords: the sum of the chords is the arc length
    rho = 2.6
    half = math.acosh(math.tanh(rho) / math.tanh(2.05))
    arc = Segment(fermi_point(-half, rho), fermi_point(half, rho))
    vertices = [arc.point_at(s) for s in np.linspace(0.0, arc.length, 201)]
    m = _measure(vertices, delta=1.0)
    assert m.satisfied
    assert m.clearance >= 2.0
    assert m.length == pytest.approx(m.d, abs=1e-6)


def test_hypercycle_detour_measures_cosh_stretch():
    # riding the equidistant curve at clearance rho costs a factor
    # cosh(rho) over the geodesic that it shadows
    rho, span = 2.0, 3.0
    us = np.linspace(0.0, span, 400)
    vertices = [fermi_point(float(u), rho) for u in us]
    m = _measure(vertices, delta=1.0)
    assert m.satisfied
    assert m.length == pytest.approx(span * math.cosh(rho), rel=1e-4)


def test_detour_monte_carlo_clean():
    report = detour_verify(1000, delta=1.0, seed=7)
    assert report.passed
    assert report.trials == 1000
    assert "far" in report.branches and "near" in report.branches
    ks = {r["K"] for r in report.records}
    assert ks == {1.0, 2.0, 3.0, 4.0, 5.0}
    nontrivial = [r for r in report.records
                  if r["bound"] > 0.0 or (r["chain_bound"] or 0.0) > 0.0]
    assert len(nontrivial) > 20


def test_detour_fixed_clearance_target():
    report = detour_verify(60, K=2.0, C=1.0, delta=1.0, seed=9)
    assert report.passed
    assert all(r["K"] == 2.0 for r in report.records)
    assert all(r["clearance"] >= 2.0 for r in report.records)


def test_detour_verify_deterministic():
    a = detour_verify(40, delta=1.0, seed=21)
    b = detour_verify(40, delta=1.0, seed=21)
    assert a.records == b.records


def test_detour_draws_pin_the_standard_library_stream():
    # K is a randrange draw and C is 0.3 + 1.7 random(): no libm call
    # feeds them, only the stream and how many draws each path took (all
    # ten trials here take near paths, of 2 to 8 steps).  A change of
    # CPython's random stream fails here first
    report = detour_verify(10, seed=7)
    assert [(r["K"], r["C"]) for r in report.records] == [
        (3.0, 1.9113711130354074), (1.0, 0.7091271002159425),
        (2.0, 0.7923357867638496), (1.0, 1.2765203074397407),
        (5.0, 1.2741440984715526), (3.0, 0.33835697769450057),
        (4.0, 0.43698821204023564), (3.0, 1.920266473392662),
        (1.0, 0.3003965792323063), (5.0, 0.9190778471980801)]


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_harnesses_refuse_a_seed_that_is_not_a_natural_number(seed):
    # random.Random would take -1 as 1, a float or a string by its hash,
    # and None as a seed from the system's entropy
    for harness in (detour_verify, quadrilateral_check):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, "
                                             f"got {re.escape(repr(seed))}"):
            harness(1, seed=seed)


def test_detour_verify_refuses_k_with_subnormal_tanh():
    # the smallest normal float is the smallest K whose tanh is normal
    smallest = 2.2250738585072014e-308
    assert math.tanh(smallest) == smallest
    for K in (5e-324, math.nextafter(smallest, 0.0)):
        with pytest.raises(ValueError, match=f"at least {smallest!r}"):
            detour_verify(1, K=K)
    # accepted, then past the float range in the sampler
    with pytest.raises(SamplerError, match="float range"):
        detour_verify(1, K=smallest)


def _worst_far_steps(K, C, delta):
    """Most steps a far-regime path can take, with exact functions: every
    step at the smallest fraction 0.55 of the chord limit at the band
    bottom, both ends at that bottom, and the far target at its top."""
    lo = K + 0.05 * min(1.0, C) + 0.6 * C
    target = 2.0 * (K + C) + 18.0 * delta + 4.0
    u = math.acosh(1.0 + (math.cosh(target) - 1.0) / math.cosh(lo) ** 2)
    return math.ceil(u / (0.55 * _chord_limit(math.tanh(lo), math.tanh(K))))


@pytest.mark.parametrize("delta", [0.01, 0.25, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("C", [0.01, 0.3, 1.5, 3.0, 20.0])
def test_far_k_limit_keeps_every_path_under_the_step_cap(C, delta):
    k_max = certify._max_far_k(C, C, delta)
    assert _worst_far_steps(k_max, C, delta) <= certify._MAX_FAR_STEPS
    # the default far draws, C in [1.2, 2], are covered at both ends
    k_max = certify._max_far_k(1.2, 2.0, delta)
    for c in (1.2, 2.0):
        assert _worst_far_steps(k_max, c, delta) <= certify._MAX_FAR_STEPS


# delta at least the thin-triangle constant of H^2, ln(1 + sqrt 2) ~ 0.88,
# below which the path bounds need not hold
@pytest.mark.parametrize("delta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("C", [0.3, 1.5, 3.0])
def test_detour_serves_every_accepted_k(C, delta):
    k_max = certify._max_far_k(C, C, delta)
    for K in (0.25 * k_max, 0.5 * k_max, 0.75 * k_max, k_max):
        # near-regime paths move: their chord limit is not rounded to 0
        assert _chord_limit(math.tanh(K + 0.05 * min(1.0, C)),
                            math.tanh(K)) > 0.0
        for seed in range(2):
            zs, ts = _sample_detour_path(random.Random(seed), K, C, delta,
                                         True)
            m = measure_detour(zs, ts, delta=delta)
            assert m.satisfied and m.bound.regime == "far"
            # the far bound is vacuous exactly where its formula is
            assert (m.bound.bound > 0.0) == (m.clearance > 4.0 * delta)
        assert detour_verify(10, K=K, C=C, delta=delta, seed=3).passed
    with pytest.raises(ValueError, match="K must be at most"):
        detour_verify(1, K=math.nextafter(k_max, math.inf), C=C, delta=delta)


def test_detour_refuses_the_k_that_failed_to_spread():
    # K = 7 exhausted the step cap at the default C draws
    for K in (7.0, 25.0):
        with pytest.raises(ValueError, match=f"got K={K:g}$"):
            detour_verify(200, K=K, seed=1)
    # with K drawn, the far-regime draw K = 5 is checked, here at C = 0,
    # where no path moves
    with pytest.raises(ValueError, match="got K=5 \\(the far-regime draw\\)"):
        detour_verify(1, C=0.0)


# ------------------------------------------- sampler against its reference
#
# The sampler scales its step draws inline, keeps its vertices as floats
# and tests the far-regime stop with the exact distance only past a
# triangle bound; measure_detour takes the clearances and lengths in one
# pass over floats, and the clearance takes its minimum without a
# candidate list.  The scalar versions below, one rng.uniform call and one
# HPoint per vertex, are the references: both must give the same
# vertices, clearances, records and stream position, bit for bit.

def _reference_sample_detour_path(rng, K, C, delta, far):
    side = 1.0 if rng.random() < 0.5 else -1.0
    lo = K + 0.05 * min(1.0, C) + (0.6 * C if far else 0.0)
    hi = K + C
    far_target = 2.0 * hi + 18.0 * delta + rng.uniform(1.0, 4.0)
    step_lo, step_hi = (0.55, 0.95) if far else (0.25, 0.8)
    segments = rng.randrange(2, 9)
    rho = rng.uniform(lo, hi)
    u = 0.0
    vertices = [fermi_point(u, rho, side)]
    while True:
        next_rho = rng.uniform(lo, hi)
        limit = _chord_limit(math.tanh(min(rho, next_rho)), math.tanh(K))
        u += rng.uniform(step_lo, step_hi) * limit
        rho = next_rho
        vertices.append(fermi_point(u, rho, side))
        if far:
            if distance(vertices[0], vertices[-1]) > far_target:
                break
            if len(vertices) > 6000:
                raise SamplerError("far-regime path failed to spread")
        elif len(vertices) > segments:
            break
    return vertices


def _reference_segment_clearance(p, q):
    zp, zq = p.z.real, q.z.real
    tp, tq = p.t, q.t
    if zp == 0.0 and zq == 0.0:
        return 0.0
    if zp * zq <= 0.0:
        return 0.0
    if zp < 0.0:
        zp, zq = -zp, -zq
    if abs(zp - zq) <= 1e-14 * (tp + tq):
        return math.asinh(0.5 * (zp + zq) / max(tp, tq))
    m = (zq * zq + tq * tq - zp * zp - tp * tp) / (2.0 * (zq - zp))
    radius = math.hypot(zp - m, tp)
    lo, hi = sorted((math.atan2(tp, zp - m), math.atan2(tq, zq - m)))
    k = m / radius
    if k <= 1.0:
        crossing = math.acos(max(-1.0, min(1.0, -k)))
        if lo - 1e-15 <= crossing <= hi + 1e-15:
            return 0.0
        candidates = []
    else:
        stationary = math.acos(-1.0 / k)
        candidates = [math.sqrt(k * k - 1.0)] if lo <= stationary <= hi else []
    candidates += [(k + math.cos(th)) / math.sin(th) for th in (lo, hi)]
    return math.asinh(min(candidates))


def _reference_measure_detour(vertices, delta):
    k_x = math.asinh(abs(vertices[0].z) / vertices[0].t)
    k_y = math.asinh(abs(vertices[-1].z) / vertices[-1].t)
    clearance = min(_reference_segment_clearance(p, q)
                    for p, q in zip(vertices, vertices[1:]))
    excess = max(k_x, k_y) - clearance
    d = distance(vertices[0], vertices[-1])
    length = sum(distance(p, q) for p, q in zip(vertices, vertices[1:]))
    regime = "near" if d <= 2.0 * clearance + 6.0 * delta else "far"
    bound = path_lower_bound(d=d, K=clearance, C=max(excess, 1e-12),
                             delta=delta, regime=regime)
    ok = length >= bound.bound - 1e-7
    if regime == "far":
        ok = ok and length >= bound.chain_bound - 1e-7
        ok = ok and d <= bound.diameter_cap + 1e-7
    return certify.DetourMeasurement(d, length, clearance, excess, k_x, k_y,
                                     bound, ok)


def _path_or_error(sampler, rng, K, C, far):
    try:
        return sampler(rng, K, C, 1.0, far)
    except SamplerError as e:
        return str(e)


def _sampled_points(rng, K, C, delta, far):
    return _points(*_sample_detour_path(rng, K, C, delta, far))


def _assert_same_stream(rng, ref_rng):
    """The whole generator state and the next draws agree."""
    assert rng.getstate() == ref_rng.getstate()
    assert rng.randrange(1000) == ref_rng.randrange(1000)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("K", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("C", [0.3, 1.5])
def test_sampler_matches_the_scalar_draw_reference(far, K, C):
    for seed in range(6 if far else 40):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _path_or_error(_sampled_points, rng, K, C, far)
        want = _path_or_error(_reference_sample_detour_path, ref_rng, K, C,
                              far)
        assert got == want
        if not isinstance(got, str):
            pairs = list(zip(got, got[1:]))
            assert ([_clearance(p, q) for p, q in pairs]
                    == [_reference_segment_clearance(p, q) for p, q in pairs])
            assert (_measure(got, delta=1.0)
                    == _reference_measure_detour(want, delta=1.0))
        # the next draws pin the stream position
        _assert_same_stream(rng, ref_rng)


@pytest.mark.parametrize("K, C", [(5.0, 1.5), (2.0, 1.0), (1.0, 0.3)])
def test_consecutive_far_paths_keep_the_stream(K, C):
    # one generator for several far paths: a path that took one draw too
    # many or too few would move every later path
    rng, ref_rng = random.Random(4), random.Random(4)
    for _ in range(6):
        got = _path_or_error(_sampled_points, rng, K, C, True)
        want = _path_or_error(_reference_sample_detour_path, ref_rng, K, C,
                              True)
        assert got == want
    _assert_same_stream(rng, ref_rng)


def test_sampler_keeps_the_stream_when_it_refuses():
    # a K that the step cap refuses (detour_verify turns it away up
    # front), and one whose first step leaves the float range
    for K, C in ((8.0, 1.5), (2.2250738585072014e-308, 1.0)):
        for far in (False, True):
            rng, ref_rng = random.Random(1), random.Random(1)
            got = _path_or_error(_sampled_points, rng, K, C, far)
            try:
                want = _path_or_error(_reference_sample_detour_path, ref_rng,
                                      K, C, far)
            except OverflowError:
                want = "detour path left the float range"
            assert got == want
            _assert_same_stream(rng, ref_rng)


def test_segment_clearance_matches_its_reference_on_random_pairs():
    rng = np.random.default_rng(17)
    zs = rng.normal(scale=2.0, size=(20_000, 2))
    ts = np.exp(rng.normal(scale=1.5, size=(20_000, 2)))
    for (zp, zq), (tp, tq) in zip(zs.tolist(), ts.tolist()):
        for p, q in ((HPoint(zp, tp), HPoint(zq, tq)),
                     (HPoint(abs(zp), tp), HPoint(abs(zq), tq)),
                     (HPoint(zp, tp), HPoint(zp, tq))):
            assert _clearance(p, q) == _reference_segment_clearance(p, q)


# a fixed K takes no draw of its own per trial, only the path's draws
@pytest.mark.parametrize("seed, K", [(0, None), (3, None), (8, None),
                                     (13, None), (2026, None), (4, 5.0)],
                         ids=["0", "3", "8", "13", "2026", "4-K5"])
def test_detour_verify_records_match_the_reference_sampler(monkeypatch,
                                                           seed, K):
    got = detour_verify(200, K=K, seed=seed).records
    monkeypatch.setattr(
        certify, "_sample_detour_path",
        lambda *args: _floats(_reference_sample_detour_path(*args)))
    monkeypatch.setattr(
        certify, "measure_detour",
        lambda zs, ts, delta: _reference_measure_detour(_points(zs, ts),
                                                        delta))
    assert got == detour_verify(200, K=K, seed=seed).records


@given(rho0=st.floats(0.0, 350.0), u=st.floats(-340.0, 340.0),
       rho=st.floats(0.0, 350.0), side=st.sampled_from([1.0, -1.0]))
def test_far_stop_bound_is_sound(rho0, u, rho, side):
    # d(v0, v) <= rho0 + |u| + rho by the triangle inequality through the
    # feet of v0 and v on the axis; below that line the sampler skips the
    # exact stop test, so this bound must hold in floats as well
    d = distance(fermi_point(0.0, rho0, side), fermi_point(u, rho, side))
    bound = rho0 + abs(u) + rho
    assert d <= bound + 1e-12 * (1.0 + bound)
