"""Quantitative thin-quadrilateral and detour-length certification in H^2.

Two families of facts about a delta-hyperbolic plane are made executable
here.  First, for points x, y with projections x1, y1 on a geodesic, the
shape of the quadrilateral (x, x1, y1, y) obeys a clean dichotomy governed
by the minimum gap between the segments [x, y] and [x1, y1]: either the
segments come 2*delta-close and d(x, y) is at least the sum of the
clearances minus 4*delta, or they stay apart and d(x, y) is at most that
sum plus 4*delta -- with matching bounds 8*delta / d - Kx - Ky + 12*delta
on the projected distance d(x1, y1).  Second, a rectifiable path that
avoids the K-neighborhood of a geodesic must be exponentially long in the
distance between its endpoints; `path_lower_bound` evaluates the bound in
each of its regimes and the Monte-Carlo harnesses `quadrilateral_check`
and `detour_verify` re-measure every constant on randomly generated
configurations and assert the inequalities outright.

The detour harness runs on bare floats.  A sampled path is the pair of
lists (zs, ts), the real horizontal coordinates and the heights of its
vertices, with no point object per vertex; `measure_detour` takes the
clearance minimum and the length of a path in one pass over them.

All sampling is seeded and deterministic.  The draws come from the
standard library's `random.Random(seed)`.
delta = 1 is a valid thinness constant for H^2, and every verified
inequality is monotone in delta, so the default is sound.  Below the
thin-triangle constant ln(1 + sqrt 2) the inequalities need not hold, so
the harnesses refuse such a delta.
"""

import math
import sys
from collections import namedtuple

from .geometry import (
    DEFAULT_DELTA,
    THIN_TRIANGLE_DELTA,
    Geodesic,
    HPoint,
    INF,
    Segment,
    dist_to_segment,
    fermi_coords,
    geodesic_metrics,
    offset_distance,
    _seeded,
)

REGIMES = ("near", "far", "close", "general")
# rounding slack on every asserted inequality of re-measured distances
_SLACK = 1e-7
# share of detour trials forced into the far regime, rare in free draws
_FAR_FRACTION = 0.08
# path draws per detour trial before the sampler gives up on its K
_MAX_RETRIES = 60
# rounding allowance on the triangle bound that gates the far-regime stop
# test: the bound and the exact distance are each within a few ulps of
# values below 1e4, about 1e-12, far less than this
_STOP_MARGIN = 1e-9
# smallest detour K: below it tanh K (= K there) is subnormal, and the
# chord limit's tanh rho / tanh K runs to inf
_MIN_K = sys.float_info.min
# largest detour clearance K + C: fermi_point's height e^u / cosh(rho)
# stays a normal float (cosh itself overflows past 710.5)
_MAX_CLEARANCE = 700.0
# steps of one far-regime path before the sampler gives up.  A step moves
# the foot coordinate u by at least 0.55 chord limits at the band bottom
# K + c, c = 0.05 min(1, C) + 0.6 C, and that chord limit is at least
# 4 e^-K sqrt(1 - e^-2c) (to 1e-6 relative for K <= 8; the exact limit
# is larger for small K).  The path stops once d(v0, v) > far_target,
# which is below 2(K + C) + 18 delta + 4; with both ends at clearance
# >= K + c, cosh d >= cosh^2(K + c)(cosh u - 1) + 1 gets there once
# u >= G = 18 delta + 4 + 2(C - c) + ln 4 (+ 0.01 for the dropped terms
# and that rounding).  So a path takes at most
# G e^K / (2.2 sqrt(1 - e^-2c)) steps, and the cap serves every K up to
#     K_max(C, delta) = ln(2.2 * _MAX_FAR_STEPS * sqrt(1 - e^-2c) / G),
# about 6.2 at C = 1.5 and delta = 1 (`_max_far_k`).  Typical paths take
# about 0.65 of that worst case: 3,050-3,320 steps at K = 6 there, where
# the bound is 4,878.
_MAX_FAR_STEPS = 6000


class SamplerError(RuntimeError):
    """The random path sampler exhausted its retry budget."""


class PathBound(namedtuple(
        "PathBound", "regime bound n chain_bound diameter_cap",
        defaults=(None, None, None))):
    """A lower bound on the length of a path avoiding N_K(geodesic).

    `bound` is the main bound for the regime; negative formula values are
    clamped to zero (a length bound below zero is vacuous).  For the far
    regime the chain decomposition is exposed as well: there are at least
    `n` chain points, the path is at least `chain_bound` long, and the
    endpoint distance is capped by `diameter_cap` = 18*n*delta + 2K + 2C.
    """

    __slots__ = ()


def _doubling(exponent, delta):
    return max(0.0, (2.0 ** exponent - 2.0) * delta)


def path_lower_bound(d=0.0, K=0.0, C=0.0, delta=DEFAULT_DELTA,
                     Kx=0.0, Ky=0.0, regime="near"):
    """Lower bound for the length of a path staying >= K away from a
    geodesic, by regime:

    - "near":    endpoints within K + C of the geodesic and d <= 2K + 6*delta;
                 bound (2^(d/(2 delta) - C'/delta - 5) - 2) delta, C' = max(C, delta).
    - "far":     endpoints within K + C and d > 2K + 6*delta; closed form
                 (1/18)(d - 2K - 2C - 18 delta)(2^(K/delta - 3) - 2) plus the
                 chain pair (n, (n-1)(2^(K/delta - 3) - 2) delta).
    - "close":   the segment [x, y] comes 2*delta-close to the projected
                 segment; bound (2^(K/delta - 3) - 2) delta.
    - "general": the segment [x, y] stays 2*delta-far from the projected
                 segment; bound (2^((d - Kx - Ky + 2K)/(2 delta) - 5) - 2) delta.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    inputs = {"d": d, "K": K, "C": C, "Kx": Kx, "Ky": Ky}
    for name, value in inputs.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"{name} must be nonnegative and finite, got {value}")
    try:
        bound = _regime_bound(d, K, C, delta, Kx, Ky, regime)
        finite = all(map(math.isfinite, (bound.bound, bound.chain_bound or 0.0,
                                         bound.diameter_cap or 0.0)))
    except OverflowError:
        finite = False
    if not finite:
        named = ", ".join(f"{name}={inputs[name]:g}"
                          for name in _REGIME_INPUTS[regime])
        raise ValueError(f"the {regime} bound exceeds the float range at "
                         f"{named}, delta={delta:g}")
    return bound


# the inputs each regime's formula reads, named when it overflows
_REGIME_INPUTS = {"near": ("d", "C"), "close": ("K",),
                  "general": ("d", "K", "Kx", "Ky"), "far": ("d", "K", "C")}


def _regime_bound(d, K, C, delta, Kx, Ky, regime):
    if regime == "near":
        c_prime = max(C, delta)
        return PathBound(regime, _doubling(
            d / (2.0 * delta) - c_prime / delta - 5.0, delta))
    if regime == "close":
        return PathBound(regime, _doubling(K / delta - 3.0, delta))
    if regime == "general":
        return PathBound(regime, _doubling(
            (d - Kx - Ky + 2.0 * K) / (2.0 * delta) - 5.0, delta))
    if regime == "far":
        piece = max(0.0, 2.0 ** (K / delta - 3.0) - 2.0)
        n = max(2, math.ceil((d - 2.0 * K - 2.0 * C) / (18.0 * delta)))
        closed = max(0.0, d - 2.0 * K - 2.0 * C - 18.0 * delta) * piece / 18.0
        return PathBound(regime, closed, n=n,
                         chain_bound=(n - 1) * piece * delta,
                         diameter_cap=18.0 * n * delta + 2.0 * K + 2.0 * C)
    raise ValueError(f"unknown regime: {regime!r}")


def segment_gap(seg_a, seg_b):
    """Minimum distance between two geodesic segments of H^2, in closed form.

    The gap is the least of a finite set of candidates:

    - 0, if the segments cross;
    - the four endpoint distances, from each endpoint of one segment to
      the other segment (`dist_to_segment`);
    - the length of the common perpendicular of the two geodesics, when
      they are ultraparallel and its feet land inside both segments.

    Every candidate is an achieved distance, so none is below the gap.
    Conversely, H^2 is CAT(-1), so s -> d(seg_a(s), seg_b) is convex and
    the gap is attained at a pair (x, y) of points of the two segments
    (Bridson-Haefliger II.2).  If x or y is an endpoint, the gap is an
    endpoint distance.  If both are interior, either x = y and the
    segments cross, or the geodesic [x, y] is perpendicular to both
    geodesics (first-order condition at each end).  Only ultraparallel
    geodesics have a common perpendicular, and theirs is unique.  So the
    least candidate is the gap.

    The crossing and the perpendicular are found from ideal endpoints.
    In the frame of `seg_b`'s geodesic, that geodesic is the vertical axis
    (`Segment.ideal_ends`, `Segment.spans`).  There `seg_a`'s
    geodesic is the arc with real ideal endpoints e1, e2: centre
    m = (e1 + e2)/2 and radius R = |e1 - e2|/2, so m^2 - R^2 = e1 e2.
    The geodesics cross when e1 e2 < 0, on the axis at height
    sqrt(R^2 - m^2) = sqrt(-e1 e2).  They are ultraparallel when e1 e2 > 0:
    the common perpendicular meets the axis at height
    sqrt(m^2 - R^2) = sqrt(e1 e2) and has length asinh(sqrt(e1 e2)/R) =
    asinh(2 sqrt(e1 e2)/|e1 - e2|), the ideal-end form that
    `_segment_clearance` takes for its foot as well.  The same
    test in the frame of `seg_a`'s geodesic places the point on `seg_a`.
    Geodesics that share an ideal point (e1 e2 = 0, or an endpoint sent to
    INF) are asymptotic, and only the endpoint distances count.

    Raises ValueError if an endpoint has non-real z (a point off H^2).
    """
    if any(p.z.imag for p in (seg_a.p, seg_a.q, seg_b.p, seg_b.q)):
        raise ValueError("segment_gap is closed-form in H^2 only: every "
                         "endpoint needs a real z")
    gap = min(dist_to_segment(seg_a.p, seg_b), dist_to_segment(seg_a.q, seg_b),
              dist_to_segment(seg_b.p, seg_a), dist_to_segment(seg_b.q, seg_a))
    ends = seg_b.ideal_ends(seg_a), seg_a.ideal_ends(seg_b)
    if ends[0] is None:    # a point has no geodesic
        return gap
    (e1, e2), (f1, f2) = ([x if x is INF else x.real for x in pair]
                          for pair in ends)
    if INF in (e1, e2, f1, f2):
        return gap
    on_b, on_a = e1 * e2, f1 * f2
    if on_b < 0.0 and on_a < 0.0:
        length = 0.0
    elif on_b > 0.0 and on_a > 0.0:
        length = math.asinh(2.0 * math.sqrt(on_b) / abs(e1 - e2))
    else:
        return gap    # a shared ideal point, or rounding next to one
    if (seg_b.spans(0.5 * math.log(abs(on_b)))
            and seg_a.spans(0.5 * math.log(abs(on_a)))):
        gap = min(gap, length)
    return gap


class TrialReport:
    """Outcome of a seeded Monte-Carlo verification run."""

    def __init__(self):
        self.trials = 0
        self.records = []
        self.violations = []
        self.branches = {}

    @property
    def passed(self):
        return not self.violations

    def tally(self, record, ok):
        self.trials += 1
        self.records.append(record)
        branch = record.get("branch") or record.get("regime")
        if branch is not None:
            self.branches[branch] = self.branches.get(branch, 0) + 1
        if not ok:
            self.violations.append(record)

    def aggregate(self):
        return {
            "trials": self.trials,
            "violations": len(self.violations),
            "branches": dict(sorted(self.branches.items())),
        }


def check_quadrilateral(x, y, line, delta=DEFAULT_DELTA):
    """Verify the quadrilateral dichotomies for one configuration.

    Returns a record dict; record["ok"] is False when any asserted
    inequality fails.  Both dichotomies classify on the same quantity:
    the minimum gap between [x, y] and the projected segment [x1, y1].
    Each inequality holds up to _SLACK.
    """
    mx = geodesic_metrics(x, line)
    my = geodesic_metrics(y, line)
    k_x, k_y = mx.dist, my.dist
    seg = Segment(x, y)
    d = seg.length
    feet = Segment.on_line(line, mx, my)
    d1 = feet.length
    gap = segment_gap(seg, feet)

    failures = []
    if gap <= 2.0 * delta:
        branch = "close"
        if not d >= k_x + k_y - 4.0 * delta - _SLACK:
            failures.append("d >= Kx + Ky - 4*delta")
        if not d1 <= d - k_x - k_y + 12.0 * delta + _SLACK:
            failures.append("d1 <= d - Kx - Ky + 12*delta")
    else:
        branch = "apart"
        if not d <= k_x + k_y + 4.0 * delta + _SLACK:
            failures.append("d <= Kx + Ky + 4*delta")
        if not d1 <= 8.0 * delta + _SLACK:
            failures.append("d1 <= 8*delta")
    if not d1 <= d + 12.0 * delta + _SLACK:
        failures.append("d1 <= d + 12*delta")
    if d <= k_x + k_y + 6.0 * delta and not d1 <= 18.0 * delta + _SLACK:
        failures.append("d1 <= 18*delta")

    return {
        "branch": branch, "d": d, "d1": d1, "Kx": k_x, "Ky": k_y,
        "gap": gap, "failed": failures, "ok": not failures,
    }


def _random_line(rng):
    if rng.random() < 0.15:
        return Geodesic(INF, rng.gauss(0.0, 2.0))
    while True:
        a, b = rng.gauss(0.0, 2.0), rng.gauss(0.0, 2.0)
        if abs(a - b) > 0.2:
            return Geodesic(a, b)


def _random_point(rng, line):
    if rng.random() < 0.1:
        return line.point_at(rng.gauss(0.0, 3.0))
    return HPoint(rng.gauss(0.0, 2.5), math.exp(rng.gauss(0.0, 1.2)))


def _check_thin_delta(delta):
    if not THIN_TRIANGLE_DELTA <= delta < math.inf:
        raise ValueError(
            f"delta must be finite and at least ln(1 + sqrt 2) = "
            f"{THIN_TRIANGLE_DELTA:.4f}, the thin-triangle constant of H^2, "
            f"got {delta}")


def quadrilateral_check(trials, delta=DEFAULT_DELTA, seed=0):
    """Monte-Carlo the quadrilateral dichotomies on random (x, y, line)
    configurations in H^2.  Every trial asserts the branch inequalities
    plus the unconditional d1 <= d + 12*delta and, when
    d <= Kx + Ky + 6*delta, d1 <= 18*delta."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_thin_delta(delta)
    rng = _seeded(seed)
    report = TrialReport()
    for _ in range(trials):
        line = _random_line(rng)
        record = check_quadrilateral(
            _random_point(rng, line), _random_point(rng, line),
            line, delta=delta)
        report.tally(record, record["ok"])
    return report


def _segment_clearance(zp, tp, zq, tq):
    """Minimum distance to the vertical axis from the segment of H^2
    between the points (zp, tp) and (zq, tq), z real and t the height.

    Closed form on the ideal ends e1, e2 of the chord's geodesic, as in
    `segment_gap`: sinh of the distance is |z|/t at each end and
    2 sqrt(e1 e2)/|e1 - e2| at the foot z = e1 e2/m of the common
    perpendicular (m the centre), the least value on the whole geodesic,
    which counts only when e1 e2 > 0 and the foot lies strictly between
    zp and zq.  With D = zq - zp,
        e1 e2 = zp zq - tp^2 + zp (tq - tp)(tq + tp)/D,
        |e1 - e2| = |p - q| |p - conj(q)|/|D|,
    every difference taken once, from the lower end p, in units of zp (a
    dilation keeps every distance), so no scale overflows and short
    chords keep their digits.
    """
    if zp < 0.0:    # mirror to the z > 0 side
        zp, zq = -zp, -zq
    if not (zp > 0.0 and zq > 0.0):
        return 0.0    # an end on the axis, or the chord meets it
    if tq < tp:
        zp, tp, zq, tq = zq, tq, zp, tp
    if zq != zp:
        dz, dt, a, w = (zq - zp) / zp, (tq - tp) / zp, tp / zp, zq / zp
        s = a + tq / zp
        ends = w - a * a + dt * s / dz    # e1 e2
        m = 0.5 * (ends + 1.0 + a * a)    # e1 e2 = 2 m zp - |p|^2
        # e1 e2 > 0, and the foot e1 e2/m lies between 1 and w
        if ends > 0.0 and (ends - m) * (ends - w * m) < 0.0:
            return math.asinh(2.0 * abs(dz) * math.sqrt(
                ends / ((dz * dz + dt * dt) * (dz * dz + s * s))))
    return math.asinh(min(zp / tp, zq / tq))


class DetourMeasurement(namedtuple(
        "DetourMeasurement",
        "d length clearance excess k_x k_y bound satisfied")):
    """Re-measured constants of a piecewise-geodesic path near the
    vertical axis, with the applicable length bound (a `PathBound`):
    `clearance` is the measured min distance to the axis over the path,
    and `excess` the max endpoint clearance minus that min."""

    __slots__ = ()


def measure_detour(zs, ts, delta=DEFAULT_DELTA):
    """Measure a piecewise-geodesic path of H^2 against the vertical axis
    and test the length bound of the applicable regime.  The path is
    given by its vertices' real horizontal coordinates zs and heights ts.

    The constants are re-measured on the path itself -- clearance K is the
    actual minimum distance to the axis, C the actual endpoint excess --
    so the bound's hypotheses hold by construction and the inequality must
    hold outright, up to _SLACK.
    """
    if len(zs) < 2:
        raise ValueError("a path needs at least two vertices")
    if len(ts) != len(zs):
        raise ValueError(f"a path needs one height per vertex, got "
                         f"{len(ts)} heights for {len(zs)} vertices")
    # the invariants of HPoint, checked once for the whole path
    if not (all(map(math.isfinite, zs)) and all(map(math.isfinite, ts))
            and min(ts) > 0.0):
        raise ValueError("every vertex needs a finite horizontal coordinate "
                         "and a positive, finite height")
    k_x = math.asinh(abs(zs[0]) / ts[0])
    k_y = math.asinh(abs(zs[-1]) / ts[-1])
    clearances, lengths = [], []
    for zp, tp, zq, tq in zip(zs, ts, zs[1:], ts[1:]):
        clearances.append(_segment_clearance(zp, tp, zq, tq))
        lengths.append(offset_distance(zp - zq, 0.0, tp, tq))
    clearance = min(clearances)
    excess = max(k_x, k_y) - clearance
    d = offset_distance(zs[0] - zs[-1], 0.0, ts[0], ts[-1])
    # sum() of floats is compensated from Python 3.12 on, so a running +=
    # would change the bits there
    length = sum(lengths)
    regime = "near" if d <= 2.0 * clearance + 6.0 * delta else "far"
    bound = path_lower_bound(d=d, K=clearance, C=max(excess, 1e-12),
                             delta=delta, regime=regime)
    ok = length >= bound.bound - _SLACK
    if regime == "far":
        ok = ok and length >= bound.chain_bound - _SLACK
        ok = ok and d <= bound.diameter_cap + _SLACK
    return DetourMeasurement(d, length, clearance, excess, k_x, k_y,
                             bound, ok)


def _chord_limit(tanh_rho, tanh_clearance):
    """Largest Fermi-coordinate gap between two vertices at clearance rho
    whose connecting geodesic still clears `clearance`, from the tanh of
    each: from the symmetric chord, sinh(min) = 1/sqrt(m^2 - 1) with
    m = cosh(gap/2) coth(rho)."""
    ratio = tanh_rho / tanh_clearance
    if ratio <= 1.0:
        return 0.0
    return 2.0 * math.acosh(ratio)


def _max_far_k(c_lo, c_hi, delta):
    """K_max of `_MAX_FAR_STEPS` for every C in [c_lo, c_hi]: the chord
    limit grows with C and so does G, so each is taken at its worst end.
    -inf when c_lo = 0, where the band is the single clearance K and no
    path moves."""
    band = 0.05 * min(1.0, c_lo) + 0.6 * c_lo
    top = 0.05 * min(1.0, c_hi) + 0.6 * c_hi
    growth = 18.0 * delta + 4.0 + 2.0 * (c_hi - top) + math.log(4.0) + 0.01
    chord = 2.2 * _MAX_FAR_STEPS * math.sqrt(-math.expm1(-2.0 * band))
    return math.log(chord / growth) if chord > 0.0 else -math.inf


def _sample_detour_path(rng, K, C, delta, far):
    """Vertices of a jittered hypercycle path at clearance >= K on one side
    of the vertical axis, endpoints within K + C of it, as two float
    lists: the horizontal coordinates zs and the heights ts.

    Far-regime paths ride the top of the clearance band (larger chords
    survive the dip toward the axis there) and stop just past the endpoint
    separation that makes the closed-form bound nontrivial.  Each step
    draws two uniforms, its clearance and its step fraction.
    """
    side = 1.0 if rng.random() < 0.5 else -1.0
    lo = K + 0.05 * min(1.0, C) + (0.6 * C if far else 0.0)
    hi = K + C
    # nontrivial closed form needs d > 2 max(Kx, Ky) + 18 delta
    far_target = 2.0 * hi + 18.0 * delta + rng.uniform(1.0, 4.0)
    step_lo, step_hi = (0.55, 0.95) if far else (0.25, 0.8)
    segments = rng.randrange(2, 9)
    rho = rho0 = rng.uniform(lo, hi)
    # rng.uniform(a, b) is a + (b - a) * random(): a step scales its two
    # draws the same way, without the call
    rho_span, step_span = hi - lo, step_hi - step_lo
    # d(v0, v) <= rho0 + u + rho through the two feet on the axis: the
    # exact stop test cannot pass below that line
    gate = far_target - _STOP_MARGIN
    tanh_k, tanh_rho = math.tanh(K), math.tanh(rho)
    u = 0.0
    z, t = fermi_coords(u, rho, tanh_rho, side)
    zs, ts = [z], [t]
    try:
        for _ in range(_MAX_FAR_STEPS if far else segments):
            next_rho = lo + rho_span * rng.random()
            tanh_next = math.tanh(next_rho)
            # tanh of min(rho, next_rho)
            limit = _chord_limit(
                tanh_rho if rho <= next_rho else tanh_next, tanh_k)
            u += (step_lo + step_span * rng.random()) * limit
            rho, tanh_rho = next_rho, tanh_next
            z, t = fermi_coords(u, rho, tanh_rho, side)
            zs.append(z)
            ts.append(t)
            if (far and rho0 + u + rho >= gate
                    and offset_distance(zs[0] - z, 0.0, ts[0], t)
                    > far_target):
                return zs, ts
    except OverflowError:
        # e^u past the float range: a far target beyond it (large delta)
        # or chord limits too long for it (tiny K)
        raise SamplerError("detour path left the float range") from None
    if far:
        raise SamplerError("far-regime path failed to spread")
    return zs, ts


def detour_verify(trials, K=None, C=None, delta=DEFAULT_DELTA, seed=0):
    """Monte-Carlo the path-length bounds: sample random paths avoiding
    the K-neighborhood of the vertical axis (endpoints within K + C),
    re-measure every constant, and assert the regime bound.  K defaults
    to a fresh draw from {1, ..., 5} per trial and C to a draw from
    [0.3, 2].  Far-regime trials (nontrivial only for K/delta > 4) are
    forced for a fraction of the runs.  A K past `_max_far_k`, whose
    far-regime paths could hit the step cap, is refused up front."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if K is not None and not _MIN_K <= K < math.inf:
        raise ValueError(f"K must be finite and at least {_MIN_K!r}, got {K}")
    if C is not None and not 0.0 <= C < math.inf:
        raise ValueError(f"C must be nonnegative and finite, got {C}")
    _check_thin_delta(delta)
    # the largest clearance a path can reach: K and C at their top draws
    reach = (5.0 if K is None else K) + (2.0 if C is None else C)
    if reach > _MAX_CLEARANCE:
        raise ValueError(f"K + C must be at most {_MAX_CLEARANCE:g}, "
                         f"got up to {reach:g}")
    # far-regime trials run at K = 5 and C in [1.2, 2] unless given
    far_k = 5.0 if K is None else K
    c_lo, c_hi = (1.2, 2.0) if C is None else (C, C)
    k_max = _max_far_k(c_lo, c_hi, delta)
    if far_k > k_max:
        c_text = f"{C:g}" if C is not None else "1.2 to 2"
        raise ValueError(
            f"K must be at most {k_max:.4g} at C={c_text}, delta={delta:g}: "
            f"a far-regime path needs about e^K vertices and stops at "
            f"{_MAX_FAR_STEPS} steps; got K={far_k:g}"
            + (" (the far-regime draw)" if K is None else ""))
    rng = _seeded(seed)
    report = TrialReport()
    for _ in range(trials):
        k_target = float(rng.randrange(1, 6)) if K is None else float(K)
        c_target = rng.uniform(0.3, 2.0) if C is None else float(C)
        far = rng.random() < _FAR_FRACTION
        if far and K is None:
            k_target = 5.0  # the only draw with a nontrivial far bound
        if far and C is None:
            c_target = rng.uniform(1.2, 2.0)
        for attempt in range(_MAX_RETRIES):
            zs, ts = _sample_detour_path(rng, k_target, c_target, delta, far)
            m = measure_detour(zs, ts, delta=delta)
            if m.clearance >= k_target:
                break
        else:
            raise SamplerError(
                f"no valid path at K={k_target} after {_MAX_RETRIES} tries")
        record = {
            "regime": m.bound.regime, "K": k_target, "C": c_target,
            "clearance": m.clearance, "excess": m.excess, "d": m.d,
            "length": m.length, "bound": m.bound.bound,
            "chain_bound": m.bound.chain_bound, "n": m.bound.n,
            "segments": len(zs) - 1, "ok": m.satisfied,
        }
        report.tally(record, m.satisfied)
    return report
