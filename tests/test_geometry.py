import ast
import cmath
import json
import math
import pathlib

import numpy as np
import pytest

from primscan.geometry import (
    BASEPOINT,
    Geodesic,
    GeodesicMetrics,
    HPoint,
    INF,
    NotLoxodromic,
    Representation,
    RepresentationError,
    Segment,
    apply,
    as_matrix,
    axis_of,
    classify,
    det,
    dist_to_geodesic,
    dist_to_segment,
    distance,
    fermi_point,
    fixed_points,
    geodesic_metrics,
    geodesic_through,
    mat_inverse,
    minimize_convex,
    mobius_boundary,
    normalizer,
    parse_rep_file,
    power_displacement,
    translation_length,
    unimodularize,
    _matrix,
)

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src" / "primscan"

MARKOFF_A = as_matrix([[1, 1], [1, 2]])
MARKOFF_B = as_matrix([[1, -1], [-1, 2]])


def random_point(rng, real=False):
    z = rng.normal() if real else complex(rng.normal(), rng.normal())
    return HPoint(z, math.exp(rng.normal()))


def random_isometry(rng, real=False):
    while True:
        if real:
            # positive determinant: the orientation-preserving PSL(2, R) case
            M = as_matrix(rng.normal(size=(2, 2)))
            if det(M).real > 0.1:
                return _matrix(unimodularize(M))
        else:
            M = as_matrix(rng.normal(size=(2, 2)) +
                          1j * rng.normal(size=(2, 2)))
            if abs(det(M)) > 0.1:
                return _matrix(unimodularize(M))


# --------------------------------------------------------------------------
# distance
# --------------------------------------------------------------------------

def test_distance_vertical():
    assert distance(HPoint(0, 1), HPoint(0, 2)) == pytest.approx(math.log(2))


def test_distance_zero():
    p = HPoint(0.3 + 0.4j, 1.7)
    assert distance(p, p) == 0.0


def test_distance_semicircle_against_integrated_length():
    # independent oracle: arc length along the connecting semicircle in the
    # model metric, using the antiderivative of 1/sin
    p, q = HPoint(0, 1), HPoint(3, 1)
    center, radius = 1.5, math.hypot(1.5, 1.0)
    theta_p = math.atan2(p.t, p.z.real - center)
    theta_q = math.atan2(q.t, q.z.real - center)
    arc = abs(math.log(math.tan(theta_q / 2)) - math.log(math.tan(theta_p / 2)))
    assert distance(p, q) == pytest.approx(math.acosh(5.5), abs=1e-12)
    assert distance(p, q) == pytest.approx(arc, abs=1e-12)


def test_distance_keeps_small_separations():
    # acosh(1 + x) rounds x ~ 5e-19 away; the asinh form keeps it
    d = distance(HPoint(0, 1), HPoint(1e-9, 1))
    assert d == pytest.approx(1e-9, rel=1e-12)


def test_distance_at_tiny_heights():
    # t1 t2 = 2e-400 underflows; the distance is ln 2 at every scale
    d = distance(HPoint(0, 1e-200), HPoint(0, 2e-200))
    assert d == pytest.approx(math.log(2), rel=1e-15)


def test_distance_at_huge_separations():
    # |dz|^2 overflows; d = 2 asinh(1e200) = 2 ln(2e200)
    d = distance(HPoint(1e200, 1), HPoint(-1e200, 1))
    assert d == pytest.approx(2 * math.log(2e200), rel=1e-15)
    assert d == pytest.approx(922.42033, abs=1e-5)
    # the ratio itself overflows here; the log tail takes over
    d = distance(HPoint(1e200, 1e-200), HPoint(-1e200, 1e-200))
    assert d == pytest.approx(2 * (math.log(2) + 400 * math.log(10)),
                              rel=1e-15)


def test_distance_triangle_inequality_bulk():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        p, q, r = (random_point(rng) for _ in range(3))
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12


def test_hpoint_validation():
    with pytest.raises(ValueError):
        HPoint(0, 0.0)
    with pytest.raises(ValueError):
        HPoint(0, -1.0)
    with pytest.raises(ValueError):
        HPoint(float("nan"), 1.0)
    with pytest.raises(ValueError):
        HPoint(float("inf"), 1.0)


@pytest.mark.parametrize("t", [0.0, -0.0, -1.0, float("nan"), float("inf")])
def test_hpoint_rejects_bad_heights(t):
    with pytest.raises(ValueError, match="height must be positive and finite"):
        HPoint(0, t)


@pytest.mark.parametrize("M, message", [
    ([[1e200, 0], [1e200, 1e-200]], "height"),    # |c|^2 overflows
    ([[1, 0], [float("inf"), 1]], "height"),
    ([[1, 0], [float("nan"), 1]], "height"),
    ([[float("nan"), 0], [0, 1]], "horizontal coordinate"),
], ids=["overflow", "inf", "nan-height", "nan-z"])
def test_apply_refuses_points_outside_the_float_range(M, message):
    with pytest.raises(ValueError, match=message):
        apply(as_matrix(M), BASEPOINT)


def test_hpoint_value_semantics():
    p, q = HPoint(1, 2), HPoint(1.0 + 0j, 2.0)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, HPoint(1, 3)}) == 2
    assert p != HPoint(1, 3) and p != HPoint(2, 2)
    assert p != (1, 2)
    assert (p.z, p.t) == (1 + 0j, 2.0)
    assert type(p.z) is complex and type(p.t) is float
    assert repr(p) == "HPoint(z=(1+0j), t=2.0)"


# --------------------------------------------------------------------------
# action
# --------------------------------------------------------------------------

def test_apply_identity_and_projectivity():
    p = HPoint(0.5 - 0.25j, 2.0)
    M = as_matrix([[1, 0], [0, 1]])
    assert apply(M, p) == p
    rng = np.random.default_rng(11)
    M = random_isometry(rng)
    q1, q2 = apply(M, p), apply(-M, p)
    assert abs(q1.z - q2.z) < 1e-12 and abs(q1.t - q2.t) < 1e-12


def test_apply_scaling_and_translation():
    scale = as_matrix([[math.sqrt(2), 0], [0, 1 / math.sqrt(2)]])
    q = apply(scale, HPoint(0, 1))
    assert q.z == 0 and q.t == pytest.approx(2.0)
    shift = as_matrix([[1, 1], [0, 1]])
    q = apply(shift, HPoint(0, 1))
    assert q.z == pytest.approx(1.0) and q.t == pytest.approx(1.0)


def test_apply_restricts_to_h2_and_matches_classic_mobius():
    rng = np.random.default_rng(13)
    for _ in range(200):
        M = random_isometry(rng, real=True)
        p = random_point(rng, real=True)
        q = apply(M, p)
        assert q.z.imag == pytest.approx(0.0, abs=1e-12)
        # classical half-plane action on w = x + i t
        w = complex(p.z.real, p.t)
        image = (M[0, 0] * w + M[0, 1]) / (M[1, 0] * w + M[1, 1])
        assert q.z.real == pytest.approx(image.real, abs=1e-9)
        assert q.t == pytest.approx(image.imag, abs=1e-9)


def test_isometry_invariance_bulk():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        M = random_isometry(rng)
        p, q = random_point(rng), random_point(rng)
        assert abs(distance(apply(M, p), apply(M, q)) -
                   distance(p, q)) <= 1e-9


# --------------------------------------------------------------------------
# classification and lengths
# --------------------------------------------------------------------------

def test_classify_frozen_cases():
    assert classify(as_matrix([[1, 0], [0, 1]])) == "identity"
    assert classify(as_matrix([[-1, 0], [0, -1]])) == "identity"
    assert classify(as_matrix([[0, 1], [-1, 0]])) == "elliptic"
    assert classify(as_matrix([[1, 1], [0, 1]])) == "parabolic"
    assert classify(as_matrix([[2, 0], [0, 0.5]])) == "loxodromic"
    screw = cmath.exp(0.3 + 0.4j)
    assert classify(as_matrix([[screw, 0], [0, 1 / screw]])) == "loxodromic"
    assert classify(MARKOFF_A) == "loxodromic"


def test_classify_trace_tolerance():
    # [[tr - 1, 1], [tr - 2, 1]] has det 1 and trace tr: a real trace
    # within 1e-9 of 2 is parabolic, past it the class follows the side
    def with_trace(tr):
        return as_matrix([[tr - 1, 1], [tr - 2, 1]])
    assert classify(with_trace(2 + 5e-10)) == "parabolic"
    assert classify(with_trace(2 - 5e-10)) == "parabolic"
    assert classify(with_trace(2 + 2e-9)) == "loxodromic"
    assert classify(with_trace(2 - 2e-9)) == "elliptic"


def test_translation_length_markoff_generator():
    # eigenvalue route vs trace route: 2 ln((3+sqrt 5)/2) = 2 arcosh(3/2)
    tl = translation_length(MARKOFF_A)
    assert tl == pytest.approx(2 * math.acosh(1.5), abs=1e-12)
    assert tl == pytest.approx(1.9248473002384139, abs=1e-12)
    assert translation_length(as_matrix([[0, 1], [-1, 0]])) == 0.0
    assert translation_length(as_matrix([[1, 1], [0, 1]])) == 0.0


def test_translation_length_of_huge_trace():
    # tr^2 overflows a double from |tr| ~ 1e154; lambda = tr up to a
    # correction below double precision, so tl = 2 ln|tr|
    for x in (1e9, 1e200, 1e300):
        M = as_matrix([[x, 0], [0, 1 / x]])
        assert translation_length(M) == pytest.approx(2 * math.log(x),
                                                      rel=1e-15)
    screw = as_matrix([[1e200j, 0], [0, -1e-200j]])
    assert translation_length(screw) == pytest.approx(2 * math.log(1e200),
                                                      rel=1e-15)
    # |a| exceeds the float range although both of its parts are finite
    edge = as_matrix([[1.5e308 * (1 + 1j), 0], [1e300, 1 / (1.5e308 + 0j)]])
    assert classify(edge) == "loxodromic"
    assert translation_length(edge) == pytest.approx(
        2 * (math.log(1.5e308) + 0.5 * math.log(2)), rel=1e-15)
    with pytest.raises(ValueError):
        apply(edge, BASEPOINT)


# numpy-scalar references for the scalar kernel: the formulas on indexed
# numpy scalars, and eigen-decompositions from numpy.linalg

def ref_apply(M, p):
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    t2 = p.t * p.t
    w = c * p.z + d
    den = np.abs(w) ** 2 + np.abs(c) ** 2 * t2
    return (((a * p.z + b) * np.conj(w) + a * np.conj(c) * t2) / den,
            p.t / den)


def ref_mobius_boundary(M, x):
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    if x is INF:
        return INF if c == 0 else a / c
    return (a * x + b) / (c * x + d)


def ref_classify(M, tol=1e-9):
    eye = np.eye(2)
    if np.abs(M - eye).max() <= tol or np.abs(M + eye).max() <= tol:
        return "identity"
    tr = np.trace(M)
    if abs(tr.imag) <= tol:
        if abs(tr.real) < 2.0 - tol:
            return "elliptic"
        if abs(tr.real) <= 2.0 + tol:
            return "parabolic"
    return "loxodromic"


def ref_eigen(M):
    """(dominant eigenvalue, attracting fixed point, repelling fixed
    point) from numpy's eigenvectors (fixed point = v0 / v1)."""
    values, vectors = np.linalg.eig(M)
    order = np.argsort(-np.abs(values))
    fixed = [vectors[0, k] / vectors[1, k] for k in order]
    return values[order[0]], fixed[0], fixed[1]


@pytest.mark.parametrize("real", [True, False], ids=["SL2R", "SL2C"])
def test_kernel_matches_numpy_reference(real):
    rng = np.random.default_rng(67 if real else 71)
    kinds = set()
    for _ in range(300):
        M = random_isometry(rng, real=real)
        p = random_point(rng, real=real)
        q = apply(M, p)
        z, t = ref_apply(M, p)
        assert q.z == pytest.approx(complex(z), rel=1e-12, abs=1e-12)
        assert q.t == pytest.approx(float(t), rel=1e-12)
        x = p.z
        assert mobius_boundary(M, x) == pytest.approx(
            complex(ref_mobius_boundary(M, x)), rel=1e-12, abs=1e-12)
        assert mobius_boundary(M, INF) == pytest.approx(
            complex(ref_mobius_boundary(M, INF)), rel=1e-12, abs=1e-12)
        kind = classify(M)
        kinds.add(kind)
        assert kind == ref_classify(M)
        if kind != "loxodromic":
            assert translation_length(M) == 0.0
            continue
        lam, att, rep = ref_eigen(M)
        assert translation_length(M) == pytest.approx(
            2 * math.log(abs(lam)), rel=1e-12, abs=1e-12)
        got_att, got_rep = fixed_points(M)
        assert got_att == pytest.approx(complex(att), rel=1e-9, abs=1e-9)
        assert got_rep == pytest.approx(complex(rep), rel=1e-9, abs=1e-9)
    assert "loxodromic" in kinds
    if real:
        assert "elliptic" in kinds


def other_products(tree):
    """Line numbers of the products in a module that bypass
    `geometry._mul`: each `@` and each call of a matmul, dot or einsum."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                yield node.lineno
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in ("matmul", "dot", "einsum"):
                yield node.lineno


def test_mul_is_the_only_product_kernel():
    # single matrices and stacks of entry arrays alike multiply on the
    # kernel; the source is parsed, not searched as text, so a
    # decorator's @ does not count
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "scans.py" for p in paths)
    for path in paths:
        found = list(other_products(ast.parse(path.read_text())))
        assert not found, (path.name, found)


def test_lengths_diagonal_orbit():
    M = as_matrix([[2, 0], [0, 0.5]])
    o = HPoint(0, 1)
    assert translation_length(M) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert distance(apply(M, o), o) == pytest.approx(2 * math.log(2),
                                                     abs=1e-12)
    # at n = 520 the image height 4^n is past the float range, while the
    # entry 4^-n of the rescaled power is still a (subnormal) double; from
    # n = 538 on it underflows to 0 and only the adjugate keeps the image
    for n in (1, 2, 7, 100, 520):
        assert power_displacement(M, n, o) / n == pytest.approx(
            2 * math.log(2), abs=1e-9)
    for n in (538, 600, 10_000):
        assert power_displacement(M, n, o) == pytest.approx(
            n * math.log(4), rel=1e-12)
    # off the axis M^n o = (4^n (z + 2/3) - 2/3, 4^n t), so d(M^n o, o)
    # exceeds n ln 4 by ln(((z + 2/3)^2 + t^2) / t^2) up to O(4^-n); past
    # n ~ 520 the height leaves the float range and the image is measured
    # under M^-n
    M = as_matrix([[2, 1], [0, 0.5]])
    o = HPoint(0.3, 2)
    excess = math.log(((0.3 + 2 / 3) ** 2 + 4) / 4)
    for n in (100, 520, 537, 600, 10_000):
        forward = power_displacement(M, n, o)
        assert forward == pytest.approx(power_displacement(M, -n, o),
                                        rel=1e-12)
        assert forward - n * math.log(4) == pytest.approx(excess, abs=1e-9)


def test_lengths_identity():
    M = as_matrix([[1, 0], [0, 1]])
    o = HPoint(0, 1)
    assert translation_length(M) == 0.0
    assert distance(apply(M, o), o) == 0.0
    assert power_displacement(M, 5, o) == 0.0


def test_translation_length_conjugacy_invariance():
    rng = np.random.default_rng(19)
    found = 0
    while found < 200:
        M = random_isometry(rng)
        if classify(M) != "loxodromic":
            continue
        found += 1
        g = random_isometry(rng)
        conj = g @ M @ mat_inverse(g)
        assert translation_length(conj) == pytest.approx(
            translation_length(M), abs=1e-9)


def test_stable_length_power_identity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        M = random_isometry(rng)
        if classify(M) != "loxodromic" or translation_length(M) > 5:
            continue
        for n in (2, 3, 6):
            assert translation_length(np.linalg.matrix_power(M, n)) == \
                pytest.approx(n * translation_length(M), abs=1e-9)


def test_stable_below_displacement():
    rng = np.random.default_rng(29)
    for _ in range(200):
        M = random_isometry(rng)
        o = random_point(rng)
        assert (power_displacement(M, 64, o) / 64
                <= distance(apply(M, o), o) + 1e-9)


def test_displacement_on_axis_equals_translation():
    rng = np.random.default_rng(31)
    found = 0
    while found < 100:
        M = random_isometry(rng)
        if classify(M) != "loxodromic":
            continue
        found += 1
        axis = axis_of(M)
        for h in (-2.0, 0.0, 1.5):
            o = axis.point_at(h)
            assert distance(apply(M, o), o) == pytest.approx(
                translation_length(M), abs=1e-9)


def test_power_displacement_matches_direct():
    # the naive matrix-power oracle loses the determinant to cancellation
    # once entries grow, so keep it honest with an entry-size guard
    rng = np.random.default_rng(37)
    o = HPoint(0.1 + 0.2j, 1.3)
    for _ in range(50):
        M = random_isometry(rng)
        for n in (0, 1, 2, 3, 5, 8):
            P = np.linalg.matrix_power(M, n)
            if abs(P).max() > 1e3:
                continue
            direct = distance(apply(P, o), o)
            assert power_displacement(M, n, o) == pytest.approx(
                direct, abs=1e-9)
        assert power_displacement(M, -3, o) == pytest.approx(
            power_displacement(mat_inverse(M), 3, o), abs=1e-12)
    # parabolic powers with small separations, which arccosh(1 + x)
    # rounds away
    o = HPoint(0.0, 1.0)
    for eps, n in ((1e-9, 1), (1e-9, 1000), (1e-5, 3)):
        want = distance(apply(as_matrix([[1, n * eps], [0, 1]]), o), o)
        assert power_displacement(as_matrix([[1, eps], [0, 1]]), n, o) == (
            pytest.approx(want, rel=1e-12))


def test_power_displacement_large_exponent_on_axis():
    # on an axis point, d(M^n o, o) = n * translation length exactly; the
    # eigenvalue route is independent of the powering loop
    rng = np.random.default_rng(101)
    found = 0
    while found < 30:
        M = random_isometry(rng)
        if classify(M) != "loxodromic":
            continue
        found += 1
        tl = translation_length(M)
        o = axis_of(M).point_at(0.7)
        for n in (17, 1000, 12345):
            assert power_displacement(M, n, o) == pytest.approx(
                n * tl, rel=1e-11, abs=1e-8)


def test_power_displacement_through_the_subnormal_window():
    # on the axis of A, d(A^n o, o) = n tl; for n = 377..387 the image
    # height of o is a subnormal float, so it must not be formed
    A = as_matrix([[1, 1], [1, 2]])
    tl = translation_length(A)
    for o in (HPoint(0, 1), axis_of(A).point_at(0.7)):
        for n in range(300, 450):
            assert power_displacement(A, n, o) == pytest.approx(
                n * tl, rel=1e-12), (o, n)


def test_power_displacement_huge_exponent():
    # entries of A^n overflow doubles near n ~ 700; the log-safe route must
    # agree with n * translation on an axis basepoint and stay finite off it
    axis = axis_of(MARKOFF_A)
    o = axis.point_at(0.0)
    tl = translation_length(MARKOFF_A)
    for n in (10, 10_000, 1_000_000):
        assert power_displacement(MARKOFF_A, n, o) == pytest.approx(
            n * tl, rel=1e-12)
    off = HPoint(5.0, 0.01)
    d = power_displacement(MARKOFF_A, 10_000, off)
    assert math.isfinite(d)
    assert abs(d - 10_000 * tl) <= 2 * distance(off, o) + 1.0


# --------------------------------------------------------------------------
# axes and fixed points
# --------------------------------------------------------------------------

def test_axis_of_diagonal():
    axis = axis_of(as_matrix([[2, 0], [0, 0.5]]))
    assert axis.endpoints[0] is INF
    assert axis.endpoints[1] == 0.0


def test_fixed_points_markoff_generator():
    att, rep = fixed_points(MARKOFF_A)
    golden = (math.sqrt(5) - 1) / 2
    assert att == pytest.approx(golden, abs=1e-12)
    assert rep == pytest.approx(-(math.sqrt(5) + 1) / 2, abs=1e-12)
    # attracting point is fixed and attracts a nearby boundary point
    assert mobius_boundary(MARKOFF_A, att) == pytest.approx(att, abs=1e-12)
    x = att + 0.05
    for _ in range(40):
        x = mobius_boundary(MARKOFF_A, x)
    assert x == pytest.approx(att, abs=1e-9)


def test_fixed_points_survive_cancellation():
    # a - d and s agree to 16 digits, so (a - d - s) / 2c cancels to 0;
    # the repelling point comes from the product of the roots, -b/c
    rep = Representation("H2", [[1e4, 0], [0, 1e-4]], [[2, 1], [1, 1]])
    M = rep.word_image("aab")
    att, rpl = fixed_points(M)
    assert att == pytest.approx(2e16, rel=1e-12)
    assert rpl == pytest.approx(-0.5, rel=1e-12)
    # still in (attracting, repelling) order when the other root is large
    att, rpl = fixed_points(mat_inverse(M))
    assert att == pytest.approx(-0.5, rel=1e-12)
    assert rpl == pytest.approx(2e16, rel=1e-12)


def test_fixed_points_random_are_fixed():
    rng = np.random.default_rng(41)
    found = 0
    while found < 200:
        M = random_isometry(rng)
        if classify(M) != "loxodromic":
            continue
        found += 1
        att, rep = fixed_points(M)
        for x in (att, rep):
            if x is INF:
                assert M[1, 0] == 0
            else:
                assert abs(mobius_boundary(M, x) - x) < 1e-6 * (1 + abs(x) ** 2)


def test_axis_rejects_non_loxodromic():
    with pytest.raises(NotLoxodromic) as info:
        axis_of(as_matrix([[1, 1], [0, 1]]))
    assert info.value.trace == pytest.approx(2.0)
    with pytest.raises(NotLoxodromic) as info:
        axis_of(as_matrix([[0, 1], [-1, 0]]))
    assert info.value.trace == pytest.approx(0.0)


def test_axis_invariance_under_the_isometry():
    # the axis is M-invariant: images of axis points stay at distance 0
    rng = np.random.default_rng(43)
    found = 0
    while found < 100:
        M = random_isometry(rng)
        if classify(M) != "loxodromic":
            continue
        found += 1
        axis = axis_of(M)
        for h in (-1.0, 0.0, 2.0):
            p = apply(M, axis.point_at(h))
            assert dist_to_geodesic(p, axis) < 1e-8


# --------------------------------------------------------------------------
# geodesics, normalizers, projections
# --------------------------------------------------------------------------

def test_normalizer_moves_endpoints():
    rng = np.random.default_rng(47)
    pairs = [(complex(1, 2), complex(-3, 0.5)), (INF, complex(0.7, -0.1)),
             (complex(2, 0), INF)]
    for _ in range(20):
        pairs.append((complex(rng.normal(), rng.normal()),
                      complex(rng.normal(), rng.normal())))
    for zero_pt, inf_pt in pairs:
        N = normalizer(zero_pt, inf_pt)
        assert abs(det(N) - 1) < 1e-12
        img = mobius_boundary(N, zero_pt)
        assert img is not INF and abs(img) < 1e-9
        assert mobius_boundary(N, inf_pt) is INF


def test_geodesic_validation():
    with pytest.raises(ValueError):
        Geodesic(1 + 0j, 1 + 0j)
    with pytest.raises(ValueError):
        Geodesic(INF, INF)


def test_geodesic_metrics_vertical_axis():
    g = Geodesic(INF, 0.0)  # oriented upward, anchored at the foot of (0,1)
    m = geodesic_metrics(HPoint(1, 1), g)
    assert m.dist == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)
    m = geodesic_metrics(HPoint(0, math.e), g)
    assert m.dist == pytest.approx(0.0, abs=1e-12)
    assert m.coordinate == pytest.approx(1.0, abs=1e-12)
    assert m.foot.z == pytest.approx(0.0) and m.foot.t == pytest.approx(math.e)
    assert g.point_at(0.0).t == pytest.approx(1.0)


def test_geodesic_metrics_point_on_line():
    rng = np.random.default_rng(53)
    for _ in range(50):
        e1 = complex(rng.normal(), rng.normal())
        e2 = complex(rng.normal(), rng.normal())
        if abs(e1 - e2) < 0.1:
            continue
        g = Geodesic(e1, e2)
        for h in (-1.3, 0.0, 0.9):
            p = g.point_at(h)
            m = geodesic_metrics(p, g)
            assert m.dist < 1e-9
            assert m.coordinate == pytest.approx(h, abs=1e-9)
            # H is an isometry of the line onto R
            assert distance(g.point_at(-1.3), g.point_at(0.9)) == \
                pytest.approx(2.2, abs=1e-9)


def test_geodesic_metrics_is_the_true_minimum():
    # sampled-minimization oracle over the line
    g = Geodesic(2.0 + 0j, -1.0 + 0j)
    p = HPoint(0.3, 0.8)
    m = geodesic_metrics(p, g)
    samples = [distance(p, g.point_at(h)) for h in np.linspace(-8, 8, 1001)]
    assert m.dist <= min(samples) + 1e-12
    assert min(samples) <= m.dist + 1e-3
    assert distance(p, m.foot) == pytest.approx(m.dist, abs=1e-9)


def test_geodesic_through_hits_both_points():
    rng = np.random.default_rng(59)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        if distance(p, q) < 1e-6:
            continue
        g = geodesic_through(p, q)
        assert dist_to_geodesic(p, g) < 1e-9
        assert dist_to_geodesic(q, g) < 1e-9
        # oriented from p toward q
        assert geodesic_metrics(q, g).coordinate > \
            geodesic_metrics(p, g).coordinate


def test_geodesic_through_vertical():
    g = geodesic_through(HPoint(2, 1), HPoint(2, 3))
    assert g.endpoints[0] is INF and g.endpoints[1] == 2.0
    g = geodesic_through(HPoint(2, 3), HPoint(2, 1))
    assert g.endpoints[1] is INF and g.endpoints[0] == 2.0


def test_segment_arclength_parametrization():
    rng = np.random.default_rng(61)
    for _ in range(50):
        p, q = random_point(rng), random_point(rng)
        seg = Segment(p, q)
        assert distance(seg.point_at(0), p) < 1e-9
        assert distance(seg.point_at(seg.length), q) < 1e-9
        s1, s2 = sorted(rng.uniform(0, seg.length, size=2))
        assert distance(seg.point_at(s1), seg.point_at(s2)) == \
            pytest.approx(s2 - s1, abs=1e-9)
        mid = seg.interpolate(0.5)
        assert distance(p, mid) == pytest.approx(seg.length / 2, abs=1e-9)


def test_segment_on_line_matches_the_segment_of_its_feet():
    # the feet's segment from their coordinates on the line agrees with
    # the one built through them, which takes a new geodesic
    rng = np.random.default_rng(71)
    for _ in range(50):
        line = geodesic_through(random_point(rng, real=True),
                                random_point(rng, real=True))
        mp, mq = (geodesic_metrics(random_point(rng, real=True), line)
                  for _ in range(2))
        seg = Segment.on_line(line, mp, mq)
        built = Segment(mp.foot, mq.foot)
        assert (seg.p, seg.q) == (mp.foot, mq.foot)
        assert seg.length == pytest.approx(built.length, rel=1e-12, abs=1e-12)
        for u in (0.0, 0.3, 1.0):
            assert distance(seg.interpolate(u), built.interpolate(u)) < 1e-9
        x = random_point(rng, real=True)
        assert dist_to_segment(x, seg) == pytest.approx(
            dist_to_segment(x, built), abs=1e-9)
    foot = geodesic_metrics(HPoint(1.0, 1.0), Geodesic(INF, 0.0))
    point = Segment.on_line(Geodesic(INF, 0.0), foot, foot)
    assert point.length == 0.0 and point._g is None


def test_segment_starts_at_coordinate_zero():
    # the geodesic through p and q is anchored at p, so p's coordinate is
    # its own log-height less itself: exactly 0, in H^2 and in H^3
    rng = np.random.default_rng(83)
    for real in (True, False):
        for _ in range(200):
            p, q = random_point(rng, real), random_point(rng, real)
            seg = Segment(p, q)
            assert seg._lo == 0.0
            assert geodesic_metrics(p, seg._g).coordinate == 0.0
            assert seg._hi == geodesic_metrics(q, seg._g).coordinate


def test_segment_and_on_line_share_the_degenerate_rule():
    # a segment shorter than 1e-13 is a point with no geodesic, however it
    # is built; one of length 1e-13 is not
    line = Geodesic(INF, 0.0)
    start = geodesic_metrics(HPoint(0.0, 1.0), line)
    for length in (0.0, math.nextafter(1e-13, 0.0), 1e-13,
                   math.nextafter(1e-13, 1.0)):
        end = GeodesicMetrics(0.0, HPoint(0.0, math.exp(length)), length)
        seg = Segment.on_line(line, start, end)
        assert seg.length == length
        assert (seg._g is None) == (length < 1e-13)
    built = [Segment(HPoint(0.0, 1.0), HPoint(0.0, 1.0 + k * 1e-14))
             for k in range(16)]
    assert min(s.length for s in built) < 1e-13 <= max(s.length
                                                      for s in built)
    for seg in built:
        assert (seg._g is None) == (seg.length < 1e-13)
    for seg in built + [Segment.on_line(line, start, start)]:
        if seg._g is None:
            assert (seg._lo, seg._hi) == (0.0, 0.0)
            assert seg.interpolate(0.7) is seg.p


def test_dist_to_segment_against_dense_sampling():
    rng = np.random.default_rng(67)
    for _ in range(40):
        seg = Segment(random_point(rng), random_point(rng))
        x = random_point(rng)
        exact = dist_to_segment(x, seg)
        n = 2000
        sampled = min(distance(x, seg.point_at(seg.length * i / n))
                      for i in range(n + 1))
        assert exact <= sampled + 1e-9
        assert sampled <= exact + seg.length / n


def test_dist_to_segment_endpoint_regimes():
    seg = Segment(HPoint(0, 1), HPoint(0, math.e))
    inside = HPoint(1, 1.2)
    assert dist_to_segment(inside, seg) == pytest.approx(
        math.asinh(1 / 1.2), abs=1e-9)
    beyond = HPoint(0, math.e ** 3)
    assert dist_to_segment(beyond, seg) == pytest.approx(2.0, abs=1e-9)
    below = HPoint(0, 1 / math.e)
    assert dist_to_segment(below, seg) == pytest.approx(1.0, abs=1e-9)
    degenerate = Segment(HPoint(0, 1), HPoint(0, 1))
    assert dist_to_segment(HPoint(0, 2), degenerate) == pytest.approx(
        math.log(2), abs=1e-12)


def test_log_heights_past_the_square_range():
    # |z| = 1e200: |z|^2 overflows a Python float, which raises; the
    # foot's log-height in the frame of g, which is its coordinate, is
    # ln hypot(|z|, t) = 200 ln 10 up to 1e-400
    p = HPoint(1e200, 1.0)
    g = Geodesic(INF, 0.0)
    want = 200 * math.log(10)
    assert g._frame(p)[1] == pytest.approx(want, rel=1e-15)
    # the foot lies above the segment's end (0, 2)
    assert dist_to_segment(p, Segment(HPoint(0, 1), HPoint(0, 2))) == (
        pytest.approx(distance(p, HPoint(0, 2)), rel=1e-15))
    high = Geodesic(INF, 0.0, basepoint=p)
    assert geodesic_metrics(HPoint(0, 1), high).coordinate == (
        pytest.approx(-want, rel=1e-15))
    # the foot (0, 1e200) itself is past the range of `apply`, whose t^2
    # overflows: a ValueError, which the CLI reports, not an OverflowError
    with pytest.raises(ValueError, match="height"):
        geodesic_metrics(p, g)


def test_minimize_convex_quadratic():
    arg, val = minimize_convex(lambda s: (s - 1.25) ** 2 + 3.0, 0.0, 4.0)
    # the argmin is only resolvable to ~sqrt(eps) because the quadratic is
    # flat there; the minimum value itself is tight
    assert arg == pytest.approx(1.25, abs=1e-6)
    assert val == pytest.approx(3.0, abs=1e-12)


def test_fermi_point_clearance_and_coordinate():
    g = Geodesic(INF, 0.0)
    for u in (-1.0, 0.0, 2.5):
        for rho in (0.0, 0.7, -1.2):
            p = fermi_point(u, rho)
            m = geodesic_metrics(p, g)
            assert m.dist == pytest.approx(abs(rho), abs=1e-12)
            assert m.coordinate == pytest.approx(u, abs=1e-12)
            assert (p.z.real >= 0) == (rho >= 0)


# --------------------------------------------------------------------------
# representations
# --------------------------------------------------------------------------

def test_representation_markoff_cprime():
    rep = Representation("H2", MARKOFF_A, MARKOFF_B)
    assert rep.c_prime == pytest.approx(math.acosh(3.5), abs=1e-12)
    assert rep.displacement("a") == pytest.approx(math.acosh(3.5), abs=1e-12)
    assert rep.displacement("ab") > 0
    comm = rep.word_image("abAB")
    assert (comm[0, 0] + comm[1, 1]).real == pytest.approx(-2.0, abs=1e-12)


def test_word_image_homomorphism():
    rep = Representation("H2", MARKOFF_A, MARKOFF_B)
    lhs = rep.word_image("abAB")
    rhs = rep.word_image("ab") @ rep.word_image("AB")
    assert abs(lhs - rhs).max() < 1e-12
    assert abs(rep.word_image("aA") - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("n", [20, 300])
def test_displacement_of_long_word_matches_powering(n):
    # entries of rho(ab)^n reach ~1e8 at n = 20 and ~1e125 at n = 300,
    # where the floating determinant of the product is pure noise
    rep = Representation("H2", MARKOFF_A, MARKOFF_B)
    want = power_displacement(rep.word_image("ab"), n)
    assert rep.displacement("ab" * n) == pytest.approx(want, rel=1e-9)


def test_parse_rep_file_markoff(tmp_path):
    rep = parse_rep_file(DATA / "markoff.json")
    assert rep.model == "H2"
    assert abs(rep.A - MARKOFF_A).max() == 0
    assert abs(rep.B - MARKOFF_B).max() == 0
    assert rep.basepoint == HPoint(0, 1)
    # the file still carries the retired "delta" key, which is ignored
    assert "delta" in json.loads((DATA / "markoff.json").read_text())
    assert not hasattr(rep, "delta")
    assert rep.c_prime == pytest.approx(math.acosh(3.5), abs=1e-12)


def test_parse_rep_file_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({
        "model": "H3",
        "A": [[1, 0], [1, 0], [0, 0], [1, 0]],
        "B": [[1, 0], [0, 1], [0, 0], [1, 0]],
    }))
    rep = parse_rep_file(path)
    assert rep.basepoint == HPoint(0, 1)
    with pytest.raises(TypeError):
        Representation(rep.model, rep.A, rep.B, delta=1.0)


def test_parse_rep_file_diagnostics(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    good_a = [[1, 0], [1, 0], [1, 0], [2, 0]]
    with pytest.raises(RepresentationError, match="missing field 'B'"):
        parse_rep_file(write("missing.json", {"model": "H2", "A": good_a}))
    with pytest.raises(RepresentationError, match="unimodular"):
        parse_rep_file(write("det.json", {
            "model": "H2", "A": good_a,
            "B": [[2, 0], [0, 0], [0, 0], [1, 0]]}))
    with pytest.raises(RepresentationError, match="real entries"):
        parse_rep_file(write("complex.json", {
            "model": "H2", "A": good_a,
            "B": [[1, 0], [0, 1], [0, 0], [1, 0]]}))
    with pytest.raises(RepresentationError, match="unknown model"):
        parse_rep_file(write("model.json", {
            "model": "HH", "A": good_a, "B": good_a}))
    with pytest.raises(RepresentationError, match="4 \\[re, im\\] pairs"):
        parse_rep_file(write("shape.json", {
            "model": "H2", "A": [[1, 0], [1, 0]], "B": good_a}))
    with pytest.raises(RepresentationError, match="invalid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        parse_rep_file(bad)


def test_elliptic_fixture_loads():
    rep = parse_rep_file(DATA / "elliptic.json")
    assert classify(rep.B) == "elliptic"
    assert translation_length(rep.B) == 0.0
