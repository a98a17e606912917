"""Hyperbolic plane and 3-space in upper half-space coordinates.

A point is (z, t) with z complex and t > 0; H^2 is the slice Im(z) = 0 with
real matrices.  Unimodular 2x2 complex matrices act by the quaternionic
extension of the Mobius action, which restricts to the classical PSL(2, R)
action on the slice:

    z' = ((az + b) conj(cz + d) + a conj(c) t^2) / den
    t' = t / den,                den = |cz + d|^2 + |c|^2 t^2

Distances come from sinh(d/2) = sqrt(|dz|^2 + dt^2) / (2 sqrt(t1 t2)).
Geodesics are handled by normalizing their endpoints to (0, infinity),
where the vertical axis makes projections, signed coordinates and
point-to-line distances closed-form: sinh(dist) = |z|/t and the foot sits
at height sqrt(|z|^2+t^2).

Three length notions for an isometry M: translation length 2 ln|lambda| of
the dominant eigenvalue (0 with a flag for elliptic/parabolic), displacement
d(Mo, o) from the entries of M alone, and the stable estimate
d(M^n o, o)/n.  The latter is computed by renormalized binary powering with
explicit log-scale bookkeeping so that n ~ 10^4 (matrix entries ~ e^9600)
stays in double precision.
"""

import cmath
import functools
import json
import math
import random
from collections import namedtuple


# ln(1 + sqrt 2) ~ 0.8814, the thin-triangle constant of H^2: the
# certificates' inequalities need delta at least this
THIN_TRIANGLE_DELTA = math.asinh(1.0)
DEFAULT_DELTA = 1.0  # >= THIN_TRIANGLE_DELTA
_DET_TOL = 1e-9
# closer to +-2 (or to an identity entry) than this, rounding decides
_TRACE_TOL = 1e-9
# golden-section bracket width, far below the certificates' 1e-7 slack
_BRACKET_TOL = 1e-10


class NotLoxodromic(ValueError):
    """Raised when an axis or attracting fixed point is requested for an
    isometry that has none; carries the offending trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class RepresentationError(ValueError):
    """A representation file or matrix pair fails validation."""


class _Infinity:
    """The boundary point at infinity (an explicit tag, never a big float)."""

    __slots__ = ()

    def __repr__(self):
        return "INF"


INF = _Infinity()


class HPoint:
    """A point of upper half-space: horizontal coordinate z, height t > 0.

    A value type: compares and hashes by (z, t); never mutate one.
    """

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        z, t = complex(z), float(t)
        if not 0.0 < t < math.inf:
            raise ValueError(f"height must be positive and finite, got {t}")
        if not cmath.isfinite(z):
            raise ValueError(f"horizontal coordinate must be finite, got {z}")
        self.z = z
        self.t = t

    def __eq__(self, other):
        if type(other) is not HPoint:
            return NotImplemented
        return self.z == other.z and self.t == other.t

    def __hash__(self):
        return hash((self.z, self.t))

    def __repr__(self):
        return f"HPoint(z={self.z!r}, t={self.t!r})"


BASEPOINT = HPoint(0.0, 1.0)


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------

# The scalar kernel: one 2x2 matrix as the 4-tuple (a, b, c, d) of Python
# complex, row-major.  Every path reads a matrix's entries once and works
# on the tuple; the public matrix type is its rows ((a, b), (c, d)), and
# any 2x2 rows (nested lists, a numpy array) are read as input.  Python's
# abs() raises OverflowError when the modulus of a finite complex exceeds
# the float range, so the kernel catches it, or takes math.hypot of the
# parts, where entries can be that large.

_ID = (1 + 0j, 0j, 0j, 1 + 0j)


def _entries(M):
    """The entries (a, b, c, d) of a 2x2 matrix as Python complex: a
    kernel 4-tuple passes through unchanged, anything else is read as two
    rows of two entries."""
    if type(M) is tuple and len(M) == 4:
        return M
    (a, b), (c, d) = M
    return complex(a), complex(b), complex(c), complex(d)


def _rows(X):
    """The rows ((a, b), (c, d)) of a kernel 4-tuple."""
    a, b, c, d = X
    return (a, b), (c, d)


def _mul(X, Y):
    a, b, c, d = X
    e, f, g, h = Y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(M):
    a, b, c, d = _entries(M)
    return a * d - b * c


def _inverse(X):
    """The inverse of a kernel 4-tuple whose det dr + i di is within
    _DET_TOL of 1: its adjugate divided by the det.

    Each entry is divided as numpy divides complex numbers (Smith's
    method, for |dr| >= |di|): times 1 / (dr + di rat), with rat = di / dr.
    Python's `/` rounds differently in the last bits; this way the letters
    equal numpy's adjugate / det bit for bit.
    """
    a, b, c, d = X
    dt = det(X)
    rat = dt.imag / dt.real
    scl = 1.0 / (dt.real + dt.imag * rat)
    return tuple(complex((x.real + x.imag * rat) * scl,
                         (x.imag - x.real * rat) * scl)
                 for x in (d, -b, -c, a))


def unimodularize(M):
    """M scaled so det = 1, as a kernel 4-tuple (the sign of the root is
    irrelevant projectively)."""
    X = a, b, c, d = _entries(M)
    s = cmath.sqrt(det(X))
    if s == 0:
        raise ValueError("singular matrix")
    return (a / s, b / s, c / s, d / s)


# --------------------------------------------------------------------------
# metric and action
# --------------------------------------------------------------------------

def distance(p, q):
    """d = 2 asinh(h / (2 sqrt(t1 t2))), h the Euclidean distance."""
    dz = p.z - q.z
    return offset_distance(dz.real, dz.imag, p.t, q.t)


def offset_distance(dx, dy, s, t):
    """`distance` on bare floats: between points at heights s and t whose
    horizontal coordinates differ by dx + i dy.

    The asinh form keeps small distances that arccosh(1 + x) rounds away,
    and the square roots are taken apart so that s t cannot underflow.
    Where the ratio overflows, 2 asinh(r) = 2 ln(2r) to double precision.
    """
    h = math.hypot(dx, dy, s - t)
    r = h / (2.0 * math.sqrt(s) * math.sqrt(t))
    if r < math.inf:
        return 2.0 * math.asinh(r)
    return 2.0 * (math.log(h) - 0.5 * math.log(s) - 0.5 * math.log(t))


def apply(M, p):
    """Image of the point p under the isometry M, which must lie in
    SL(2, C).

    The determinant is taken as 1, never recomputed: on a product along a
    long word, ad - bc in floats is cancellation noise.
    """
    a, b, c, d = _entries(M)
    t2 = p.t * p.t
    w = c * p.z + d
    try:
        # products, not ** 2: a Python float power raises on overflow
        den = abs(w) * abs(w) + abs(c) * abs(c) * t2
    except OverflowError:
        den = math.inf    # the height below is 0, which HPoint refuses
    if den == 0.0:    # underflowed: the height below would be infinite
        raise ValueError(f"the image of {p!r} leaves the float range "
                         f"(about 1.8e308)")
    z = ((a * p.z + b) * w.conjugate() + a * c.conjugate() * t2) / den
    return HPoint(z, p.t / den)


def mobius_boundary(M, x):
    """Image of a boundary point (complex or INF) under the Mobius map.

    A denominator that cancels to rounding noise is treated as the pole, so
    infinity stays a tagged value instead of leaking out as a huge float.
    """
    a, b, c, d = _entries(M)
    if x is INF:
        return INF if c == 0 else a / c
    w = c * x + d
    if abs(w) <= 1e-14 * (abs(c * x) + abs(d)):
        return INF
    return (a * x + b) / w


# --------------------------------------------------------------------------
# classification, eigenvalues, lengths
# --------------------------------------------------------------------------

def classify(M):
    """One of "identity", "elliptic", "parabolic", "loxodromic": "identity"
    for +-I to within _TRACE_TOL in each entry, else the kind of the trace
    (`_trace_kind`)."""
    a, b, c, d = _entries(M)
    tol = _TRACE_TOL
    try:
        identity = abs(b) <= tol and abs(c) <= tol and (
            (abs(a - 1) <= tol and abs(d - 1) <= tol)
            or (abs(a + 1) <= tol and abs(d + 1) <= tol))
    except OverflowError:
        identity = False    # an entry past the float range
    return "identity" if identity else _trace_kind(a + d)


def _trace_kind(tr):
    """One of "elliptic", "parabolic", "loxodromic" for the trace tr of a
    matrix of det 1: within _TRACE_TOL of +-2 is parabolic (the identity's
    trace lies there too), and a trace that is not finite is loxodromic."""
    tol = _TRACE_TOL
    if abs(tr.imag) <= tol:
        x = abs(tr.real)
        if x < 2.0 - tol:
            return "elliptic"
        if x <= 2.0 + tol:
            return "parabolic"
    return "loxodromic"


def _root_discriminant(tr, dt):
    """The square root s of tr^2 - 4 det with |tr + s| >= |tr - s|."""
    s = cmath.sqrt(tr * tr - 4.0 * dt)
    return -s if abs(tr + s) < abs(tr - s) else s


def translation_length(M):
    """2 ln|lambda| for loxodromic M; 0 for elliptic/parabolic/identity."""
    M = _entries(M)
    if classify(M) != "loxodromic":
        return 0.0
    return _trace_length(M[0] + M[3], det(M))


def _trace_length(tr, dt=1.0):
    """2 ln|lambda|, lambda the eigenvalue of larger modulus of a
    loxodromic matrix of trace tr and determinant dt."""
    # past 1e8, lambda = tr (1 - dt/tr^2 - ...) to double precision, and
    # tr^2 would overflow from |tr| ~ 1e154 on
    lam = tr
    if abs(tr.real) <= 1e8 and abs(tr.imag) <= 1e8:
        lam = (tr + _root_discriminant(tr, dt)) / 2.0
    # Re cmath.log is ln|lambda| even where |lambda| itself would overflow
    return 2.0 * cmath.log(lam).real


def _rescale(X, s):
    """The pair (X / m, s + ln m), m the largest entry modulus of X: the
    matrix e^s X as a bounded kernel tuple and a log scale."""
    m = max(map(abs, X))
    return tuple(x / m for x in X), s + math.log(m)


def _sinh_half_displacement(X, o):
    """sinh(d(M o, o) / 2) for the kernel 4-tuple X = (a, b, c, d) of M
    in SL(2, C).

    N = [[sqrt t, z / sqrt t], [0, 1 / sqrt t]] maps (0, 1) to o = (z, t),
    and X = N^-1 M N has 4 sinh^2(d/2) = |X11 - conj X22|^2 +
    |X12 + conj X21|^2 = |u|^2 + |v|^2.  Linear in the entries, it never
    forms the image point and is finite while they are; e^s M gives e^s
    times the value.  det M is taken as 1, as in `apply`.  Past the float
    range the value is inf (or NaN), never an OverflowError.
    """
    a, b, c, d = X
    z, t = o.z, o.t
    w = c * z + d
    u = a - c * z - w.conjugate()
    v = (a * z + b - z * w) / t + c.conjugate() * t
    return 0.5 * math.hypot(u.real, u.imag, v.real, v.imag)


def power_displacement(M, n, o=BASEPOINT):
    """d(M^n o, o) for M in SL(2, C), by square-and-multiply on the kernel.

    Each product is rescaled by its largest entry modulus and the log
    scale s carried apart, M^n = e^s Y, so n may be large enough that the
    entries of M^n overflow doubles by thousands of orders of magnitude.
    sinh(d/2) is e^s times `_sinh_half_displacement` of Y, kept as a log.
    """
    a, b, c, d = _entries(M)
    if n < 0:
        a, b, c, d, n = d, -b, -c, a, -n    # the adjugate: det = 1
    if n == 0:
        return 0.0
    base = _rescale((a, b, c, d), 0.0)
    acc = None
    while n:
        if n & 1:
            acc = base if acc is None else _rescale(_mul(acc[0], base[0]),
                                                    acc[1] + base[1])
        n >>= 1
        if n:
            base = _rescale(_mul(base[0], base[0]), 2.0 * base[1])
    Y, s = acc
    r = _sinh_half_displacement(Y, o)
    if r == 0.0:
        return 0.0
    log_r = s + math.log(r)
    # asinh(x) = ln 2x + O(x^-2), below double precision past x = e^20
    if log_r > 20.0:
        return 2.0 * (log_r + math.log(2.0))
    return 2.0 * math.asinh(math.exp(log_r))


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

def normalizer(to_zero, to_infinity):
    """Unimodular map sending the boundary point `to_zero` to 0 and
    `to_infinity` to INF, as a kernel 4-tuple."""
    if to_zero is INF:
        return unimodularize((0j, 1 + 0j, 1 + 0j, -complex(to_infinity)))
    if to_infinity is INF:
        return (1 + 0j, -complex(to_zero), 0j, 1 + 0j)
    if to_zero == to_infinity:
        raise ValueError("geodesic endpoints must be distinct")
    return unimodularize((1 + 0j, -complex(to_zero),
                          1 + 0j, -complex(to_infinity)))


class Geodesic:
    """An oriented bi-infinite geodesic with a signed coordinate.

    `endpoints` is (forward, backward): the coordinate H increases toward
    `endpoints[0]`.  H is arc length along the geodesic, zero at the anchor
    (the foot of the reference basepoint), so H is an isometry onto R.
    """

    __slots__ = ("endpoints", "_norm", "_inv", "_anchor_coord")

    def __init__(self, forward, backward, basepoint=BASEPOINT):
        if forward == backward or (forward is INF and backward is INF):
            raise ValueError("geodesic endpoints must be distinct")
        self.endpoints = (forward, backward)
        self._norm = a, b, c, d = normalizer(backward, forward)
        self._inv = (d, -b, -c, a)    # the adjugate: det = 1
        self._anchor_coord = self._frame(basepoint)[1]

    def __repr__(self):
        return f"Geodesic({self.endpoints[0]!r}, {self.endpoints[1]!r})"

    def _frame(self, p):
        """p measured in the frame where this geodesic is the vertical
        axis (0, INF): its distance to the geodesic, asinh(|z| / t), and
        the log-height of its foot, ln sqrt(|z|^2 + t^2)."""
        q = apply(self._norm, p)
        return (math.asinh(abs(q.z) / q.t),
                math.log(math.hypot(q.z.real, q.z.imag, q.t)))

    def point_at(self, h):
        """The point with signed coordinate h (arc length from the anchor)."""
        return apply(self._inv, HPoint(0.0, math.exp(self._anchor_coord + h)))


GeodesicMetrics = namedtuple("GeodesicMetrics", "dist foot coordinate")


def geodesic_metrics(p, g):
    """Distance from p to g, the foot of the projection, and its signed
    coordinate H(foot)."""
    dist, height = g._frame(p)
    foot = apply(g._inv, HPoint(0.0, math.exp(height)))
    return GeodesicMetrics(dist, foot, height - g._anchor_coord)


def dist_to_geodesic(p, g):
    return g._frame(p)[0]


def fixed_points(M):
    """(attracting, repelling) boundary fixed points of a loxodromic M."""
    M = _entries(M)
    kind = classify(M)
    if kind != "loxodromic":
        raise NotLoxodromic(f"{kind} isometry has no axis", trace=M[0] + M[3])
    return tuple(INF if d == 0 else n / d for n, d in _fixed_pairs(M))


def _fixed_pairs(M):
    """The (attracting, repelling) fixed points of a loxodromic kernel
    4-tuple as pairs (n, d) for n / d, so that INF (d = 0) needs no case:
    the roots (a - d +- s) / 2c have the product -b/c, so with mu the
    numerator that cannot cancel they are (mu, 2c) and (-2b, mu)."""
    a, b, c, d = M
    s = _root_discriminant(a + d, det(M))
    mu = a - d + s
    if abs(a - d - s) > abs(mu):
        mu = a - d - s
        return (-2 * b, mu), (mu, 2 * c)
    return (mu, 2 * c), (-2 * b, mu)


def axis_of(M, basepoint=BASEPOINT):
    """The axis of a loxodromic isometry, oriented toward its attracting
    fixed point, anchored at the projection of the basepoint."""
    att, rep = fixed_points(M)
    return Geodesic(att, rep, basepoint)


def geodesic_through(p, q):
    """The geodesic through two distinct interior points, oriented from p
    toward q."""
    dz = q.z - p.z
    span = abs(dz)
    if span <= 1e-14 * (p.t + q.t):
        if q.t == p.t:
            raise ValueError("coincident points span no geodesic")
        if q.t > p.t:
            return Geodesic(INF, p.z, basepoint=p)
        return Geodesic(p.z, INF, basepoint=p)
    u = dz / span
    # in the vertical plane through p and q: semicircle centered on the floor
    center = (span * span + q.t * q.t - p.t * p.t) / (2.0 * span)
    radius = math.hypot(center, p.t)
    return Geodesic(p.z + u * (center + radius),
                    p.z + u * (center - radius), basepoint=p)


class Segment:
    """The geodesic segment [p, q], parametrized by arc length from p."""

    __slots__ = ("p", "q", "length", "_g", "_lo", "_hi")

    def __init__(self, p, q):
        self._place(p, q, distance(p, q), None)

    @classmethod
    def on_line(cls, line, mp, mq):
        """The segment of `line` between the feet of the `geodesic_metrics`
        mp and mq on it, from their coordinates: no new geodesic and no
        distance."""
        seg = cls.__new__(cls)
        seg._place(mp.foot, mq.foot, abs(mq.coordinate - mp.coordinate),
                   (line, mp.coordinate, mq.coordinate))
        return seg

    def _place(self, p, q, length, frame):
        """Set [p, q]: a point, with no geodesic, when shorter than 1e-13;
        else on `frame` = (geodesic, coordinates of p and q), or, if None,
        on the geodesic through p and q anchored at p, where H = 0."""
        self.p, self.q, self.length = p, q, length
        if length < 1e-13:
            self._g, self._lo, self._hi = None, 0.0, 0.0
        elif frame is None:
            self._g = line = geodesic_through(p, q)
            self._lo, self._hi = 0.0, line._frame(q)[1] - line._anchor_coord
        else:
            self._g, self._lo, self._hi = frame

    def ideal_ends(self, other):
        """The ideal endpoints of `other`'s geodesic in the frame where this
        segment's geodesic is the vertical axis (0, INF): complex numbers
        or INF.  None when either segment is a point."""
        if self._g is None or other._g is None:
            return None
        return [mobius_boundary(self._g._norm, y) for y in other._g.endpoints]

    def spans(self, log_height):
        """Whether the point of the segment's geodesic at `log_height` in
        the frame of `ideal_ends` lies on the segment; a NaN does."""
        coord = log_height - self._g._anchor_coord
        return not (coord < min(self._lo, self._hi)
                    or coord > max(self._lo, self._hi))

    def point_at(self, s):
        """The point at arc length s from p (s clamped into [0, length])."""
        if self._g is None:
            return self.p
        s = min(max(s, 0.0), self.length)
        # the coordinates of p and q differ by exactly the length, up to
        # roundoff; interpolate in coordinate space
        h = self._lo + (self._hi - self._lo) * (s / self.length)
        return self._g.point_at(h)

    def interpolate(self, u):
        """The point at fraction u in [0, 1] of the way from p to q."""
        return self.point_at(u * self.length)


def dist_to_segment(x, seg):
    """Exact distance from a point to a geodesic segment: the distance to
    the full geodesic when the projection foot lands inside, otherwise the
    distance to the nearer endpoint."""
    if seg._g is None:
        return distance(x, seg.p)
    dist, height = seg._g._frame(x)
    if not seg.spans(height):
        return min(distance(x, seg.p), distance(x, seg.q))
    return dist


def minimize_convex(f, a, b):
    """Golden-section minimum of a convex function on [a, b], to a bracket
    of width _BRACKET_TOL.

    Returns (argmin, min).  Convexity makes the bracket reduction sound; the
    returned value is an achieved evaluation, hence always an upper bound
    for the true minimum.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = _BRACKET_TOL
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    candidates = [(f1, x1), (f2, x2), (f(a), a), (f(b), b)]
    best, arg = min(candidates)
    return arg, best


def fermi_point(u, rho, side=1.0):
    """The point at signed distance rho from the vertical axis (0, INF)
    whose projection foot has coordinate u (height e^u).

    The curve u -> fermi_point(u, rho) is the hypercycle at clearance |rho|;
    side picks the half-plane (direction of the real axis) for H^2 use.
    """
    return HPoint(*fermi_coords(u, rho, math.tanh(rho), side))


def fermi_coords(u, rho, tanh_rho, side):
    """`fermi_point` on bare floats: its (z, t), given tanh_rho =
    tanh(rho), which a caller stepping along the hypercycle already holds.
    Raises OverflowError where e^u leaves the float range."""
    scale = math.exp(u)
    return side * scale * tanh_rho, scale / math.cosh(rho)


# --------------------------------------------------------------------------
# representations of the rank-2 free group
# --------------------------------------------------------------------------

class Representation:
    """A pair of unimodular matrices (images of the two generators), a
    basepoint, and the ambient model data.

    The generators are held as kernel 4-tuples; `A` and `B` read as their
    rows ((a, b), (c, d)).
    """

    __slots__ = ("model", "basepoint", "_letters", "_c_prime")

    def __init__(self, model, A, B, basepoint=BASEPOINT):
        if model not in ("H2", "H3"):
            raise RepresentationError(f"unknown model {model!r}")
        A, B = _generator("A", A), _generator("B", B)
        for name, X in (("A", A), ("B", B)):
            for x in X:
                if not cmath.isfinite(x):
                    raise RepresentationError(
                        f"matrix {name} has a non-finite entry: {x}")
            # `not <=`: a det of inf - inf is NaN, which no bound holds
            if not abs(det(X) - 1.0) <= _DET_TOL:
                raise RepresentationError(
                    f"matrix {name} is not unimodular: det = {det(X):.12g}")
        if model == "H2":
            for name, X in (("A", A), ("B", B)):
                if any(x.imag != 0 for x in X):
                    raise RepresentationError(
                        f"H2 representation requires real entries; "
                        f"matrix {name} has imaginary parts")
            if basepoint.z.imag != 0:
                raise RepresentationError(
                    "H2 basepoint must have real horizontal coordinate")
        self.model = model
        self.basepoint = basepoint
        # each letter's image as a kernel 4-tuple
        self._letters = {"a": A, "A": _inverse(A), "b": B, "B": _inverse(B)}
        self._c_prime = None

    @property
    def A(self):
        return _rows(self._letters["a"])

    @property
    def B(self):
        return _rows(self._letters["b"])

    @property
    def c_prime(self):
        """max(d(a o, o), d(b o, o)), computed at its first read."""
        if self._c_prime is None:
            self._c_prime = max(self.displacement("a"),
                                self.displacement("b"))
        return self._c_prime

    def word_image(self, w):
        """The plain product of the letter images along w.

        The letters are exactly unimodular, so no determinant-based
        renormalization is applied: the product keeps a relative entry
        error of about |w| eps, while the floating determinant of a
        large-entry matrix is cancellation noise.
        """
        return _rows(self._product(w))

    def _product(self, w):
        """word_image as a kernel 4-tuple."""
        if not w:
            return _ID
        return functools.reduce(_mul, map(self._letters.__getitem__, w))

    def displacement(self, w):
        """d(rho(w) o, o); raises ValueError once it is not finite."""
        r = _sinh_half_displacement(self._product(w), self.basepoint)
        if not math.isfinite(r):
            raise ValueError(
                f"the displacement of a {len(w)}-letter word is not finite: "
                f"its computation leaves the float range (about 1.8e308)")
        return 2.0 * math.asinh(r)


def _generator(name, M):
    """The entries of the generator matrix `name` as a kernel 4-tuple: M
    is one already, or two rows of two numbers (`_entries`)."""
    try:
        X = _entries(M)
        if all(type(x) is complex for x in X):
            return X
    except (TypeError, ValueError):
        pass
    raise RepresentationError(f"matrix {name}: expected 2x2 rows or a "
                              f"kernel 4-tuple of complex, got {M!r}")


def _parse_matrix(name, field):
    """The kernel 4-tuple of a matrix field of 4 [re, im] pairs, row-major.

    Each entry is re + 1j * im in complex arithmetic, which sets the signs
    of its zero parts: an imaginary -0.0 becomes 0.0, and a real -0.0
    stays only where im is negative.
    """
    if not (type(field) is list and len(field) == 4
            and all(type(x) is list and len(x) == 2 for x in field)):
        raise RepresentationError(
            f"matrix {name} must be 4 [re, im] pairs row-major")
    try:
        pairs = [(float(re), float(im)) for re, im in field]
    except (TypeError, ValueError, OverflowError) as e:
        raise RepresentationError(f"matrix {name} is not numeric: {e}") from e
    return tuple(complex(re + 0.0 * im, im + 0.0) for re, im in pairs)


def parse_rep_file(path):
    """Load and validate a representation JSON file.

    Schema: {"model": "H2"|"H3", "A": [[re, im] x 4 row-major], "B": [...],
    "basepoint": {"z": [re, im], "t": 1.0}}; basepoint is optional, and
    other keys are ignored.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise RepresentationError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean",
                type(None): "null"}.get(type(data), "a number")
        raise RepresentationError(
            f"the top level of {path} must be a JSON object, got {kind}")
    for field in ("model", "A", "B"):
        if field not in data:
            raise RepresentationError(f"missing field {field!r} in {path}")
    base = data.get("basepoint", {"z": [0.0, 0.0], "t": 1.0})
    try:
        z = complex(base["z"][0], base["z"][1])
        basepoint = HPoint(z, base["t"])
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise RepresentationError(f"bad basepoint in {path}: {e}") from e
    return Representation(
        model=data["model"],
        A=_parse_matrix("A", data["A"]),
        B=_parse_matrix("B", data["B"]),
        basepoint=basepoint,
    )


def _seeded(seed):
    """The generator of a seeded command.  `random.Random` would seed with
    |seed|, so a negative seed is refused rather than taken as its
    absolute value."""
    if not (isinstance(seed, int) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return random.Random(seed)
