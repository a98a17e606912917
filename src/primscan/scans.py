"""Representation scanners over the primitive classes of the free group.

Everything here evaluates a representation of F2 = <a, b> into the
isometries of H^2 or H^3 against quantitative stability certificates:

- `excursion_profile` / `ExcursionProfile`: the distance profile from the
  leaf of a primitive word (the orbit of the basepoint) to the word's
  axis, with the discrete sub-excursion queries.
- `find_quasi_loops`: cyclic subwords with displacement at most eps times
  their length, plus greedy disjoint coverage and the contradiction test
  against a displacement-ratio constant.
- `bowditch_scan`: per-class traces (the Fricke recursion over the Farey
  tree), translation lengths and translation-per-letter ratios, and the
  constant C fitted from the worst ratio.
- `ps_scan`: per-class quasi-geodesic constants of the orbit map from the
  projection onto the class axis, and tubular radii.
- `local_global_scan`: local vs global quasi-geodesic constants over
  words of the shape (B A^N A^*)^*.
- `perturbation_scan`: robustness of the minimum ratio under entrywise
  noise.

The classes come from one depth-first walk of the Farey tree on an
explicit stack (`_farey_walk`), each from its two Farey parents u, v and
the region w across their edge, which the walk carries down to it: its
trace is tr u tr v - tr w, one complex multiply, and its kind comes
from the trace (`geometry._trace_kind`).  Bowditch's condition reads
traces alone; `ps_scan` also needs the fixed points, so its one walk
(`_class_walk`) carries with each trace the class image uv, one product
on the scalar 2x2 kernel of `geometry`, and the class word u + v.  The
scans put their records back in the order by q, then p.
"""

import math
from collections import namedtuple
from itertools import accumulate, repeat
from operator import sub

from .geometry import (
    INF,
    NotLoxodromic,
    Representation,
    Segment,
    apply,
    classify,
    det,
    fixed_points,
    mobius_boundary,
    unimodularize,
    _ID,
    _fixed_pairs,
    _mul,
    _seeded,
    _sinh_half_displacement,
    _trace_kind,
    _trace_length,
)
from .words import check_word, is_cyclically_reduced

__all__ = [
    "ExcursionProfile", "PreconditionError", "QuasiLoop", "QuasiLoopReport",
    "ScanReport", "bowditch_scan", "class_matrix", "excursion_profile",
    "find_quasi_loops", "local_global_scan", "perturbation_scan", "ps_scan",
]


# translation per letter below this is a Bowditch violation (C > 1000)
_LOW_RATIO = 1e-3
# relative gap between a period of foot increments and the translation
# length: rounding over a few hundred letters is ~1e-15, far below this
_PERIOD_TOL = 1e-9
# relative distance below which two boundary points are one
_BOUNDARY_TOL = 1e-9
# find_quasi_loops searches O(|gamma|^2) windows: refuse longer words
_MAX_QUASI_LOOP_LEN = 10_000
# each excursion sample is one output record: refuse finer steps
_MAX_EXCURSION_SAMPLES = 1_000_000
# a leaf that backs away from its axis by osc costs the carried fixed
# points up to e^osc ulps: past this, they come from the rotation images
_MAX_CARRIED_OSC = 6.0
# runs of power_floor + 0..3 letters keep random local-global words aperiodic
_RUN_SPREAD = 4
# noise draws per perturbation trial before it counts as degenerate
_PERTURB_RETRIES = 100


class PreconditionError(ValueError):
    """A scan's geometric precondition fails for the given representation."""


def _check_scan_word(w, cyclic):
    """w, once it is a nonempty reduced word of `words.check_word`, and
    cyclically reduced when `cyclic` (the scans that wrap around it);
    else ValueError naming it."""
    if not w or cyclic and not is_cyclically_reduced(w):
        kind = "cyclically reduced" if cyclic else "reduced"
        raise ValueError(f"the word must be a nonempty {kind} word, got {w!r}")
    return check_word(w)


def class_matrix(rep, tower):
    """The image of the tower's class word (`Representation.word_image`)."""
    return rep.word_image(tower.word)


def _rotation_images(rep, gamma):
    """rho(rotate(gamma, j)) for each rotation j, as kernel 4-tuples.

    rho(rotate(gamma, j)) = S_j P_j with the prefix P_j = rho(gamma[:j])
    and the suffix S_j = rho(gamma[j:]), so the |gamma| rotated products
    take 3 |gamma| multiplies instead of |gamma|^2.  Its axis is the class
    axis carried back by P_j^-1.
    """
    letters = [rep._letters[x] for x in gamma]
    suffixes = [letters[-1]]
    for X in reversed(letters[:-1]):
        suffixes.append(_mul(X, suffixes[-1]))
    suffixes.reverse()
    images = [suffixes[0]]
    prefix = letters[0]
    for j in range(1, len(letters)):
        images.append(_mul(suffixes[j], prefix))
        prefix = _mul(prefix, letters[j])
    return images


def _letter_ends(rep):
    """The point rho(x) o for each letter x.  Raises ValueError naming the
    first letter whose image leaves the float range."""
    o, ends = rep.basepoint, {}
    for x, X in rep._letters.items():
        try:
            ends[x] = apply(X, o)
        except ValueError:
            raise ValueError(
                f"the image of the basepoint {o!r} under letter {x} leaves "
                f"the float range (about 1.8e308)") from None
    return ends


def _leaf_edges(rep):
    """The segment [o, rho(x) o] for each letter x.  Raises ValueError
    naming the first letter whose segment leaves the float range."""
    o, edges = rep.basepoint, {}
    for x, p in _letter_ends(rep).items():
        try:
            edges[x] = Segment(o, p)
        except (ValueError, OverflowError):
            raise ValueError(
                f"the segment from the basepoint {o!r} to its image under "
                f"letter {x} leaves the float range (about 1.8e308)") from None
    return edges


def _rotation_axes(rep, gamma, m):
    """(na, da, nb, db, delta) for each rotation j of a word gamma with
    loxodromic image m: the attracting and repelling fixed points of
    rho(rotate(gamma, j)) as pairs (`geometry._fixed_pairs`), and the foot
    increment from o to rho(gamma[j]) o on their axis.

    Rotation j is P_j^-1 m P_j with P_j = rho(gamma[:j]), so alpha_j =
    rho(gamma[j]) alpha_{j+1} backward from alpha_n = alpha, and beta_{j+1}
    = rho(gamma[j])^-1 beta_j forward from beta_0 = beta: each runs where
    its point attracts, so rounding errors shrink.  The foot of p lies at
    ln(h_p(beta) / h_p(alpha)) + const (h_p the norm of `_carried` at p),
    and h_{g o}(v) / h_{g o}(w) = h_o(g^-1 v) / h_o(g^-1 w), so delta is
    ln(h_alpha h_beta), the norms divided out between rotations j, j + 1.

    A rounding error made where the leaf backs away from the axis grows by
    the backing off, up to e^osc.  Past _MAX_CARRIED_OSC the rows come
    from the rotation images instead (`_image_axes`), as exact as their
    products.
    """
    o, letters = rep.basepoint, rep._letters
    alpha, beta = _fixed_pairs(m)
    # the identity first divides each pair by its norm
    alphas = _carried(o, alpha, [_ID, *map(letters.get, reversed(gamma))])
    betas = _carried(o, beta, [_ID, *(letters[x.swapcase()] for x in gamma)])
    alphas.reverse()
    deltas = [math.log(a[2] * b[2]) for a, b in zip(alphas, betas[1:])]
    rate = sum(deltas) / len(deltas)
    feet = list(accumulate(map(sub, deltas, repeat(rate)), initial=0.0))
    if max(feet) - min(feet) > _MAX_CARRIED_OSC:
        return _image_axes(rep, gamma)
    return [(na, da, nb, db, delta) for (na, da, _), (nb, db, _), delta
            in zip(alphas, betas, deltas)]


def _image_axes(rep, gamma):
    """The rows of `_rotation_axes` from the fixed points of each rotation
    image of `_rotation_images`: alpha_j is rho(gamma[j]) alpha_{j+1} and
    beta_j that of image j, one step each, so h_alpha and h_beta are the
    norms of those steps."""
    o, letters = rep.basepoint, rep._letters
    pairs = [_fixed_pairs(X) for X in _rotation_images(rep, gamma)]
    rows = []
    for j, x in enumerate(gamma):
        _, (na, da, h_alpha) = _carried(o, pairs[(j + 1) % len(gamma)][0],
                                        [_ID, letters[x]])
        (nb, db, _), (_, _, h_beta) = _carried(
            o, pairs[j][1], [_ID, letters[x.swapcase()]])
        rows.append((na, da, nb, db, math.log(h_alpha * h_beta)))
    return rows


def _carried(o, pair, matrices):
    """(n, d, h) after each kernel 4-tuple in turn carries the pair (n, d):
    the image divided by its norm h = |(z d - n, t d)| at o = (z, t)."""
    (n, d), z, t, out = pair, o.z, o.t, []
    for a, b, c, e in matrices:
        n, d = a * n + b * d, c * n + e * d
        h = math.hypot(abs(z * d - n), t * abs(d))
        n, d = n / h, d / h
        out.append((n, d, h))
    return out


def _sinh_axis_distance(z, t, na, da, nb, db):
    """sinh d((z, t), axis) for the axis between the points na / da and
    nb / db: |(z - alpha) conj(z - beta) + t^2| / (t |alpha - beta|) with
    the denominators cleared."""
    return (abs((z * da - na) * (z * db - nb).conjugate()
                + t * t * da * db.conjugate())
            / (t * abs(na * db - nb * da)))


def _offset_grid(rep, letters, kmax, starts):
    """The orbit pair distances d(v_m, v_{m+k}) of a word: for each offset
    k = 1..kmax in turn, the list over the starts m < min(starts, n - k +
    1), in order of m.

    d(v_m, v_{m+k}) is the basepoint displacement of the subword
    letters[m:m+k] (`geometry._sinh_half_displacement`, which is finite
    while the product is), so each value comes from a fresh k-letter product
    instead of coordinates accumulated from a single frame (whose pair
    differences lose all precision at depth ~ 35).  Row k of products is
    row k - 1 times one letter each, on the kernel `_mul`, left to right,
    so the starts m and m + period of a periodic word give bit-identical
    values, and starts = period covers every residue.  Raises ValueError,
    naming the shortest such subword length, once a displacement is not
    finite.
    """
    n, o = len(letters), rep.basepoint
    images = [rep._letters[x] for x in letters]
    row = images[:starts]
    for k in range(1, min(kmax, n) + 1):
        if k > 1:    # map stops at the shorter: min(starts, n - k + 1)
            row = list(map(_mul, row, images[k - 1:]))
        disps = [2.0 * math.asinh(_sinh_half_displacement(W, o))
                 for W in row]
        if not all(map(math.isfinite, disps)):
            raise ValueError(
                f"the displacement of a {k}-letter subword is not "
                f"finite: its computation leaves the float range "
                f"(about 1.8e308)")
        yield disps


def _offset_minima(rep, letters, kmax, starts):
    """min over m of d(v_m, v_{m+k}) for k = 1..kmax (see _offset_grid)."""
    return list(map(min, _offset_grid(rep, letters, kmax, starts)))


def _linspace(start, stop, num):
    """numpy's linspace(start, stop, num) as a list, bit for bit: start +
    i (stop - start) / (num - 1), the last point exactly stop."""
    if num == 1:
        return [float(start)]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [float(stop)]


class ExcursionProfile:
    """The distance E(u) from the leaf of gamma (the orbit of the
    basepoint, joined by geodesic edges) to the axis line of gamma,
    sampled uniformly over one period.

    E is periodic with period len(gamma) and Lipschitz with constant
    C' (the leaf moves at most C' per unit parameter, and distance
    to a fixed set is 1-Lipschitz).  The discrete sub-excursion queries
    tolerate one grid step of slack.
    """

    __slots__ = ("gamma", "period", "step", "us", "values", "axes", "edges",
                 "cprime")

    def __init__(self, gamma, us, axes, edges, cprime):
        self.gamma, self.period, self.us = gamma, len(gamma), us
        self.step = us[1] - us[0]
        self.axes, self.edges, self.cprime = axes, edges, cprime
        js = list(map(math.floor, us))
        self.values = self._at(js, map(sub, us, js))

    def _at(self, js, fs):
        """E(j + f) for each j of js and f of fs: the distance from
        fraction f of the edge of letter gamma[j] to the axis of rotation j
        (j mod the period).  Raises ValueError once a value is not finite."""
        # a sample's point depends only on its letter and fraction: each
        # distinct pair is interpolated once
        points, values = {}, []
        for j, f in zip(js, fs):
            j %= self.period
            key = self.gamma[j], f
            p = points.get(key)
            if p is None:
                p = points[key] = self.edges[key[0]].interpolate(f)
            try:
                value = math.asinh(_sinh_axis_distance(p.z, p.t,
                                                       *self.axes[j]))
            except ArithmeticError:    # abs() past the float range, or a
                value = math.nan    # zero distance between the axis ends
            if not math.isfinite(value):
                raise ValueError(f"the axis of the {self.period}-letter word "
                                 f"leaves the float range (about 1.8e308)")
            values.append(value)
        return values

    def value(self, u):
        """E at an arbitrary parameter."""
        j = math.floor(u)
        return self._at([j], [u - j])[0]

    @property
    def min_excursion(self):
        return min(self.values)

    @property
    def max_excursion(self):
        return max(self.values)

    def _circular(self):
        """Samples over [0, period), rolled so a global minimum leads:
        then no run at a threshold above the minimum wraps around."""
        vals = self.values[:-1]
        shift = vals.index(min(vals))
        return vals[shift:] + vals[:shift], shift

    def _runs(self, vals, threshold):
        """Half-open sample-index runs where vals >= threshold."""
        if vals[0] >= threshold:
            return [(0, len(vals))]
        runs, start = [], None
        for i, v in enumerate(vals):
            if v >= threshold:
                if start is None:
                    start = i
            elif start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, len(vals)))
        return runs

    def _run_span(self, start, end, n):
        """Inner parameter length of a sample run; a run of all n
        circular samples is the whole period."""
        if end - start == n:
            return self.period
        return (end - start - 1) * self.step

    def sub_excursion_in(self, a):
        """A sub-excursion whose length lies in [a, 2a], up to one grid
        step of slack: returns (threshold, u_start, u_end, length) for
        the longest interval in the window, preferring lower thresholds.

        As the threshold rises, the longest run shrinks continuously and
        at most halves when it splits, so some threshold hits any
        window of multiplicative width two, for a up to half the longest
        excursion length.
        """
        slack = self.step + 1e-9    # 1e-9: rounding of the sample grid
        lo, hi = a - slack, 2.0 * a + slack
        vals, shift = self._circular()
        best = None
        for threshold in sorted(set(vals)):
            for start, end in self._runs(vals, threshold):
                length = self._run_span(start, end, len(vals))
                if lo <= length <= hi and (best is None or length > best[3]):
                    u_start = ((start + shift) % len(vals)) * self.step
                    best = (threshold, u_start, u_start + length, length)
        if best is None:
            raise ValueError(
                f"no sub-excursion with length within one step of [{a}, {2*a}]")
        return best

    def periodicity_defect(self):
        """The seam defect: max over the vertices j of |E(j)| from rotation
        j - 1 at fraction 1 against rotation j at fraction 0 (j = 0 is the
        wrap u = period).  The two agree in exact arithmetic, so this
        measures the precision of the closed form."""
        n = self.period
        ends = self._at(range(-1, n - 1), [1.0] * n)
        starts = self._at(range(n), [0.0] * n)
        return max(map(abs, map(sub, ends, starts)))

    def lipschitz_defect(self):
        """max |E(u_{i+1}) - E(u_i)| - C' * step (negative when the
        Lipschitz bound holds on the grid)."""
        values = self.values
        jump = max(map(abs, map(sub, values[1:], values)))
        return jump - self.cprime * self.step


def excursion_profile(rep, gamma, step=0.25):
    """Sample E(u) = d(leaf(u), axis line of gamma) over one period.
    rho(gamma[:j])^-1 maps leaf edge j to the edge of its letter at o
    (`_leaf_edges`) and the axis of gamma to that of rotation j, so every
    sample is taken at unit scale, at every depth of the leaf."""
    _check_scan_word(gamma, cyclic=True)
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    samples, cap = len(gamma) / step, _MAX_EXCURSION_SAMPLES
    if samples > cap:
        raise ValueError(f"step must be at least {len(gamma) / cap:.3g} on a "
                         f"{len(gamma)}-letter word: {step} gives "
                         f"{samples:.4g} samples, above the cap {cap}")
    m = rep._product(gamma)
    if classify(m) != "loxodromic":
        raise NotLoxodromic(f"image of {gamma!r} is {classify(m)}",
                            m[0] + m[3])
    count = max(1, math.ceil(samples - 1e-9))
    try:
        axes = [row[:4] for row in _rotation_axes(rep, gamma, m)]
    except ArithmeticError:    # a modulus past the float range, or a
        axes = [(math.nan,) * 4] * len(gamma)    # zero pair: refused by _at
    return ExcursionProfile(
        gamma, _linspace(0.0, float(len(gamma)), count + 1), axes,
        _leaf_edges(rep), rep.c_prime)


# ----------------------------------------------------------- quasi-loops

class QuasiLoop:
    """A cyclic subword whose displacement is at most eps times its
    length."""

    __slots__ = ("word", "position", "eps", "displacement")

    def __init__(self, word, position, eps, displacement):
        self.word = word
        self.position = position
        self.eps = eps
        self.displacement = displacement

    def __repr__(self):
        return (f"QuasiLoop({self.word!r}, position={self.position}, "
                f"eps={self.eps}, displacement={self.displacement:.6g})")


# contradiction: a dict, or None when it was not evaluated
QuasiLoopReport = namedtuple("QuasiLoopReport",
                             "loops packed coverage contradiction")


def find_quasi_loops(rep, gamma, eps, min_len=1, C=None):
    """All cyclic subwords w of gamma with d(rho(w) o, o) <= eps |w|,
    searched over the O(|gamma|^2) windows, plus the fraction of gamma
    covered by a greedy disjoint packing of the loops found.

    When `C` is given and the coverage exceeds 1 - (1/C - eps) / C',
    the displacement-ratio contradiction is evaluated: the report then
    records whether d(rho(gamma) o, o) < |gamma| / C.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    if C is not None and not 0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    n = len(_check_scan_word(gamma, cyclic=True))
    if n > _MAX_QUASI_LOOP_LEN:
        raise ValueError(
            f"|gamma| = {n} exceeds the cap {_MAX_QUASI_LOOP_LEN}")
    doubled = gamma + gamma
    loops = []
    # every offset has all n starts: entry m of row k is the subword of
    # length k at position m
    for k, disps in enumerate(_offset_grid(rep, doubled, n, n), 1):
        if k >= min_len:
            bound = eps * k
            loops += [QuasiLoop(doubled[m:m + k], m, eps, d)
                      for m, d in enumerate(disps) if d <= bound]
    packed, occupied = [], bytearray(n)
    for loop in sorted(loops, key=lambda l: (-len(l.word), l.position)):
        # the cells [start, end) mod n: one run, or two once it wraps
        start = loop.position
        end = start + len(loop.word)
        runs = (start, min(end, n)), (0, max(end - n, 0))
        if all(occupied.find(1, a, b) < 0 for a, b in runs):
            for a, b in runs:
                occupied[a:b] = b"\1" * (b - a)
            packed.append(loop)
    coverage = occupied.count(1) / n
    contradiction = None
    if C is not None and rep.c_prime > 0:
        threshold = 1.0 - (1.0 / C - eps) / rep.c_prime
        if coverage > threshold:
            disp = rep.displacement(gamma)
            contradiction = {
                "coverage": coverage, "threshold": threshold,
                "displacement": disp, "bound": n / C,
                "confirmed": disp < n / C,
            }
    return QuasiLoopReport(loops, packed, coverage, contradiction)


# ----------------------------------------------------------------- scans

# a scan's records (per class by q then p; per word in local_global_scan)
# and its aggregate summary
ScanReport = namedtuple("ScanReport", "records aggregate")


def _fricke(u, v, w):
    """tr uv = tr u tr v - tr w, the Fricke recursion."""
    return u * v - w


def _farey_walk(max_denominator, a, b, ab, join):
    """(p, q, payload) for each class p/q with p, q >= 0 up to the cap:
    1/0, 0/1 and 1/1 with the payloads a, b, ab, then the Stern-Brocot
    tree below 1/1 in preorder, larger slope first, on an explicit stack.
    A class is the mediant of its Farey parents u, v (u of larger slope),
    and its payload join(u, v, w) of theirs and of the region w across
    their edge; its children are the frames (u, x, v) and (x, v, u).  Both
    p and q grow down every branch, so a child past the cap is cut with
    its subtree."""
    if max_denominator < 1:
        raise ValueError(f"max_den must be >= 1, got {max_denominator}")
    yield from ((1, 0, a), (0, 1, b), (1, 1, ab))
    # (p, q) of u and of v, and the payloads of u, v and w
    stack = [(1, 1, 0, 1, ab, b, a), (1, 0, 1, 1, a, ab, b)]
    while stack:
        pu, qu, pv, qv, u, v, w = stack.pop()
        p, q = pu + pv, qu + qv
        if p > max_denominator or q > max_denominator:
            continue
        x = join(u, v, w)
        yield p, q, x
        stack.append((p, q, pv, qv, x, v, u))
        stack.append((pu, qu, p, q, u, x, v))    # popped first


def _class_walk(rep, max_denominator):
    """`_farey_walk` of (tr, m, gamma) per class: the trace (`_fricke`),
    the image uv and the word u + v of its Farey parents u, v, a rotation
    of the `build_blocks` word."""
    A, B = rep._letters["a"], rep._letters["b"]
    AB = _mul(A, B)
    return _farey_walk(
        max_denominator, (A[0] + A[3], A, "a"), (B[0] + B[3], B, "b"),
        (AB[0] + AB[3], AB, "ab"),
        lambda u, v, w: (_fricke(u[0], v[0], w[0]), _mul(u[1], v[1]),
                         u[2] + v[2]))


def _trace_refusal(p, q, max_denominator):
    """A scan's ValueError for the class p/q, whose trace is not finite."""
    return ValueError(f"the trace of class {p}/{q} is not finite at max_den "
                      f"{max_denominator}: it leaves the float range (about "
                      f"1.8e308)")


def _record_rows(rows):
    """(q, row) for each row of `rows`, in which a scan keeps a tuple
    (p, ...) per class of denominator q in walk order, with the row sorted
    (by p, which no two of its tuples share) and dropped from `rows`: the
    scans' records come by q, then p.  In the walk, the row of q >= 2 is
    one run of decreasing p, and the row of q = 1 one of increasing p, so
    each sort is linear."""
    for q, row in enumerate(rows):
        rows[q] = None
        row.sort()
        yield q, row


def bowditch_scan(rep, max_denominator):
    """Scan the primitive classes p/q with p, q >= 0 up to the cap: the
    trace (the Fricke recursion on the trace triple of `rep`), translation
    length and ratio translation/|class| (|class| = p + q), each from the
    trace alone (`geometry._trace_kind`); flag non-loxodromic and
    low-ratio classes; fit C = 1 / ratio from the worst ratio.  Near +-2 a
    trace cannot tell the identity from a parabolic: the class image uv
    decides, from one `_class_walk` started at the first such class and
    advanced along the trace walk.  Raises ValueError naming the first
    class in walk order whose trace is not finite; no later class is
    computed."""
    A, B = rep._letters["a"], rep._letters["b"]
    AB = _mul(A, B)
    rows = [[] for _ in range(max_denominator + 1)]
    images = None
    for p, q, tr in _farey_walk(max_denominator, A[0] + A[3], B[0] + B[3],
                                AB[0] + AB[3], _fricke):
        kind = _trace_kind(tr)
        tl = _trace_length(tr) if kind == "loxodromic" else 0.0
        if not math.isfinite(tl):    # nor is tr, whose log it is
            raise _trace_refusal(p, q, max_denominator)
        if kind == "parabolic":
            if images is None:
                images = _class_walk(rep, max_denominator)
            m = next(x[1] for i, j, x in images if (i, j) == (p, q))
            if classify(m) == "identity":
                kind = "identity"
        rows[q].append((p, tr, kind, tl))
    records, min_trace, small = [], math.inf, 0    # least |tr|, |tr| <= 2
    for q, row in _record_rows(rows):
        for p, tr, kind, tl in row:
            ratio = tl / (p + q)
            flags = []
            if kind != "loxodromic":
                flags.append(kind)
            elif ratio < _LOW_RATIO:
                flags.append("low-ratio")
            records.append({"p": p, "q": q, "len": p + q,
                            "tr": [tr.real, tr.imag], "tl": tl,
                            "ratio": ratio, "flags": flags})
            size = math.hypot(tr.real, tr.imag)
            if size < min_trace:
                min_trace = size
            small += size <= 2.0 + 1e-12
    min_ratio = min(r["ratio"] for r in records)
    abAB = rep._product("abAB")
    commutator = abAB[0] + abAB[3]
    lox = [r for r in records if not r["flags"]]
    lsq = None
    if len({r["len"] for r in lox}) >= 2:
        # imported here: `statistics` loads `fractions` and `decimal`,
        # which every other command would pay for at import
        from statistics import linear_regression
        lsq = linear_regression([r["len"] for r in lox],
                                [r["tl"] for r in lox])
    aggregate = {
        "classes": len(records),
        "min_ratio": min_ratio,
        "min_trace": min_trace,
        "fitted_C": 1.0 / min_ratio if min_ratio > 0 else None,
        "lsq_rate": lsq.slope if lsq else None,
        "lsq_intercept": lsq.intercept if lsq else None,
        "commutator_trace": [commutator.real, commutator.imag],
        "small_trace_count": small,
        "violations": len(records) - len(lox),
    }
    return ScanReport(records, aggregate)


def ps_scan(rep, max_denominator):
    """Quasi-geodesic constants and tubes of the leaves of the primitive
    classes of `_class_walk`, with p, q >= 0 up to the cap.  A class whose
    trace is not loxodromic (`geometry._trace_kind`) is flagged
    `not-loxodromic`.

    Lemma: with s_m the axis coordinate of the foot of leaf vertex v_m, l
    the translation length and n = |gamma|, e_m = s_m - m l / n is
    n-periodic.  Projection onto a geodesic is 1-Lipschitz
    (Bridson-Haefliger, Metric spaces of non-positive curvature, Prop.
    II.2.4), so d(v_i, v_j) >= (l / n)(j - i) - osc for all i < j, with
    `rate` l / n (the ratio of `bowditch_scan`) and `osc` = max e - min e.
    The foot increments sum to l over a period (`period_error`: the
    relative gap; NaN is flagged).  Distance to a geodesic is convex along
    leaf edges (ibid., Cor. II.2.5): `tube` = max_j d(o, axis X_j).

    Both come from `_rotation_axes`, one class at a time: the tube is the
    largest `_sinh_axis_distance` at o.  Raises ValueError naming the
    letter whose image of o leaves the float range (`_letter_ends`), or
    the first class with a non-finite trace, tube or foot.
    """
    z, t = rep.basepoint.z, rep.basepoint.t
    _letter_ends(rep)    # the leaf's vertices must be in the float range
    rows = [[] for _ in range(max_denominator + 1)]
    for p, q, (tr, m, gamma) in _class_walk(rep, max_denominator):
        kind = _trace_kind(tr)
        tl = _trace_length(tr) if kind == "loxodromic" else 0.0
        if not math.isfinite(tl):    # nor is tr, whose log it is
            raise _trace_refusal(p, q, max_denominator)
        rate = tl / (p + q)
        if kind != "loxodromic":
            rows[q].append((p, tr, tl, rate, None, None, None,
                            ["not-loxodromic"]))
            continue
        e = low = high = period = top = 0.0    # e_m = s_m - m rate, m < n
        try:
            for na, da, nb, db, delta in _rotation_axes(rep, gamma, m):
                sinh = _sinh_axis_distance(z, t, na, da, nb, db)
                if sinh > top:
                    top = sinh
                period += delta
                if e < low:
                    low = e
                elif e > high:
                    high = e
                e += delta - rate
        except ArithmeticError:    # a zero pair, or abs() past the float
            period = math.nan    # range or of a NaN after one (errno stays)
        # a NaN axis makes the period NaN
        osc, tube = high - low, math.asinh(top)
        if not math.isfinite(osc + period + tube):
            raise ValueError(
                f"the axis of class {p}/{q} leaves the float range "
                f"(about 1.8e308) at max_den {max_denominator}")
        period_error = abs(period - tl) / max(1.0, tl)
        low, off = rate < _LOW_RATIO, not period_error <= _PERIOD_TOL
        rows[q].append((p, tr, tl, rate, osc, period_error, tube,
                        ["low-ratio"] * low + ["period-error"] * off))
    records = [{"p": p, "q": q, "len": p + q, "tr": [tr.real, tr.imag],
                "tl": tl, "rate": rate, "osc": osc,
                "period_error": period_error, "tube": tube, "flags": flags}
               for q, row in _record_rows(rows)
               for p, tr, tl, rate, osc, period_error, tube, flags in row]
    lox = [r for r in records if r["tube"] is not None]
    return ScanReport(records, {
        "classes": len(records),
        "min_rate": min(r["rate"] for r in records),
        **{f"max_{k}": max((r[k] for r in lox), default=None)
           for k in ("osc", "period_error", "tube")},
        "violations": sum(1 for r in records if r["flags"]),
    })


# ---------------------------------------------------------- local-global

def _boundary_equal(x, y):
    if x is INF or y is INF:
        return x is INF and y is INF
    return abs(x - y) <= _BOUNDARY_TOL * (1.0 + abs(x) + abs(y))


def _local_global_word(rng, power_floor, target_len):
    parts = []
    total = 0
    while total < target_len:
        run = power_floor + rng.randrange(_RUN_SPREAD)
        parts.append("b" + "a" * run)
        total += 1 + run
    return "".join(parts)


def local_global_scan(rep, power_floor, window, sample_words, seed=0):
    """Measure local (within `window`) vs global quasi-geodesic constants
    of orbit paths over words of the shape (B A^N A^*)^* with N =
    power_floor.  `sample_words` is either a count of random words to
    generate or an explicit list of words.

    Precondition: A is loxodromic and B does not map the attracting fixed
    point of A to its repelling fixed point.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if power_floor < 0:
        raise ValueError(f"power_floor must be >= 0, got {power_floor}")
    if isinstance(sample_words, int):
        if sample_words < 1:
            raise ValueError(
                f"sample_words must be >= 1, got {sample_words}")
    else:
        sample_words = [_check_scan_word(w, cyclic=False)
                        for w in sample_words]
        if not sample_words:
            raise ValueError("sample_words must not be an empty list")
    a_image = rep._letters["a"]
    if classify(a_image) != "loxodromic":
        raise PreconditionError("the image of a must be loxodromic")
    attracting, repelling = fixed_points(a_image)
    image = mobius_boundary(rep._letters["b"], attracting)
    if _boundary_equal(image, repelling):
        raise PreconditionError(
            f"B maps the attracting fixed point {attracting} of A to its "
            f"repelling fixed point {repelling}")
    if isinstance(sample_words, int):
        rng = _seeded(seed)
        words = [_local_global_word(rng, power_floor, round(t))
                 for t in _linspace(10, 200, sample_words)]
    else:
        words = sample_words
    records = []
    for word in words:
        n = len(word)
        mins = _offset_minima(rep, word, n, n)
        per_offset = [d / k for k, d in enumerate(mins, 1)]
        win = min(window, n)
        local_rate = min(per_offset[:win])
        global_rate = min(per_offset)
        global_defect = max(max(0.0, local_rate * k - d)
                            for k, d in enumerate(mins, 1))
        records.append({
            "len": n, "local_rate": local_rate, "global_rate": global_rate,
            "global_defect": global_defect,
        })
    aggregate = {
        "words": len(records),
        "worst_local_rate": min(r["local_rate"] for r in records),
        "worst_global_rate": min(r["global_rate"] for r in records),
        "worst_global_defect": max(r["global_defect"] for r in records),
    }
    return ScanReport(records, aggregate)


# ---------------------------------------------------------- perturbation

def perturbation_scan(rep, radius, trials, max_denominator, seed=0):
    """Perturb the generator matrices entrywise by uniform noise of the
    given radius, re-unimodularize, and rerun the ratio scan; report the
    minimum and median of the perturbed minimum ratios."""
    if not 0 <= 2 * radius < math.inf:    # the noise spans 2 radius
        raise ValueError(f"radius must be nonnegative, with 2 radius finite "
                         f"(below about 8.99e307), got {radius}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = _seeded(seed)
    base = bowditch_scan(rep, max_denominator)
    values = []
    for _ in range(trials):
        perturbed = None
        for _ in range(_PERTURB_RETRIES):
            try:
                perturbed = Representation(
                    rep.model,
                    _perturb(rng, rep._letters["a"], radius, rep.model),
                    _perturb(rng, rep._letters["b"], radius, rep.model),
                    basepoint=rep.basepoint)
                break
            except ValueError:
                continue
        if perturbed is None:
            values.append(None)
            continue
        scan = bowditch_scan(perturbed, max_denominator)
        values.append(scan.aggregate["min_ratio"])
    valid = [v for v in values if v is not None]
    from statistics import median    # not at the top: see bowditch_scan
    return {
        "radius": radius,
        "trials": trials,
        "unperturbed": base.aggregate["min_ratio"],
        "min": min(valid) if valid else None,
        "median": median(valid) if valid else None,
        "degenerate": trials - len(valid),
        "values": values,
    }


def _perturb(rng, X, radius, model):
    """The kernel 4-tuple X plus uniform noise in each entry, at det 1."""
    raw = tuple(x + rng.uniform(-radius, radius) for x in X)
    if model == "H3":
        raw = tuple(x + 1j * rng.uniform(-radius, radius) for x in raw)
    # a draw past the float range gives a non-finite matrix, which
    # `Representation` refuses and the caller draws again; hypot, unlike
    # abs(), does not raise where |d| passes the float range
    d = det(raw)
    if model == "H2" and d.real <= 0.05 or math.hypot(d.real, d.imag) <= 0.05:
        raise ValueError("degenerate perturbation")
    return unimodularize(raw)
