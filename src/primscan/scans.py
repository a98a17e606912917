"""Representation scanners over the primitive classes of the free group.

Everything here evaluates a representation of F2 = <a, b> into the
isometries of H^2 or H^3 against quantitative stability certificates:

- `excursion_profile` / `ExcursionProfile`: the distance profile from the
  leaf of a primitive word (the orbit of the basepoint) to the word's
  axis, with the discrete sub-excursion queries.
- `find_quasi_loops`: cyclic subwords with displacement at most eps times
  their length, plus greedy disjoint coverage and the contradiction test
  against a displacement-ratio constant.
- `bowditch_scan`: per-class traces, translation lengths and
  translation-per-letter ratios, the constant C fitted from the worst
  ratio, and the trace cross-check data (Fricke recursion over the Farey
  tree).
- `ps_scan`: per-class quasi-geodesic constants of the orbit map from the
  projection onto the class axis, and tubular radii.
- `local_global_scan`: local vs global quasi-geodesic constants over
  words of the shape (B A^N A^*)^*.
- `perturbation_scan`: robustness of the minimum ratio under entrywise
  noise.

Class images come from one walk of the Farey tree (`blocks.farey_walk`):
the class between Farey neighbours u and v is uv, so each class costs one
product on the scalar 2x2 kernel of `geometry` from two images the walk
already holds.  The scans sort the walk into slope order; no word is
built unless a scan walks it, and the trace oracle `fricke_traces` is
the same walk on traces.
"""

import cmath
import math
from dataclasses import dataclass
from operator import itemgetter

from .blocks import farey_walk
from .geometry import (
    INF,
    NotLoxodromic,
    Representation,
    Segment,
    apply,
    classify,
    fixed_points,
    mobius_boundary,
    np,
    _loxodromic_length,
    _mul,
    _sinh_half_displacement,
)
from .words import check_word, is_cyclically_reduced

__all__ = [
    "ExcursionProfile", "PreconditionError", "QuasiLoop", "QuasiLoopReport",
    "ScanReport", "bowditch_scan", "class_matrix", "excursion_profile",
    "find_quasi_loops", "fricke_traces", "local_global_scan",
    "perturbation_scan", "ps_scan",
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


def _leaf_edges(rep):
    """The segment [o, rho(x) o] for each letter x."""
    o = rep.basepoint
    return {x: Segment(o, apply(X, o)) for x, X in rep._letters.items()}


def _rotation_axes(images):
    """(b, c, m, s, sign) of an (n, 4) array of rotation images: the roots
    of `geometry.fixed_points` kept as the fractions m / 2c and -2b / m, so
    that INF (c = 0) needs no case.  The attracting point alpha is m / 2c
    if sign > 0, else -2b / m, and |alpha - beta| = |s / c|."""
    a, b, c, d = images.T
    tr = a + d
    with np.errstate(all="ignore"):    # refused by the callers if not finite
        s = np.sqrt(tr * tr - 4.0 * (a * d - b * c))
        s = np.where(np.abs(tr + s) < np.abs(tr - s), -s, s)
        sign = np.where(np.abs(a - d - s) > np.abs(a - d + s), -1.0, 1.0)
        return b, c, a - d + sign * s, s, sign


def _axis_distance(axes, z, t):
    """d((z, t), axis) for each axis of `_rotation_axes`: sinh d =
    |(z - alpha) conj(z - beta) + t^2| / (t |alpha - beta|), cleared."""
    b, c, m, s, _ = axes
    with np.errstate(all="ignore"):
        return np.arcsinh(np.abs((2 * c * z - m) * np.conj(z * m + 2 * b)
                                 + 2 * t * t * c * np.conj(m))
                          / (2 * t * np.abs(s * m)))


# matrices per displacement batch: bounds the memory of the offset grid
# of a long word
_GRID_ROWS = 1 << 16


def _offset_grid(rep, letters, kmax, starts):
    """The orbit pair distances d(v_m, v_{m+k}) of a word for the offsets
    k = 1..kmax and the starts m < min(starts, n - k + 1), in batches.

    Yields (k0, bounds, disps): offset k0 + i fills disps[bounds[i]:
    bounds[i + 1]] (the last block runs to the end), in order of m.

    d(v_m, v_{m+k}) is the basepoint displacement of the subword
    letters[m:m+k] (`geometry._sinh_half_displacement`, which is finite
    while the product is), so each value comes from a fresh k-letter product
    instead of coordinates accumulated from a single frame (whose pair
    differences lose all precision at depth ~ 35).  The products are four
    entry arrays, one element per start, multiplied on the kernel `_mul`
    one letter per offset, left to right, so the starts m and m + period
    of a periodic word give bit-identical values, and starts = period
    covers every residue.  Raises ValueError, naming the shortest such
    subword length, once a displacement is not finite.
    """
    n = len(letters)
    kmax = min(kmax, n)
    # column j holds the entries of the image of letters[j]
    cols = np.array([rep._letters[x] for x in letters]).T.copy()
    W = None
    k = 0
    while k < kmax:
        stacks, bounds, k0 = [], [0], k + 1
        # one error state per batch, left before the batch is yielded so
        # that the caller's state holds while the generator is suspended
        with np.errstate(all="ignore"):    # refused below if not finite
            while k < kmax and bounds[-1] < _GRID_ROWS:
                k += 1
                rows = min(starts, n - k + 1)
                X = cols[:, k - 1:k - 1 + rows]
                W = X if W is None else _mul([w[:rows] for w in W], X)
                stacks.append(W)
                bounds.append(bounds[-1] + rows)
        entries = [np.concatenate(x) for x in zip(*stacks)]
        disps = 2.0 * np.arcsinh(
            _sinh_half_displacement(entries, rep.basepoint))
        bad = np.flatnonzero(~np.isfinite(disps))
        if bad.size:
            length = k0 + int(np.searchsorted(bounds, bad[0], "right")) - 1
            raise ValueError(
                f"the displacement of a {length}-letter subword is not "
                f"finite: its computation leaves the float range "
                f"(about 1.8e308)")
        yield k0, bounds[:-1], disps


def _offset_minima(rep, letters, kmax, starts):
    """min over m of d(v_m, v_{m+k}) for k = 1..kmax (see _offset_grid)."""
    return [d for _, bounds, disps in _offset_grid(rep, letters, kmax, starts)
            for d in np.minimum.reduceat(disps, bounds).tolist()]


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
        self.step = float(us[1] - us[0])
        self.axes, self.edges, self.cprime = axes, edges, cprime
        js = np.floor(us).astype(np.intp)
        self.values = self._at(js, us - js)

    def _at(self, js, fs):
        """E(j + f) for the arrays js and fs: the distance from fraction f
        of the edge of letter gamma[j] to the axis of rotation j (j mod the
        period).  Raises ValueError once a value is not finite."""
        js = js % self.period
        # a sample's point depends only on its letter and fraction: each
        # distinct pair is interpolated once
        keys = list(zip(map(self.gamma.__getitem__, js.tolist()),
                        fs.tolist()))
        points = {key: self.edges[key[0]].interpolate(key[1])
                  for key in dict.fromkeys(keys)}
        values = _axis_distance([x[js] for x in self.axes],
                                np.array([points[key].z for key in keys]),
                                np.array([points[key].t for key in keys]))
        if not np.isfinite(values).all():
            raise ValueError(f"the axis of the {self.period}-letter word "
                             f"leaves the float range (about 1.8e308)")
        return values

    def value(self, u):
        """E at an arbitrary parameter."""
        j = math.floor(u)
        return float(self._at(np.array([j]), np.array([u - j]))[0])

    @property
    def min_excursion(self):
        return float(self.values.min())

    @property
    def max_excursion(self):
        return float(self.values.max())

    def _circular(self):
        """Samples over [0, period), rolled so a global minimum leads:
        then no run at a threshold above the minimum wraps around."""
        vals = self.values[:-1]
        shift = int(np.argmin(vals))
        return np.roll(vals, -shift), shift

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
        for threshold in sorted(set(vals.tolist())):
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
        js = np.arange(self.period)
        ends = self._at(js - 1, np.ones(self.period))
        return float(np.abs(ends - self._at(js, np.zeros(self.period))).max())

    def lipschitz_defect(self):
        """max |E(u_{i+1}) - E(u_i)| - C' * step (negative when the
        Lipschitz bound holds on the grid)."""
        jumps = np.abs(np.diff(self.values))
        return float(jumps.max() - self.cprime * self.step)


def excursion_profile(rep, gamma, step=0.25):
    """Sample E(u) = d(leaf(u), axis line of gamma) over one period.
    rho(gamma[:j])^-1 maps leaf edge j to the edge of its letter at o
    (`_leaf_edges`) and the axis of gamma to that of rotation j, so every
    sample is taken at unit scale, at every depth of the leaf."""
    _check_scan_word(gamma, cyclic=True)
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    m = rep._product(gamma)
    if classify(m) != "loxodromic":
        raise NotLoxodromic(f"image of {gamma!r} is {classify(m)}",
                            m[0] + m[3])
    count = max(1, math.ceil(len(gamma) / step - 1e-9))
    return ExcursionProfile(
        gamma, np.linspace(0.0, float(len(gamma)), count + 1),
        _rotation_axes(np.array(_rotation_images(rep, gamma))),
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


@dataclass
class QuasiLoopReport:
    loops: list
    packed: list
    coverage: float
    contradiction: dict | None


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
    # every offset has all n starts, so entry i of a batch is the subword
    # of length k0 + i // n at position i % n
    for k0, _, disps in _offset_grid(rep, doubled, n, n):
        lengths = k0 + np.arange(len(disps)) // n
        hits = (disps <= eps * lengths) & (lengths >= min_len)
        for i in np.nonzero(hits)[0].tolist():
            length, position = k0 + i // n, i % n
            loops.append(QuasiLoop(doubled[position:position + length],
                                   position, eps, float(disps[i])))
    packed = []
    occupied = np.zeros(n, dtype=bool)
    for loop in sorted(loops, key=lambda l: (-len(l.word), l.position)):
        cells = [(loop.position + i) % n for i in range(len(loop.word))]
        if not occupied[cells].any():
            occupied[cells] = True
            packed.append(loop)
    coverage = float(occupied.sum()) / n
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

@dataclass
class ScanReport:
    """Per-class records (in slope order) and the aggregate summary."""

    records: list
    aggregate: dict

    @property
    def violations(self):
        return [r for r in self.records if r["flags"]]

    @property
    def passed(self):
        return not self.violations


def fricke_traces(tr_a, tr_b, tr_ab, max_denominator):
    """Traces of the primitive classes of slope p/q with p, q >= 0 up to
    the cap (1/0, 0/1 and 1 <= p, q <= cap: the half of the Farey tree
    between 0/1 and 1/0) from the trace triple (tr A, tr B, tr AB), keyed
    by (p, q): the trace payload of `blocks.farey_walk`, by the Fricke
    recursion tr uv = tr u tr v - tr w.  Independent of any matrix
    arithmetic."""
    return {(p, q): t for p, q, t in farey_walk(
        tr_a, tr_b, tr_ab, lambda u, v, w: u * v - w, max_denominator)}


def _image(u, v, w):
    """The walk's image payload: the image of the class uv."""
    return _mul(u, v)


def _image_and_word(u, v, w):
    """The walk's image and word payload: the image and the word of the
    class uv."""
    return _mul(u[0], v[0]), u[1] + v[1]


def _scanned_classes(rep, max_denominator, words):
    """The slopes p/q with p, q >= 0 up to the cap (the classes of
    negative slope are not scanned), in the order of `blocks._class_pairs`
    (by q, then p), as (gamma, kind, head): the class word when `words` is
    true, else None; `classify` of the class image; and the record head
    p, q, len, tr, tl.

    Each image is one product along `blocks.farey_walk`: the class
    between Farey neighbours u and v is uv, and both images are already
    in hand.  The class words are the walk's u + v, each a cyclic rotation
    of the `build_blocks` word; without `words` no word is built.  len is
    p + q, the length of the class word.

    Raises ValueError naming the first class, in that order, whose trace
    or translation length is not finite: its image has left the float
    range.
    """
    a, b = rep._letters["a"], rep._letters["b"]
    ab = _mul(a, b)
    if words:
        walk = farey_walk((a, "a"), (b, "b"), (ab, "ab"), _image_and_word,
                          max_denominator)
    else:
        walk = ((p, q, (m, None)) for p, q, m
                in farey_walk(a, b, ab, _image, max_denominator))
    for p, q, (m, gamma) in sorted(walk, key=itemgetter(1, 0)):
        tr = m[0] + m[3]
        kind = classify(m)
        # `translation_length`, without classifying the image again
        tl = _loxodromic_length(m) if kind == "loxodromic" else 0.0
        if not (cmath.isfinite(tr) and math.isfinite(tl)):
            raise ValueError(
                f"the trace or translation length of class {p}/{q} is "
                f"not finite at max_den {max_denominator}: its image "
                f"leaves the float range (about 1.8e308)")
        yield gamma, kind, {
            "p": p, "q": q, "len": p + q,
            "tr": [tr.real, tr.imag], "tl": tl,
        }


def bowditch_scan(rep, max_denominator):
    """Scan the primitive classes of `_scanned_classes`: trace,
    translation length, and the ratio translation/|class|; flag
    non-loxodromic and low-ratio classes; fit C = 1 / ratio from the worst
    ratio."""
    records = []
    for _, kind, head in _scanned_classes(rep, max_denominator, words=False):
        ratio = head["tl"] / head["len"]
        flags = []
        if kind != "loxodromic":
            flags.append(kind)
        elif ratio < _LOW_RATIO:
            flags.append("low-ratio")
        records.append({**head, "ratio": ratio, "flags": flags})
    min_ratio = min(r["ratio"] for r in records)
    abAB = rep._product("abAB")
    commutator = abAB[0] + abAB[3]
    lox = [r for r in records if not r["flags"]]
    lsq = None
    if len({r["len"] for r in lox}) >= 2:
        rate, intercept = np.polyfit([r["len"] for r in lox],
                                     [r["tl"] for r in lox], 1)
        lsq = [float(rate), float(intercept)]
    aggregate = {
        "classes": len(records),
        "min_ratio": min_ratio,
        "min_trace": min(math.hypot(*r["tr"]) for r in records),
        "fitted_C": 1.0 / min_ratio if min_ratio > 0 else None,
        "lsq_rate": lsq[0] if lsq else None,
        "lsq_intercept": lsq[1] if lsq else None,
        "commutator_trace": [commutator.real, commutator.imag],
        "small_trace_count": sum(
            1 for r in records if math.hypot(*r["tr"]) <= 2.0 + 1e-12),
        "violations": sum(1 for r in records if r["flags"]),
    }
    return ScanReport(records, aggregate)


def ps_scan(rep, max_denominator):
    """Quasi-geodesic constants and tubes of the leaves of `_scanned_classes`.

    Lemma: with s_m the axis coordinate of the foot of leaf vertex v_m, l
    the translation length and n = |gamma|, e_m = s_m - m l / n is
    n-periodic.  Projection onto a geodesic is 1-Lipschitz
    (Bridson-Haefliger, Metric spaces of non-positive curvature, Prop.
    II.2.4), so d(v_i, v_j) >= (l / n)(j - i) - osc for all i < j, with
    `rate` l / n (the ratio of `bowditch_scan`) and `osc` = max e - min e.
    The foot increments sum to l over a period (`period_error`: the
    relative gap; NaN is flagged).  Distance to a geodesic is convex along
    leaf edges (ibid., Cor. II.2.5): `tube` = max_j d(o, axis X_j).

    Both come from the fixed points alpha (attracting) and beta (repelling)
    of each rotation image X_j (`_rotation_axes`): the tube is
    `_axis_distance` at o, and the foot of (z, t) has the coordinate 1/2
    ln((|z - beta|^2 + t^2) / (|z - alpha|^2 + t^2)) + const.  Raises
    ValueError naming the first class with a non-finite image, tube or foot.
    """
    o = rep.basepoint
    ends = {x: apply(X, o) for x, X in rep._letters.items()}
    records, lox, images, points, refusal = [], [], [], [], None
    try:
        for gamma, kind, head in _scanned_classes(rep, max_denominator,
                                                  words=True):
            records.append({**head, "rate": head["tl"] / head["len"],
                            "osc": None, "period_error": None, "tube": None,
                            "flags": ["not-loxodromic"]})
            if kind == "loxodromic":
                lox.append(records[-1])
                images.append(np.array(_rotation_images(rep, gamma)))
                points += (ends[x] for x in gamma)
    except ValueError as e:    # raised below unless an earlier class is
        refusal = e
    lens = np.array([r["len"] for r in lox], dtype=np.intp)
    starts = np.cumsum(lens) - lens
    b, c, m, _, sign = axes = _rotation_axes(
        np.concatenate(images or [np.empty((0, 4))]))
    with np.errstate(all="ignore"):    # refused below if not finite
        # sign * the foot coordinates of o and rho(gamma[j]) o, up to const
        feet = [np.log(np.hypot(np.abs(u * m + 2 * b), v * np.abs(m))
                       / np.hypot(np.abs(2 * c * u - m), 2 * v * np.abs(c)))
                for u, v in ((o.z, o.t), (np.array([p.z for p in points]),
                                      np.array([p.t for p in points])))]
        deltas = sign * (feet[1] - feet[0])
        x = deltas - np.repeat([r["rate"] for r in lox], lens)
        e = np.cumsum(x) - x    # e_m = s_m - m rate: the sum of x before m
        oscs = np.maximum.reduceat(e, starts) - np.minimum.reduceat(e, starts)
    for r, osc, period, tube in zip(
            lox, oscs.tolist(), np.add.reduceat(deltas, starts).tolist(),
            np.maximum.reduceat(_axis_distance(axes, o.z, o.t),
                                starts).tolist()):
        if not math.isfinite(osc + period + tube):
            raise ValueError(
                f"the axis of class {r['p']}/{r['q']} leaves the float range "
                f"(about 1.8e308) at max_den {max_denominator}")
        period_error = abs(period - r["tl"]) / max(1.0, r["tl"])
        low, off = r["rate"] < _LOW_RATIO, not period_error <= _PERIOD_TOL
        r.update(osc=osc, period_error=period_error, tube=tube,
                 flags=["low-ratio"] * low + ["period-error"] * off)
    if refusal is not None:
        raise refusal
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
        run = power_floor + int(rng.integers(0, _RUN_SPREAD))
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
        rng = np.random.default_rng(seed)
        targets = np.linspace(10, 200, sample_words).round().astype(int)
        words = [_local_global_word(rng, power_floor, int(t))
                 for t in targets]
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
    base = bowditch_scan(rep, max_denominator)
    children = np.random.SeedSequence(seed).spawn(trials)
    values = []
    degenerate = 0
    for child in children:
        rng = np.random.default_rng(child)
        perturbed = None
        for _ in range(_PERTURB_RETRIES):
            try:
                perturbed = Representation(
                    rep.model,
                    _perturb(rng, rep.A, radius, rep.model),
                    _perturb(rng, rep.B, radius, rep.model),
                    basepoint=rep.basepoint)
                break
            except (ValueError, ZeroDivisionError):
                continue
        if perturbed is None:
            degenerate += 1
            values.append(None)
            continue
        scan = bowditch_scan(perturbed, max_denominator)
        values.append(scan.aggregate["min_ratio"])
    valid = [v for v in values if v is not None]
    return {
        "radius": radius,
        "trials": trials,
        "unperturbed": base.aggregate["min_ratio"],
        "min": min(valid) if valid else None,
        "median": float(np.median(valid)) if valid else None,
        "degenerate": degenerate,
        "values": values,
    }


def _perturb(rng, matrix, radius, model):
    noise = rng.uniform(-radius, radius, size=(2, 2))
    if model == "H3":
        noise = noise + 1j * rng.uniform(-radius, radius, size=(2, 2))
    raw = matrix + noise
    d = raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0]
    if model == "H2" and d.real <= 0.05:
        raise ValueError("degenerate perturbation")
    if abs(d) <= 0.05:
        raise ValueError("degenerate perturbation")
    return raw / np.sqrt(d)
