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
  translation-per-letter ratios, fitted displacement constants, and the
  trace cross-check data (Fricke recursion over the Farey tree).
- `ps_scan`: per-class quasi-geodesic constants of the orbit map from the
  projection onto the class axis, and tubular radii.
- `local_global_scan`: local vs global quasi-geodesic constants over
  words of the shape (B A^N A^*)^*.
- `perturbation_scan`: robustness of the minimum ratio under entrywise
  noise.

Class matrices are computed by the block-tower recursion with
square-and-multiply powers on the scalar 2x2 kernel of `geometry`
(O(depth * log n_i) products per class) rather than letter-by-letter
products.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import enumerate_primitive_classes
from .geometry import (
    INF,
    NotLoxodromic,
    Representation,
    Segment,
    apply,
    axis_of,
    classify,
    dist_to_geodesic,
    fixed_points,
    mobius_boundary,
    translation_length,
    _coordinate,
    _matrix,
    _mul,
    _pow,
)
from .words import is_cyclically_reduced

__all__ = [
    "ExcursionProfile", "PreconditionError", "QuasiLoop", "QuasiLoopReport",
    "ScanReport", "bowditch_scan", "class_matrix", "excursion_profile",
    "find_quasi_loops", "fricke_traces", "local_global_scan",
    "perturbation_scan", "ps_scan",
]


# translation per letter below this is a Bowditch violation (C > 1000)
_LOW_RATIO = 1e-3
# relative gap between a period of foot increments and the translation
# length: rounding over a few hundred frames is ~1e-15, so this is a
# broken frame, not noise
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


def class_matrix(rep, tower):
    """The image of the tower's top word, via the block recursion
    w_i = w_{i-1}^(n_i - 1) w'_{i-1},  w'_i = w_{i-1} w_i.

    The factors are exactly unimodular, so no determinant-based
    renormalization is applied: once entries are large, the floating
    determinant is cancellation noise, while the plain product keeps
    full relative precision over the O(depth + log n_i) multiplies.
    """
    return _matrix(_class_image(rep, tower, {}))


def _class_image(rep, tower, levels):
    """`class_matrix` as a kernel 4-tuple.  `levels`, a dict owned by the
    caller, shares the level products between the towers of one
    representation (see `_level_pair`)."""
    w0, wp0, entries = tower.w[0], tower.wp[0], tower.cf
    if not entries:
        return rep._product(w0)
    w, wp = _level_pair(rep, w0, wp0, entries[:-1], levels)
    return _mul(_pow(w, entries[-1] - 1), wp)


def _level_pair(rep, w0, wp0, entries, levels):
    """The images of (w_i, w'_i) for the recursion entries n_1..n_i
    (`entries`) from the base words (w0, wp0).

    `levels` maps (w0, wp0, entries) to that pair.  The pair of
    entries[:-1] is the level below, so a class whose lower levels are in
    the table costs the products of its top level only.  The products and
    their order are those of the plain recursion, so the result is
    bit-identical.
    """
    key = (w0, wp0, entries)
    pair = levels.get(key)
    if pair is None:
        if entries:
            w, wp = _level_pair(rep, w0, wp0, entries[:-1], levels)
            w_next = _mul(_pow(w, entries[-1] - 1), wp)
            pair = (w_next, _mul(w, w_next))
        else:
            pair = (rep._product(w0), rep._product(wp0))
        levels[key] = pair
    return pair


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


def _rotation_frames(rep, gamma, edges):
    """Frame j of gamma for each rotation j: (axis of rho(rotate(gamma,
    j)), edges[gamma[j]]), with `edges` from `_leaf_edges`.

    rho(gamma[:j])^-1 maps the leaf edge from vertex j to vertex j + 1
    to the edge of its letter gamma[j], and the axis of gamma to the axis
    of rho(rotate(gamma, j)), so E(j + f) = d(edge.interpolate(f), axis)
    is evaluated at unit scale at every depth of the leaf.  Raises
    NotLoxodromic when a rotated image is not loxodromic.
    """
    return [(axis_of(X, basepoint=rep.basepoint), edges[x])
            for X, x in zip(_rotation_images(rep, gamma), gamma)]


def _letter_images(rep, letters):
    """Stacked (n, 2, 2) array of the generator images along a word."""
    table = {ch: rep.gen_image(ch) for ch in set(letters)}
    return np.stack([table[ch] for ch in letters])


def _displacements(W, o):
    """d(W[i] o, o) for a stacked array of exactly-unimodular matrices.

    The action formula is applied with the determinant taken as 1: the
    inputs are products of unimodular letters, and recomputing ad - bc
    in floats is cancellation noise once the entries are large.  The
    distance is `geometry.distance`, vectorised: 2 asinh(h / (2 sqrt(t)
    sqrt(o.t))) with h = hypot(|z - o.z|, t - o.t), and where that ratio
    overflows (beyond ~1400), 2 (ln h - ln t / 2 - ln o.t / 2).  Once a
    product leaves the float range the value is NaN or inf, with no
    warning: `_offset_grid` refuses it.
    """
    a, b = W[..., 0, 0], W[..., 0, 1]
    c, d = W[..., 1, 0], W[..., 1, 1]
    t2 = o.t * o.t
    with np.errstate(all="ignore"):
        w = c * o.z + d
        den = np.abs(w) ** 2 + np.abs(c) ** 2 * t2
        z = ((a * o.z + b) * np.conj(w) + a * np.conj(c) * t2) / den
        t = o.t / den
        h = np.hypot(np.abs(z - o.z), t - o.t)
        r = h / (2.0 * np.sqrt(t) * math.sqrt(o.t))
        out = 2.0 * np.arcsinh(r)
        far = np.isinf(r)
        if far.any():
            out[far] = 2.0 * (np.log(h[far]) - 0.5 * np.log(t[far])
                              - 0.5 * math.log(o.t))
    return out


# matrices per displacement batch: bounds the memory of the offset grid
# of a long word
_GRID_ROWS = 1 << 16


def _offset_grid(rep, letters, kmax, starts):
    """The orbit pair distances d(v_m, v_{m+k}) of a word for the offsets
    k = 1..kmax and the starts m < min(starts, n - k + 1), in batches.

    Yields (k0, bounds, disps): offset k0 + i fills disps[bounds[i]:
    bounds[i + 1]] (the last block runs to the end), in order of m.

    d(v_m, v_{m+k}) is the basepoint displacement of the subword
    letters[m:m+k], so each value comes from a fresh k-letter product
    instead of coordinates accumulated from a single frame (whose pair
    differences lose all precision at depth ~ 35).  The products are
    stacked one letter per offset, left to right, so the starts m and
    m + period of a periodic word give bit-identical values, and
    starts = period covers every residue.  Raises ValueError, naming the
    shortest such subword length, once a displacement is not finite.
    """
    n = len(letters)
    kmax = min(kmax, n)
    mats = _letter_images(rep, letters)
    W = np.broadcast_to(np.eye(2, dtype=complex),
                        (min(starts, n), 2, 2)).copy()
    stacks, bounds, k0 = [], [0], 1
    for k in range(1, kmax + 1):
        rows = min(starts, n - k + 1)
        with np.errstate(all="ignore"):    # refused below if not finite
            W = W[:rows] @ mats[k - 1:k - 1 + rows]
        stacks.append(W)
        bounds.append(bounds[-1] + rows)
        if k == kmax or bounds[-1] >= _GRID_ROWS:
            disps = _displacements(np.concatenate(stacks), rep.basepoint)
            bad = np.flatnonzero(~np.isfinite(disps))
            if bad.size:
                length = k0 + int(np.searchsorted(bounds, bad[0], "right")) - 1
                raise ValueError(
                    f"the displacement of a {length}-letter subword is not "
                    f"finite: its computation leaves the float range "
                    f"(about 1.8e308)")
            yield k0, bounds[:-1], disps
            stacks, bounds, k0 = [], [0], k + 1


def _offset_minima(rep, letters, kmax, starts):
    """min over m of d(v_m, v_{m+k}) for k = 1..kmax (see _offset_grid)."""
    return [d for _, bounds, disps in _offset_grid(rep, letters, kmax, starts)
            for d in np.minimum.reduceat(disps, bounds).tolist()]


def _excursion_at(frames, u):
    """E(u) from the frame of rotation floor(u) mod the period."""
    j = math.floor(u)
    line, seg = frames[j % len(frames)]
    return dist_to_geodesic(seg.interpolate(u - j), line)


class ExcursionProfile:
    """The distance E(u) from the leaf of gamma (the orbit of the
    basepoint, joined by geodesic edges) to the axis line of gamma,
    sampled uniformly over one period.

    E is periodic with period len(gamma) and Lipschitz with constant
    C' (the leaf moves at most C' per unit parameter, and distance
    to a fixed set is 1-Lipschitz).  The discrete sub-excursion queries
    tolerate one grid step of slack.
    """

    __slots__ = ("gamma", "period", "step", "us", "values", "frames",
                 "cprime")

    def __init__(self, gamma, period, step, us, values, frames, cprime):
        self.gamma = gamma
        self.period = period
        self.step = step
        self.us = us
        self.values = values
        self.frames = frames
        self.cprime = cprime

    def value(self, u):
        """E at an arbitrary parameter."""
        return _excursion_at(self.frames, u)

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

    def sub_excursion(self, K):
        """The longest circular interval where E >= K, as
        (u_start, u_end, length); parameters are reported modulo the
        period.  Raises ValueError when K exceeds the profile maximum."""
        if K > self.max_excursion:
            raise ValueError("threshold exceeds the maximal excursion")
        vals, shift = self._circular()
        runs = self._runs(vals, K)
        start, end = max(runs, key=lambda r: r[1] - r[0])
        length = self._run_span(start, end, len(vals))
        u_start = ((start + shift) % len(vals)) * self.step
        return u_start, u_start + length, length

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
        """The seam defect: max over the vertices j of |E(j)| from frame
        j - 1 at fraction 1 against frame j at fraction 0 (j = 0 is the
        wrap u = period).  The two agree in exact arithmetic, so this
        measures the precision of the frames."""
        return max(
            abs(dist_to_geodesic(prev_seg.interpolate(1.0), prev_line)
                - dist_to_geodesic(seg.interpolate(0.0), line))
            for (prev_line, prev_seg), (line, seg)
            in zip(self.frames[-1:] + self.frames[:-1], self.frames))

    def lipschitz_defect(self):
        """max |E(u_{i+1}) - E(u_i)| - C' * step (negative when the
        Lipschitz bound holds on the grid)."""
        jumps = np.abs(np.diff(self.values))
        return float(jumps.max() - self.cprime * self.step)


def excursion_profile(rep, gamma, step=0.25):
    """Sample E(u) = d(leaf(u), axis line of gamma) over one period, in
    the per-rotation frames of `_rotation_frames`."""
    if not gamma or not is_cyclically_reduced(gamma):
        raise ValueError("gamma must be a nonempty cyclically reduced word")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    m = rep._product(gamma)
    if classify(m) != "loxodromic":
        raise NotLoxodromic(f"image of {gamma!r} is {classify(m)}",
                            m[0] + m[3])
    frames = _rotation_frames(rep, gamma, _leaf_edges(rep))
    period = len(gamma)
    count = max(1, math.ceil(period / step - 1e-9))
    us = np.linspace(0.0, float(period), count + 1)
    values = np.array([_excursion_at(frames, u) for u in us])
    return ExcursionProfile(gamma, period, float(us[1] - us[0]), us, values,
                            frames, rep.c_prime)


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
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    if C is not None and C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    n = len(gamma)
    if n == 0:
        raise ValueError("gamma must be nonempty")
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
    between 0/1 and 1/0) from the trace triple (tr A, tr B, tr AB), via
    the trace recursion z' = xy - z.  Independent of any matrix
    arithmetic."""
    out = {(1, 0): tr_a, (0, 1): tr_b}

    def descend(left, t_left, right, t_right, t_mediant):
        mediant = (left[0] + right[0], left[1] + right[1])
        if mediant[0] > max_denominator or mediant[1] > max_denominator:
            return
        out[mediant] = t_mediant
        descend(left, t_left, mediant, t_mediant,
                t_left * t_mediant - t_right)
        descend(mediant, t_mediant, right, t_right,
                t_mediant * t_right - t_left)

    descend((0, 1), tr_b, (1, 0), tr_a, tr_ab)
    return out


def _scanned_classes(rep, max_denominator):
    """The classes of `enumerate_primitive_classes` (the slopes p/q with
    p, q >= 0 up to the cap; the classes of negative slope are not
    scanned), as (tower, kind, head): `classify` of the class image and
    the record head p, q, len, tr, tl."""
    levels = {}
    for slope, tower in enumerate_primitive_classes(max_denominator):
        m = _class_image(rep, tower, levels)
        tr = m[0] + m[3]
        yield tower, classify(m), {
            "p": slope.p, "q": slope.q, "len": len(tower.word),
            "tr": [tr.real, tr.imag], "tl": translation_length(m),
        }


def bowditch_scan(rep, max_denominator):
    """Scan the primitive classes of `_scanned_classes`: trace,
    translation length, and the ratio translation/|class|; flag
    non-loxodromic and low-ratio classes; fit displacement constants from
    the worst ratio."""
    records = []
    for _, kind, head in _scanned_classes(rep, max_denominator):
        ratio = head["tl"] / head["len"]
        flags = []
        if kind != "loxodromic":
            flags.append(kind)
        elif ratio < _LOW_RATIO:
            flags.append("low-ratio")
        if not all(map(math.isfinite, (*head["tr"], head["tl"], ratio))):
            flags.append("non-finite")
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
        "fitted_D": 0.0 if min_ratio > 0 else None,
        "lsq_rate": lsq[0] if lsq else None,
        "lsq_intercept": lsq[1] if lsq else None,
        "commutator_trace": [commutator.real, commutator.imag],
        "small_trace_count": sum(
            1 for r in records if math.hypot(*r["tr"]) <= 2.0 + 1e-12),
        "violations": sum(1 for r in records if r["flags"]),
    }
    return ScanReport(records, aggregate)


def ps_scan(rep, max_denominator):
    """Scan the leaves of the primitive classes of `_scanned_classes`:
    the quasi-geodesic constants of the orbit map on each leaf and the
    tubular radius around the class axis.

    Lemma: let s_m be the axis coordinate of the foot of leaf vertex v_m,
    l the translation length and n = |gamma|.  rho(gamma) translates the
    axis by l, so e_m = s_m - m l / n is n-periodic.  Projection onto a
    geodesic of H^2 or H^3 is 1-Lipschitz (Bridson-Haefliger, Metric
    spaces of non-positive curvature, Prop. II.2.4), so for all i < j,
    d(v_i, v_j) >= |s_j - s_i| >= (l / n)(j - i) - osc(e).  Every leaf is
    a global quasi-geodesic with lower `rate` l / n (the ratio of
    `bowditch_scan`) and additive constant `osc` = max e - min e.  The
    foot increments sum to l over a period; `period_error` is the
    relative gap.

    The distance to a geodesic is convex along each geodesic leaf edge
    (ibid., Cor. II.2.5), so its maximum over the leaf, `tube`, is
    attained at a vertex: the largest d(o, axis of rotation j).

    Feet and vertex distances are measured one letter at a time in the
    per-rotation frames of `_rotation_frames`, which `excursion_profile`
    reads too: both are conjugation-invariant, so this agrees with the
    deep orbit without the precision loss of deep-orbit coordinates.  Per
    class of length n the work is O(n).
    """
    records = []
    o = rep.basepoint
    edges = _leaf_edges(rep)
    for tower, kind, head in _scanned_classes(rep, max_denominator):
        rate = head["tl"] / head["len"]
        frames = None
        if kind == "loxodromic":
            try:
                frames = _rotation_frames(rep, tower.word, edges)
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
        deltas = [_coordinate(edge.q, line) for line, edge in frames]
        # e_m = s_m - m * rate for m < n, with s_0 = 0
        feet = itertools.accumulate(deltas[:-1], initial=0.0)
        offsets = [s - i * rate for i, s in enumerate(feet)]
        osc = max(offsets) - min(offsets)
        period_error = abs(sum(deltas) - head["tl"]) / max(1.0, head["tl"])
        flags = []
        if rate < _LOW_RATIO:
            flags.append("low-ratio")
        # a NaN error is flagged too
        if not period_error <= _PERIOD_TOL:
            flags.append("period-error")
        records.append({
            **head, "rate": rate, "osc": osc, "period_error": period_error,
            "tube": tube, "flags": flags,
        })
    lox = [r for r in records if r["tube"] is not None]
    aggregate = {
        "classes": len(records),
        "min_rate": min(r["rate"] for r in records),
        "max_osc": max((r["osc"] for r in lox), default=None),
        "max_period_error": max((r["period_error"] for r in lox),
                                default=None),
        "max_tube": max((r["tube"] for r in lox), default=None),
        "violations": sum(1 for r in records if r["flags"]),
    }
    return ScanReport(records, aggregate)


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
        sample_words = list(sample_words)
        if not sample_words:
            raise ValueError("sample_words must not be an empty list")
    a_image = rep.gen_image("a")
    if classify(a_image) != "loxodromic":
        raise PreconditionError("the image of a must be loxodromic")
    attracting, repelling = fixed_points(a_image)
    image = mobius_boundary(rep.gen_image("b"), attracting)
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
    if radius < 0:
        raise ValueError("radius must be nonnegative")
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
