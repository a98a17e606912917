"""Primitive classes in F2: slopes, block towers, and derivation.

A primitive element (member of a free basis) is classified up to conjugacy
and inversion by its slope p/q, the reduced image in Z^2.  For each slope a
*block tower* realizes the class: starting from w_0 = a, w'_0 = ab, each
continued-fraction entry n produces

    w_i = w_{i-1}^(n-1) * w'_{i-1},      w'_i = w_{i-1}^n * w'_{i-1},

so w_r is a class representative, {w_i, w'_i} is a free basis at every
level, and the lengths satisfy l'_i = l_i + l_{i-1}.

The *derivation* goes the other way.  A cyclic word on {a, b} in which one
letter is isolated and the other occurs in runs of only two consecutive
sizes n, n+1 is rewritten block-by-block (y^n x -> x, y^(n+1) x -> yx); a
word is primitive iff repeated derivation reaches a single letter, and the
run sizes recovered along the way are exactly the tower entries.

`farey_walk` walks the slopes the other way, down the Farey tree: the
class between Farey neighbours u and v is uv, so a caller's payload (an
image, a word or a trace) costs one step per class.

Rotation bookkeeping for the towers (adapted rotations and the length-l_i
subword classification) lives here too, with the exhaustive lemma suites,
among them the block count in windows.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .words import (
    check_word,
    cyclic_reduce,
    abelianization,
    rotate,
)


class LemmaViolation(RuntimeError):
    """An internal consistency check failed; the combinatorial machinery
    produced something the theory says cannot happen."""


# --------------------------------------------------------------------------
# continued fractions and slopes
# --------------------------------------------------------------------------

def cf_expansion(p, q):
    """Canonical continued fraction [n1, ..., nr] of p/q with q >= 1.

    n1 = floor(p/q) may be any integer, n_i >= 1 for i >= 2, and n_r >= 2
    whenever r >= 2 (a trailing 1 is folded into its predecessor).
    """
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    out = []
    while True:
        n = p // q
        out.append(n)
        r = p - n * q
        if r == 0:
            break
        p, q = q, r
    if len(out) >= 2 and out[-1] == 1:
        out.pop()
        out[-1] += 1
    return out


@dataclass(unsafe_hash=True)
class Slope:
    """A slope p/q in lowest terms with q >= 0 (and p = 1 when q = 0).

    `cf` is the canonical continued fraction of p/q; () encodes 1/0.  A
    value type: compares and hashes by its fields; never mutate one.
    """
    p: int
    q: int
    cf: tuple

    @classmethod
    def from_pair(cls, p, q):
        if (p, q) == (0, 0):
            raise ValueError("slope of (0, 0) is undefined")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if gcd(abs(p), q) != 1:
            raise ValueError(f"({p}, {q}) is not coprime")
        cf = () if q == 0 else tuple(cf_expansion(p, q))
        return cls(p, q, cf)

    def __str__(self):
        return f"{self.p}/{self.q}"


def slope_of(w):
    """Slope of a word's abelianization, canonicalized up to overall sign.

    Defined whenever the image in Z^2 is a basis vector candidate
    (coprime coordinates); this does not by itself imply primitivity.
    """
    check_word(w)
    p, q = abelianization(w)
    if (p, q) == (0, 0):
        raise ValueError(f"{w!r} abelianizes to (0, 0)")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"{w!r} abelianizes to non-coprime ({p}, {q})")
    return Slope.from_pair(p, q)


# --------------------------------------------------------------------------
# block towers
# --------------------------------------------------------------------------

# The base words w_0 = a and w'_0 = ab under the letter substitution
# that realizes every slope from the nonnegative, >= 1 towers, which
# "none" leaves as built: "ab" exchanges the generators (slopes below 1),
# "bB" inverts b (negative slopes), "ab+bB" composes the two.  A
# substitution maps letters to letters, so it commutes with the
# concatenations of the recursion: substituting the base words is enough.
_BASE_WORDS = {
    "none": ("a", "ab"),
    "ab": ("b", "ba"),
    "bB": ("a", "aB"),
    "ab+bB": ("B", "Ba"),
}


def _tower_plan(slope):
    """Recursion entries and substitution tag for a canonical slope.

    A slope p/q >= 1 recurses on its own expansion; 0 < p/q < 1 on that of
    q/p, which is the tail [n2, ...] of p/q = [0; n2, ...].
    """
    p, q = slope.p, slope.q
    if q == 0:
        return (), "none"
    if p == 0:
        return (), "ab"
    if p > 0:
        return (slope.cf, "none") if p >= q else (slope.cf[1:], "ab")
    entries, swap = _tower_plan(Slope.from_pair(-p, q))
    return entries, "ab+bB" if swap == "ab" else "bB"


@dataclass(unsafe_hash=True)
class BlockTower:
    """The block words and lengths for one slope.

    `cf` holds the recursion entries — the continued fraction of p/q when
    p/q >= 1, of the reciprocal when the a<->b swap applies.  `w[i]`/`wp[i]`
    are w_i, w'_i on the substituted alphabet, so w[-1] is an actual class
    representative of slope p/q.  Lengths: l'_i = l_i + l_{i-1},
    l_i < l'_i < 2 l_i and n_i < l_i/l_{i-1} < n_i + 1 for i >= 1.

    A value type: compares and hashes by its fields; never mutate one.
    """
    p: int
    q: int
    cf: tuple
    swap: str
    w: tuple
    wp: tuple
    l: tuple
    lp: tuple

    @property
    def depth(self):
        return len(self.cf)

    @property
    def word(self):
        return self.w[-1]

    def to_json_dict(self):
        return {
            "p": self.p,
            "q": self.q,
            "cf": list(self.cf),
            "w": list(self.w),
            "wp": list(self.wp),
            "l": list(self.l),
            "lp": list(self.lp),
            "swap": self.swap,
        }


def build_blocks(p, q):
    """Build the block tower for the slope p/q.

    Raises ValueError when the class word, of |p| + q letters, is longer
    than a string can be (`sys.maxsize`).
    """
    slope = Slope.from_pair(p, q)
    length = abs(slope.p) + slope.q
    if length > sys.maxsize:
        raise ValueError(f"the class word of slope {slope} has {length} "
                         f"letters, more than a string holds "
                         f"({sys.maxsize})")
    return _build_tower(slope, {})


def _build_tower(slope, levels):
    """The tower of `slope`, with its words looked up in and added to
    `levels`, the level table of one enumeration (see `_tower_levels`)."""
    entries, swap = _tower_plan(slope)
    for n in entries:
        if n < 1:
            raise LemmaViolation(f"tower entry {n} < 1 for slope {slope}")
    w, wp = _tower_levels(swap, entries, levels)
    tower = BlockTower(
        p=slope.p, q=slope.q, cf=entries, swap=swap, w=w, wp=wp,
        l=tuple(map(len, w)), lp=tuple(map(len, wp)),
    )
    pp, qq = abelianization(tower.word)
    if (pp, qq) not in ((slope.p, slope.q), (-slope.p, -slope.q)):
        raise LemmaViolation(
            f"tower word for {slope} abelianizes to ({pp}, {qq})")
    return tower


def _tower_levels(swap, entries, levels):
    """The (w, w') tuples of the tower with recursion entries `entries` on
    the `swap` alphabet.

    `levels` maps (swap, entries) to those tuples.  The tower of
    entries[:-1] holds every level but the last, so a new tower costs one
    level once its prefix is in the table.  The substitution is applied to
    w_0 and w'_0 only (see `_BASE_WORDS`).
    """
    key = (swap, entries)
    found = levels.get(key)
    if found is None:
        if entries:
            w, wp = _tower_levels(swap, entries[:-1], levels)
            n = entries[-1]
            found = (w + (w[-1] * (n - 1) + wp[-1],),
                     wp + (w[-1] * n + wp[-1],))
        else:
            w0, wp0 = _BASE_WORDS[swap]
            found = (w0,), (wp0,)
        levels[key] = found
    return found


def enumerate_primitive_classes(max_den):
    """One (Slope, BlockTower) per slope with 0 <= p, q <= max_den, plus 1/0.

    Deterministic order: by q, then p; so 1/0 comes first, then 0/1, 1/1,
    2/1, ...  The count is 2 + #{(p, q) : 1 <= p, q <= max_den, coprime}.
    """
    return list(_class_towers(_class_pairs(max_den), {}))


def _class_towers(pairs, levels):
    """Yield (Slope, BlockTower) for each (p, q) of `pairs`, in order, with
    the towers built one at a time on the level table `levels`.

    Read between two towers, len(levels) tells how many levels the last
    one added.  The pairs must be coprime and nonnegative, like those of
    `_class_pairs`: the slopes are built without the from_pair checks.
    """
    for p, q in pairs:
        slope = Slope(p, q, tuple(cf_expansion(p, q)) if q else ())
        yield slope, _build_tower(slope, levels)


def _class_pairs(max_den):
    """The (p, q) of `enumerate_primitive_classes(max_den)`, in its order."""
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    pairs = [(1, 0), (0, 1)]
    for q in range(1, max_den + 1):
        for p in range(1, max_den + 1):
            if gcd(p, q) == 1:
                pairs.append((p, q))
    return pairs


def farey_walk(a, b, ab, combine, cap):
    """Walk the half of the Farey tree between 0/1 and 1/0 down to the cap.

    Yields (p, q, x) for 1/0, 0/1 and 1/1, whose payloads x are `a`, `b`
    and `ab`, and for every Farey mediant p/q with p, q <= cap: the slopes
    of `_class_pairs(cap)`, each once, in depth-first order.  The mediant
    of the edge between the regions u and v, across from the region w,
    gets the payload `combine(u, v, w)`, with u the endpoint of larger
    slope; its slope is the sum of theirs.  The class between Farey
    neighbours u and v is uv, so `combine` may return an image or a word
    of uv, or the Fricke trace tr u tr v - tr w.  A mediant past the cap
    ends its branch: every mediant beneath it has a larger p and q.
    """
    if cap < 1:
        raise ValueError("max_den must be >= 1")
    yield 1, 0, a
    yield 0, 1, b
    yield 1, 1, ab
    # the open edges, as (u, v, w, p_u, q_u, p_v, q_v)
    stack = [(a, ab, b, 1, 0, 1, 1), (ab, b, a, 1, 1, 0, 1)]
    while stack:
        u, v, w, pu, qu, pv, qv = stack.pop()
        p, q = pu + pv, qu + qv
        if p > cap or q > cap:
            continue
        x = combine(u, v, w)
        yield p, q, x
        stack.append((x, v, u, p, q, pv, qv))
        stack.append((u, x, v, pu, qu, p, q))


# --------------------------------------------------------------------------
# derivation
# --------------------------------------------------------------------------

def alphabet_class(w):
    """Which of the four sign patterns the word uses, or "mixed".

    Returns a pair like ("a", "b") or ("a", "B") giving the sign in which
    each generator occurs (defaulting to positive for absent generators),
    or the string "mixed" when some generator occurs with both signs.
    """
    has = set(w)
    if ("a" in has and "A" in has) or ("b" in has and "B" in has):
        return "mixed"
    return ("A" if "A" in has else "a", "B" if "B" in has else "b")


_POSITIVE_TABLE = str.maketrans("AB", "ab")


@dataclass(frozen=True)
class DerivationStep:
    word: str      # the cyclic word, rotated to start on a run boundary
    isolated: str  # the isolated letter
    value: int     # smallest run size of the companion letter
    derived: str


@dataclass(frozen=True)
class DerivationTrace:
    word: str       # input word
    core: str       # its cyclic reduction
    positive: str   # sign-normalized core on {a, b} ("" if empty or mixed)
    steps: tuple
    primitive: bool
    reason: str     # "" when primitive

    @property
    def values(self):
        return tuple(s.value for s in self.steps)


def _derive_once(w):
    """One derivation step on a cyclic word over {a, b}.

    Returns (step, None) on success, (None, reason) on failure, and
    (None, "") when w is a single letter (nothing left to do).
    """
    if len(w) == 1:
        return None, ""
    if "b" not in w or "a" not in w:
        return None, f"{w!r} is a proper power of a single letter"
    # prefer treating b as the isolated letter when both qualify
    doubled = w + w
    if "bb" not in doubled:
        x, y = "b", "a"
    elif "aa" not in doubled:
        x, y = "a", "b"
    else:
        return None, f"neither letter is isolated in {w!r}"
    # rotate to just after an occurrence of x, so w is a clean product of
    # blocks y^m x
    v = rotate(w, w.index(x) + 1)
    sizes = [len(run) for run in v.split(x) if run]
    if len(sizes) != v.count(x):
        raise LemmaViolation(f"bad block split of {v!r}")
    n = min(sizes)
    if max(sizes) > n + 1:
        return None, (f"run sizes of {y!r} in {v!r} span more than two "
                      f"consecutive values")
    derived = "".join(x if m == n else y + x for m in sizes)
    return DerivationStep(word=v, isolated=x, value=n, derived=derived), None


def derivation(w):
    """Full derivation trace of a word; decides primitivity.

    The word is cyclically reduced, its sign pattern normalized to {a, b}
    (a mixed pattern is immediately non-primitive), then derived until a
    single letter remains or a step fails.
    """
    check_word(w)
    core, _ = cyclic_reduce(w)
    if not core:
        return DerivationTrace(w, core, "", (), False,
                               "cyclic reduction is empty")
    quad = alphabet_class(core)
    if quad == "mixed":
        return DerivationTrace(w, core, "", (), False,
                               "some generator occurs with both signs")
    positive = core.translate(_POSITIVE_TABLE)
    steps = []
    cur = positive
    while True:
        step, reason = _derive_once(cur)
        if step is None:
            if reason == "":
                return DerivationTrace(w, core, positive, tuple(steps),
                                       True, "")
            return DerivationTrace(w, core, positive, tuple(steps),
                                   False, reason)
        steps.append(step)
        cur = step.derived


def is_primitive(w):
    """True iff w is a member of some free basis of F2, decided by
    `derivation`."""
    return derivation(w).primitive


# --------------------------------------------------------------------------
# rotation bookkeeping: adapted rotations, magic subwords
# --------------------------------------------------------------------------

def block_sequence(tower, i):
    """The factorization of w_r over the level-i blocks.

    Returns a tuple of "w"/"p" symbols such that w_r is the concatenation of
    w_i (for "w") and w'_i (for "p") in that order.
    """
    if not 0 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [0, {tower.depth}]")
    seq_w, seq_p = ("w",), ("p",)
    for n in tower.cf[i:]:
        seq_w, seq_p = seq_w * (n - 1) + seq_p, seq_w * n + seq_p
    return seq_w


@dataclass(unsafe_hash=True)
class AdaptedRotation:
    """A rotated basis pair over which a rotation of the class word factors.

    Rotating w_i by k letters pairs with rotating w'_i by j letters so that
    one rotated block is a prefix or a suffix of the other, and
    rotate(w_r, word_rotation) is the concatenation of the rotated blocks in
    the order given by `blocks`.  A value type: compares and hashes by its
    fields; never mutate one.
    """
    i: int
    k: int
    j: int
    case: int            # 1: k <= (n_i - 1) l_{i-1};  2: otherwise
    relation: str        # "prefix" or "suffix"
    block: str           # rotate(w_i, k)
    block_prime: str     # rotate(w'_i, j)
    word_rotation: int
    blocks: tuple


def adapted_permutation(tower, i, k):
    """Adapted rotation pair for the k-rotation of w_i, constructively.

    Case 1 (k <= (n_i - 1) l_{i-1}): j = k and the block order of the
    factorization is unchanged.  Case 2: j = k + l_{i-1} and the first block
    moves to the end.  The factorization identity is re-checked by string
    comparison and a failure raises LemmaViolation.
    """
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    li = tower.l[i]
    if not 0 <= k < li:
        raise ValueError(f"rotation {k} outside [0, {li})")
    [ar] = _level_rotations(tower, i, (k,))
    if isinstance(ar, LemmaViolation):
        raise ar
    return ar


def adapted_rotations(tower, i):
    """`adapted_permutation(tower, i, k)` for k = 0 .. l_i - 1, in order,
    with a LemmaViolation returned, not raised, as the entry of its k."""
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    return _level_rotations(tower, i, range(tower.l[i]))


def _level_rotations(tower, i, ks):
    """The adapted rotation, or its LemmaViolation, of every k in `ks`.

    The level is read once: l_{i-1}, the case threshold, the block
    sequence and its order with the first block moved to the end, and the
    doubled words, of which every rotated block and rotated class word is
    a slice.  Each k still gets its own prefix/suffix test and its own
    joined factorization, compared with the rotated class word.
    """
    lprev = tower.l[i - 1]
    threshold = (tower.cf[i - 1] - 1) * lprev
    w, wp = tower.w[i], tower.wp[i]
    lw, lwp = len(w), len(wp)
    ww, wpwp = w + w, wp + wp
    seq = block_sequence(tower, i)
    moved = seq[1:] + seq[:1]
    # the blocks as indexes into (rotated w_i, rotated w'_i)
    order = [0 if s == "w" else 1 for s in seq]
    moved_order = order[1:] + order[:1]
    first_is_w = seq[0] == "w"
    doubled = tower.word * 2
    lr = len(tower.word)
    where = f"at slope {tower.p}/{tower.q}, i={i}, k="
    out = []
    for k in ks:
        if k <= threshold:
            j = k
            rot_w, rot_wp = ww[k:k + lw], wpwp[j:j + lwp]
            if rot_wp.endswith(rot_w):
                relation = "suffix"
            elif rot_wp.startswith(rot_w):
                relation = "prefix"
            else:
                out.append(LemmaViolation(
                    f"no prefix/suffix relation {where}{k}"))
                continue
            case, out_seq, indexes, word_rotation = 1, seq, order, k
        else:
            j = k + lprev
            rot_w, rot_wp = ww[k:k + lw], wpwp[j:j + lwp]
            if rot_wp.startswith(rot_w):
                relation = "prefix"
            elif rot_wp.endswith(rot_w):
                relation = "suffix"
            else:
                out.append(LemmaViolation(
                    f"no prefix/suffix relation {where}{k}"))
                continue
            case, out_seq, indexes = 2, moved, moved_order
            word_rotation = k if first_is_w else j
        pair = (rot_w, rot_wp)
        r = word_rotation % lr
        if "".join([pair[x] for x in indexes]) != doubled[r:r + lr]:
            out.append(LemmaViolation(
                f"rotated factorization mismatch {where}{k}"))
            continue
        # positional: keyword arguments would double the cost of a call
        out.append(AdaptedRotation(i, k, j, case, relation, rot_w, rot_wp,
                                   word_rotation, out_seq))
    return out


@dataclass(unsafe_hash=True)
class MagicWitness:
    """How a length-l_i cyclic subword of w_r matches a rotation of w_i.

    A value type: compares and hashes by its fields; never mutate one.
    """
    rotation: int
    changed_to: str    # "" when the subword is already a rotation


def classify_magic_subword(tower, i, u):
    """Match a length-l_i cyclic subword of w_r against rotations of w_i.

    Every such subword is a rotation of w_i after changing at most its last
    letter; returns the first matching rotation index (exact matches take
    precedence over last-letter repairs).
    """
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    li = tower.l[i]
    if len(u) != li:
        raise ValueError(f"subword length {len(u)} != l_{i} = {li}")
    if u not in tower.word * 2:
        raise ValueError(f"{u!r} is not a cyclic subword of the class word")
    return _match_magic_subword(tower, i, u, tower.w[i] * 2)


def _match_magic_subword(tower, i, u, ww):
    """The witness of `classify_magic_subword` for a checked subword u,
    with `ww` the doubled w_i.

    A u of length |w_i| is a rotation of w_i exactly when it occurs in
    `ww`, and its first occurrence is its first rotation index.
    """
    if 2 * len(u) == len(ww):
        hit = ww.find(u)
        if hit >= 0:
            return MagicWitness(hit, "")    # positional: see _level_rotations
        for c in sorted(set(tower.wp[0])):
            if c == u[-1]:
                continue
            hit = ww.find(u[:-1] + c)
            if hit >= 0:
                return MagicWitness(hit, c)
    raise LemmaViolation(
        f"{u!r} is not a rotation of w_{i} at slope {tower.p}/{tower.q}, "
        f"even after a last-letter change")


# --------------------------------------------------------------------------
# exhaustive lemma suites
# --------------------------------------------------------------------------

@dataclass
class SuiteReport:
    """Outcome of one exhaustive suite: how many checks ran and every
    failure with enough context to reproduce it."""
    suite: str
    cap: int
    checks: int
    failures: list

    @property
    def passed(self):
        return not self.failures


def _towers_by_word_length(cap):
    """The towers whose class word has at most `cap` letters, one at a
    time, in the order of `_class_pairs(cap)`."""
    # the class word of a slope p/q with p >= 0 has p + q letters
    pairs = [(p, q) for p, q in _class_pairs(cap) if p + q <= cap]
    return (t for _, t in _class_towers(pairs, {}))


def _recurrence_suite(cap):
    """The word and length recurrences and the length inequalities of
    every tower of `enumerate_primitive_classes(cap)`.

    The towers are built one at a time on one level table and dropped once
    checked.  The checks of level i read levels i - 1 and i only, which
    are the same in every tower that holds level i, so `_check_level` runs
    once per level of the table: in the tower that adds it, whose top
    levels, as many as the table grew by, are the new ones.  Checks and
    failures stay per (tower, level): a failing level's messages are
    recorded again for every tower that holds it.
    """
    failures, checks = [], 0
    levels = {}
    failing = {}    # (swap, entries[:i]) -> `_check_level` messages
    size = 0
    for _, t in _class_towers(_class_pairs(cap), levels):
        new, size = len(levels) - size, len(levels)
        depth = t.depth
        for i in range(max(1, depth + 1 - new), depth + 1):
            own, inequality = found = _check_level(t, i)
            if own or inequality:
                failing[t.swap, t.cf[:i]] = found
        held = []
        if failing:
            for i in range(1, depth + 1):
                found = failing.get((t.swap, t.cf[:i]))
                if found:
                    held.append(found)
        checks += _check_tower(t, held, failures)
    return checks, failures


def _check_tower(t, level_failures, failures):
    """Record the failures of one tower, in exact integer arithmetic, and
    return its number of checks, those of its levels included.

    The tower's own checks are its base lengths and its word length.
    `level_failures` holds the messages of `_check_level(t, i)`, in level
    order, for the levels i that fail (passing ones may be included).  A
    record is appended to `failures` for each failure: the tower's own,
    then the level checks by level, then the (m+2) l_(i-1) inequalities
    by level.
    """
    def fail(what):
        failures.append({"p": t.p, "q": t.q, "check": what})

    if not (t.l[0] == 1 and t.lp[0] == 2):
        fail("base lengths")
    if len(t.word) != abs(t.p) + t.q:
        fail("word length |p| + q")
    for own, _ in level_failures:
        for what in own:
            fail(what)
    for _, inequality in level_failures:
        for what in inequality:
            fail(what)
    # seven checks at every level, and the inequality from level 2 on
    depth = t.depth
    return 2 + 7 * depth + max(depth - 1, 0)


def _check_level(t, i):
    """The word and length recurrences and the length inequalities at
    level i >= 1 of tower t, in exact integer and string arithmetic.

    They read levels i - 1 and i only.  Returns the failure messages as
    two lists: those of the seven level checks, and that of the
    (m+2) l_(i-1) inequality, which starts at level 2.  A message is
    formatted only when its check fails.
    """
    w, wp, l, lp, cf = t.w, t.wp, t.l, t.lp, t.cf
    n = cf[i - 1]
    own, inequality = [], []
    if w[i] != w[i - 1] * (n - 1) + wp[i - 1]:
        own.append(f"w recurrence at level {i}")
    if wp[i] != w[i - 1] * n + wp[i - 1]:
        own.append(f"w' recurrence at level {i}")
    if wp[i] != w[i - 1] + w[i]:
        own.append(f"w' = w_(i-1) w_i at level {i}")
    if lp[i] != l[i] + l[i - 1]:
        own.append(f"l' recurrence at level {i}")
    if not l[i] < lp[i] < 2 * l[i]:
        own.append(f"l < l' < 2l at level {i}")
    if not i + 1 <= l[i]:
        own.append(f"l_i >= i + 1 at level {i}")
    if i == 1:
        if l[1] != (n + 1) * l[0]:
            own.append("l_1 = (n_1 + 1) l_0")
        return own, inequality
    if not n * l[i - 1] < l[i] < (n + 1) * l[i - 1]:
        own.append(f"n l < l < (n+1) l at level {i}")
    m = cf[i - 2]
    lhs, rhs = (m + 2) * l[i - 1], (m + 1) * l[i]
    if i >= 3 or n >= 2:
        if not lhs < rhs:
            inequality.append(f"(m+2) l_(i-1) < (m+1) l_i at level {i}")
    elif not lhs <= rhs:
        inequality.append(f"(m+2) l_(i-1) <= (m+1) l_i at level {i}")
    return own, inequality


def _magic_suite(cap):
    """Classify the length-l_i cyclic subword at every start of every class
    word, at every level.

    A Christoffel word has at most l_i + 1 distinct cyclic subwords of
    length l_i, so each distinct subword of a (tower, level) is classified
    once and its failure message, if any, is repeated for every start
    where it occurs; checks and failures stay per start.
    """
    failures, checks = [], 0
    for t in _towers_by_word_length(cap):
        doubled = t.word * 2
        lr = len(t.word)
        for i in range(1, t.depth + 1):
            li = t.l[i]
            ww = t.w[i] * 2
            # slices of length l_i of w_r w_r at a level in [1, depth]:
            # every argument check of `classify_magic_subword` holds
            subwords = [doubled[s:s + li] for s in range(lr)]
            checks += lr
            errors = {}    # distinct failing subword -> failure message
            for u in dict.fromkeys(subwords):
                try:
                    _match_magic_subword(t, i, u, ww)
                except LemmaViolation as e:
                    errors[u] = str(e)
            if errors:
                failures.extend(
                    {"p": t.p, "q": t.q, "i": i, "position": s,
                     "error": errors[u]}
                    for s, u in enumerate(subwords) if u in errors)
    return checks, failures


def _perm_suite(cap):
    failures, checks = [], 0
    for t in _towers_by_word_length(cap):
        for i in range(1, t.depth + 1):
            rotations_i = adapted_rotations(t, i)
            checks += len(rotations_i)
            for k, ar in enumerate(rotations_i):
                if isinstance(ar, LemmaViolation):
                    failures.append({"p": t.p, "q": t.q, "i": i, "k": k,
                                     "error": str(ar)})
    return checks, failures


def _bloc_windows(seq, li, lpi, lr):
    """Block-count bound over every maximal window of one block sequence.

    `seq` is a factorization of a rotated class word of length `lr` into
    blocks of lengths `li` ("w") and `lpi` ("p"), with boundaries b_m over
    two laps.  For each start s and each boundary b_m >= s up to s + lr,
    the window runs from s to b_(m+1) - 1 (to s + lr at most, the whole
    word); it holds the c = m - f complete blocks from the first boundary
    b_f >= s, and it is checked when longer than 4 li.  Returns the number
    of checks and the failures as (start, length, count, alpha) tuples,
    ordered by start, then length.

    Only the last window of a start, of length lr, reaches s + lr, and it
    is checked when lr > 4 li.  Every other window, of d - 1 letters, ends
    a block of `size` letters at s + d, and it is checked exactly when
    max(4 li + 2, size) <= d <= lr.  Every block end occurs once in
    (s, s + lr], so each block adds max(0, lr + 1 - max(4 li + 2, size)).

    A window with c complete blocks lies inside c + 2 blocks, so it is
    shorter than (c + 2) max(li, lpi).  When no block is longer than
    2 li, alpha < 2c + 4 and no window can fail; every tower meets that,
    since l'_i = l_i + l_(i-1) < 2 l_i.  Only a longer block builds the
    boundaries and runs the test window by window.
    """
    checks = (lr if lr > 4 * li else 0) + sum(
        seq.count(s) * max(0, lr + 1 - max(4 * li + 2, size))
        for s, size in (("w", li), ("p", lpi)))
    failures = []
    if lpi > 2 * li:
        # a window of at most 4 li letters has alpha <= 4 and cannot fail
        bounds = list(accumulate(
            [li if s == "w" else lpi for s in seq] * 2, initial=0))
        for s in range(lr):
            f = bisect_left(bounds, s)
            last = bisect_right(bounds, s + lr) - 1
            for m in range(f, last + 1):
                length = bounds[m + 1] - 1 - s if m < last else lr
                alpha = length / li
                if m - f < (alpha - 4) / 2 - 1e-12:
                    failures.append((s, length, m - f, alpha))
    return checks, failures


def _bloc_suite(cap):
    """Block-count bound over every cyclic window with alpha > 4, every
    level, and every rotation.

    Windows sharing a start and a complete-block count are dominated by
    the longest of them (same count, largest alpha), so only that
    maximal window is evaluated; the bound for all others follows.

    Rotation k of level i factors w_r over blocks of lengths l_i and
    l'_i, in the level-i block sequence (case 1, k <= (n_i - 1) l_(i-1))
    or in that sequence with its first block moved to the end (case 2).
    Both orders are rotations of the sequence by whole blocks, with the
    same windows over every start, so a level's checks are one
    `_bloc_windows` count, l_i times; only a failing level evaluates the
    moved order too, for the records of its case-2 rotations.  The adapted
    rotations are built and checked by perm-cycl alone.
    """
    failures, checks = [], 0
    for t in _towers_by_word_length(cap):
        lr = len(t.word)
        for i in range(1, t.depth + 1):
            li, lpi = t.l[i], t.lp[i]
            if lr <= 4 * li:
                continue
            seq = block_sequence(t, i)
            n, bad = _bloc_windows(seq, li, lpi, lr)
            checks += li * n
            if bad:
                _, moved = _bloc_windows(seq[1:] + seq[:1], li, lpi, lr)
                threshold = (t.cf[i - 1] - 1) * t.l[i - 1]
                failures.extend(
                    {"p": t.p, "q": t.q, "i": i, "k": k, "start": s,
                     "length": length, "count": count, "alpha": alpha}
                    for k in range(li)
                    for s, length, count, alpha in (
                        bad if k <= threshold else moved))
    return checks, failures


_SUITE_RUNNERS = {"recurrences": _recurrence_suite, "magic-len": _magic_suite,
                  "perm-cycl": _perm_suite, "bloc": _bloc_suite}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(suite, cap):
    """Run one exhaustive lemma suite and report every check and failure.

    The cap is a slope bound (|p|, q <= cap) for "recurrences" and a
    class-word length bound (l_r <= cap) for the string suites
    "magic-len", "perm-cycl", and "bloc".

    Every suite builds its towers one at a time on one level table and
    keeps none.  The recurrences suite checks each level of that table
    once, the string suites take one (tower, level) per call, and only
    perm-cycl builds the adapted rotations.  Checks and failures are
    counted per tower and level (and per start, rotation or window in the
    string suites), so a failing level is reported for every tower that
    holds it.
    """
    runner = _SUITE_RUNNERS.get(suite)
    if runner is None:
        raise ValueError(f"unknown suite {suite!r}")
    checks, failures = runner(cap)
    return SuiteReport(suite, cap, checks, failures)
