"""Primitive classes in F2: slopes, block towers, and derivation.

A primitive element (member of a free basis) is classified up to conjugacy
and inversion by its slope p/q, the reduced image in Z^2.  For each slope a
*block tower* realizes the class: starting from w_0 = a, w'_0 = ab, each
continued-fraction entry n produces

    w_i = w_{i-1}^(n-1) * w'_{i-1},      w'_i = w_{i-1}^n * w'_{i-1},

so w_r is a class representative, {w_i, w'_i} is a free basis at every
level, and the lengths satisfy l'_i = l_i + l_{i-1}.  The towers of a
cap share their first levels: `_tower_walk` builds each level once.

The *derivation* goes the other way.  A cyclic word on {a, b} in which one
letter is isolated and the other occurs in runs of only two consecutive
sizes n, n+1 is rewritten block-by-block (y^n x -> x, y^(n+1) x -> yx); a
word is primitive iff repeated derivation reaches a single letter, and the
run sizes recovered along the way are exactly the tower entries.

Rotation bookkeeping for the towers (adapted rotations and the length-l_i
subword classification) lives here too, with the exhaustive lemma suites,
among them the block count in windows.
"""

import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate
from math import gcd
from operator import attrgetter, itemgetter

from .words import (
    check_word,
    cyclic_reduce,
    abelianization,
    rotate,
)


class LemmaViolation(RuntimeError):
    """An internal consistency check failed; the combinatorial machinery
    produced something the theory says cannot happen."""


class _Value:
    """A value type over its `__slots__`: compares equal to an instance of
    its own class with equal fields, hashes by its fields, and reprs as
    Name(field=value, ...); never mutate one."""

    __slots__ = ()

    def _astuple(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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


def _canonical_slope(p, q):
    """The slope p/q as the pair (p, q) in lowest terms with q >= 0, and
    p = 1 when q = 0; raises ValueError for (0, 0) and a non-coprime pair."""
    if (p, q) == (0, 0):
        raise ValueError("slope of (0, 0) is undefined")
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    if gcd(abs(p), q) != 1:
        raise ValueError(f"({p}, {q}) is not coprime")
    return p, q


def slope_of(w):
    """Slope of a word's abelianization, canonicalized up to overall sign,
    as the pair (p, q) with q >= 0.

    Defined whenever the image in Z^2 is a basis vector candidate
    (coprime coordinates); this does not by itself imply primitivity.
    """
    check_word(w)
    p, q = abelianization(w)
    if (p, q) == (0, 0):
        raise ValueError(f"{w!r} abelianizes to (0, 0)")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"{w!r} abelianizes to non-coprime ({p}, {q})")
    return _canonical_slope(p, q)


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


def _tower_plan(p, q):
    """Recursion entries and substitution tag for a canonical slope p/q.

    The entries are the expansion of max(|p|, q)/min(|p|, q): of |p|/q
    itself when |p| >= q, and otherwise of q/|p|, the tail [n2, ...] of
    |p|/q = [0; n2, ...], on the a<->b swap.  A negative slope is the
    mirror of |p|/q: the same entries, with b inverted.
    """
    if q == 0:
        return (), "none"
    if p == 0:
        return (), "ab"
    a = abs(p)
    entries = tuple(cf_expansion(max(a, q), min(a, q)))
    if p > 0:
        return entries, "none" if a >= q else "ab"
    return entries, "bB" if a >= q else "ab+bB"


class BlockTower(_Value):
    """The block words for one slope.

    `cf` holds the recursion entries — the continued fraction of |p|/q
    when |p| >= q, of the reciprocal when the a<->b swap applies.
    `w[i]`/`wp[i]` are w_i, w'_i on the substituted alphabet, so w[-1] is
    an actual class representative of slope p/q.  Lengths l_i = |w_i|,
    l'_i = |w'_i|: l'_i = l_i + l_{i-1}, l_i < l'_i < 2 l_i and
    n_i < l_i/l_{i-1} < n_i + 1 for i >= 1.

    A value type: compares and hashes by its fields; never mutate one.
    """

    __slots__ = ("p", "q", "cf", "swap", "w", "wp")

    def __init__(self, p, q, cf, swap, w, wp):
        self.p = p
        self.q = q
        self.cf = cf
        self.swap = swap
        self.w = w
        self.wp = wp

    @property
    def depth(self):
        return len(self.cf)

    @property
    def word(self):
        return self.w[-1]


def build_blocks(p, q):
    """Build the block tower for the slope p/q, one `_extend` per entry of
    its plan; its abelianization check reads the counts carried for w_r.

    Raises ValueError when the class word, of |p| + q letters, is longer
    than a string can be (`sys.maxsize`).
    """
    p, q = _canonical_slope(p, q)
    length = abs(p) + q
    if length > sys.maxsize:
        raise ValueError(f"the class word of slope {p}/{q} has {length} "
                         f"letters, more than a string holds "
                         f"({sys.maxsize})")
    entries, swap = _tower_plan(p, q)
    level = _base_level(swap)
    for n in entries:
        if n < 1:
            raise LemmaViolation(f"tower entry {n} < 1 for slope {p}/{q}")
        level = _extend(level, n)
    if level[2] not in ((p, q), (-p, -q)):
        raise LemmaViolation(
            f"tower word for {p}/{q} abelianizes to {level[2]}")
    return BlockTower(p, q, entries, swap, *level[:2])


def _base_level(swap):
    """Level 0 on the `swap` alphabet, as `_extend` takes it."""
    w0, wp0 = base = _BASE_WORDS[swap]
    return (w0,), (wp0,), *map(abelianization, base)


def _extend(level, n):
    """The level after `level` = (w, wp, c(w[-1]), c(wp[-1])) on the
    recursion entry n: w_k^(n-1) w'_k and w_k^n w'_k, and their counts."""
    w, wp, (a, b), (ap, bp) = level
    ak, bk = (n - 1) * a + ap, (n - 1) * b + bp
    return (w + (w[-1] * (n - 1) + wp[-1],), wp + (w[-1] * n + wp[-1],),
            (ak, bk), (a + ak, b + bk))


def _tower_walk(cap, words=False):
    """Every level of the towers of nonnegative slope within `cap` (>= 1),
    each built once from its parent by `_extend`, depth first: (t, tower)
    in preorder, t the level as a BlockTower, `tower` true when t is its
    slope's tower (one entry, or a last entry >= 2; on "ab", not 1/1).

    The cap bounds max(p, q) = h_k, or with `words` p + q = h_k + k_k, for
    the convergents h_k = n_k h_(k-1) + h_(k-2) (k_k alike), which grow
    with each entry: a level's children are entries + (n,) within the cap,
    and one that is no tower is built only if entries + (n, 2) is.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for swap in ("none", "ab"):
        level = _base_level(swap)
        yield BlockTower(*((1, 0) if swap == "none" else (0, 1)), (), swap,
                         *level[:2]), True
        # entries, level, convergents h_k, k_k, h_(k-1), k_(k-1), next entry
        stack = [[(), level, 1, 0, 0, 1, 1]]
        while stack:
            entries, level, h, k, h1, k1, n = frame = stack[-1]
            hn, kn = n * h + h1, n * k + k1
            if (hn + kn if words else hn) > cap:
                stack.pop()
                continue
            frame[6] = n + 1
            tower = n >= 2 or not entries and swap == "none"
            if not tower and (2 * (hn + kn) + h + k if words
                              else 2 * hn + h) > cap:
                continue
            level = _extend(level, n)
            p, q = (hn, kn) if swap == "none" else (kn, hn)
            if level[2] != (p, q):
                raise LemmaViolation(
                    f"tower word for {p}/{q} abelianizes to {level[2]}")
            entries += (n,)
            yield BlockTower(p, q, entries, swap, *level[:2]), tower
            stack.append([entries, level, hn, kn, h, k, 1])


def enumerate_primitive_classes(max_den):
    """One BlockTower per slope with 0 <= p, q <= max_den, plus 1/0.

    Deterministic order: by q, then p; so 1/0 comes first, then 0/1, 1/1,
    2/1, ...  The count is 2 + #{(p, q) : 1 <= p, q <= max_den, coprime}.
    """
    return _towers(max_den)


def _towers(cap, words=False):
    """The towers of `_tower_walk(cap, words)`, by q, then p."""
    return sorted((t for t, tower in _tower_walk(cap, words) if tower),
                  key=attrgetter("q", "p"))


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


# word: the cyclic word, rotated to start on a run boundary; isolated: the
# isolated letter; value: smallest run size of the companion letter
DerivationStep = namedtuple("DerivationStep",
                            "word isolated value derived")


class DerivationTrace(namedtuple(
        "DerivationTrace", "word core positive steps primitive reason")):
    """`word` is the input, `core` its cyclic reduction, `positive` the
    sign-normalized core on {a, b} ("" if empty or mixed), and `reason`
    "" when primitive."""

    __slots__ = ()

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


class AdaptedRotation(_Value):
    """A rotated basis pair over which a rotation of the class word factors.

    Rotating w_i by k letters pairs with rotating w'_i by j letters so that
    one rotated block is a prefix or a suffix of the other, and
    rotate(w_r, word_rotation) is the concatenation of the rotated blocks in
    the order given by `blocks`.  A value type: compares and hashes by its
    fields; never mutate one.
    """

    __slots__ = ("i", "k", "j", "case", "relation", "block", "block_prime",
                 "word_rotation", "blocks")

    def __init__(self, i, k, j, case, relation, block, block_prime,
                 word_rotation, blocks):
        self.i = i
        self.k = k
        self.j = j
        self.case = case    # 1: k <= (n_i - 1) l_{i-1};  2: otherwise
        self.relation = relation    # "prefix" or "suffix"
        self.block = block    # rotate(w_i, k)
        self.block_prime = block_prime    # rotate(w'_i, j)
        self.word_rotation = word_rotation
        self.blocks = blocks


def adapted_permutation(tower, i, k):
    """Adapted rotation pair for the k-rotation of w_i, constructively.

    Case 1 (k <= (n_i - 1) l_{i-1}): j = k and the block order of the
    factorization is unchanged.  Case 2: j = k + l_{i-1} and the first block
    moves to the end.  The factorization identity is re-checked by string
    comparison and a failure raises LemmaViolation.
    """
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    li = len(tower.w[i])
    if not 0 <= k < li:
        raise ValueError(f"rotation {k} outside [0, {li})")
    [ar] = _level_rotations(tower, i, (k,))
    if isinstance(ar, LemmaViolation):
        raise ar
    return AdaptedRotation(i, *ar)


def adapted_rotations(tower, i):
    """`adapted_permutation(tower, i, k)` for k = 0 .. l_i - 1, in order,
    with a LemmaViolation returned, not raised, as the entry of its k."""
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    return [ar if isinstance(ar, LemmaViolation) else AdaptedRotation(i, *ar)
            for ar in _level_rotations(tower, i, range(len(tower.w[i])))]


def _level_rotations(tower, i, ks):
    """The adapted rotation of every k in `ks`, as the fields that follow
    i in `AdaptedRotation`, (k, j, case, relation, block, block_prime,
    word_rotation, blocks), or its LemmaViolation.

    The level is read once: l_{i-1}, the case threshold, the block
    sequence and its order with the first block moved to the end, and the
    doubled words, of which every rotated block and rotated class word is
    a slice.  Each k still gets its own prefix/suffix test and its own
    joined factorization, compared with the rotated class word.
    """
    lprev = len(tower.w[i - 1])
    threshold = (tower.cf[i - 1] - 1) * lprev
    w, wp = tower.w[i], tower.wp[i]
    lw, lwp = len(w), len(wp)
    ww, wpwp = w + w, wp + wp
    seq = block_sequence(tower, i)
    moved = seq[1:] + seq[:1]
    # each order takes its blocks from (rotated w_i, rotated w'_i) in one
    # call; `itemgetter` of one index returns the bare block, so a
    # one-block order (the top level's ("w",)) takes a slice of length 1
    pick, moved_pick = [
        itemgetter(*x) if len(x) > 1 else itemgetter(slice(x[0], x[0] + 1))
        for x in [["wp".index(s) for s in order] for order in (seq, moved)]]
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
            case, out_seq, get, word_rotation = 1, seq, pick, k
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
            case, out_seq, get = 2, moved, moved_pick
            word_rotation = k if first_is_w else j
        r = word_rotation % lr
        if "".join(get((rot_w, rot_wp))) != doubled[r:r + lr]:
            out.append(LemmaViolation(
                f"rotated factorization mismatch {where}{k}"))
            continue
        out.append((k, j, case, relation, rot_w, rot_wp, word_rotation,
                    out_seq))
    return out


class MagicWitness(_Value):
    """How a length-l_i cyclic subword of w_r matches a rotation of w_i.

    A value type: compares and hashes by its fields; never mutate one.
    """

    __slots__ = ("rotation", "changed_to")

    def __init__(self, rotation, changed_to):
        self.rotation = rotation
        self.changed_to = changed_to    # "" when already a rotation


def classify_magic_subword(tower, i, u):
    """Match a length-l_i cyclic subword of w_r against rotations of w_i.

    Every such subword is a rotation of w_i after changing at most its last
    letter; returns the first matching rotation index (exact matches take
    precedence over last-letter repairs).
    """
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    li = len(tower.w[i])
    if len(u) != li:
        raise ValueError(f"subword length {len(u)} != l_{i} = {li}")
    if u not in tower.word * 2:
        raise ValueError(f"{u!r} is not a cyclic subword of the class word")
    return MagicWitness(*_match_magic_subword(tower, i, u, tower.w[i] * 2))


def _match_magic_subword(tower, i, u, ww):
    """The fields of the witness of `classify_magic_subword`, (rotation,
    changed_to), for a checked subword u, with `ww` the doubled w_i.

    A u of length |w_i| is a rotation of w_i exactly when it occurs in
    `ww`, and its first occurrence is its first rotation index.
    """
    hit = ww.find(u)
    if hit >= 0:
        return hit, ""
    for c in sorted(set(tower.wp[0])):
        if c == u[-1]:
            continue
        hit = ww.find(u[:-1] + c)
        if hit >= 0:
            return hit, c
    raise LemmaViolation(
        f"{u!r} is not a rotation of w_{i} at slope {tower.p}/{tower.q}, "
        f"even after a last-letter change")


# --------------------------------------------------------------------------
# exhaustive lemma suites
# --------------------------------------------------------------------------

class SuiteReport(namedtuple("SuiteReport", "suite cap checks failures")):
    """Outcome of one exhaustive suite: how many checks ran and every
    failure with enough context to reproduce it."""

    __slots__ = ()

    @property
    def passed(self):
        return not self.failures


def _recurrence_suite(cap):
    """The word and length recurrences and the length inequalities of
    every tower of `enumerate_primitive_classes(cap)`, in exact integer
    and string arithmetic.

    The checks of level i read levels i - 1 and i only, so `_check_level`
    runs once per level, as the walk builds it; the failing levels on its
    path ride along, and are recorded for every tower that holds them.  A
    tower's records are its own checks (base lengths, word length), its
    level checks by level, then its (m+2) l_(i-1) inequalities by level.
    """
    failures, checks = [], 0
    path = [()]    # path[i]: the failing levels' messages up to level i
    for t, tower in _tower_walk(cap):
        depth = len(t.cf)    # not `t.depth`: one call fewer per level
        if depth:
            found = _check_level(t, depth)
            del path[depth:]
            path.append(path[-1] + (found,) if any(found) else path[-1])
        if not tower:
            continue
        held = path[depth]
        messages = []
        if not (len(t.w[0]) == 1 and len(t.wp[0]) == 2):
            messages.append("base lengths")
        if len(t.w[-1]) != abs(t.p) + t.q:
            messages.append("word length |p| + q")
        if messages or held:
            messages += [m for level, _ in held for m in level]
            messages += [m for _, inequality in held for m in inequality]
            failures += [{"p": t.p, "q": t.q, "check": m} for m in messages]
        # two checks of the tower, seven at every level, and the
        # inequality from level 2 on
        checks += 2 + 7 * depth + max(depth - 1, 0)
    failures.sort(key=itemgetter("q", "p"))    # the towers' order
    return checks, failures


def _check_level(t, i):
    """The word and length recurrences and the length inequalities at
    level i >= 1 of tower t, in exact integer and string arithmetic.

    They read levels i - 1 and i only.  Returns the failure messages as
    two lists: those of the seven level checks, and that of the
    (m+2) l_(i-1) inequality, which starts at level 2.  A message is
    formatted only when its check fails.
    """
    w, wp, cf = t.w, t.wp, t.cf
    n = cf[i - 1]
    lprev, li, lpi = len(w[i - 1]), len(w[i]), len(wp[i])
    own, inequality = [], []
    if w[i] != w[i - 1] * (n - 1) + wp[i - 1]:
        own.append(f"w recurrence at level {i}")
    if wp[i] != w[i - 1] * n + wp[i - 1]:
        own.append(f"w' recurrence at level {i}")
    if wp[i] != w[i - 1] + w[i]:
        own.append(f"w' = w_(i-1) w_i at level {i}")
    if lpi != li + lprev:
        own.append(f"l' recurrence at level {i}")
    if not li < lpi < 2 * li:
        own.append(f"l < l' < 2l at level {i}")
    if not i + 1 <= li:
        own.append(f"l_i >= i + 1 at level {i}")
    if i == 1:
        if li != (n + 1) * lprev:
            own.append("l_1 = (n_1 + 1) l_0")
        return own, inequality
    if not n * lprev < li < (n + 1) * lprev:
        own.append(f"n l < l < (n+1) l at level {i}")
    m = cf[i - 2]
    lhs, rhs = (m + 2) * lprev, (m + 1) * li
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
    for t in _towers(cap, words=True):
        doubled = t.word * 2
        lr = len(t.word)
        for i in range(1, t.depth + 1):
            li = len(t.w[i])
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
    """The adapted rotation of every k-rotation of w_i, every level: one
    check per (tower, level, k), one `_level_rotations` call per level,
    and no `AdaptedRotation` built; a failing k records its message."""
    failures, checks = [], 0
    for t in _towers(cap, words=True):
        for i in range(1, t.depth + 1):
            rotations_i = _level_rotations(t, i, range(len(t.w[i])))
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
    for t in _towers(cap, words=True):
        lr = len(t.word)
        for i in range(1, t.depth + 1):
            li, lpi = len(t.w[i]), len(t.wp[i])
            if lr <= 4 * li:
                continue
            seq = block_sequence(t, i)
            n, bad = _bloc_windows(seq, li, lpi, lr)
            checks += li * n
            if bad:
                _, moved = _bloc_windows(seq[1:] + seq[:1], li, lpi, lr)
                threshold = (t.cf[i - 1] - 1) * len(t.w[i - 1])
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

    Every suite builds each level of its towers once, by `_tower_walk`:
    the recurrences suite checks each level as it is built and keeps none,
    and the string suites take one (tower, level) per call; only perm-cycl
    builds the adapted rotations.  Checks and failures are counted per
    tower and level (and per start, rotation or window in the string
    suites), so a failing level is reported for every tower that holds it.
    """
    runner = _SUITE_RUNNERS.get(suite)
    if runner is None:
        raise ValueError(f"unknown suite {suite!r}")
    return SuiteReport(suite, cap, *runner(cap))
