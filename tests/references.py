"""Reference enumerations that the tests check `primscan` against, kept
apart from the package, which does not use them."""

from itertools import chain, islice
from math import gcd

from primscan import blocks
from primscan.words import ALPHABET


def class_pairs(max_den):
    """The (p, q) of `blocks.enumerate_primitive_classes(max_den)`, in its
    order (by q, then p: 1/0, 0/1, 1/1, 2/1, ...), one at a time; the cap
    is checked at the call."""
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    dens = range(1, max_den + 1)
    return chain(((1, 0), (0, 1)), ((p, q) for q in dens for p in dens
                                    if gcd(p, q) == 1))


def farey_parents(p, q):
    """The Farey parents (u, v) of the slope p/q, for p, q >= 1.

    The unique nonnegative pair with u + v = (p, q) and det(u, v) =
    p_u q_v - q_u p_v = 1, so u is the parent of larger slope.  Both, and
    the region across their edge, (|p_u - p_v|, |q_u - q_v|), come before
    p/q in the order of `class_pairs`, except that the region across the
    edge of 1/1 is 1/1 itself (it is -1/1).
    """
    # q_v = p^-1 mod q; when q = 1, pow gives 0 and q_v is 1
    qv = pow(p, -1, q) or 1
    pv = (p * qv - 1) // q
    return (p - pv, q - qv), (pv, qv)


def exact_fricke_traces(triple, cap):
    """The trace of each class of `class_pairs(cap)` from the trace triple
    (tr a, tr b, tr ab), keyed by (p, q): tr u tr v - tr w for the Farey
    parents u, v of `farey_parents` and the region w across their edge.
    It computes in the triple's own number type: ints and Fractions
    exactly, floats with the roundings of the scans' walk."""
    traces = dict(zip([(1, 0), (0, 1), (1, 1)], triple))
    for p, q in islice(class_pairs(cap), 3, None):
        (pu, qu), (pv, qv) = farey_parents(p, q)
        traces[p, q] = (traces[pu, qu] * traces[pv, qv]
                        - traces[abs(pu - pv), abs(qu - qv)])
    return traces


def adapted_rotations(tower, i):
    """`blocks.adapted_permutation(tower, i, k)` for k = 0 .. l_i - 1, in
    order, with a LemmaViolation returned, not raised, as the entry of its
    k: the adapted rotations of a level as values."""
    if not 1 <= i <= tower.depth:
        raise ValueError(f"level {i} outside [1, {tower.depth}]")
    return [ar if isinstance(ar, blocks.LemmaViolation)
            else blocks.AdaptedRotation(i, *ar)
            for ar in blocks._level_rotations(tower, i,
                                              range(len(tower.w[i])))]


def enumerate_reduced(max_len, min_len=0):
    """Yield every freely reduced word with min_len <= len <= max_len.

    Deterministic order: by length, then lexicographically in the letter
    order 'a' < 'A' < 'b' < 'B'.  There are 4 * 3**(n-1) words of each
    length n >= 1.
    """
    if min_len <= 0:
        yield ""
    level = [c for c in ALPHABET]
    n = 1
    while n <= max_len:
        if n >= min_len:
            yield from level
        if n == max_len:
            break
        level = [w + c for w in level for c in ALPHABET if c != w[-1].swapcase()]
        n += 1
