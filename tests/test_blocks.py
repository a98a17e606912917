import collections
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from primscan import blocks
from primscan.blocks import (
    BlockTower,
    LemmaViolation,
    adapted_permutation,
    adapted_rotations,
    alphabet_class,
    block_sequence,
    build_blocks,
    cf_expansion,
    classify_magic_subword,
    derivation,
    enumerate_primitive_classes,
    farey_parents,
    is_primitive,
    run_suite,
    slope_of,
)
from primscan.words import (
    abelianization,
    cyclic_reduce,
    enumerate_reduced,
    invert,
    reduce,
    rotate,
    rotations,
    substitute,
)


# --------------------------------------------------------------------------
# continued fractions
# --------------------------------------------------------------------------

def cf_value(cf):
    """Evaluate a continued fraction to a pair (p, q), gcd 1, q >= 0.

    The empty expansion evaluates to (1, 0), i.e. the slope of 'a'.
    """
    p, q = 1, 0
    for n in reversed(cf):
        p, q = n * p + q, p
    return p, q


@given(st.integers(-40, 40), st.integers(1, 40))
def test_cf_roundtrips_through_fraction(p, q):
    cf = cf_expansion(p, q)
    assert Fraction(*cf_value(cf)) == Fraction(p, q)


@given(st.integers(-40, 40), st.integers(1, 40))
def test_cf_is_canonical(p, q):
    cf = cf_expansion(p, q)
    assert all(n >= 1 for n in cf[1:])
    if len(cf) >= 2:
        assert cf[-1] >= 2


def test_cf_canonical_form_is_unique():
    # every canonical sequence evaluates to a distinct rational, so the
    # canonical expansion of each rational is unique
    seen = {}
    seqs = [[n1] for n1 in range(-4, 5)]
    for r in (2, 3):
        for n1 in range(-4, 5):
            for mid in itertools.product(range(1, 5), repeat=r - 2):
                for last in range(2, 5):
                    seqs.append([n1, *mid, last])
    for cf in seqs:
        value = Fraction(*cf_value(cf))
        assert value not in seen, (cf, seen[value])
        seen[value] = cf


def test_cf_examples():
    assert cf_expansion(3, 2) == [1, 2]
    assert cf_expansion(7, 5) == [1, 2, 2]
    assert cf_expansion(1, 1) == [1]
    assert cf_expansion(0, 1) == [0]
    assert cf_expansion(5, 1) == [5]
    assert cf_expansion(-1, 2) == [-1, 2]
    assert cf_expansion(13, 8) == [1, 1, 1, 1, 2]
    assert cf_value(()) == (1, 0)
    assert cf_value([0]) == (0, 1)
    with pytest.raises(ValueError):
        cf_expansion(1, 0)


# --------------------------------------------------------------------------
# slopes
# --------------------------------------------------------------------------

def test_slope_canonicalization():
    canonical = blocks._canonical_slope
    assert canonical(-3, -2) == canonical(3, 2) == (3, 2)
    assert canonical(-1, 0) == canonical(1, 0) == (1, 0)
    assert canonical(-3, 2) == canonical(3, -2) == (-3, 2)
    assert build_blocks(-1, 0) == build_blocks(1, 0)
    assert build_blocks(1, 0).cf == ()
    assert build_blocks(3, -2) == build_blocks(-3, 2)
    assert (build_blocks(-3, -2).p, build_blocks(-3, -2).q) == (3, 2)
    assert build_blocks(3, 2).cf == (1, 2)
    # the messages name the pair after the sign is fixed
    for p, q, message in [(2, 4, "(2, 4) is not coprime"),
                          (2, -4, "(-2, 4) is not coprime"),
                          (0, 0, "slope of (0, 0) is undefined")]:
        for call in (canonical, build_blocks):
            with pytest.raises(ValueError) as raised:
                call(p, q)
            assert str(raised.value) == message


def test_slope_of_words():
    assert slope_of("aab") == (2, 1)
    assert slope_of("ABB") == (1, 2)
    assert slope_of("aB") == (-1, 1)
    assert slope_of("Ab") == (-1, 1)
    assert slope_of("abaab") == (3, 2)
    with pytest.raises(ValueError):
        slope_of("abAB")  # abelianizes to (0, 0)
    with pytest.raises(ValueError):
        slope_of("aabb")  # (2, 2) not coprime


# --------------------------------------------------------------------------
# block towers
# --------------------------------------------------------------------------

def test_tower_3_2_frozen():
    tower = build_blocks(3, 2)
    assert tower.to_json_dict() == {
        "p": 3,
        "q": 2,
        "cf": [1, 2],
        "w": ["a", "ab", "abaab"],
        "wp": ["ab", "aab", "ababaab"],
        "l": [1, 2, 5],
        "lp": [2, 3, 7],
        "swap": "none",
    }


def test_tower_7_5_frozen():
    tower = build_blocks(7, 5)
    assert tower.cf == (1, 2, 2)
    assert tower.w == ("a", "ab", "abaab", "abaabababaab")
    assert tower.wp == ("ab", "aab", "ababaab", "abaababaabababaab")
    assert tuple(map(len, tower.w)) == (1, 2, 5, 12)
    assert tuple(map(len, tower.wp)) == (2, 3, 7, 17)
    assert tower.word == "abaabababaab"
    assert tower.depth == 3


def test_tower_substitutions_frozen():
    assert build_blocks(1, 0).word == "a"
    assert build_blocks(0, 1).word == "b"
    assert build_blocks(-1, 0).word == "a"  # canonicalized to 1/0
    swapped = build_blocks(1, 2)
    assert swapped.swap == "ab"
    assert swapped.cf == (2,)
    assert swapped.word == "bba"
    assert build_blocks(-3, 2).swap == "bB"
    assert build_blocks(-3, 2).word == "aBaaB"
    assert build_blocks(-1, 2).swap == "ab+bB"
    assert build_blocks(-1, 2).word == "BBa"


def test_tower_words_have_their_slope():
    for tower in enumerate_primitive_classes(10):
        assert slope_of(tower.word) == (tower.p, tower.q)
    for p, q in [(-7, 5), (-1, 3), (-8, 1)]:
        assert slope_of(build_blocks(p, q).word) == (p, q)


def test_tower_length_recurrences_and_bounds():
    towers = enumerate_primitive_classes(12)
    towers += [build_blocks(89, 55), build_blocks(-55, 89)]
    for t in towers:
        l, lp, cf = tuple(map(len, t.w)), tuple(map(len, t.wp)), t.cf
        assert l[0] == 1 and lp[0] == 2
        assert len(t.word) == abs(t.p) + t.q
        for i in range(1, t.depth + 1):
            n = cf[i - 1]
            assert t.w[i] == t.w[i - 1] * (n - 1) + t.wp[i - 1]
            assert t.wp[i] == t.w[i - 1] * n + t.wp[i - 1]
            assert t.wp[i] == t.w[i - 1] + t.w[i]
            assert lp[i] == l[i] + l[i - 1]
            assert l[i] < lp[i] < 2 * l[i]
            assert i + 1 <= l[i]
            # l_i sits in (n_i l_{i-1}, (n_i + 1) l_{i-1}], equality only at
            # the first level
            assert n * l[i - 1] < l[i] <= (n + 1) * l[i - 1]
            if i == 1:
                assert l[1] == (n + 1) * l[0]
            else:
                assert l[i] < (n + 1) * l[i - 1]
        for i in range(2, t.depth + 1):
            m = cf[i - 2]
            # comparing consecutive levels against the previous entry; tight
            # exactly at level 2 when the second entry is 1
            assert (m + 2) * l[i - 1] <= (m + 1) * l[i]
            if i >= 3 or cf[i - 1] >= 2:
                assert (m + 2) * l[i - 1] < (m + 1) * l[i]


def test_min_li_bound_is_tight_at_level_two():
    t = build_blocks(*cf_value([1, 1, 2]))
    assert (t.cf[0] + 2) * len(t.w[1]) == (t.cf[0] + 1) * len(t.w[2])


# the letter substitutions of every swap tag, applied to whole words: an
# oracle independent of the base-word table of `blocks`
_REFERENCE_SUBS = {
    "ab": str.maketrans("abAB", "baBA"),
    "bB": str.maketrans("bB", "Bb"),
    "ab+bB": str.maketrans("abAB", "BaAb"),
}


def _reference_plan(p, q):
    """The recursion entries and substitution tag of the canonical slope
    p/q, planned as before slopes were plain pairs: p/q >= 1 on its own
    expansion, 0 < p/q < 1 on the tail [n2, ...] of p/q = [0; n2, ...],
    and a negative slope as the plan of -p/q with b inverted."""
    if q == 0:
        return (), "none"
    if p == 0:
        return (), "ab"
    if p > 0:
        cf = tuple(cf_expansion(p, q))
        return (cf, "none") if p >= q else (cf[1:], "ab")
    entries, swap = _reference_plan(-p, q)
    return entries, "ab+bB" if swap == "ab" else "bB"


def _canonical_slopes(cap):
    """Every canonical slope p/q with |p|, q <= cap, on both signs."""
    return [(p, q) for q in range(cap + 1) for p in range(-cap, cap + 1)
            if gcd(abs(p), q) == 1 and (q > 0 or p == 1)]


def test_tower_plan_matches_recursive_reference():
    slopes = _canonical_slopes(300)
    assert len(slopes) == 109_592
    for p, q in slopes:
        assert blocks._tower_plan(p, q) == _reference_plan(p, q), (p, q)


def _reference_words(entries, swap):
    """The (w, w') tuples of the recursion entries on the `swap` alphabet,
    by the per-slope loop: all levels on {a, b}, then the letter
    substitution."""
    w, wp = ["a"], ["ab"]
    for n in entries:
        w.append(w[-1] * (n - 1) + wp[-1])
        wp.append(w[-2] * n + wp[-1])
    if swap != "none":
        table = _REFERENCE_SUBS[swap]
        w = [x.translate(table) for x in w]
        wp = [x.translate(table) for x in wp]
    return tuple(w), tuple(wp)


def _reference_tower(p, q):
    """The per-slope loop that built every tower before towers shared
    their levels."""
    entries, swap = _reference_plan(p, q)
    w, wp = _reference_words(entries, swap)
    return BlockTower(p=p, q=q, cf=entries, swap=swap, w=w, wp=wp)


def test_level_table_towers_match_per_slope_loop():
    # the towers of the walk, and those of `build_blocks`
    classes = enumerate_primitive_classes(200)
    assert len(classes) == 24465
    for tower in classes:
        assert tower == _reference_tower(tower.p, tower.q), tower
    # both signs and every substitution
    for p, q in _canonical_slopes(40):
        want = _reference_tower(p, q)
        got = build_blocks(p, q)
        assert got == want and hash(got) == hash(want), (p, q)


def _walk_slope_pairs(cap, words):
    """The (p, q) of the towers of `_tower_walk(cap, words)`, in order."""
    return [(t.p, t.q) for t, tower in blocks._tower_walk(cap, words)
            if tower]


@pytest.mark.parametrize("words", [False, True])
def test_walk_yields_each_class_pair_once(words):
    # the slope bound max(p, q) <= cap is that of `_class_pairs`; the word
    # bound keeps its pairs with p + q <= cap
    for cap in range(1, 61):
        want = [(p, q) for p, q in blocks._class_pairs(cap)
                if not words or p + q <= cap]
        got = _walk_slope_pairs(cap, words)
        assert len(got) == len(set(got)), cap
        assert set(got) == set(want), cap
    for t, tower in blocks._tower_walk(60, words):
        if tower:
            assert t == _reference_tower(t.p, t.q), (t.p, t.q)


@pytest.mark.parametrize("words", [False, True])
def test_walk_yields_each_level_after_its_parent(words):
    # preorder: a level's parent is the last level yielded one level down,
    # and every level holds its parent's words
    for cap in (1, 2, 7, 60):
        last = {}
        for t, _ in blocks._tower_walk(cap, words):
            if t.depth:
                parent = last[t.depth - 1]
                assert (parent.swap, parent.cf) == (t.swap, t.cf[:-1])
                assert (parent.w, parent.wp) == (t.w[:-1], t.wp[:-1])
            assert (t.w, t.wp) == _reference_words(t.cf, t.swap)
            last[t.depth] = t


def test_string_suites_build_the_levels_their_towers_hold():
    # the word bound builds a level only if a tower within the bound holds
    # it, and once: 1,246 levels at cap 60, level 0 left out, of which 366,
    # with level 0, are extended by another (where a table that kept the
    # levels a tower could extend held 582)
    for cap in range(1, 61):
        built = [(t.swap, t.cf) for t, _ in blocks._tower_walk(cap, True)
                 if t.depth]
        held = {(t.swap, t.cf[:i]) for t in blocks._towers(cap, words=True)
                for i in range(1, t.depth + 1)}
        assert len(built) == len(set(built)), cap
        assert set(built) == held, cap
    assert len(built) == 1246
    assert len({(swap, cf[:-1]) for swap, cf in built}) == 366


def test_walk_refuses_a_cap_below_one():
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            enumerate_primitive_classes(cap)
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            run_suite("magic-len", cap)


def test_tower_value_semantics():
    tower = build_blocks(13, 8)
    fresh = build_blocks(13, 8)
    assert tower == fresh and hash(tower) == hash(fresh)
    assert repr(tower) == repr(fresh)
    broken = _break_word(tower, tower.depth)
    assert broken != tower
    assert _replace(tower, p=-13).p == -13
    assert len({tower, fresh, (13, 8), slope_of(tower.word)}) == 2
    # a tower is its plan and its words; the lengths are read from those
    assert BlockTower.__slots__ == ("p", "q", "cf", "swap", "w", "wp")


# the reprs of the value types, as recorded from their former dataclasses
_TOWER_13_8_REPR = (
    "BlockTower(p=13, q=8, cf=(1, 1, 1, 1, 2), swap='none', "
    "w=('a', 'ab', 'aab', 'abaab', 'aababaab', 'aababaababaabaababaab'), "
    "wp=('ab', 'aab', 'abaab', 'aababaab', 'abaabaababaab', "
    "'aababaabaababaababaabaababaab'))")
_ROTATION_REPR = (
    "AdaptedRotation(i=3, k=2, j=5, case=2, relation='suffix', "
    "block='aabab', block_prime='aabaabab', word_rotation=5, "
    "blocks=('w', 'p', 'p'))")
_DERIVATION_REPR = (
    "DerivationTrace(word='aab', core='aab', positive='aab', "
    "steps=(DerivationStep(word='aab', isolated='b', value=2, "
    "derived='b'),), primitive=True, reason='')")


def test_value_types_compare_hash_and_repr_by_field():
    tower = build_blocks(13, 8)
    pairs = [
        (tower, build_blocks(13, 8)),
        (adapted_permutation(tower, 3, 2),
         adapted_permutation(build_blocks(13, 8), 3, 2)),
        (classify_magic_subword(tower, 2, "aba"), blocks.MagicWitness(1, "")),
        (derivation("aab").steps[0],
         blocks.DerivationStep("aab", "b", 2, "b")),
        (derivation("aab"), derivation("aab")),
    ]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y), x
    for (x, _), (y, _) in itertools.combinations(pairs, 2):
        assert x != y and y != x
    assert blocks.MagicWitness(1, "") != (1, "")
    assert blocks.MagicWitness(1, "") != blocks.MagicWitness(1, "a")
    assert adapted_permutation(tower, 3, 2) != adapted_permutation(tower, 3, 1)
    assert derivation("aab") != derivation("abb")
    assert len({tower, build_blocks(13, 8), build_blocks(8, 13)}) == 2
    assert repr(tower) == _TOWER_13_8_REPR
    assert repr(adapted_permutation(tower, 3, 2)) == _ROTATION_REPR
    assert repr(derivation("aab")) == _DERIVATION_REPR
    assert repr(blocks.MagicWitness(1, "")) == \
        "MagicWitness(rotation=1, changed_to='')"


def test_enumeration_count_matches_totient_sum():
    for max_den in (1, 2, 3, 5, 8, 12):
        classes = enumerate_primitive_classes(max_den)
        phi = list(range(max_den + 1))
        for k in range(2, max_den + 1):
            if phi[k] == k:  # k prime: sieve the multiples
                for m in range(k, max_den + 1, k):
                    phi[m] -= phi[m] // k
        # coprime pairs in [1, N]^2 come in (p, q) / (q, p) twins except (1, 1)
        assert len(classes) == 2 + 2 * sum(phi[1:]) - 1
        slopes = [(t.p, t.q) for t in classes]
        assert slopes[:2] == [(1, 0), (0, 1)]
        assert slopes == sorted(slopes, key=lambda s: (s[1], s[0]))
        assert len(set(slopes)) == len(slopes)
    with pytest.raises(ValueError):
        enumerate_primitive_classes(0)


def test_enumerated_slopes_equal_their_checked_construction():
    # enumeration builds its towers without the gcd and sign checks
    for t in enumerate_primitive_classes(200):
        assert (t.p, t.q) == blocks._canonical_slope(t.p, t.q)


def test_farey_parents_come_before_their_class():
    # the defining properties fix the parents: nonnegative, summing to the
    # slope, with det(u, v) = 1 (u has the larger slope); both, and the
    # region across their edge, come before the class in record order,
    # save the region across 1/1, which is -1/1
    pairs = list(blocks._class_pairs(200))
    index = {pq: k for k, pq in enumerate(pairs)}
    for k, (p, q) in enumerate(pairs[2:], 2):
        u, v = farey_parents(p, q)
        assert min(*u, *v) >= 0, (p, q)
        assert (u[0] + v[0], u[1] + v[1]) == (p, q)
        assert u[0] * v[1] - u[1] * v[0] == 1, (p, q)
        w = abs(u[0] - v[0]), abs(u[1] - v[1])
        assert index[u] < k and index[v] < k, (p, q)
        assert index[w] < k or (p, q) == w == (1, 1), (p, q)
    assert farey_parents(1, 1) == ((1, 0), (0, 1))
    assert farey_parents(5, 1) == ((1, 0), (4, 1))
    assert farey_parents(3, 5) == ((2, 3), (1, 2))
    with pytest.raises(ValueError, match="max_den must be >= 1, got 0"):
        blocks._class_pairs(0)


# --------------------------------------------------------------------------
# derivation and primitivity
# --------------------------------------------------------------------------

def test_alphabet_class():
    assert alphabet_class("aabab") == ("a", "b")
    assert alphabet_class("aaBaB") == ("a", "B")
    assert alphabet_class("AAb") == ("A", "b")
    assert alphabet_class("ABAB") == ("A", "B")
    assert alphabet_class("a") == ("a", "b")
    assert alphabet_class("abA") == "mixed"


def test_derivation_trace_frozen():
    trace = derivation("aabab")
    assert trace.primitive
    assert trace.values == (1, 2)
    assert [s.derived for s in trace.steps] == ["bab", "a"]
    trace = derivation(build_blocks(7, 5).word)
    assert trace.primitive and trace.values == (1, 2, 2)


def test_derivation_failures():
    assert not derivation("").primitive
    assert derivation("abAB").reason == "some generator occurs with both signs"
    assert not derivation("aa").primitive  # proper power
    assert not derivation("aabb").primitive  # neither letter isolated
    assert not derivation("abaabaaab").primitive  # run sizes 1, 2, 3
    assert not derivation("aabaab").primitive  # gcd 3 survives to a power


def test_derivation_values_match_tower_entries():
    for tower in enumerate_primitive_classes(9):
        trace = derivation(tower.word)
        assert trace.primitive and trace.reason == ""
        assert trace.values == tower.cf
        # the value sequence is a conjugacy invariant
        for k in (1, len(tower.w[-1]) // 2):
            rotated = derivation(rotate(tower.word, k))
            assert rotated.primitive and rotated.values == tower.cf


_RELABELINGS = [
    {"a": "a", "b": "b"},
    {"a": "A", "b": "b"},
    {"a": "a", "b": "B"},
    {"a": "A", "b": "B"},
]


def _reference_primitive_words(max_len):
    """All cyclically reduced primitive words of length <= max_len, built
    from towers, sign relabelings, inverses, and rotations only."""
    base = [t.word for t in enumerate_primitive_classes(max_len)
            if len(t.word) <= max_len]
    out = set()
    for w in base:
        for sub in _RELABELINGS:
            v = substitute(w, sub)
            for u in (v, invert(v)):
                out.update(rotations(u))
    return out


def test_primitivity_exhaustive_against_reference_set():
    max_len = 9
    reference = _reference_primitive_words(max_len)
    for w in enumerate_reduced(max_len):
        expected = cyclic_reduce(w)[0] in reference
        assert is_primitive(w) == expected, w
    assert not is_primitive("")


reduced_words = (
    st.text(alphabet="aAbB", min_size=1, max_size=40)
    .map(lambda s: cyclic_reduce(reduce(s))[0])
    .filter(lambda w: w)
)


@given(reduced_words, st.integers(0, 39))
def test_primitivity_invariances(w, k):
    value = is_primitive(w)
    assert is_primitive(rotate(w, k)) == value
    assert is_primitive(invert(w)) == value
    for sub in _RELABELINGS:
        assert is_primitive(substitute(w, sub)) == value


@given(reduced_words)
def test_primitive_implies_coprime_abelianization(w):
    if is_primitive(w):
        p, q = abelianization(w)
        assert gcd(abs(p), abs(q)) == 1


# --------------------------------------------------------------------------
# block sequences and adapted rotations
# --------------------------------------------------------------------------

def test_block_sequence_reassembles_word():
    for tower in enumerate_primitive_classes(8):
        for i in range(tower.depth + 1):
            seq = block_sequence(tower, i)
            rebuilt = "".join(
                tower.w[i] if s == "w" else tower.wp[i] for s in seq)
            assert rebuilt == tower.word
        assert block_sequence(tower, tower.depth) == ("w",)


def _brute_force_adapted_j(tower, i, k):
    """All j for which the k-rotation of w_i is a prefix or suffix of the
    j-rotation of w'_i."""
    rot_w = rotate(tower.w[i], k)
    out = set()
    for j in range(len(tower.wp[i])):
        rot_wp = rotate(tower.wp[i], j)
        if rot_wp.startswith(rot_w) or rot_wp.endswith(rot_w):
            out.add(j)
    return out


def test_adapted_rotations_exhaustive():
    for tower in enumerate_primitive_classes(8):
        word = tower.word
        for i in range(1, tower.depth + 1):
            seq = block_sequence(tower, i)
            n = tower.cf[i - 1]
            for k in range(len(tower.w[i])):
                ar = adapted_permutation(tower, i, k)
                assert ar.block == rotate(tower.w[i], k)
                assert ar.block_prime == rotate(tower.wp[i], ar.j)
                if ar.relation == "prefix":
                    assert ar.block_prime.startswith(ar.block)
                else:
                    assert ar.relation == "suffix"
                    assert ar.block_prime.endswith(ar.block)
                assert ar.j in _brute_force_adapted_j(tower, i, k)
                if ar.case == 1:
                    assert k <= (n - 1) * len(tower.w[i - 1])
                    assert ar.j == k
                    assert ar.blocks == seq
                else:
                    assert k > (n - 1) * len(tower.w[i - 1])
                    assert ar.j == k + len(tower.w[i - 1])
                    assert ar.blocks == seq[1:] + seq[:1]
                rebuilt = "".join(ar.block if s == "w" else ar.block_prime
                                  for s in ar.blocks)
                assert rebuilt == rotate(word, ar.word_rotation)
                assert sorted(ar.blocks) == sorted(seq)


def test_adapted_rotation_validation():
    tower = build_blocks(7, 5)
    with pytest.raises(ValueError):
        adapted_permutation(tower, 0, 0)
    with pytest.raises(ValueError):
        adapted_permutation(tower, 4, 0)
    with pytest.raises(ValueError):
        adapted_permutation(tower, 2, len(tower.w[2]))
    for i in (0, 4):
        with pytest.raises(ValueError):
            adapted_rotations(tower, i)


def test_adapted_rotation_spec_example():
    tower = build_blocks(7, 5)
    ar = adapted_permutation(tower, 2, 3)
    assert ar.case == 2
    assert ar.j == 5
    assert ar.relation == "prefix"
    assert ar.word_rotation == 3
    assert ar.blocks == ("p", "w")


def _reference_adapted_permutation(tower, i, k):
    """The per-k construction of `adapted_permutation` before a level's
    rotations were built in one pass, without its argument checks."""
    n_i = tower.cf[i - 1]
    threshold = (n_i - 1) * len(tower.w[i - 1])
    if k <= threshold:
        case, j = 1, k
    else:
        case, j = 2, k + len(tower.w[i - 1])
    rot_w = rotate(tower.w[i], k)
    rot_wp = rotate(tower.wp[i], j)
    if case == 1:
        if rot_wp.endswith(rot_w):
            relation = "suffix"
        elif rot_wp.startswith(rot_w):
            relation = "prefix"
        else:
            raise LemmaViolation(
                f"no prefix/suffix relation at slope {tower.p}/{tower.q}, "
                f"i={i}, k={k}")
    else:
        if rot_wp.startswith(rot_w):
            relation = "prefix"
        elif rot_wp.endswith(rot_w):
            relation = "suffix"
        else:
            raise LemmaViolation(
                f"no prefix/suffix relation at slope {tower.p}/{tower.q}, "
                f"i={i}, k={k}")
    seq = block_sequence(tower, i)
    if case == 1:
        out_seq = seq
        word_rotation = k
    else:
        out_seq = seq[1:] + seq[:1]
        word_rotation = k if seq[0] == "w" else j
    rebuilt = "".join(map({"w": rot_w, "p": rot_wp}.__getitem__, out_seq))
    lr = len(tower.word)
    r = word_rotation % lr
    if rebuilt != (tower.word * 2)[r:r + lr]:
        raise LemmaViolation(
            f"rotated factorization mismatch at slope {tower.p}/{tower.q}, "
            f"i={i}, k={k}")
    return blocks.AdaptedRotation(
        i=i, k=k, j=j, case=case, relation=relation,
        block=rot_w, block_prime=rot_wp,
        word_rotation=word_rotation, blocks=out_seq,
    )


def _assert_rotations_match_reference(tower):
    """Each level's `adapted_rotations` and each `adapted_permutation`
    against the per-k reference; returns the number of violations."""
    violations = 0
    for i in range(1, tower.depth + 1):
        got = adapted_rotations(tower, i)
        assert len(got) == len(tower.w[i])
        for k, entry in enumerate(got):
            try:
                want = _reference_adapted_permutation(tower, i, k)
            except LemmaViolation as e:
                violations += 1
                assert type(entry) is LemmaViolation, (tower, i, k)
                assert str(entry) == str(e)
                with pytest.raises(LemmaViolation) as raised:
                    adapted_permutation(tower, i, k)
                assert str(raised.value) == str(e)
            else:
                assert entry == want, (tower, i, k)
                assert adapted_permutation(tower, i, k) == want
    return violations


def test_level_rotations_match_per_k_reference():
    # every slope whose class word has at most 40 letters, on every
    # substituted alphabet
    towers = [build_blocks(p, q) for q in range(41) for p in range(-40, 41)
              if abs(p) + q <= 40 and gcd(abs(p), q) == 1]
    assert len(towers) > 900
    for tower in towers:
        assert _assert_rotations_match_reference(tower) == 0


def test_level_rotations_match_per_k_reference_on_broken_towers():
    violations = 0
    for p, q, n in [(43, 30, 2), (13, 8, 3), (7, 5, 1), (21, 13, 5),
                    (11, 3, 1)]:
        violations += _assert_rotations_match_reference(
            _break_word(build_blocks(p, q), n))
    assert violations > 0


# --------------------------------------------------------------------------
# magic subwords
# --------------------------------------------------------------------------

def test_magic_subwords_exhaustive():
    for tower in enumerate_primitive_classes(8):
        word = tower.word
        for i in range(1, tower.depth + 1):
            rots = rotations(tower.w[i])
            for start in range(len(word)):
                u = (word + word)[start:start + len(tower.w[i])]
                wit = classify_magic_subword(tower, i, u)
                if wit.changed_to == "":
                    assert u == rots[wit.rotation]
                else:
                    assert wit.changed_to != u[-1]
                    assert u[:-1] + wit.changed_to == rots[wit.rotation]
                    # exact matches take precedence
                    assert u not in rots


def _reference_magic_suite(towers):
    """The per-start loop of `_magic_suite` before each distinct subword of
    a (tower, level) was classified once."""
    failures, checks = [], 0
    for t in towers:
        doubled = t.word + t.word
        for i in range(1, t.depth + 1):
            li = len(t.w[i])
            for s in range(len(t.word)):
                checks += 1
                try:
                    blocks.classify_magic_subword(t, i, doubled[s:s + li])
                except LemmaViolation as e:
                    failures.append({"p": t.p, "q": t.q, "i": i,
                                     "position": s, "error": str(e)})
    return checks, failures


def test_magic_suite_matches_per_start_loop():
    towers = blocks._towers(40, words=True)
    assert blocks._magic_suite(40) == _reference_magic_suite(towers)


def test_magic_suite_matches_per_start_loop_on_broken_towers(monkeypatch):
    broken = [_break_word(build_blocks(p, q), n)
              for p, q, n in [(43, 30, 2), (13, 8, 3), (7, 5, 1),
                              (21, 13, 5), (11, 3, 1)]]
    monkeypatch.setattr(blocks, "_towers", lambda cap, words: broken)
    got = blocks._magic_suite(None)
    assert got == _reference_magic_suite(broken)
    checks, failures = got
    assert checks == sum(len(t.word) * t.depth for t in broken)
    # some subword fails at more than one start
    assert len({(f["p"], f["i"], f["error"]) for f in failures}) \
        < len(failures)


def test_magic_suite_classifies_each_distinct_subword_once(monkeypatch):
    calls = []
    real = blocks._match_magic_subword

    def counted(t, i, u, rots):
        calls.append((t.p, t.q, i, u))
        if (t.p, t.q, i, u) == (13, 8, 2, "aba"):
            raise LemmaViolation("injected")
        return real(t, i, u, rots)

    monkeypatch.setattr(blocks, "_match_magic_subword", counted)
    checks, failures = blocks._magic_suite(21)
    assert len(calls) == len(set(calls)) < checks
    assert checks == _reference_magic_suite(
        blocks._towers(21, words=True))[0]
    doubled = build_blocks(13, 8).word * 2
    assert failures == [
        {"p": 13, "q": 8, "i": 2, "position": s, "error": "injected"}
        for s in range(21) if doubled[s:s + 3] == "aba"]
    assert len(failures) > 1


def _reference_rotation_index(w):
    """Map rotation -> first rotation index."""
    index = {}
    for r, rot in enumerate(rotations(w)):
        index.setdefault(rot, r)
    return index


def _reference_match(tower, i, u, rots):
    """The matcher of `_match_magic_subword` before it searched the
    doubled w_i: lookups in `rots`, the rotation index of w_i."""
    hit = rots.get(u)
    if hit is not None:
        return blocks.MagicWitness(hit, "")
    for c in sorted(set(tower.wp[0])):
        if c == u[-1]:
            continue
        hit = rots.get(u[:-1] + c)
        if hit is not None:
            return blocks.MagicWitness(hit, c)
    raise LemmaViolation(
        f"{u!r} is not a rotation of w_{i} at slope {tower.p}/{tower.q}, "
        f"even after a last-letter change")


def _outcome(match, *args):
    """The witness a matcher returns, or the message it raises."""
    try:
        return match(*args)
    except LemmaViolation as e:
        return str(e)


def _assert_match_is_reference(tower, i, subwords):
    """The outcomes of `_match_magic_subword` on `subwords`, each
    asserted equal to the reference's."""
    rots = _reference_rotation_index(tower.w[i])
    ww = tower.w[i] * 2
    got = [_outcome(blocks._match_magic_subword, tower, i, u, ww)
           for u in subwords]
    assert got == [_outcome(_reference_match, tower, i, u, rots)
                   for u in subwords], (tower, i)
    return got


def test_match_magic_subword_matches_rotation_index_reference():
    # every cyclic subword of the class word, and every rotation of w_i
    # with its first or its last letter set to each letter, so exact
    # matches, last-letter repairs and violations all occur
    kinds = collections.Counter()
    for t in blocks._towers(40, words=True):
        doubled = t.word * 2
        for i in range(1, t.depth + 1):
            li = len(t.w[i])
            subwords = {doubled[s:s + li] for s in range(len(t.word))}
            for v in rotations(t.w[i]):
                subwords.update(v[:-1] + c for c in "ab")
                subwords.update(c + v[1:] for c in "ab")
            kinds.update(
                "violation" if isinstance(got, str)
                else "repair" if got.changed_to else "exact"
                for got in _assert_match_is_reference(t, i, subwords))
    assert set(kinds) == {"exact", "repair", "violation"}


def test_magic_subword_validation():
    tower = build_blocks(7, 5)
    with pytest.raises(ValueError):
        classify_magic_subword(tower, 2, "abaa")  # wrong length
    with pytest.raises(ValueError):
        classify_magic_subword(tower, 2, "babba")  # not a cyclic subword


def _reference_bloc_windows(seq, li, lpi, lr):
    """The per-rotation window loop that `_bloc_suite` ran before windows
    were shared across rotations, with a failure kept as a tuple."""
    checks, failures = 0, []
    sizes = [li if s == "w" else lpi for s in seq]
    bounds = [0]
    for size in sizes + sizes:
        bounds.append(bounds[-1] + size)
    idx0 = 0
    for s in range(lr):
        while bounds[idx0] < s:
            idx0 += 1
        m = idx0
        while m + 1 < len(bounds) and bounds[m] <= s + lr:
            e_max = min(bounds[m + 1] - 1, s + lr)
            length = e_max - s
            if length > 4 * li:
                checks += 1
                count = m - idx0
                alpha = length / li
                if count < (alpha - 4) / 2 - 1e-12:
                    failures.append((s, length, count, alpha))
            m += 1
    return checks, failures


def test_bloc_windows_match_reference_on_towers():
    keys = set()
    for t in enumerate_primitive_classes(40):
        lr = len(t.word)
        if lr > 40:
            continue
        for i in range(1, t.depth + 1):
            if lr <= 4 * len(t.w[i]):
                continue
            for k in range(len(t.w[i])):
                seq = adapted_permutation(t, i, k).blocks
                keys.add((seq, len(t.w[i]), len(t.wp[i]), lr))
    assert len(keys) > 100
    for key in keys:
        assert blocks._bloc_windows(*key) == _reference_bloc_windows(*key)


def test_bloc_windows_match_reference_on_failing_inputs():
    rng = random.Random(0)
    failing = long_blocks = 0
    for _ in range(500):
        seq = tuple(rng.choice("wp") for _ in range(rng.randint(1, 12)))
        li = rng.randint(1, 5)
        # up to 9 l_i, so that blocks longer than 4 l_i + 2 occur and the
        # block size bounds the count of the windows that end with it
        lpi = rng.randint(1, 9 * li)
        lr = sum(li if s == "w" else lpi for s in seq)
        got = blocks._bloc_windows(seq, li, lpi, lr)
        assert got == _reference_bloc_windows(seq, li, lpi, lr)
        assert all(type(x) is int for f in got[1] for x in f[:3])
        failing += bool(got[1])
        long_blocks += "p" in seq and lpi > 4 * li + 2
        # a rotation of the sequence by whole blocks has the same windows,
        # which is why `_bloc_suite` evaluates one order per level
        windows = sorted(f[1:] for f in got[1])
        for m in range(1, len(seq)):
            checks, bad = blocks._bloc_windows(seq[m:] + seq[:m], li, lpi,
                                               lr)
            assert (checks, sorted(f[1:] for f in bad)) == (got[0], windows)
    assert failing > 50 and long_blocks > 50
    # l'_i = 2 l_i is the edge of the bound under which no window fails,
    # and one letter more makes a window fail; the last two have
    # 4 l_i + 1 >= l_r, where only the window of l_r letters can be
    # checked and the last reaches past both laps of the boundaries
    edges = {(("w", "p", "p", "p"), 2, 4): (34, False),
             (("w", "p", "p", "p"), 2, 5): (49, True),
             (("p",), 2, 9): (9, True),
             (("p", "w"), 3, 7): (0, False)}
    for (seq, li, lpi), (checks, fails) in edges.items():
        lr = sum(li if s == "w" else lpi for s in seq)
        got = blocks._bloc_windows(seq, li, lpi, lr)
        assert got == _reference_bloc_windows(seq, li, lpi, lr)
        assert (got[0], bool(got[1])) == (checks, fails)


def _reference_bloc_suite(cap):
    """The per-rotation `_bloc_suite` that built every adapted rotation
    and evaluated the windows once per distinct block order, before one
    order per level was counted l_i times."""
    failures, checks = [], 0
    windows = {}
    for t in blocks._towers(cap, words=True):
        lr = len(t.word)
        for i in range(1, t.depth + 1):
            li, lpi = len(t.w[i]), len(t.wp[i])
            if lr <= 4 * li:
                continue
            for k, ar in enumerate(adapted_rotations(t, i)):
                if isinstance(ar, LemmaViolation):
                    failures.append({"p": t.p, "q": t.q, "i": i, "k": k,
                                     "error": str(ar)})
                    continue
                key = (ar.blocks, li, lpi)
                if key not in windows:
                    windows[key] = blocks._bloc_windows(ar.blocks, li, lpi,
                                                        lr)
                n, bad = windows[key]
                checks += n
                failures.extend(
                    {"p": t.p, "q": t.q, "i": i, "k": k, "start": s,
                     "length": length, "count": count, "alpha": alpha}
                    for s, length, count, alpha in bad)
    return checks, failures


def test_bloc_suite_matches_per_rotation_reference():
    for cap in [*range(1, 41), 60, 80]:
        assert blocks._bloc_suite(cap) == _reference_bloc_suite(cap), cap


def test_bloc_suite_matches_per_rotation_reference_on_failing_windows(
        monkeypatch):
    # every level evaluated with l'_i = 2 l_i + 1, and the l_r of those
    # block sizes: a consistent cyclic input whose windows fail
    real = blocks._bloc_windows

    def widened(seq, li, lpi, lr):
        lpi = 2 * li + 1
        return real(seq, li, lpi, sum(li if s == "w" else lpi for s in seq))

    monkeypatch.setattr(blocks, "_bloc_windows", widened)
    for cap, records in [(20, 300), (30, 3182), (40, 16182)]:
        got = blocks._bloc_suite(cap)
        assert got == _reference_bloc_suite(cap), cap
        assert len(got[1]) == records


def test_bloc_suite_builds_no_adapted_rotation(monkeypatch):
    def refused(*args):
        raise AssertionError("the bloc suite built an adapted rotation")

    monkeypatch.setattr(blocks, "adapted_rotations", refused)
    monkeypatch.setattr(blocks, "_level_rotations", refused)
    report = run_suite("bloc", 60)
    assert (report.checks, report.failures) == (1832450, [])


def _inject_rotation_violation(p, q, i, k):
    """`adapted_rotations` with entry k of level i of the slope p/q
    replaced by an injected LemmaViolation."""
    real = blocks.adapted_rotations

    def broken(t, level):
        out = real(t, level)
        if (t.p, t.q, level) == (p, q, i):
            out[k] = LemmaViolation("injected")
        return out

    return broken


def test_perm_suite_records_adapted_rotation_violation(monkeypatch):
    healthy = run_suite("perm-cycl", 20)
    assert healthy.passed
    monkeypatch.setattr(blocks, "adapted_rotations",
                        _inject_rotation_violation(10, 9, 1, 1))
    report = run_suite("perm-cycl", 20)
    assert report.failures == [
        {"p": 10, "q": 9, "i": 1, "k": 1, "error": "injected"}]
    assert report.checks == healthy.checks


# --------------------------------------------------------------------------
# recurrence suite
# --------------------------------------------------------------------------

def _reference_check_recurrences(t, failures):
    """The per-tower recurrence checks that the suite ran on every
    (tower, level) pair before each level of the level table was checked
    once."""
    def fail(what):
        failures.append({"p": t.p, "q": t.q, "check": what})

    w, wp, cf = t.w, t.wp, t.cf
    l, lp = [len(x) for x in w], [len(x) for x in wp]
    checks = 2
    if not (l[0] == 1 and lp[0] == 2):
        fail("base lengths")
    if len(t.word) != abs(t.p) + t.q:
        fail("word length |p| + q")
    for i in range(1, t.depth + 1):
        n = cf[i - 1]
        checks += 7
        if w[i] != w[i - 1] * (n - 1) + wp[i - 1]:
            fail(f"w recurrence at level {i}")
        if wp[i] != w[i - 1] * n + wp[i - 1]:
            fail(f"w' recurrence at level {i}")
        if wp[i] != w[i - 1] + w[i]:
            fail(f"w' = w_(i-1) w_i at level {i}")
        if lp[i] != l[i] + l[i - 1]:
            fail(f"l' recurrence at level {i}")
        if not l[i] < lp[i] < 2 * l[i]:
            fail(f"l < l' < 2l at level {i}")
        if not i + 1 <= l[i]:
            fail(f"l_i >= i + 1 at level {i}")
        if i == 1:
            if l[1] != (n + 1) * l[0]:
                fail("l_1 = (n_1 + 1) l_0")
        elif not n * l[i - 1] < l[i] < (n + 1) * l[i - 1]:
            fail(f"n l < l < (n+1) l at level {i}")
    for i in range(2, t.depth + 1):
        m = cf[i - 2]
        checks += 1
        lhs, rhs = (m + 2) * l[i - 1], (m + 1) * l[i]
        if i >= 3 or cf[i - 1] >= 2:
            if not lhs < rhs:
                fail(f"(m+2) l_(i-1) < (m+1) l_i at level {i}")
        elif not lhs <= rhs:
            fail(f"(m+2) l_(i-1) <= (m+1) l_i at level {i}")
    return checks


def _reference_recurrence_suite(cap):
    failures = []
    checks = sum(_reference_check_recurrences(t, failures)
                 for t in enumerate_primitive_classes(cap))
    return checks, failures


def _level_keys(cap):
    """The (swap, entries) keys of the level table of the towers to `cap`,
    level 0 left out, with the number of towers that hold each."""
    return collections.Counter(
        (t.swap, t.cf[:i]) for t in enumerate_primitive_classes(cap)
        for i in range(1, t.depth + 1))


def _corrupt_level(key, corrupt, builds):
    """An `_extend` that builds corrupt(w_i, w'_i) in place of the top
    words of the level `key` = (swap, entries): every tower that holds the
    level, and every level built on it, reads the corrupted words.  Each
    time it builds `key`, it appends `key` to `builds`."""
    real = blocks._extend
    swap, entries = key
    parent = _reference_words(entries[:-1], swap)

    def corrupted(level, n):
        found = real(level, n)
        if n == entries[-1] and level[:2] == parent:
            w, wp, counts, counts_p = found
            top_w, top_wp = corrupt(w[-1], wp[-1])
            found = (w[:-1] + (top_w,), wp[:-1] + (top_wp,), counts,
                     counts_p)
            builds.append(key)
        return found

    return corrupted


# each keeps the letter counts, so that every tower still abelianizes to
# its slope: w_i rotated by one letter, and w_i or w'_i two letters
# longer with a cancelling pair
_CORRUPTIONS = {
    "w": lambda w, wp: (w[-1] + w[:-1], wp),
    "l": lambda w, wp: (w + "aA", wp),
    "l'": lambda w, wp: (w, wp + "aA"),
}


@pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
def test_recurrence_suite_matches_per_tower_reference(monkeypatch, kind):
    shared = 0
    builds = []
    for cap in range(1, 41):
        held = _level_keys(cap)
        keys = sorted(held)
        several = [k for k in keys if held[k] > 1]
        if cap % 2 == 0 and several:
            keys = several    # even caps: a level of several towers
        key = random.Random(cap).choice(keys)
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "_extend",
                          _corrupt_level(key, _CORRUPTIONS[kind], builds))
            before = len(builds)
            report = run_suite("recurrences", cap)
            assert builds[before:] == [key], (cap, key)
            checks, failures = _reference_recurrence_suite(cap)
            assert builds[before:] == [key, key], (cap, key)
        assert failures, (cap, key)
        assert report.checks == checks, (cap, key)
        assert report.failures == failures, (cap, key)
        shared += len({(f["p"], f["q"]) for f in failures}) > 1
    # the failures of a shared level are recorded for several towers
    assert shared >= 20
    # the corrupted level was built once in each run: by the suite's walk,
    # then by the reference's enumeration
    assert len(builds) == 80


def _replace(tower, **fields):
    """The tower with the named fields replaced."""
    return BlockTower(**{name: fields.get(name, getattr(tower, name))
                         for name in BlockTower.__slots__})


def _break_word(tower, n):
    """The tower with the last letter of w_n changed."""
    w = list(tower.w)
    w[n] = w[n][:-1] + ("a" if w[n][-1] == "b" else "b")
    return _replace(tower, w=tuple(w))


def _replace_words(tower, w=(), wp=(), **fields):
    """The tower with w_i = w[i] and w'_i = wp[i] for the levels i that
    the dicts `w` and `wp` name, and any other field replaced."""
    w, wp = dict(w), dict(wp)
    return _replace(
        tower, w=tuple(w.get(i, x) for i, x in enumerate(tower.w)),
        wp=tuple(wp.get(i, x) for i, x in enumerate(tower.wp)), **fields)


# Each case corrupts the words (or p) of a built tower, so its lengths
# are those of the corrupted words.  Together they emit every kind of
# message of `_check_level` and of the tower's own checks in
# `_recurrence_suite`.
_RECURRENCE_FAILURES = {
    # 43/30, entries (1, 2, 3, 4): w_2 broken, w_3 three letters longer
    # (l_3 = 17 -> 20) and w'_4 56 letters longer (l'_4 = 90 -> 2 l_4)
    "43/30": (
        _replace_words(_break_word(build_blocks(43, 30), 2),
                       w={3: build_blocks(43, 30).w[3] + "aab"},
                       wp={4: build_blocks(43, 30).wp[4] + "ab" * 28}),
        33,
        ["w recurrence at level 2",
         "w' = w_(i-1) w_i at level 2",
         "w recurrence at level 3",
         "w' recurrence at level 3",
         "w' = w_(i-1) w_i at level 3",
         "l' recurrence at level 3",
         "n l < l < (n+1) l at level 3",
         "w recurrence at level 4",
         "w' recurrence at level 4",
         "w' = w_(i-1) w_i at level 4",
         "l' recurrence at level 4",
         "l < l' < 2l at level 4",
         "n l < l < (n+1) l at level 4"]),
    # 7/5, entries (1, 2, 2): p = 8, w_0 = aa, and w_2 cut to ab
    "7/5": (
        _replace_words(build_blocks(7, 5), w={0: "aa", 2: "ab"}, p=8),
        25,
        ["base lengths",
         "word length |p| + q",
         "w' recurrence at level 1",
         "w' = w_(i-1) w_i at level 1",
         "l' recurrence at level 1",
         "l_1 = (n_1 + 1) l_0",
         "w recurrence at level 2",
         "w' = w_(i-1) w_i at level 2",
         "l' recurrence at level 2",
         "l < l' < 2l at level 2",
         "l_i >= i + 1 at level 2",
         "n l < l < (n+1) l at level 2",
         "w recurrence at level 3",
         "w' recurrence at level 3",
         "w' = w_(i-1) w_i at level 3",
         "l' recurrence at level 3",
         "n l < l < (n+1) l at level 3",
         "(m+2) l_(i-1) < (m+1) l_i at level 2"]),
    # 5/3, entries (1, 1, 2): w_2 cut to a, so l_2 = 1 and the level-2
    # inequality, non-strict since n_2 = 1, fails
    "5/3": (
        _replace_words(build_blocks(5, 3), w={2: "a"}),
        25,
        ["w recurrence at level 2",
         "w' = w_(i-1) w_i at level 2",
         "l' recurrence at level 2",
         "l < l' < 2l at level 2",
         "l_i >= i + 1 at level 2",
         "n l < l < (n+1) l at level 2",
         "w recurrence at level 3",
         "w' recurrence at level 3",
         "w' = w_(i-1) w_i at level 3",
         "l' recurrence at level 3",
         "n l < l < (n+1) l at level 3",
         "(m+2) l_(i-1) <= (m+1) l_i at level 2"]),
}


@pytest.mark.parametrize("case", ["43/30", "7/5", "5/3"])
def test_recurrence_failure_messages(monkeypatch, case):
    tower, checks, messages = _RECURRENCE_FAILURES[case]

    def one_tower(cap, words=False):
        # the corrupted tower alone, each of its levels as the walk yields
        # them: the tower last, after every level under it
        for i in range(tower.depth + 1):
            level = _replace(tower, cf=tower.cf[:i],
                             w=tower.w[:i + 1], wp=tower.wp[:i + 1])
            yield level, i == tower.depth

    monkeypatch.setattr(blocks, "_tower_walk", one_tower)
    report = run_suite("recurrences", 1)
    failures = report.failures
    assert report.checks == checks
    assert failures == [{"p": tower.p, "q": tower.q, "check": m}
                        for m in messages]
    reference = []
    assert _reference_check_recurrences(tower, reference) == checks
    assert failures == reference


def test_recurrence_failure_cases_emit_every_kind_of_message():
    kinds = {re.sub(r" at level \d+$", "", m)
             for _, _, messages in _RECURRENCE_FAILURES.values()
             for m in messages}
    assert kinds == {
        "base lengths", "word length |p| + q", "w recurrence",
        "w' recurrence", "w' = w_(i-1) w_i", "l' recurrence",
        "l < l' < 2l", "l_i >= i + 1", "l_1 = (n_1 + 1) l_0",
        "n l < l < (n+1) l", "(m+2) l_(i-1) < (m+1) l_i",
        "(m+2) l_(i-1) <= (m+1) l_i"}


def test_recurrence_suite_checks_each_level_once(monkeypatch):
    # each level is checked once, as the walk builds it, and the walk
    # builds the levels the towers hold and no other: the small caps pin
    # its rule at the base levels and at entries that end in 1
    real = blocks._check_level
    calls = []

    def counted(t, i):
        calls.append((t.swap, t.cf[:i]))
        return real(t, i)

    monkeypatch.setattr(blocks, "_check_level", counted)
    for cap in [*range(1, 41), 200]:
        calls.clear()
        report = run_suite("recurrences", cap)
        assert report.passed, cap
        assert len(calls) == len(set(calls)), cap
        assert set(calls) == set(_level_keys(cap)), cap
    assert report.checks == 907_899
    assert len(calls) == 27_726


def test_recurrence_suite_memory_peak():
    # the walk holds the levels on its path and no other, and the towers
    # are dropped once checked: under 0.02 MB on Python 3.11, where a table
    # of the levels a later tower could extend peaked at 7.8 MB and every
    # tower kept in one list at 36.8 MB
    tracemalloc.start()
    try:
        run_suite("recurrences", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_tower_abelianization_mismatch_raises(monkeypatch):
    monkeypatch.setitem(blocks._BASE_WORDS, "ab", ("a", "ab"))
    with pytest.raises(LemmaViolation, match="abelianizes"):
        enumerate_primitive_classes(2)
