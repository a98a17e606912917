import pytest
from hypothesis import given, strategies as st

from primscan import words
from primscan.words import (
    reduce, invert, cyclic_reduce, is_reduced,
    is_cyclically_reduced, rotate, rotations,
    abelianization, substitute, check_word,
)

from references import enumerate_reduced

raw_words = st.text(alphabet="aAbB", max_size=40)


def naive_reduce(w):
    """Oracle: repeatedly rescan for a cancelling pair (quadratic)."""
    w = list(w)
    again = True
    while again:
        again = False
        for i in range(len(w) - 1):
            if w[i] == w[i + 1].swapcase():
                del w[i:i + 2]
                again = True
                break
    return "".join(w)


def test_check_word_rejects():
    with pytest.raises(ValueError):
        check_word("abc")
    with pytest.raises(ValueError):
        check_word("aA")
    assert check_word("abAB") == "abAB"


@given(raw_words)
def test_reduce_matches_naive_oracle(w):
    assert reduce(w) == naive_reduce(w)


@given(raw_words)
def test_reduce_is_reduced_and_idempotent(w):
    r = reduce(w)
    assert is_reduced(r)
    assert reduce(r) == r


@given(raw_words)
def test_invert_cancels(w):
    r = reduce(w)
    assert reduce(r + invert(r)) == ""
    assert reduce(invert(r) + r) == ""
    assert invert(invert(r)) == r


@given(raw_words, raw_words)
def test_abelianization_additive(u, v):
    pu, qu = abelianization(reduce(u))
    pv, qv = abelianization(reduce(v))
    pw, qw = abelianization(reduce(u + v))
    assert (pw, qw) == (pu + pv, qu + qv)


@given(raw_words)
def test_cyclic_reduce_conjugacy(w):
    r = reduce(w)
    core, conj = cyclic_reduce(r)
    assert is_cyclically_reduced(core)
    assert reduce(conj + core + invert(conj)) == r


def test_rotate_basics():
    assert rotate("abaab", 0) == "abaab"
    assert rotate("abaab", 1) == "baaba"
    assert rotate("abaab", 5) == "abaab"
    assert rotate("", 3) == ""
    assert rotations("ab") == ["ab", "ba"]


@given(st.text(alphabet="ab", min_size=1, max_size=25),
       st.integers(0, 60), st.integers(0, 60))
def test_rotate_composes(w, j, k):
    assert rotate(rotate(w, j), k) == rotate(w, j + k)


def test_substitute_exchange():
    assert substitute("abaab", {"a": "b", "b": "a"}) == "babba"
    assert substitute("ab", {"a": "a", "b": "B"}) == "aB"
    # images are freely reduced: a -> ab, B -> B cancels to "a"
    assert substitute("aB", {"a": "ab", "b": "b"}) == "a"


@given(raw_words, raw_words)
def test_substitute_is_homomorphism(u, v):
    sub = {"a": "ab", "b": "b"}
    u, v = reduce(u), reduce(v)
    assert substitute(reduce(u + v), sub) == \
        reduce(substitute(u, sub) + substitute(v, sub))


def test_enumerate_reduced_counts():
    ws = list(enumerate_reduced(6))
    # 1 empty word plus 4 * 3^(n-1) of each length n
    by_len = {}
    for w in ws:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert is_reduced(w)
    assert by_len[0] == 1
    for n in range(1, 7):
        assert by_len[n] == 4 * 3 ** (n - 1)
    assert len(set(ws)) == len(ws)


def test_enumerate_reduced_order_and_min_len():
    assert list(enumerate_reduced(1)) == ["", "a", "A", "b", "B"]
    assert list(enumerate_reduced(2, min_len=2))[:4] == \
        ["aa", "ab", "aB", "AA"]


def test_alphabet_constant():
    assert words.ALPHABET == "aAbB"
