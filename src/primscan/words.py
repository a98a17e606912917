"""Words in the rank-2 free group F = <a, b>, serialized as plain strings.

Letters are 'a', 'b' and their formal inverses 'A', 'B' (swapcase).  A word
is *reduced* when no letter is adjacent to its own inverse, and *cyclically
reduced* when additionally the first and last letters are not inverse.  The
empty string is the identity.

Everything here is a function on strings; there is no word class.  Public
entry points validate their input with `check_word`; tight inner loops
elsewhere in the package call the underlying helpers directly.
"""

from __future__ import annotations

ALPHABET = "aAbB"
_ALPHABET_SET = frozenset(ALPHABET)


def check_word(w):
    """Validate alphabet membership and free reduction; return w.

    Raises ValueError with the offending position on failure.
    """
    for i, c in enumerate(w):
        if c not in _ALPHABET_SET:
            raise ValueError(f"invalid letter {c!r} at position {i} in {w!r}")
    for i in range(len(w) - 1):
        if w[i] == w[i + 1].swapcase():
            raise ValueError(
                f"word {w!r} is not freely reduced at position {i}")
    return w


def is_reduced(w):
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def reduce(w):
    """Freely reduce w by stack cancellation."""
    out = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def invert(w):
    """Group inverse: reverse the word and invert every letter."""
    return w[::-1].swapcase()


def is_cyclically_reduced(w):
    return is_reduced(w) and (len(w) < 2 or w[0] != w[-1].swapcase())


def cyclic_reduce(w):
    """Return (core, conj) with w = conj * core * conj^-1 and core cyclically reduced.

    Expects a freely reduced input.
    """
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1].swapcase():
        i += 1
        j -= 1
    return w[i:j], w[:i]


def rotate(w, k):
    """Cyclic permutation moving the first k letters to the end."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def rotations(w):
    """All cyclic permutations of w, in rotation-index order."""
    return [rotate(w, k) for k in range(len(w))]


def abelianization(w):
    """Image (p, q) of w in Z^2: p = net 'a' exponent, q = net 'b' exponent."""
    return (w.count("a") - w.count("A"), w.count("b") - w.count("B"))


def substitute(w, sub):
    """Apply a letter substitution, extending it to inverses.

    `sub` maps 'a' and 'b' to replacement words; the images of 'A' and 'B'
    are derived.  The result is freely reduced.
    """
    table = {
        "a": sub["a"],
        "b": sub["b"],
        "A": invert(sub["a"]),
        "B": invert(sub["b"]),
    }
    return reduce("".join(table[c] for c in w))


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
