"""Seeded inputs: the representation file the scan workloads read.

The scans run on the Markoff representation (the one in
tests/data/markoff.json) conjugated by a seeded SL(2, R) element of
moderate size.  Conjugation moves the orbit geometry relative to the
basepoint but keeps every trace, so the Fricke recursion on the trace
triple (3, 3, 3) stays an exact oracle for every seed.  Seed 0 gives the
fixture itself.
"""

import json
import math
import random

MARKOFF_A = ((1, 1), (1, 2))
MARKOFF_B = ((1, -1), (-1, 2))
MARKOFF_TRACES = (3, 3, 3)  # (tr A, tr B, tr AB), exact integers


def _mul(X, Y):
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def conjugator(seed):
    """g = diag(e^s, e^-s) R(theta) [[1, u], [0, 1]] with |s| <= 0.5 and
    |u| <= 1, exactly unimodular up to rounding; the identity for seed 0."""
    if seed == 0:
        return ((1, 0), (0, 1))
    rng = random.Random(seed)
    s = rng.uniform(-0.5, 0.5)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    u = rng.uniform(-1.0, 1.0)
    c, si = math.cos(theta), math.sin(theta)
    g = _mul(((math.exp(s), 0.0), (0.0, math.exp(-s))), ((c, -si), (si, c)))
    return _mul(g, ((1.0, u), (0.0, 1.0)))


def _inverse(g):
    (a, b), (c, d) = g
    return ((d, -b), (-c, a))  # det g = 1


def seeded_rep(seed):
    """The JSON document of the seeded representation (H2, basepoint i)."""
    g = conjugator(seed)
    g_inv = _inverse(g)

    def entries(M):
        C = _mul(_mul(g, M), g_inv)
        return [[C[i][j], 0] for i in range(2) for j in range(2)]

    return {
        "model": "H2",
        "A": entries(MARKOFF_A),
        "B": entries(MARKOFF_B),
        "basepoint": {"z": [0.0, 0.0], "t": 1.0},
        "delta": 1.0,
    }


def write_rep(path, seed):
    with open(path, "w") as fh:
        json.dump(seeded_rep(seed), fh)
