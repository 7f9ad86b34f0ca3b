"""Seeded benchmark inputs, generated without importing the library.

Each workload draws a fixed pool of problems and then, from the benchmark
seed, a random linear change of coordinates x -> A x (A invertible over the
prime field) for every problem.  The transformed surface is isomorphic to the
original over its field, so every invariant the program reports (smoothness,
line counts, traces, Frobenius classes, certificates, density tallies) is the
same for every seed, while the coefficients the program sees are different.
That keeps the work of a run comparable from seed to seed, and lets the seed
catch code that is fast or correct only in particular coordinates.

Coefficients follow the surface-file convention: 20 entries in graded-lex
monomial order with x > y > z > w.  An element of GF(p^k) is its counter
encoding (base-p digits are prime-field coordinates), and a polynomial in u
over GF(p) is its list of coefficients, constant first.  Since A has
prime-field entries, F(A x) is a prime-field linear combination of the
coefficients of F, computed digit by digit without knowing the field modulus.
"""

from __future__ import annotations

import itertools
import random

MONOMIALS = tuple(
    sorted((e for e in itertools.product(range(4), repeat=4) if sum(e) == 3), reverse=True)
)
_INDEX = {e: i for i, e in enumerate(MONOMIALS)}

#: surface workload pool: (p, k, how many); most odd characteristic
SURFACE_POOL = ((3, 1, 2), (5, 1, 1), (7, 1, 2), (3, 2, 1), (2, 1, 1), (2, 2, 1))
SURFACE_POOL_STREAM = "perfbench-surface-pool"
#: two surfaces of the acceptance suite's frozen Lefschetz pool that this
#: workload's budgets certify smooth with a pinned class, so the Lefschetz
#: check and the 27-line labelling always have work in both characteristics
FROZEN_SURFACES = (
    (2, 1, [1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]),
    (7, 1, [4, 4, 1, 1, 6, 0, 3, 5, 0, 3, 6, 0, 1, 5, 3, 2, 4, 6, 2, 6]),
)
SURFACE_POINT_BUDGET = 2_100_000
#: line scans stop at extensions of order about 100 too (q^(4m) <= 10^9)
SURFACE_LINE_BUDGET = 10**9

#: density workload: the acceptance configuration with 2 samples per bound
DENSITY_SEED = "acceptance-2024"
DENSITY_DEGREES = (1, 2, 3)
DENSITY_SAMPLES = 2

#: combinatorics workload: degree-1 isomorphism probes after verify and tables
PROBES = 1
PROBE_VERTICES = 240


def rng_for(*parts) -> random.Random:
    """A `random.Random` keyed by a string, identical across processes."""
    return random.Random("/".join(str(p) for p in parts))


def _det_mod(a: list[list[int]], p: int) -> int:
    m = [row[:] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            for j in range(c, n):
                m[r][j] = (m[r][j] - f * m[c][j]) % p
    return det % p


def random_invertible(p: int, rng: random.Random) -> list[list[int]]:
    while True:
        a = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        if _det_mod(a, p):
            return a


def substitution_matrix(a: list[list[int]], p: int) -> list[list[int]]:
    """M with F(A x) = sum_e c_e M[e] (rows indexed like MONOMIALS): M[e] is
    the expansion of prod_i (A x)_i^{e_i} mod p."""
    rows = []
    for e in MONOMIALS:
        poly = {(0, 0, 0, 0): 1}
        for i, mult in enumerate(e):
            for _ in range(mult):
                nxt: dict[tuple[int, ...], int] = {}
                for mono, c in poly.items():
                    for v in range(4):
                        if a[i][v] % p:
                            key = tuple(x + (j == v) for j, x in enumerate(mono))
                            nxt[key] = (nxt.get(key, 0) + c * a[i][v]) % p
                poly = nxt
        row = [0] * len(MONOMIALS)
        for mono, c in poly.items():
            row[_INDEX[mono]] = c % p
        rows.append(row)
    return rows


def transform_vectors(coeffs: list[list[int]], m: list[list[int]], p: int) -> list[list[int]]:
    """Apply M to coefficients given as prime-field digit vectors."""
    width = max(len(c) for c in coeffs)
    out = []
    for f in range(len(MONOMIALS)):
        acc = [0] * width
        for e, c in enumerate(coeffs):
            s = m[e][f]
            if s:
                for t, digit in enumerate(c):
                    acc[t] = (acc[t] + s * digit) % p
        out.append(acc)
    return out


def _digits(n: int, p: int, k: int) -> list[int]:
    return [(n // p**t) % p for t in range(k)]


def _undigits(d: list[int], p: int) -> int:
    return sum(x * p**t for t, x in enumerate(d))


def transform_encodings(encodings: list[int], a: list[list[int]], p: int, k: int) -> list[int]:
    """Coefficients of F(A x) for F over GF(p^k) in counter encoding."""
    vecs = transform_vectors([_digits(n, p, k) for n in encodings], substitution_matrix(a, p), p)
    return [_undigits(v, p) for v in vecs]


def surface_lines(seed) -> list[str]:
    """One surface-file line per pool surface, in a seeded coordinate system:
    the random pool first, then FROZEN_SURFACES."""
    pool = rng_for(SURFACE_POOL_STREAM)
    forms = []
    for p, k, count in SURFACE_POOL:
        for _ in range(count):
            while True:
                enc = [pool.randrange(p**k) for _ in range(20)]
                if any(enc):
                    break
            forms.append((p, k, enc))
    forms += list(FROZEN_SURFACES)
    coords = rng_for("surface", seed)
    out = []
    for p, k, enc in forms:
        moved = transform_encodings(enc, random_invertible(p, coords), p, k)
        out.append(f"{p} {k} : " + ",".join(map(str, moved)))
    return out


def density_matrix(seed, stream: str) -> list[list[int]]:
    """The change of coordinates applied to the density sample of `stream`."""
    return random_invertible(2, rng_for("density", seed, stream))


def probe_permutations(seed) -> list[list[int]]:
    rng = rng_for("combinatorics", seed)
    out = []
    for _ in range(PROBES):
        perm = list(range(PROBE_VERTICES))
        rng.shuffle(perm)
        out.append(perm)
    return out
