"""The full Smith normal form and the norm-kernel H^1 of a cyclic group: the
test-side reference for `certify.invariant_factors` and `certify.h1_invariants`,
used in test_certify.py."""

import math

import numpy as np

from delpezzo.certify import lattice_matrix
from delpezzo.permgroup import cycle_type


def smith_normal_form(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, D, V with U @ mat @ V = D diagonal, U and V unimodular, and the
    diagonal entries nonnegative with each dividing the next."""
    d = mat.astype(object).copy()
    m, n = d.shape
    u = np.eye(m, dtype=object)
    v = np.eye(n, dtype=object)

    def swap_rows(i, j):
        d[[i, j], :] = d[[j, i], :]
        u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def add_row(src, dst, c):
        d[dst, :] += c * d[src, :]
        u[dst, :] += c * u[src, :]

    def add_col(src, dst, c):
        d[:, dst] += c * d[:, src]
        v[:, dst] += c * v[:, src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the remaining block
        block = [(abs(d[i, j]), i, j) for i in range(t, m) for j in range(t, n) if d[i, j] != 0]
        if not block:
            break
        _, pi, pj = min(block)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, m):
            if d[i, t] != 0:
                q = d[i, t] // d[t, t]
                add_row(t, i, -q)
                dirty = dirty or d[i, t] != 0
        for j in range(t + 1, n):
            if d[t, j] != 0:
                q = d[t, j] // d[t, t]
                add_col(t, j, -q)
                dirty = dirty or d[t, j] != 0
        if dirty:
            continue
        # divisibility: fold any non-multiple into the pivot row and retry
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i, j] % d[t, t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t, t] < 0:
            d[t, :] *= -1
            u[t, :] *= -1
        t += 1
    return u, d, v


def kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Integer basis (columns) of the kernel lattice of an integer matrix."""
    _, d, v = smith_normal_form(mat)
    m, n = d.shape
    cols = [j for j in range(n) if j >= m or d[j, j] == 0]
    return v[:, cols]


def solve_integer(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer solution Y of B @ Y = C for full-column-rank B (entries small);
    solved over the rationals, rounded, and verified exactly."""
    if b.shape[1] == 0:
        if np.any(c):
            raise ValueError("inconsistent system")
        return np.zeros((0, c.shape[1]), dtype=object)
    y, *_ = np.linalg.lstsq(b.astype(np.float64), c.astype(np.float64), rcond=None)
    y = np.rint(y).astype(np.int64).astype(object)
    if not np.array_equal(b.astype(object) @ y, c.astype(object)):
        raise ValueError("no integer solution")
    return y


def h1_cyclic(sigma) -> tuple[int, ...]:
    """Elementary divisors (> 1) of ker(norm)/im(sigma - 1) for the cyclic
    group generated by a permutation of the 27 classes, acting on the rank-7
    lattice; () means trivial cohomology."""
    m = lattice_matrix(sigma).astype(object)
    order = math.lcm(*cycle_type(sigma))
    norm = np.zeros((7, 7), dtype=object)
    power = np.eye(7, dtype=object)
    for _ in range(order):
        norm += power
        power = power @ m
    kb = kernel_basis(norm)
    if kb.shape[1] == 0:
        return ()
    y = solve_integer(kb, m - np.eye(7, dtype=object))
    _, d, _ = smith_normal_form(y)
    k = kb.shape[1]
    divisors = [int(d[i, i]) for i in range(min(d.shape))]
    assert all(x != 0 for x in divisors[:k]), "cohomology of a finite action is finite"
    return tuple(sorted(x for x in divisors if x > 1))
