"""The Macaulay rank and kernel witness by a log-domain reduced row echelon
form: the test-side reference for `surface.smoothness_certificate`, used in
test_smoothness.py."""

import numpy as np

from delpezzo.surface import NOT_SMOOTH, SMOOTH_CERTIFIED, SmoothnessVerdict, _macaulay_matrix


def row_reduce(tab, matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of an encoded matrix,
    and its pivot columns."""
    m = matrix.copy()
    pivots: list[int] = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        nonzero = np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        # rows from `rank` on are zero left of `col`: scale the pivot to 1
        inverse = tab.fs.order - 1 - tab.LOG[m[rank, col]]
        m[rank, col:] = tab.EXP[tab.LOG[m[rank, col:]] + inverse]
        factors = m[:, col].copy()
        factors[rank] = 0
        hit = np.flatnonzero(factors)
        m[hit, col:] = tab.add(m[hit, col:], tab.NEG[tab.mul(factors[hit, None], m[rank, col:])])
        pivots.append(col)
    return m[: len(pivots)], pivots


def reference_verdict(form) -> SmoothnessVerdict:
    """The verdict from the RREF: full column rank, or the kernel vector
    with 1 at the first free column and the RREF solution at the pivots."""
    tab = form.field.tables
    matrix = _macaulay_matrix(form)
    reduced, pivots = row_reduce(tab, matrix)
    columns = matrix.shape[1]
    if len(pivots) == columns:
        return SmoothnessVerdict(SMOOTH_CERTIFIED, columns, columns)
    free = min(set(range(columns)) - set(pivots))
    witness = np.zeros(columns, dtype=np.int64)
    witness[free] = 1
    witness[pivots] = tab.NEG[reduced[:, free]]
    return SmoothnessVerdict(NOT_SMOOTH, len(pivots), columns, tuple(int(x) for x in witness))
