"""Meeting matrices of lines in P^3 by the Plucker pairing: the test-side
incidence labels of a line scan, checked against Gaussian elimination in
test_surface_kernels.py."""

import numpy as np

#: Plucker coordinates p_kl = r1_k r2_l - r1_l r2_k, k < l
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: the Hodge-Pedoe pairing sum_S sign(S) p_S p'_(complement of S): the
#: Laplace expansion of the 4x4 determinant along the first line's rows
_PLUCKER_SIGNS = (1, -1, 1, 1, -1, 1)


def line_intersection_labels(lines) -> np.ndarray:
    """Pairwise meeting matrix (1 meets / 0 skew), diagonal -1.

    Two lines meet exactly when the Plucker pairing of their coordinates, the
    determinant of the stacked 4x4 matrix, vanishes."""
    n = len(lines)
    if n == 0:
        return np.full((0, 0), -1, dtype=np.int64)
    tab = lines[0].field.tables
    r1 = np.array([line.row1 for line in lines], dtype=np.int64)
    r2 = np.array([line.row2 for line in lines], dtype=np.int64)
    logs = [
        tab.LOG[tab.add(tab.mul(r1[:, k], r2[:, l]), tab.NEG[tab.mul(r1[:, l], r2[:, k])])]
        for k, l in _PLUCKER_PAIRS
    ]
    pairing = np.zeros((n, n), dtype=np.int64)
    for s, sign in enumerate(_PLUCKER_SIGNS):
        term = tab.EXP[logs[s][:, None] + logs[5 - s][None, :]]
        pairing = tab.add(pairing, term if sign > 0 else tab.NEG[term])
    labels = (pairing == 0).astype(np.int64)
    np.fill_diagonal(labels, -1)
    return labels
