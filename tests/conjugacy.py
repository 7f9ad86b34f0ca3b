"""The conjugacy classes of a permutation group element by element: the
test-side reference for `PermutationGroup.conjugacy_classes`, used in
test_permgroup.py and test_certify.py."""

import numpy as np

from delpezzo.permgroup import inverse


def class_labels(G):
    """(elements, labels): every element of G as a uint8 row, sorted
    lexicographically, and for each row the row index of the least member of
    its class.  Each row is conjugated by every generator of G and the
    conjugate looked up by its bytes; min-label propagation with pointer
    jumping then labels the classes."""
    el = np.unique(G.element_array(), axis=0)
    index = {row.tobytes(): i for i, row in enumerate(el)}
    neighbours = []
    for g in G.generators:
        conj = np.array(g, dtype=np.uint8)[el[:, list(inverse(g))]]  # g^-1 y g
        neighbours.append(np.array([index[row.tobytes()] for row in conj], dtype=np.intp))
    label = np.arange(len(el))
    while True:
        new = label
        for nb in neighbours:
            new = np.minimum(new, new[nb])
        new = new[new]
        if np.array_equal(new, label):
            return el, label
        label = new
