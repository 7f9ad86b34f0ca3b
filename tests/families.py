"""The frozenset forms of the 27-line families: the test-side reference for
the line arrays of `incidence`, used in test_incidence.py and test_certify.py.
A member is a set of line sets, moved by a line permutation with `image`."""

from delpezzo.lattice import DegreeContext
from delpezzo.permgroup import _orbit


def blocks(member) -> frozenset[frozenset[int]]:
    """A member of a line array (blocks, size) as its set of line sets."""
    return frozenset(frozenset(int(x) for x in block) for block in member)


def image(g, member: frozenset[frozenset[int]]) -> frozenset[frozenset[int]]:
    """A member, given as a set of line sets, moved by the line permutation g."""
    return frozenset(frozenset(g[x] for x in b) for b in member)


def class_sum_triangles(graph) -> list[tuple[int, int, int]]:
    """The 3-sets of lines with class sum -K, sorted: for every meeting pair
    i < j, the third class -K - E_i - E_j when it is a line k > j."""
    minus_k = tuple(-x for x in DegreeContext(3).canonical_class)
    index = {c: i for i, c in enumerate(graph.vertices)}
    out = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.labels[i, j] != 1:
                continue
            third = tuple(k - a - b for k, a, b in zip(minus_k, graph.vertices[i], graph.vertices[j]))
            k = index.get(third)
            if k is not None and k > j:
                out.append((i, j, k))
    return sorted(out)


def orbit_partition(group, family) -> list[int]:
    """The orbit id of each member under the group generators, in member
    order and numbered by first appearance, from a walk over frozensets."""
    members = [blocks(m) for m in family]
    moves = [lambda s, g=g: image(g, s) for g in group.generators]
    ids: dict = {}
    for s in members:
        if s not in ids:
            orbit = _orbit(s, moves)
            assert orbit <= set(members), "group does not preserve the family"
            ids.update(dict.fromkeys(orbit, len(set(ids.values()))))
    return [ids[s] for s in members]
