from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from families import blocks, class_sum_triangles, orbit_partition

from delpezzo.lattice import DegreeContext, exceptional_classes, pairing
from delpezzo.permgroup import PermutationGroup
from delpezzo.incidence import (
    _individualize,
    _Refiner,
    _triangles,
    automorphism_group,
    double_sixes,
    find_isomorphism,
    incidence_graph,
    orbit_of_structures,
    triple_nines,
    trihedral_nines,
    tritangent_triangles,
    weyl_image,
)

AUT_ORDERS = {1: 696729600, 2: 2903040, 3: 51840, 4: 1920, 5: 120, 6: 12, 7: 2}


def graph(d):
    return incidence_graph(DegreeContext(d))


@pytest.mark.parametrize("d", range(1, 8))
def test_labels_are_the_intersection_pairing(d):
    ctx = DegreeContext(d)
    cls = exceptional_classes(ctx)
    g = incidence_graph(ctx)
    assert g.labels.dtype == np.int64
    assert not g.labels.flags.writeable
    assert g.labels.tolist() == [[pairing(ctx, v, w) for w in cls] for v in cls]


def test_degree7_graph_is_a_path():
    g = graph(7)
    assert g.n == 3
    # H-E1-E2 (vertex 2) is the middle vertex
    assert g.label(0, 2) == 1 and g.label(1, 2) == 1 and g.label(0, 1) == 0
    assert all(g.label(i, i) == -1 for i in range(3))


def test_degree5_graph_is_petersen_shaped():
    g = graph(5)
    degrees = {int((g.labels[i] == 1).sum()) for i in range(g.n)}
    assert g.n == 10
    assert degrees == {3}
    assert int((g.labels == 1).sum()) // 2 == 15


def test_degree3_each_line_meets_ten():
    g = graph(3)
    assert {int((g.labels[i] == 1).sum()) for i in range(27)} == {10}


@pytest.mark.parametrize("d", range(1, 8))
def test_automorphism_orders_match_weyl(d):
    aut = automorphism_group(graph(d))
    assert aut.order == AUT_ORDERS[d]
    # orbit pruning: no coset search for a vertex already reached
    assert len(aut.generators) <= 8


@pytest.mark.parametrize("d", range(1, 8))
def test_weyl_image_orders(d):
    assert weyl_image(DegreeContext(d)).order == AUT_ORDERS[d]


@pytest.mark.parametrize("d", range(1, 7))
def test_weyl_image_transitive_below_degree_seven(d):
    assert weyl_image(DegreeContext(d)).is_transitive()


def test_degree7_orbits_split():
    w = weyl_image(DegreeContext(7))
    assert not w.is_transitive()
    orbits = {frozenset(w.orbit(i)) for i in range(3)}
    assert {len(o) for o in orbits} == {1, 2}


@pytest.mark.parametrize("d", range(1, 8))
def test_weyl_generators_are_automorphisms(d):
    g = graph(d)
    aut = automorphism_group(g)
    for gen in weyl_image(DegreeContext(d)).generators:
        assert aut.contains(gen)


def test_graph_self_isomorphism_and_negative():
    g = graph(5)
    iso = find_isomorphism(g, g)
    assert iso is not None
    scrambled = g.labels.copy()
    scrambled[0, 1] = scrambled[1, 0] = 1 - scrambled[0, 1]
    assert find_isomorphism(scrambled, g.labels) is None


def test_find_isomorphism_on_relabeled_graph():
    rng = np.random.default_rng(11)
    g = graph(4)
    perm = rng.permutation(g.n)
    shuffled = g.labels[np.ix_(perm, perm)]
    iso = find_isomorphism(shuffled, g)
    assert iso is not None
    assert np.array_equal(g.labels[np.ix_(iso, iso)], shuffled)


def test_find_isomorphism_on_tiny_graphs():
    empty = np.zeros((0, 0), dtype=np.int64)
    assert find_isomorphism(empty, empty) == ()
    assert find_isomorphism(np.array([[-1]]), np.array([[-1]])) == (0,)
    apart = np.array([[-1, 0], [0, -1]])
    assert find_isomorphism(apart, apart) == (0, 1)
    assert find_isomorphism(apart, np.array([[-1, 1], [1, -1]])) is None
    path = graph(7).labels
    turned = path[np.ix_((2, 0, 1), (2, 0, 1))]
    assert find_isomorphism(path, turned) == (1, 2, 0)
    assert find_isomorphism(path, -np.eye(4, dtype=np.int64)) is None


def test_find_isomorphism_rejects_non_square_matrices():
    wide = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        find_isomorphism(wide, wide)


def test_find_isomorphism_with_edge_labels_on_the_diagonal():
    # The Petersen graph with a diagonal of -1 or 1 by vertex: a 1 there is
    # counted in the mask of the dropped last label, so the refiner's first
    # partition is coarser than the all-label reference.  The search must
    # stay exact, diagonal included.
    rng = np.random.default_rng(5)
    labels = graph(5).labels.copy()
    np.fill_diagonal(labels, rng.choice([-1, 1], size=len(labels)))
    n = len(labels)
    uniform = np.zeros(n, dtype=np.int64)
    assert _Refiner(labels).refine(uniform).max() < _unique_rows_refine(labels, uniform).max()
    perm = rng.permutation(n)
    shuffled = labels[np.ix_(perm, perm)]
    iso = find_isomorphism(shuffled, labels)
    assert iso is not None and sorted(iso) == list(range(n))
    assert np.array_equal(labels[np.ix_(iso, iso)], shuffled)
    flipped = shuffled.copy()
    flipped[0, 0] = -flipped[0, 0]
    assert find_isomorphism(flipped, labels) is None


def test_automorphism_search_refines_each_coloring_once(monkeypatch):
    rounds = []
    uncached = _Refiner._rounds

    def spy(self, colors, changed=None):
        rounds.append(colors.tobytes())
        return uncached(self, colors, changed)

    monkeypatch.setattr(_Refiner, "_rounds", spy)
    aut = automorphism_group.__wrapped__(graph(1))
    assert aut.order == AUT_ORDERS[1]
    # 81 refine calls at 45 distinct colorings
    assert len(rounds) == len(set(rounds)) == 45


def test_refine_returns_read_only_colorings():
    refiner = _Refiner(graph(3).labels)
    colors = refiner.refine(np.zeros(27, dtype=np.int64))
    assert not colors.flags.writeable
    assert refiner.refine(np.zeros(27, dtype=np.int64)) is colors
    individualized = refiner.refine(_individualize(colors, 4))
    assert not individualized.flags.writeable


def _unique_rows_refine(labels, colors):
    """Refinement ranked by np.unique(axis=0) over int32 signatures, the
    reference for the byte-key ranking of `_Refiner.refine`."""
    n = labels.shape[0]
    values = sorted(set(labels[np.triu_indices(n, 1)].tolist())) if n > 1 else []
    masks = [(labels == v).astype(np.int32) for v in values]
    while True:
        k = int(colors.max()) + 1
        onehot = np.zeros((n, k), dtype=np.int32)
        onehot[np.arange(n), colors] = 1
        sig = np.concatenate([colors.reshape(n, 1)] + [m @ onehot for m in masks], axis=1)
        _, new = np.unique(sig, axis=0, return_inverse=True)
        new = new.reshape(-1).astype(np.int64)
        if int(new.max()) == int(colors.max()) and np.array_equal(
            np.sort(np.bincount(new)), np.sort(np.bincount(colors))
        ):
            return new
        colors = new


def _full_width_rounds(refiner, colors, changed=None):
    """`_Refiner._rounds` with every round counting against every color, by
    one float64 product with the label masks that the refiner's bins encode,
    and a confirming round at the fixed point: the reference for the rounds
    that count only against split cells."""
    n, n_counted = refiner.n, refiner.n_counted
    label = refiner.bins.T - np.arange(n)[:, None] * (n_counted + 1)
    masks = (label == np.arange(n_counted)[:, None, None]).reshape(n_counted * n, n).astype(np.float64)
    while True:
        present, dense = np.unique(colors, return_inverse=True)
        k = len(present)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), dense] = 1.0
        counts = (masks @ onehot).reshape(n_counted, n, k)
        sig = np.empty((n, 1 + n_counted * k), dtype=">u2")
        sig[:, 0] = colors
        sig[:, 1:] = counts.transpose(1, 0, 2).reshape(n, n_counted * k)
        keys = sig.view(np.dtype((np.void, sig.shape[1] * 2))).ravel()
        _, new = np.unique(keys, return_inverse=True)
        new = new.astype(np.int64)
        if int(new.max()) == int(colors.max()) and np.array_equal(
            np.sort(np.bincount(new)), np.sort(np.bincount(colors))
        ):
            return new
        colors = new


def _assert_same_colors(labels, colors, v=None, reference=_unique_rows_refine):
    """`_Refiner.refine(colors)` equals the reference's refinement.  With v,
    `refine(colors, v)` equals both the reference's refinement and a fresh
    refiner's `refine` of the individualized coloring, whose first round
    counts against every color."""
    fast = _Refiner(labels).refine(colors, v)
    if v is not None:
        colors = _individualize(colors, v)
        assert np.array_equal(fast, _Refiner(labels).refine(colors))
    assert fast.dtype == np.int64
    assert np.array_equal(fast, reference(labels, colors))
    return fast


@pytest.mark.parametrize("d", range(1, 8))
def test_refine_colors_match_unique_rows(d):
    labels = graph(d).labels
    uniform = _assert_same_colors(labels, np.zeros(len(labels), dtype=np.int64))
    v = int(np.random.default_rng(d).integers(len(labels)))
    _assert_same_colors(labels, uniform, v)


@pytest.mark.parametrize("d", range(2, 8))
def test_refine_at_every_vertex_matches_unique_rows(d):
    labels = graph(d).labels
    uniform = _Refiner(labels).refine(np.zeros(len(labels), dtype=np.int64))
    for v in range(len(labels)):
        _assert_same_colors(labels, uniform, v)


def test_refine_colors_match_unique_rows_on_relabeled_degree_one():
    labels = graph(1).labels
    perm = np.random.default_rng(7).permutation(len(labels))
    shuffled = labels[np.ix_(perm, perm)]
    colors = _assert_same_colors(shuffled, np.zeros(len(labels), dtype=np.int64))
    for v in (0, 100, 239):
        colors = _assert_same_colors(shuffled, colors, v)


def test_refine_colors_match_unique_rows_past_one_byte():
    # colors and counts above 255 use both bytes of each key entry
    rng = np.random.default_rng(3)
    upper = np.triu(rng.integers(0, 3, size=(300, 300)), 1)
    labels = upper + upper.T - np.eye(300, dtype=upper.dtype)
    colors = _assert_same_colors(labels, np.zeros(300, dtype=np.int64))
    assert colors.max() > 255
    for v in (0, 150, 299):
        _assert_same_colors(labels, colors, v)


def test_refine_at_a_vertex_with_edge_labels_on_the_diagonal():
    # the refiner drops the last label here too, so the reference is the
    # full-width rounds over its own masks, not the all-label refinement
    labels = graph(5).labels.copy()
    np.fill_diagonal(labels, np.random.default_rng(5).choice([-1, 1], size=len(labels)))

    def full_width(labels, colors):
        return _full_width_rounds(_Refiner(labels), colors)

    uniform = _assert_same_colors(labels, np.zeros(len(labels), dtype=np.int64), reference=full_width)
    for v in range(len(labels)):
        colors = _assert_same_colors(labels, uniform, v, full_width)
        for w in range(len(labels)):
            _assert_same_colors(labels, colors, w, full_width)


def test_refine_at_a_vertex_alone_in_its_cell():
    # the middle vertex of the degree-7 path is alone in its cell, so the
    # first round counts only against {v}, splits nothing and returns the
    # rank of the individualized coloring
    labels = graph(7).labels
    uniform = _Refiner(labels).refine(np.zeros(3, dtype=np.int64))
    assert np.count_nonzero(uniform == uniform[2]) == 1
    colors = _assert_same_colors(labels, uniform, 2)
    assert np.array_equal(colors, np.unique(_individualize(uniform, 2), return_inverse=True)[1])


def test_search_results_match_full_width_rounds(monkeypatch):
    def search():
        gens = [automorphism_group.__wrapped__(graph(d)).generators for d in range(1, 8)]
        labels = graph(1).labels
        isos = []
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(labels))
            isos.append(find_isomorphism(graph(1), labels[np.ix_(perm, perm)]))
        return gens, isos

    split_cells = search()
    monkeypatch.setattr(_Refiner, "_rounds", _full_width_rounds)
    assert search() == split_cells
    assert all(iso is not None for iso in split_cells[1])


def test_refiner_rejects_graphs_past_sixteen_bit_keys():
    with pytest.raises(ValueError):
        _Refiner(np.broadcast_to(np.int8(0), (1 << 16, 1 << 16)))


def test_tritangent_triangles():
    tri = tritangent_triangles(graph(3))
    assert len(tri) == 45
    per_line = Counter(x for t in tri for x in t)
    assert set(per_line.values()) == {5}
    # members are pairwise meeting
    g = graph(3)
    for a, b, c in tri:
        assert g.label(a, b) == g.label(a, c) == g.label(b, c) == 1


def test_tritangent_rejects_disjoint_triples():
    g = graph(3)
    tri = set(map(tuple, tritangent_triangles(g).tolist()))
    # any pairwise-disjoint triple is certainly not tritangent
    found = None
    for a in range(27):
        for b in range(a + 1, 27):
            if g.label(a, b) != 0:
                continue
            for c in range(b + 1, 27):
                if g.label(a, c) == 0 and g.label(b, c) == 0:
                    found = (a, b, c)
                    break
            if found:
                break
        if found:
            break
    assert found is not None and found not in tri


def test_tritangent_triangles_are_the_class_sums_of_minus_k():
    g = graph(3)
    assert tritangent_triangles(g).tolist() == [list(t) for t in class_sum_triangles(g)]


@pytest.mark.parametrize("seed", range(6))
def test_triangles_match_the_triple_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    upper = np.triu(rng.random((n, n)) < rng.random(), 1)
    adjacent = upper | upper.T
    want = [list(t) for t in combinations(range(n), 3)
            if all(adjacent[a, b] for a, b in combinations(t, 2))]
    assert _triangles(adjacent).reshape(-1, 3).tolist() == want


def test_family_arrays_are_read_only_int64():
    g = graph(3)
    shapes = {tritangent_triangles: (45, 3), double_sixes: (36, 2, 6),
              trihedral_nines: (120, 9), triple_nines: (40, 3, 9)}
    for family, shape in shapes.items():
        lines = family(g)
        assert lines.shape == shape and lines.dtype == np.int64
        with pytest.raises(ValueError):
            lines[0] = 0


def test_double_sixes():
    g = graph(3)
    ds = double_sixes(g)
    assert len(ds) == 36
    assert len({blocks(d) for d in ds}) == 36
    for first, second in ds:
        rows = (first, second)
        for row in rows:
            for i in range(6):
                for j in range(i + 1, 6):
                    assert g.label(row[i], row[j]) == 0
        for i in range(6):
            for j in range(6):
                expected = 0 if i == j else 1
                assert g.label(first[i], second[j]) == expected


def test_double_sixes_match_the_skew_sextuple_search():
    """Against the search over all 6-sets of pairwise-skew lines, each with
    the unique line per member that misses it and meets the other five."""
    g = graph(3)
    labels = g.labels
    skew = [frozenset(np.nonzero(labels[i] == 0)[0].tolist()) for i in range(27)]
    sixes = []

    def grow(chosen, allowed):
        if len(chosen) == 6:
            sixes.append(tuple(chosen))
            return
        for v in sorted(allowed):
            rest = frozenset(x for x in allowed if x > v) & skew[v]
            if len(rest) + len(chosen) + 1 >= 6:
                grow(chosen + [v], rest)

    grow([], frozenset(range(27)))
    found = {}
    for six in sixes:
        partner = []
        for a in six:
            matches = [
                b for b in range(27)
                if b not in six and labels[a, b] == 0
                and all(labels[x, b] == 1 for x in six if x != a)
            ]
            if len(matches) != 1:
                break
            partner.append(matches[0])
        else:
            if any(labels[x, y] != 0 for x, y in combinations(partner, 2)):
                continue
            key = frozenset(six) | frozenset(partner)
            if key in found:
                continue
            if min(partner) < min(six):
                six, partner = tuple(partner), list(six)
            order = np.argsort(six)
            found[key] = (tuple(six[i] for i in order), tuple(partner[i] for i in order))
    want = sorted(found.values())
    assert len(want) == 36
    assert [tuple(map(tuple, d)) for d in double_sixes(g).tolist()] == want


def test_trihedral_nines_and_triple_nines():
    g = graph(3)
    nines = trihedral_nines(g)
    assert len(nines) == 120
    tns = triple_nines(g)
    assert len(tns) == 40
    for tn in tns[:5].tolist():
        all_lines = sorted(x for part in tn for x in part)
        assert all_lines == list(range(27))
        for part in tn:
            assert part in nines.tolist()


def test_trihedral_nines_match_partition_search():
    """Against the search over all partitions of each row-triple's nine lines
    into triangles."""
    g = graph(3)
    tris = [frozenset(t) for t in tritangent_triangles(g)]

    def partitions(lines):
        inside = [t for t in tris if t <= lines]
        out = []

        def grow(remaining, chosen):
            if not remaining:
                out.append(tuple(sorted(chosen, key=sorted)))
                return
            pivot = min(remaining)
            for t in inside:
                if pivot in t and t <= remaining:
                    grow(remaining - t, chosen + [t])

        grow(lines, [])
        return out

    nines = set()
    for a, b, c in combinations(tris, 3):
        if a & b or a & c or b & c or (a | b | c) in nines:
            continue
        for cols in partitions(a | b | c):
            if set(cols) != {a, b, c} and all(
                len(r & col) == 1 for r in (a, b, c) for col in cols
            ):
                nines.add(a | b | c)
                break
    assert trihedral_nines(g).tolist() == sorted(sorted(n) for n in nines)


def test_aut_transitive_on_double_sixes_and_triple_nines():
    g = graph(3)
    w = weyl_image(DegreeContext(3))
    ds_orbits = orbit_of_structures(w, double_sixes(g))
    assert len(set(ds_orbits)) == 1
    tn_orbits = orbit_of_structures(w, triple_nines(g))
    assert len(set(tn_orbits)) == 1


def test_orbit_of_structures_matches_the_frozenset_walk():
    g = graph(3)
    w = weyl_image(DegreeContext(3))
    groups = [w, w.stabilizer_of_point(0), PermutationGroup(27, w.generators[:1]),
              PermutationGroup(27, w.generators[:3])]
    for family in (double_sixes(g), triple_nines(g), tritangent_triangles(g)[:, None]):
        for group in groups:
            assert orbit_of_structures(group, family) == orbit_partition(group, family)
    assert len(set(orbit_partition(groups[2], double_sixes(g)))) > 1


def test_orbit_of_structures_rejects_a_list_the_group_does_not_preserve():
    g = graph(3)
    w = weyl_image(DegreeContext(3))
    with pytest.raises(ValueError, match="does not preserve"):
        orbit_of_structures(w, double_sixes(g)[1:])


def test_orbit_of_structures_under_the_trivial_group():
    ids = orbit_of_structures(PermutationGroup(27, []), double_sixes(graph(3)))
    assert ids == list(range(36))


def test_schlafli_enumerations_require_degree_three():
    with pytest.raises(ValueError):
        tritangent_triangles(graph(4))
    with pytest.raises(ValueError):
        double_sixes(graph(2))


def test_degree7_middle_vertex_stabilizer_is_everything():
    aut = automorphism_group(graph(7))
    assert aut.stabilizer_of_point(2).order == 2  # swapping the two end vertices


def test_enumeration_caps_on_the_biggest_groups():
    from itertools import islice

    from delpezzo.permgroup import CapacityError

    w8 = weyl_image(DegreeContext(1))
    with pytest.raises(CapacityError):
        list(w8.elements())  # 696729600 over the default cap
    w7 = weyl_image(DegreeContext(2))
    first = list(islice(w7.elements(), 1000))  # admitted by the default cap
    assert len(set(first)) == 1000
    assert all(w7.contains(g) for g in first[:10])
