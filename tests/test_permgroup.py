import math
import random
import tracemalloc
from collections import deque

import pytest

from delpezzo.incidence import automorphism_group, incidence_graph, weyl_image
from delpezzo.lattice import DegreeContext
from delpezzo.permgroup import (
    DEFAULT_ENUMERATION_CAP,
    CapacityError,
    PermutationGroup,
    compose,
    cycle_type,
    fixed_points_of_power,
    identity,
    inverse,
)


def transpositions(n):
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return gens


def naive_closure(n, gens):
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_trivial_group():
    G = PermutationGroup(27, [])
    assert G.order == 1
    assert G.orbit(5) == frozenset({5})
    assert not G.is_transitive()
    assert {cycle_type(g) for g in G.elements()} == {(1,) * 27}


def test_symmetric_group_orders():
    for n in (2, 4, 6):
        G = PermutationGroup(n, transpositions(n))
        assert G.order == math.factorial(n)
        assert G.is_transitive()


def test_malformed_generator_rejected():
    with pytest.raises(ValueError):
        PermutationGroup(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        PermutationGroup(3, [(0, 1)])


def test_against_naive_closure_on_random_groups():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        G = PermutationGroup(n, gens)
        closure = naive_closure(n, gens)
        assert G.order == len(closure)
        elements = list(G.elements())
        assert len(elements) == G.order
        assert set(elements) == closure
        for x in rng.sample(sorted(closure), min(4, len(closure))):
            assert G.contains(x)
        # closure spot-check: products of enumerated elements are members
        for _ in range(5):
            x, y = rng.choice(elements), rng.choice(elements)
            assert G.contains(compose(x, y))


def test_membership_rejects_non_members():
    G = PermutationGroup(4, [(1, 0, 2, 3)])  # order 2
    assert G.contains((0, 1, 2, 3))
    assert G.contains((1, 0, 2, 3))
    assert not G.contains((0, 1, 3, 2))


def test_every_generator_and_strong_generator_is_a_member():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        G = PermutationGroup(n, gens)
        assert all(G.contains(g) for g in G.generators)
        assert all(G.contains(g) for g in G.strong_generators)


def test_orbit_stabilizer_relation():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        G = PermutationGroup(n, gens)
        for pt in range(n):
            st = G.stabilizer_of_point(pt)
            assert G.order == len(G.orbit(pt)) * st.order
            assert all(g[pt] == pt for g in st.generators)


def test_stabilizer_of_trivial_group_is_trivial():
    G = PermutationGroup(5, [])
    assert G.stabilizer_of_point(2).order == 1


def test_point_out_of_range():
    G = PermutationGroup(5, [])
    with pytest.raises(ValueError):
        G.orbit(9)
    with pytest.raises(ValueError):
        G.stabilizer_of_point(-1)


def test_enumeration_capacity_error():
    G = PermutationGroup(11, transpositions(11))  # order 39916800, over the cap
    assert G.order > DEFAULT_ENUMERATION_CAP
    with pytest.raises(CapacityError):
        G.elements()
    with pytest.raises(CapacityError):
        G.element_array()
    with pytest.raises(CapacityError):
        G.conjugacy_classes()
    assert len(PermutationGroup(8, transpositions(8)).element_array()) == 40320


def test_cycle_type_and_power_fixed_points():
    p = (1, 2, 0, 4, 3, 5)  # 3-cycle, 2-cycle, fixed point
    assert cycle_type(p) == (3, 2, 1)
    assert math.lcm(*cycle_type(p)) == 6
    assert fixed_points_of_power((3, 2, 1), 1) == 1
    assert fixed_points_of_power((3, 2, 1), 2) == 3
    assert fixed_points_of_power((3, 2, 1), 3) == 4
    assert fixed_points_of_power((3, 2, 1), 6) == 6
    assert cycle_type(identity(27)) == (1,) * 27


def test_census_of_s3():
    G = PermutationGroup(3, transpositions(3))
    assert {cycle_type(g) for g in G.elements()} == {(1, 1, 1), (2, 1), (3,)}


def test_conjugacy_classes_of_s4():
    G = PermutationGroup(4, transpositions(4))
    classes = G.conjugacy_classes()
    assert len(classes) == 5
    assert sorted(size for _, size in classes) == [1, 3, 6, 6, 8]
    # reps carry distinct cycle types for S4
    assert len({cycle_type(rep) for rep, _ in classes}) == 5


def test_inverse_and_compose():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 10)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)


def bfs_conjugacy_classes(G):
    """The orbit partition of the element set under conjugation by the
    generators, one breadth-first search per class."""
    todo = set(G.elements())
    inv_gens = [(g, inverse(g)) for g in G.generators]
    classes = []
    while todo:
        x = min(todo)
        block = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in inv_gens:
                z = compose(compose(gi, y), g)
                if z not in block:
                    block.add(z)
                    queue.append(z)
        todo -= block
        classes.append((min(block), len(block)))
    return sorted(classes)


def from_cycles(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return tuple(p)


def cross_check_groups():
    yield PermutationGroup(4, transpositions(4))
    yield PermutationGroup(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    # degree 256, moving point 255: rows are uint8, so index arithmetic done
    # in uint8 would wrap here
    yield PermutationGroup(256, [from_cycles(256, (0, 255)), from_cycles(256, (1, 2, 3))])
    for d in range(3, 8):
        yield weyl_image(DegreeContext(d))


def test_element_array_rows_follow_elements():
    for G in cross_check_groups():
        rows = G.element_array()
        assert rows.shape == (G.order, G.degree)
        assert [tuple(r) for r in rows.tolist()] == list(G.elements())


def test_conjugacy_classes_match_the_orbit_partition():
    for G in cross_check_groups():
        classes = G.conjugacy_classes()
        assert classes == bfs_conjugacy_classes(G)
        el, label = G.class_labels()
        assert [tuple(r) for r in el.tolist()] == sorted(G.elements())
        assert [tuple(el[r].tolist()) for r in sorted(set(label.tolist()))] == [
            rep for rep, _ in classes]


def test_class_table_build_stays_small():
    # the 51840 rows of 27 bytes take 1.4 MB, and a generator's pass holds a
    # few arrays of that size at once
    G = weyl_image(DegreeContext(3))
    tracemalloc.start()
    try:
        assert len(G.conjugacy_classes()) == 25
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_conjugacy_classes_of_trivial_and_cyclic_groups():
    assert PermutationGroup(3, []).conjugacy_classes() == [((0, 1, 2), 1)]
    c5 = PermutationGroup(5, [(1, 2, 3, 4, 0)])
    assert [size for _, size in c5.conjugacy_classes()] == [1] * 5


class TupleChain:
    """Reference Schreier-Sims on tuple permutations, with the loop order of
    `PermutationGroup`: the byte-encoded chain must reproduce its base,
    transversals and strong generators exactly."""

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.id = identity(degree)
        # one [point, gens, transversal] per level; None stands for identity
        self.levels = [[b, [], {b: None}] for b in base_prefix]
        for g in self.generators:
            self._add(g, 0)
        self.base = tuple(point for point, _, _ in self.levels)
        self.order = math.prod(len(t) for _, _, t in self.levels)

    def rep(self, level, x):
        u = self.levels[level][2][x]
        return self.id if u is None else u

    def _sift(self, g, start):
        for i in range(start, len(self.levels)):
            point, _, transversal = self.levels[i]
            x = g[point]
            if x == point:
                continue
            if x not in transversal:
                return g, i
            u = transversal[x]
            if u is not None:
                g = compose(g, inverse(u))
        return g, len(self.levels)

    def _add(self, g, start):
        g, j = self._sift(g, start)
        if g == self.id:
            return
        if j == len(self.levels):
            b = next(x for x in range(self.degree) if g[x] != x)
            self.levels.append([b, [], {b: None}])
        for k in range(start, j + 1):
            self.levels[k][1].append(g)
        for k in range(start, j + 1):
            self._grow_level(k, g)

    def _grow_level(self, j, new_gen):
        _, gens, transversal = self.levels[j]
        pairs = deque((x, new_gen) for x in sorted(transversal))
        while pairs:
            x, s = pairs.popleft()
            y = s[x]
            u_x = self.rep(j, x)
            if y in transversal:
                schreier = compose(compose(u_x, s), inverse(self.rep(j, y)))
                if schreier != self.id:
                    self._add(schreier, j + 1)
            else:
                transversal[y] = compose(u_x, s)
                for s2 in gens:
                    pairs.append((y, s2))

    def strong_generators(self):
        seen = {}
        for _, gens, _ in reversed(self.levels):
            for g in gens:
                seen.setdefault(g)
        return list(seen)

    def stabilizer_of_point(self, point):
        rebased = TupleChain(self.degree, self.generators, base_prefix=(point,))
        gens = [g for _, level_gens, _ in rebased.levels[1:] for g in level_gens]
        return TupleChain(self.degree, gens, base_prefix=rebased.base[1:])

    def elements(self):
        def walk(i, right):
            if i == len(self.levels):
                yield right
                return
            transversal = self.levels[i][2]
            for x in sorted(transversal):
                u = transversal[x]
                yield from walk(i + 1, right if u is None else compose(u, right))

        return walk(0, self.id)


def assert_same_chain(G, ref):
    assert G.base == ref.base
    assert G.order == ref.order
    for i, lvl in enumerate(G._levels):
        transversal = ref.levels[i][2]
        assert list(lvl.transversal) == list(transversal)
        assert [lvl.rep(x, G.degree) for x in transversal] == [
            ref.rep(i, x) for x in transversal]
        assert [G._decode(g) for g in lvl.gens] == ref.levels[i][1]
    assert G.strong_generators == ref.strong_generators()
    if G.order <= 5000:
        assert list(G.elements()) == list(ref.elements())


@pytest.mark.parametrize("d", range(1, 8))
def test_byte_chain_matches_tuple_chain_on_the_paper_groups(d):
    ctx = DegreeContext(d)
    for G in (weyl_image(ctx), automorphism_group(incidence_graph(ctx))):
        ref = TupleChain(G.degree, G.generators)
        assert_same_chain(G, ref)
        assert_same_chain(G.stabilizer_of_point(0), ref.stabilizer_of_point(0))


def test_byte_chain_matches_tuple_chain_on_random_groups():
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            # permute a random subset of the points, so that small groups occur
            moved = rng.sample(range(n), rng.randrange(min(2, n), n + 1))
            images = moved[:]
            rng.shuffle(images)
            p = list(range(n))
            for x, y in zip(moved, images):
                p[x] = y
            gens.append(tuple(p))
        G = PermutationGroup(n, gens)
        ref = TupleChain(G.degree, G.generators)
        assert_same_chain(G, ref)
        point = rng.randrange(n)
        assert_same_chain(G.stabilizer_of_point(point), ref.stabilizer_of_point(point))


def test_byte_chain_matches_tuple_chain_at_degree_256():
    # x -> x + 1, x -> 3x and x -> -x: the affine group of Z/256, order 256 * 128
    gens = [tuple((x + a) * m % 256 for x in range(256)) for a, m in ((1, 1), (0, 3), (0, -1))]
    G = PermutationGroup(256, gens)
    assert G.order == 256 * 128
    assert_same_chain(G, TupleChain(G.degree, G.generators))
    assert G.contains(tuple(255 - x for x in range(256)))
    assert not G.contains((1, 0) + tuple(range(2, 256)))


def test_degree_past_256_is_rejected():
    with pytest.raises(ValueError, match="at most 256 points, got 257"):
        PermutationGroup(257, [])
