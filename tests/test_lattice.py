import itertools
import random

import pytest

from delpezzo.lattice import (
    CLASS_COUNTS,
    DegreeContext,
    DimensionError,
    UnsupportedDegreeError,
    exceptional_classes,
    pairing,
    reflect,
    roots,
    simple_roots,
)


def E(ctx, i):
    return tuple(1 if j == i else 0 for j in range(ctx.rank))


def H(ctx):
    return E(ctx, 0)


@pytest.mark.parametrize("d", range(1, 8))
def test_canonical_class_self_intersection(d):
    ctx = DegreeContext(d)
    k = ctx.canonical_class
    assert pairing(ctx, k, k) == d


def test_pairing_basics():
    ctx = DegreeContext(3)
    assert pairing(ctx, H(ctx), H(ctx)) == 1
    assert pairing(ctx, E(ctx, 1), E(ctx, 2)) == 0
    assert pairing(ctx, E(ctx, 1), E(ctx, 1)) == -1


def test_pairing_symmetric_bilinear():
    ctx = DegreeContext(2)
    rng = random.Random(7)
    for _ in range(50):
        v = tuple(rng.randrange(-4, 5) for _ in range(ctx.rank))
        w = tuple(rng.randrange(-4, 5) for _ in range(ctx.rank))
        u = tuple(rng.randrange(-4, 5) for _ in range(ctx.rank))
        assert pairing(ctx, v, w) == pairing(ctx, w, v)
        vp = tuple(a + b for a, b in zip(v, u))
        assert pairing(ctx, vp, w) == pairing(ctx, v, w) + pairing(ctx, u, w)


def test_pairing_dimension_error():
    ctx = DegreeContext(3)
    with pytest.raises(DimensionError):
        pairing(ctx, (1, 0), H(ctx))


@pytest.mark.parametrize("d,count", sorted(CLASS_COUNTS.items()))
def test_class_counts_match_known_table(d, count):
    assert len(exceptional_classes(DegreeContext(d))) == count


def test_degree7_classes_explicit():
    ctx = DegreeContext(7)
    assert set(exceptional_classes(ctx)) == {(0, 0, 1), (0, 1, 0), (1, -1, -1)}


@pytest.mark.parametrize("d", range(1, 8))
def test_classes_satisfy_defining_equations_and_order(d):
    ctx = DegreeContext(d)
    cls = exceptional_classes(ctx)
    k = ctx.canonical_class
    for v in cls:
        assert pairing(ctx, v, v) == -1
        assert pairing(ctx, v, k) == -1
    assert list(cls) == sorted(cls)


@pytest.mark.parametrize("d,count", [(1, 240), (2, 126), (3, 72), (4, 40), (5, 20), (6, 8), (7, 2)])
def test_root_counts(d, count):
    ctx = DegreeContext(d)
    rts = roots(ctx)
    assert len(rts) == count
    k = ctx.canonical_class
    for r in rts:
        assert pairing(ctx, r, r) == -2
        assert pairing(ctx, r, k) == 0


def test_e1_minus_e2_is_root():
    for d in range(1, 8):
        ctx = DegreeContext(d)
        v = tuple([0, 1, -1] + [0] * (ctx.rank - 3))
        assert v in roots(ctx)


@pytest.mark.parametrize("d", [8, 9, 0, -1])
def test_unsupported_degrees_rejected(d):
    with pytest.raises(UnsupportedDegreeError):
        DegreeContext(d)


def test_reflect_transposes_basis_vectors():
    ctx = DegreeContext(3)
    r = (0, 1, -1, 0, 0, 0, 0)  # E1 - E2
    assert reflect(ctx, r, E(ctx, 1)) == E(ctx, 2)
    assert reflect(ctx, r, E(ctx, 2)) == E(ctx, 1)


def test_reflect_fixes_orthogonal_vectors():
    ctx = DegreeContext(3)
    r = (0, 1, -1, 0, 0, 0, 0)
    assert reflect(ctx, r, E(ctx, 3)) == E(ctx, 3)
    assert reflect(ctx, r, H(ctx)) == H(ctx)


def test_reflect_line_class():
    # reflection in H-E1-E2-E3 sends E1 to H-E2-E3
    ctx = DegreeContext(3)
    r = (1, -1, -1, -1, 0, 0, 0)
    assert reflect(ctx, r, E(ctx, 1)) == (1, 0, -1, -1, 0, 0, 0)


def test_reflect_rejects_non_root():
    ctx = DegreeContext(3)
    with pytest.raises(ValueError):
        reflect(ctx, E(ctx, 1), H(ctx))


@pytest.mark.parametrize("d", range(1, 8))
def test_reflections_preserve_pairing_and_classes(d):
    ctx = DegreeContext(d)
    cls = exceptional_classes(ctx)
    rng = random.Random(d)
    for r in simple_roots(ctx):
        assert set(reflect(ctx, r, v) for v in cls) == set(cls)
        for _ in range(20):
            v = rng.choice(cls)
            w = rng.choice(cls)
            assert pairing(ctx, reflect(ctx, r, v), reflect(ctx, r, w)) == pairing(ctx, v, w)
        # involution
        for v in cls:
            assert reflect(ctx, r, reflect(ctx, r, v)) == v


@pytest.mark.parametrize(
    "d,expected_labels",
    [(1, {0, 1, 2, 3}), (2, {0, 1, 2}), (3, {0, 1}), (4, {0, 1}), (5, {0, 1}), (6, {0, 1}), (7, {0, 1})],
)
def test_pairwise_intersection_ranges(d, expected_labels):
    ctx = DegreeContext(d)
    cls = exceptional_classes(ctx)
    seen = set()
    for v, w in itertools.combinations(cls, 2):
        seen.add(pairing(ctx, v, w))
    assert seen == expected_labels


@pytest.mark.parametrize("d", range(1, 7))
def test_blow_down_map_is_pairing_preserving_bijection(d):
    """Blowing E_{9-d} down drops the last coordinate: the classes disjoint
    from E_{9-d} (last coordinate 0), truncated, are the degree-(d+1)
    classes in their order, with every pairing kept."""
    ctx = DegreeContext(d)
    up = DegreeContext(d + 1)
    e = E(ctx, ctx.num_blowups)
    disjoint = [v for v in exceptional_classes(ctx) if pairing(ctx, v, e) == 0]
    assert all(v[-1] == 0 for v in disjoint)
    assert [v[:-1] for v in disjoint] == list(exceptional_classes(up))
    for v, w in itertools.combinations(disjoint, 2):
        assert pairing(ctx, v, w) == pairing(up, v[:-1], w[:-1])
