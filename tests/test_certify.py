import numpy as np
import pytest

from delpezzo.certify import (
    INCONCLUSIVE,
    H1_TRIVIAL,
    NOT_IN_LISTED_SUBGROUPS,
    NO_STABLE_TRIPLE_NINE,
    ClassTable,
    PlaceEvidence,
    SUBGROUP_NAMES,
    build_class_table,
    charpoly,
    h1_certificate,
    h1_cyclic_oracle,
    kernel_basis,
    lattice_matrix,
    oracle_cross_validation,
    smith_normal_form,
    subgroup_exclusion_certificate,
)
from delpezzo.incidence import double_sixes, incidence_graph, triple_nines, tritangent_triangles, weyl_image
from delpezzo.lattice import DegreeContext
from delpezzo.permgroup import cycle_type


@pytest.fixture(scope="module")
def table() -> ClassTable:
    return build_class_table()


def test_class_table_shape(table):
    assert len(table.rows) == 25
    assert sum(r.class_size for r in table.rows) == 51840
    assert [r.class_id for r in table.rows] == list(range(25))


def test_identity_row(table):
    row = table.rows[0]
    assert row.cycle_type == (1,) * 27
    assert row.element_order == 1
    assert row.class_size == 1
    assert row.char_poly == (1, -6, 15, -20, 15, -6, 1)  # (x-1)^6
    assert row.fixed_lines == (27,) * 12


def test_element_orders(table):
    orders = {r.element_order for r in table.rows}
    assert sorted(orders) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]
    assert max(orders) == 12


def test_separation_booleans_are_derived_facts(table):
    # 20 distinct cycle types over 25 classes: the collision is real
    assert table.cycle_types_separate_classes is False
    assert len({r.cycle_type for r in table.rows}) == 20
    assert table.char_polys_separate_classes is True


def test_subgroup_orders_match_orbit_stabilizer(table):
    assert table.subgroups["LineStab"].order * 27 == 51840
    assert table.subgroups["DoubleSixStab"].order * 36 == 51840
    assert table.subgroups["TritangentStab"].order * 45 == 51840
    assert table.subgroups["TripleNineSetStab"].order * 40 == 51840
    assert table.subgroups["EvenSubgroup"].order * 2 == 51840
    comp = table.subgroups["TripleNineComponentwiseStab"].order
    assert comp == 216
    assert table.subgroups["TripleNineSetStab"].order % comp == 0


def _per_element_subgroups():
    """The stabilizer cycle-type sets from membership masks over all 51840
    elements: the slow reference for the fixed-object counts of the table."""
    graph = incidence_graph(DegreeContext(3))
    elements, labels = weyl_image(DegreeContext(3)).class_labels()
    rep_rows = np.unique(labels)
    class_of = np.searchsorted(rep_rows, labels)
    reps = [tuple(int(x) for x in elements[r]) for r in rep_rows]
    determinants = np.array([round(np.linalg.det(lattice_matrix(rep))) for rep in reps])
    ds_set = np.zeros(27, dtype=bool)
    ds_set[list(double_sixes(graph)[0].first + double_sixes(graph)[0].second)] = True
    tri_set = np.zeros(27, dtype=bool)
    tri_set[list(tritangent_triangles(graph)[0])] = True
    part_id = np.zeros(27, dtype=np.int64)
    for pid, part in enumerate(triple_nines(graph)[0].parts):
        part_id[list(part)] = pid
    set_mask = np.ones(len(elements), dtype=bool)
    for pid in range(3):
        src = part_id[None, :] == pid
        mx = np.max(np.where(src, part_id[elements], -1), axis=1)
        mn = np.min(np.where(src, part_id[elements], 99), axis=1)
        set_mask &= mx == mn
    masks = {
        "LineStab": elements[:, 0] == 0,
        "DoubleSixStab": (ds_set[elements] & ds_set[None, :]).sum(axis=1) == 12,
        "TritangentStab": (tri_set[elements] & tri_set[None, :]).sum(axis=1) == 3,
        "TripleNineComponentwiseStab": (part_id[elements] == part_id[None, :]).all(axis=1),
        "TripleNineSetStab": set_mask,
        "EvenSubgroup": determinants[class_of] == 1,
    }
    return {
        name: (int(mask.sum()), frozenset(cycle_type(reps[i]) for i in np.unique(class_of[mask])))
        for name, mask in masks.items()
    }


def test_subgroups_agree_with_per_element_masks(table):
    reference = _per_element_subgroups()
    assert set(reference) == set(SUBGROUP_NAMES)
    for name in SUBGROUP_NAMES:
        sub = table.subgroups[name]
        assert (sub.order, sub.cycle_types) == reference[name], name


def test_line_stabilizer_order_from_schreier_sims(table):
    stab = weyl_image(DegreeContext(3)).stabilizer_of_point(0)
    assert stab.order == table.subgroups["LineStab"].order == 1920


def test_every_subgroup_cycle_set_is_proper(table):
    full = frozenset(r.cycle_type for r in table.rows)
    for name in SUBGROUP_NAMES:
        assert table.subgroups[name].cycle_types < full


#: content hash of the derived table; a change here changes every report
TABLE_HASH = "25747a8e21ad2999dd100b4d29adbcb88e62bace2a388e1514150025c4ad5fcf"


def test_table_hash_reproducible(table):
    rebuilt = build_class_table.__wrapped__()
    assert rebuilt.content_hash == table.content_hash


def test_table_hash_is_pinned(table):
    assert table.content_hash == TABLE_HASH


def test_lattice_matrix_preserves_intersection_form(table):
    j = np.diag([1, -1, -1, -1, -1, -1, -1])
    k = np.array([-3, 1, 1, 1, 1, 1, 1])
    w = weyl_image(DegreeContext(3))
    for g in w.generators:
        m = lattice_matrix(g)
        assert np.array_equal(m.T @ j @ m, j)
        assert np.array_equal(m @ k, k)


def test_root_lattice_traces_match_charpoly_newton_sums(table):
    # independent route: power sums of the characteristic polynomial's roots
    for row in table.rows:
        roots = np.roots(np.array(row.char_poly, dtype=np.float64))
        for m in range(1, 13):
            s = complex(np.sum(roots**m))
            assert abs(s.imag) < 1e-6
            assert round(s.real) == row.lattice_traces[m - 1]


def test_charpoly_small_cases():
    assert charpoly(np.eye(2, dtype=np.int64)) == (1, -2, 1)
    a = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert charpoly(a) == (1, 0, -1)


def test_smith_normal_form_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(1, 6, size=2)
        a = rng.integers(-6, 7, size=(int(m), int(n)))
        u, d, v = smith_normal_form(a)
        assert np.array_equal(u @ a.astype(object) @ v, d)
        assert abs(round(float(np.linalg.det(u.astype(np.float64))))) == 1
        assert abs(round(float(np.linalg.det(v.astype(np.float64))))) == 1
        diag = [int(d[i, i]) for i in range(min(d.shape))]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0 or y == 0
            else:
                assert y == 0
        off = d.copy()
        for i in range(min(d.shape)):
            off[i, i] = 0
        assert not np.any(off)


def test_kernel_basis():
    a = np.array([[2, 4], [1, 2]], dtype=np.int64)
    kb = kernel_basis(a)
    assert kb.shape[1] == 1
    assert not np.any(a.astype(object) @ kb)


def test_oracle_identity_is_trivial():
    assert h1_cyclic_oracle(tuple(range(27))) == ()


def test_oracle_rejects_non_automorphism():
    bad = tuple([1, 0] + list(range(2, 27)))
    w = weyl_image(DegreeContext(3))
    if not w.contains(bad):  # guard: transposition of the first two classes
        with pytest.raises(ValueError):
            h1_cyclic_oracle(bad)


def test_oracle_cross_validation(table):
    rows = oracle_cross_validation(table)
    assert len(rows) == 25
    assert all(r["order_only_2_3"] for r in rows)
    assert any(r["h1_order"] > 1 for r in rows)
    assert all(r["two_part_implies_double_six"] for r in rows)
    assert all(r["three_part_implies_triple_nine"] for r in rows)


def test_oracle_agrees_with_certificate_exclusions(table):
    # certificate-excluded class (outside both stabilizer sets) => oracle trivial
    ds = table.subgroups["DoubleSixStab"].cycle_types
    tn = table.subgroups["TripleNineComponentwiseStab"].cycle_types
    for row in table.rows:
        if row.cycle_type not in ds and row.cycle_type not in tn:
            assert h1_cyclic_oracle(row.representative) == ()


def test_place_evidence_rejects_empty_ambiguity():
    with pytest.raises(ValueError):
        PlaceEvidence("u", ())


def _class_with(table, predicate):
    for row in table.rows:
        if predicate(row):
            return row
    raise AssertionError("no class matches")


def test_h1_certificate_kinds(table):
    ds = table.subgroups["DoubleSixStab"].cycle_types
    tn = table.subgroups["TripleNineComponentwiseStab"].cycle_types
    outside_both = _class_with(
        table, lambda r: r.cycle_type not in ds and r.cycle_type not in tn
    )
    places = (PlaceEvidence("p1", (outside_both.class_id,)),)
    cert = h1_certificate(places, table)
    assert cert.kind == H1_TRIVIAL
    assert set(cert.witnesses) == {"DoubleSixStab", "TripleNineComponentwiseStab"}
    assert cert.table_hash == table.content_hash

    identity_only = (PlaceEvidence("p1", (0,)),)
    assert h1_certificate(identity_only, table).kind == INCONCLUSIVE

    # ambiguity straddling the double-six set blocks that exclusion
    inside_ds = _class_with(table, lambda r: r.cycle_type in ds and r.cycle_type not in tn)
    straddle = (PlaceEvidence("p1", (outside_both.class_id, inside_ds.class_id)),)
    assert h1_certificate(straddle, table).kind == NO_STABLE_TRIPLE_NINE


def test_subgroup_exclusion_certificate(table):
    assert (
        subgroup_exclusion_certificate((PlaceEvidence("p1", (0,)),), table).kind
        == INCONCLUSIVE
    )
    # a high-order class excludes precisely the subgroups missing its type
    order12 = _class_with(table, lambda r: r.element_order == 12)
    places = (PlaceEvidence("p1", (order12.class_id,)),)
    cert = subgroup_exclusion_certificate(places, table)
    for name in SUBGROUP_NAMES:
        if order12.cycle_type not in table.subgroups[name].cycle_types:
            if cert.kind == NOT_IN_LISTED_SUBGROUPS:
                assert cert.witnesses[name] == "p1"


def test_full_exclusion_with_two_sharp_places(table):
    ds = table.subgroups["DoubleSixStab"].cycle_types
    order9 = _class_with(table, lambda r: r.element_order == 9)
    even = table.subgroups["EvenSubgroup"].cycle_types
    odd_class = _class_with(table, lambda r: r.cycle_type not in even)
    places = (
        PlaceEvidence("p1", (order9.class_id,)),
        PlaceEvidence("p2", (odd_class.class_id,)),
    )
    cert = subgroup_exclusion_certificate(places, table)
    # order 9 kills every listed stabilizer of order prime to 9; whether the
    # pair suffices for all six is a table fact, not an assumption
    expected = all(
        any(
            all(table.rows[c].cycle_type not in table.subgroups[n].cycle_types for c in pe.class_ids)
            for pe in places
        )
        for n in SUBGROUP_NAMES
    )
    assert (cert.kind == NOT_IN_LISTED_SUBGROUPS) == expected
