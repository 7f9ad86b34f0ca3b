import dataclasses
import itertools

import numpy as np
import pytest
from plucker import line_intersection_labels
from test_surface_kernels import slow_eval

from delpezzo.certify import build_class_table
from delpezzo import surface
from delpezzo.gf import FieldSizeError, field
from delpezzo.surface import (
    MONOMIALS,
    CubicForm,
    NOT_SMOOTH,
    SMOOTH_CERTIFIED,
    NotSmoothOrBadReduction,
    count_points,
    frobenius_class,
    lines_on_surface,
    singular_point,
    smoothness_certificate,
    splitting_degree,
    trace_sequence,
)

F2 = field(2, 1)
F3 = field(3, 1)
F5 = field(5, 1)
F7 = field(7, 1)

#: the message of `frobenius_class` on a form without a smoothness certificate
REFUSAL = "Frobenius evidence needs a smooth surface"


def cone_f7():
    # x^3 + y^3 + z^3: singular at (0:0:0:1)
    coeffs = [1 if e in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)) else 0 for e in MONOMIALS]
    return CubicForm.from_ints(F7, coeffs)


def test_monomial_order_is_graded_lex():
    assert len(MONOMIALS) == 20
    assert MONOMIALS[0] == (3, 0, 0, 0)
    assert MONOMIALS[1] == (2, 1, 0, 0)
    assert MONOMIALS[-1] == (0, 0, 0, 3)
    assert list(MONOMIALS) == sorted(MONOMIALS, reverse=True)


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        CubicForm.from_ints(F2, [0] * 20)
    with pytest.raises(ValueError, match="exactly 20 coefficients"):
        CubicForm.from_ints(F2, [1] * 19)


def test_count_points_fermat_f2_is_a_plane():
    # cubing is the identity on F_2, so the Fermat surface is x+y+z+w = 0
    assert count_points(CubicForm.fermat(F2)) == 7


def test_count_points_triple_plane():
    triple = CubicForm.from_ints(F2, [1] + [0] * 19)  # x^3
    assert count_points(triple) == 7


def test_count_points_matches_brute_force_random_forms():
    import random

    rng = random.Random(9)
    for fs in (F2, F3):
        q = fs.order
        for _ in range(3):
            coeffs = [rng.randrange(q) for _ in range(20)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            form = CubicForm.from_ints(fs, coeffs)
            brute = 0
            seen = set()
            for pt in itertools.product(range(q), repeat=4):
                if pt == (0, 0, 0, 0):
                    continue
                # normalize to canonical projective representative
                first = next(i for i in range(4) if pt[i] != 0)
                if pt[first] != 1:
                    continue
                if slow_eval(fs, form.terms, pt) == 0:
                    brute += 1
            assert count_points(form) == brute


def test_count_points_budget():
    # the point gate is q^3 <= budget: 343 points of P^3(GF(7)) per count
    assert surface._fits(7, 1, 3, 343) and not surface._fits(7, 1, 3, 342)
    fermat = CubicForm.fermat(F7)
    assert trace_sequence(fermat, 2, budget=10) == ()
    assert trace_sequence(fermat, 2, budget=342) == ()
    assert len(trace_sequence(fermat, 2, budget=343)) == 1


def test_line_budget_is_q_to_the_fourth():
    # the line gate is q^4 <= budget: 7^4 row pairs for a scan over GF(7)
    assert surface._fits(7, 1, 4, 2401) and not surface._fits(7, 1, 4, 2400)
    table = build_class_table()
    fermat = CubicForm.fermat(F7)
    assert frobenius_class(fermat, table, point_budget=0, line_budget=2400).line_counts == {}
    assert frobenius_class(fermat, table, point_budget=0, line_budget=2401).line_counts == {1: 27}


def test_line_gate_stops_at_the_table_cap():
    # one cap for both gates: fields end where the tables end
    for dim in (3, 4):
        assert surface._fits(2, 16, dim, 10**100)
        assert not surface._fits(2, 17, dim, 10**100)
    with pytest.raises(FieldSizeError, match="above order"):
        field(2, 17)


def test_fermat_lines():
    assert len(lines_on_surface(CubicForm.fermat(F7))) == 27
    assert len(lines_on_surface(CubicForm.fermat(F2))) == 3
    assert len(lines_on_surface(CubicForm.fermat(F2).extend(2))) == 27


def test_lines_are_on_surface_and_canonical():
    lines = lines_on_surface(CubicForm.fermat(F7))
    form = CubicForm.fermat(F7)
    fs = form.field
    seen = set()
    for line in lines:
        key = (line.pivots, line.row1, line.row2)
        assert key not in seen
        seen.add(key)
        # every F_q-point of the line is on the surface
        r1 = tuple(fs.from_int(x) for x in line.row1)
        r2 = tuple(fs.from_int(x) for x in line.row2)
        for s in range(fs.order):
            pt = tuple(
                fs.add(fs.mul(fs.from_int(s), a), b) for a, b in zip(r1, r2)
            )
            assert slow_eval(fs, form.terms, pt) == 0
        assert slow_eval(fs, form.terms, r1) == 0


def test_cone_has_many_lines_over_extension():
    cone = cone_f7()
    rational = lines_on_surface(cone)
    assert len(rational) == 9  # rulings over the 9 rational curve points
    over_f49 = lines_on_surface(cone.extend(2))
    assert len(over_f49) > 27


def test_singular_point_detection():
    hit = singular_point(cone_f7())
    assert hit is not None
    m, pt = hit
    assert m == 1
    assert pt == (0, 0, 0, 1)
    assert singular_point(CubicForm.fermat(F7)) is None
    assert singular_point(cone_f7(), budget=7**3 - 1) is None  # not even GF(7) fits


def test_fermat_traces_over_f2():
    assert trace_sequence(CubicForm.fermat(F2), 2, budget=10**6) == (1, 7)


def test_trace_sequence_rejects_singular():
    with pytest.raises(NotSmoothOrBadReduction):
        trace_sequence(cone_f7(), 2, budget=10**6)


def test_trace_sequence_and_frobenius_class_share_the_weil_check(monkeypatch):
    xyz = CubicForm.from_ints(F7, [int(e == (1, 1, 1, 0)) for e in MONOMIALS])
    with pytest.raises(NotSmoothOrBadReduction) as traces:
        trace_sequence(xyz, 2, budget=10**9)
    # three planes: 3 q^2 + 1 points, so t_1 = 2q = 14 is out of range
    assert str(traces.value) == "point count 148 over GF(7^1) violates the Weil shape"
    with pytest.raises(NotSmoothOrBadReduction, match=REFUSAL):
        frobenius_class(xyz, build_class_table(), point_budget=10**9, line_budget=10**8)
    # on a smooth form every trace goes through the one check: the Fermat
    # surface over GF(2) has 3 rational lines, which 5 classes share
    checked = []
    weil_trace = surface._weil_trace

    def recording(count, q, m):
        checked.append((m, weil_trace(count, q, m)))
        return checked[-1][1]

    monkeypatch.setattr(surface, "_weil_trace", recording)
    ev = frobenius_class(CubicForm.fermat(F2), build_class_table(), point_budget=10**6, line_budget=10**7)
    assert ev.traces and list(ev.traces.items()) == checked


def test_smoothness_certificates():
    for fs in (F7, F2):
        v = smoothness_certificate(CubicForm.fermat(fs))
        assert (v.status, v.rank, v.columns, v.witness) == (SMOOTH_CERTIFIED, 56, 56, None)

    cone = smoothness_certificate(cone_f7())
    assert (cone.status, cone.rank, cone.columns) == (NOT_SMOOTH, 48, 56)
    assert len(cone.witness) == 56 and any(cone.witness)
    # characteristic 3: the Fermat form is a perfect cube of a plane, all
    # partials vanish and only the multiples of F remain in degree 9
    v3 = smoothness_certificate(CubicForm.fermat(F3))
    assert (v3.status, v3.rank, v3.columns) == (NOT_SMOOTH, 84, 220)


def test_line_intersection_graph_shape():
    lines = lines_on_surface(CubicForm.fermat(F7))
    labels = line_intersection_labels(lines)
    assert labels.shape == (27, 27)
    assert {int((labels[i] == 1).sum()) for i in range(27)} == {10}


def test_frobenius_class_fermat():
    table = build_class_table()
    ev7 = frobenius_class(CubicForm.fermat(F7), table, point_budget=10**6, line_budget=10**7)
    # 27 rational lines pin the identity class: no trace is taken
    assert ev7.pinned and ev7.line_counts == {1: 27} and ev7.traces == {}
    assert table.rows[ev7.class_ids[0]].cycle_type == (1,) * 27
    assert splitting_degree(ev7, table) == 1

    ev2 = frobenius_class(CubicForm.fermat(F2), table, point_budget=10**6, line_budget=10**7)
    assert ev2.pinned
    assert table.rows[ev2.class_ids[0]].cycle_type == (2,) * 12 + (1,) * 3
    assert splitting_degree(ev2, table) == 2


def test_frobenius_class_counts_lines_wherever_the_line_budget_allows():
    # one line rule: 521^4 <= 10^11 and GF(521) has tables, so the Fermat
    # surface's 3 rational lines (521 = 2 mod 3) are counted, as `surface` does
    ev = frobenius_class(CubicForm.fermat(field(521)), build_class_table(),
                         point_budget=1000, line_budget=10**11)
    assert ev.line_counts == {1: 3}


def test_frobenius_class_refuses_certified_nonsmooth(monkeypatch):
    # the cone over GF(7) has 9 rational lines, the count of class 5, so a
    # measurement alone would pin it; the Fermat form over GF(3) is the cube
    # of a plane, and x^3 + y^3 + z^3 over GF(2) is a cone too
    table = build_class_table()
    cone_f2 = CubicForm.from_ints(F2, cone_f7().coeffs)
    forms = (cone_f7(), CubicForm.fermat(F3), cone_f2)
    scans = []
    grid = surface._grid

    def recording(q, pivot, free):
        # every point and line scan walks `_grid`
        scans.append(q)
        return grid(q, pivot, free)

    monkeypatch.setattr(surface, "_grid", recording)
    for form in forms:
        with pytest.raises(NotSmoothOrBadReduction, match=REFUSAL):
            frobenius_class(form, table, point_budget=10**9, line_budget=10**8)
        assert smoothness_certificate(form).status == NOT_SMOOTH
    assert scans == []


def test_frobenius_class_refuses_evidence_that_no_class_matches():
    # every fixed-line count shifted by one: the 27 lines of the Fermat
    # surface over GF(4) are the prediction of no class left
    table = build_class_table()
    shifted = dataclasses.replace(table, rows=tuple(
        dataclasses.replace(row, fixed_lines=tuple(n + 1 for n in row.fixed_lines)) for row in table.rows))
    with pytest.raises(NotSmoothOrBadReduction, match="no conjugacy class matches the evidence"):
        frobenius_class(CubicForm.fermat(field(2, 2)), shifted, point_budget=10**6, line_budget=10**6)


def test_identity_class_surfaces_have_trace_seven():
    table = build_class_table()
    row0 = table.rows[0]
    assert row0.cycle_type == (1,) * 27
    assert 1 + row0.lattice_traces[0] == 7


def test_frobenius_class_invariant_under_coordinate_change():
    import random

    table = build_class_table()
    fs = F5
    rng = random.Random(31)
    base = CubicForm.fermat(fs)
    ev_base = frobenius_class(base, table, point_budget=10**6, line_budget=10**7)

    def random_gl4():
        while True:
            m = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            arr = np.array(m)
            det = round(float(np.linalg.det(arr))) % 5
            if det:
                return m

    def substitute(form, m):
        # F(Mx): expand symbolically over the field
        out = {e: 0 for e in MONOMIALS}
        for c, e in zip(form.coeffs, MONOMIALS):
            if c == 0:
                continue
            factors = []
            for v, mult in enumerate(e):
                factors.extend([v] * mult)
            # product over factors of (sum_j m[v][j] x_j)
            expansion = {(0, 0, 0, 0): c}
            for v in factors:
                nxt = {}
                for mono, coeff in expansion.items():
                    for j in range(4):
                        scalar = fs.scalar(m[v][j])
                        if scalar == 0:
                            continue
                        key = tuple(x + (1 if t == j else 0) for t, x in enumerate(mono))
                        val = fs.mul(coeff, scalar)
                        nxt[key] = fs.add(nxt.get(key, 0), val)
                expansion = nxt
            for mono, coeff in expansion.items():
                out[mono] = fs.add(out[mono], coeff)
        return CubicForm(fs, tuple(out[e] for e in MONOMIALS))

    for _ in range(3):
        changed = substitute(base, random_gl4())
        ev = frobenius_class(changed, table, point_budget=10**6, line_budget=10**7)
        assert ev.class_ids == ev_base.class_ids
