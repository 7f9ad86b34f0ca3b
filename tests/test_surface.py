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
    BudgetExceeded,
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
    with pytest.raises(BudgetExceeded):
        count_points(CubicForm.fermat(F7), budget=10)


def test_line_budget_is_q_to_the_fourth():
    # the line gate is q^4 <= budget, as for the callers that skip a level
    with pytest.raises(BudgetExceeded):
        lines_on_surface(CubicForm.fermat(F7), budget=2400)
    assert len(lines_on_surface(CubicForm.fermat(F7), budget=2401)) == 27


def test_line_gate_stops_at_the_table_cap():
    # one cap: the line gate refuses fields without tables, and the exact
    # smoothness test, which needs the tables, raises above the cap
    assert surface._lines_fit(2, 16, 10**100)
    assert not surface._lines_fit(2, 17, 10**100)
    with pytest.raises(FieldSizeError, match="above order"):
        smoothness_certificate(CubicForm.fermat(field(2, 17)))


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


def test_fermat_traces_over_f2():
    assert trace_sequence(CubicForm.fermat(F2), 2, budget=10**6) == (1, 7)


def test_trace_sequence_rejects_singular():
    with pytest.raises(NotSmoothOrBadReduction):
        trace_sequence(cone_f7(), 2, budget=10**6)


def test_trace_sequence_and_frobenius_class_share_the_weil_check():
    xyz = CubicForm.from_ints(F7, [int(e == (1, 1, 1, 0)) for e in MONOMIALS])
    with pytest.raises(NotSmoothOrBadReduction) as traces:
        trace_sequence(xyz, 2)
    with pytest.raises(NotSmoothOrBadReduction) as evidence:
        frobenius_class(xyz, build_class_table())
    # three planes: 3 q^2 + 1 points, so t_1 = 2q = 14 is out of range
    assert str(traces.value) == str(evidence.value) == "point count 148 over GF(7^1) violates the Weil shape"


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
    assert ev7.pinned
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


def test_frobenius_class_refuses_certified_nonsmooth():
    # the cone has 9 rational lines and more than 27 over GF(49): no class fits
    table = build_class_table()
    assert smoothness_certificate(cone_f7()).status == NOT_SMOOTH
    with pytest.raises(NotSmoothOrBadReduction, match="no conjugacy class"):
        frobenius_class(cone_f7(), table)


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
        out = {e: fs.zero() for e in MONOMIALS}
        for c, e in zip(form.coeffs, MONOMIALS):
            if fs.is_zero(c):
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
                        if fs.is_zero(scalar):
                            continue
                        key = tuple(x + (1 if t == j else 0) for t, x in enumerate(mono))
                        val = fs.mul(coeff, scalar)
                        nxt[key] = fs.add(nxt.get(key, fs.zero()), val)
                expansion = nxt
            for mono, coeff in expansion.items():
                out[mono] = fs.add(out[mono], coeff)
        return CubicForm(fs, tuple(out[e] for e in MONOMIALS))

    for _ in range(3):
        changed = substitute(base, random_gl4())
        ev = frobenius_class(changed, table, point_budget=10**6, line_budget=10**7)
        assert ev.class_ids == ev_base.class_ids
