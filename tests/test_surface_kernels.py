"""Cross-checks of the vectorized surface kernels against slow references,
and the per-form memo: one point search per form, one plane pass and one
extension per level.

Each kernel is compared, exhaustively over GF(2), GF(3), GF(4), GF(5), GF(7)
and GF(9), with a straightforward implementation: `slow_eval` at every point,
the full per-pair expansion of the restricted binary cubic for the line scan,
and Gaussian elimination on the stacked 4x4 matrix for the intersection
labels.  The point count from the lines through a rational point is compared
with direct evaluation at every point of P^3, from every rational point of
the form, over extensions too.  The seeded forms have many zero coefficients,
and the points include every pattern of zero coordinates.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from frobenius import matching_classes, prediction
from plucker import line_intersection_labels

from delpezzo import surface
from delpezzo.certify import build_class_table
from delpezzo.gf import embed, field
from delpezzo.surface import (
    MONOMIALS,
    CubicForm,
    LineInP3,
    _count_through_point,
    _eval_forms,
    _grid,
    _move,
    _polar_roots,
    _strata,
    NotSmoothOrBadReduction,
    SCAN_CHUNK,
    SOLVE_STEP,
    SMOOTH_CERTIFIED,
    count_points,
    frobenius_class,
    lines_on_surface,
    singular_point,
    smoothness_certificate,
    trace_sequence,
)

FIELDS = [field(2), field(3), field(2, 2), field(5), field(7), field(3, 2)]
FIELD_IDS = [repr(fs) for fs in FIELDS]


def seeded_forms(fs):
    """Random forms with many zero coefficients, and structured ones with many
    lines (three planes, a cone, a plane times a conic), with vanishing
    partials (a perfect cube in characteristic 3) or that take a rare branch
    of the line solver."""
    rng = random.Random(f"kernels/{fs!r}")
    q = fs.order
    out = []
    for density in (0.2, 0.5, 1.0):
        coeffs = [rng.randrange(1, q) if rng.random() < density else 0 for _ in range(20)]
        if not any(coeffs):
            coeffs[rng.randrange(20)] = 1
        out.append(CubicForm.from_ints(fs, coeffs))

    def monomials(*exponents):
        coeffs = [0] * 20
        for e in exponents:
            coeffs[MONOMIALS.index(e)] = 1
        return CubicForm.from_ints(fs, coeffs)

    out.append(CubicForm.fermat(fs))
    out.append(monomials((1, 1, 1, 0)))  # xyz
    out.append(monomials((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)))  # a cone
    out.append(monomials((2, 0, 0, 1), (0, 1, 1, 1)))  # w (x^2 + yz)
    # x^2 y + xyw + zw^2: a first row solved along a line on which the other
    # polar is a quadratic without roots, in each of the fields above
    out.append(monomials((2, 1, 0, 0), (1, 1, 0, 1), (0, 0, 1, 2)))
    return out


def projective_points(fs):
    """Every point of P^3(F_q) with first nonzero coordinate 1, in counter
    order."""
    out = []
    for lead in range(4):
        for rest in itertools.product(range(fs.order), repeat=3 - lead):
            out.append((0,) * lead + (1,) + rest)
    return out


def slow_eval(fs, terms, point):
    """sum of c * prod x_v^e_v with the field's scalar arithmetic."""
    x = [fs.from_int(c) for c in point]
    acc = 0
    for c, e in terms:
        term = c
        for v, mult in enumerate(e):
            for _ in range(mult):
                term = fs.mul(term, x[v])
        acc = fs.add(acc, term)
    return fs.to_int(acc)


def slow_value(form, point):
    return slow_eval(form.field, form.terms, point)


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_eval_terms_batch_matches_evaluate_everywhere(fs):
    tab = fs.tables
    pts = projective_points(fs) + [(0, 0, 0, 0)]  # every pattern of zeros
    for form in seeded_forms(fs):
        terms = form.terms
        arrays = [np.array([p[v] for p in pts], dtype=np.int64) for v in range(4)]
        got = _eval_forms(tab, (terms,), arrays)[0]
        assert got.tolist() == [slow_value(form, p) for p in pts]
        # scalar coordinates, alone and mixed with arrays
        for p in pts[:: max(1, len(pts) // 60)] + [(0, 0, 0, 0), (1, 0, 0, 0)]:
            want = slow_value(form, p)
            scalars = [np.int64(x) for x in p]
            assert _eval_forms(tab, (terms,), scalars)[0].tolist() == [want]
            mixed = scalars[:2] + [np.array([p[2]] * 2), np.array([p[3]] * 2)]
            assert _eval_forms(tab, (terms,), mixed)[0].tolist() == [want] * 2


def test_log_tables_cover_four_zero_factors():
    for fs in FIELDS:
        tab = fs.tables
        zero_log = int(tab.LOG[0])
        assert zero_log > 4 * (fs.order - 2)
        assert len(tab.EXP) >= 4 * zero_log + fs.order
        assert not tab.EXP[zero_log:].any()


def chunk_points(chunks):
    """The points of `_grid` chunks, in order."""
    out = []
    for head, axis, t in chunks:
        assert int(head[axis]) == 1
        rows = max(np.size(h) for h in head)
        cols = [np.broadcast_to(h, (rows,)) for h in head]
        for r in range(rows):
            point = [int(c[r]) for c in cols]
            for x in t:
                point[axis] = int(x)
                out.append(tuple(point))
    return out


def strata_points(q):
    return chunk_points(_strata(q))


def grid_points(q, pivot, free):
    """The points with coordinate `pivot` 1, the `free` ones ranging over the
    field in counter order (the last fastest) and the others 0."""
    out = []
    for values in itertools.product(range(q), repeat=len(free)):
        point = [int(v == pivot) for v in range(4)]
        for col, x in zip(free, values):
            point[col] = x
        out.append(tuple(point))
    return out


#: the (pivot, free coordinates) of every grid: the strata of P^3 and of the
#: plane w = 0, and both rows of every line-scan pivot pattern
GRIDS = sorted(
    {(lead, tuple(range(lead + 1, n))) for n in (3, 4) for lead in range(n)}
    | {(i, tuple(k for k in range(i + 1, 4) if k != j)) for i, j in itertools.combinations(range(4), 2)}
    | {(j, tuple(range(j + 1, 4))) for j in range(1, 4)}
)


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_grid_chunks_enumerate_points_along_the_last_free_coordinate(fs, monkeypatch):
    q = fs.order
    for chunk in (surface.SCAN_CHUNK, 5):
        monkeypatch.setattr(surface, "SCAN_CHUNK", chunk)
        for pivot, free in GRIDS:
            chunks = list(_grid(q, pivot, free))
            assert chunk_points(chunks) == grid_points(q, pivot, free)
            for head, axis, t in chunks:
                assert axis == (free[-1] if free else 3)
                # a free coordinate puts the whole field on the inner axis
                assert len(t) == (q if free else 1)
                assert max(np.size(h) for h in head) * len(t) <= max(chunk, len(t))


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_point_scans_match_brute_force(fs, monkeypatch):
    points = projective_points(fs)
    for chunk in (surface.SCAN_CHUNK, 5):
        monkeypatch.setattr(surface, "SCAN_CHUNK", chunk)
        assert strata_points(fs.order) == points
        for form in seeded_forms(fs):  # fresh forms: each form scans once
            zeros = [p for p in points if slow_value(form, p) == 0]
            assert count_points(form) == len(zeros)
            grads = [[(fs.from_int(c), e) for c, e in g] for g in form.gradient_terms]
            singular = [p for p in zeros if all(slow_eval(fs, g, p) == 0 for g in grads)]
            assert singular_point(form, max_extension=1) == ((1, singular[0]) if singular else None)


# -- point counts from the lines through a rational point ---------------------


def all_points(fs):
    """Encoded coordinate arrays of every point of P^3(F_q)."""
    q = fs.order
    parts = []
    for lead in range(4):
        coords = [np.full(q ** (3 - lead), int(v == lead), dtype=np.int64) for v in range(4)]
        mesh = np.meshgrid(*[np.arange(q, dtype=np.int64)] * (3 - lead), indexing="ij")
        for col, arr in zip(range(lead + 1, 4), mesh):
            coords[col] = arr.ravel()
        parts.append(coords)
    return [np.concatenate(c) for c in zip(*parts)]


def direct_count(form):
    """The zeros of the form among all points of P^3, by direct evaluation."""
    values = _eval_forms(form.field.tables, (form.terms,), all_points(form.field))[0]
    return int(np.count_nonzero(values == 0))


#: base fields and the extension levels up to which counts are compared
COUNT_LEVELS = [(field(2), 3), (field(3), 3), (field(2, 2), 3),
                (field(5), 2), (field(7), 2), (field(3, 2), 2)]


@pytest.mark.parametrize("fs, levels", COUNT_LEVELS, ids=[repr(fs) for fs, _ in COUNT_LEVELS])
def test_count_from_every_rational_point_matches_direct_evaluation(fs, levels):
    singular_base = line_through_base = False
    for form in seeded_forms(fs):
        bigs = [field(fs.p, fs.k * m) for m in range(1, levels + 1)]
        want = [direct_count(form.extend(m)) for m in range(1, levels + 1)]
        assert [count_points(form.extend(m)) for m in range(1, levels + 1)] == want
        zeros = [p for p in projective_points(fs) if slow_value(form, p) == 0]
        for point in zeros:
            moved = _move(form, point)
            assert moved[MONOMIALS.index((0, 0, 0, 3))] == 0
            for big, n in zip(bigs, want):
                lift = embed(fs, big)
                assert _count_through_point(big.tables, tuple(lift(c) for c in moved)) == n
        # the base points include singular points and points on lines of X
        singular_base |= any(all(slow_eval(fs, g, p) == 0 for g in form.gradient_terms) for p in zeros)
        line_through_base |= bool(lines_on_surface(form))
    assert singular_base and line_through_base


def test_point_count_stays_small():
    # a count over GF(512) holds at most SCAN_CHUNK elements per temporary
    fs = field(2, 9)
    rng = random.Random("point count memory")
    coeffs = [rng.randrange(fs.order) for _ in range(20)]
    want = count_points(CubicForm.from_ints(fs, coeffs))  # builds the tables
    tracemalloc.start()
    try:
        assert count_points(CubicForm.from_ints(fs, coeffs)) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- the line scan, against the full per-pair expansion -----------------------


def old_lines_on_surface(form):
    """Every RREF row pair whose restricted binary cubic has all four
    coefficients zero, each coefficient expanded term by term."""
    fs = form.field
    q = fs.order
    tab = fs.tables
    terms = [(enc, tuple(v for v, mult in enumerate(e) for _ in range(mult))) for enc, e in form.terms]

    def evaluate(coords):
        acc = np.zeros(len(coords[0]), dtype=np.int64)
        for enc, factors in terms:
            term = np.full(len(coords[0]), enc, dtype=np.int64)
            for v in factors:
                term = tab.mul(term, coords[v])
            acc = tab.add(acc, term)
        return acc

    def row_grid(pivot, free):
        size = q ** len(free)
        coords = [np.zeros(size, dtype=np.int64) for _ in range(4)]
        coords[pivot] = np.ones(size, dtype=np.int64)
        if free:
            mesh = np.meshgrid(*([np.arange(q, dtype=np.int64)] * len(free)), indexing="ij")
            for col, arr in zip(free, mesh):
                coords[col] = arr.ravel()
        return coords

    out = []
    for i, j in itertools.combinations(range(4), 2):
        grid1 = row_grid(i, [k for k in range(4) if k > i and k != j])
        grid2 = row_grid(j, [k for k in range(4) if k > j])
        rows1 = np.nonzero(evaluate(grid1) == 0)[0]
        rows2 = np.nonzero(evaluate(grid2) == 0)[0]
        if len(rows1) == 0 or len(rows2) == 0:
            continue
        A = [np.repeat(c[rows1], len(rows2)) for c in grid1]
        B = [np.tile(c[rows2], len(rows1)) for c in grid2]
        c1 = np.zeros(len(A[0]), dtype=np.int64)
        c2 = np.zeros(len(A[0]), dtype=np.int64)
        for enc, (f0, f1, f2) in terms:
            coeff = np.full(len(A[0]), enc, dtype=np.int64)
            t1 = tab.mul(B[f0], tab.mul(A[f1], A[f2]))
            t1 = tab.add(t1, tab.mul(A[f0], tab.mul(B[f1], A[f2])))
            t1 = tab.add(t1, tab.mul(A[f0], tab.mul(A[f1], B[f2])))
            c1 = tab.add(c1, tab.mul(coeff, t1))
            t2 = tab.mul(A[f0], tab.mul(B[f1], B[f2]))
            t2 = tab.add(t2, tab.mul(B[f0], tab.mul(A[f1], B[f2])))
            t2 = tab.add(t2, tab.mul(B[f0], tab.mul(B[f1], A[f2])))
            c2 = tab.add(c2, tab.mul(coeff, t2))
        for idx in np.nonzero((c1 == 0) & (c2 == 0))[0]:
            row1 = tuple(int(A[v][idx]) for v in range(4))
            row2 = tuple(int(B[v][idx]) for v in range(4))
            out.append(LineInP3(fs, (i, j), row1, row2))
    return out


#: the branches of the line solver (`_lines_through`, `_polar_roots`)
SOLVER_BRANCHES = {"two roots", "one root", "no root", "linear", "point row",
                   "vacuous linear expansion", "vanishing quadratic expansion"}


def record_solver_branches(monkeypatch, q, taken):
    """Add to `taken` the name of every solver branch that a scan takes."""
    polar_roots, expand = surface._polar_roots, surface._expand
    root_counts = []

    def recording_polar_roots(tab, k0, k1, k2, line):
        s1, s2, count = polar_roots(tab, k0, k1, k2, line)
        quadratic = k2 != 0
        vanishing = (k0 == 0) & (k1 == 0) & ~quadratic
        for name, mask in (("two roots", quadratic & (count == 2)),
                           ("one root", quadratic & (count == 1)),
                           ("no root", quadratic & (count == 0)),
                           ("linear", ~quadratic & (k1 != 0)),
                           ("point row", ~line),
                           ("vanishing quadratic expansion", line & vanishing)):
            if mask.any():
                taken.add(name)
        assert (count[line & vanishing] == q).all() and (count[~line & vanishing] == 1).all()
        root_counts.append(count)
        return s1, s2, count

    def recording_expand(counts):
        # the linear stage's counts are 0, 1 or q (a vacuous condition)
        if not any(counts is c for c in root_counts) and (counts == q).any():
            taken.add("vacuous linear expansion")
        return expand(counts)

    monkeypatch.setattr(surface, "_polar_roots", recording_polar_roots)
    monkeypatch.setattr(surface, "_expand", recording_expand)


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_lines_on_surface_matches_full_expansion(fs, monkeypatch):
    # the seeded forms take every branch of the solver, with the default
    # slices and with slices of one row
    taken = set()
    record_solver_branches(monkeypatch, fs.order, taken)
    for form in seeded_forms(fs):
        want = old_lines_on_surface(form)
        assert lines_on_surface(form) == want
        monkeypatch.setattr(surface, "SCAN_CHUNK", 3)
        monkeypatch.setattr(surface, "SOLVE_STEP", 1)
        assert lines_on_surface(form) == want
        monkeypatch.setattr(surface, "SCAN_CHUNK", SCAN_CHUNK)
        monkeypatch.setattr(surface, "SOLVE_STEP", SOLVE_STEP)
    assert taken == SOLVER_BRANCHES


#: every field of order at most 9 but GF(7)
QUADRATIC_FIELDS = [field(2), field(3), field(2, 2), field(5), field(2, 3), field(3, 2)]


@pytest.mark.parametrize("fs", QUADRATIC_FIELDS, ids=repr)
def test_polar_root_count_matches_brute_force(fs):
    # every quadratic k0 + k1 s + k2 s^2 over the field, on line rows and on
    # point rows: the count is the number of roots s in the field, except on
    # a point row with all three coefficients 0, which is one point
    q = fs.order
    k0, k1, k2 = (np.array(c, dtype=np.int64) for c in zip(*itertools.product(range(q), repeat=3)))
    roots = [[s for s in range(q) if fs.add(fs.add(a, fs.mul(b, s)), fs.mul(c, fs.mul(s, s))) == 0]
             for a, b, c in zip(k0.tolist(), k1.tolist(), k2.tolist())]
    want = np.array([len(r) for r in roots])
    vanishing = (k0 == 0) & (k1 == 0) & (k2 == 0)
    for line in (True, False):
        s1, s2, count = _polar_roots(fs.tables, k0, k1, k2, np.full(len(k0), line))
        assert count.tolist() == np.where(vanishing & (not line), 1, want).tolist()
        # s1 and s2 are the roots of a quadratic that does not vanish
        for i, r in enumerate(roots):
            if not vanishing[i] and count[i]:
                assert sorted({int(s1[i]), int(s2[i])} if count[i] == 2 else {int(s1[i])}) == r


def frobenius_line(line, q):
    """The line with every coordinate raised to the q-th power: still in
    echelon form, since the map fixes 0 and 1."""
    fs = line.field
    return LineInP3(fs, line.pivots, tuple(fs.pow(x, q) for x in line.row1),
                    tuple(fs.pow(x, q) for x in line.row2))


@pytest.mark.parametrize("k", [2, 3], ids=["GF(64) from GF(4)", "GF(512) from GF(8)"])
def test_line_scans_past_the_reference(k):
    # past the fields of the O(q^4) reference: each line lies on X, the set
    # is stable under the Frobenius of the base field and holds the base
    # field's lines, and a smooth surface has at most 27
    fs = field(2, k)
    rng = random.Random(f"big line scans/{fs!r}")
    forms = []
    while len(forms) < 3:
        form = CubicForm.from_ints(fs, [rng.randrange(fs.order) if rng.random() < 0.6 else 0 for _ in range(20)])
        if smoothness_certificate(form).status == SMOOTH_CERTIFIED:
            forms.append(form)
    counts = []
    for form in forms:
        ext = form.extend(3)
        big = ext.field
        lines = lines_on_surface(ext)
        counts.append(len(lines))
        assert len(lines) <= 27 and len(set(lines)) == len(lines)
        for line in lines:
            # F(A + tB) is a cubic in t: zero at 4 points, it has no nonzero coefficient
            for t in range(4):
                point = [big.add(a, big.mul(t, b)) for a, b in zip(line.row1, line.row2)]
                assert slow_value(ext, point) == 0
        assert {frobenius_line(line, fs.order) for line in lines} == set(lines)
        lift = embed(fs, big)
        for line in lines_on_surface(form):
            assert LineInP3(big, line.pivots, tuple(map(lift, line.row1)), tuple(map(lift, line.row2))) in lines
    assert max(counts) > 0


def test_line_scan_stays_small():
    # every scan temporary holds at most SCAN_CHUNK elements (256 KB of int64)
    fs = field(2, 9)
    rng = random.Random("line scan memory")
    form = CubicForm.from_ints(fs, [rng.randrange(fs.order) for _ in range(20)])
    assert smoothness_certificate(form).status == SMOOTH_CERTIFIED
    lines = lines_on_surface(form)  # builds the field tables
    tracemalloc.start()
    try:
        assert lines_on_surface(form) == lines
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_line_scan_sees_many_lines():
    # the cross-check above is only as good as the line sets it compares
    for fs in FIELDS:
        counts = [len(old_lines_on_surface(f)) for f in seeded_forms(fs)]
        assert max(counts) >= fs.order**2 + fs.order + 1


# -- intersection labels, against Gaussian elimination ------------------------


def old_meets(l1, l2):
    """Two lines meet iff the stacked 4x4 matrix has rank < 4."""
    fs = l1.field
    rows = [[fs.from_int(x) for x in r] for r in (l1.row1, l1.row2, l2.row1, l2.row2)]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, 4) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fs.inv(rows[rank][col])
        rows[rank] = [fs.mul(x, inv) for x in rows[rank]]
        for r in range(4):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [fs.add(x, fs.neg(fs.mul(c, y))) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank < 4


def random_line(fs, rng):
    i, j = rng.choice(list(itertools.combinations(range(4), 2)))
    row1 = [0] * 4
    row2 = [0] * 4
    row1[i] = row2[j] = 1
    for k in range(i + 1, 4):
        if k != j:
            row1[k] = rng.randrange(fs.order) if rng.random() < 0.7 else 0
    for k in range(j + 1, 4):
        row2[k] = rng.randrange(fs.order) if rng.random() < 0.7 else 0
    return LineInP3(fs, (i, j), tuple(row1), tuple(row2))


@pytest.mark.parametrize("fs", FIELDS, ids=FIELD_IDS)
def test_line_intersection_labels_match_elimination(fs):
    rng = random.Random(f"labels/{fs!r}")
    sets = [[random_line(fs, rng) for _ in range(30)]]
    for form in seeded_forms(fs):
        lines = lines_on_surface(form)
        sets.append(rng.sample(lines, min(len(lines), 30)))
    for lines in sets:
        n = len(lines)
        want = np.full((n, n), -1, dtype=np.int64)
        for a, b in itertools.combinations(range(n), 2):
            want[a, b] = want[b, a] = int(old_meets(lines[a], lines[b]))
        assert line_intersection_labels(lines).tolist() == want.tolist()
    assert line_intersection_labels([]).shape == (0, 0)


# -- the per-form memo --------------------------------------------------------

#: the budgets of the `surface` command test in test_cli.py
POINT_BUDGET = 300_000
LINE_BUDGET = 10**8


def outcome(fn, *args, **kwargs):
    """fn's result, or the message of the NotSmoothOrBadReduction it raised."""
    try:
        return fn(*args, **kwargs)
    except NotSmoothOrBadReduction as exc:
        return str(exc)


def traces_of(form):
    return outcome(trace_sequence, form, 6, budget=POINT_BUDGET)


def evidence_of(form, table):
    return outcome(frobenius_class, form, table, point_budget=POINT_BUDGET,
                   line_budget=LINE_BUDGET)


def analyse(form, table):
    """The `surface` command's sequence on one form."""
    return smoothness_certificate(form), traces_of(form), evidence_of(form, table)


@pytest.mark.parametrize("fs", [field(2), field(5)], ids=repr)
def test_one_point_scan_and_one_extension_per_level(fs, monkeypatch):
    table = build_class_table()
    strata_calls, builds = [], []
    strata, embed = surface._strata, surface.embed

    def counting_strata(q, n=4):
        strata_calls.append((q, n))
        return strata(q, n)

    def counting_embed(src, dst):
        builds.append(dst.order)
        return embed(src, dst)

    monkeypatch.setattr(surface, "_strata", counting_strata)
    monkeypatch.setattr(surface, "embed", counting_embed)
    verdict, traces, evidence = analyse(CubicForm.fermat(fs), table)
    assert verdict.status == surface.SMOOTH_CERTIFIED and evidence.pinned
    levels = [fs.order**m for m in range(1, 7) if fs.order ** (3 * m) <= POINT_BUDGET]
    assert len(traces) == len(levels) >= 2
    # one search of P^3 for the base form's rational point, one pass over
    # the plane per level, one extension build per level
    assert [q for q, n in strata_calls if n == 4] == [fs.order]
    assert sorted(q for q, n in strata_calls if n == 3) == levels
    assert sorted(builds) == sorted(set(builds)) and set(levels[1:]) <= set(builds)


@pytest.mark.parametrize("fs", [field(2), field(3)], ids=repr)
def test_memo_does_not_change_results(fs):
    table = build_class_table()
    for form in seeded_forms(fs):
        analyse(form, table)
        for m in (2, 3):
            lift = embed(fs, field(fs.p, fs.k * m))
            assert form.extend(m) is form.extend(m)
            assert form.extend(m).coeffs == tuple(lift(c) for c in form.coeffs)
        fresh = (traces_of(CubicForm(fs, form.coeffs)),
                 evidence_of(CubicForm(fs, form.coeffs), table))
        assert (traces_of(form), evidence_of(form, table)) == fresh
        # frobenius_class before trace_sequence
        other = CubicForm(fs, form.coeffs)
        evidence = evidence_of(other, table)
        assert (traces_of(other), evidence) == fresh


def test_frobenius_class_matches_the_cycle_type_reference(monkeypatch):
    # seeded smooth forms, with the budgets of the `surface` command and with
    # budgets that stop at the base field (wide ambiguity sets): the classes
    # are those the cycle types predict from every measurement the gates
    # allow, and a measurement is taken exactly when the candidates left
    # predict at least two outcomes
    table = build_class_table()
    scans = {"lines": surface.lines_on_surface, "traces": surface.count_points}
    taken = []

    def recording(kind):
        def scan(ext):
            taken.append((kind, ext.field.k))
            return scans[kind](ext)
        return scan

    monkeypatch.setattr(surface, "lines_on_surface", recording("lines"))
    monkeypatch.setattr(surface, "count_points", recording("traces"))
    sizes = set()
    skipped = 0
    for fs in (field(2), field(2, 2), field(5), field(7)):
        rng = random.Random(f"frobenius/{fs!r}")
        q = fs.order
        smooth = 0
        while smooth < 6:
            form = CubicForm.from_ints(fs, [rng.randrange(q) for _ in range(20)])
            if smoothness_certificate(form).status != SMOOTH_CERTIFIED:
                continue
            smooth += 1
            for point_budget, line_budget in ((POINT_BUDGET, LINE_BUDGET), (q**3, 0), (0, q**4)):
                taken.clear()
                ev = frobenius_class(form, table, point_budget, line_budget)
                # every measurement the gates allow, in the order lines, then
                # points, level by level
                allowed = []
                for m in range(1, 13):
                    if surface._fits(q, m, 4, line_budget):
                        allowed.append(("lines", m, len(scans["lines"](form.extend(m)))))
                    if surface._fits(q, m, 3, point_budget):
                        count = scans["traces"](form.extend(m))
                        allowed.append(("traces", m, surface._weil_trace(count, q, m)))
                measured = {"lines": {}, "traces": {}}
                separating = []
                for kind, m, value in allowed:
                    left = matching_classes(table, measured["lines"], measured["traces"])
                    outcomes = {prediction(table.rows[c], kind, m) for c in left}
                    if len(outcomes) > 1:
                        separating.append((kind, m, value))
                    else:
                        assert outcomes == {value}
                        skipped += 1
                    measured[kind][m] = value
                assert taken == [(kind, fs.k * m) for kind, m, _ in separating]
                assert list(ev.class_ids) == matching_classes(table, measured["lines"], measured["traces"])
                assert ev.line_counts == {m: v for kind, m, v in separating if kind == "lines"}
                assert ev.traces == {m: v for kind, m, v in separating if kind == "traces"}
                sizes.add(len(ev.class_ids))
    assert 1 in sizes and max(sizes) > 1 and skipped
