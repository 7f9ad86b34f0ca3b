"""The exact smoothness test against an exhaustive singular-point search and
against the reduced row echelon form of tests/macaulay.py.

`smoothness_certificate` decides smoothness by one Macaulay rank over F_q.
The reference is `singular_point(form, max_extension=4)`, a scan of the
surface over GF(q^m) for m = 1..4 for a point where all four partials vanish.
Up to m = 4 the scan is exhaustive.  A cubic surface with finitely many
singular points is irreducible and has at most 4 of them (Cayley), so
Frobenius permutes them in orbits of size at most 4 and each is defined over
some GF(q^m) with m <= 4.  A singular locus of positive dimension is stable
under Frobenius and has an F_q-point: it contains a line defined over F_q
(a surface singular along a line, a cone over a singular plane cubic, a
double plane, two conjugate planes), or a conic defined over F_q (a plane
plus a quadric; conics over finite fields have rational points), or it is
the union of the lines where three conjugate planes meet, which pass through
one rational point.  So the scan finds a singular point exactly when the
surface is singular.
"""

import random

import pytest
from macaulay import reference_verdict
from plucker import line_intersection_labels

from delpezzo.gf import embed, field
from delpezzo.incidence import find_isomorphism, incidence_graph
from delpezzo.lattice import DegreeContext
from delpezzo.surface import (
    MONOMIALS,
    NOT_SMOOTH,
    SMOOTH_CERTIFIED,
    CubicForm,
    _field_width,
    lines_on_surface,
    singular_point,
    smoothness_certificate,
)

#: (field, number of seeded forms); GF(3) takes the degree-9 path
CROSS_CHECK = [(field(2), 200), (field(3), 40), (field(2, 2), 10)]


def seeded_forms(fs, n):
    """n forms with many zero coefficients (a fifth to all of them nonzero)."""
    rng = random.Random(f"smoothness/{fs!r}")
    out = []
    for i in range(n):
        density = (0.2, 0.35, 0.5, 0.75, 1.0)[i % 5]
        coeffs = [rng.randrange(1, fs.order) if rng.random() < density else 0 for _ in range(20)]
        if not any(coeffs):
            coeffs[rng.randrange(20)] = 1
        out.append(CubicForm.from_ints(fs, coeffs))
    return out


def monomials(degree):
    """Degree-`degree` monomials in graded lex order, built independently."""
    out = [(a, b, c, degree - a - b - c) for a in range(degree + 1)
           for b in range(degree + 1 - a) for c in range(degree + 1 - a - b)]
    return sorted(out, reverse=True)


def ideal_generators(form):
    """(terms, degree) of the partials, and of F in characteristic 3, with
    the derivative taken directly from the coefficients."""
    fs = form.field
    gens = []
    for v in range(4):
        terms = []
        for c, e in zip(form.coeffs, MONOMIALS):
            scaled = fs.mul(c, fs.scalar(e[v]))
            if scaled:
                terms.append((scaled, tuple(x - (i == v) for i, x in enumerate(e))))
        gens.append((terms, 2))
    if fs.p == 3:
        gens.append(([(c, e) for c, e in zip(form.coeffs, MONOMIALS) if c], 3))
    return gens


def annihilates(form, witness):
    """Whether the functional `witness` on degree-D monomials (D = 5, or 9 in
    characteristic 3) kills every multiple x^a G of every generator G."""
    fs = form.field
    degree = 9 if fs.p == 3 else 5
    column = {e: i for i, e in enumerate(monomials(degree))}
    assert len(witness) == len(column)
    for terms, d in ideal_generators(form):
        for a in monomials(degree - d):
            acc = 0
            for c, e in terms:
                acc = fs.add(acc, fs.mul(c, witness[column[tuple(x + y for x, y in zip(a, e))]]))
            if acc:
                return False
    return True


@pytest.mark.parametrize("fs,n", CROSS_CHECK, ids=[repr(fs) for fs, _ in CROSS_CHECK])
def test_exact_test_matches_exhaustive_singular_point_search(fs, n):
    columns = 220 if fs.p == 3 else 56
    statuses = set()
    for form in seeded_forms(fs, n):
        verdict = smoothness_certificate(form)
        hit = singular_point(form, max_extension=4)
        assert verdict.status == (NOT_SMOOTH if hit else SMOOTH_CERTIFIED), (form.coeffs, hit)
        assert verdict.columns == columns
        if verdict.status == SMOOTH_CERTIFIED:
            assert verdict.rank == columns and verdict.witness is None
        else:
            assert verdict.rank < columns and any(verdict.witness)
            assert annihilates(form, verdict.witness), form.coeffs
        statuses.add(verdict.status)
    assert statuses == {SMOOTH_CERTIFIED, NOT_SMOOTH}


def test_smooth_forms_have_at_most_27_lines_with_the_schlafli_graph():
    """The 27-line incidence check, over GF(2^m) for m <= 6, on the seeded
    GF(2) forms the exact test calls smooth."""
    graph = incidence_graph(DegreeContext(3))
    split = 0
    for form in seeded_forms(field(2), 200):
        if smoothness_certificate(form).status != SMOOTH_CERTIFIED:
            continue
        for m in range(1, 7):
            lines = lines_on_surface(form.extend(m))
            assert len(lines) <= 27, (form.coeffs, m)
            if len(lines) == 27:
                assert find_isomorphism(line_intersection_labels(lines), graph) is not None
                split += 1
                break
    assert split >= 5  # 8 of the seeded smooth forms split by GF(64)


def twisted_cayley(q):
    """The Cayley cubic e_3(L_0, ..., L_3) = sum_i prod_(j != i) L_j with
    L_i = x + b_i y + b_i^2 z + b_i^3 w and b_i = a^(q^i), a a primitive
    element of GF(q^4).  Frobenius permutes the L_i cyclically, so the form
    is defined over F_q, and its four nodes (where three L_i vanish) form one
    Frobenius orbit: they lie over GF(q^4) and over no smaller field."""
    base, big = field(q), field(q, 4)
    lift = embed(base, big)
    down = {lift(c): c for c in range(base.order)}
    a = int(big.tables.EXP[1])
    linear = [[big.pow(big.pow(a, q**i), v) for v in range(4)] for i in range(4)]
    coeffs = dict.fromkeys(MONOMIALS, 0)
    for skip in range(4):
        product = {(0, 0, 0, 0): 1}
        for form in linear[:skip] + linear[skip + 1:]:
            nxt = {}
            for e, c in product.items():
                for v in range(4):
                    key = tuple(x + (i == v) for i, x in enumerate(e))
                    nxt[key] = big.add(nxt.get(key, 0), big.mul(c, form[v]))
            product = nxt
        for e, c in product.items():
            coeffs[e] = big.add(coeffs[e], c)
    return CubicForm(base, tuple(down[coeffs[e]] for e in MONOMIALS))


#: a GF(2) form whose singular points all lie over GF(16); the budgeted
#: search up to GF(q^3) and the line scans left it undetermined
SINGULAR_OVER_GF16 = (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0)


@pytest.mark.parametrize("form", [
    CubicForm.from_ints(field(2), list(SINGULAR_OVER_GF16)),
    twisted_cayley(2),
    twisted_cayley(3),
], ids=["gf2-form", "cayley-q2", "cayley-q3"])
def test_singular_only_over_gf_q4_is_not_smooth(form):
    assert singular_point(form, max_extension=3) is None
    assert singular_point(form, max_extension=4)[0] == 4
    verdict = smoothness_certificate(form)
    assert verdict.status == NOT_SMOOTH
    assert annihilates(form, verdict.witness)


def moved_cone(fs, seed=0):
    """The cone over a seeded plane cubic with its vertex at a seeded point
    (a, b, c, 1): G(x - a w, y - b w, z - c w).  Singular at the vertex, off
    every coordinate point, so its witness has many distinct entries."""
    rng = random.Random(f"cone/{fs!r}/{seed}")
    vertex = [rng.randrange(fs.order) for _ in range(3)]
    # x_i - v_i w, as exponents -> coefficient
    linear = [{tuple(int(j == i) for j in range(4)): 1, (0, 0, 0, 1): fs.neg(v)} for i, v in enumerate(vertex)]
    coeffs = dict.fromkeys(MONOMIALS, 0)
    for e in MONOMIALS:
        if e[3]:
            continue
        product = {(0, 0, 0, 0): rng.randrange(1, fs.order)}
        for i in range(3):
            for _ in range(e[i]):
                nxt = {}
                for a, c in product.items():
                    for b, d in linear[i].items():
                        key = tuple(x + y for x, y in zip(a, b))
                        nxt[key] = fs.add(nxt.get(key, 0), fs.mul(c, d))
                product = nxt
        for a, c in product.items():
            coeffs[a] = fs.add(coeffs[a], c)
    return CubicForm(fs, tuple(coeffs[e] for e in MONOMIALS))


#: (field, number of seeded forms): 8-bit fields up to GF(2^7), 16-bit ones
#: for GF(2^9) and for small odd p, 32-bit ones for GF(251)
REFERENCE_FIELDS = [(field(2), 60), (field(2, 2), 40), (field(2, 3), 40), (field(2, 4), 20), (field(2, 9), 10),
                    (field(3), 6), (field(5), 20), (field(7), 20), (field(3, 2), 4), (field(5, 2), 10),
                    (field(251), 10)]


@pytest.mark.parametrize("fs,n", REFERENCE_FIELDS, ids=[repr(fs) for fs, _ in REFERENCE_FIELDS])
def test_verdict_matches_the_reduced_row_echelon_form(fs, n):
    """Status, rank and witness equal those of the RREF on seeded forms and a
    moved cone, smooth and singular ones both."""
    statuses = set()
    for form in seeded_forms(fs, n) + [moved_cone(fs)]:
        verdict = smoothness_certificate(form)
        assert verdict == reference_verdict(form), form.coeffs
        statuses.add(verdict.status)
    assert statuses == {SMOOTH_CERTIFIED, NOT_SMOOTH}


@pytest.mark.parametrize("form", [
    CubicForm.fermat(field(65521)),
    moved_cone(field(65521)),
    twisted_cayley(2),
    twisted_cayley(3),
], ids=["fermat-65521", "cone-65521", "cayley-q2", "cayley-q3"])
def test_verdict_matches_the_reference_past_32_bits_and_on_cayley(form):
    """GF(65521) packs 64-bit fields; the Cayley cubics are singular only over
    GF(q^4)."""
    assert smoothness_certificate(form) == reference_verdict(form)


def test_packed_field_widths():
    """The least width that no field can overflow: k + 1 bits in
    characteristic 2, (p - 1)(1 + columns k (p - 1)) otherwise, with 56
    columns or 220 for p = 3."""
    cases = {(2, 1): 8, (2, 7): 8, (2, 8): 16, (2, 15): 16, (2, 16): 32, (3, 1): 16, (3, 10): 16, (5, 2): 16,
             (7, 1): 16, (37, 1): 32, (251, 1): 32, (65521, 1): 64}
    assert {pk: _field_width(*pk, 220 if pk[0] == 3 else 56) for pk in cases} == cases
    # GF(31): 30 (1 + 56 * 30) = 50430 fits 16 bits, GF(37): 36 (1 + 56 * 36) does not
    assert _field_width(31, 1, 56) == 16
