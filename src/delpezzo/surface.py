"""Cubic surfaces over finite fields: points, lines, traces, and Frobenius data.

A surface is a nonzero quaternary cubic form, 20 coefficients (field elements,
that is counter encodings) in graded-lex monomial order with x > y > z > w.
Scans are vectorized over encodings in log domain, with the field's own
tables (`FieldSpec.tables`): a term c x^a y^b z^c w^d is one gather
EXP[LOG c + a LOG x + b LOG y + ...] from an exponent table that is zero past
the sentinel LOG 0, and terms add by XOR in characteristic 2, in prime-field
coordinates otherwise.  A scan grid is chunked along an inner axis, its last
free coordinate (w when none is free): F is a cubic in that coordinate whose
four coefficients are evaluated once per row of the other coordinates, so a
grid costs one evaluation per row and four gathers per point.

Points are counted from the lines through a rational point.  By
Chevalley-Warning the form has a zero P over its base field; the first in
counter order is moved to (0, 0, 0, 1) by a change of coordinates over the
base field, so that F = G0 + w G1 + w^2 G2.  Every other point is (v, s) on
the line through P and a point v of the plane w = 0, with s a root of
G0(v) + s G1(v) + s^2 G2(v): #X = 1 + the sum of those root counts over
P^2(F_Q), with Q for a line on X.  One rule counts the roots of a quadratic
(`_root_counts`), from one table per field of the roots of t^2 + t = c in
characteristic 2 and of t^2 = c otherwise (`_root_table`).

Lines are canonical 2x4 reduced row-echelon matrices.  The line through rows
A and B lies on the surface when the four coefficients of F(sA + tB) vanish:
F(A), F(B) and the polars sum_v B_v dF/dv(A), sum_v A_v dF/dv(B), an exact
identity in every characteristic, so the test is exact over small fields too.
A scan searches only the plane x0 = 0, which holds every second row B, and
solves for the first rows: the polar sum_v A_v dF/dv(B) is linear in A, so A
runs over a point or an affine line A0 + s D; along it the other polar is a
quadratic in s, whose roots come from the same table and whose number is the
same count (`_polar_roots`); F(A) is checked at those roots.  A vacuous
linear condition expands into q line rows and a quadratic that vanishes
identically into q point rows, so singular and reducible forms are scanned
exactly too.

Smoothness is decided exactly, by one rank over F_q (`smoothness_certificate`).
The surface is singular exactly where F and its four partials have a common
zero over the algebraic closure, that is where the ideal J they generate has
a zero.  For p != 3 the Euler identity 3F = sum_v x_v dF/dv puts F in the
ideal of the partials, and four quadrics without a common zero form a regular
sequence with Hilbert series (1 + t)^4, so X is smooth iff J contains all 56
quintics.  For p = 3, four general cubics of J_3 have no common zero when J
has none and form a regular sequence with Hilbert series (1 + t + t^2)^4, so
X is smooth iff J contains all 220 nonics.  Conversely, a common zero kills
every element of J but not every monomial.  The rank of the Macaulay matrix
(`_macaulay_matrix`) is that of J in the target degree and does not change
under field extension, so the test needs no extension field and no budget.

The rank and the witness come from one exact elimination on Python ints
(`_Packed`).  The columns are inserted one at a time, in column order, into a
basis keyed by leading entry; each is packed as one int, its entries above
the combination of input columns that it is (at first e_j).  A column that
keeps a nonzero entry joins the basis, so the rank is the size of the basis.
The first column f that reduces to zero is the first free column of the
reduced row echelon form: the columns before it are independent and column f
is a combination of them.  So exactly one kernel vector has 1 at f and no
entry past f, and both the tracked combination and the RREF's solution (1 at
f, the reduced rows' entries in column f, negated, at the pivots) are that
vector: the witness.  In characteristic 2 an entry is its encoding, a
product by x is a shift, a mask and a product with the low part of the
modulus, and a subtraction is one XOR.  In odd characteristic an entry is its
base-p digits, which grow lazily and are reduced when they lead or when a
vector joins the basis.

A `CubicForm` builds each extension, its encoded terms, its moved form, its
point count and its smoothness verdict once; `count_points` is a view of that
count, and an extension inherits the base form's moved form, lifted.
`trace_sequence`, `frobenius_class` and `singular_point` choose the levels m
they measure with one gate (`_fits`): GF(q^m) exists, q^m <= TABLE_FIELD_CAP,
and q^(dim m) is within the budget, dim 3 for a point count (the size of P^3)
and 4 for a line scan (the echelon row pairs); both cost about q^(2m), one
pass over a plane.  `trace_sequence` counts every level the gate allows;
`frobenius_class` measures only where the classes still left disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .gf import TABLE_FIELD_CAP, Element, FieldSpec, embed, field


@lru_cache(maxsize=None)
def _monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """The monomials of the given degree in x, y, z, w: graded lex, x > y > z > w."""
    exponents = itertools.product(range(degree + 1), repeat=4)
    return tuple(sorted((e for e in exponents if sum(e) == degree), reverse=True))


MONOMIALS = _monomials(3)

#: the default budget of the reference search `singular_point`
DEFAULT_POINT_BUDGET = 10**9


class NotSmoothOrBadReduction(RuntimeError):
    """Counting data inconsistent with a smooth cubic surface."""


# -- the surface --------------------------------------------------------------


@dataclass(frozen=True)
class CubicForm:
    """Nonzero cubic form; coeffs follow MONOMIALS order."""

    field: FieldSpec
    coeffs: tuple[Element, ...]
    _extensions: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != 20:
            raise ValueError("a quaternary cubic has exactly 20 coefficients")
        if not any(self.coeffs):
            raise ValueError("the zero form does not define a surface")

    @staticmethod
    def from_ints(fs: FieldSpec, encodings: list[int]) -> "CubicForm":
        return CubicForm(fs, tuple(fs.from_int(n) for n in encodings))

    @staticmethod
    def fermat(fs: FieldSpec) -> "CubicForm":
        """x^3 + y^3 + z^3 + w^3."""
        cubes = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
        return CubicForm(fs, tuple(int(e in cubes) for e in MONOMIALS))

    def extend(self, m: int) -> "CubicForm":
        """The same form over GF(q^m), built once per form and m."""
        if m == 1:
            return self
        ext = self._extensions.get(m)
        if ext is None:
            fs = self.field
            big = field(fs.p, fs.k * m)
            lift = embed(fs, big).table
            ext = self._extensions[m] = CubicForm(big, tuple(lift.take(self.coeffs).tolist()))
            # the extension counts its points from the base form's rational
            # point: one point search and one change of coordinates per form
            ext.__dict__["_moved"] = tuple(lift.take(self._moved).tolist())
        return ext

    @cached_property
    def terms(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(encoded coefficient, exponents) of every nonzero term."""
        return tuple((c, e) for c, e in zip(self.coeffs, MONOMIALS) if c)

    @cached_property
    def gradient_terms(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per variable, the encoded nonzero terms of the partial derivative."""
        fs = self.field
        out = []
        for v in range(4):
            terms = []
            for c, e in zip(self.coeffs, MONOMIALS):
                n = e[v] % fs.p  # the exponent as a prime-field scalar
                if c == 0 or n == 0:
                    continue
                scaled = c if n == 1 else fs.mul(c, n)
                lowered = tuple(x - 1 if i == v else x for i, x in enumerate(e))
                terms.append((scaled, lowered))
            out.append(tuple(terms))
        return tuple(out)

    @cached_property
    def _moved(self) -> tuple[Element, ...]:
        """The coefficients of the form with its first rational point (in
        counter order) moved to (0, 0, 0, 1); see `_move`."""
        point = next(z for z in (_chunk_zeros(self.field.tables, self.terms, chunk)
                                 for chunk in _strata(self.field.order)) if len(z[0]))
        return _move(self, tuple(int(c[0]) for c in point))

    @cached_property
    def _point_count(self) -> int:
        """The number of points of the surface, from the lines through its
        rational point (`_count_through_point`)."""
        return _count_through_point(self.field.tables, self._moved)


@lru_cache(maxsize=1024)
def _term_arrays(forms: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The encoded coefficients and the exponent matrix of the terms of
    `forms`, and the row at which each form starts, read-only since every
    caller shares them.  Each form leads with a zero term, so that none is
    empty."""
    rows = [term for terms in forms for term in ((0, (0, 0, 0, 0)), *terms)]
    encodings, exponents = zip(*rows)
    out = (np.array(encodings, dtype=np.int64), np.array(exponents, dtype=np.int64),
           np.cumsum([0] + [len(terms) + 1 for terms in forms[:-1]]))
    for array in out:
        array.flags.writeable = False
    return out


def _eval_forms(tab, forms: tuple, coords: list) -> np.ndarray:
    """Every form of `forms`, a tuple of term tuples (encoded coefficient,
    exponents), at the points `coords`, as a (forms, points) array.  Each
    coordinate is an encoded scalar or a 1-D array, all arrays of one length
    (length 1 if none).  Every term is one gather EXP[LOG c + sum_v e_v LOG
    coords[v]], all terms at once on a (terms, points) array of at most
    SCAN_CHUNK elements, point slice by point slice; a zero factor lands in
    the zero pad."""
    size = max((len(c) for c in coords if isinstance(c, np.ndarray)), default=1)
    encodings, exponents, starts = _term_arrays(forms)
    step = max(1, SCAN_CHUNK // len(encodings))
    if size > step:
        return np.concatenate([_eval_forms(tab, forms, [c[lo:lo + step] if isinstance(c, np.ndarray) else c
                                                        for c in coords])
                               for lo in range(0, size, step)], axis=1)
    logs = np.empty((4, size), dtype=np.int64)
    for v, c in enumerate(coords):
        logs[v] = tab.LOG[c]
    values = tab.EXP[tab.LOG[encodings][:, None] + exponents @ logs]
    if tab.COORDS is None:
        return np.bitwise_xor.reduceat(values, starts, axis=0)
    return (np.add.reduceat(tab.COORDS[values], starts, axis=0) % tab.fs.p) @ tab.PPOW


@lru_cache(maxsize=1024)
def _powers(terms: tuple, axis: int) -> tuple:
    """The terms of G_0, ..., G_3 in F = sum_k T^k G_k, T the coordinate `axis`."""
    return tuple(tuple(term for term in terms if term[1][axis] == k) for k in range(4))


def _eval_grid(tab, terms, head: list, axis: int, t: np.ndarray) -> np.ndarray:
    """The form at every pair of a head row (encoded coordinates: scalars or
    arrays of one length, 1 at `axis`) and a value of coordinate `axis` in
    `t`, as a (rows, len(t)) array.

    F = sum_k T^k G_k, T the axis coordinate: the G_k are evaluated on the
    rows only, and each power of T with a nonzero G_k costs one gather on the
    whole grid."""
    log_t = tab.LOG[t][None, :]
    powers = _powers(tuple(terms), axis)
    g = _eval_forms(tab, powers, head)
    acc = tab.add(np.zeros((1, len(t)), dtype=np.int64), g[0][:, None])
    for k in (1, 2, 3):
        if powers[k]:
            acc = tab.add(acc, tab.EXP[tab.LOG[g[k]][:, None] + k * log_t])
    return acc


def _chunk_zeros(tab, terms, chunk) -> list[np.ndarray]:
    """Encoded (X, Y, Z, W) arrays of the points of a `_grid` chunk where the
    form vanishes, in order."""
    head, axis, t = chunk
    values = _eval_grid(tab, terms, head, axis, t)
    rows, cols = np.nonzero(values == 0)
    out = [c[rows] if isinstance(c, np.ndarray) else np.full(len(rows), c) for c in head]
    out[axis] = t[cols]
    return out


def _zeros(tab, terms, chunks) -> list[np.ndarray]:
    """The zeros of the form in all `chunks`, in order (see `_chunk_zeros`)."""
    return [np.concatenate(c) for c in zip(*(_chunk_zeros(tab, terms, chunk) for chunk in chunks))]


#: elements per temporary of the point and line scans (at most 256 KB of
#: int64); with 2 and 8 MB temporaries the density benchmark's job took about
#: 15k minor page faults, with 256 KB about 300 (glibc malloc, Linux)
SCAN_CHUNK = 1 << 15

#: rows per slice of `_lines_through`, whose largest temporary holds the
#: points A0, D and A0 + D of each row: 12 elements a row
SOLVE_STEP = SCAN_CHUNK // 12


def _grid(q: int, pivot: int, free):
    """The points with coordinate `pivot` 1, the `free` ones ranging over the
    field in counter order and the others 0, in chunks of about SCAN_CHUNK
    points.  A chunk is (head, axis, t): every pair of a head row (encoded
    coordinates: scalars or arrays of one length, 1 at `axis`) and a value of
    coordinate `axis` in `t`, head-major.  The axis is the last free
    coordinate, so that F is a cubic in it on the whole chunk, or W when none
    is free."""
    head_free = list(free)
    if head_free:
        axis, t = head_free.pop(), np.arange(q, dtype=np.int64)
    else:
        axis, t = 3, np.full(1, int(pivot == 3), dtype=np.int64)
    size = q ** len(head_free)
    rows = max(1, SCAN_CHUNK // len(t))
    for lo in range(0, size, rows):
        idx = np.arange(lo, min(lo + rows, size), dtype=np.int64)
        head: list = [np.int64(v == pivot or v == axis) for v in range(4)]
        for n, col in enumerate(head_free):
            head[col] = (idx // q ** (len(head_free) - 1 - n)) % q
        yield head, axis, t


def _strata(q: int, n: int = 4):
    """All of P^(n-1)(F_q), as the points of P^3 with the coordinates from n
    on 0, in counter order: stratum s has coordinate s equal to 1, the ones
    before it 0 and the n - 1 - s after it free."""
    for lead in range(n):
        yield from _grid(q, lead, range(lead + 1, n))


def _move(form: CubicForm, point) -> tuple[Element, ...]:
    """The coefficients of F(A v), A the matrix whose first three columns are
    the unit vectors other than e_s, in order, and whose last is `point`, a
    zero of F with first nonzero coordinate 1, at s.  The moved form vanishes
    at (0, 0, 0, 1) and has the points of F over every extension.  With u
    the point of the plane x_s = 0 with coordinates v_0, v_1, v_2, F(A v) is
    F(u + w P) = F(u) + w sum_i P_i dF/dx_i(u) + w^2 sum_i u_i dF/dx_i(P),
    the polar expansion of the line scan."""
    fs = form.field
    s = point.index(1)
    others = [i for i in range(4) if i != s]
    out = dict.fromkeys(MONOMIALS, 0)

    def put(c, e, k):
        # c times the monomial e of the plane x_s = 0, times w^k
        if c and not e[s]:
            key = tuple(e[i] for i in others) + (k,)
            out[key] = fs.add(out[key], c)

    at_point = [np.int64(x) for x in point]
    for c, e in form.terms:
        put(c, e, 0)
    for i, grad in enumerate(form.gradient_terms):
        for c, e in grad:
            put(fs.mul(point[i], c), e, 1)
        put(int(_eval_forms(fs.tables, (grad,), at_point)[0, 0]), tuple(int(v == i) for v in range(4)), 2)
    return tuple(out[e] for e in MONOMIALS)


@lru_cache(maxsize=None)
def _root_table(fs: FieldSpec) -> np.ndarray:
    """Per encoding c, a root t in the field of t^2 + t = c in characteristic
    2, of t^2 = c otherwise, and -1 where there is none."""
    tab = fs.tables
    t = np.arange(fs.order, dtype=np.int64)
    square = tab.mul(t, t)
    table = np.full(fs.order, -1, dtype=np.int64)
    table[tab.add(square, t) if tab.COORDS is None else square] = t
    return table


def _root_counts(tab, g0, g1, g2) -> np.ndarray:
    """Elementwise, the roots s in the field of g0 + s g1 + s^2 g2, and the
    field order where all three vanish."""
    q = tab.fs.order
    roots = _root_table(tab.fs)
    linear = np.where(g1 != 0, 1, np.where(g0 != 0, 0, q))
    if tab.COORDS is None:
        # s = (g1 / g2) t turns it into t^2 + t = g0 g2 / g1^2, with 2 roots
        # or none; with g1 = 0 the one root is the square root of g0 / g2
        inverse_log = (q - 1 - tab.LOG[g1]) % (q - 1)
        counts = np.where(roots >= 0, 2, 0)
        quadratic = np.where(g1 != 0, counts[tab.EXP[tab.LOG[g0] + tab.LOG[g2] + 2 * inverse_log]], 1)
    else:
        # 2, 1 or 0 roots as the discriminant is a nonzero square, 0 or neither
        counts = np.where(roots > 0, 2, roots + 1)
        four_g0_g2 = tab.EXP[int(tab.LOG[tab.fs.scalar(4)]) + tab.LOG[g0] + tab.LOG[g2]]
        quadratic = counts[tab.add(tab.EXP[2 * tab.LOG[g1]], tab.NEG[four_g0_g2])]
    return np.where(g2 != 0, quadratic, linear)


def _count_through_point(tab, moved) -> int:
    """#X(F_Q) for a form (coefficients in MONOMIALS order) that vanishes at
    P = (0, 0, 0, 1): F = G0 + W G1 + W^2 G2, and every other point of X is
    (v, s) on the line through P and a point v of the plane W = 0, with s a
    root of G0(v) + s G1(v) + s^2 G2(v) (`_root_counts`)."""
    terms = [(c, e) for c, e in zip(moved, MONOMIALS) if c]
    g = [[(c, e[:3] + (0,)) for c, e in terms if e[3] == k] for k in range(3)]
    count = 1
    for chunk in _strata(tab.fs.order, 3):
        g0, g1, g2 = (_eval_grid(tab, g_k, *chunk) for g_k in g)
        count += int(_root_counts(tab, g0, g1, g2).sum())
    return count


def _fits(q: int, m: int, dim: int, budget: int) -> bool:
    """The level gate: GF(q^m) exists (it has tables) and q^(dim m) <= budget,
    a nominal size that the depth of reports is pinned to: P^3(GF(q^m)) for a
    point count (dim 3), the echelon row pairs for a line scan (dim 4)."""
    return q ** (dim * m) <= budget and q**m <= TABLE_FIELD_CAP


def count_points(form: CubicForm) -> int:
    """|{P in P^3(F_q) : F(P) = 0}|, the form's count from the lines through
    its rational point."""
    return form._point_count


def singular_point(
    form: CubicForm, budget: int = DEFAULT_POINT_BUDGET, max_extension: int = 3
) -> tuple[int, tuple[int, int, int, int]] | None:
    """A point of the surface over GF(q^m), m <= max_extension, where all four
    partials vanish; returns (m, point encodings) or None if none found within
    budget.  The reference search that the exact `smoothness_certificate`
    replaced: one scan of the surface's points per extension."""
    q = form.field.order
    for m in range(1, max_extension + 1):
        if not _fits(q, m, 3, budget):
            break
        ext = form.extend(m)
        tab = ext.field.tables
        pts = _zeros(tab, ext.terms, _strata(ext.field.order))
        singular = np.ones(len(pts[3]), dtype=bool)
        for g_terms in ext.gradient_terms:
            singular &= _eval_forms(tab, (g_terms,), pts)[0] == 0
        hits = np.flatnonzero(singular)
        if len(hits):
            return m, tuple(int(p[hits[0]]) for p in pts)
    return None


# -- lines ---------------------------------------------------------------


@dataclass(frozen=True)
class LineInP3:
    """A line as its canonical RREF 2x4 matrix (integer-encoded entries)."""

    field: FieldSpec
    pivots: tuple[int, int]
    row1: tuple[int, int, int, int]
    row2: tuple[int, int, int, int]


def lines_on_surface(form: CubicForm) -> list[LineInP3]:
    """All lines of P^3(F_q) contained in the surface, sorted by (pivots,
    row1, row2).

    The second row B of a line with pivots (i, j) is a zero of F in the plane
    x0 = 0 with lead coordinate j.  One pass over that plane finds them all
    (at most 3(q + 1) unless x0 divides F: each of the q + 1 lines of the plane
    through a point off the curve meets it at most three times), and
    `_lines_through` solves for the first rows of their lines.
    """
    fs = form.field
    q = fs.order
    plane = (chunk for lead in (1, 2, 3) for chunk in _grid(q, lead, range(lead + 1, 4)))
    zeros = _zeros(fs.tables, form.terms, plane)
    out = [line for lo in range(0, len(zeros[0]), SOLVE_STEP)
           for line in _lines_through(form, [z[lo:lo + SOLVE_STEP] for z in zeros])]
    return sorted(out, key=lambda line: (line.pivots, line.row1, line.row2))


#: per pivot pair (i, j), the free coordinates of the first row (v > i,
#: v != j), padded in front with 4, a coordinate that is dropped
_FREE = np.array([[([4, 4] + [v for v in range(i + 1, 4) if v != j])[-2:] for j in range(4)]
                  for i in range(3)], dtype=np.int64)


def _expand(counts: np.ndarray):
    """(row, k) for every row and every k < counts[row], row-major, in slices
    of at most SOLVE_STEP pairs (a longer row in a slice of its own); empty
    slices are skipped."""
    ends = np.cumsum(counts)
    starts = ends - counts
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + SOLVE_STEP, side="right")))
        rows = np.repeat(np.arange(lo, hi), counts[lo:hi])
        if len(rows):
            yield rows, np.arange(starts[lo], ends[hi - 1]) - starts[rows]
        lo = hi


def _lines_through(form: CubicForm, b: list[np.ndarray]) -> list[LineInP3]:
    """The lines on the surface whose second row is one of the zeros `b`
    (encoded arrays) of F in the plane x0 = 0, unsorted.

    Per zero B, with lead j, and pivot i < j, the first row is A = e_i + sum
    a_v e_v over the free coordinates v > i, v != j, and the line lies on X
    when F(A) = 0 and both polars vanish.  The polar sum_v A_v dF/dv(B) is
    linear in A.  Solved for its last free coordinate c with a nonzero
    coefficient, it leaves a point or an affine line A0 + s D.  With no such
    coordinate it is vacuous or has no solution, and a vacuous one leaves
    every first row: q line rows A0 + a e_u + s D, one per value a of the
    first free coordinate u (one row if there is none).  The polar
    sum_v B_v dF/dv(A0 + s D) is a quadratic in s (`_polar_roots`), and
    F(A) = 0 is checked at its roots."""
    fs = form.field
    tab, q = fs.tables, fs.order
    lead = np.where(b[1] != 0, 1, np.where(b[2] != 0, 2, 3))
    ri, rb = np.nonzero(lead > np.arange(3)[:, None])  # the rows (B, i), i < lead
    rj = lead[rb]
    # dF/dv(B), and 0 at the dropped coordinate 4
    g = np.zeros((5, len(lead)), dtype=np.int64)
    g[:4] = _eval_forms(tab, form.gradient_terms, b)
    u, w = _FREE[ri, rj].T
    gi, gu, gw = g[ri, rb], g[u, rb], g[w, rb]
    c = np.where(gw != 0, w, u)  # solved for; expanded over when vacuous
    d = np.where(gw != 0, u, w)  # the direction
    # A0 = e_i + alpha e_c and D = e_d + beta e_c, with alpha = -g_i / g_c
    # and beta = -g_d / g_c; both are 0 on a vacuous row
    inverse = (q - 1 - tab.LOG[g[c, rb]]) % (q - 1)
    alpha = tab.NEG[tab.EXP[tab.LOG[gi] + inverse]]
    beta = tab.NEG[tab.EXP[tab.LOG[g[d, rb]] + inverse]]
    solved = (gu != 0) | (gw != 0)
    count = np.where(solved, 1, np.where(gi != 0, 0, np.where(u < 4, q, 1)))
    out = []
    for r, a in _expand(count):
        cols = np.arange(len(r))
        a0 = np.zeros((5, len(r)), dtype=np.int64)
        dd = np.zeros((5, len(r)), dtype=np.int64)
        a0[ri[r], cols] = 1
        a0[c[r], cols] = tab.add(alpha[r], a)  # a is 0 on a solved row
        dd[d[r], cols] = 1
        dd[c[r], cols] = beta[r]
        a0, dd = a0[:4], dd[:4]
        # sum_v B_v dF/dv at A0, D and A0 + D (B_0 = 0): the quadratic in s
        pts = np.concatenate([a0, dd, tab.add(a0, dd)], axis=1)
        values = _eval_forms(tab, form.gradient_terms[1:], pts).reshape(3, 3, -1)
        polar = np.zeros((3, len(r)), dtype=np.int64)
        for v in (1, 2, 3):
            polar = tab.add(polar, tab.mul(b[v][rb[r]], values[v - 1]))
        k0, k2, k02 = polar
        s1, s2, roots = _polar_roots(tab, k0, tab.add(k02, tab.NEG[tab.add(k0, k2)]), k2, dd.any(axis=0))
        for r2, k in _expand(roots):
            s = np.where(k == 0, s1[r2], np.where(k == 1, s2[r2], k))
            rows = tab.add(a0[:, r2], tab.mul(s, dd[:, r2]))
            for h in np.flatnonzero(_eval_forms(tab, (form.terms,), rows)[0] == 0):
                row = r[r2[h]]
                out.append(LineInP3(fs, (int(ri[row]), int(rj[row])), tuple(int(x) for x in rows[:, h]),
                                    tuple(int(z[rb[row]]) for z in b)))
    return out


def _polar_roots(tab, k0, k1, k2, line):
    """Elementwise, the roots s in the field of k0 + k1 s + k2 s^2, as (s1,
    s2, count), s1 the first of count roots (`_root_counts`).  Where all three
    vanish every s is a root: count is the field order on a line row (s1, s2 =
    0, 1, and k for the k-th root), 1 on a point row (`line` False)."""
    fs = tab.fs
    q = fs.order
    roots = _root_table(fs)
    LOG, EXP, NEG = tab.LOG, tab.EXP, tab.NEG

    def over(x, y):
        # x / y, and x where y = 0
        return EXP[LOG[x] + (q - 1 - LOG[y]) % (q - 1)]

    if tab.COORDS is None:
        # s = (k1 / k2) t with t^2 + t = k0 k2 / k1^2; s^2 = k0 / k2 when k1 = 0
        t = roots[over(tab.mul(k0, k2), tab.mul(k1, k1))]
        ratio = over(k1, k2)
        square = over(k0, k2)
        root = np.where(square == 0, 0, EXP[LOG[square] * (q // 2) % (q - 1)])
        s1 = np.where(k1 != 0, tab.mul(ratio, np.maximum(t, 0)), root)
        s2 = tab.add(s1, ratio)
    else:
        # s = (-k1 +- r) / (2 k2) with r^2 = k1^2 - 4 k0 k2
        r = np.maximum(roots[tab.add(tab.mul(k1, k1), NEG[EXP[int(LOG[fs.scalar(4)]) + LOG[k0] + LOG[k2]]])], 0)
        two_k2 = EXP[int(LOG[fs.scalar(2)]) + LOG[k2]]
        s1 = over(tab.add(NEG[k1], r), two_k2)
        s2 = over(tab.add(NEG[k1], NEG[r]), two_k2)
    s1 = np.where(k2 != 0, s1, np.where(k1 != 0, NEG[over(k0, k1)], 0))
    s2 = np.where(k2 != 0, s2, 1)
    point = ~line & (k0 == 0) & (k1 == 0) & (k2 == 0)
    return s1, s2, np.where(point, 1, _root_counts(tab, k0, k1, k2))


# -- traces and certificates ---------------------------------------------


def _weil_trace(count: int, q: int, m: int) -> int:
    """t_m from #X(GF(q^m)): a smooth cubic surface has an integer in [-7, 7]."""
    qm = q**m
    t, rest = divmod(count - qm * qm - 1, qm)
    if rest or abs(t) > 7:
        raise NotSmoothOrBadReduction(f"point count {count} over GF({q}^{m}) violates the Weil shape")
    return t


def trace_sequence(form: CubicForm, m_max: int, budget: int) -> tuple[int, ...]:
    """t_m = (#X(F_{q^m}) - q^{2m} - 1) / q^m for m = 1..m_max, stopping
    before the first m that the point gate (`_fits`) refuses."""
    q = form.field.order
    values = []
    for m in range(1, m_max + 1):
        if not _fits(q, m, 3, budget):
            break
        values.append(_weil_trace(count_points(form.extend(m)), q, m))
    return tuple(values)


SMOOTH_CERTIFIED = "smooth_certified"
NOT_SMOOTH = "not_smooth"


@lru_cache(maxsize=None)
def _macaulay_layout(degree: int) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Exponents as base-(degree + 1) keys, which add as the monomials
    multiply: the radix, the column of each degree-`degree` monomial by its
    key, and per generator degree d the keys of the monomials of degree
    `degree` - d, read-only since every call shares them."""
    radix = (degree + 1) ** np.arange(4)
    keys = np.array(_monomials(degree)) @ radix
    column = np.zeros((degree + 1) ** 4, dtype=np.int64)
    column[keys] = np.arange(len(keys))
    multipliers = {d: np.array(_monomials(degree - d)) @ radix for d in (2, 3)}
    for array in (radix, column, *multipliers.values()):
        array.flags.writeable = False
    return radix, column, multipliers


def _macaulay_matrix(form: CubicForm) -> np.ndarray:
    """Encoded Macaulay matrix of the ideal J of the singular locus in degree
    D: a row per generator times monomial of the complementary degree, a
    column per degree-D monomial in `_monomials(D)` order.  The generators are
    the four partials with D = 5, and for p = 3 F and then the partials, with
    D = 9 (F's rows first: `smoothness_certificate` leads with the last rows,
    and the partials' there fill in about half as much as F's)."""
    gens = [(g, 2) for g in form.gradient_terms]
    degree = 5
    if form.field.p == 3:
        gens.insert(0, (form.terms, 3))
        degree = 9
    radix, column, multipliers = _macaulay_layout(degree)
    blocks = []
    for terms, d in gens:
        block = np.zeros((len(multipliers[d]), len(_monomials(degree))), dtype=np.int64)
        if terms:
            coeffs, exponents = zip(*terms)
            keys = multipliers[d][:, None] + np.array(exponents) @ radix
            block[np.arange(len(block))[:, None], column[keys]] = coeffs
        blocks.append(block)
    return np.concatenate(blocks)


def _field_width(p: int, k: int, columns: int) -> int:
    """The bits of a packed field over GF(p^k), the least of 8, 16, 32 and 64
    that no field can overflow.  In characteristic 2 a product by x shifts
    an encoding one bit up before it is reduced, so a field needs k + 1 bits.
    In odd characteristic digits are reduced mod p lazily: a field starts at
    most p - 1, and each of the fewer than `columns` eliminations that a
    vector goes through adds at most k (p - 1)^2, a sum of k digit products."""
    bound = (1 << k + 1) - 1 if p == 2 else (p - 1) * (1 + columns * k * (p - 1))
    width = next((w for w in (8, 16, 32, 64) if bound < 1 << w), 0)
    assert width, f"GF({p}^{k}): a packed field would pass 64 bits"
    return width


class _Packed:
    """Vectors of `entries` entries over F_q, each packed into one Python int
    for `smoothness_certificate`: a field of `width` bits (`_field_width`) per
    coordinate over F_p, field i at bits i width to (i + 1) width.  An entry
    is one field in characteristic 2, its encoding, and k fields otherwise,
    its base-p digits, lowest first.  A vector's leading entry is its highest
    nonzero one."""

    def __init__(self, fs: FieldSpec, entries: int, columns: int):
        p, k = fs.p, fs.k
        self.width = _field_width(p, k, columns)
        self.fs, self.tab, self.entries = fs, fs.tables, entries
        self.digits = 1 if p == 2 else k
        self.entry_bits = self.width * self.digits
        self.dtype = np.dtype(f"<u{self.width // 8}")
        if p == 2:
            # bit k of every field, and x^k as an encoding: x v is v << 1 with
            # each bit k replaced by x^k
            self.high = self._ints(np.full((1, entries), 1 << k))[0]
            self.xk = sum(d << i for i, d in enumerate(fs.modulus[:k]))
        else:
            self.mask = (1 << self.width) - 1
            self.ppow = [p**i for i in range(k)]

    def _ints(self, fields: np.ndarray) -> list[int]:
        """Each row of a 2-D array of field values as one int."""
        raw = fields.astype(self.dtype, copy=False).tobytes()
        size = len(raw) // len(fields)
        return [int.from_bytes(raw[lo:lo + size], "little") for lo in range(0, len(raw), size)]

    def _fields(self, v: int, entries: int) -> np.ndarray:
        """The low `entries` entries of v as an (entries, digits) array, with
        every digit reduced."""
        raw = np.frombuffer(v.to_bytes(entries * self.entry_bits // 8, "little"), dtype=self.dtype)
        return (raw if self.tab.COORDS is None else raw % self.fs.p).reshape(entries, self.digits)

    def pack_columns(self, matrix: np.ndarray) -> list[int]:
        """Column j of an encoded matrix as one vector: the column's entries
        above e_j, the combination of the columns that it is."""
        rows, columns = matrix.shape
        fields = np.zeros((columns, columns + rows, self.digits), dtype=self.dtype)
        fields[np.arange(columns), np.arange(columns), 0] = 1
        fields[:, columns:] = matrix.T[..., None] if self.tab.COORDS is None else self.tab.COORDS[matrix.T]
        return self._ints(fields.reshape(columns, -1))

    def encodings(self, v: int, entries: int) -> tuple[int, ...]:
        """The low `entries` entries of v as encodings."""
        fields = self._fields(v, entries).astype(np.int64)
        return tuple(int(c) for c in (fields[:, 0] if self.tab.COORDS is None else fields @ self.tab.PPOW))

    def lead(self, top: int) -> int:
        """The encoding of the entry that `top` holds with its digits
        unreduced, in odd characteristic (in characteristic 2, `top`)."""
        p = self.fs.p
        if self.digits == 1:
            return top % p
        c = 0
        for w in self.ppow:
            c += (top & self.mask) % p * w
            top >>= self.width
        return c

    def _times_x(self, v: int) -> int:
        v <<= 1
        over = v & self.high
        return v ^ over ^ (over >> self.fs.k) * self.xk

    def basis(self, v: int, c: int) -> list[int]:
        """x^i v / c for i < k with every digit reduced, for a vector v with c
        at its leading entry: a basis vector with 1 there, and its products by
        x that `multiple` combines."""
        k = self.fs.k
        if self.tab.COORDS is None:
            # v / c from the products x^i v, then its own products by x
            shifts = [v if c == 1 else self.multiple(self.basis(v, 1), _scaling(self.tab, c))]
            for _ in range(k - 1):
                shifts.append(self._times_x(shifts[-1]))
            return shifts
        times = _scaling(self.tab, c)
        shifted = (self._fields(v, self.entries) @ times).astype(self.dtype) % self.fs.p
        return self._ints(shifted.reshape(k, -1))

    def multiple(self, shifts: list[int], c: int) -> int:
        """From the products x^i b of a vector b, c b in characteristic 2 (the
        XOR of those at the bits of c), and -c b otherwise (their sum with
        the digits of -c as factors)."""
        if self.fs.p == 2:
            out = 0
            for s in shifts:
                if c & 1:
                    out ^= s
                c >>= 1
            return out
        p = self.fs.p
        out = 0
        for w, s in zip(self.ppow, shifts):
            out += -(c // w) % p * s
        return out


@lru_cache(maxsize=None)
def _packing(fs: FieldSpec, entries: int, columns: int) -> _Packed:
    return _Packed(fs, entries, columns)


@lru_cache(maxsize=1024)
def _scaling(tab, c: int) -> int | np.ndarray:
    """In characteristic 2, 1 / c; otherwise the products by x^i / c on
    digits: entry [i, j] holds the digits of x^i x^j / c."""
    fs = tab.fs
    inverse = fs.inv(c)
    if tab.COORDS is None:
        return inverse
    logs = tab.LOG[tab.PPOW]
    times = tab.COORDS[tab.EXP[logs[:, None] + logs + int(tab.LOG[inverse])]]
    # a float product is exact here (sums of k products of digits) and
    # several times faster than an integer one
    times = times.astype(np.float64)
    times.flags.writeable = False
    return times


@dataclass(frozen=True)
class SmoothnessVerdict:
    """The rank of `_macaulay_matrix` over F_q against its column count.  A
    singular surface carries a witness: a nonzero vector, one entry per
    column, that the matrix maps to zero."""

    status: str
    rank: int
    columns: int
    witness: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return asdict(self)


def smoothness_certificate(form: CubicForm) -> SmoothnessVerdict:
    """Exact: SMOOTH_CERTIFIED when the Macaulay matrix has full column rank,
    NOT_SMOOTH with a kernel vector otherwise (see the module docstring).
    The verdict is memoised on the form, where `frobenius_class` reads it.

    The columns go into a basis one by one, in order.  While a column has a
    leading entry at which a basis vector leads, the multiple of that vector
    that clears it is subtracted; a column left with a leading entry joins
    the basis, scaled to lead with 1.  A column left with none is zero: the
    first such carries the witness, its tracked combination."""
    verdict = form.__dict__.get("_verdict")
    if verdict is not None:
        return verdict
    matrix = _macaulay_matrix(form)
    rows, columns = matrix.shape
    packed = _packing(form.field, columns + rows, columns)
    two = form.field.p == 2
    step = packed.entry_bits
    floor = step * columns  # the combination below the entries
    # by the lowest bit of the leading entry: the products by x and the
    # multiples used so far of each basis vector
    basis: dict[int, tuple[list[int], dict[int, int]]] = {}
    witness = None
    for v in packed.pack_columns(matrix):
        size = v.bit_length()
        while size > floor:
            at = (size - 1) // step * step
            top = v >> at
            c = top if two else packed.lead(top)
            if c:
                entry = basis.get(at)
                if entry is None:
                    basis[at] = (packed.basis(v, c), {})
                    break
                shifts, multiples = entry
                m = multiples.get(c)
                if m is None:
                    m = multiples[c] = packed.multiple(shifts, c)
                v = v ^ m if two else v + m
            if not two:
                v ^= v >> at << at  # the leading entry, now 0 mod p
            size = v.bit_length()
        else:
            if witness is None:
                witness = packed.encodings(v, columns)
    if len(basis) == columns:
        verdict = SmoothnessVerdict(SMOOTH_CERTIFIED, columns, columns)
    else:
        verdict = SmoothnessVerdict(NOT_SMOOTH, len(basis), columns, witness)
    form.__dict__["_verdict"] = verdict
    return verdict


@dataclass(frozen=True)
class FrobeniusEvidence:
    """Conjugacy classes consistent with the evidence of one smooth surface,
    and the measurements taken by level m: lines and traces over GF(q^m)."""

    class_ids: tuple[int, ...]
    line_counts: dict[int, int]
    traces: dict[int, int]

    @property
    def pinned(self) -> bool:
        return len(self.class_ids) == 1

    def to_json(self) -> dict:
        return {
            "class_ids": list(self.class_ids),
            "line_counts": {str(k): v for k, v in sorted(self.line_counts.items())},
            "traces": {str(k): v for k, v in sorted(self.traces.items())},
        }


def frobenius_class(form: CubicForm, class_table, point_budget: int, line_budget: int) -> FrobeniusEvidence:
    """The conjugacy classes consistent with the rational-line counts and
    traces over the extensions, and the measurements taken; raises, before
    any scan, on a form not certified smooth, and when no class fits.

    Over GF(q^m) a class predicts `fixed_lines[m - 1]` lines and the trace
    1 + `lattice_traces[m - 1]` (its class-table row: Swinnerton-Dyer's
    table of the 25 classes).  Level by level, lines first, a measurement is
    taken where its gate allows and the classes left predict different
    outcomes; the true class of a smooth surface is always left, so an
    outcome that all predict alike separates nothing."""
    verdict = smoothness_certificate(form)
    if verdict.status != SMOOTH_CERTIFIED:
        raise NotSmoothOrBadReduction(f"Frobenius evidence needs a smooth surface: the Macaulay "
                                      f"matrix has rank {verdict.rank} of {verdict.columns}")
    q = form.field.order
    rows = class_table.rows
    counts: dict[int, int] = {}
    traces: dict[int, int] = {}
    candidates = [row.class_id for row in rows]
    for m in range(1, len(rows[0].lattice_traces) + 1):
        lines = {c: rows[c].fixed_lines[m - 1] for c in candidates}
        if _fits(q, m, 4, line_budget) and len(set(lines.values())) > 1:
            counts[m] = len(lines_on_surface(form.extend(m)))
            candidates = [c for c in candidates if lines[c] == counts[m]]
        points = {c: 1 + rows[c].lattice_traces[m - 1] for c in candidates}
        if _fits(q, m, 3, point_budget) and len(set(points.values())) > 1:
            traces[m] = _weil_trace(count_points(form.extend(m)), q, m)
            candidates = [c for c in candidates if points[c] == traces[m]]
        if not candidates:
            raise NotSmoothOrBadReduction("no conjugacy class matches the evidence")
    return FrobeniusEvidence(tuple(candidates), counts, traces)


def splitting_degree(evidence: FrobeniusEvidence, class_table) -> int | tuple[int, ...]:
    """The order of the Frobenius class when pinned, else the order set."""
    orders = sorted({class_table.rows[c].element_order for c in evidence.class_ids})
    return orders[0] if len(orders) == 1 else tuple(orders)
