"""Cubic surfaces over finite fields: points, lines, traces, and Frobenius data.

A surface is a nonzero quaternary cubic form, 20 coefficients (field elements,
that is counter encodings) in graded-lex monomial order with x > y > z > w.
Scans are vectorized over encodings in log domain, with the field's own
tables (`FieldSpec.tables`): a term c x^a y^b z^c w^d is one gather
EXP[LOG c + a LOG x + b LOG y + ...] from an exponent table that is zero past
the sentinel LOG 0, and terms add by XOR in characteristic 2, in prime-field
coordinates otherwise.  Point scans take F as a cubic in w whose coefficients
are evaluated once per chunk of (x, y, z) rows.

Lines are canonical 2x4 reduced row-echelon matrices.  The line through rows
A and B lies on the surface when the four coefficients of F(sA + tB) vanish:
F(A), F(B) and the polars sum_v B_v dF/dv(A), sum_v A_v dF/dv(B), an exact
identity in every characteristic, so the test is exact over small fields too.

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

A `CubicForm` builds each extension, its encoded terms and its point count
once; `count_points` is a view of that count.  A point scan over GF(q^m) needs
q^(3m) within the point budget; a line scan needs q^(4m) within the line
budget and q^m within TABLE_FIELD_CAP, the order up to which fields have
tables.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .gf import TABLE_FIELD_CAP, Element, FieldSpec, embed, field
from .permgroup import fixed_points_of_power


@lru_cache(maxsize=None)
def _monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """The monomials of the given degree in x, y, z, w: graded lex, x > y > z > w."""
    exponents = itertools.product(range(degree + 1), repeat=4)
    return tuple(sorted((e for e in exponents if sum(e) == degree), reverse=True))


MONOMIALS = _monomials(3)

#: permissive default work budgets; drivers usually pass something smaller
DEFAULT_POINT_BUDGET = 10**9
DEFAULT_LINE_BUDGET = 10**8
#: extension levels `frobenius_class` gathers evidence over, at most
FROBENIUS_DEPTH = 12


class NotSmoothOrBadReduction(RuntimeError):
    """Counting data inconsistent with a smooth cubic surface."""


class BudgetExceeded(RuntimeError):
    """The operation would overrun the configured work budget."""


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

    def coefficient_encodings(self) -> list[int]:
        return list(self.coeffs)

    def evaluate(self, point: tuple[Element, Element, Element, Element]) -> Element:
        fs = self.field
        acc = 0
        for c, e in zip(self.coeffs, MONOMIALS):
            if c == 0:
                continue
            term = c
            for v, mult in enumerate(e):
                for _ in range(mult):
                    term = fs.mul(term, point[v])
            acc = fs.add(acc, term)
        return acc

    def extend(self, m: int) -> "CubicForm":
        """The same form over GF(q^m), built once per form and m."""
        if m == 1:
            return self
        ext = self._extensions.get(m)
        if ext is None:
            fs = self.field
            big = field(fs.p, fs.k * m)
            lift = embed(fs, big)
            ext = self._extensions[m] = CubicForm(big, tuple(lift(c) for c in self.coeffs))
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
                scaled = fs.mul(c, e[v] % fs.p)
                if scaled == 0:
                    continue
                lowered = tuple(x - 1 if i == v else x for i, x in enumerate(e))
                terms.append((scaled, lowered))
            out.append(tuple(terms))
        return tuple(out)

    @cached_property
    def _point_count(self) -> int:
        """One pass over P^3(F_q): the number of points of the surface."""
        tab, chunks = self.field.tables, _strata(self.field.order)
        return sum(int(np.count_nonzero(_eval_grid(tab, self.terms, head, w) == 0)) for head, w in chunks)


def _eval_terms_batch(tab, terms: list[tuple[int, tuple[int, ...]]], coords: list) -> np.ndarray:
    """Evaluate sum of c * prod coords[v]^e_v; each coordinate is an encoded
    scalar or a 1-D array, all arrays of one length (length 1 if none).
    The coefficient and the scalar coordinates fold into an offset into EXP
    (one at the zero sentinel skips the term); the array logs add to it."""
    shape = np.broadcast_shapes((1,), *(np.shape(c) for c in coords))
    zero_log = int(tab.LOG[0])
    logs = [tab.LOG[c] if np.ndim(c) else int(tab.LOG[c]) for c in coords]
    char2 = tab.COORDS is None
    acc = np.zeros(shape if char2 else shape + (tab.fs.k,), dtype=np.int64)
    for enc, e in terms:
        offset = int(tab.LOG[enc])
        part = 0
        for log, mult in zip(logs, e):
            if isinstance(log, int):
                offset += mult * log
            elif mult:
                part = part + (log if mult == 1 else mult * log)
        if offset >= zero_log:
            continue
        term = tab.EXP[offset:][part]
        if char2:
            acc ^= term
        else:
            acc += tab.COORDS[term]
    if char2:
        return acc
    return (acc % tab.fs.p) @ tab.PPOW


def _eval_grid(tab, terms, head: list, w: np.ndarray) -> np.ndarray:
    """The form at every pair of a head row (encoded X, Y, Z: scalars or
    arrays of one length) and a W in `w`, as a (rows, len(w)) array.

    F = sum_k W^k G_k(X, Y, Z): the 20 terms are evaluated on the rows only,
    and each of the four powers of W costs one gather on the whole grid."""
    one = np.int64(1)
    log_w = tab.LOG[w][None, :]
    acc = np.zeros((1, len(w)), dtype=np.int64)
    for k in range(4):
        terms_k = [t for t in terms if t[1][3] == k]
        if terms_k:
            g = _eval_terms_batch(tab, terms_k, head + [one])[:, None]
            acc = tab.add(acc, g if k == 0 else tab.EXP[tab.LOG[g] + k * log_w])
    return acc


def _zeros(tab, terms, chunks) -> list[np.ndarray]:
    """Encoded (X, Y, Z, W) arrays of the points of the (head, w) chunks
    where the form vanishes, in order."""
    parts = []
    for head, w in chunks:
        values = _eval_grid(tab, terms, head, w)
        rows, cols = np.nonzero(values == 0)
        parts.append([np.broadcast_to(c, values.shape[:1])[rows] for c in head] + [w[cols]])
    return [np.concatenate(c) for c in zip(*parts)]


#: points per evaluation chunk of the scans (2 MB per int64 array)
POINT_CHUNK = 1 << 18


def _grid(q: int, pivot: int, free):
    """The points with coordinate `pivot` 1, the `free` ones ranging over the
    field in counter order and the others 0, in chunks of about POINT_CHUNK
    points.  A chunk is (head, w): every pair of a head row (encoded X, Y, Z:
    scalars or arrays of one length) and a W in `w`, head-major."""
    head_free = [col for col in free if col < 3]
    w = np.arange(q, dtype=np.int64) if 3 in free else np.full(1, int(pivot == 3), dtype=np.int64)
    size = q ** len(head_free)
    rows = max(1, POINT_CHUNK // len(w))
    for lo in range(0, size, rows):
        idx = np.arange(lo, min(lo + rows, size), dtype=np.int64)
        head: list = [np.int64(v == pivot) for v in range(3)]
        for n, col in enumerate(head_free):
            head[col] = (idx // q ** (len(head_free) - 1 - n)) % q
        yield head, w


def _strata(q: int):
    """All of P^3(F_q) in counter order: stratum s has coordinate s equal to
    1, the ones before it 0 and the 3 - s after it free."""
    for lead in range(4):
        yield from _grid(q, lead, range(lead + 1, 4))


def _points_fit(q: int, m: int, budget: int) -> bool:
    """The point gate: a scan of P^3(GF(q^m)) costs q^(3m) evaluations."""
    return q ** (3 * m) <= budget


def _lines_fit(q: int, m: int, budget: int) -> bool:
    """The line gate: a scan over GF(q^m) costs q^(4m) row pairs and needs
    the field's arithmetic tables."""
    return q ** (4 * m) <= budget and q**m <= TABLE_FIELD_CAP


def count_points(form: CubicForm, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """|{P in P^3(F_q) : F(P) = 0}|, from the form's point scan."""
    q = form.field.order
    if not _points_fit(q, 1, budget):
        raise BudgetExceeded(f"point count over order-{q} field exceeds budget {budget}")
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
        if not _points_fit(q, m, budget):
            break
        ext = form.extend(m)
        tab = ext.field.tables
        pts = _zeros(tab, ext.terms, _strata(ext.field.order))
        singular = np.ones(len(pts[3]), dtype=bool)
        for g_terms in ext.gradient_terms:
            singular &= _eval_terms_batch(tab, g_terms, pts) == 0
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


#: pairs of surviving rows tested per chunk of the line scan
PAIR_CHUNK = 1 << 20


def lines_on_surface(
    form: CubicForm, budget: int = DEFAULT_LINE_BUDGET
) -> list[LineInP3]:
    """All lines of P^3(F_q) contained in the surface.

    Per RREF pivot pattern, the rows A with F(A) = 0 and B with F(B) = 0
    survive; the gradient is evaluated once per surviving row, so testing the
    two polars of a pair costs at most eight products.
    """
    fs = form.field
    q = fs.order
    if not _lines_fit(q, 1, budget):
        raise BudgetExceeded(f"line enumeration over order-{q} field exceeds budget {budget} or the field cap")
    tab = fs.tables
    out: list[LineInP3] = []

    def polar_logs(rows, columns):
        return {v: tab.LOG[_eval_terms_batch(tab, form.gradient_terms[v], rows)] for v in columns}

    for i, j in itertools.combinations(range(4), 2):
        free1 = [k for k in range(i + 1, 4) if k != j]
        free2 = list(range(j + 1, 4))
        a = _zeros(tab, form.terms, _grid(q, i, free1))
        if len(a[0]) == 0:
            continue
        b = _zeros(tab, form.terms, _grid(q, j, free2))
        if len(b[0]) == 0:
            continue
        n1, n2 = len(a[0]), len(b[0])
        # B is 1 at its pivot j, free on free2 and 0 elsewhere, so
        # sum_v B_v dF/dv(A) needs dF/dv(A) only there; likewise for A
        da = polar_logs(a, [j] + free2)
        db = polar_logs(b, [i] + free1)
        log_a = {v: tab.LOG[a[v]][:, None] for v in free1}
        log_b = {v: tab.LOG[b[v]][None, :] for v in free2}
        chunk = max(1, PAIR_CHUNK // n2)
        for lo in range(0, n1, chunk):
            rows = slice(lo, lo + chunk)
            c1 = tab.EXP[da[j][rows]][:, None]
            for v in free2:
                c1 = tab.add(c1, tab.EXP[da[v][rows, None] + log_b[v]])
            c2 = tab.EXP[db[i]][None, :]
            for v in free1:
                c2 = tab.add(c2, tab.EXP[log_a[v][rows] + db[v][None, :]])
            hits = (c1 == 0) & (c2 == 0)
            out.extend(
                LineInP3(fs, (i, j), tuple(int(c[lo + r1]) for c in a), tuple(int(c[r2]) for c in b))
                for r1, r2 in zip(*np.nonzero(hits))
            )
    return out


# -- traces and certificates ---------------------------------------------


def _weil_trace(count: int, q: int, m: int) -> int:
    """t_m from #X(GF(q^m)): a smooth cubic surface has an integer in [-7, 7]."""
    qm = q**m
    t, rest = divmod(count - qm * qm - 1, qm)
    if rest or abs(t) > 7:
        raise NotSmoothOrBadReduction(f"point count {count} over GF({q}^{m}) violates the Weil shape")
    return t


def trace_sequence(
    form: CubicForm, m_max: int, budget: int = DEFAULT_POINT_BUDGET
) -> tuple[int, ...]:
    """t_m = (#X(F_{q^m}) - q^{2m} - 1) / q^m for m = 1..m_max, stopping
    before the first m whose point scan exceeds the budget."""
    q = form.field.order
    values = []
    for m in range(1, m_max + 1):
        if not _points_fit(q, m, budget):
            break
        values.append(_weil_trace(count_points(form.extend(m), budget=budget), q, m))
    return tuple(values)


SMOOTH_CERTIFIED = "smooth_certified"
NOT_SMOOTH = "not_smooth"


def _macaulay_matrix(form: CubicForm) -> np.ndarray:
    """Encoded Macaulay matrix of the ideal J of the singular locus in degree
    D: a row per generator times monomial of the complementary degree, a
    column per degree-D monomial in `_monomials(D)` order.  The generators are
    the four partials with D = 5, and for p = 3 also F, with D = 9."""
    gens = [(g, 2) for g in form.gradient_terms]
    degree = 5
    if form.field.p == 3:
        gens.append((form.terms, 3))
        degree = 9
    # exponents as base-(D + 1) keys, which add as the monomials multiply
    radix = (degree + 1) ** np.arange(4)
    columns = np.array(_monomials(degree)) @ radix
    index = np.zeros((degree + 1) ** 4, dtype=np.int64)
    index[columns] = np.arange(len(columns))
    blocks = []
    for terms, d in gens:
        multipliers = np.array(_monomials(degree - d)) @ radix
        block = np.zeros((len(multipliers), len(columns)), dtype=np.int64)
        if terms:
            coeffs, exponents = zip(*terms)
            keys = multipliers[:, None] + np.array(exponents) @ radix
            block[np.arange(len(multipliers))[:, None], index[keys]] = coeffs
        blocks.append(block)
    return np.concatenate(blocks)


def _row_reduce(tab, matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of an encoded matrix,
    and its pivot columns."""
    m = matrix.copy()
    pivots: list[int] = []
    for col in range(m.shape[1]):
        rank = len(pivots)
        nonzero = np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        # rows from `rank` on are zero left of `col`: scale the pivot to 1
        inverse = tab.fs.order - 1 - tab.LOG[m[rank, col]]
        m[rank, col:] = tab.EXP[tab.LOG[m[rank, col:]] + inverse]
        factors = m[:, col].copy()
        factors[rank] = 0
        hit = np.flatnonzero(factors)
        m[hit, col:] = tab.add(m[hit, col:], tab.NEG[tab.mul(factors[hit, None], m[rank, col:])])
        pivots.append(col)
    return m[: len(pivots)], pivots


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
    NOT_SMOOTH with a kernel vector otherwise (see the module docstring)."""
    tab = form.field.tables
    matrix = _macaulay_matrix(form)
    reduced, pivots = _row_reduce(tab, matrix)
    columns = matrix.shape[1]
    if len(pivots) == columns:
        return SmoothnessVerdict(SMOOTH_CERTIFIED, columns, columns)
    # set the first free column to 1 and solve the reduced rows for the pivots
    free = min(set(range(columns)) - set(pivots))
    witness = np.zeros(columns, dtype=np.int64)
    witness[free] = 1
    witness[pivots] = tab.NEG[reduced[:, free]]
    return SmoothnessVerdict(NOT_SMOOTH, len(pivots), columns, tuple(int(x) for x in witness))


@dataclass(frozen=True)
class FrobeniusEvidence:
    """Conjugacy classes consistent with the counting evidence of one surface."""

    class_ids: tuple[int, ...]
    line_counts: dict[int, int]
    traces: tuple[int, ...]

    @property
    def pinned(self) -> bool:
        return len(self.class_ids) == 1

    def to_json(self) -> dict:
        return {
            "class_ids": list(self.class_ids),
            "line_counts": {str(k): v for k, v in sorted(self.line_counts.items())},
            "traces": list(self.traces),
        }


def _matching_classes(class_table, counts: dict[int, int], traces: dict[int, int]):
    out = []
    for row in class_table.rows:
        if any(fixed_points_of_power(row.cycle_type, m) != c for m, c in counts.items()):
            continue
        if any(1 + row.lattice_traces[m - 1] != t for m, t in traces.items()):
            continue
        out.append(row.class_id)
    return out


def frobenius_class(
    form: CubicForm,
    class_table,
    point_budget: int = DEFAULT_POINT_BUDGET,
    line_budget: int = DEFAULT_LINE_BUDGET,
) -> FrobeniusEvidence:
    """Every conjugacy class consistent with the rational-line counts over the
    extensions and traces within budget; raises when no class fits.

    Evidence is gathered adaptively, shallow extensions first, and stops as
    soon as a single class remains: the ambiguity set always contains the true
    class of a smooth reduction, so early singletons are exact."""
    q = form.field.order
    counts: dict[int, int] = {}
    traces: dict[int, int] = {}
    candidates = _matching_classes(class_table, counts, traces)
    for m in range(1, FROBENIUS_DEPTH + 1):
        if len(candidates) == 1:
            break
        if _lines_fit(q, m, line_budget):
            counts[m] = len(lines_on_surface(form.extend(m), budget=line_budget))
        if _points_fit(q, m, point_budget):
            traces[m] = _weil_trace(count_points(form.extend(m), budget=point_budget), q, m)
        candidates = _matching_classes(class_table, counts, traces)
        if not candidates:
            raise NotSmoothOrBadReduction("no conjugacy class matches the evidence")
    trace_tuple = tuple(traces[m] for m in sorted(traces))
    return FrobeniusEvidence(tuple(candidates), counts, trace_tuple)


def splitting_degree(evidence: FrobeniusEvidence, class_table) -> int | tuple[int, ...]:
    """The order of the Frobenius class when pinned, else the order set."""
    orders = sorted({class_table.rows[c].element_order for c in evidence.class_ids})
    return orders[0] if len(orders) == 1 else tuple(orders)
