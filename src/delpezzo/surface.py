"""Cubic surfaces over finite fields: points, lines, traces, and Frobenius data.

A surface is a nonzero quaternary cubic form, 20 coefficients in graded-lex
monomial order with x > y > z > w.  Scans are vectorized over integer-encoded
field elements in log domain: a term c x^a y^b z^c w^d is one gather
EXP[LOG c + a LOG x + b LOG y + ...] from an exponent table that is zero past
the sentinel LOG 0, and terms add by XOR in characteristic 2, in prime-field
coordinates otherwise.  Point scans take F as a cubic in w whose coefficients
are evaluated once per chunk of (x, y, z) rows.

Lines are canonical 2x4 reduced row-echelon matrices.  The line through rows
A and B lies on the surface when the four coefficients of F(sA + tB) vanish:
F(A), F(B) and the polars sum_v B_v dF/dv(A), sum_v A_v dF/dv(B), an exact
identity in every characteristic, so the test is exact over small fields too.
Two lines meet when the Plucker pairing of their coordinates vanishes.
Smoothness is certified operationally: a singular point over a small extension
refutes it, and exactly 27 lines over some extension whose intersection graph
matches the degree-3 incidence graph certifies it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .gf import Element, FieldSpec, embed, field
from .incidence import find_isomorphism, incidence_graph
from .lattice import DegreeContext
from .permgroup import fixed_points_of_power

#: degree-3 monomials in x, y, z, w: graded lex, x > y > z > w
MONOMIALS: tuple[tuple[int, int, int, int], ...] = tuple(
    sorted(
        (e for e in itertools.product(range(4), repeat=4) if sum(e) == 3),
        reverse=True,
    )
)

LINE_ENUMERATION_FIELD_CAP = 2**16
TABLE_FIELD_CAP = 2**16

#: permissive default work budgets; drivers usually pass something smaller
DEFAULT_POINT_BUDGET = 10**9
DEFAULT_LINE_BUDGET = 10**8


class NotSmoothOrBadReduction(RuntimeError):
    """Counting data inconsistent with a smooth cubic surface."""


class BudgetExceeded(RuntimeError):
    """The operation would overrun the configured work budget."""


# -- vectorized field arithmetic ---------------------------------------------


def _primitive_element(fs: FieldSpec) -> Element:
    n = fs.order - 1
    primes = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    for enc in range(2, fs.order):
        g = fs.from_int(enc)
        if all(fs.pow(g, n // ell) != fs.one() for ell in primes):
            return g
    return fs.from_int(1)  # GF(2): the only unit


class _Tables:
    """Branch-free vectorized arithmetic on integer-encoded field elements.

    A product of up to four factors is EXP[sum of their LOGs]: LOG[0] is a
    sentinel above every sum of four nonzero logs (at most 4(q-2)), and EXP is
    zero from the sentinel on, through four sentinels plus q, so any product
    with a zero factor lands in the zero pad."""

    def __init__(self, fs: FieldSpec):
        if fs.order > TABLE_FIELD_CAP:
            raise BudgetExceeded(f"no arithmetic tables above order {TABLE_FIELD_CAP}")
        self.fs = fs
        q = fs.order
        self.q = q
        gen = _primitive_element(fs)
        zero_log = 4 * (q - 1)
        cycle = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, zero_log, dtype=np.int64)
        e = fs.one()
        for t in range(q - 1):
            enc = fs.to_int(e)
            cycle[t] = enc
            log[enc] = t
            e = fs.mul(e, gen)
        exp = np.zeros(4 * zero_log + q, dtype=np.int64)
        exp[:zero_log] = np.tile(cycle, 4)
        self.EXP = exp
        self.LOG = log
        if fs.p == 2:
            self.COORDS = None
            self.PPOW = None
        else:
            self.COORDS = np.array([fs.from_int(n) for n in range(q)], dtype=np.int64)
            self.PPOW = np.array([fs.p**i for i in range(fs.k)], dtype=np.int64)
        self.NEG = np.array([fs.to_int(fs.neg(fs.from_int(n))) for n in range(q)], dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.EXP[self.LOG[a] + self.LOG[b]]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.COORDS is None:
            return np.bitwise_xor(a, b)
        return ((self.COORDS[a] + self.COORDS[b]) % self.fs.p) @ self.PPOW


@lru_cache(maxsize=None)
def tables(fs: FieldSpec) -> _Tables:
    return _Tables(fs)


# -- the surface --------------------------------------------------------------


@dataclass(frozen=True)
class CubicForm:
    """Nonzero cubic form; coeffs follow MONOMIALS order."""

    field: FieldSpec
    coeffs: tuple[Element, ...]

    def __post_init__(self):
        if len(self.coeffs) != 20:
            raise ValueError("a quaternary cubic has exactly 20 coefficients")
        if all(self.field.is_zero(c) for c in self.coeffs):
            raise ValueError("the zero form does not define a surface")

    @staticmethod
    def from_ints(fs: FieldSpec, encodings: list[int]) -> "CubicForm":
        return CubicForm(fs, tuple(fs.from_int(n) for n in encodings))

    @staticmethod
    def fermat(fs: FieldSpec) -> "CubicForm":
        """x^3 + y^3 + z^3 + w^3."""
        one = fs.one()
        cube_positions = [MONOMIALS.index(e) for e in [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]]
        coeffs = [fs.zero()] * 20
        for pos in cube_positions:
            coeffs[pos] = one
        return CubicForm(fs, tuple(coeffs))

    def coefficient_encodings(self) -> list[int]:
        return [self.field.to_int(c) for c in self.coeffs]

    def evaluate(self, point: tuple[Element, Element, Element, Element]) -> Element:
        fs = self.field
        acc = fs.zero()
        for c, e in zip(self.coeffs, MONOMIALS):
            if fs.is_zero(c):
                continue
            term = c
            for v, mult in enumerate(e):
                for _ in range(mult):
                    term = fs.mul(term, point[v])
            acc = fs.add(acc, term)
        return acc

    def extend(self, m: int) -> "CubicForm":
        """The same form with coefficients embedded into GF(q^m)."""
        if m == 1:
            return self
        fs = self.field
        big = field(fs.p, fs.k * m)
        lift = embed(fs, big)
        return CubicForm(big, tuple(lift(c) for c in self.coeffs))

    def gradient(self) -> list[list[tuple[Element, tuple[int, int, int, int]]]]:
        """Per variable, the nonzero terms of the partial derivative."""
        fs = self.field
        out = []
        for v in range(4):
            terms = []
            for c, e in zip(self.coeffs, MONOMIALS):
                if e[v] == 0 or fs.is_zero(c):
                    continue
                scaled = tuple(e[v] * x % fs.p for x in c)
                if fs.is_zero(scaled):
                    continue
                lowered = tuple(x - 1 if i == v else x for i, x in enumerate(e))
                terms.append((scaled, lowered))
            out.append(terms)
        return out


def _eval_terms_batch(tab: _Tables, terms: list[tuple[int, tuple[int, ...]]], coords: list) -> np.ndarray:
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


def _form_terms(form: CubicForm) -> list[tuple[int, tuple[int, ...]]]:
    fs = form.field
    return [
        (fs.to_int(c), e)
        for c, e in zip(form.coeffs, MONOMIALS)
        if not fs.is_zero(c)
    ]


def _gradient_terms(form: CubicForm) -> list[list[tuple[int, tuple[int, ...]]]]:
    fs = form.field
    return [[(fs.to_int(c), e) for c, e in terms_v] for terms_v in form.gradient()]


def _eval_grid(tab: _Tables, terms, head: list, w: np.ndarray) -> np.ndarray:
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


def _zeros(tab: _Tables, terms, chunks) -> list[np.ndarray]:
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


def count_points(form: CubicForm, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """|{P in P^3(F_q) : F(P) = 0}| by iterating the four affine strata."""
    q = form.field.order
    if q**3 > budget:
        raise BudgetExceeded(f"point count over order-{q} field exceeds budget {budget}")
    tab = tables(form.field)
    terms = _form_terms(form)
    return sum(
        int(np.count_nonzero(_eval_grid(tab, terms, head, w) == 0))
        for head, w in _strata(q)
    )


def singular_point(
    form: CubicForm, budget: int = DEFAULT_POINT_BUDGET, max_extension: int = 3
) -> tuple[int, tuple[int, int, int, int]] | None:
    """A point of the surface over GF(q^m), m <= max_extension, where all four
    partials vanish; returns (m, point encodings) or None if none found within
    budget."""
    q = form.field.order
    for m in range(1, max_extension + 1):
        if q ** (3 * m) > budget:
            break
        ext = form.extend(m)
        tab = tables(ext.field)
        terms = _form_terms(ext)
        grads = _gradient_terms(ext)
        for chunk in _strata(ext.field.order):
            pts = _zeros(tab, terms, [chunk])
            if len(pts[3]) == 0:
                continue
            singular = np.ones(len(pts[3]), dtype=bool)
            for g_terms in grads:
                singular &= _eval_terms_batch(tab, g_terms, pts) == 0
                if not singular.any():
                    break
            if singular.any():
                i = int(np.flatnonzero(singular)[0])
                return m, tuple(int(p[i]) for p in pts)
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
    if q > LINE_ENUMERATION_FIELD_CAP:
        raise BudgetExceeded(f"line enumeration capped at field order {LINE_ENUMERATION_FIELD_CAP}")
    if (q**2 + 1) * (q**2 + q + 1) > budget:
        raise BudgetExceeded(f"line enumeration over order-{q} field exceeds budget {budget}")
    tab = tables(fs)
    terms = _form_terms(form)
    grads = _gradient_terms(form)
    out: list[LineInP3] = []

    def polar_logs(rows, columns):
        return {v: tab.LOG[_eval_terms_batch(tab, grads[v], rows)] for v in columns}

    for i, j in itertools.combinations(range(4), 2):
        free1 = [k for k in range(i + 1, 4) if k != j]
        free2 = list(range(j + 1, 4))
        a = _zeros(tab, terms, _grid(q, i, free1))
        if len(a[0]) == 0:
            continue
        b = _zeros(tab, terms, _grid(q, j, free2))
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


#: Plucker coordinates p_kl = r1_k r2_l - r1_l r2_k, k < l
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: the Hodge-Pedoe pairing sum_S sign(S) p_S p'_(complement of S): the
#: Laplace expansion of the 4x4 determinant along the first line's rows
_PLUCKER_SIGNS = (1, -1, 1, 1, -1, 1)


def line_intersection_labels(lines: list[LineInP3]) -> np.ndarray:
    """Pairwise meeting matrix (1 meets / 0 skew), diagonal -1.

    Two lines meet exactly when the Plucker pairing of their coordinates, the
    determinant of the stacked 4x4 matrix, vanishes."""
    n = len(lines)
    if n == 0:
        return np.full((0, 0), -1, dtype=np.int64)
    tab = tables(lines[0].field)
    r1 = np.array([line.row1 for line in lines], dtype=np.int64)
    r2 = np.array([line.row2 for line in lines], dtype=np.int64)
    logs = [
        tab.LOG[tab.add(tab.mul(r1[:, k], r2[:, l]), tab.NEG[tab.mul(r1[:, l], r2[:, k])])]
        for k, l in _PLUCKER_PAIRS
    ]
    pairing = np.zeros((n, n), dtype=np.int64)
    for s, sign in enumerate(_PLUCKER_SIGNS):
        term = tab.EXP[logs[s][:, None] + logs[5 - s][None, :]]
        pairing = tab.add(pairing, term if sign > 0 else tab.NEG[term])
    labels = (pairing == 0).astype(np.int64)
    np.fill_diagonal(labels, -1)
    return labels


# -- traces and certificates ---------------------------------------------


@dataclass(frozen=True)
class TraceSequence:
    """t_j = (#X(F_{q^j}) - q^{2j} - 1) / q^j for j = 1..m."""

    base_order: int
    values: tuple[int, ...]


def trace_sequence(
    form: CubicForm, m_max: int, budget: int = DEFAULT_POINT_BUDGET
) -> TraceSequence:
    q = form.field.order
    values = []
    for m in range(1, m_max + 1):
        if q ** (3 * m) > budget:
            break
        count = count_points(form.extend(m), budget=budget)
        qm = q**m
        num = count - qm * qm - 1
        if num % qm != 0:
            raise NotSmoothOrBadReduction(
                f"point count {count} over GF({q}^{m}) violates the Weil shape"
            )
        t = num // qm
        if abs(t) > 7:
            raise NotSmoothOrBadReduction(f"trace t_{m} = {t} out of [-7, 7]")
        values.append(t)
    return TraceSequence(q, tuple(values))


SMOOTH_CERTIFIED = "smooth_certified"
NOT_SMOOTH = "not_smooth"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SmoothnessVerdict:
    status: str
    reason: str
    line_counts: dict[int, int] = dataclass_field(default_factory=dict)
    splitting_extension: int | None = None
    witness: tuple | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "line_counts": {str(k): v for k, v in sorted(self.line_counts.items())},
            "splitting_extension": self.splitting_extension,
            "witness": list(self.witness) if self.witness else None,
        }


def smoothness_certificate(
    form: CubicForm,
    point_budget: int = DEFAULT_POINT_BUDGET,
    line_budget: int = DEFAULT_LINE_BUDGET,
    max_line_field: int = LINE_ENUMERATION_FIELD_CAP,
) -> SmoothnessVerdict:
    """Operational certificate: NOT_SMOOTH on a singular point over GF(q^m)
    (m <= 3) or a wrong line configuration; SMOOTH_CERTIFIED on exactly 27
    lines over some extension with the degree-3 incidence graph; otherwise
    UNDETERMINED."""
    q = form.field.order
    hit = singular_point(form, budget=point_budget)
    if hit is not None:
        return SmoothnessVerdict(
            NOT_SMOOTH, f"singular point over extension {hit[0]}", witness=hit
        )
    counts: dict[int, int] = {}
    m = 1
    while q ** (4 * m) <= line_budget and q**m <= max_line_field:
        lines = lines_on_surface(form.extend(m), budget=line_budget)
        counts[m] = len(lines)
        if len(lines) > 27:
            return SmoothnessVerdict(
                NOT_SMOOTH, f"{len(lines)} lines over extension {m}", line_counts=counts
            )
        if len(lines) == 27:
            labels = line_intersection_labels(lines)
            iso = find_isomorphism(labels, incidence_graph(DegreeContext(3)))
            if iso is None:
                return SmoothnessVerdict(
                    NOT_SMOOTH,
                    "27 lines with a wrong incidence graph",
                    line_counts=counts,
                )
            return SmoothnessVerdict(
                SMOOTH_CERTIFIED,
                f"27 lines over extension {m} with the expected incidences",
                line_counts=counts,
                splitting_extension=m,
            )
        m += 1
    return SmoothnessVerdict(UNDETERMINED, "line budget exhausted before 27 lines", line_counts=counts)


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
    verdict: SmoothnessVerdict | None = None,
    max_depth: int = 12,
    max_line_field: int = 512,
) -> FrobeniusEvidence:
    """Every conjugacy class consistent with the rational-line counts over the
    extensions and traces within budget; raises when no class fits.

    Evidence is gathered adaptively, shallow extensions first, and stops as
    soon as a single class remains: the ambiguity set always contains the true
    class of a smooth reduction, so early singletons are exact."""
    if verdict is not None and verdict.status == NOT_SMOOTH:
        raise NotSmoothOrBadReduction("surface is certified non-smooth")
    q = form.field.order
    counts = dict(verdict.line_counts) if verdict is not None else {}
    traces: dict[int, int] = {}
    candidates = _matching_classes(class_table, counts, traces)
    for m in range(1, max_depth + 1):
        if len(candidates) == 1:
            break
        progressed = False
        if m not in counts and q ** (4 * m) <= line_budget and q**m <= min(
            max_line_field, LINE_ENUMERATION_FIELD_CAP
        ):
            counts[m] = len(lines_on_surface(form.extend(m), budget=line_budget))
            progressed = True
        if q ** (3 * m) <= point_budget:
            count = count_points(form.extend(m), budget=point_budget)
            qm = q**m
            num = count - qm * qm - 1
            if num % qm != 0 or abs(num // qm) > 7:
                raise NotSmoothOrBadReduction(
                    f"point count {count} over GF({q}^{m}) violates the Weil shape"
                )
            traces[m] = num // qm
            progressed = True
        if progressed:
            candidates = _matching_classes(class_table, counts, traces)
            if not candidates:
                raise NotSmoothOrBadReduction("no conjugacy class matches the evidence")
    if not candidates:
        raise NotSmoothOrBadReduction("no conjugacy class matches the evidence")
    trace_tuple = tuple(traces[m] for m in sorted(traces))
    return FrobeniusEvidence(tuple(candidates), counts, trace_tuple)


def splitting_degree(evidence: FrobeniusEvidence, class_table) -> int | tuple[int, ...]:
    """The order of the Frobenius class when pinned, else the order set."""
    orders = sorted({class_table.rows[c].element_order for c in evidence.class_ids})
    return orders[0] if len(orders) == 1 else tuple(orders)
