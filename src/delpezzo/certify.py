"""Conclusions from Frobenius cycle-type evidence on the 27 lines.

Everything here is derived at build time from the in-repo group engine, never
shipped as opaque constants: the 25-class table of the 27-line symmetry group
(cycle types, element orders, characteristic polynomials and traces on the
rank-6 orthogonal complement of the canonical class, fixed-line counts, class
sizes), the cycle-type sets of the classical stabilizer subgroups, and the
certificates built on them.  The families whose stabilizers these are (lines,
double sixes, tritangent triangles, triple nines) come from `incidence`, the
double sixes and nines from the E6 roots; a member is a set of line sets, and
a permutation fixes it when it maps each of the member's line sets onto one
of them (onto itself, for a componentwise fixed triple nine).  One count,
`_fixed_members`, applies that rule to the class table and to the oracle's
cross-check.

Soundness of the exclusion logic: if the Galois image stabilizes some double
six, every Frobenius element fixes that double six, so its class is one whose
representative fixes some double six, and its cycle type is in the subgroup's
set (the table build checks by Burnside's count that the group is transitive
on double sixes, so these are the classes meeting any one double-six
stabilizer).  A place whose whole ambiguity set avoids the set therefore rules
the stabilization out.  Triviality of the first cohomology follows when both
the double-six and the componentwise triple-nine stabilizations are excluded;
the 5-part vanishes unconditionally.  An independent oracle computes the
cohomology of any single incidence-preserving permutation exactly on the
rank-7 lattice via integer Smith normal form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .incidence import double_sixes, incidence_graph, maps_labels, triple_nines, tritangent_triangles, weyl_image
from .lattice import DegreeContext, exceptional_classes
from .permgroup import Permutation, cycle_type, fixed_points_of_power

TRACE_DEPTH = 12  # covers every element order in the group


# -- integer linear algebra ---------------------------------------------------


def charpoly(a: np.ndarray) -> tuple[int, ...]:
    """Monic characteristic polynomial of an integer matrix, leading term
    first, by the Faddeev-LeVerrier recursion (exact integer divisions)."""
    n = a.shape[0]
    a = a.astype(object)
    b = np.eye(n, dtype=object)
    coeffs = [1]
    for k in range(1, n + 1):
        ab = a @ b
        c = -sum(ab[i, i] for i in range(n))
        assert c % k == 0
        c //= k
        coeffs.append(int(c))
        b = ab + c * np.eye(n, dtype=object)
    return tuple(coeffs)


def smith_normal_form(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, D, V with U @ mat @ V = D diagonal, U and V unimodular, and the
    diagonal entries nonnegative with each dividing the next."""
    d = mat.astype(object).copy()
    m, n = d.shape
    u = np.eye(m, dtype=object)
    v = np.eye(n, dtype=object)

    def swap_rows(i, j):
        d[[i, j], :] = d[[j, i], :]
        u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def add_row(src, dst, c):
        d[dst, :] += c * d[src, :]
        u[dst, :] += c * u[src, :]

    def add_col(src, dst, c):
        d[:, dst] += c * d[:, src]
        v[:, dst] += c * v[:, src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the remaining block
        block = [(abs(d[i, j]), i, j) for i in range(t, m) for j in range(t, n) if d[i, j] != 0]
        if not block:
            break
        _, pi, pj = min(block)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, m):
            if d[i, t] != 0:
                q = d[i, t] // d[t, t]
                add_row(t, i, -q)
                dirty = dirty or d[i, t] != 0
        for j in range(t + 1, n):
            if d[t, j] != 0:
                q = d[t, j] // d[t, t]
                add_col(t, j, -q)
                dirty = dirty or d[t, j] != 0
        if dirty:
            continue
        # divisibility: fold any non-multiple into the pivot row and retry
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i, j] % d[t, t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t, t] < 0:
            d[t, :] *= -1
            u[t, :] *= -1
        t += 1
    return u, d, v


def kernel_basis(mat: np.ndarray) -> np.ndarray:
    """Integer basis (columns) of the kernel lattice of an integer matrix."""
    _, d, v = smith_normal_form(mat)
    m, n = d.shape
    cols = [j for j in range(n) if j >= m or d[j, j] == 0]
    return v[:, cols]


def solve_integer(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integer solution Y of B @ Y = C for full-column-rank B (entries small);
    solved over the rationals, rounded, and verified exactly."""
    if b.shape[1] == 0:
        if np.any(c):
            raise ValueError("inconsistent system")
        return np.zeros((0, c.shape[1]), dtype=object)
    y, *_ = np.linalg.lstsq(b.astype(np.float64), c.astype(np.float64), rcond=None)
    y = np.rint(y).astype(np.int64).astype(object)
    if not np.array_equal(b.astype(object) @ y, c.astype(object)):
        raise ValueError("no integer solution")
    return y


# -- the lattice lift of line permutations ------------------------------------


@lru_cache(maxsize=None)
def _lift_data():
    ctx = DegreeContext(3)
    classes = exceptional_classes(ctx)
    vecs = np.array(classes, dtype=np.int64)  # 27 x 7, rows are class vectors
    basis_vectors = [
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1),
        (1, -1, -1, 0, 0, 0, 0),
    ]
    basis_idx = [classes.index(v) for v in basis_vectors]
    vb = vecs[basis_idx].T  # 7 x 7, unimodular
    vb_inv = np.rint(np.linalg.inv(vb)).astype(np.int64)
    assert np.array_equal(vb @ vb_inv, np.eye(7, dtype=np.int64))
    # the root-lattice basis: simple roots as columns
    from .lattice import simple_roots

    rt = np.array(simple_roots(ctx), dtype=np.int64).T  # 7 x 6
    return vecs, basis_idx, vb_inv, rt


def lattice_matrix(perm: Permutation) -> np.ndarray:
    """The 7x7 integer matrix of the lattice map induced by a permutation of
    the 27 classes (columns act on coordinate vectors)."""
    vecs, basis_idx, vb_inv, _ = _lift_data()
    images = vecs[[perm[b] for b in basis_idx]].T
    return images @ vb_inv


def root_lattice_matrix(perm: Permutation) -> np.ndarray:
    """The induced 6x6 matrix on the orthogonal complement of the canonical
    class, written in the simple-root basis."""
    _, _, _, rt = _lift_data()
    m = lattice_matrix(perm)
    return solve_integer(rt.astype(object), (m @ rt).astype(object)).astype(np.int64)


# -- class table ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassRow:
    class_id: int
    representative: Permutation
    cycle_type: tuple[int, ...]
    element_order: int
    class_size: int
    char_poly: tuple[int, ...]  # on the rank-6 root lattice, leading term first
    lattice_traces: tuple[int, ...]  # trace of the rank-6 power m = 1..TRACE_DEPTH
    fixed_lines: tuple[int, ...]  # fixed points of the m-th power, m = 1..TRACE_DEPTH

    def to_json(self) -> dict:
        return {
            "class_id": self.class_id,
            "representative": list(self.representative),
            "cycle_type": list(self.cycle_type),
            "element_order": self.element_order,
            "class_size": self.class_size,
            "char_poly": list(self.char_poly),
            "lattice_traces": list(self.lattice_traces),
            "fixed_lines": list(self.fixed_lines),
        }


@dataclass(frozen=True)
class SubgroupCycleSet:
    name: str
    order: int
    cycle_types: frozenset[tuple[int, ...]]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "cycle_types": sorted(list(t) for t in self.cycle_types),
        }


@dataclass(frozen=True)
class ClassTable:
    rows: tuple[ClassRow, ...]
    subgroups: dict[str, SubgroupCycleSet]
    cycle_types_separate_classes: bool
    char_polys_separate_classes: bool
    content_hash: str


SUBGROUP_NAMES = (
    "LineStab",
    "DoubleSixStab",
    "TritangentStab",
    "TripleNineComponentwiseStab",
    "TripleNineSetStab",
    "EvenSubgroup",
)


def _fixed_members(rows: np.ndarray, family: list[frozenset[frozenset[int]]],
                   componentwise: bool = False) -> list[int]:
    """Per line permutation in `rows`, the number of members of `family` it
    fixes, as `incidence.image` would count them: each member's blocks,
    disjoint line sets of one size, must go to blocks of the member (to
    themselves when `componentwise`).  One gather of the family's line arrays
    through the rows, then one of the block that each image line lies in."""
    blocks = np.array([sorted(sorted(b) for b in member) for member in family])  # (members, blocks, size)
    members, count, _ = blocks.shape
    member = np.arange(members)[:, None, None]
    block_of = np.full((members, rows.shape[1]), -1)
    block_of[member, blocks] = np.arange(count)[:, None]
    landed = block_of[member, rows[:, blocks]]  # (rows, members, blocks, size)
    if componentwise:
        fixed = landed == np.arange(count)[:, None]
    else:
        fixed = (landed >= 0) & (landed == landed[..., :1])
    return [int(n) for n in fixed.all(axis=(2, 3)).sum(axis=1)]


@lru_cache(maxsize=None)
def build_class_table() -> ClassTable:
    """Derive the full 25-row class table and the stabilizer cycle-type sets
    from scratch; everything is content-hashed for report provenance.

    The group is enumerated once by `conjugacy_classes`, which gives the class
    sizes and the 25 lexicographically least representatives.
    Every class function is computed on the representatives: cycle type, the
    lattice lift, and the number of members of each family of lines (lines,
    double sixes, tritangent triangles, triple nines) it fixes, which gives
    each stabilizer's order and the classes it meets.  Burnside's count
    confirms that the group is transitive on each family."""
    ctx = DegreeContext(3)
    graph = incidence_graph(ctx)
    w = weyl_image(ctx)
    assert w.order == 51840

    reps, sizes = zip(*w.conjugacy_classes())
    sizes = np.array(sizes)
    types = [cycle_type(rep) for rep in reps]
    lifts = [root_lattice_matrix(rep) for rep in reps]
    polys = [charpoly(a6) for a6 in lifts]
    by_order = sorted(range(len(reps)), key=lambda i: (math.lcm(*types[i]), types[i], reps[i]))
    rows = []
    for class_id, i in enumerate(by_order):
        rep, ct = reps[i], types[i]
        traces = []
        power = np.eye(6, dtype=np.int64)
        for _ in range(TRACE_DEPTH):
            power = power @ lifts[i]
            traces.append(int(power.trace()))
        rows.append(
            ClassRow(
                class_id=class_id,
                representative=rep,
                cycle_type=ct,
                element_order=math.lcm(*ct),
                class_size=int(sizes[i]),
                char_poly=polys[i],
                lattice_traces=tuple(traces),
                fixed_lines=tuple(fixed_points_of_power(ct, m) for m in range(1, TRACE_DEPTH + 1)),
            )
        )
    assert sum(r.class_size for r in rows) == 51840
    assert len(rows) == 25

    # Each subgroup stabilizes one member of a family the group permutes.  A
    # class meets a conjugate of it exactly when its representative fixes some
    # member of that member's orbit, and |Stab| = sum |C| fix(C) / |family|.
    nines = [t.blocks for t in triple_nines(graph)]
    setwise = {
        "LineStab": [frozenset({frozenset({x})}) for x in range(27)],
        "DoubleSixStab": [d.blocks for d in double_sixes(graph)],
        "TritangentStab": [frozenset({frozenset(t)}) for t in tritangent_triangles(graph)],
        "TripleNineSetStab": nines,
    }
    rep_rows = np.array(reps)
    fixed = {name: (len(family), _fixed_members(rep_rows, family)) for name, family in setwise.items()}
    for name, (_, fix) in fixed.items():
        assert sizes @ fix == 51840, f"{name}: the group has more than one orbit (Burnside)"
    # componentwise: each of a triple nine's three nines is fixed
    fixed["TripleNineComponentwiseStab"] = (len(nines), _fixed_members(rep_rows, nines, componentwise=True))
    # the orientation: K is fixed, so det is the rank-6 char poly's last term
    fixed["EvenSubgroup"] = (1, [int(poly[-1] == 1) for poly in polys])
    subgroups = {}
    for name in SUBGROUP_NAMES:
        size, fix = fixed[name]
        order, rest = divmod(int(sizes @ fix), size)
        assert rest == 0 and 51840 % order == 0, f"{name}: order {order} does not divide 51840"
        met = frozenset(ct for ct, f in zip(types, fix) if f)
        subgroups[name] = SubgroupCycleSet(name, order, met)

    types_by_class = [r.cycle_type for r in rows]
    polys_by_class = [r.char_poly for r in rows]
    payload = {
        "rows": [r.to_json() for r in rows],
        "subgroups": [subgroups[n].to_json() for n in SUBGROUP_NAMES],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ClassTable(
        rows=tuple(rows),
        subgroups=subgroups,
        cycle_types_separate_classes=len(set(types_by_class)) == 25,
        char_polys_separate_classes=len(set(polys_by_class)) == 25,
        content_hash=digest,
    )


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class PlaceEvidence:
    place: str
    class_ids: tuple[int, ...]

    def __post_init__(self):
        if not self.class_ids:
            raise ValueError("an ambiguity set must be nonempty")


NO_STABLE_DOUBLE_SIX = "NoStableDoubleSix"
NO_STABLE_TRIPLE_NINE = "NoStableTripleNine"
H1_TRIVIAL = "H1Trivial"
NOT_IN_LISTED_SUBGROUPS = "NotInListedSubgroups"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Certificate:
    kind: str
    witnesses: dict[str, str]  # excluded subgroup -> witnessing place
    table_hash: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witnesses": dict(sorted(self.witnesses.items())),
            "table_hash": self.table_hash,
        }


def _excluding_place(
    places: tuple[PlaceEvidence, ...], table: ClassTable, subgroup: str
) -> str | None:
    """A place whose entire ambiguity set has cycle types outside the
    subgroup's set, or None (conservative semantics)."""
    allowed = table.subgroups[subgroup].cycle_types
    for pe in places:
        if all(table.rows[c].cycle_type not in allowed for c in pe.class_ids):
            return pe.place
    return None


def h1_certificate(places: tuple[PlaceEvidence, ...], table: ClassTable) -> Certificate:
    """Triviality of the first cohomology from place evidence: excluding a
    stable double six kills the 2-part, excluding a componentwise-stable
    triple nine kills the 3-part, and the 5-part is never present."""
    ds = _excluding_place(places, table, "DoubleSixStab")
    tn = _excluding_place(places, table, "TripleNineComponentwiseStab")
    if ds and tn:
        return Certificate(
            H1_TRIVIAL,
            {"DoubleSixStab": ds, "TripleNineComponentwiseStab": tn},
            table.content_hash,
        )
    if ds:
        return Certificate(NO_STABLE_DOUBLE_SIX, {"DoubleSixStab": ds}, table.content_hash)
    if tn:
        return Certificate(
            NO_STABLE_TRIPLE_NINE,
            {"TripleNineComponentwiseStab": tn},
            table.content_hash,
        )
    return Certificate(INCONCLUSIVE, {}, table.content_hash)


def subgroup_exclusion_certificate(places: tuple[PlaceEvidence, ...], table: ClassTable) -> Certificate:
    """NotInListedSubgroups when every listed subgroup is excluded by some
    place; the claim is exactly non-containment in the listed subgroups."""
    witnesses = {}
    for name in SUBGROUP_NAMES:
        place = _excluding_place(places, table, name)
        if place is None:
            return Certificate(INCONCLUSIVE, witnesses, table.content_hash)
        witnesses[name] = place
    return Certificate(NOT_IN_LISTED_SUBGROUPS, witnesses, table.content_hash)


# -- independent cyclic cohomology oracle ---------------------------------------


def h1_cyclic_oracle(sigma: Permutation) -> tuple[int, ...]:
    """Elementary divisors (> 1) of ker(norm)/im(sigma - 1) for the cyclic
    group generated by an incidence-preserving permutation of the 27 classes,
    acting on the rank-7 lattice; () means trivial cohomology."""
    graph = incidence_graph(DegreeContext(3))
    if not maps_labels(sigma, graph.labels, graph.labels):
        raise ValueError("permutation does not preserve the incidence labels")
    m = lattice_matrix(sigma).astype(object)
    order = math.lcm(*cycle_type(sigma))
    norm = np.zeros((7, 7), dtype=object)
    power = np.eye(7, dtype=object)
    for _ in range(order):
        norm += power
        power = power @ m
    kb = kernel_basis(norm)
    if kb.shape[1] == 0:
        return ()
    y = solve_integer(kb, m - np.eye(7, dtype=object))
    _, d, _ = smith_normal_form(y)
    k = kb.shape[1]
    divisors = [int(d[i, i]) for i in range(min(d.shape))]
    assert all(x != 0 for x in divisors[:k]), "cohomology of a finite action is finite"
    return tuple(sorted(x for x in divisors if x > 1))


def oracle_cross_validation(table: ClassTable | None = None) -> list[dict]:
    """Per class representative: the oracle's invariants, and whether the
    forced stabilizations (a stable double six for a 2-part, a componentwise
    stable triple nine for a 3-part) actually occur."""
    table = table or build_class_table()
    graph = incidence_graph(DegreeContext(3))
    reps = np.array([row.representative for row in table.rows])
    ds_fixed = _fixed_members(reps, [d.blocks for d in double_sixes(graph)])
    tn_fixed = _fixed_members(reps, [t.blocks for t in triple_nines(graph)], componentwise=True)
    out = []
    for row, ds, tn in zip(table.rows, ds_fixed, tn_fixed):
        invs = h1_cyclic_oracle(row.representative)
        h1_order = math.prod(invs) if invs else 1
        stabilizes_ds, stabilizes_tn = ds > 0, tn > 0
        out.append(
            {
                "class_id": row.class_id,
                "cycle_type": list(row.cycle_type),
                "h1_invariants": list(invs),
                "h1_order": h1_order,
                "order_only_2_3": _only_2_3(h1_order),
                "stabilizes_double_six": stabilizes_ds,
                "stabilizes_triple_nine_componentwise": stabilizes_tn,
                "two_part_implies_double_six": (h1_order % 2 != 0) or stabilizes_ds,
                "three_part_implies_triple_nine": (h1_order % 3 != 0) or stabilizes_tn,
            }
        )
    return out


def _only_2_3(n: int) -> bool:
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1
