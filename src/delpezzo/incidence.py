"""Incidence graphs of exceptional curves and their symmetry groups.

The graph for degree d has the n_d exceptional classes (in canonical lexicographic
order) as vertices and the pairwise intersection numbers as edge labels, with -1
on the diagonal.  Automorphisms are the label-matrix-preserving vertex
permutations, found by backtracking over an iterated equitable-partition
refinement (per-label color counts, ranked as big-endian byte keys), with
coset candidates already in the orbit of the generators found so far skipped
(orbit pruning); the Weyl image is the permutation action of the simple-root
reflections on the same vertex list.

For degree 3 the classical substructures of the 27 lines are enumerated here:
tritangent triangles (class sum = -K), double sixes and triple nines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .lattice import (
    DegreeContext,
    LatticeVector,
    exceptional_classes,
    reflect,
    simple_roots,
)
from .permgroup import Permutation, PermutationGroup


@dataclass(frozen=True, eq=False)
class IncidenceGraph:
    """Edge-labeled intersection graph of the exceptional classes of degree d.

    Instances are cached one-per-degree and compared by identity.
    """

    degree: int
    vertices: tuple[LatticeVector, ...]
    labels: np.ndarray  # symmetric n x n int matrix, diagonal -1

    @property
    def n(self) -> int:
        return len(self.vertices)

    def label(self, i: int, j: int) -> int:
        return int(self.labels[i, j])


@lru_cache(maxsize=None)
def incidence_graph(ctx: DegreeContext) -> IncidenceGraph:
    cls = exceptional_classes(ctx)
    c = np.array(cls, dtype=np.int64)
    # the intersection pairing v0*w0 - sum_{i>=1} vi*wi of every pair at once
    labels = np.outer(c[:, 0], c[:, 0]) - c[:, 1:] @ c[:, 1:].T
    labels.setflags(write=False)
    return IncidenceGraph(ctx.degree, cls, labels)


@lru_cache(maxsize=None)
def weyl_image(ctx: DegreeContext) -> PermutationGroup:
    """The group generated by the simple-root reflections acting on the
    canonical class list."""
    cls = exceptional_classes(ctx)
    index = {c: i for i, c in enumerate(cls)}
    gens = [
        tuple(index[reflect(ctx, root, c)] for c in cls)
        for root in simple_roots(ctx)
    ]
    return PermutationGroup(len(cls), gens)


# -- automorphism search ----------------------------------------------------


class _Refiner:
    """Iterated color refinement on an edge-labeled complete graph.

    Colors are canonical ids (ranks of sorted signatures), so two colorings
    produced from isomorphism-related starting points stay comparable cell by
    cell; a cell-size histogram mismatch proves non-extendability.

    A vertex's signature is its color followed by its neighbor counts per
    (label, color).  All counts come from one float32 matmul against the
    stacked label masks, exact because counts are at most n < 2^16 < 2^24.
    Each signature row is written as big-endian uint16 and ranked as one
    opaque byte key: bytewise order of big-endian unsigned integers is
    lexicographic order, so the ranks equal those of a row-wise
    lexicographic sort.
    """

    def __init__(self, labels: np.ndarray):
        self.n = labels.shape[0]
        if self.n >= 1 << 16:
            raise ValueError(f"refinement keys hold 16-bit counts; got {self.n} vertices")
        values = sorted(set(labels[np.triu_indices(self.n, 1)].tolist())) if self.n > 1 else []
        self.n_labels = len(values)
        # row l*n + i is vertex i's indicator row for the l-th label value
        self.masks = np.concatenate(
            [(labels == v).astype(np.float32) for v in values]
            or [np.zeros((0, self.n), dtype=np.float32)]
        )

    def refine(self, colors: np.ndarray) -> np.ndarray:
        n, n_labels = self.n, self.n_labels
        while True:
            # one count column per color present: the columns of absent ids
            # are zero in every row and leave the row order unchanged
            present, dense = np.unique(colors, return_inverse=True)
            k = len(present)
            onehot = np.zeros((n, k), dtype=np.float32)
            onehot[np.arange(n), dense] = 1.0
            counts = (self.masks @ onehot).reshape(n_labels, n, k)
            sig = np.empty((n, 1 + n_labels * k), dtype=">u2")
            sig[:, 0] = colors
            sig[:, 1:] = counts.transpose(1, 0, 2).reshape(n, n_labels * k)
            keys = sig.view(np.dtype((np.void, sig.shape[1] * 2))).ravel()
            _, new = np.unique(keys, return_inverse=True)
            new = new.astype(np.int64)
            if int(new.max()) == int(colors.max()) and np.array_equal(
                np.sort(np.bincount(new)), np.sort(np.bincount(colors))
            ):
                # partition stabilized (same number and sizes of cells)
                return new
            colors = new


def _histograms_match(a: np.ndarray, b: np.ndarray) -> bool:
    if int(a.max()) != int(b.max()):
        return False
    return np.array_equal(np.bincount(a), np.bincount(b))


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = len(colors)  # fresh id, identical on both sides
    return out


def _match_search(
    ref_dom: _Refiner,
    ref_cod: _Refiner,
    labels_dom: np.ndarray,
    labels_cod: np.ndarray,
    colors_dom: np.ndarray,
    colors_cod: np.ndarray,
) -> Permutation | None:
    """One label-preserving bijection consistent with the two colorings, or None."""
    colors_dom = ref_dom.refine(colors_dom)
    colors_cod = ref_cod.refine(colors_cod)
    if not _histograms_match(colors_dom, colors_cod):
        return None
    n = len(colors_dom)
    counts = np.bincount(colors_dom)
    if counts.max() == 1:
        g = np.empty(n, dtype=np.int64)
        g[np.argsort(colors_dom, kind="stable")] = np.argsort(colors_cod, kind="stable")
        if np.array_equal(labels_cod[np.ix_(g, g)], labels_dom):
            return tuple(int(x) for x in g)
        return None
    # split the smallest non-singleton cell
    cell_color = min(
        (int(c) for c in np.nonzero(counts > 1)[0]), key=lambda c: (counts[c], c)
    )
    v = int(np.nonzero(colors_dom == cell_color)[0][0])
    for u in np.nonzero(colors_cod == cell_color)[0]:
        g = _match_search(
            ref_dom,
            ref_cod,
            labels_dom,
            labels_cod,
            _individualize(colors_dom, v),
            _individualize(colors_cod, int(u)),
        )
        if g is not None:
            return g
    return None


def find_isomorphism(a: IncidenceGraph | np.ndarray, b: IncidenceGraph | np.ndarray) -> Permutation | None:
    """A label-preserving bijection between two edge-labeled graphs, or None."""
    la = a.labels if isinstance(a, IncidenceGraph) else np.asarray(a)
    lb = b.labels if isinstance(b, IncidenceGraph) else np.asarray(b)
    if la.shape != lb.shape:
        return None
    if sorted(set(la.ravel().tolist())) != sorted(set(lb.ravel().tolist())):
        return None
    n = la.shape[0]
    return _match_search(
        _Refiner(la),
        _Refiner(lb),
        la,
        lb,
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
    )


def _orbit(v: int, gens: list[Permutation]) -> set[int]:
    orbit = {v}
    queue = [v]
    while queue:
        x = queue.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return orbit


@lru_cache(maxsize=None)
def automorphism_group(graph: IncidenceGraph) -> PermutationGroup:
    """The full group of label-preserving vertex permutations.

    Builds a stabilizer chain by individualization: at each level the first
    vertex v of the smallest non-singleton cell is fixed and the pointwise
    stabilizer is handled recursively; then coset representatives are searched
    for only to cell members outside the orbit of v under the generators found
    so far, all of which fix the current base prefix (orbit pruning).
    """
    labels = graph.labels
    n = graph.n
    refiner = _Refiner(labels)
    gens: list[Permutation] = []

    def collect(colors: np.ndarray) -> None:
        colors = refiner.refine(colors)
        counts = np.bincount(colors)
        if counts.max() == 1:
            return
        cell_color = min(
            (int(c) for c in np.nonzero(counts > 1)[0]), key=lambda c: (counts[c], c)
        )
        cell = np.nonzero(colors == cell_color)[0]
        v = int(cell[0])
        collect(_individualize(colors, v))
        orbit = _orbit(v, gens)
        for u in cell[1:]:
            if int(u) in orbit:
                continue
            g = _match_search(
                refiner,
                refiner,
                labels,
                labels,
                _individualize(colors, v),
                _individualize(colors, int(u)),
            )
            if g is not None:
                gens.append(g)
                orbit = _orbit(v, gens)

    collect(np.zeros(n, dtype=np.int64))
    return PermutationGroup(n, gens)


# -- Schlaefli substructures of the 27 lines --------------------------------


@dataclass(frozen=True)
class DoubleSix:
    """Two aligned sextuples of pairwise-disjoint lines: first[i] misses
    second[i] and meets the other five of the second row."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    @property
    def line_set(self) -> frozenset[int]:
        return frozenset(self.first) | frozenset(self.second)


@dataclass(frozen=True)
class TripleNine:
    """Unordered partition of the 27 lines into three trihedral-pair nines."""

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def as_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(p) for p in self.parts)


def _require_deg3(graph: IncidenceGraph) -> None:
    if graph.degree != 3:
        raise ValueError("Schlaefli substructures are defined on the degree-3 graph")


@lru_cache(maxsize=None)
def tritangent_triangles(graph: IncidenceGraph) -> tuple[tuple[int, int, int], ...]:
    """All 3-sets of lines with class sum equal to -K, sorted canonically."""
    _require_deg3(graph)
    ctx = DegreeContext(3)
    minus_k = tuple(-x for x in ctx.canonical_class)
    index = {c: i for i, c in enumerate(graph.vertices)}
    out = []
    n = graph.n
    for i in range(n):
        vi = graph.vertices[i]
        for j in range(i + 1, n):
            if graph.labels[i, j] != 1:
                continue
            vj = graph.vertices[j]
            third = tuple(k - a - b for k, a, b in zip(minus_k, vi, vj))
            k = index.get(third)
            if k is not None and k > j:
                out.append((i, j, k))
    return tuple(sorted(out))


def _disjoint_six_sets(graph: IncidenceGraph) -> list[tuple[int, ...]]:
    """All 6-sets of pairwise-disjoint lines (label 0), by increasing indices."""
    n = graph.n
    disjoint = [frozenset(np.nonzero(graph.labels[i] == 0)[0].tolist()) for i in range(n)]
    out: list[tuple[int, ...]] = []

    def grow(chosen: list[int], allowed: frozenset[int]) -> None:
        if len(chosen) == 6:
            out.append(tuple(chosen))
            return
        for v in sorted(allowed):
            rest = frozenset(x for x in allowed if x > v) & disjoint[v]
            if len(rest) + len(chosen) + 1 >= 6:
                chosen.append(v)
                grow(chosen, rest)
                chosen.pop()

    grow([], frozenset(range(n)))
    return out


@lru_cache(maxsize=None)
def double_sixes(graph: IncidenceGraph) -> tuple[DoubleSix, ...]:
    """All double sixes, canonically ordered.

    Each 6-set of pairwise-disjoint lines has at most one partner row; the
    unordered pair is kept once, with the row containing the smallest line
    first and the second row aligned by the missing-partner condition.
    """
    _require_deg3(graph)
    labels = graph.labels
    n = graph.n
    found: dict[frozenset[int], DoubleSix] = {}
    for six in _disjoint_six_sets(graph):
        partner = []
        ok = True
        for i, a in enumerate(six):
            matches = [
                b
                for b in range(n)
                if b not in six
                and labels[a, b] == 0
                and all(labels[x, b] == 1 for x in six if x != a)
            ]
            if len(matches) != 1:
                ok = False
                break
            partner.append(matches[0])
        if not ok:
            continue
        if any(labels[x, y] != 0 for x, y in combinations(partner, 2)):
            continue
        key = frozenset(six) | frozenset(partner)
        if key in found:
            continue
        if min(partner) < min(six):
            six, partner = tuple(partner), list(six)
        order = np.argsort(six)
        ds = DoubleSix(
            tuple(six[i] for i in order), tuple(partner[i] for i in order)
        )
        found[key] = ds
    return tuple(sorted(found.values(), key=lambda d: d.first))


@lru_cache(maxsize=None)
def trihedral_nines(graph: IncidenceGraph) -> tuple[frozenset[int], ...]:
    """All 9-line sets that admit a 3x3 grid of rows and columns of tritangent
    triangles (the line sets of trihedral pairs)."""
    _require_deg3(graph)
    tris = [frozenset(t) for t in tritangent_triangles(graph)]
    tri_set = set(tris)
    nines: set[frozenset[int]] = set()
    for a, b in combinations(tris, 2):
        if a & b:
            continue
        # three pairwise-disjoint columns, each meeting rows a and b in one
        # line; their remaining three lines must be the third row
        cols = [t for t in tris if len(t & a) == 1 and len(t & b) == 1]
        for x, y, z in combinations(cols, 3):
            if not (x & y or x & z or y & z) and (x | y | z) - a - b in tri_set:
                nines.add(x | y | z)
    return tuple(sorted(nines, key=sorted))


@lru_cache(maxsize=None)
def triple_nines(graph: IncidenceGraph) -> tuple[TripleNine, ...]:
    """All partitions of the 27 lines into three trihedral-pair nines."""
    _require_deg3(graph)
    nines = trihedral_nines(graph)
    nine_set = set(nines)
    all_lines = frozenset(range(27))
    out = set()
    for a in nines:
        if 0 not in a:
            continue
        rest = all_lines - a
        pivot = min(rest)
        for b in nines:
            if pivot in b and b <= rest and (rest - b) in nine_set:
                parts = tuple(
                    sorted((tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(rest - b))))
                )
                out.add(TripleNine(parts))
    return tuple(sorted(out, key=lambda t: t.parts))


def orbit_of_structures(
    group: PermutationGroup, structures: list, apply
) -> dict:
    """Partition `structures` into orbits under the group generators; `apply`
    maps (generator, structure) to the canonical image structure.  Returns a
    mapping from structure to orbit id."""
    ids = {}
    next_id = 0
    pool = list(structures)
    known = set(pool)
    for s in pool:
        if s in ids:
            continue
        ids[s] = next_id
        queue = [s]
        while queue:
            x = queue.pop()
            for g in group.generators:
                y = apply(g, x)
                if y not in known:
                    raise ValueError("group does not preserve the structure list")
                if y not in ids:
                    ids[y] = next_id
                    queue.append(y)
        next_id += 1
    return ids


def apply_to_double_six(g: Permutation, ds: DoubleSix) -> DoubleSix:
    first = [g[x] for x in ds.first]
    second = [g[x] for x in ds.second]
    if min(second) < min(first):
        first, second = second, first
    order = np.argsort(first)
    return DoubleSix(tuple(first[i] for i in order), tuple(second[i] for i in order))


def apply_to_triple_nine(g: Permutation, tn: TripleNine) -> TripleNine:
    parts = [tuple(sorted(g[x] for x in p)) for p in tn.parts]
    return TripleNine(tuple(sorted(parts)))
