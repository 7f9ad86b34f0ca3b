"""Incidence graphs of exceptional curves and their symmetry groups.

The graph for degree d has the n_d exceptional classes (in canonical lexicographic
order) as vertices and the pairwise intersection numbers as edge labels, with -1
on the diagonal.  Automorphisms are the label-matrix-preserving vertex
permutations, found by backtracking over an iterated equitable-partition
refinement (color counts for every label but the last, which they imply,
ranked as big-endian byte keys), with coset candidates already in the orbit of
the generators found so far skipped (orbit pruning).  A round counts only
against the cells the round before split (against {v} and the rest of v's
cell after individualizing v): the columns against any other cell are
constant on every current cell, so the ids are those of counting against
every color.  Each refiner refines a given coloring once and hands back the
same read-only result on a repeat, so the domain side of a level is refined
once, not once per coset candidate.  The Weyl image is the permutation action
of the simple-root reflections on the same vertex list.

For degree 3 the classical families of the 27 lines are enumerated here, each
one read-only int64 array of line indices: tritangent triangles (45, 3), double
sixes (36, 2, 6), trihedral nines (120, 9) and triple nines (40, 3, 9).  Double
sixes and trihedral nines come from the 72 roots by one integer product of line
and root vectors: each pair of opposite roots gives a double six, and each A2
subsystem the nine lines orthogonal to it.  One triangle rule gives the
tritangent triangles (in the meet graph) and the triple nines (in the
disjointness graph of the nines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    DegreeContext,
    LatticeVector,
    exceptional_classes,
    roots,
    simple_roots,
)
from .permgroup import Permutation, PermutationGroup, _orbit


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


def _pairings(vs: tuple[LatticeVector, ...], ws: tuple[LatticeVector, ...]) -> np.ndarray:
    """The intersection pairing v0*w0 - sum_{i>=1} vi*wi of every v in vs with
    every w in ws, as one integer product."""
    v = np.array(vs, dtype=np.int64)
    w = np.array(ws, dtype=np.int64)
    return np.outer(v[:, 0], w[:, 0]) - v[:, 1:] @ w[:, 1:].T


@lru_cache(maxsize=None)
def incidence_graph(ctx: DegreeContext) -> IncidenceGraph:
    cls = exceptional_classes(ctx)
    labels = _pairings(cls, cls)
    labels.setflags(write=False)
    return IncidenceGraph(ctx.degree, cls, labels)


@lru_cache(maxsize=None)
def weyl_image(ctx: DegreeContext) -> PermutationGroup:
    """The group generated by the simple-root reflections acting on the
    canonical class list: v + (v.alpha) alpha for every class v and simple
    root alpha by one integer product, each image found by `_class_index`."""
    cls, alphas = exceptional_classes(ctx), simple_roots(ctx)
    images = np.array(cls)[None] + _pairings(alphas, cls)[:, :, None] * np.array(alphas)[:, None]
    return PermutationGroup(len(cls), [tuple(g) for g in _class_index(cls, images).tolist()])


def _class_index(cls: tuple[LatticeVector, ...], vectors: np.ndarray) -> np.ndarray:
    """The position of each vector (along the last axis) among the sorted
    classes, by its packed key: coordinates are small, so base-64 digits
    offset by 32 keep the lexicographic order."""
    v = np.array(cls)
    weights = 64 ** np.arange(v.shape[1] - 1, -1, -1, dtype=np.int64)
    keys, wanted = (v + 32) @ weights, (vectors + 32) @ weights
    found = np.searchsorted(keys, wanted)
    assert np.array_equal(keys.take(found, mode="clip"), wanted), "a vector left the classes"
    return found


# -- automorphism search ----------------------------------------------------


class _Refiner:
    """Iterated color refinement on an edge-labeled complete graph.

    Colors are canonical ids (ranks of sorted signatures), so two colorings
    produced from isomorphism-related starting points stay comparable cell by
    cell; a cell-size histogram mismatch proves non-extendability.

    A vertex's signature is its color followed by its neighbor counts per
    (label, color) for every label but the last.  Off the diagonal, v's
    neighbors in a cell c over all labels number |c| - [v in c], so when the
    diagonal value is not an edge label (every `IncidenceGraph` has -1 there)
    the last label's counts follow from v's color and the other counts; they
    would be the last block of the signature, so leaving them out changes no
    rank.  For any other matrix the partition can only come out coarser: it is
    still isomorphism-invariant, and every bijection is checked entry by entry.

    A round counts only against the cells whose columns can still vary: every
    color in the first round of `refine(colors)`, {v} and the rest of v's old
    cell in the first round of `refine(colors, v)`, and after that every piece
    of each cell the round before split.  The columns are laid out
    label-major and in id order, as the full signature would have them, and
    the ids are the same: a column against a cell that the last round did not
    split was already in the key that ranked the current coloring (or, after
    individualizing v in a stable coloring, it is constant on every old
    cell), so it is constant on every current cell, and since the key leads
    with the color it never decides between two vertices.  Refinement stops
    at the first round that splits no cell and returns the rank of that
    round's input.

    The counts of a round are one bincount: each member j of a counted cell
    adds one to the bin (i, label of (i, j), piece of j) of every vertex i.
    Each signature row is written as big-endian uint16 and ranked as one
    opaque byte key: bytewise order of big-endian unsigned integers is
    lexicographic order, so the ranks equal those of a row-wise
    lexicographic sort.

    A search refines the same coloring many times (the domain side of every
    coset candidate), so `refine` keeps each input coloring's stable
    refinement, read-only, for the life of the refiner.
    """

    def __init__(self, labels: np.ndarray):
        self.n = labels.shape[0]
        if self.n >= 1 << 16:
            raise ValueError(f"refinement keys hold 16-bit counts; got {self.n} vertices")
        values = sorted(set(labels[np.triu_indices(self.n, 1)].tolist())) if self.n > 1 else []
        counted = values[:-1]
        self.n_counted = len(counted)
        # row j, column i: the bin i * (n_counted + 1) + l of entry (i, j),
        # l the rank of its label among the counted ones, or n_counted (a bin
        # left out) for the last label and a diagonal value that is no edge label
        label = np.where(np.isin(labels, counted), np.searchsorted(counted, labels), self.n_counted)
        bins = np.arange(self.n)[:, None] * (self.n_counted + 1) + label
        self.bins = np.ascontiguousarray(bins.T, dtype=np.intp)
        self.memo: dict[bytes, np.ndarray] = {}

    def refine(self, colors: np.ndarray, v: int | None = None) -> np.ndarray:
        """The stable refinement of `colors`, or with `v`, of
        `_individualize(colors, v)` for a `colors` that `refine` returned."""
        changed = None
        if v is not None:
            old = int(colors[v])
            colors = _individualize(colors, v)
            # the fresh id n is the last; v's old cell keeps its id unless v was alone
            changed = [old, self.n] if (colors == old).any() else [self.n]
        key = colors.tobytes()
        out = self.memo.get(key)
        if out is None:
            out = self._rounds(colors, changed)
            out.setflags(write=False)
            self.memo[key] = out
        return out

    def _rounds(self, colors: np.ndarray, changed: np.ndarray | list[int] | None = None) -> np.ndarray:
        n, n_counted = self.n, self.n_counted
        while True:
            if changed is None:
                changed = np.flatnonzero(np.bincount(colors))
            k = len(changed)
            slot = np.full(int(colors.max()) + 1, -1)
            slot[changed] = np.arange(k)
            piece = slot[colors]
            members = np.nonzero(piece >= 0)[0]
            bins = self.bins[members] * k + piece[members, None]
            counts = np.bincount(bins.ravel(), minlength=n * (n_counted + 1) * k)
            sig = np.empty((n, 1 + n_counted * k), dtype=">u2")
            sig[:, 0] = colors
            sig[:, 1:] = counts.reshape(n, n_counted + 1, k)[:, :n_counted].reshape(n, n_counted * k)
            keys = sig.view(np.dtype((np.void, sig.shape[1] * 2))).ravel()
            _, new = np.unique(keys, return_inverse=True)
            new = new.astype(np.int64)
            # a cell split if its color went to more than one new id; all its
            # pieces are the next round's columns
            parent = np.empty(int(new.max()) + 1, dtype=np.int64)
            parent[new] = colors
            changed = np.nonzero(np.bincount(parent)[parent] > 1)[0]
            if len(changed) == 0:
                return new
            colors = new


def _histograms_match(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.bincount(a), np.bincount(b))  # of unequal length when the largest ids differ


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = len(colors)  # fresh id, identical on both sides
    return out


def _target_cell(colors: np.ndarray) -> np.ndarray | None:
    """The vertices of the cell that a search splits, the smallest cell with
    more than one vertex (the least color among equals), or None when every
    cell is a singleton."""
    counts = np.bincount(colors)
    big = np.flatnonzero(counts > 1)
    return np.flatnonzero(colors == big[np.argmin(counts[big])]) if len(big) else None


def maps_labels(g, labels: np.ndarray, target: np.ndarray) -> bool:
    """Whether labels[g[i], g[j]] == target[i, j] for every i, j: whether the
    vertex map g from the graph of `target` to that of `labels` keeps labels."""
    return bool(np.array_equal(labels[np.ix_(g, g)], target))


def _match_search(
    ref_dom: _Refiner,
    ref_cod: _Refiner,
    labels_dom: np.ndarray,
    labels_cod: np.ndarray,
    colors_dom: np.ndarray,
    colors_cod: np.ndarray,
    v: int | None = None,
    u: int | None = None,
) -> Permutation | None:
    """One label-preserving bijection consistent with the two colorings, or
    None; with v and u, consistent with the refined colorings individualized
    at v and at u (see `_Refiner.refine`)."""
    colors_dom = ref_dom.refine(colors_dom, v)
    colors_cod = ref_cod.refine(colors_cod, u)
    if not _histograms_match(colors_dom, colors_cod):
        return None
    cell = _target_cell(colors_dom)
    if cell is None:
        g = np.empty(len(colors_dom), dtype=np.int64)
        g[np.argsort(colors_dom, kind="stable")] = np.argsort(colors_cod, kind="stable")
        return tuple(int(x) for x in g) if maps_labels(g, labels_cod, labels_dom) else None
    v = int(cell[0])
    for u in np.flatnonzero(colors_cod == colors_dom[v]):
        g = _match_search(
            ref_dom,
            ref_cod,
            labels_dom,
            labels_cod,
            colors_dom,
            colors_cod,
            v,
            int(u),
        )
        if g is not None:
            return g
    return None


def find_isomorphism(a: IncidenceGraph | np.ndarray, b: IncidenceGraph | np.ndarray) -> Permutation | None:
    """A label-preserving bijection between two edge-labeled graphs, or None.

    Raises ValueError for a label matrix that is not square.
    """
    la = a.labels if isinstance(a, IncidenceGraph) else np.asarray(a)
    lb = b.labels if isinstance(b, IncidenceGraph) else np.asarray(b)
    for labels in (la, lb):
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
            raise ValueError(f"label matrices must be square; got shape {labels.shape}")
    if la.shape != lb.shape:
        return None
    if sorted(set(la.ravel().tolist())) != sorted(set(lb.ravel().tolist())):
        return None
    n = la.shape[0]
    if n == 0:
        return ()
    return _match_search(
        _Refiner(la),
        _Refiner(lb),
        la,
        lb,
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
    )


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

    def collect(colors: np.ndarray, v: int | None = None) -> None:
        colors = refiner.refine(colors, v)
        cell = _target_cell(colors)
        if cell is None:
            return
        v = int(cell[0])
        collect(colors, v)
        orbit = _orbit(v, [g.__getitem__ for g in gens])
        for u in cell[1:]:
            if int(u) in orbit:
                continue
            g = _match_search(
                refiner,
                refiner,
                labels,
                labels,
                colors,
                colors,
                v,
                int(u),
            )
            if g is not None:
                gens.append(g)
                orbit = _orbit(v, [g.__getitem__ for g in gens])

    collect(np.zeros(n, dtype=np.int64))
    return PermutationGroup(n, gens)


# -- Schlaefli substructures of the 27 lines --------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


def _require_deg3(graph: IncidenceGraph) -> None:
    if graph.degree != 3:
        raise ValueError("Schlaefli substructures are defined on the degree-3 graph")


def _root_pairings(graph: IncidenceGraph) -> tuple[tuple[LatticeVector, ...], np.ndarray, np.ndarray]:
    """(roots, E.alpha for every line E and root alpha, alpha.beta for every
    pair of roots), from one product of the stacked line and root vectors."""
    rs = roots(DegreeContext(graph.degree))
    products = _pairings(graph.vertices + rs, rs)
    return rs, products[: graph.n], products[graph.n :]


def _triangles(adjacent: np.ndarray) -> np.ndarray:
    """The triangles i < j < k of a symmetric boolean matrix with a false
    diagonal, (triangles, 3) in lexicographic order: for each edge i < j in
    turn, the common neighbours k > j, from one (edges, n) mask."""
    i, j = np.nonzero(np.triu(adjacent, 1))
    e, k = np.nonzero(adjacent[i] & adjacent[j] & (np.arange(len(adjacent)) > j[:, None]))
    return _frozen(np.column_stack([i[e], j[e], k]))


@lru_cache(maxsize=None)
def tritangent_triangles(graph: IncidenceGraph) -> np.ndarray:
    """The 45 tritangent triangles, (45, 3): the triangles of the meet graph
    (labels == 1), which are the 3-sets of lines whose classes sum to -K.

    For pairwise meeting E1, E2, E3, the class D = E1 + E2 + E3 + K has
    D.K = -3 + 3 = 0 and D.D = -3 + 6 - 6 + 3 = 0, so D = 0 on the negative
    definite orthogonal complement of K.  Conversely, if the sum is -K then
    E1.(E2 + E3) = E1.(-K - E1) = 2, and two distinct lines meet in 0 or 1."""
    _require_deg3(graph)
    return _triangles(graph.labels == 1)


@lru_cache(maxsize=None)
def double_sixes(graph: IncidenceGraph) -> np.ndarray:
    """The 36 double sixes, (36, 2, 6), one for each pair of opposite roots,
    in lexicographic order of row 0.

    For a root alpha, row 0 is the lines E with E.alpha = 1, ascending, and
    row 1 their partners E + alpha in the same order: E.(E + alpha) = 0 and
    E'.(E + alpha) = 1 for the other five E'.  Row 1 is the lines with
    E.alpha = -1, so -alpha gives the same double six with the rows swapped;
    alpha is kept when its row 0 holds the smaller least line.
    """
    _require_deg3(graph)
    rs, line_root, _ = _root_pairings(graph)
    meets = line_root.T == 1  # (roots, lines)
    kept = np.argmax(meets, axis=1) < np.argmax(line_root.T == -1, axis=1)
    first = np.nonzero(meets[kept])[1].reshape(-1, 6)
    second = _class_index(graph.vertices, np.array(graph.vertices)[first] + np.array(rs)[kept][:, None])
    return _frozen(np.stack([first, second], axis=1)[np.lexsort(first.T[::-1])])


@lru_cache(maxsize=None)
def trihedral_nines(graph: IncidenceGraph) -> np.ndarray:
    """The 120 line sets of the trihedral pairs, (120, 9), ascending within
    and in lexicographic order: for each of the A2 subsystems of the roots,
    the nine lines orthogonal to it, {E : E.alpha = E.beta = 0} over the root
    pairs with alpha.beta = 1 (which span an A2)."""
    _require_deg3(graph)
    _, line_root, root_root = _root_pairings(graph)
    orthogonal = line_root == 0
    a, b = np.nonzero(root_root == 1)
    lines = np.nonzero((orthogonal[:, a] & orthogonal[:, b]).T)[1].reshape(-1, 9)
    return _frozen(np.unique(lines, axis=0, return_index=True)[0])  # plain np.unique imports numpy.ma


@lru_cache(maxsize=None)
def triple_nines(graph: IncidenceGraph) -> np.ndarray:
    """The 40 partitions of the 27 lines into three trihedral-pair nines,
    (40, 3, 9): the triangles of the disjointness graph of the nines."""
    nines = trihedral_nines(graph)
    inside = (nines[:, :, None] == np.arange(graph.n)).any(axis=1)  # (nines, lines)
    return _frozen(nines[_triangles(inside @ inside.T == 0)])


def orbit_of_structures(group: PermutationGroup, family: np.ndarray) -> list[int]:
    """The orbit id of each member of a family (members, blocks, size) of
    line arrays under the group generators, in member order, ids numbered by
    first appearance.  A member is keyed by its bytes with the lines sorted
    within each block and the blocks ordered by their least line, so each
    generator becomes a list of member indices.

    Raises ValueError when a generator moves a member out of the family.
    """

    def keys(members: np.ndarray) -> list[bytes]:
        lines = np.sort(members, axis=-1)
        order = np.argsort(lines[..., 0], axis=-1)
        return [m.tobytes() for m in np.take_along_axis(lines, order[..., None], axis=-2)]

    index = {key: i for i, key in enumerate(keys(family))}
    moves = [[index.get(key) for key in keys(np.asarray(g)[family])] for g in group.generators]
    if any(None in move for move in moves):
        raise ValueError("group does not preserve the structure list")
    ids = [-1] * len(family)
    next_id = 0
    for i in range(len(family)):
        if ids[i] < 0:
            for j in _orbit(i, [move.__getitem__ for move in moves]):
                ids[j] = next_id
            next_id += 1
    return ids
