"""Permutation groups via a base and strong generating set.

Permutations on 0..n-1 are plain tuples of images, and every public method
takes and returns them.  `compose(p, q)` applies p first and q second.  The
Schreier-Sims construction is the deterministic incremental variant:
generators are sifted down the stabilizer chain and the residue is installed
at the level where sifting fails, after which the new Schreier generators of
that level are processed.  Orders are exact Python integers, so no overflow
reasoning is ever needed.

Inside a group (stabilizer chain, strong generators, transversals) a
permutation is a 256-byte `bytes` object: the images of 0..n-1, then n..255
fixed.  Composing is then `p.translate(q)` and inverting is
`bytes.maketrans(p, _ID)`, both C loops over 256 bytes (a fraction of a
microsecond, against 10-20 us for the same on a 240-tuple), and the identity
test is `g == _ID`.  Hence the degree is at most 256.

Groups here act on at most 240 points with order at most |W(E8)| ~ 7e8,
well inside deterministic reach; full element enumeration is capped.
`elements()` walks the transversals lazily; `element_array()` builds the
same rows as one order x degree uint8 array, one gather per stabilizer level.
Conjugacy classes are computed on those rows, sorted: conjugation by each
generator is one `bytes.translate` and one column gather of all rows, each
conjugate is found by sifting its base images down the stabilizer chain (one
gather per level, the inverse of `element_array`), and min-label propagation
with pointer jumping labels each element by the row of the lexicographically
least member of its class.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator

import numpy as np

Permutation = tuple[int, ...]
CycleType = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7

#: the length of a permutation inside a group (see above), hence the degree cap
MAX_DEGREE = 256
_ID = bytes(range(MAX_DEGREE))


class CapacityError(RuntimeError):
    """Raised when full enumeration would exceed DEFAULT_ENUMERATION_CAP."""


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _encode(p: Permutation) -> bytes:
    return bytes(p) + _ID[len(p):]


def _inv(g: bytes) -> bytes:
    return bytes.maketrans(g, _ID)


def validate_permutation(p: Iterable[int], n: int) -> Permutation:
    p = tuple(p)
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {p!r}")
    return p


def cycle_type(p: Permutation) -> CycleType:
    """Cycle lengths of p, sorted descending (fixed points included as 1s)."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def fixed_points_of_power(ct: CycleType, m: int) -> int:
    """Number of fixed points of g^m given the cycle type of g."""
    return sum(c for c in ct if m % c == 0)


class _Level:
    """One level of the stabilizer chain: a base point, the strong generators
    assigned here, and the transversal u_x with u_x[point] = x (all encoded)."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[bytes] = []
        self.transversal: dict[int, bytes] = {point: _ID}

    def rep(self, x: int, n: int) -> Permutation:
        return tuple(self.transversal[x][:n])


class PermutationGroup:
    """Immutable permutation group with an exact stabilizer chain.

    Build with `PermutationGroup(n, generators)`; all queries (order,
    membership, orbits, stabilizers, enumeration, sampling) are pure.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Iterable[int]],
        base_prefix: Iterable[int] = (),
    ):
        if degree > MAX_DEGREE:
            raise ValueError(
                f"permutation groups here act on at most {MAX_DEGREE} points, got {degree}"
            )
        self.degree = degree
        self.generators = [validate_permutation(g, degree) for g in generators]
        self._levels: list[_Level] = []
        for b in base_prefix:
            if not 0 <= b < degree:
                raise ValueError(f"base point {b} out of range")
            self._levels.append(_Level(b))
        for g in self.generators:
            self._add(_encode(g), 0)
        self.base = tuple(lvl.point for lvl in self._levels)
        self.order = math.prod(len(lvl.transversal) for lvl in self._levels)

    @property
    def strong_generators(self) -> list[Permutation]:
        """All strong generators, deepest level first (no duplicates)."""
        seen: dict[bytes, None] = {}
        for lvl in reversed(self._levels):
            for g in lvl.gens:
                seen.setdefault(g)
        return [self._decode(g) for g in seen]

    def _decode(self, g: bytes) -> Permutation:
        return tuple(g[: self.degree])

    # -- construction ------------------------------------------------------

    def _sift(self, g: bytes, start: int) -> tuple[bytes, int]:
        """Strip g through levels >= start; returns (residue, failure level)."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            x = g[lvl.point]
            if x == lvl.point:
                continue
            u = lvl.transversal.get(x)
            if u is None:
                return g, i
            g = g.translate(_inv(u))
        return g, len(self._levels)

    def _add(self, g: bytes, start: int) -> None:
        """Sift g (which fixes base[:start]) and, if it is not yet a member,
        install the residue as a strong generator at levels start..failure."""
        g, j = self._sift(g, start)
        if g == _ID:
            return
        if j == len(self._levels):
            b = next(x for x in range(self.degree) if g[x] != x)
            self._levels.append(_Level(b))
        for k in range(start, j + 1):
            self._levels[k].gens.append(g)
        for k in range(start, j + 1):
            self._grow_level(k, g)

    def _grow_level(self, j: int, new_gen: bytes) -> None:
        """Extend orbit/transversal at level j after new_gen was installed and
        sift the resulting new Schreier generators one level down."""
        lvl = self._levels[j]
        # new generator applied to the whole existing orbit
        pairs = deque((x, new_gen) for x in sorted(lvl.transversal))
        while pairs:
            x, s = pairs.popleft()
            y = s[x]
            u_x = lvl.transversal[x]
            u_y = lvl.transversal.get(y)
            if u_y is not None:
                # Schreier generator u_x s u_y^{-1} fixes the base point
                schreier = u_x.translate(s).translate(_inv(u_y))
                if schreier != _ID:
                    self._add(schreier, j + 1)
            else:
                lvl.transversal[y] = u_x.translate(s)
                for s2 in lvl.gens:
                    pairs.append((y, s2))

    # -- queries -----------------------------------------------------------

    def contains(self, p: Iterable[int]) -> bool:
        residue, _ = self._sift(_encode(validate_permutation(p, self.degree)), 0)
        return residue == _ID

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        seen = {point}
        queue = deque([point])
        while queue:
            x = queue.popleft()
            for g in self.generators:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def is_transitive(self) -> bool:
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def stabilizer_of_point(self, point: int) -> "PermutationGroup":
        """The full stabilizer of `point`, with its own stabilizer chain."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        rebased = PermutationGroup(self.degree, self.generators, base_prefix=(point,))
        gens = [rebased._decode(g) for lvl in rebased._levels[1:] for g in lvl.gens]
        return PermutationGroup(self.degree, gens, base_prefix=rebased.base[1:])

    def _check_enumerable(self) -> None:
        if self.order > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"group order {self.order} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}"
            )

    def elements(self) -> Iterator[Permutation]:
        """Every element exactly once, as products of transversal words along
        the base, in deterministic order."""
        self._check_enumerable()

        def walk(i: int, right: bytes) -> Iterator[Permutation]:
            if i == len(self._levels):
                yield self._decode(right)
                return
            lvl = self._levels[i]
            for x in sorted(lvl.transversal):
                yield from walk(i + 1, lvl.transversal[x].translate(right))

        return walk(0, _ID)

    def element_array(self) -> np.ndarray:
        """Every element as one uint8 row of an order x degree array, in exactly
        the order of `elements()`: one gather per level of the stabilizer chain."""
        self._check_enumerable()
        n = self.degree
        rows = np.arange(n, dtype=np.uint8)[None, :]
        for lvl in self._levels:
            reps = np.array([lvl.rep(x, n) for x in sorted(lvl.transversal)], dtype=np.intp)
            # compose(u, right)[j] = right[u[j]], with the earlier levels outermost
            rows = rows[:, reps].reshape(-1, n)
        return rows

    def class_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """(elements, labels): every element as a uint8 row, sorted
        lexicographically (as big-endian words), and for each row the row index
        of the least member of its class.  A conjugate's row is found by sifting
        its base images down the chain (see above) and then checked in full."""
        el = self.element_array()
        order, n = el.shape
        words = np.pad(el, ((0, 0), (0, -n % 8))).view(">u8")  # byte order = word order
        by_row = np.lexsort(words.T[::-1])
        el, rank = el.take(by_row, axis=0), np.empty(order, dtype=np.intp)
        rank[by_row] = np.arange(order)
        sift = []  # per level: each point's place in the sorted orbit, the inverse reps
        for lvl in self._levels:
            points = sorted(lvl.transversal)
            place = np.full(MAX_DEGREE, -1, dtype=np.intp)
            place[points] = np.arange(len(points))
            inv = np.frombuffer(b"".join(_inv(lvl.transversal[x]) for x in points), np.uint8)
            sift.append((len(points), place, inv.astype(np.intp)))
        rows, neighbours = el.tobytes(), []
        for g in self.generators:
            conj = np.frombuffer(rows.translate(_encode(g)), np.uint8).reshape(order, n)
            conj = conj[:, inverse(g)]  # g^-1 y g for every element y
            images = conj.T[list(self.base)].astype(np.intp)  # widened before arithmetic
            found = np.zeros(order, dtype=np.intp)
            for i, (size, place, inv) in enumerate(sift):
                at = place[images[i]]
                assert at.min() >= 0, "conjugate outside the group"
                found = found * size + at
                images[i + 1:] = inv[images[i + 1:] + at * MAX_DEGREE]
            found = rank[found]
            assert np.array_equal(el.take(found, axis=0), conj), "conjugate outside the group"
            neighbours.append(found)
        label = np.arange(order)
        while True:
            new = label
            for nb in neighbours:
                new = np.minimum(new, new[nb])
            new = new[new]
            if np.array_equal(new, label):
                return el, label
            label = new

    def conjugacy_classes(self) -> list[tuple[Permutation, int]]:
        """(representative, class size) pairs: representatives are the
        lexicographically least class members, classes sorted by
        representative."""
        el, label = self.class_labels()
        reps, sizes = np.unique(label, return_counts=True)
        return [(tuple(int(x) for x in el[r]), int(s)) for r, s in zip(reps, sizes)]

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"
