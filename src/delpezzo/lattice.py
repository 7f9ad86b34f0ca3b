"""Blow-up model of the Picard lattice of a del Pezzo surface.

Pic is modelled as Z^(1,9-d) with the intersection form diag(+1, -1, ..., -1)
in the basis (H, E1, ..., E_{9-d}) and canonical class K = -3H + E1 + ... + E_{9-d}.
Exceptional classes are the lattice vectors with v.v = v.K = -1, roots the
vectors with v.v = -2 and v.K = 0.  A class v meets E_{9-d} in -v_{9-d}, so
blowing E_{9-d} down drops the last coordinate of the classes disjoint from it.
Everything here is exact integer arithmetic on plain tuples; all values are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

LatticeVector = tuple[int, ...]

#: number of exceptional classes for degree 1..7
CLASS_COUNTS = {1: 240, 2: 56, 3: 27, 4: 16, 5: 10, 6: 6, 7: 3}


class UnsupportedDegreeError(ValueError):
    """Raised for degrees outside 1..7."""


class DimensionError(ValueError):
    """Raised when a vector's length does not match the lattice rank."""


@dataclass(frozen=True)
class DegreeContext:
    """The rank-(10-d) lattice attached to a degree-d del Pezzo surface."""

    degree: int

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= 7:
            raise UnsupportedDegreeError(
                f"degree must be in 1..7, got {self.degree}"
            )

    @property
    def rank(self) -> int:
        return 10 - self.degree

    @property
    def num_blowups(self) -> int:
        return 9 - self.degree

    @property
    def canonical_class(self) -> LatticeVector:
        return (-3,) + (1,) * self.num_blowups

    def check_vector(self, v: LatticeVector) -> None:
        if len(v) != self.rank:
            raise DimensionError(
                f"vector of length {len(v)} in a rank-{self.rank} lattice"
            )


def pairing(ctx: DegreeContext, v: LatticeVector, w: LatticeVector) -> int:
    """Intersection pairing v0*w0 - sum_{i>=1} vi*wi."""
    ctx.check_vector(v)
    ctx.check_vector(w)
    return v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))


def _search(n: int, lin: int, quad: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All integer tuples (b_1..b_n) in [lo, hi]^n with sum b_i = lin and
    sum b_i^2 = quad, pruned by Cauchy-Schwarz on the unassigned suffix."""
    out: list[tuple[int, ...]] = []
    partial: list[int] = []

    def rec(i: int, s: int, q: int) -> None:
        if i == n:
            if s == 0 and q == 0:
                out.append(tuple(partial))
            return
        m = n - i - 1
        for b in range(lo, hi + 1):
            q2 = q - b * b
            if q2 < 0:
                continue
            s2 = s - b
            # remaining coordinates must satisfy (sum)^2 <= m * (sum of squares)
            if m == 0:
                if s2 != 0 or q2 != 0:
                    continue
            elif s2 * s2 > m * q2:
                continue
            partial.append(b)
            rec(i + 1, s2, q2)
            partial.pop()

    rec(0, lin, quad)
    return out


def _class_vectors(ctx: DegreeContext, self_int: int, k_int: int) -> list[LatticeVector]:
    """All v = a*H - sum b_i*E_i with v.v = self_int and v.K = k_int.

    From the two constraints, a^2 - sum b_i^2 = self_int and
    3a - sum b_i = -k_int, so Cauchy-Schwarz bounds a:
    (3a + k_int)^2 <= (9-d) * (a^2 - self_int).
    """
    n = ctx.num_blowups
    found: list[LatticeVector] = []
    # |a| <= 16 is far outside the Cauchy-Schwarz bound for every d (a <= 7 at d=1)
    for a in range(-16, 17):
        lin = 3 * a + k_int  # required sum of b_i
        quad = a * a - self_int  # required sum of b_i^2
        if lin * lin > n * quad:
            continue
        bound = abs(a) + 1  # b_i^2 <= quad <= (|a|+1)^2
        for bs in _search(n, lin, quad, -bound, bound):
            found.append((a,) + tuple(-b for b in bs))
    return sorted(found)


@lru_cache(maxsize=None)
def exceptional_classes(ctx: DegreeContext) -> tuple[LatticeVector, ...]:
    """The classes with v.v = v.K = -1, sorted lexicographically.

    The count is 240, 56, 27, 16, 10, 6, 3 for d = 1..7; index positions in
    this tuple are the canonical vertex numbering used everywhere else.
    """
    return tuple(_class_vectors(ctx, -1, -1))


@lru_cache(maxsize=None)
def roots(ctx: DegreeContext) -> tuple[LatticeVector, ...]:
    """The roots: v.v = -2 and v.K = 0, sorted lexicographically."""
    return tuple(_class_vectors(ctx, -2, 0))


def simple_roots(ctx: DegreeContext) -> tuple[LatticeVector, ...]:
    """The fixed simple system: H-E1-E2-E3 (when 9-d >= 3) and E_i - E_{i+1}."""
    n = ctx.num_blowups
    rank = ctx.rank
    out: list[LatticeVector] = []
    if n >= 3:
        v = [1] + [0] * n
        v[1] = v[2] = v[3] = -1
        out.append(tuple(v))
    for i in range(1, n):
        v = [0] * rank
        v[i] = 1
        v[i + 1] = -1
        out.append(tuple(v))
    return tuple(out)


def reflect(ctx: DegreeContext, root: LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection of v in the hyperplane of a (-2)-root: v + (v.root) root."""
    if pairing(ctx, root, root) != -2:
        raise ValueError(f"{root} is not a root (self-intersection != -2)")
    c = pairing(ctx, v, root)
    return tuple(a + c * b for a, b in zip(v, root))

