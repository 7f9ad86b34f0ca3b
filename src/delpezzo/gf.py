"""Finite fields, univariate polynomials, and embeddings between extensions.

Every field is an extension of its prime field: GF(p^k) = F_p[x]/(m) where m
is the lexicographically least monic irreducible of degree k (counter order:
the coefficient vector read as a base-p integer, constant digit least
significant).  An element is its counter encoding: the Python int whose
base-p digits are its coordinates over F_p, constant digit least significant,
which fixes a deterministic total order on each field.  So 0 and 1 are the
field's zero and one, and `range(fs.order)` lists its elements in that order.

All arithmetic reads the field's tables (`FieldSpec.tables`, built on first
use from the least primitive element), which every field has: `field` and
`monic_irreducibles` refuse orders above TABLE_FIELD_CAP.  Sums are
`_Tables.add` (XOR in characteristic 2, digit by digit otherwise), negatives
are NEG, and products, powers and inverses read the log/exp tables.  The
same rules serve scalars here and the vectorized kernels of `surface`.

Polynomial arithmetic is one layer over the prime field, on digit lists with
the constant term first (`_pmul`, `_pmod`, `_pgcd`, `_ppowmod`).  One
irreducibility test (`_prime_poly_irreducible`, in counter order) gives both
the moduli of `field` and the places of F_p(u) (`monic_irreducibles`).  One
Horner's rule (`_horner`, at one element or at every element of a field at
once) evaluates a `UniPoly`, builds the table of an `Embedding` (the image of
every element, which a lift then reads), and drives the one least-root search
(`_least_root`), which gives both the root that fixes an embedding and the
root at which a place specializes a form.  `UniPoly` only holds and
evaluates a place or a coefficient.

Cross-field comparisons always go through explicit embeddings (the least root
of the source modulus in the destination), never through modulus choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

Element = int

#: the largest field, which has arithmetic tables (EXP holds about 17 q entries)
TABLE_FIELD_CAP = 2**16


class FieldSizeError(ValueError):
    """A field or a place of order above TABLE_FIELD_CAP was requested."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(n: int, base: int, length: int) -> list[int]:
    """The `length` least significant base-`base` digits of n, lowest first."""
    out = []
    for _ in range(length):
        n, r = divmod(n, base)
        out.append(r)
    return out


# -- dense polynomial arithmetic over the prime field (int coefficient lists,
#    constant term first, no trailing zeros) --------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        _trim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [x * inv_lead % p for x in a]
    return a


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _prime_poly_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic f over F_p is irreducible iff gcd(f, x^(p^i) - x) = 1 for all
    i <= deg(f)/2 (x^(p^i)-x is the product of the irreducibles of degree
    dividing i, and two cofactors of degree > deg/2 cannot coexist)."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    xq = [0, 1]
    for _ in range(k // 2):
        xq = _ppowmod(xq, p, coeffs, p)
        diff = list(xq)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(coeffs, _trim(diff), p)) != 1:
            return False
    return True


def _irreducible_digits(p: int, degree: int) -> Iterator[list[int]]:
    """The monic irreducibles of the given degree over F_p, as digit lists in
    counter order."""
    for counter in range(p**degree):
        coeffs = _digits(counter, p, degree) + [1]  # monic
        if _prime_poly_irreducible(coeffs, p):
            yield coeffs


def _horner(tab: _Tables, coeffs, x):
    """The polynomial with coefficients `coeffs` (constant term first) at x,
    by Horner's rule on the field's tables: x is one encoding or an array."""
    acc = 0
    for c in reversed(coeffs):
        acc = tab.add(tab.mul(acc, x), c)
    return acc


def _least_root(coeffs, dst: FieldSpec) -> Element:
    """The least element of dst at which the polynomial with prime-field
    digits `coeffs` (constant term first, encoded alike in dst) vanishes:
    Horner's rule on every element of dst at once."""
    values = _horner(dst.tables, coeffs, np.arange(dst.order, dtype=np.int64))
    return int(np.flatnonzero(values == 0)[0])


class _Tables:
    """Log/exp tables of one field, for scalar and vectorized arithmetic on
    encodings.

    A product of up to four factors is EXP[sum of their LOGs]: LOG[0] is a
    sentinel above every sum of four nonzero logs (at most 4(q-2)), and EXP is
    zero from the sentinel on, through four sentinels plus q, so any product
    with a zero factor lands in the zero pad.  NEG maps an encoding to that of
    its negative; in odd characteristic COORDS holds the digits of every
    encoding and PPOW the powers of p that fold digits back into encodings."""

    def __init__(self, fs: FieldSpec):
        self.fs = fs
        q, p = fs.order, fs.p
        modulus = list(fs.modulus)
        # the least encoding from 2 on of order q - 1 (1 in GF(2)), and its powers
        primes = [ell for ell in range(2, q) if (q - 1) % ell == 0 and is_prime(ell)]
        candidates = (_trim(_digits(enc, p, fs.k)) for enc in range(2, q))
        gen = next((g for g in candidates
                    if all(_ppowmod(g, (q - 1) // ell, modulus, p) != [1] for ell in primes)), [1])
        cycle, e = [], [1]
        for _ in range(q - 1):
            cycle.append(sum(d * p**i for i, d in enumerate(e)))
            e = _pmod(_pmul(e, gen, p), modulus, p)
        zero_log = 4 * (q - 1)
        self.LOG = np.full(q, zero_log, dtype=np.int64)
        self.LOG[cycle] = np.arange(q - 1)
        self.EXP = np.zeros(4 * zero_log + q, dtype=np.int64)
        self.EXP[:zero_log] = np.tile(cycle, 4)
        encodings = np.arange(q, dtype=np.int64)
        if p == 2:
            self.COORDS = None
            self.PPOW = None
            self.NEG = encodings
        else:
            self.PPOW = p ** np.arange(fs.k, dtype=np.int64)
            self.COORDS = encodings[:, None] // self.PPOW % p
            self.NEG = (-self.COORDS % p) @ self.PPOW

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.EXP[self.LOG[a] + self.LOG[b]]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.COORDS is None:
            return a ^ b
        # digit by digit: (a // p^i + b // p^i) % p is the i-th digit of the sum
        return sum((a // w + b // w) % self.fs.p * w for w in self.PPOW)


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) with a fixed monic modulus over F_p (constant term first)."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.k

    @cached_property
    def tables(self) -> _Tables:
        """The field's log/exp tables, built on the first product."""
        return _Tables(self)

    # -- encoding ------------------------------------------------------------

    def from_int(self, n: int) -> Element:
        """Check that n encodes an element of this field."""
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range for field of order {self.order}")
        return n

    def to_int(self, e: Element) -> int:
        """The counter encoding of e, which is e itself."""
        return e

    def scalar(self, c: int) -> Element:
        """The prime-field element c (mod p) inside this field."""
        return c % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return int(self.tables.add(a, b))

    def neg(self, a: Element) -> Element:
        return int(self.tables.NEG[a])

    def mul(self, a: Element, b: Element) -> Element:
        tab = self.tables
        return int(tab.EXP[tab.LOG[a] + tab.LOG[b]])

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            a, e = self.inv(a), -e
        if e == 0:
            return 1
        if a == 0:
            return 0
        tab = self.tables
        return int(tab.EXP[int(tab.LOG[a]) * e % (self.order - 1)])

    def inv(self, a: Element) -> Element:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> FieldSpec:
    """GF(p^k) with the deterministic least monic modulus of degree k.  The
    sizes are checked before trial division and before p**k, which are slow
    for a huge p or k."""
    if p <= TABLE_FIELD_CAP and not is_prime(p):
        raise ValueError(f"{p} is not prime; build extensions as field(p, k)")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p > TABLE_FIELD_CAP or k > TABLE_FIELD_CAP.bit_length() or p**k > TABLE_FIELD_CAP:
        raise FieldSizeError(f"GF({p}^{k}): no arithmetic tables above order {TABLE_FIELD_CAP}")
    return FieldSpec(p, k, tuple(next(_irreducible_digits(p, k))))


@dataclass(frozen=True)
class Embedding:
    """Ring embedding src -> dst determined by the least root of src.modulus.
    `table` holds the image of every element of src, read-only: the
    coordinate polynomial sum_i e_i x^i of e, evaluated at root."""

    src: FieldSpec
    dst: FieldSpec
    root: Element
    table: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src = self.src
        digits = np.arange(src.order, dtype=np.int64) // src.p ** np.arange(src.k)[:, None] % src.p
        table = _horner(self.dst.tables, digits, self.root)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __call__(self, e: Element) -> Element:
        return int(self.table[e])


@lru_cache(maxsize=None)
def embed(src: FieldSpec, dst: FieldSpec) -> Embedding:
    """The deterministic embedding GF(p^a) -> GF(p^b) for a | b."""
    if src.p != dst.p:
        raise ValueError("embeddings require equal characteristic")
    if dst.k % src.k != 0:
        raise ValueError(f"no embedding: {src.k} does not divide {dst.k}")
    # the modulus splits in any field of divisible degree
    return Embedding(src, dst, _least_root(src.modulus, dst))


# -- univariate polynomials: places and coefficients over F_p(u) ------------


@dataclass(frozen=True)
class UniPoly:
    """Polynomial over a FieldSpec; coefficients constant-term first with no
    trailing zeros (the zero polynomial has an empty tuple)."""

    field: FieldSpec
    coeffs: tuple[Element, ...]

    @staticmethod
    def from_ints(fs: FieldSpec, encodings: list[int]) -> "UniPoly":
        return UniPoly(fs, tuple(_trim([fs.from_int(n) for n in encodings])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def format(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def evaluate(self, x: Element) -> Element:
        """Horner evaluation at x."""
        return int(_horner(self.field.tables, self.coeffs, x))


def monic_irreducibles(fs: FieldSpec, degree: int) -> list[UniPoly]:
    """All monic irreducibles of the given degree over the prime field fs, in
    counter order (the finite places of that degree of F_p(u))."""
    if fs.k != 1:
        raise ValueError(f"places are taken over a prime field, not {fs!r}")
    if fs.p**degree > TABLE_FIELD_CAP:
        raise FieldSizeError(f"places of degree {degree} lie in GF({fs.p}^{degree}), above order {TABLE_FIELD_CAP}")
    return [UniPoly(fs, tuple(c)) for c in _irreducible_digits(fs.p, degree)]
