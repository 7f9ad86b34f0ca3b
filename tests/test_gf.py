import itertools

import numpy as np
import pytest

from delpezzo import gf
from delpezzo.experiment import FunctionFieldCubic, _place_root, places_up_to
from delpezzo.gf import (
    FieldSizeError,
    UniPoly,
    _digits,
    _horner,
    embed,
    field,
    is_prime,
    monic_irreducibles,
)


# -- a reference: elements as coordinate tuples, products by polynomial
#    multiplication and reduction mod the field's modulus ----------------------


def ref_decode(fs, n):
    return tuple((n // fs.p**i) % fs.p for i in range(fs.k))


def ref_encode(fs, t):
    return sum(d * fs.p**i for i, d in enumerate(t))


def ref_add(fs, a, b):
    return tuple((x + y) % fs.p for x, y in zip(a, b))


def ref_mul(fs, a, b):
    p, m = fs.p, fs.modulus
    prod = [0] * (2 * fs.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, fs.k - 1, -1):  # m is monic
        c = prod[top]
        for i, y in enumerate(m):
            prod[top - fs.k + i] = (prod[top - fs.k + i] - c * y) % p
    return tuple(prod[: fs.k])


def ref_embed(src, dst, e):
    """sum_i e_i r^i for the least root r of src's modulus in dst, all in
    tuple arithmetic."""

    def horner(coords, x):
        acc = (0,) * dst.k
        for c in reversed(coords):
            acc = ref_add(dst, ref_mul(dst, acc, x), ref_decode(dst, c))
        return acc

    root = next(x for x in map(lambda n: ref_decode(dst, n), range(dst.order))
                if not any(horner(src.modulus, x)))
    return ref_encode(dst, horner(ref_decode(src, e), root))


# -- a reference ring: polynomials over a field as coefficient tuples, with
#    the field's scalar operations, and the gcd irreducibility test on them ----


def ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_pmul(fs, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fs.add(out[i + j], fs.mul(x, y))
    return ref_trim(out)


def ref_pmod(fs, a, m):
    a = list(a)
    inv_lead = fs.inv(m[-1])
    while len(a) >= len(m):
        c = fs.mul(a[-1], inv_lead)
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = fs.add(a[shift + i], fs.neg(fs.mul(c, y)))
        a = list(ref_trim(a))
    return tuple(a)


def ref_gcd(fs, a, b):
    while b:
        a, b = b, ref_pmod(fs, a, b)
    inv_lead = fs.inv(a[-1])
    return tuple(fs.mul(c, inv_lead) for c in a)


def ref_powmod(fs, base, e, m):
    result, base = (1,), ref_pmod(fs, base, m)
    while e:
        if e & 1:
            result = ref_pmod(fs, ref_pmul(fs, result, base), m)
        base = ref_pmod(fs, ref_pmul(fs, base, base), m)
        e >>= 1
    return result


def ref_is_irreducible(fs, f):
    """gcd(f, u^(q^i) - u) = 1 for every i <= deg f / 2."""
    if len(f) < 2:
        return False
    xq = (0, 1)
    for _ in range((len(f) - 1) // 2):
        xq = ref_powmod(fs, xq, fs.order, f)
        diff = list(xq) + [0] * max(0, 2 - len(xq))
        diff[1] = fs.add(diff[1], fs.neg(1))
        if len(ref_gcd(fs, f, ref_trim(diff))) != 1:
            return False
    return True


def ref_monic_irreducibles(fs, degree):
    monics = (tuple(n // fs.p**i % fs.p for i in range(degree)) + (1,) for n in range(fs.p**degree))
    return [f for f in monics if ref_is_irreducible(fs, f)]


def ref_least_root(coeffs, dst):
    """The least element of dst where the prime-field polynomial vanishes,
    one scalar Horner evaluation at a time."""
    def value(x):
        acc = 0
        for c in reversed(coeffs):
            acc = dst.add(dst.mul(acc, x), c)
        return acc

    return next(x for x in range(dst.order) if value(x) == 0)


def test_vectorized_arithmetic_matches_field():
    """Scalar and vectorized table arithmetic against the tuple reference, on
    every pair of elements."""
    for p, k in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)]:
        fs = field(p, k)
        els = list(range(fs.order))
        pairs = list(itertools.product(els, repeat=2))
        mul = {(a, b): ref_encode(fs, ref_mul(fs, ref_decode(fs, a), ref_decode(fs, b))) for a, b in pairs}
        add = {(a, b): ref_encode(fs, ref_add(fs, ref_decode(fs, a), ref_decode(fs, b))) for a, b in pairs}
        neg = [next(b for b in els if add[a, b] == 0) for a in els]
        for a, b in pairs:
            assert fs.mul(a, b) == mul[a, b]
            assert fs.add(a, b) == add[a, b]
        for a in els:
            assert fs.neg(a) == neg[a]
            if a:
                assert mul[a, fs.inv(a)] == 1
        # the vectorized operations of the surface kernels
        tab = fs.tables
        a, b = (x.ravel() for x in np.meshgrid(els, els, indexing="ij"))
        assert tab.mul(a, b).tolist() == [mul[x, y] for x, y in zip(a.tolist(), b.tolist())]
        assert tab.add(a, b).tolist() == [add[x, y] for x, y in zip(a.tolist(), b.tolist())]
        assert tab.NEG.tolist() == neg


@pytest.mark.parametrize("p,a,b", [(2, 1, 2), (2, 2, 4), (3, 1, 2), (2, 3, 6)])
def test_embedding_matches_tuple_reference(p, a, b):
    src, dst = field(p, a), field(p, b)
    emb = embed(src, dst)
    assert [emb(e) for e in range(src.order)] == [ref_embed(src, dst, e) for e in range(src.order)]


def test_embedding_table_is_the_horner_value_of_every_element():
    # every (src, dst) pair up to GF(2^9) and GF(3^6): the table that an
    # embedding and an extended form read holds sum_i e_i root^i
    for p, top in ((2, 9), (3, 6)):
        for b in range(1, top + 1):
            dst = field(p, b)
            for src in (field(p, a) for a in range(1, b + 1) if b % a == 0):
                emb = embed(src, dst)
                horner = [int(_horner(dst.tables, _digits(e, p, src.k), emb.root)) for e in range(src.order)]
                assert emb.table.tolist() == horner, (src, dst)
                assert not emb.table.flags.writeable


def test_elements_are_python_ints():
    from delpezzo.experiment import specialize
    from delpezzo.surface import CubicForm

    for fs in (field(2, 3), field(3, 2)):
        a, b = 5, 7
        for x in (fs.add(a, b), fs.neg(a), fs.mul(a, b), fs.pow(a, 5),
                  fs.pow(a, -2), fs.inv(a), fs.scalar(4), fs.from_int(3)):
            assert type(x) is int
        big = field(fs.p, 2 * fs.k)
        assert all(type(embed(fs, big)(e)) is int for e in range(fs.order))
        f = UniPoly.from_ints(fs, [1, 2, 3])
        for poly in monic_irreducibles(field(fs.p), 3):
            assert all(type(c) is int for c in poly.coeffs)
        assert type(f.evaluate(6)) is int
        form = CubicForm.fermat(fs)
        assert all(type(c) is int for c in form.extend(2).coeffs)
    base = field(2)
    coeffs = [UniPoly.from_ints(base, [1])] + [UniPoly.from_ints(base, [0, 1, 1])] * 19
    cubic = FunctionFieldCubic(base, tuple(coeffs))
    for place in places_up_to(base, 3):
        assert all(type(c) is int for c in specialize(cubic, place).coeffs)


def test_prime_field_basics():
    f5 = field(5)
    assert f5.order == 5
    assert f5.modulus == (0, 1)  # x itself
    a, b = f5.from_int(3), f5.from_int(4)
    assert f5.to_int(f5.add(a, b)) == 2
    assert f5.to_int(f5.mul(a, b)) == 2
    assert f5.mul(a, f5.inv(a)) == 1


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        field(4)
    with pytest.raises(ValueError):
        field(1)


#: a Mersenne prime far above the table cap: trial division takes minutes
HUGE_PRIME = 2**61 - 1


class _Exponent(int):
    """An extension degree that fails the test if p**k is ever computed."""

    def __rpow__(self, base):
        raise AssertionError(f"{base}**{int(self)} was computed")


def test_field_sizes_are_checked_before_primality_and_powers(monkeypatch):
    from delpezzo import gf

    def small_only(n):
        assert n <= gf.TABLE_FIELD_CAP, f"trial division of {n}"
        return is_prime(n)

    monkeypatch.setattr(gf, "is_prime", small_only)
    for p, k in ((HUGE_PRIME, 1), (65537, 1), (2, _Exponent(10**11)), (65521, 2)):
        with pytest.raises(FieldSizeError, match="no arithmetic tables above order 65536"):
            gf.field.__wrapped__(p, k)
    # below the cap the messages stay
    with pytest.raises(ValueError, match="^4 is not prime"):
        gf.field.__wrapped__(4, _Exponent(10**11))
    with pytest.raises(ValueError, match="extension degree"):
        gf.field.__wrapped__(3, 0)


def test_least_modulus_for_gf4():
    assert field(2, 2).modulus == (1, 1, 1)  # 1 + x + x^2


def test_gf4_multiplication():
    f4 = field(2, 2)
    x, x1 = 2, 3  # x and x + 1
    assert f4.mul(x, x1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(3).inv(0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_field_axioms_exhaustive_small(p, k):
    fs = field(p, k)
    elements = list(range(fs.order))
    one, zero = 1, 0
    for a in elements:
        assert fs.add(a, zero) == a
        assert fs.mul(a, one) == a
        assert fs.add(a, fs.neg(a)) == zero
        if a != zero:
            assert fs.mul(a, fs.inv(a)) == one
    # frobenius is additive and multiplicative; frobenius^k is the identity
    sample = elements[:: max(1, len(elements) // 12)]
    for a, b in itertools.product(sample, repeat=2):
        assert fs.pow(fs.add(a, b), p) == fs.add(fs.pow(a, p), fs.pow(b, p))
        assert fs.pow(fs.mul(a, b), p) == fs.mul(fs.pow(a, p), fs.pow(b, p))
    for a in elements:
        x = a
        for _ in range(k):
            x = fs.pow(x, p)
        assert x == a


def test_frobenius_fixes_exactly_prime_subfield_in_gf4():
    f4 = field(2, 2)
    fixed = [e for e in range(f4.order) if f4.pow(e, f4.p) == e]
    assert fixed == [0, 1]


def test_embedding_is_ring_hom_on_all_pairs_small():
    # exhaustive pair checks for every source field up to size 16, with the
    # largest destination of size 256
    for (p, a, b) in [(2, 1, 2), (2, 2, 4), (3, 1, 2), (2, 1, 4), (2, 4, 8)]:
        src, dst = field(p, a), field(p, b)
        emb = embed(src, dst)
        els = list(range(src.order))
        assert emb(1) == 1
        for x, y in itertools.product(els, repeat=2):
            assert emb(src.add(x, y)) == dst.add(emb(x), emb(y))
            assert emb(src.mul(x, y)) == dst.mul(emb(x), emb(y))
        # injectivity
        assert len({emb(x) for x in els}) == len(els)


def test_embedding_image_lies_in_the_right_subfield():
    f4, f16 = field(2, 2), field(2, 4)
    emb = embed(f4, f16)
    for e in range(f4.order):
        img = emb(e)
        assert f16.pow(img, 4) == img  # the GF(4) locus of GF(16)


def test_embedding_commutes_with_source_frobenius_power():
    f4, f16 = field(2, 2), field(2, 4)
    emb = embed(f4, f16)
    for a in range(f4.order):
        lhs = emb(f4.pow(a, 4))
        x = emb(a)
        rhs = f16.pow(x, 4)
        assert lhs == rhs


def test_embedding_composition_from_prime_field():
    f2, f4, f16 = field(2, 1), field(2, 2), field(2, 4)
    via = lambda e: embed(f4, f16)(embed(f2, f4)(e))
    direct = embed(f2, f16)
    for e in range(f2.order):
        assert via(e) == direct(e)


def test_embedding_requires_divisible_degree():
    with pytest.raises(ValueError):
        embed(field(2, 2), field(2, 3))
    with pytest.raises(ValueError):
        embed(field(2, 1), field(3, 1))


def test_identity_embedding():
    f8 = field(2, 3)
    emb = embed(f8, f8)
    assert all(emb(e) == e for e in range(f8.order))


def test_monic_irreducibles_over_f2():
    f2 = field(2)
    assert [f.format() for f in monic_irreducibles(f2, 1)] == ["0,1", "1,1"]
    assert [f.format() for f in monic_irreducibles(f2, 2)] == ["1,1,1"]
    assert len(monic_irreducibles(f2, 3)) == 2  # (2^3 - 2) / 3


@pytest.mark.parametrize("p,k,m", [(2, 1, 4), (3, 1, 3), (2, 1, 6), (5, 1, 2)])
def test_field_splitting_identity(p, k, m):
    fs = field(p, k)
    q = fs.order
    total = sum(
        s * len(monic_irreducibles(fs, s)) for s in range(1, m + 1) if m % s == 0
    )
    assert total == q**m


def test_irreducibles_cap():
    # every field and every place has tables: both stop at order 2^16
    with pytest.raises(FieldSizeError, match="above order"):
        field(2, 17)
    with pytest.raises(FieldSizeError, match="above order"):
        monic_irreducibles(field(2), 17)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_irreducibles_and_moduli_match_the_reference_gcd_test(p, max_degree):
    fs = field(p)
    for s in range(1, max_degree + 1):
        expected = ref_monic_irreducibles(fs, s)
        assert [f.coeffs for f in monic_irreducibles(fs, s)] == expected
        assert field(p, s).modulus == expected[0]


def test_places_need_a_prime_base_field():
    f4 = field(2, 2)
    with pytest.raises(ValueError):
        monic_irreducibles(f4, 1)
    with pytest.raises(ValueError):
        FunctionFieldCubic(f4, (UniPoly.from_ints(f4, [1]),) * 20)


def test_embedding_root_is_the_least_root_of_the_source_modulus():
    for p in filter(is_prime, range(2, 1025)):
        for b in range(1, 11):
            if p**b > 1024:
                break
            dst = field(p, b)
            for src in (field(p, a) for a in range(1, b + 1) if b % a == 0):
                assert embed(src, dst).root == ref_least_root(src.modulus, dst), (src, dst)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 3)])
def test_place_root_is_the_least_root_of_the_place(p, max_degree):
    base = field(p)
    for place in places_up_to(base, max_degree):
        target, root = _place_root(place.coeffs, base)
        assert target == field(p, place.degree)
        assert root == ref_least_root(place.coeffs, target), place.format()


def test_unipoly_parse_format_roundtrip_and_eval():
    f3 = field(3)
    poly = UniPoly.from_ints(f3, [1, 2, 0, 1])  # 1 + 2u + u^3
    assert poly.degree == 3
    assert poly.format() == "1,2,0,1"
    assert UniPoly.from_ints(f3, [int(t) for t in poly.format().split(",")]) == poly
    # evaluate at u = 2: 1 + 4 + 8 = 13 = 1 mod 3
    assert poly.evaluate(f3.from_int(2)) == f3.from_int(1)


def test_unipoly_gcd_and_irreducibility():
    f2 = field(2)
    u2u1 = (1, 1, 1)
    assert UniPoly(f2, u2u1) in monic_irreducibles(f2, 2)
    square = ref_pmul(f2, u2u1, u2u1)
    assert UniPoly(f2, square) not in monic_irreducibles(f2, 4)
    assert ref_gcd(f2, square, u2u1) == u2u1
    assert ref_is_irreducible(f2, u2u1) and not ref_is_irreducible(f2, square)
    assert not gf._prime_poly_irreducible([1], 2)  # a constant is no irreducible


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
