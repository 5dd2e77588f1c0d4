"""Prime-field and rational arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest

from orthograph.fields import (
    GF2,
    GF3,
    QQ,
    PrimeField,
    field_from_name,
    is_prime,
)


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_field_rejects_composite_and_oversized():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(257)
    PrimeField(251)  # largest supported


def test_gf5_arithmetic_table():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(3) == 2
    assert f.div(1, 4) == 4
    assert list(f.elements()) == [0, 1, 2, 3, 4]


def test_every_nonzero_element_has_inverse():
    for p in (2, 3, 7, 13):
        f = PrimeField(p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF3.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_inner_product_is_bilinear_form_without_conjugation():
    # over GF(2) a vector can be orthogonal to itself
    assert GF2.inner((1, 1), (1, 1)) == 0
    assert GF3.inner((1, 2, 1), (2, 2, 1)) == 1
    assert QQ.inner((1, 2), (3, 4)) == 11
    # linear in each argument, with no conjugation of either
    f = PrimeField(7)
    x, y, z = (1, 5, 3), (6, 0, 2), (4, 4, 1)
    for a in range(7):
        ax_y = tuple(f.add(f.mul(a, u), v) for u, v in zip(x, y))
        assert f.inner(ax_y, z) == f.add(f.mul(a, f.inner(x, z)), f.inner(y, z))
        assert f.inner(z, ax_y) == f.inner(ax_y, z)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        GF2.inner((1,), (1, 0))
    with pytest.raises(ValueError, match="length mismatch"):
        PrimeField(5).inner((1, 2, 3), (1, 2))
    with pytest.raises(ValueError, match="length mismatch"):
        QQ.inner((), (1,))
    assert GF3.inner((), ()) == 0


def test_rational_field_exactness():
    x = QQ.div(1, 3)
    assert QQ.mul(x, 3) == 1
    assert QQ.add(x, x) == QQ.div(2, 3)


def test_field_from_name():
    assert field_from_name("2") == GF2
    assert field_from_name("Q") == QQ
    assert field_from_name("q") == QQ
    assert field_from_name("7") == PrimeField(7)
    with pytest.raises(ValueError):
        field_from_name("six")
    with pytest.raises(ValueError):
        field_from_name("6")


def test_canonical_form_of_elements():
    assert GF3.element(-1) == 2
    assert GF3.element(7) == 1
    assert QQ.element(2) * 1 == 2


@pytest.mark.parametrize("field", [GF2, PrimeField(5), PrimeField(31), QQ])
def test_row_operations_match_entrywise_arithmetic(field):
    xs = [3, -1, 0, 7] if field is not QQ else [Fraction(3, 4), -1, 0, Fraction(7, 2)]
    ys = [1, 4, -2, 5] if field is not QQ else [Fraction(1, 3), 4, Fraction(-2, 5), 5]
    for c in (0, 1, 2, -3) if field is not QQ else (0, 1, Fraction(-2, 3)):
        assert field.scale(c, xs) == [field.mul(c, x) for x in xs]
        assert field.sub_scaled(xs, c, ys) == [field.sub(x, field.mul(c, y)) for x, y in zip(xs, ys)]
    assert all(isinstance(x, Fraction) for x in QQ.sub_scaled(xs, 2, ys) + QQ.scale(2, xs))


def test_large_orders_are_rejected_before_the_primality_test():
    # 10**18 + 3 is prime: trial division up to its square root would take minutes
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        PrimeField(10**18 + 3)


def test_rational_strings_are_read_only_in_plain_forms():
    assert [QQ.element(s) for s in ("3", "-1/2", " 4/6 ", "0.25", "+.5")] == [
        3, Fraction(-1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(1, 2)]
    for bad in ("1/0", "2/00", "1e5", "1e100000000", "abc", "1/-2", ""):
        with pytest.raises(ValueError):
            QQ.element(bad)
