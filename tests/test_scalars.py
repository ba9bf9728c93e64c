import random
from fractions import Fraction

import pytest

from heisgrad.scalars import (CycloCtx, ScalarSyntaxError, cyclotomic_poly,
                              divisors, embed, format_scalar, parse_scalar,
                              root_of_unity_order, scan_conductors, sqrt_int,
                              sqrt_rational, sqrt_scalar)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    # independent oracle: divide x^4 - 1 by (x - 1)(x + 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)


def test_cyclotomic_divides_xn_minus_1():
    for n in range(1, 40):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, list(cyclotomic_poly(d)))
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want  # product over divisors reconstitutes x^n - 1


def test_cyclotomic_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)

    for n in (1, 2, 6, 12, 16, 30):
        assert CycloCtx(n).degree == totient(n)


def test_zeta_powers():
    ctx = CycloCtx(4)
    z = ctx.zeta()
    assert z * z == -ctx.one()
    ctx8 = CycloCtx(8)
    z8 = ctx8.zeta()
    assert z8.inv() == z8 ** 7


def test_zeta_is_primitive():
    for n in (1, 2, 3, 4, 6, 8, 12, 16):
        ctx = CycloCtx(n)
        z = ctx.zeta()
        assert z**n == ctx.one()
        for d in divisors(n)[:-1]:
            assert z**d != ctx.one()


def test_embed():
    ctx4, ctx12 = CycloCtx(4), CycloCtx(12)
    x = embed(ctx4.zeta(), ctx12)
    assert x == ctx12.zeta(3)
    assert x * x == -ctx12.one()
    with pytest.raises(ValueError):
        embed(ctx12.zeta(), ctx4)


def test_embed_is_a_field_homomorphism():
    rng = random.Random(31)
    ctx6, ctx12 = CycloCtx(6), CycloCtx(12)

    def rand():
        return ctx6.reduce([Fraction(rng.randint(-4, 4)) for _ in range(2)])

    for _ in range(20):
        a, b = rand(), rand()
        assert embed(a * b, ctx12) == embed(a, ctx12) * embed(b, ctx12)
        assert embed(a + b, ctx12) == embed(a, ctx12) + embed(b, ctx12)


def test_field_axioms_random():
    rng = random.Random(7)
    ctx = CycloCtx(12)

    def rand():
        return ctx.reduce([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(ctx.degree)])

    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == ctx.one()


def test_sqrt_int_sweep():
    for l in range(1, 31):
        ctx = CycloCtx(4 * l)
        s = sqrt_int(l, ctx)
        assert s * s == ctx.from_fraction(l)


def test_sqrt_int_perfect_square_is_rational():
    ctx = CycloCtx(36)
    assert sqrt_int(9, ctx) == ctx.from_fraction(3)


def test_sqrt_int_conductor_requirement():
    with pytest.raises(ValueError):
        sqrt_int(2, CycloCtx(4))


def test_sqrt_rational_non_integers():
    ctx = CycloCtx(120)
    for q in (Fraction(2, 3), Fraction(5, 12), Fraction(1, 4), Fraction(30)):
        s = sqrt_rational(q, ctx)
        assert s is not None
        assert s * s == ctx.from_fraction(q)
    assert sqrt_rational(Fraction(9, 4), ctx) == ctx.from_fraction(Fraction(3, 2))
    assert sqrt_rational(0, ctx) == ctx.zero()


def test_sqrt_rational_needs_the_gauss_sum_roots():
    assert sqrt_rational(3, CycloCtx(8)) is None  # needs 12 | N
    assert sqrt_rational(2, CycloCtx(12)) is None  # needs 8 | N
    assert sqrt_rational(3, CycloCtx(12)) is not None
    with pytest.raises(ValueError):
        sqrt_rational(-1, CycloCtx(12))


def test_sqrt_scalar_roots_of_unity_times_rationals():
    ctx = CycloCtx(24)
    for k in range(24):
        for q in (Fraction(1), Fraction(3), Fraction(2, 3), Fraction(-6)):
            x = ctx.zeta(2 * k) * q
            s = sqrt_scalar(x)
            assert s * s == x
    assert sqrt_scalar(ctx.zero()) == ctx.zero()


def test_sqrt_scalar_rejects_unrepresentable():
    with pytest.raises(ValueError):
        sqrt_scalar(CycloCtx(8).from_fraction(3))  # sqrt(3) needs 12 | N
    with pytest.raises(ValueError):
        sqrt_scalar(CycloCtx(12).one() + CycloCtx(12).zeta())


def test_root_of_unity_order():
    ctx = CycloCtx(12)
    assert root_of_unity_order(ctx.zeta(3)) == 4
    assert root_of_unity_order(ctx.from_fraction(2)) is None
    assert root_of_unity_order(-ctx.zeta(4)) == 6  # -zeta_3
    assert root_of_unity_order(ctx.zero()) is None


def test_root_of_unity_order_is_minimal():
    ctx = CycloCtx(16)
    for k in range(16):
        x = ctx.zeta(k)
        m = root_of_unity_order(x)
        assert x**m == ctx.one()
        for d in divisors(m)[:-1]:
            assert x**d != ctx.one()


def test_parse_and_format_roundtrip():
    ctx = CycloCtx(8)
    for text in ("1/2", "zeta(8)^3", "2*zeta(4)", "1+zeta(8)", "-1",
                 "1/2*zeta(8)^3 + 2 - i", "(1+i)*(1-i)", "zeta(8)^-1"):
        x = parse_scalar(text, ctx)
        assert parse_scalar(format_scalar(x), ctx) == x


def test_parse_rejects_garbage():
    ctx = CycloCtx(8)
    for text in ("zeta(3)", "1 +", "zeta(", "foo", "1..2"):
        with pytest.raises(ValueError):
            parse_scalar(text, ctx)
    for text in ("1/0", "1/(1-1)", "0^-1"):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(text, ctx)


def test_scan_conductors():
    assert scan_conductors("1, zeta(4), 3*zeta(8)^2") == [4, 8]
    assert 4 in scan_conductors("i + 1")


def test_division():
    ctx = CycloCtx(8)
    z = ctx.zeta()
    assert (ctx.one() + z) / (ctx.one() + z) == ctx.one()
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inv()
