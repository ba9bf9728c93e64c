import operator
import random
import time
from fractions import Fraction

import pytest

from heisgrad.scalars import (MAX_DIGITS, MAX_EXPONENT, CycloCtx, CycloNum, ScalarSyntaxError,
                              cyclotomic_poly, divisors, embed, format_scalar, parse_scalar,
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
    assert parse_scalar(" 1 ", ctx) == parse_scalar("i + 1  ", ctx) - ctx.i() == ctx.one()


def test_parse_rejects_garbage():
    ctx = CycloCtx(8)
    for text in ("zeta(3)", "1 +", "zeta(", "foo", "1..2"):
        with pytest.raises(ValueError):
            parse_scalar(text, ctx)
    for text in ("1/0", "1/(1-1)", "0^-1"):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(text, ctx)


def test_parse_limits_are_syntax_errors():
    ctx = CycloCtx(8)
    digits, exponent = MAX_DIGITS, MAX_EXPONENT
    assert parse_scalar("9" * digits, ctx) == ctx.from_fraction(10 ** digits - 1)
    assert parse_scalar(f"zeta(8)^{exponent}", ctx) == ctx.one()
    assert parse_scalar(f"2^{digits * 3}", ctx) == ctx.from_fraction(2 ** (digits * 3))
    for text, match in [
        ("1" * (digits + 1), f"integer literal exceeds the limit of {digits} digits"),
        (f"zeta({'1' * (digits + 1)})", "integer literal exceeds"),
        (f"zeta(8)^{exponent + 1}", f"exponent {exponent + 1} exceeds the limit of {exponent}"),
        (f"zeta(8)^-{exponent + 1}", "exceeds the limit"),
        (f"2^{digits * 4}", f"a value exceeds the limit of {digits} digits"),
        (f"(2^{digits})^{digits}", "a value exceeds the limit"),
        (f"1/3^{digits * 3}", "a value exceeds the limit"),
        ("*".join([f"10^{digits // 2}"] * 3), "a value exceeds the limit"),
        (f"9*10^{digits - 1}-(-9*10^{digits - 1})", "a value exceeds the limit"),
        (f"(9*10^{digits - 1})^{exponent}", "a value exceeds the limit"),
        (f"1/10^{digits - 1}/10^{digits - 1}", "a value exceeds the limit"),
        (f"(1+i)^{exponent}", "a value exceeds the limit"),  # small coefficients that grow
        ("+".join(f"1/{p}" for p in range(2, 3000)), "a value exceeds the limit"),
        ("1+" * 2000 + "*".join([f"10^{digits - 1}"] * 2000), "a value exceeds the limit"),
    ]:
        start = time.process_time()
        with pytest.raises(ScalarSyntaxError, match=match):
            parse_scalar(text, ctx)
        assert time.process_time() - start < 1, text[:40]


def test_scan_conductors():
    assert scan_conductors("1, zeta(4), 3*zeta(8)^2") == [4, 8]
    assert 4 in scan_conductors("i + 1")
    assert scan_conductors("zeta(0) + zeta(3)") == [3]
    with pytest.raises(ScalarSyntaxError, match="not a root of unity"):
        parse_scalar("zeta(0)", CycloCtx(8))


def test_division():
    ctx = CycloCtx(8)
    z = ctx.zeta()
    assert (ctx.one() + z) / (ctx.one() + z) == ctx.one()
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inv()


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_arithmetic_with_a_non_number_raises_type_error(op):
    x = CycloCtx(8).zeta()
    for left, right in ((x, None), (None, x), (x, "1"), ("1", x)):
        with pytest.raises(TypeError):
            getattr(operator, op)(left, right)
    assert x != "1" and x != object()  # equal to no non-number


def test_rational_on_the_left():
    z = CycloCtx(8).zeta()
    assert 1 - z + z == 1 and Fraction(1, 2) - z + z == Fraction(1, 2)
    assert 1 / z == z ** 7 and 2 / z * z == 2


def test_hash_agrees_with_eq():
    ctx = CycloCtx(12)
    half = Fraction(1, 2)
    assert ctx.one() == 1 and 1 in {ctx.one()} and ctx.one() in {1}
    assert ctx.from_fraction(half) in {half}
    assert {ctx.from_fraction(-3): "x"}[-3] == "x"
    z = ctx.zeta()
    assert hash((z + 1) * (z - 1)) == hash(z * z - 1)
    assert len({z ** 12, ctx.one(), 1, Fraction(1)}) == 1
    # contexts are equal and hash alike by conductor
    assert len({CycloCtx(4), CycloCtx(4), CycloCtx(8)}) == 2
    assert repr(CycloCtx(12)) == "CycloCtx(12)"


@pytest.mark.parametrize("n", [1, 4, 16, 24])
def test_power_squares_only_while_bits_remain(monkeypatch, n):
    # square-and-multiply: bit_length(e) - 1 squarings and popcount(e)
    # products into the result, and values equal to repeated products
    ctx = CycloCtx(n)
    x = ctx.zeta() + ctx.from_fraction(Fraction(1, 3))  # rational at n = 1
    powers = [ctx.one()]
    for _ in range(64):
        powers.append(powers[-1] * x)
    calls = [0]
    mul = CycloNum.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    assert x ** 0 == ctx.one() and calls[0] == 0
    for e in range(1, 65):
        calls[0] = 0
        assert x ** e == powers[e], e
        assert calls[0] <= e.bit_length() + bin(e).count("1") - 1, (e, calls[0])


def test_division_by_a_rational_scales_without_an_inverse():
    # a / (p/q) multiplies the numerators by q and the denominator by p:
    # no inverse is computed, so the context's memo stays empty; the
    # expected values come from products in a second context of the field
    ctx, ref = CycloCtx(12), CycloCtx(12)
    assert parse_scalar("3/4", ctx) == ctx.from_fraction(Fraction(3, 4))
    x = ctx.zeta() + ctx.from_fraction(Fraction(2, 3))
    x_ref = ref.zeta() + ref.from_fraction(Fraction(2, 3))
    for q in (Fraction(-5, 6), Fraction(-3), Fraction(7, 2), Fraction(1)):
        got = x / ctx.from_fraction(q)
        want = x_ref * ref.from_fraction(1 / q)
        assert (got.num, got.den) == (want.num, want.den), q
    assert x / -2 == x_ref * ref.from_fraction(Fraction(-1, 2))
    assert ctx.zero() / ctx.from_fraction(-3) == ctx.zero()
    assert not ctx._memo
    # a divisor that is not rational takes its inverse, which the memo keeps
    y = ctx.zeta(2) + 1
    assert (x / y) * y == x and ctx._memo
    with pytest.raises(ZeroDivisionError):
        x / ctx.zero()
