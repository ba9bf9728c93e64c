"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a polynomial in a fixed primitive N-th root of unity,
reduced modulo the N-th cyclotomic polynomial and stored with Fraction
coefficients.  The representation is canonical, so equality is literal
coefficient equality and every computation stays exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycloCtx",
    "CycloNum",
    "zeta",
    "embed",
    "sqrt_int",
    "sqrt_rational",
    "sqrt_scalar",
    "root_of_unity_order",
    "parse_scalar",
    "scan_conductors",
    "format_scalar",
    "divisors",
]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division of integer polynomials; den is monic and must divide num
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, cyclotomic_poly(d))
    return tuple(poly)


class CycloCtx:
    """The field Q(zeta_N) for a fixed conductor N."""

    __slots__ = ("n", "phi", "degree")

    def __init__(self, n: int):
        self.n = n
        self.phi = cyclotomic_poly(n)
        self.degree = len(self.phi) - 1

    def __eq__(self, other):
        return isinstance(other, CycloCtx) and other.n == self.n

    def __hash__(self):
        return hash(("CycloCtx", self.n))

    def __repr__(self):
        return f"CycloCtx({self.n})"

    def reduce(self, coeffs: list[Fraction]) -> "CycloNum":
        """Reduce an arbitrary-degree coefficient list modulo phi_N."""
        c = list(coeffs)
        if len(c) < self.degree:
            c += [Fraction(0)] * (self.degree - len(c))
        for i in range(len(c) - 1, self.degree - 1, -1):
            t = c[i]
            if t:
                base = i - self.degree
                for j in range(self.degree):
                    if self.phi[j]:
                        c[base + j] -= t * self.phi[j]
            c.pop()
        return CycloNum(self, tuple(Fraction(x) for x in c))

    def zero(self) -> "CycloNum":
        return self.from_fraction(0)

    def one(self) -> "CycloNum":
        return self.from_fraction(1)

    def from_fraction(self, q) -> "CycloNum":
        coeffs = [Fraction(q)] + [Fraction(0)] * (self.degree - 1)
        return self.reduce(coeffs) if self.degree == 0 else CycloNum(self, tuple(coeffs))

    def zeta(self, k: int = 1) -> "CycloNum":
        """The class of x^k, i.e. zeta_N^k."""
        k %= self.n
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return self.reduce(coeffs)

    def i(self) -> "CycloNum":
        """A primitive fourth root of unity; requires 4 | N."""
        if self.n % 4:
            raise ValueError(f"conductor {self.n} does not contain i (need 4 | N)")
        return self.zeta(self.n // 4)


class CycloNum:
    """An element of Q(zeta_N), canonical modulo the cyclotomic polynomial."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloCtx, coeffs: tuple[Fraction, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx != self.ctx:
                raise ValueError(
                    f"conductor mismatch: {self.ctx.n} vs {other.ctx.n}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNum(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        d = self.ctx.degree
        prod = [Fraction(0)] * (2 * d - 1 if d else 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return self.ctx.reduce(prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm mod phi_N."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")

        def trim(p):
            while len(p) > 1 and p[-1] == 0:
                p.pop()
            return p

        def polysub(p, q):
            out = [Fraction(0)] * max(len(p), len(q))
            for i, v in enumerate(p):
                out[i] += v
            for i, v in enumerate(q):
                out[i] -= v
            return trim(out)

        def polymul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                if a:
                    for j, b in enumerate(q):
                        if b:
                            out[i + j] += a * b
            return trim(out)

        def polydivmod(p, q):
            p = list(p)
            dq = len(q) - 1
            if len(p) - 1 < dq:
                return [Fraction(0)], trim(p)
            quo = [Fraction(0)] * (len(p) - dq)
            for i in range(len(quo) - 1, -1, -1):
                c = p[i + dq] / q[-1]
                quo[i] = c
                if c:
                    for j in range(dq + 1):
                        p[i + j] -= c * q[j]
            return trim(quo), trim(p)

        r0 = [Fraction(c) for c in self.ctx.phi]
        s0 = [Fraction(0)]
        r1 = trim(list(self.coeffs))
        s1 = [Fraction(1)]
        while len(r1) > 1:
            q, r = polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polysub(s0, polymul(q, s1))
        if r1[0] == 0:
            raise ZeroDivisionError("element shares a factor with the modulus")
        c = r1[0]
        return self.ctx.reduce([x / c for x in s1])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_fraction(other)
        return (
            isinstance(other, CycloNum)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.n, self.coeffs))

    def __repr__(self):
        return format_scalar(self)

    def sort_key(self):
        """A deterministic total order on field elements of one conductor."""
        return self.coeffs

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]


def zeta(ctx: CycloCtx, k: int = 1) -> CycloNum:
    return ctx.zeta(k)


def embed(x: CycloNum, ctx: CycloCtx) -> CycloNum:
    """Embed Q(zeta_M) into Q(zeta_N) via zeta_M -> zeta_N^(N/M); requires M | N."""
    m, n = x.ctx.n, ctx.n
    if n % m:
        raise ValueError(f"cannot embed conductor {m} into {n}: {m} does not divide {n}")
    step = ctx.zeta(n // m)
    acc = ctx.zero()
    for c in reversed(x.coeffs):
        acc = acc * step + ctx.from_fraction(c)
    return acc


def root_of_unity_order(x: CycloNum) -> int | None:
    """The multiplicative order of x if it is a root of unity, else None.

    Every root of unity inside Q(zeta_N) is of the form +-zeta_N^k, so the
    order divides 2N; it suffices to scan divisors of 2N.
    """
    if not x:
        return None
    one = x.ctx.one()
    if x ** (2 * x.ctx.n) != one:
        return None
    for m in divisors(2 * x.ctx.n):
        if x**m == one:
            return m
    return None  # pragma: no cover


def sqrt_rational(q, ctx: CycloCtx) -> CycloNum | None:
    """An exact square root of the nonnegative rational q inside Q(zeta_N),
    or None if the roots it needs are not in this field.

    sqrt(q) = sqrt(num * den) / den; the square part of num * den is
    extracted rationally, and the squarefree part is built from
    sqrt(2) = zeta_8 + zeta_8^-1 (needs 8 | N) and, for odd primes p, the
    quadratic Gauss sum sum_k zeta_p^(k^2), which equals sqrt(p) for
    p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4 (needs 4p | N).
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt_rational expects a nonnegative rational")
    if not q:
        return ctx.zero()
    square, free = 1, []
    for p, e in prime_factors(q.numerator * q.denominator).items():
        square *= p ** (e // 2)
        if e % 2:
            free.append(p)
    if any(ctx.n % (8 if p == 2 else 4 * p) for p in free):
        return None
    s = ctx.from_fraction(Fraction(square, q.denominator))
    for p in free:
        if p == 2:
            s = s * (ctx.zeta(ctx.n // 8) + ctx.zeta(ctx.n - ctx.n // 8))
        else:
            g = ctx.zero()
            for k in range(p):
                g = g + ctx.zeta((ctx.n // p) * (k * k % p))
            if p % 4 == 3:
                g = g / ctx.i()
            s = s * g
    if s * s != ctx.from_fraction(q):
        raise AssertionError(f"sqrt_rational({q}) verification failed")  # pragma: no cover
    return s


def sqrt_int(l: int, ctx: CycloCtx) -> CycloNum:
    """An exact square root of the positive integer l inside Q(zeta_N);
    requires 4l | N, which supplies every root sqrt_rational needs."""
    if l < 1:
        raise ValueError("sqrt_int expects a positive integer")
    if ctx.n % (4 * l):
        raise ValueError(f"conductor {ctx.n} is not divisible by 4*{l}")
    return sqrt_rational(l, ctx)


def sqrt_scalar(x: CycloNum) -> CycloNum:
    """A square root of x in its own field, for x a root of unity times a
    positive rational (enough for the normalizations of graded bases)."""
    ctx = x.ctx
    if not x:
        return ctx.zero()
    for t in range(ctx.n):
        cand = x * ctx.zeta(-2 * t)
        if not cand.is_rational() or cand.as_fraction() <= 0:
            continue
        root = sqrt_rational(cand.as_fraction(), ctx)
        if root is not None:
            return root * ctx.zeta(t)
    raise ValueError("square root is not representable at this conductor")


# --- textual scalar syntax ------------------------------------------------
#
# rationals "p/q", roots "zeta(N)^k", "i", products / sums / differences and
# parentheses.  This is the scalar syntax used by the CLI and JSON formats.

_TOKEN = re.compile(r"\s*(\d+|zeta|i\b|\*|\+|-|/|\^|\(|\))")


class ScalarSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ScalarSyntaxError(f"bad scalar syntax near {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def scan_conductors(text: str) -> list[int]:
    """Conductors needed to represent the scalars mentioned in `text`."""
    need = [int(m) for m in re.findall(r"zeta\(\s*(\d+)\s*\)", text)]
    if re.search(r"\bi\b", text):
        need.append(4)
    return need


def parse_scalar(text: str, ctx: CycloCtx) -> CycloNum:
    """Parse the textual scalar syntax into an element of `ctx`."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expect=None):
        nonlocal pos
        if pos >= len(toks):
            raise ScalarSyntaxError(f"unexpected end of scalar {text!r}")
        t = toks[pos]
        if expect is not None and t != expect:
            raise ScalarSyntaxError(f"expected {expect!r}, found {t!r} in {text!r}")
        pos += 1
        return t

    def parse_int() -> int:
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        t = take()
        if not t.isdigit():
            raise ScalarSyntaxError(f"expected integer, found {t!r} in {text!r}")
        return sign * int(t)

    def atom() -> CycloNum:
        t = peek()
        if t == "(":
            take()
            v = expr()
            take(")")
            return v
        if t == "zeta":
            take()
            take("(")
            n = parse_int()
            take(")")
            if n < 1 or ctx.n % n:
                raise ScalarSyntaxError(
                    f"zeta({n}) is not representable with conductor {ctx.n}"
                )
            return ctx.zeta(ctx.n // n)
        if t == "i":
            take()
            return ctx.i()
        if t is not None and t.isdigit():
            take()
            return ctx.from_fraction(int(t))
        raise ScalarSyntaxError(f"unexpected token {t!r} in {text!r}")

    def power() -> CycloNum:
        v = atom()
        if peek() == "^":
            take()
            e = parse_int()
            if e < 0 and not v:
                raise ScalarSyntaxError(f"negative power of zero in {text!r}")
            v = v ** e
        return v

    def unary() -> CycloNum:
        if peek() == "-":
            take()
            return -unary()
        return power()

    def term() -> CycloNum:
        v = unary()
        while peek() in ("*", "/"):
            if take() == "*":
                v = v * unary()
            else:
                d = unary()
                if not d:
                    raise ScalarSyntaxError(f"division by zero in {text!r}")
                v = v / d
        return v

    def expr() -> CycloNum:
        v = term()
        while peek() in ("+", "-"):
            if take() == "+":
                v = v + term()
            else:
                v = v - term()
        return v

    v = expr()
    if pos != len(toks):
        raise ScalarSyntaxError(f"trailing tokens in scalar {text!r}")
    return v


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x: CycloNum) -> str:
    """Render in the textual scalar syntax (inverse of parse_scalar)."""
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        if k == 0:
            body = _frac_str(abs(c))
        else:
            mon = f"zeta({x.ctx.n})" + (f"^{k}" if k > 1 else "")
            body = mon if abs(c) == 1 else f"{_frac_str(abs(c))}*{mon}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
