"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a polynomial in a fixed primitive N-th root of unity,
reduced modulo the N-th cyclotomic polynomial phi_N and stored as a tuple
of integer numerators over one positive integer denominator, with no
common factor.  The representation is canonical, so equality is literal
(numerators, denominator) equality and every computation stays exact.
Arithmetic is integer-only: a product is an integer convolution reduced
by long division by the monic phi_N (a zero or rational factor only
scales the other's numerators), and an inverse is a fraction-free
linear solve.  Each CycloCtx object computes a product of two operands,
or an inverse, once and then returns the stored canonical result, within
a budget of stored coefficients.  Fractions appear only where rationals
enter or leave.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log10

__all__ = [
    "CycloCtx",
    "CycloNum",
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

_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf  # for rational hashes


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


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed as the product of (x^(n/d) - 1)^mu(d) over the squarefree
    divisors d of n: the factors with mu(d) = 1 are multiplied first,
    then those with mu(d) = -1 divided out exactly, each in one pass.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    ups, downs = [n], []  # n/d for mu(d) = 1 and for mu(d) = -1
    for p in prime_factors(n):
        ups, downs = ups + [m // p for m in downs], downs + [m // p for m in ups]
    poly = [1]
    for m in ups:  # poly * (x^m - 1)
        out = [-c for c in poly] + [0] * m
        for i, c in enumerate(poly):
            out[i + m] += c
        poly = out
    for m in downs:  # poly / (x^m - 1): poly[i] = q[i - m] - q[i]
        q = [0] * (len(poly) - m)
        for i in range(len(q)):
            q[i] = (q[i - m] if i >= m else 0) - poly[i]
        poly = q
    return tuple(poly)


MEMO_COEFFICIENTS = 1 << 12  # the budget of one CycloCtx memo: entries x degree


class CycloCtx:
    """The field Q(zeta_N) for a fixed conductor N.

    Each context object keeps its own memo of products and inverses,
    keyed on the operands' (num, den) tuples and holding at most
    MEMO_COEFFICIENTS // degree results, the most recent ones (none when
    the degree exceeds the budget); it lives and dies with the object, so
    an equal context that is another object starts empty.
    """

    __slots__ = ("n", "phi", "degree", "low", "_zero", "_one", "_memo", "_cap")

    def __init__(self, n: int):
        self.n = n
        self.phi = cyclotomic_poly(n)
        d = self.degree = len(self.phi) - 1
        # phi_N is monic: x^d = sum of c x^j over (j, c) in low, modulo phi_N
        self.low = tuple((j, -c) for j, c in enumerate(self.phi[:d]) if c)
        self._zero = CycloNum(self, (0,) * d, 1)
        self._one = CycloNum(self, (1,) + (0,) * (d - 1), 1)
        # (num, den, num', den') -> product, (num, den) -> inverse
        self._memo = {}
        self._cap = MEMO_COEFFICIENTS // d

    def _remember(self, key: tuple, value: "CycloNum") -> "CycloNum":
        """value, stored under key; a full memo is emptied first, since
        products repeat close together, and it never exceeds its budget."""
        if self._cap:
            if len(self._memo) >= self._cap:
                self._memo.clear()
            self._memo[key] = value
        return value

    def __eq__(self, other):
        return isinstance(other, CycloCtx) and other.n == self.n

    def __hash__(self):
        return hash(("CycloCtx", self.n))

    def __repr__(self):
        return f"CycloCtx({self.n})"

    def reduce(self, coeffs) -> "CycloNum":
        """The class modulo phi_N of the polynomial with these rational
        coefficients (ascending, any length)."""
        qs = [Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        return self._reduce([q.numerator * (den // q.denominator) for q in qs], den)

    def _reduce(self, num: list[int], den: int) -> "CycloNum":
        """num / den for the integer polynomial num, by long division by
        phi_N; phi_N is monic, so the remainder stays integral."""
        d = self.degree
        num = num + [0] * (d - len(num))
        for i in range(len(num) - 1, d - 1, -1):
            if num[i]:
                for j, c in self.low:
                    num[i - d + j] += num[i] * c
        return _make(self, num[:d], den)

    def zero(self) -> "CycloNum":
        return self._zero

    def one(self) -> "CycloNum":
        return self._one

    def from_fraction(self, q) -> "CycloNum":
        q = Fraction(q)
        return CycloNum(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def zeta(self, k: int = 1) -> "CycloNum":
        """The class of x^k, i.e. zeta_N^k."""
        return self._reduce([0] * (k % self.n) + [1], 1)

    def i(self) -> "CycloNum":
        """A primitive fourth root of unity; requires 4 | N."""
        if self.n % 4:
            raise ValueError(f"conductor {self.n} does not contain i (need 4 | N)")
        return self.zeta(self.n // 4)


def _make(ctx: CycloCtx, num: list[int], den: int) -> "CycloNum":
    """The canonical CycloNum num/den (den > 0): divide out gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycloNum(ctx, tuple(num), den)


class CycloNum:
    """An element of Q(zeta_N): integer numerators num (ascending powers of
    zeta_N, reduced modulo phi_N) over one denominator den > 0, with
    gcd(den, *num) == 1.  The form is canonical, so equality is equality
    of (num, den)."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycloCtx, num: tuple[int, ...], den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    def _coerce(self, other):
        # +, - and * take a CycloNum of the identical ctx object without this call
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError(
                    f"conductor mismatch: {self.ctx.n} vs {other.ctx.n}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(other)
        return None

    def __add__(self, other):
        o = other if other.__class__ is CycloNum and other.ctx is self.ctx else self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        if not any(self.num):
            return o
        if self.den == o.den:
            return _make(self.ctx, [a + b for a, b in zip(self.num, o.num)], self.den)
        return _make(self.ctx, [a * o.den + b * self.den for a, b in zip(self.num, o.num)],
                     self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is CycloNum and other.ctx is self.ctx else self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        if not any(self.num):
            return -o
        if self.den == o.den:
            return _make(self.ctx, [a - b for a, b in zip(self.num, o.num)], self.den)
        return _make(self.ctx, [a * o.den - b * self.den for a, b in zip(self.num, o.num)],
                     self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNum(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = other if other.__class__ is CycloNum and other.ctx is self.ctx else self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        # a zero or 1 factor needs no lookup: tuple compares, no slices
        zero, one = ctx._zero.num, ctx._one.num
        if self.num == zero or o.num == zero:
            return ctx._zero
        if o.num == one and o.den == 1:
            return self
        if self.num == one and self.den == 1:
            return o
        key = (self.num, self.den, o.num, o.den)
        r = ctx._memo.get(key)
        return r if r is not None else ctx._remember(key, _product(ctx, self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num[0] and o.is_rational():  # by p / q: num times q, den times p
            q = o.den if o.num[0] > 0 else -o.den
            return _make(self.ctx, [c * q for c in self.num], self.den * abs(o.num[0]))
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
            e >>= 1
            if e:  # square only while bits remain
                base = base * base
        return result

    def inv(self) -> "CycloNum":
        """Multiplicative inverse (see _inverse)."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        ctx = self.ctx
        key = (self.num, self.den)
        r = ctx._memo.get(key)
        return r if r is not None else ctx._remember(key, _inverse(self))

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, CycloNum):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.ctx.from_fraction(other)
        return (other.num == self.num and other.den == self.den
                and (other.ctx is self.ctx or other.ctx == self.ctx))

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals, the
        # latter by the rule of the Python docs ("Hashing of numeric types")
        # without building the Fraction: num/den is in lowest terms
        if self.is_rational():
            a, den = self.num[0], self.den
            if den == 1:
                return hash(a)
            h = hash(hash(abs(a)) * pow(den, -1, _MODULUS)) if den % _MODULUS else _INF
            h = h if a >= 0 else -h
            return -2 if h == -1 else h
        return hash((self.ctx.n, self.num, self.den))

    def __repr__(self):
        return format_scalar(self)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta_N, ..., zeta_N^(d-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def sort_key(self):
        """A deterministic total order on field elements of one conductor:
        lexicographic on the rational coefficients."""
        return self.coeffs

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)


def _product(ctx: CycloCtx, x: CycloNum, y: CycloNum) -> CycloNum:
    """x * y, uncached: a rational factor only scales the other; else an
    integer convolution over the nonzero coefficients of x, reduced modulo
    phi_N."""
    if not any(y.num[1:]):
        x, y = y, x
    if not any(x.num[1:]):
        return _make(ctx, [x.num[0] * b for b in y.num], x.den * y.den)
    prod = [0] * (2 * ctx.degree - 1)
    for i, a in enumerate(x.num):
        if a:
            for k, b in enumerate(y.num, i):
                if b:
                    prod[k] += a * b
    return ctx._reduce(prod, x.den * y.den)


def _inverse(x: CycloNum) -> CycloNum:
    """1 / x for x != 0, uncached: solve M y = e0 for the integer matrix M
    of multiplication by x.num, by fraction-free (Bareiss) elimination and
    back-substitution, so every division is exact."""
    ctx, d = x.ctx, x.ctx.degree
    if x.is_rational():
        a = x.num[0]
        return _make(ctx, [x.den if a > 0 else -x.den] + [0] * (d - 1), abs(a))
    cols = [x.num]
    for _ in range(d - 1):
        cols.append(ctx._reduce([0, *cols[-1]], 1).num)
    m = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
    prev = 1
    for k in range(d):
        if not m[k][k]:
            p = next(i for i in range(k + 1, d) if m[i][k])
            m[k], m[p] = m[p], m[k]
        rk, piv = m[k], m[k][k]
        for i in range(k + 1, d):
            ri, f = m[i], m[i][k]
            m[i] = ri[:k + 1] + [(piv * u - f * v) // prev
                                 for u, v in zip(ri[k + 1:], rk[k + 1:])]
        prev = piv
    # prev = +-det(M) and det * y is integral; back-substitute for it
    det_y = [0] * d
    for i in range(d - 1, -1, -1):
        row = m[i]
        t = prev * row[d] - sum(row[j] * det_y[j] for j in range(i + 1, d))
        det_y[i] = t // row[i]
    sign = 1 if prev > 0 else -1
    return _make(ctx, [sign * x.den * c for c in det_y], sign * prev)


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
                g = -(g * ctx.i())  # g / i
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
MAX_DIGITS = 1000  # of an integer literal, and of the coefficients of every value
MAX_EXPONENT = 10_000  # |k| in x^k


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
        if len(m.group(1)) > MAX_DIGITS:
            raise ScalarSyntaxError(f"integer literal exceeds the limit of {MAX_DIGITS} digits")
        out.append(m.group(1))
        pos = m.end()
    return out


def scan_conductors(text: str) -> list[int]:
    """Conductors needed to represent the scalars mentioned in `text`;
    zeta(0) needs none, and parse_scalar rejects it."""
    need = [m for m in map(int, re.findall(r"zeta\(\s*(\d+)\s*\)", text)) if m]
    if re.search(r"\bi\b", text):
        need.append(4)
    return need


def parse_scalar(text: str, ctx: CycloCtx) -> CycloNum:
    """Parse the textual scalar syntax into an element of `ctx`."""
    if not isinstance(text, str):
        raise ScalarSyntaxError(f"a scalar must be a string, got {text!r:.40}")
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

    def bounded(v: CycloNum, power: int = 1) -> CycloNum:  # v, if v^power keeps the limit
        if power * log10(max(map(abs, v.num + (v.den,)))) > MAX_DIGITS:
            raise ScalarSyntaxError(f"a value exceeds the limit of {MAX_DIGITS} digits")
        return v

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
            if n < 1:
                raise ScalarSyntaxError(f"zeta({n}) is not a root of unity in {text!r}")
            if ctx.n % n:
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
            if abs(e) > MAX_EXPONENT:
                raise ScalarSyntaxError(f"exponent {e} exceeds the limit of {MAX_EXPONENT}")
            if e < 0 and not v:
                raise ScalarSyntaxError(f"negative power of zero in {text!r}")
            v = bounded(bounded(v, abs(e)) ** e)
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
                v = bounded(v * unary())
            else:
                d = unary()
                if not d:
                    raise ScalarSyntaxError(f"division by zero in {text!r}")
                v = bounded(v / d)
        return v

    def expr() -> CycloNum:
        v = term()
        while peek() in ("+", "-"):
            if take() == "+":
                v = bounded(v + term())
            else:
                v = bounded(v - term())
        return v

    v = expr()
    if pos != len(toks):
        raise ScalarSyntaxError(f"trailing tokens in scalar {text!r}")
    return v


def format_scalar(x: CycloNum) -> str:
    """Render in the textual scalar syntax (inverse of parse_scalar)."""
    parts = []
    for k, n in enumerate(x.num):
        if not n:
            continue
        g = gcd(n, x.den)  # |n| / den in lowest terms
        a, b = abs(n) // g, x.den // g
        body = str(a) if b == 1 else f"{a}/{b}"
        if k:
            mon = f"zeta({x.ctx.n})" + (f"^{k}" if k > 1 else "")
            body = mon if a == b == 1 else f"{body}*{mon}"
        parts.append(("-" if n < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
