"""Property and differential tests of the integer-numerator scalar core.

Elements are drawn as rational coefficient lists; sympy's polynomial
arithmetic modulo its own cyclotomic polynomial is the independent
oracle for products, inverses and the coefficient order.  Zero, rational
and monomial operands take shortcuts in the arithmetic, and sympy's
rational matrices check the row operations that skip zero entries and
the inverse, in the regular representation of the field.
"""

import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

import heisgrad.scalars as scalars
from heisgrad._linalg import (combinations, intersection, kernel,
                              line_coeff, mat_inverse, rank, rref, sparse, vadd,
                              vscale)
from heisgrad.scalars import (MEMO_COEFFICIENTS, CycloCtx, _inverse, _product,
                              cyclotomic_poly, embed, format_scalar, parse_scalar)

CONDUCTORS = (1, 3, 4, 8, 12, 16, 48)
X = sympy.Symbol("x")

coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))


def coefficient_lists(n: int, extra: int = 0):
    """Rational coefficient lists of length up to degree + extra."""
    d = CycloCtx(n).degree
    return st.lists(coefficient, min_size=1, max_size=d + extra)


@st.composite
def field_elements(draw, n: int | None = None, count: int = 1, extra: int = 0):
    """(ctx, [(element, its coefficient list), ...]) in one field."""
    n = n if n is not None else draw(st.sampled_from(CONDUCTORS))
    ctx = CycloCtx(n)
    pairs = []
    for _ in range(count):
        cs = draw(coefficient_lists(n, extra))
        pairs.append((ctx.reduce(cs), cs))
    return ctx, pairs


def sympy_coeffs(cs, n: int) -> tuple[Fraction, ...]:
    """The coefficients of sum cs[k] x^k mod phi_n, by sympy, padded to
    the degree of phi_n."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    p = sympy.Poly(list(reversed(cs)), X, domain="QQ").rem(phi)
    return coeffs_of(p, phi.degree())


def coeffs_of(p, d: int) -> tuple[Fraction, ...]:
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(out + [Fraction(0)] * (d - len(out)))


def canonical(x) -> bool:
    d = x.ctx.degree
    return (len(x.num) == d and x.den > 0 and gcd(x.den, *x.num) == 1
            and (any(x.num) or x.den == 1))


@given(field_elements(count=3))
def test_field_axioms(drawn):
    ctx, [(a, _), (b, _), (c, _)] = drawn
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero() == a and a * ctx.one() == a
    assert a + (-a) == ctx.zero() and a - b == a + (-b)
    if a:
        assert a * a.inv() == ctx.one()
        assert (b / a) * a == b


@given(field_elements(count=2, extra=40))
def test_canonical_form(drawn):
    ctx, [(a, _), (b, _)] = drawn
    for x in (a, b, a + b, a - b, a * b, -a, a - a, ctx.zero(), ctx.one()):
        assert canonical(x)
    zero = a - a
    assert zero.num == (0,) * ctx.degree and zero.den == 1
    assert zero == ctx.zero() and hash(zero) == hash(ctx.zero())
    if a:
        assert canonical(a.inv())


@given(field_elements(count=2, extra=40))
def test_arithmetic_matches_sympy(drawn):
    ctx, [(a, ca), (b, cb)] = drawn
    n, d = ctx.n, ctx.degree
    assert a.coeffs == sympy_coeffs(ca, n)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    pa = sympy.Poly(list(reversed(a.coeffs)), X, domain="QQ")
    pb = sympy.Poly(list(reversed(b.coeffs)), X, domain="QQ")
    assert (a * b).coeffs == coeffs_of((pa * pb).rem(phi), d)
    assert (a + b).coeffs == coeffs_of(pa + pb, d)
    if a:
        assert a.inv().coeffs == coeffs_of(sympy.invert(pa, phi), d)


@given(field_elements(n=48, extra=0), st.integers(0, 95))
def test_inverse_of_sparse_elements(drawn, k):
    # monomials and binomials force row swaps in the elimination
    ctx, [(a, _)] = drawn
    for x in (ctx.zeta(k), ctx.zeta(k) + ctx.zeta(k // 2 + 1), a * ctx.zeta(k)):
        if x:
            assert x * x.inv() == ctx.one()


@given(field_elements(count=1, extra=10))
def test_format_parse_roundtrip(drawn):
    ctx, [(a, _)] = drawn
    assert parse_scalar(format_scalar(a), ctx) == a


@given(st.sampled_from([(1, 4), (3, 12), (4, 12), (4, 16), (8, 16), (12, 48),
                        (16, 48)]), st.data())
def test_embed_is_a_ring_homomorphism(pair, data):
    m, n = pair
    _, [(a, _), (b, _)] = data.draw(field_elements(n=m, count=2))
    big = CycloCtx(n)
    assert embed(a * b, big) == embed(a, big) * embed(b, big)
    assert embed(a + b, big) == embed(a, big) + embed(b, big)
    assert embed(a.ctx.one(), big) == big.one()
    assert embed(a.ctx.zeta(), big) == big.zeta(n // m)


def test_cyclotomic_poly_matches_sympy():
    # every n <= 120, then conductors with three or four odd prime factors
    for n in [*range(1, 121), 1155, 2310, 3003, 5005]:
        p = sympy.cyclotomic_poly(n, X, polys=True)
        assert cyclotomic_poly(n) == tuple(int(c) for c in reversed(p.all_coeffs()))
    # a large prime p, where phi_p = 1 + x + ... + x^(p-1)
    assert cyclotomic_poly(9973) == (1,) * 9973


@given(st.sampled_from(CONDUCTORS), st.data())
def test_sort_key_orders_by_rational_coefficients(n, data):
    _, pairs = data.draw(field_elements(n=n, count=8, extra=6))
    xs = [x for x, _ in pairs]
    oracle = {x: sympy_coeffs(cs, n) for x, cs in pairs}
    assert sorted(xs, key=lambda v: v.sort_key()) == sorted(xs, key=oracle.get)


@st.composite
def shaped_elements(draw, n: int):
    """(element, its coefficient list), biased to the shapes that take a
    shortcut: zero, rational, a rational multiple of one zeta_n^k, or a
    general element."""
    ctx = CycloCtx(n)
    shape = draw(st.sampled_from(("zero", "rational", "monomial", "general")))
    if shape == "zero":
        cs = [Fraction(0)]
    elif shape == "rational":
        cs = [draw(coefficient)]
    elif shape == "monomial":
        cs = [Fraction(0)] * draw(st.integers(0, n - 1)) + [draw(coefficient)]
    else:
        cs = draw(coefficient_lists(n, extra=4))
    return ctx.reduce(cs), cs


@given(st.sampled_from(CONDUCTORS), st.data())
def test_shortcut_arithmetic_matches_sympy(n, data):
    (x, cx), (y, cy) = data.draw(shaped_elements(n)), data.draw(shaped_elements(n))
    ctx = x.ctx
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    px, py = (sympy.Poly(list(reversed(cs)), X, domain="QQ") for cs in (cx, cy))
    zero = ctx.zero()
    for got, want in ((x * y, px * py), (y * x, px * py), (x + y, px + py),
                      (x - y, px - py), (zero - x, -px), (x - zero, px),
                      (zero + x, px), (x * zero, px * 0)):
        assert canonical(got)
        assert got.coeffs == coeffs_of(want.rem(phi), ctx.degree)
    with pytest.raises(ValueError):
        x + CycloCtx(5).zero()


@st.composite
def product_factors(draw, ctx: CycloCtx):
    """(element of ctx, its coefficient list) of the shapes the operators
    take a fast path on: 0, 1, -1, another integer (prime to the other
    denominator or not), a non-integer rational, or a general element."""
    shape = draw(st.sampled_from(("0", "1", "-1", "integer", "rational", "general")))
    if shape in ("0", "1", "-1"):
        cs = [Fraction(int(shape))]
    elif shape == "integer":
        cs = [Fraction(draw(st.integers(-30, 30)))]
    elif shape == "rational":
        cs = [draw(st.fractions(min_value=-20, max_value=20, max_denominator=12))]
    else:
        cs = draw(coefficient_lists(ctx.n, extra=4))
    return ctx.reduce(cs), cs


def convolve(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(st.sampled_from((1, 4, 12, 16)), st.data())
def test_operator_fast_paths_match_the_general_path(n, data):
    # operands of one ctx object skip the coercion, a product by 1 returns
    # the other operand, and a product by another rational scales the
    # other's numerators; each result must be the canonical value that
    # ctx.reduce gives on the rational coefficients
    ctx = CycloCtx(n)
    (x, cx), (y, cy) = data.draw(product_factors(ctx)), data.draw(product_factors(ctx))
    sums = [a + b for a, b in zip(x.coeffs, y.coeffs)]
    diffs = [a - b for a, b in zip(x.coeffs, y.coeffs)]
    for got, want in ((x * y, convolve(cx, cy)), (y * x, convolve(cx, cy)),
                      (x + y, sums), (y + x, sums), (x - y, diffs),
                      (y - x, [-c for c in diffs])):
        assert canonical(got)
        assert got == ctx.reduce(want) and got.ctx == ctx
    one, minus = ctx.one(), ctx.from_fraction(-1)
    w = ctx.zeta() + ctx.from_fraction(Fraction(1, 2))  # rational at n = 1
    for v in (x, y, w):
        if not v.is_rational():  # of two rationals either may be the factor
            assert one * v is v and v * one is v
    assert canonical(3 * w) and canonical(2 * w) and 2 * w == w + w
    assert minus * y == -y == y * minus and canonical(minus * y)
    # an equal ctx that is another object, an int and a Fraction still mix
    twin = CycloCtx(n).reduce(cy)
    assert twin.ctx is not ctx
    assert x * twin == x * y and x + twin == x + y and x - twin == x - y
    assert twin * x == x * y and twin + x == x + y and twin - x == y - x
    assert x * 3 == 3 * x == x * ctx.from_fraction(3)
    assert x * Fraction(-2, 3) == x * ctx.from_fraction(Fraction(-2, 3))
    assert x + 1 == x + one and x - Fraction(1, 2) == x - ctx.from_fraction(Fraction(1, 2))
    # another conductor does not
    stranger = CycloCtx(5).one()
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="conductor mismatch"):
            op(x, stranger)
        with pytest.raises(ValueError, match="conductor mismatch"):
            op(stranger, x)


def same_numerators(b):
    """b with its numerators kept and its denominator multiplied by the
    least prime prime to them, so a key without den cannot tell the two."""
    q = next(p for p in (2, 3, 5, 7, 11, 13) if gcd(p, *b.num) == 1)
    twin = b / q
    assert twin.num == b.num and twin.den == q * b.den
    return twin


@given(st.sampled_from((1, 4, 12, 16, 24)), st.data())
def test_memo_returns_the_uncached_results(n, data):
    # every product and inverse, computed once (a miss) and again (a hit),
    # equals the uncached computation and the result of a second context
    # object with its own memo; b and b2 share their numerators
    ctx, other = CycloCtx(n), CycloCtx(n)
    a = data.draw(product_factors(ctx))[0]
    b = data.draw(product_factors(ctx))[0] or ctx.zeta()
    b2 = same_numerators(b)
    for _ in range(2):
        for y in (b, b2):
            far_a, far_y = other.reduce(a.coeffs), other.reduce(y.coeffs)
            assert a * y == y * a == _product(ctx, a, y) == far_a * far_y
            assert y.inv() == _inverse(y) == far_y.inv()
            assert a / y == _product(ctx, a, _inverse(y)) == far_a / far_y
            assert canonical(a * y) and canonical(y.inv())
    q = b2.den // b.den
    assert a * b2 * q == a * b and b2.inv() == b.inv() * q


def test_contexts_of_one_conductor_keep_separate_memos(monkeypatch):
    # an equal context that is another object starts with an empty memo:
    # each computes x * x once, then reads its own memo
    computed = []

    def counted(ctx, x, y):
        computed.append(ctx)
        return _product(ctx, x, y)

    monkeypatch.setattr(scalars, "_product", counted)
    first, second = CycloCtx(16), CycloCtx(16)
    for ctx in (first, second, first, second):
        x = ctx.zeta() + ctx.from_fraction(2)
        assert x * x == ctx.reduce([4, 4, 1])
    assert len(computed) == 2 and computed[0] is first and computed[1] is second
    assert first._memo is not second._memo


@pytest.mark.parametrize("n", [1, 4, 16, 1009, 4099])
def test_memo_stays_within_its_budget(n):
    # three times as many distinct products as the budget holds, with
    # inverses below degree 1008; degree 1008 holds 4 results and degree
    # 4098 none, and a rational factor keeps each product linear in the
    # degree
    ctx = CycloCtx(n)
    x = ctx.zeta() + ctx.from_fraction(Fraction(1, 3))
    for k in range(2, 3 * MEMO_COEFFICIENTS // ctx.degree + 4):
        y = x * k
        assert y == _product(ctx, ctx.from_fraction(k), x)
        if k % 7 == 0 and ctx.degree < 1008:
            assert y.inv() == _inverse(y)
    assert len(ctx._memo) * ctx.degree <= MEMO_COEFFICIENTS
    assert bool(ctx._memo) == (ctx.degree <= MEMO_COEFFICIENTS)


def sparse_rational_matrix(rows: int, cols: int):
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.integers(-2, 2).map(Fraction),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def as_vects(m, ctx):
    return [tuple(ctx.from_fraction(q) for q in row) for row in m]


def as_fractions(vects):
    return [tuple(x.as_fraction() for x in v) for v in vects]


def sympy_rows(m) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(int(q.p), int(q.q)) for q in m.row(i)) for i in range(m.rows)]


@given(st.sampled_from(CONDUCTORS), st.integers(1, 5), st.integers(1, 6), st.data())
def test_sparse_rational_linalg_matches_sympy(n, n_rows, n_cols, data):
    ctx = CycloCtx(n)
    a = data.draw(sparse_rational_matrix(n_rows, n_cols))
    b = data.draw(sparse_rational_matrix(data.draw(st.integers(1, 5)), n_cols))
    ma, mb = sympy.Matrix(a), sympy.Matrix(b)
    red, pivots = ma.rref()
    basis, ours = rref(as_vects(a, ctx))
    assert ours == list(pivots)
    assert as_fractions(basis) == sympy_rows(red)[:len(pivots)]
    assert as_fractions(kernel(as_vects(a, ctx), ctx, n_cols)) == [
        tuple(sympy_rows(v.T)[0]) for v in ma.nullspace()]
    # the rref basis of a subspace is unique, so sympy's intersection of
    # the row spaces, from the null space of [A^T | -B^T], must match
    combos = sympy.Matrix.hstack(ma.T, -mb.T).nullspace()
    meet = sympy.Matrix([[0] * n_cols] + [list(c[:n_rows, 0].T * ma) for c in combos])
    meet_red, meet_pivots = meet.rref()
    got = intersection(as_vects(a, ctx), rref(as_vects(b, ctx)), ctx)
    assert as_fractions(got) == sympy_rows(meet_red)[:len(meet_pivots)]


def field_matrix(n: int, rows: int, cols: int):
    """Matrices over Q(zeta_n) whose entries take the shapes of
    shaped_elements."""
    row = st.lists(shaped_elements(n).map(lambda p: p[0]), min_size=cols, max_size=cols)
    return st.lists(row.map(tuple), min_size=rows, max_size=rows)


@given(st.sampled_from(CONDUCTORS), st.integers(1, 4), st.integers(2, 5), st.data())
def test_subspace_operations_over_the_field(n, n_rows, n_cols, data):
    ctx = CycloCtx(n)
    a = data.draw(field_matrix(n, n_rows, n_cols))
    b = data.draw(field_matrix(n, data.draw(st.integers(1, 4)), n_cols))
    # the intersection: an rref basis inside both spans, of the dimension
    # that rank(A) + rank(B) - rank(A u B) predicts
    meet = intersection(a, rref(b), ctx)
    assert rref(meet)[0] == meet
    assert all(rank(a + [w]) == rank(a) and rank(b + [w]) == rank(b) for w in meet)
    assert len(meet) == rank(a) + rank(b) - rank(a + b)
    # combinations sum c_i a_i with eqs . c = 0: w is one iff (w, 0) lies
    # in the span of the rows (a_i, column i of eqs), and there are
    # rank(those rows) - rank(eqs) of them
    eqs = data.draw(field_matrix(n, data.draw(st.integers(0, 3)), n_rows))
    got = combinations(a, eqs, ctx)
    assert rref(got)[0] == got
    lifted = [v + tuple(row[i] for row in eqs) for i, v in enumerate(a)]
    tail = (ctx.zero(),) * len(eqs)
    assert all(rank(lifted + [w + tail]) == rank(lifted) for w in got)
    assert len(got) == rank(lifted) - rank(eqs)
    # line coordinates: on the line, at zero, and off it (line + e_j for
    # j off the line's pivot is never on the line)
    line = next((v for v in a if any(v)), (ctx.one(),) * n_cols)
    c = data.draw(shaped_elements(n))[0]
    assert line_coeff(vscale(c, line), line) == c
    assert line_coeff((ctx.zero(),) * n_cols, line) == ctx.zero()
    j = 1 if line[0] else 0
    e_j = tuple(ctx.one() if i == j else ctx.zero() for i in range(n_cols))
    with pytest.raises(ValueError):
        line_coeff(vadd(line, e_j), line)


def test_every_reduction_goes_through_one_elimination(monkeypatch):
    # rref, rank, kernel and mat_inverse (on [M | I]) share one
    # Gauss-Jordan elimination, and the span operations reach it through them
    import heisgrad._linalg as linalg
    calls = []
    gauss_jordan = linalg._gauss_jordan

    def counted(rows, n_cols):
        calls.append(n_cols)
        return gauss_jordan(rows, n_cols)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    ctx = CycloCtx(4)
    one, zero, i = ctx.one(), ctx.zero(), ctx.i()
    a = [(one, i, zero), (zero, one, one)]
    b = [(one, zero, zero), (zero, one, one)]
    cols = [(one, zero), (i, one)]
    for name, call in [("rref", lambda: rref(a)), ("rank", lambda: rank(a)),
                       ("kernel", lambda: kernel(a, ctx, 3)),
                       ("combinations", lambda: combinations(a, [(one, one)], ctx)),
                       ("intersection", lambda: intersection(a, rref(b), ctx)),
                       ("mat_inverse dense", lambda: mat_inverse(cols, ctx)),
                       ("mat_inverse sparse", lambda: mat_inverse([sparse(c) for c in cols], ctx))]:
        calls.clear()
        call()
        assert calls, name
    assert calls == [2]  # [M | I] pivots on M's two columns only


def regular_representation(m, n: int) -> sympy.Matrix:
    """The rational matrix of the rows m over Q(zeta_n): each entry x is the
    d x d block whose column k is x zeta_n^k, reduced by sympy."""
    d = CycloCtx(n).degree
    big = sympy.zeros(len(m) * d, len(m[0]) * d if m else 0)
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            for k in range(d):
                for r, q in enumerate(sympy_coeffs([0] * k + list(x.coeffs), n)):
                    big[i * d + r, j * d + k] = sympy.Rational(q.numerator, q.denominator)
    return big


@given(st.sampled_from((1, 3, 4, 8, 12)), st.integers(0, 4), st.booleans(), st.data())
def test_mat_inverse_matches_sympy(n, size, dependent, data):
    # the field embeds in the rational d x d matrices, so M is invertible
    # iff its regular representation is, and the inverse of that is the
    # representation of M^-1: entry (i, j) is the first column of block (i, j)
    ctx = CycloCtx(n)
    d, zero = ctx.degree, ctx.zero()
    # M = L U with columns permuted, L unit lower and U upper triangular
    # with a nonzero diagonal, so invertible until a column is made dependent
    lower, upper = (data.draw(field_matrix(n, size, size)) for _ in "LU")
    for i in range(size):
        upper[i] = upper[i][:i] + (data.draw(shaped_elements(n))[0] or ctx.one(),) \
            + upper[i][i + 1:]
    order = data.draw(st.permutations(range(size)))
    cols = [tuple(sum((lower[i][k] * upper[k][j] for k in range(min(i, j))),
                      upper[i][j] if i <= j else zero) for i in range(size)) for j in order]
    if dependent and size:  # the last column a combination of the others
        c = data.draw(shaped_elements(n))[0]
        cols[-1] = vadd(vscale(c, cols[0]), cols[-2]) if size > 1 else vscale(zero, cols[0])
    big = regular_representation([tuple(col[i] for col in cols) for i in range(size)], n)
    dense, sparse_in = mat_inverse(cols, ctx), mat_inverse([sparse(col) for col in cols], ctx)
    if dependent and size:
        assert big.rank() < size * d and dense is None and sparse_in is None
        return
    want = big.inv()
    assert [[x.coeffs for x in col] for col in dense] == [
        [tuple(Fraction(int(q.p), int(q.q)) for q in want[i * d:(i + 1) * d, j * d])
         for i in range(size)] for j in range(size)]
    assert sparse_in == [sparse(col) for col in dense]
    assert all(list(col) == sorted(col) for col in sparse_in)


@given(st.sampled_from(CONDUCTORS), st.integers(-10**40, 10**40), st.integers(1, 10**6),
       st.integers(0, 2))
def test_rational_hash_is_the_fraction_hash(n, a, b, power):
    # a rational element hashes as the Fraction it equals, by the documented
    # rule for numeric hashes; a denominator divisible by the hash modulus
    # makes that hash sys.hash_info.inf (or -inf)
    q = Fraction(a, b * sys.hash_info.modulus ** power)
    x = CycloCtx(n).from_fraction(q)
    assert hash(x) == hash(q)
    assert hash(-x) == hash(-q)
