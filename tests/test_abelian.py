import random

import pytest
from hypothesis import given, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from heisgrad.abelian import (AbGroup, AbPresentation, canonicalize, express_in_terms,
                              generates, group_product, smith_normal_form,
                              subgroup_presentation)


def det(m):
    # Bareiss fraction-free determinant for the unimodularity checks
    n = len(m)
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def check_snf(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return diag


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def test_snf_random_sweep():
    rng = random.Random(20240)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(a)


def reference_snf(a):
    """The Smith form by single-entry row and column operations, V always
    built: the least |entry| of the active block as pivot (rows scanned
    before columns), clear its column and row, and fold an offending row
    of the remaining block into the pivot row."""
    rows, cols = len(a), len(a[0]) if a else 0
    d = [list(r) for r in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(i, j, q):  # row_i -= q * row_j in D and U
        for m in (d, u):
            for c in range(len(m[i])):
                m[i][c] -= q * m[j][c]

    def add_col(i, j, q):  # col_i -= q * col_j in D and V
        for m in (d, v):
            for r in range(len(m)):
                m[r][i] -= q * m[r][j]

    t = 0
    while t < min(rows, cols):
        block = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        d[t], d[pi], u[t], u[pi] = d[pi], d[t], u[pi], u[t]
        for m in (d, v):
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        if d[t][t] < 0:
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
        for i in range(t + 1, rows):
            if d[i][t]:
                add_row(i, t, d[i][t] // d[t][t])
        for j in range(t + 1, cols):
            if d[t][j]:
                add_col(j, t, d[t][j] // d[t][t])
        if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1:]):
            continue
        bad = [i for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % d[t][t]]
        if bad:
            add_row(t, bad[0], -1)
            continue
        t += 1
    return u, d, v


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-40, 40))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@given(int_matrices())
def test_smith_form_matches_the_entrywise_reference_with_and_without_v(a):
    # the same pivots either way: U and D do not depend on whether V is built
    u, d, v = reference_snf(a)
    assert smith_normal_form(a) == (u, d, v)
    assert smith_normal_form(a, with_v=False) == (u, d, None)


@st.composite
def group_elements(draw):
    """A group with up to 3 free and 3 torsion factors and two elements
    drawn through AbGroup.elt from unreduced coordinates."""
    torsion = []
    for step in draw(st.lists(st.integers(1, 4), max_size=3)):
        torsion.append((torsion[-1] if torsion else 2) * step)
    g = AbGroup(draw(st.integers(0, 3)), tuple(torsion))
    coords = st.integers(-50, 50)

    def elt():
        return g.elt(draw(st.lists(coords, min_size=g.rank, max_size=g.rank)),
                     draw(st.lists(coords, min_size=len(torsion), max_size=len(torsion))))

    return g, elt(), elt()


@given(group_elements(), st.integers(-7, 7))
def test_element_arithmetic_matches_the_validating_constructor(elements, n):
    g, a, b = elements

    def ref(f, *xs):  # coordinates combined entrywise, reduced by AbGroup.elt
        return g.elt(tuple(map(f, *(x.free for x in xs))), tuple(map(f, *(x.torsion for x in xs))))

    for got, want in ((a + b, ref(lambda x, y: x + y, a, b)),
                      (a - b, ref(lambda x, y: x - y, a, b)),
                      (-a, ref(lambda x: -x, a)),
                      (n * a, ref(lambda x: n * x, a)),
                      (a * n, ref(lambda x: n * x, a))):
        assert (got.group, got.free, got.torsion) == (want.group, want.free, want.torsion)
        assert got == want and hash(got) == hash(want)
    assert (a == b) == (a.key() == b.key()) and len({a, b}) == 1 + (a != b)


def test_canonicalize_free():
    g, images = canonicalize(AbPresentation(2, ()))
    assert g == AbGroup(2, ())
    assert len(images) == 2


def test_canonicalize_twisted_natural_group():
    # generators u, z, e1 with relations 2u = 0 and 2e1 = z + u
    g, images = canonicalize(AbPresentation(3, ((2, 0, 0), (-1, -1, 2))))
    assert g == AbGroup(1, (2,))


def test_canonicalize_super_relations():
    # generators z, e, ehat, u, v, t with e+ehat = u+v = 2t = z
    rels = ((-1, 1, 1, 0, 0, 0), (-1, 0, 0, 1, 1, 0), (-1, 0, 0, 0, 0, 2))
    g, images = canonicalize(AbPresentation(6, rels))
    assert g == AbGroup(3, ())
    # the original relations hold on the images
    z, e, eh, u, v, t = images
    assert e + eh == z and u + v == z and 2 * t == z


def test_presentation_invariance():
    rels = [(2, 0, 0), (-1, -1, 2)]
    base, _ = canonicalize(AbPresentation(3, tuple(rels)))
    redundant = rels + [tuple(2 * a - b for a, b in zip(rels[0], rels[1]))]
    again, _ = canonicalize(AbPresentation(3, tuple(redundant)))
    assert base == again


def test_group_product_canonicalizes():
    g, gens = group_product([0, 2, 4, 2])
    assert g == AbGroup(1, (2, 2, 4))
    assert str(g) == "Z x Z_2 x Z_2 x Z_4"
    g2, _ = group_product([2, 3])
    assert g2 == AbGroup(0, (6,))
    with pytest.raises(ValueError, match="factors must be 0"):
        group_product([2, -1])


def test_element_arithmetic():
    g, gens = group_product([0, 2])
    a = g.elt((0,), (1,))
    assert a.order() == 2
    assert (a + a) == g.zero()
    b = g.elt((1,), (0,))
    assert b.order() is None
    assert (b - b) == g.zero()
    assert (3 * b).free == (3,)
    with pytest.raises(TypeError):
        b * 1.5
    assert b != (1,) and repr(b) == "GroupElt(group=AbGroup(rank=1, torsion=(2,)), free=(1,), torsion=(0,))"
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        g.elt((0, 0), (1,))
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        g.elt((0,), ())


def test_cross_group_arithmetic_is_error():
    g1, _ = group_product([0])
    g2, _ = group_product([0, 0])
    with pytest.raises(ValueError):
        g1.zero() + g2.zero()


@pytest.mark.parametrize("build, message", [
    (lambda: AbPresentation(-1, ()), "n_gens must be >= 0"),
    (lambda: AbPresentation(2, ((1,),)), "relation length"),
    (lambda: AbGroup(0, (2, 3)), "divisibility chain"),
    (lambda: AbGroup(1, (1, 2)), "invariant factors must be >= 2"),
], ids=["negative-generators", "short-relation", "broken-chain", "factor-1"])
def test_malformed_presentations_and_groups_are_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_torsion_free():
    assert AbGroup(3, ()).is_torsion_free()
    assert not AbGroup(1, (2,)).is_torsion_free()


def test_order_of_element():
    g, _ = group_product([0, 2, 4])
    e = g.elt((0,), (1, 2))
    assert e.order() == 2
    e2 = g.elt((0,), (1, 1))
    assert e2.order() == 4


def test_generates():
    g, gens = group_product([0, 2])
    assert generates(g, gens)
    assert not generates(g, [g.elt((2,), (0,)), g.elt((0,), (1,))])
    assert generates(g, [g.elt((1,), (1,)), g.elt((0,), (1,))])


def test_subgroup_presentation():
    g, _ = group_product([0, 0])
    elts = [g.elt((2, 0), ()), g.elt((0, 3), ())]
    sub, _ = canonicalize(subgroup_presentation(g, elts))
    assert sub == AbGroup(2, ())
    # index-2 sublattice spanned by (1,1) and (1,-1)
    elts = [g.elt((1, 1), ()), g.elt((1, -1), ())]
    sub, _ = canonicalize(subgroup_presentation(g, elts))
    assert sub == AbGroup(2, ())
    gt, _ = group_product([4])
    sub, _ = canonicalize(subgroup_presentation(gt, [gt.elt((), (2,))]))
    assert sub == AbGroup(0, (2,))
    assert subgroup_presentation(g, []) == AbPresentation(0, ())


def test_express_in_terms():
    g, _ = group_product([0, 4])
    elts = [g.elt((1,), (1,)), g.elt((0,), (2,))]
    combo = express_in_terms(g, elts, g.elt((3,), (1,)))
    assert combo is not None
    assert sum((c * e for c, e in zip(combo, elts)), g.zero()) == g.elt((3,), (1,))
    # the trivial group: every target is the empty combination
    triv = AbGroup(0, ())
    assert express_in_terms(triv, [triv.zero()] * 2, triv.zero()) == [0, 0]
    # 1 is no multiple of 2 in Z; (0, 1) is off the line Z (1, 0) in Z^2
    z, _ = group_product([0])
    assert express_in_terms(z, [z.elt((2,), ())], z.elt((1,), ())) is None
    z2, _ = group_product([0, 0])
    assert express_in_terms(z2, [z2.elt((1, 0), ())], z2.elt((0, 1), ())) is None


def test_str_forms():
    assert str(AbGroup(0, ())) == "1"
    assert str(AbGroup(1, ())) == "Z"
    assert str(AbGroup(0, (5,))) == "Z_5"


@st.composite
def int_matrices(draw):
    """Small integer matrices, dense or diagonal (diagonal ones rarely
    come out of elimination as a divisibility chain), many of them with
    zero rows and columns."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-12, 12)
    diagonal = draw(st.booleans())
    a = [[draw(entry) if i == j or not diagonal else 0 for j in range(cols)]
         for i in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in a:
            row[j] = 0
    return a


@given(int_matrices())
def test_snf_matches_sympy_invariant_factors(a):
    # check_snf also asserts U*A*V == D with U and V unimodular
    diag = check_snf(a)
    assert diag == [int(x) for x in invariant_factors(Matrix(a), domain=ZZ)]
