import json
import random
from fractions import Fraction

import pytest

from heisgrad._linalg import mat_apply, sparse, vadd, vscale
from heisgrad.abelian import AbGroup, group_product
from heisgrad.color import (Bicharacter, ColorType, classify_color,
                            color_algebra, color_type_from_json,
                            color_type_to_json, is_super_realizable,
                            verify_color_axioms)
from heisgrad.gradings import Grading, grading_from_json, grading_to_json, verify_grading
from heisgrad.liealg import center, derived
from heisgrad.scalars import CycloCtx

from _helpers import assert_table_matches_dense, dense_table, dense_verify_color_axioms


@pytest.fixture(scope="module")
def ctx():
    return CycloCtx(12)


def test_trivial_group_gives_heisenberg(ctx):
    grp = AbGroup(0, ())
    t = ColorType(grp, grp.zero(), Bicharacter(grp, [], ctx), {grp.zero(): 5})
    a, gr = color_algebra(t, ctx)
    assert a.dim == 5
    assert len(center(a)) == 1
    assert derived(a) == center(a)
    assert verify_color_axioms(a, gr, t.epsilon).ok


def test_super_sign_rule_recovers_superalgebra(ctx):
    grp = AbGroup(0, (2,))
    eps = Bicharacter(grp, [[ctx.from_fraction(-1)]])
    even = grp.elt((), (0,))
    odd = grp.elt((), (1,))
    t = ColorType(grp, even, eps, {even: 3, odd: 2})
    a, gr = color_algebra(t)
    assert verify_color_axioms(a, gr, eps).ok
    # the odd-odd products are symmetric: [s, s] = z
    odd_vecs = gr.components[odd]
    z = center(a)[0]
    for v in odd_vecs:
        assert a.bracket(v, v) == z
    assert is_super_realizable(t) is not None


def test_torsion_free_pairing_example(ctx):
    grp = AbGroup(2, ())
    one = ctx.one()
    z3 = ctx.zeta(4)  # primitive cube root of unity
    eps = Bicharacter(grp, [[one, z3], [z3.inv(), one]])
    zero = grp.zero()
    e1, e2 = grp.elt((1, 0), ()), grp.elt((0, 1), ())
    dims = {zero: 1, e1: 1, -e1: 1, e2: 1, -e2: 1}
    t = ColorType(grp, zero, eps, dims)
    a, gr = color_algebra(t, ctx)
    assert verify_color_axioms(a, gr, eps).ok
    assert len(center(a)) == 1
    # [p_i, q_j] = delta_ij c pattern (up to the pairing orientation)
    z = center(a)[0]
    p1 = gr.components[e1][0]
    q1 = gr.components[-e1][0]
    q2 = gr.components[-e2][0]
    w = a.bracket(p1, q1)
    assert w == z or w == vscale(ctx.from_fraction(-1), z)
    assert a.bracket(p1, q2) == a.zero_vect()
    assert is_super_realizable(t) is not None


def test_flipping_epsilon_breaks_skew_symmetry(ctx):
    grp = AbGroup(0, (2,))
    eps = Bicharacter(grp, [[ctx.from_fraction(-1)]])
    even, odd = grp.elt((), (0,)), grp.elt((), (1,))
    t = ColorType(grp, even, eps, {even: 1, odd: 2})
    a, gr = color_algebra(t)
    wrong = Bicharacter(grp, [[ctx.one()]])
    assert not verify_color_axioms(a, gr, wrong).ok


def test_trivial_epsilon_is_plain_jacobi(ctx):
    from heisgrad.liealg import heisenberg, verify_axioms
    a = heisenberg(1, ctx)
    grp = AbGroup(0, ())
    gr = Grading(a, grp, {grp.zero(): tuple(a.basis_vect(i) for i in range(3))})
    eps = Bicharacter(grp, [], ctx)
    assert verify_color_axioms(a, gr, eps).ok == verify_axioms(a).ok


def test_not_realizable_with_cube_root(ctx):
    grp = AbGroup(2, ())
    one = ctx.one()
    z3 = ctx.zeta(4)
    eps = Bicharacter(grp, [[one, z3], [z3.inv(), one]])
    g0 = grp.elt((1, 1), ())
    ga, gb = grp.elt((1, 0), ()), grp.elt((0, 1), ())
    t = ColorType(grp, g0, eps, {g0: 1, grp.zero(): 0, ga: 1, gb: 1})
    assert eps(ga, -ga + g0) == z3
    assert is_super_realizable(t) is None


def test_realizable_split_is_a_grading(ctx):
    grp = AbGroup(0, (2,))
    eps = Bicharacter(grp, [[ctx.from_fraction(-1)]])
    even, odd = grp.elt((), (0,)), grp.elt((), (1,))
    t = ColorType(grp, even, eps, {even: 3, odd: 2})
    a, gr = color_algebra(t)
    split = is_super_realizable(t)
    assert split is not None
    even_supp, odd_supp = split
    z2, gens = group_product([2])
    comps = {}
    for g in even_supp:
        comps.setdefault(z2.zero(), []).extend(gr.components[g])
    for g in odd_supp:
        comps.setdefault(gens[0], []).extend(gr.components[g])
    z2_grading = Grading(a, z2, {g: tuple(v) for g, v in comps.items()})
    assert verify_grading(z2_grading).ok


def test_trivial_epsilon_realizable_with_empty_odd_part(ctx):
    grp = AbGroup(1, ())
    eps = Bicharacter(grp, [[ctx.one()]])
    g0 = grp.elt((4,), ())
    t = ColorType(grp, g0, eps, {g0: 1, grp.zero(): 0,
                                 grp.elt((1,), ()): 1, grp.elt((3,), ()): 1})
    split = is_super_realizable(t)
    assert split is not None
    even, odd = split
    assert odd == []


def test_bicharacter_validation(ctx):
    grp = AbGroup(0, (2,))
    with pytest.raises(ValueError):
        Bicharacter(grp, [[ctx.zeta(4)]])  # zeta3 ignores the order-2 relation
    grp2 = AbGroup(2, ())
    with pytest.raises(ValueError):
        Bicharacter(grp2, [[ctx.one(), ctx.from_fraction(2)],
                           [ctx.from_fraction(2), ctx.one()]])  # not skew


def test_colortype_validation(ctx):
    grp = AbGroup(1, ())
    eps = Bicharacter(grp, [[ctx.one()]])
    g0 = grp.elt((2,), ())
    with pytest.raises(ValueError):
        ColorType(grp, g0, eps, {g0: 1, grp.zero(): 0,
                                 grp.elt((1,), ()): 1}).validate()


def test_classify_round_trip_z4(ctx):
    grp = AbGroup(0, (4,))
    one = ctx.one()
    ii = ctx.i()
    vals = [[ii]]  # eps(1, 1) = i: i * i^... eps(g,h)eps(h,g) = i * i^{-1}?
    # need skew: eps(1,1)^2 = 1, so i is invalid on the diagonal; use -1
    eps = Bicharacter(grp, [[ctx.from_fraction(-1)]])
    g0 = grp.elt((), (2,))
    g1 = grp.elt((), (1,))
    # 2 * g1 = g0 and eps(g1, g1) = -1: a self-paired component
    t = ColorType(grp, g0, eps, {g0: 1, grp.zero(): 0, g1: 2})
    a, gr = color_algebra(t, ctx)
    t2, basis = classify_color(a, gr, eps)
    assert t2.g0 == g0
    assert t2.dims[g1] == 2

    # scramble the basis within components and classify again
    rng = random.Random(4)
    comps = {}
    for g in gr.support:
        vecs = list(gr.components[g])
        if len(vecs) == 2:
            c = ctx.from_fraction(Fraction(3, 5))
            s = ctx.from_fraction(Fraction(4, 5))
            v0 = tuple(c * x + s * y for x, y in zip(vecs[0], vecs[1]))
            v1 = tuple(-s * x + c * y for x, y in zip(vecs[0], vecs[1]))
            vecs = [v0, v1]
        comps[g] = tuple(vecs)
    scrambled = Grading(a, grp, comps)
    t3, basis3 = classify_color(a, scrambled, eps)
    assert t3.g0 == g0
    assert t3.dims == t2.dims

    # s1 +- i s2 are isotropic ([x, x] = 0): the orthogonal basis starts by
    # polarizing them
    s1, s2 = gr.components[g1]
    isotropic = [vadd(s1, vscale(sign * ii, s2)) for sign in (1, -1)]
    t5, basis5 = classify_color(a, Grading(a, grp, {g0: gr.components[g0], g1: tuple(isotropic)}),
                                eps)
    assert t5.dims == t2.dims
    assert all(a.bracket(v, v) == basis5[0][2] for name, _, v in basis5 if name.startswith("s"))


def test_classify_normalizes_group_to_support(ctx):
    # a support generating a proper subgroup of Z gets restricted to it
    grp = AbGroup(1, ())
    eps = Bicharacter(grp, [[ctx.one()]])
    g0 = grp.elt((4,), ())
    t = ColorType(grp, g0, eps, {g0: 1, grp.zero(): 0,
                                 grp.elt((1,), ()): 1, grp.elt((3,), ()): 1})
    a, gr = color_algebra(t, ctx)
    # double all degrees: support {2, 6, 8} generates 2Z inside Z
    comps = {grp.elt((2 * g.free[0],), ()): gr.components[g] for g in gr.support}
    doubled = Grading(a, grp, comps)
    t4, basis4 = classify_color(a, doubled, eps)
    assert t4.group == AbGroup(1, ())
    assert sorted(d for d in t4.dims.values() if d) == [1, 1, 1]


def test_classify_restricts_a_nontrivial_epsilon_to_the_support(ctx):
    # the torsion-free type with eps(e1, e2) = zeta_3, regraded by doubling
    # into Z^2 with eps'(e1, e2) = zeta_12: eps'(2x, 2y) = eps(x, y)
    grp = AbGroup(2, ())
    one = ctx.one()
    w = ctx.zeta(4)
    t = ColorType(grp, grp.zero(), Bicharacter(grp, [[one, w], [w.inv(), one]]),
                  {grp.zero(): 1, grp.elt((1, 0), ()): 1, grp.elt((-1, 0), ()): 1,
                   grp.elt((0, 1), ()): 1, grp.elt((0, -1), ()): 1,
                   grp.elt((1, 1), ()): 1, grp.elt((-1, -1), ()): 1})
    a, gr = color_algebra(t, ctx)
    doubled = Grading(a, grp, {2 * g: vs for g, vs in gr.components.items()})
    eps = Bicharacter(grp, [[one, ctx.zeta()], [ctx.zeta().inv(), one]])
    assert verify_color_axioms(a, doubled, eps).ok
    t2, basis = classify_color(a, doubled, eps)
    t2.validate()
    assert t2.group == grp
    assert sorted(t2.dims.values()) == [1] * 7
    # the restricted eps is eps' at the ambient degrees of the basis vectors
    for _, g, x in basis:
        for _, h, y in basis:
            assert t2.epsilon(g, h) == eps(doubled.degree_of(x), doubled.degree_of(y))
    assert any(t2.epsilon(g, h) != one for _, g, _ in basis for _, h, _ in basis)


def test_superalgebra_as_color_center_in_even_part():
    from heisgrad.fine import super_fine
    gr = super_fine(1, 2, 1)
    a = gr.algebra
    ctx = a.ctx
    # view the super grading as a color structure over group x Z2
    grp = gr.group
    n = grp.rank + len(grp.torsion)
    prod, gens = group_product([0] * grp.rank + list(grp.torsion) + [2])
    vals = [[ctx.one()] * (n + 1) for _ in range(n + 1)]
    vals[n][n] = ctx.from_fraction(-1)
    eps = Bicharacter(prod, vals, ctx)

    comps = {}
    for g in gr.support:
        for v in gr.components[g]:
            par = a.vect_parity(sparse(v))
            coords = list(g.free) + list(g.torsion) + [par]
            deg = prod.zero()
            for c, gen in zip(coords, gens):
                deg = deg + c * gen
            comps.setdefault(deg, []).append(v)
    colored = Grading(a, prod, {g: tuple(v) for g, v in comps.items()})
    assert verify_color_axioms(a, colored, eps).ok
    t, basis = classify_color(a, colored, eps)
    # the center sits in the even part and its degree is the located g0
    # (possibly re-coordinatized: the support only generates a subgroup)
    z = center(a)[0]
    named = {name: (g, v) for name, g, v in basis}
    g_z, v_z = named["z"]
    assert v_z == z
    assert g_z == t.g0
    assert a.vect_parity(sparse(z)) == 0


def test_classify_mixed_type_with_scramble():
    # Z2 x Z4 type with two cross pairs of different dimensions and a
    # nontrivial distinguished pair, recovered after mixing each
    # component's basis
    from heisgrad._linalg import vadd, vscale
    ctx = CycloCtx(8)
    one = ctx.one()
    grp = AbGroup(0, (2, 4))
    eps = Bicharacter(grp, [[one, -one], [-one, -one]])
    g0 = grp.elt((), (1, 2))
    zero = grp.zero()
    ga = grp.elt((), (0, 1))
    gb = grp.elt((), (1, 3))
    dims = {g0: 3, zero: 2, ga: 2, -ga + g0: 2, gb: 1, -gb + g0: 1}
    t = ColorType(grp, g0, eps, dims)
    a, gr = color_algebra(t, ctx)
    assert a.dim == 11
    assert verify_color_axioms(a, gr, eps).ok

    rng = random.Random(9)
    comps = {}
    for g in gr.support:
        vecs = list(gr.components[g])
        for _ in range(3):
            i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
            if i != j:
                vecs[i] = vadd(vecs[i], vscale(
                    ctx.from_fraction(rng.randint(-2, 2)), vecs[j]))
        comps[g] = tuple(vecs)
    t2, basis = classify_color(a, Grading(a, grp, comps), eps)
    assert t2.g0 == g0
    assert t2.dims == dims


def test_color_type_json_roundtrip(ctx):
    grp = AbGroup(0, (2,))
    eps = Bicharacter(grp, [[ctx.from_fraction(-1)]])
    even, odd = grp.elt((), (0,)), grp.elt((), (1,))
    t = ColorType(grp, even, eps, {even: 1, odd: 2})
    spec = color_type_to_json(t)
    t2 = color_type_from_json(spec, ctx)
    assert t2.group == t.group and t2.g0 == t.g0 and t2.dims == t.dims


# --- the sparse axiom check against the dense oracle ------------------------

def _color_cases():
    """(name, algebra, grading, eps) for every color grading built in this
    file, plus the broken-Jacobi table of test_liealg over the trivial group."""
    from heisgrad.fine import super_fine
    from heisgrad.liealg import Algebra, heisenberg
    ctx = CycloCtx(12)
    one, minus = ctx.one(), ctx.from_fraction(-1)
    cases = []

    def std(name, grp, g0, vals, dims, c=ctx):
        eps = Bicharacter(grp, vals, c)
        a, gr = color_algebra(ColorType(grp, g0, eps, dims), c)
        cases.append((name, a, gr, eps))
        return a, gr, eps

    triv = AbGroup(0, ())
    std("trivial", triv, triv.zero(), [], {triv.zero(): 5})
    z2 = AbGroup(0, (2,))
    even, odd = z2.elt((), (0,)), z2.elt((), (1,))
    a, gr, eps = std("super", z2, even, [[minus]], {even: 3, odd: 2})
    split = Grading(a, z2, {even: gr.components[even], odd: gr.components[odd]})
    cases.append(("super-split", a, split, eps))
    std("flip", z2, even, [[minus]], {even: 1, odd: 2})
    zz = AbGroup(2, ())
    w = ctx.zeta(4)
    e1, e2 = zz.elt((1, 0), ()), zz.elt((0, 1), ())
    std("torsion-free", zz, zz.zero(), [[one, w], [w.inv(), one]],
        {zz.zero(): 1, e1: 1, -e1: 1, e2: 1, -e2: 1})
    std("cube-root", zz, e1 + e2, [[one, w], [w.inv(), one]],
        {e1 + e2: 1, zz.zero(): 0, e1: 1, e2: 1})
    a, gr, _ = std("torsion-free-7", zz, zz.zero(), [[one, w], [w.inv(), one]],
                   {zz.zero(): 1, e1: 1, -e1: 1, e2: 1, -e2: 1, e1 + e2: 1, -e1 - e2: 1})
    cases.append(("doubled-z2", a, Grading(a, zz, {2 * g: vs for g, vs in
                                                    gr.components.items()}),
                  Bicharacter(zz, [[one, ctx.zeta()], [ctx.zeta().inv(), one]])))
    h = heisenberg(1, ctx)
    cases.append(("heisenberg", h, Grading(h, triv, {triv.zero(): tuple(
        h.basis_vect(i) for i in range(3))}), Bicharacter(triv, [], ctx)))
    z4 = AbGroup(0, (4,))
    std("z4", z4, z4.elt((), (2,)), [[minus]],
        {z4.elt((), (2,)): 1, z4.zero(): 0, z4.elt((), (1,)): 2})
    z = AbGroup(1, ())
    a, gr, eps = std("z", z, z.elt((4,), ()), [[one]],
                     {z.elt((4,), ()): 1, z.zero(): 0, z.elt((1,), ()): 1,
                      z.elt((3,), ()): 1})
    cases.append(("doubled-z", a, Grading(a, z, {z.elt((2 * g.free[0],), ()): vs
                                                  for g, vs in gr.components.items()}),
                  eps))
    c8 = CycloCtx(8)
    z24 = AbGroup(0, (2, 4))
    std("mixed", z24, z24.elt((), (1, 2)), [[c8.one(), -c8.one()], [-c8.one(), -c8.one()]],
        {z24.elt((), (1, 2)): 3, z24.zero(): 2, z24.elt((), (0, 1)): 2,
         z24.elt((), (1, 1)): 2, z24.elt((), (1, 3)): 1, z24.elt((), (0, 3)): 1}, c8)

    sgr = super_fine(1, 2, 1)
    sa = sgr.algebra
    grp = sgr.group
    n = grp.rank + len(grp.torsion)
    prod, gens = group_product([0] * grp.rank + list(grp.torsion) + [2])
    vals = [[sa.ctx.one()] * (n + 1) for _ in range(n + 1)]
    vals[n][n] = sa.ctx.from_fraction(-1)
    comps = {}
    for g in sgr.support:
        for v in sgr.components[g]:
            coords = list(g.free) + list(g.torsion) + [sa.vect_parity(sparse(v))]
            deg = sum((c * gen for c, gen in zip(coords, gens)), prod.zero())
            comps.setdefault(deg, []).append(v)
    cases.append(("super-as-color", sa, Grading(sa, prod, {g: tuple(v) for g, v in
                                                          comps.items()}),
                  Bicharacter(prod, vals, sa.ctx)))

    h2 = heisenberg(2, ctx)
    table = dense_table(h2)
    table[0][2] = h2.basis_vect(0)
    table[2][0] = vscale(minus, h2.basis_vect(0))
    bad = Algebra.from_table(ctx, h2.labels, h2.parity, table)
    cases.append(("broken-jacobi", bad, Grading(bad, triv, {triv.zero(): tuple(
        bad.basis_vect(i) for i in range(bad.dim))}), Bicharacter(triv, [], ctx)))
    return cases


def _scrambled(gr, rng):
    """The grading with each component basis recombined by a random
    invertible lower-triangular matrix."""
    ctx = gr.algebra.ctx

    def q(nonzero):
        num = rng.choice((1, 2, 3)) * rng.choice((1, -1)) if nonzero else rng.randint(-2, 2)
        return ctx.from_fraction(Fraction(num, rng.choice((1, 2, 3))))

    comps = {}
    for g, vecs in gr.components.items():
        mixed = []
        for i, v in enumerate(vecs):
            for u in vecs[:i]:
                v = vadd(v, vscale(q(False), u))
            mixed.append(vscale(q(True), v))
        comps[g] = tuple(mixed)
    return Grading(gr.algebra, gr.group, comps)


def _random_bicharacter(grp, ctx, rng):
    n = grp.rank + len(grp.torsion)
    while True:
        vals = [[None] * n for _ in range(n)]
        for i in range(n):
            vals[i][i] = ctx.from_fraction(rng.choice((1, -1)))
            for j in range(i + 1, n):
                v = ctx.zeta() ** rng.randrange(ctx.n)
                vals[i][j], vals[j][i] = v, v.inv()
        try:
            return Bicharacter(grp, vals, ctx)
        except ValueError:
            continue


def test_sparse_color_check_matches_the_dense_oracle():
    rng = random.Random(11)
    kinds = set()
    for name, a, gr, eps in _color_cases():
        variants = [(gr, eps), (_scrambled(gr, rng), eps)]
        if eps.values:
            variants += [(gr, _random_bicharacter(gr.group, eps.ctx, rng)) for _ in range(3)]
        for grading, e in variants:
            want = dense_verify_color_axioms(a, grading, e)
            got = verify_color_axioms(a, grading, e)
            assert (got.ok, got.failures) == (want.ok, want.failures), name
            kinds.update(f.split(" fails")[0] for f in got.failures)
    assert kinds == {"color skew-symmetry", "color Jacobi"}


def test_flipped_epsilon_fails_the_same_pair_as_the_oracle(ctx):
    grp = AbGroup(0, (2,))
    even, odd = grp.elt((), (0,)), grp.elt((), (1,))
    a, gr = color_algebra(ColorType(grp, even, Bicharacter(grp, [[ctx.from_fraction(-1)]]),
                                    {even: 1, odd: 2}))
    wrong = Bicharacter(grp, [[ctx.one()]])
    report = verify_color_axioms(a, gr, wrong)
    assert report.failures == dense_verify_color_axioms(a, gr, wrong).failures
    assert report.failures == [f"color skew-symmetry fails on degrees {odd}, {odd}"]


def test_color_check_brackets_each_basis_pair_once(monkeypatch):
    from heisgrad.liealg import Algebra
    calls = []
    bracket = Algebra.bracket
    monkeypatch.setattr(Algebra, "bracket",
                        lambda self, x, y: calls.append(1) or bracket(self, x, y))
    for name, a, gr, eps in _color_cases():
        fresh = Grading(a, gr.group, dict(gr.components))
        calls.clear()
        verify_color_axioms(a, fresh, eps)
        assert len(calls) <= a.dim ** 2, name
        verify_color_axioms(a, fresh, eps)
        assert len(calls) <= a.dim ** 2, name  # the brackets are kept


def test_graded_table_matches_dense_brackets():
    rng = random.Random(5)
    for name, a, gr, eps in _color_cases():
        for grading in (gr, _scrambled(gr, rng)):
            assert_table_matches_dense(grading)


_STANDARD_CASES = ("trivial", "super", "flip", "torsion-free", "cube-root", "torsion-free-7",
                   "z4", "z", "mixed")


@pytest.mark.parametrize("name", _STANDARD_CASES)
def test_color_algebra_json_round_trip(name):
    # a color algebra writes its type, not a custom table, and reads back
    _, a, gr, eps = next(case for case in _color_cases() if case[0] == name)
    doc = json.loads(json.dumps(grading_to_json(gr)))
    assert doc["algebra"]["kind"] == "color"
    back = grading_from_json(doc)
    assert back.algebra == a and not back.algebra.skew
    assert back.components == gr.components
    assert verify_color_axioms(back.algebra, back, eps).ok
    with pytest.raises(AttributeError):
        back.algebra.skew = True
