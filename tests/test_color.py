import random
from fractions import Fraction

import pytest

from heisgrad._linalg import mat_apply, vscale
from heisgrad.abelian import AbGroup, group_product
from heisgrad.color import (Bicharacter, ColorType, classify_color,
                            color_algebra, color_type_from_json,
                            color_type_to_json, is_super_realizable,
                            verify_color_axioms)
from heisgrad.gradings import Grading, verify_grading
from heisgrad.liealg import center, derived
from heisgrad.scalars import CycloCtx


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
            par = a.vect_parity(v)
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
    assert a.vect_parity(z) == 0


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
