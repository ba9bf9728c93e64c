import random
from fractions import Fraction

import pytest

from heisgrad._linalg import in_span, is_zero_vect, mat_apply, same_span, vscale
from heisgrad.abelian import AbGroup
from heisgrad.fine import (BlockI, BlockII, FineTwistedParams, block_i,
                           block_ii, decompose_twisted_grading,
                           enumerate_super_fine, enumerate_twisted_fine,
                           equivalent_fine, expected_twisted_group,
                           heisenberg_fine, homogenize_u, rebase_block_i,
                           rebase_block_ii, spectrum_check, super_fine,
                           twist, twisted_fine, twisted_fine_nontoral,
                           twisted_fine_toral)
from heisgrad.gradings import is_toral_fine, universal_group, verify_grading
from heisgrad.liealg import heisenberg, heisenberg_super, is_automorphism, twisted
from heisgrad.scalars import CycloCtx

from _helpers import random_twisted_automorphism, transport_grading


@pytest.fixture(scope="module")
def ctx16():
    return CycloCtx(16)


@pytest.fixture(scope="module")
def lam_iiii(ctx16):
    one, ii = ctx16.one(), ctx16.i()
    return [one, one, ii, ii]


def test_twist_reads_lambda_off_the_structure_constants(lam_iiii):
    assert twist(twisted(lam_iiii)) == lam_iiii
    assert twist(twisted_fine_toral(lam_iiii).algebra) == lam_iiii
    for a in (heisenberg(2), heisenberg_super(1, 2)):
        with pytest.raises(ValueError, match="not a twisted Heisenberg algebra"):
            twist(a)


def test_heisenberg_fine_k1():
    gr = heisenberg_fine(1)
    assert len(gr.support) == 3
    assert verify_grading(gr).ok
    assert gr.group == AbGroup(2, ())
    assert is_toral_fine(gr)
    # degrees: e and ehat sum to the degree of z
    a = gr.algebra
    e_deg = next(g for g in gr.support if gr.components[g][0][0])
    h_deg = next(g for g in gr.support if gr.components[g][0][1])
    z_deg = next(g for g in gr.support if gr.components[g][0][2])
    assert e_deg + h_deg == z_deg


def test_super_fine_basics():
    gr = super_fine(0, 1, 0)
    assert verify_grading(gr).ok
    assert gr.group == AbGroup(1, ())

    gr = super_fine(1, 2, 1)
    assert verify_grading(gr).ok
    a = gr.algebra
    u1, v1 = gr.family.uv[0]
    z = gr.family.z
    assert a.bracket(u1, v1) == z
    assert is_zero_vect(a.bracket(u1, u1))
    assert is_zero_vect(a.bracket(v1, v1))
    e1, eh1 = a.basis_vect(0), a.basis_vect(1)
    assert a.bracket(e1, eh1) == z


def test_super_fine_groups_pairwise_distinct():
    groups = [gr.group for _, gr in enumerate_super_fine(1, 4)]
    assert len(groups) == 3
    assert len({(g.rank, g.torsion) for g in groups}) == 3


def test_super_fine_counts():
    assert len(enumerate_super_fine(1, 2)) == 2
    assert len(enumerate_super_fine(1, 3)) == 2
    assert len(enumerate_super_fine(2, 4)) == 3


def test_super_fine_m0_matches_heisenberg():
    sup = super_fine(2, 0, 0)
    plain = heisenberg_fine(2)
    assert sup.group == plain.group
    assert len(sup.support) == len(plain.support)


def test_super_fine_only_r_max_is_toral_for_even_m():
    for r in range(3):
        gr = super_fine(1, 4, r)
        assert is_toral_fine(gr) == (r == 2)


def test_super_fine_torality_for_odd_m():
    # for odd m the maximal-r grading leaves one unpaired odd line and
    # its universal group is still torsion-free, hence toral
    assert is_toral_fine(super_fine(1, 3, 1))
    assert not is_toral_fine(super_fine(1, 3, 0))


def test_twisted_fine_toral_relations(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    gr = twisted_fine_toral(lam)
    a = gr.algebra
    u = a.basis_vect(0)
    z = a.basis_vect(a.dim - 1)
    for i, li in enumerate(lam):
        e = a.basis_vect(1 + 2 * i)
        eh = a.basis_vect(2 + 2 * i)
        ui = tuple(x + y for x, y in zip(e, eh))
        vi = tuple(x - y for x, y in zip(e, eh))
        assert a.bracket(u, ui) == vscale(li, ui)
        assert a.bracket(u, vi) == vscale(-li, vi)
        assert a.bracket(ui, vi) == vscale(-2 * li, z)
    assert gr.group == AbGroup(3, ())
    assert is_toral_fine(gr)


def test_twisted_fine_nontoral_group(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    gr = twisted_fine_nontoral(lam)
    assert gr.group == AbGroup(1, (2, 2))
    assert not is_toral_fine(gr)


# --- blocks ------------------------------------------------------------------

def test_block_i_l1_is_eigenpair(ctx16):
    lam = [ctx16.one()]
    a = twisted(lam)
    blk = block_i(a, 1, ctx16.one(), [(0, False)])
    # {u_1, v_1/2} up to the construction's normalization
    e, eh = a.basis_vect(1), a.basis_vect(2)
    u1 = tuple(x + y for x, y in zip(e, eh))
    assert blk.xs[0] == u1
    assert blk.ys[0] == vscale(ctx16.from_fraction(Fraction(1, 2)),
                               tuple(x - y for x, y in zip(e, eh)))


def test_block_i_l2(ctx16):
    # lambda slice (-1, 1) carries a type-I block with alpha = 1
    lam = [ctx16.one(), ctx16.one()]
    a = twisted(lam)
    blk = block_i(a, 2, ctx16.one(), [(0, True), (1, False)])
    assert len(blk.xs) == 2 and len(blk.ys) == 2


def test_block_i_l3():
    ctx = CycloCtx(12)
    one = ctx.one()
    xi = ctx.zeta(4)  # primitive cube root
    lam = [xi, xi * xi, one]
    a = twisted(lam)
    blk = block_i(a, 3, one, [(0, False), (1, False), (2, False)])
    # [x_3, y_3] = (-1)^3 alpha z, checked by the block verifier on build;
    # assert the value explicitly as well
    z = a.basis_vect(a.dim - 1)
    assert a.bracket(blk.xs[2], blk.ys[2]) == vscale(-one, z)


def test_block_i_rejects_wrong_slice(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    a = twisted(lam)
    with pytest.raises(ValueError):
        block_i(a, 2, ctx16.one(), [(0, False), (1, False)])


def test_block_ii_l1(ctx16):
    lam = [ctx16.one()]
    a = twisted(lam)
    blk = block_ii(a, 1, ctx16.one(), [(0, True)])
    # spans the pair {ehat_1, e_1}
    e, eh = a.basis_vect(1), a.basis_vect(2)
    assert same_span(list(blk.xs), [e, eh])


def test_block_ii_l2():
    ctx = CycloCtx(16)
    one, ii = ctx.one(), ctx.i()
    lam = [ii, -one]  # slice (zeta_4 * 1, -1) for alpha = 1
    a = twisted(lam)
    blk = block_ii(a, 2, one, [(0, False), (1, False)])
    z = a.basis_vect(a.dim - 1)
    assert a.bracket(blk.xs[0], blk.xs[3]) == vscale(-one, z)
    assert a.bracket(blk.xs[1], blk.xs[2]) == z


def test_cross_block_brackets_vanish(ctx16, lam_iiii):
    gr = twisted_fine(lam_iiii, FineTwistedParams(2, 1, 2, (ctx16.i(),),
                                                  (ctx16.one(), ctx16.one())))
    a = gr.algebra
    blocks = list(gr.family.blocks_i) + list(gr.family.blocks_ii)
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            for v in b1.elements():
                for w in b2.elements():
                    assert is_zero_vect(a.bracket(v, w))


def test_block_span_change_classes(ctx16):
    # type I: rescaling by an l-th root (even l) or 2l-th root (odd l)
    # keeps the span; anything else is rejected
    one, ii = ctx16.one(), ctx16.i()
    lam1 = [one]
    a1 = twisted(lam1)
    blk = block_i(a1, 1, one, [(0, False)])
    moved = rebase_block_i(a1, blk, -one)  # (-1)^2 = 1: allowed for l = 1
    assert same_span(moved.elements(), blk.elements())
    with pytest.raises(ValueError):
        rebase_block_i(a1, blk, ii)  # i^2 != 1

    lam2 = [one, one]
    a2 = twisted(lam2)
    blk2 = block_i(a2, 2, one, [(0, True), (1, False)])
    moved2 = rebase_block_i(a2, blk2, -one)
    assert same_span(moved2.elements(), blk2.elements())
    with pytest.raises(ValueError):
        rebase_block_i(a2, blk2, ii)

    blk3 = block_ii(a1, 1, one, [(0, True)])
    moved3 = rebase_block_ii(a1, blk3, -one)
    assert same_span(moved3.elements(), blk3.elements())
    with pytest.raises(ValueError):
        rebase_block_ii(a1, blk3, ctx16.zeta(2))  # primitive 8th root


# --- spectrum condition --------------------------------------------------------

def test_twisted_fine_preconditions(ctx16):
    one = ctx16.one()
    lam = [one, ctx16.from_fraction(2)]
    with pytest.raises(ValueError):
        FineTwistedParams(1, 0, 2, (), (one, one))  # type II needs even l
    with pytest.raises(ValueError):
        twisted_fine(lam, FineTwistedParams(4, 0, 1, (), (one,)))  # bad spectrum


def test_spectrum_examples(ctx16, lam_iiii):
    one, ii = ctx16.one(), ctx16.i()
    assert spectrum_check(lam_iiii, FineTwistedParams(4, 0, 2, (), (one, one)))
    lam12 = [one, ctx16.from_fraction(2)]
    assert spectrum_check(
        lam12, FineTwistedParams(2, 0, 2, (), (one, ctx16.from_fraction(2))))
    assert not spectrum_check(lam12, FineTwistedParams(4, 0, 1, (), (one,)))
    assert not spectrum_check(
        lam_iiii, FineTwistedParams(8, 0, 1, (), (one,)))


# --- named gradings against the classification ---------------------------------

def test_example_classes_and_universal_groups(ctx16, lam_iiii):
    one, ii = ctx16.one(), ctx16.i()
    cases = [
        (FineTwistedParams(1, 4, 0, (one, one, ii, ii), ()), AbGroup(5, ())),
        (FineTwistedParams(4, 1, 0, (one,), ()), AbGroup(2, (4,))),
        (FineTwistedParams(4, 0, 2, (), (one, one)), AbGroup(1, (2, 4))),
        (FineTwistedParams(2, 0, 4, (), (one, one, ii, ii)), AbGroup(1, (2, 2, 2, 2))),
    ]
    for params, want in cases:
        gr = twisted_fine(lam_iiii, params)
        assert verify_grading(gr).ok
        assert gr.group == want
        assert gr.group == expected_twisted_group(params.l, params.s, params.r)


def test_enumeration_lambda_1_1_i_i(ctx16, lam_iiii):
    reps = enumerate_twisted_fine(lam_iiii)
    shapes = [(p.l, p.s, p.r) for p in reps]
    assert shapes == [(1, 4, 0), (2, 0, 4), (2, 1, 2), (2, 2, 0),
                      (4, 0, 2), (4, 1, 0)]
    assert all(8 != p.l for p in reps)
    groups = sorted(str(twisted_fine(lam_iiii, p).group) for p in reps)
    assert groups == sorted([
        "Z^5", "Z x Z_2 x Z_2 x Z_2 x Z_2", "Z^2 x Z_2 x Z_2",
        "Z^3 x Z_2", "Z x Z_2 x Z_4", "Z^2 x Z_4"])


def test_enumeration_generic(ctx16):
    one = ctx16.one()
    lam = [one, ctx16.from_fraction(2)]
    reps = enumerate_twisted_fine(lam)
    assert [(p.l, p.s, p.r) for p in reps] == [(1, 2, 0), (2, 0, 2)]
    lam3 = [one, ctx16.from_fraction(3), ctx16.from_fraction(9)]
    reps3 = enumerate_twisted_fine(lam3)
    assert [(p.l, p.s, p.r) for p in reps3] == [(1, 3, 0), (2, 0, 3)]


def test_enumeration_complete_at_desk_scale(ctx16, lam_iiii):
    # every parameter tuple passing the spectrum condition is equivalent
    # to one of the enumerated representatives
    from collections import Counter
    from heisgrad.fine import _extract_blocks, primitive_root
    from heisgrad.scalars import divisors
    reps = enumerate_twisted_fine(lam_iiii)
    k = len(lam_iiii)
    spec = Counter()
    for x in lam_iiii:
        spec[x] += 1
        spec[-x] += 1
    for l in divisors(2 * k):
        xi = primitive_root(ctx16, l, lam_iiii)
        if xi is None:
            continue
        per = 2 * k // l
        for s in range(per // 2 + 1):
            r = per - 2 * s
            if r and l % 2:
                continue
            for betas, alphas in _extract_blocks(spec, l, s, r, xi):
                p = FineTwistedParams(l, s, r, betas, alphas)
                if spectrum_check(lam_iiii, p):
                    assert any(equivalent_fine(lam_iiii, p, q) for q in reps)


def test_equivalence_via_scalar():
    # epsilon = 1/2 matches (2, 4) onto (1, 2)
    ctx = CycloCtx(8)
    one, two = ctx.one(), ctx.from_fraction(2)
    lam = [one, two]
    pa = FineTwistedParams(1, 2, 0, (one, two), ())
    pb = FineTwistedParams(1, 2, 0, (two, ctx.from_fraction(4)), ())
    assert equivalent_fine(lam, pa, pb)
    assert equivalent_fine(lam, pa, pa)


def test_equivalence_sign_change_is_trivial(ctx16):
    one = ctx16.one()
    lam = [one, ctx16.from_fraction(2)]
    pa = FineTwistedParams(1, 2, 0, (one, ctx16.from_fraction(2)), ())
    pb = FineTwistedParams(1, 2, 0, (-one, ctx16.from_fraction(2)), ())
    assert spectrum_check(lam, pb)
    assert equivalent_fine(lam, pa, pb)


def test_shape_mismatch_is_inequivalent(ctx16, lam_iiii):
    one, ii = ctx16.one(), ctx16.i()
    pa = FineTwistedParams(2, 2, 0, (one, ii), ())
    pb = FineTwistedParams(2, 0, 4, (), (one, one, ii, ii))
    assert not equivalent_fine(lam_iiii, pa, pb)


def test_mixed_type_pair_is_equivalent_with_witness(ctx16, lam_iiii):
    """The parameter tuples (2,1,2; i; 1,1) and (2,1,2; 1; i,i) name
    equivalent gradings: an explicit automorphism carries one onto the
    other component by component."""
    one, ii = ctx16.one(), ctx16.i()
    pa = FineTwistedParams(2, 1, 2, (ii,), (one, one))
    pb = FineTwistedParams(2, 1, 2, (one,), (ii, ii))
    assert equivalent_fine(lam_iiii, pa, pb)

    ga = twisted_fine(lam_iiii, pa)
    gb = twisted_fine(lam_iiii, pb)
    a = ga.algebra

    def bv(lbl):
        return a.basis_vect(a.index(lbl))

    def neg(v):
        return tuple(-c for c in v)

    cols = [None] * a.dim
    cols[a.index("u")] = vscale(-ii, bv("u"))
    cols[a.index("z")] = vscale(ii, bv("z"))
    cols[a.index("e1")] = bv("e3")
    cols[a.index("ehat1")] = bv("ehat3")
    cols[a.index("e2")] = bv("e4")
    cols[a.index("ehat2")] = bv("ehat4")
    cols[a.index("e3")] = bv("e1")
    cols[a.index("ehat3")] = neg(bv("ehat1"))
    cols[a.index("e4")] = bv("e2")
    cols[a.index("ehat4")] = neg(bv("ehat2"))
    assert is_automorphism(cols, a)

    images = []
    for g in ga.support:
        img = [mat_apply(cols, v) for v in ga.components[g]]
        hits = [h for h in gb.support
                if all(in_span(list(gb.components[h]), w) for w in img)]
        assert len(hits) == 1
        images.append(hits[0].key())
    assert len(set(images)) == len(ga.support)


# --- recovering block data ------------------------------------------------------

def test_homogenize_u_fixed_point(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    gr = twisted_fine_toral(lam)
    u_new, pairs, z = homogenize_u(gr)
    assert u_new == gr.algebra.basis_vect(0)


def test_homogenize_u_after_transport(ctx16):
    rng = random.Random(17)
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    gr = twisted_fine_toral(lam)
    a = gr.algebra
    for _ in range(5):
        f = random_twisted_automorphism(a, rng)
        moved = transport_grading(gr, f)
        u_new, pairs, z = homogenize_u(moved)
        assert u_new[0] == a.ctx.one()
        # the degree of u' has finite order in the universal group
        _, canon = universal_group(moved)
        deg = next(g for g in canon.support
                   if in_span(list(canon.components[g]), u_new))
        assert deg.order() is not None


def test_decompose_round_trips(ctx16, lam_iiii):
    for p in enumerate_twisted_fine(lam_iiii):
        gr = twisted_fine(lam_iiii, p)
        _, bi, bii, q = decompose_twisted_grading(gr)
        assert (q.l, q.s, q.r) == (p.l, p.s, p.r)
        assert equivalent_fine(lam_iiii, p, q)


def test_decompose_named_gradings(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    _, _, _, q = decompose_twisted_grading(twisted_fine_toral(lam))
    assert (q.l, q.s, q.r) == (1, 2, 0)
    _, _, _, q = decompose_twisted_grading(twisted_fine_nontoral(lam))
    assert (q.l, q.s, q.r) == (2, 0, 2)


def test_enumeration_repeated_and_quarter_turn(ctx16):
    one, ii = ctx16.one(), ctx16.i()
    reps = enumerate_twisted_fine([one, one])
    assert [(p.l, p.s, p.r) for p in reps] == [(1, 2, 0), (2, 0, 2), (2, 1, 0)]
    reps2 = enumerate_twisted_fine([one, ii])
    assert [(p.l, p.s, p.r) for p in reps2] == [(1, 2, 0), (2, 0, 2), (4, 0, 1)]
    # the single type-II block case has universal group Z x Z_4
    gr = twisted_fine([one, ii], reps2[-1])
    assert gr.group == AbGroup(1, (4,))


def test_decompose_coarsenings(ctx16):
    from heisgrad.abelian import group_product
    from heisgrad.gradings import coarsen
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    # merge the toral fine grading along Z^3 -> Z (coordinate sum):
    # components become multi-dimensional but the block data survives
    g2 = twisted_fine_toral(lam)
    target, gens = group_product([0])
    t = gens[0]
    co = coarsen(g2, [t, t, t])
    assert sorted(len(v) for v in co.components.values()) == [3, 3]
    _, _, _, q = decompose_twisted_grading(co)
    assert (q.l, q.s, q.r) == (1, 2, 0)
    # merge the two order-2 coordinates of the nontoral fine grading
    g1 = twisted_fine_nontoral(lam)
    t2, gens2 = group_product([0, 2])
    free, tor = gens2
    co1 = coarsen(g1, [free, tor, tor])
    assert sorted(len(v) for v in co1.components.values()) == [1, 1, 2, 2]
    _, _, _, q = decompose_twisted_grading(co1)
    assert (q.l, q.s, q.r) == (2, 0, 2)


def _synthetic_lambda(l, s, r, beta_bases, alpha_bases):
    from math import lcm
    n = lcm(8, 2 * l)
    ctx = CycloCtx(n)
    xi = ctx.zeta(n // l) if l > 1 else ctx.one()
    lam, betas, alphas = [], [], []
    for b in beta_bases:
        bb = ctx.from_fraction(b)
        betas.append(bb)
        lam += [(xi ** q) * bb for q in range(1, l + 1)]
    for a in alpha_bases:
        av = ctx.from_fraction(a)
        alphas.append(av)
        lam += [(xi ** q) * av for q in range(1, l // 2 + 1)]
    return ctx, lam, FineTwistedParams(l, s, r, tuple(betas), tuple(alphas))


def test_larger_block_orders():
    # block orders beyond the quarter-turn cases: l = 3 and l = 8
    ctx, lam, p = _synthetic_lambda(3, 2, 0, [1, 2], [])
    gr = twisted_fine(lam, p)
    assert verify_grading(gr).ok
    assert gr.group == expected_twisted_group(3, 2, 0)
    _, _, _, q = decompose_twisted_grading(gr)
    assert equivalent_fine(lam, p, q)

    ctx, lam, p = _synthetic_lambda(8, 1, 0, [1], [])
    gr = twisted_fine(lam, p)
    assert verify_grading(gr).ok
    assert gr.group == expected_twisted_group(8, 1, 0)


def test_decompose_transported(ctx16):
    rng = random.Random(23)
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    base = twisted_fine_toral(lam)
    p0 = base.family.params
    for _ in range(3):
        f = random_twisted_automorphism(base.algebra, rng)
        moved = transport_grading(base, f)
        _, _, _, q = decompose_twisted_grading(moved)
        assert equivalent_fine(lam, p0, q)
