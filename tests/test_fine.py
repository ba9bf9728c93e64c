import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import heisgrad._linalg as _linalg
import heisgrad.fine as fine
from heisgrad._linalg import is_zero_vect, kernel, mat_apply, rref, vadd, vscale
from heisgrad.abelian import AbGroup
from heisgrad.cli import auto_conductor, main as cli_main
from heisgrad.fine import (BlockI, BlockII, FineTwistedParams, check_block,
                           decompose_twisted_grading,
                           enumerate_super_fine, enumerate_twisted_fine,
                           equivalent_fine, expected_twisted_group,
                           heisenberg_fine, homogenize_u, primitive_root, rebase_scales_i,
                           rebase_scales_ii, spectrum_check, super_fine,
                           twist, twisted_fine, twisted_fine_classes,
                           twisted_fine_nontoral, twisted_fine_toral)
from heisgrad.gradings import Grading, grading_to_json, universal_group, verify_grading
from heisgrad.liealg import Algebra, heisenberg, heisenberg_super, is_automorphism, twisted
from heisgrad.scalars import CycloCtx, CycloNum, parse_scalar, root_of_unity_order
from heisgrad.weyl import weyl_group

import _helpers
from _helpers import (block_i, block_ii, compose_maps, random_inner_automorphism,
                      random_twisted_automorphism, same_span, transport_grading)
from test_weyl import DISAGREEMENTS


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
    assert universal_group(gr)[0].is_torsion_free()
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
        assert universal_group(gr)[0].is_torsion_free() == (r == 2)


def test_super_fine_torality_for_odd_m():
    # for odd m the maximal-r grading leaves one unpaired odd line and
    # its universal group is still torsion-free, hence toral
    assert universal_group(super_fine(1, 3, 1))[0].is_torsion_free()
    assert not universal_group(super_fine(1, 3, 0))[0].is_torsion_free()


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
    assert universal_group(gr)[0].is_torsion_free()


def test_twisted_fine_nontoral_group(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    gr = twisted_fine_nontoral(lam)
    assert gr.group == AbGroup(1, (2, 2))
    assert not universal_group(gr)[0].is_torsion_free()


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


def _rebased_i(blk: BlockI, new_alpha) -> BlockI:
    swap, xsc, ysc = rebase_scales_i(blk.l, new_alpha / blk.alpha)
    xs, ys = (blk.ys, blk.xs) if swap else (blk.xs, blk.ys)
    return BlockI(blk.l, new_alpha, tuple(map(vscale, xsc, xs)), tuple(map(vscale, ysc, ys)))


def test_block_span_change_classes(ctx16):
    # type I: rescaling by an l-th root (even l) or 2l-th root (odd l)
    # keeps the span; anything else is rejected.  The rebased block, built
    # from the scales, satisfies the block identities at its new scalar
    one, ii = ctx16.one(), ctx16.i()
    lam1 = [one]
    a1 = twisted(lam1)
    u1, z1 = a1.basis_vect(0), a1.basis_vect(a1.dim - 1)
    blk = block_i(a1, 1, one, [(0, False)])
    assert rebase_scales_i(1, -one)[0]  # (-1)^2 = 1: allowed for l = 1, x and y exchanged
    moved = _rebased_i(blk, -one)
    assert same_span(moved.elements(), blk.elements())
    check_block(a1, u1, z1, moved)
    with pytest.raises(ValueError):
        rebase_scales_i(1, ii)  # i^2 != 1

    lam2 = [one, one]
    a2 = twisted(lam2)
    blk2 = block_i(a2, 2, one, [(0, True), (1, False)])
    assert not rebase_scales_i(2, -one)[0]
    moved2 = _rebased_i(blk2, -one)
    assert same_span(moved2.elements(), blk2.elements())
    check_block(a2, a2.basis_vect(0), a2.basis_vect(a2.dim - 1), moved2)
    with pytest.raises(ValueError):
        rebase_scales_i(2, ii)

    blk3 = block_ii(a1, 1, one, [(0, True)])
    moved3 = BlockII(1, -one, tuple(map(vscale, rebase_scales_ii(1, -one), blk3.xs)))
    assert same_span(moved3.elements(), blk3.elements())
    check_block(a1, u1, z1, moved3)
    with pytest.raises(ValueError):
        rebase_scales_ii(1, ctx16.zeta(2))  # primitive 8th root


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
    from heisgrad.fine import ScalarClasses, _extract_blocks
    from heisgrad.scalars import divisors
    reps = enumerate_twisted_fine(lam_iiii)
    k = len(lam_iiii)
    spec = Counter()
    for x in lam_iiii:
        spec[x] += 1
        spec[-x] += 1
    for l in divisors(2 * k):
        try:
            classes = ScalarClasses(lam_iiii, l)
        except ValueError:
            continue
        per = 2 * k // l
        for s in range(per // 2 + 1):
            r = per - 2 * s
            if r and l % 2:
                continue
            for betas, alphas in _extract_blocks(spec, s, r, classes, CycloNum.sort_key):
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
    assert not fine.ScalarClasses(lam_iiii, 2).equivalent(pa, pb)


def test_primitive_root_closed_form():
    # the roots of unity in Q(zeta_N) are the N-th roots for even N and the
    # 2N-th roots for odd N: for odd N, -zeta_N^(N/m) has order 2m
    for n in (3, 5, 15):
        ctx = CycloCtx(n)
        for d in {6, 10, 30, *range(1, 4 * n)}:
            root = primitive_root(ctx, d)
            assert (root and root_of_unity_order(root)) == (d if 2 * n % d == 0 else None), (n, d)
    for n in range(4, 49, 2):
        ctx = CycloCtx(n)
        for d in range(1, 2 * n + 1):
            assert primitive_root(ctx, d) == (ctx.zeta(n // d) if n % d == 0 else None), (n, d)


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
                if same_span(gb.components[h], [*gb.components[h], *img])]
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
                   if same_span(canon.components[g], [*canon.components[g], u_new]))
        assert deg.order() is not None


# lambda draws whose classes take every kind of block order: l = 1, odd
# l > 1 (l = 3 at conductor 24) and even l with type-II blocks
DECOMPOSE_DRAWS = ("zeta(3),zeta(3)^2,1,i*zeta(3),i*zeta(3)^2,i",)


def test_decompose_round_trips(ctx16, lam_iiii):
    shapes = set()
    for lam in (lam_iiii, *map(_lambda, DECOMPOSE_DRAWS)):
        for p in enumerate_twisted_fine(lam):
            gr = twisted_fine(lam, p)
            _, bi, bii, q = decompose_twisted_grading(gr)
            assert (q.l, q.s, q.r) == (p.l, p.s, p.r)
            assert equivalent_fine(lam, p, q)
            shapes.add((p.l, p.s, p.r))
    assert {(1, 6, 0), (3, 2, 0), (2, 0, 4), (4, 0, 2), (12, 0, 1)} <= shapes


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


def test_decompose_finds_a_type_ii_vector_as_a_pair_sum():
    # a Z_2 x Z_4 grading of the twisted algebra with lambda = (1, 1, 1),
    # deg u of order l = 2: the components span(r1, r2) and its phi-image
    # each meet V_1^2 in a reduced basis of vectors x with [x, phi(x)] = 0,
    # though not the sum of the two, so a type-II block starts from that sum
    ctx = CycloCtx(8)  # the type-II vector is scaled by sqrt(1/2)
    a = twisted([ctx.one()] * 3)
    u, z = a.basis_vect(0), a.basis_vect(a.dim - 1)
    phi = lambda v: a.bracket(u, v)
    zero, one = ctx.zero(), ctx.one()
    r1 = (zero, one, zero, zero, one, one, one, zero)  # e1 + ehat2 + e3 + ehat3
    r2 = (zero, zero, one, zero, zero, one, zero, zero)  # ehat1 + e3
    c = (zero, zero, one, zero, one, one, zero, zero)  # ehat1 + ehat2 + e3
    group = AbGroup(0, (2, 4))
    deg = lambda x, y: group.elt((), (x, y))
    gr = Grading(a, group, {deg(0, 0): (z,), deg(0, 2): (u,), deg(0, 1): (r1, r2),
                            deg(0, 3): (phi(r1), phi(r2)), deg(1, 1): (c,), deg(1, 3): (phi(c),)})
    assert verify_grading(gr).ok
    sums = []
    for piece in ([r1, r2], [phi(r1), phi(r2)]):
        basis = rref(piece)[0]
        assert all(is_zero_vect(a.bracket(x, phi(x))) for x in basis)
        assert not is_zero_vect(a.bracket(vadd(*basis), phi(vadd(*basis))))
        sums.append(vadd(*basis))
    _, blocks_i, blocks_ii, q = decompose_twisted_grading(gr)
    assert (q.l, q.s, q.r) == (2, 0, 3)
    assert any(same_span([x], [x, v]) for x in sums for blk in blocks_ii for v in blk.elements())


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


def test_decompose_transported(ctx16, lam_iiii):
    rng = random.Random(23)
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    base = twisted_fine_toral(lam)
    p0 = base.family.params
    for _ in range(3):
        f = random_twisted_automorphism(base.algebra, rng)
        moved = transport_grading(base, f)
        _, _, _, q = decompose_twisted_grading(moved)
        assert equivalent_fine(lam, p0, q)
    # every class of the draws, each moved by its own random automorphism
    for lam in (lam_iiii, *map(_lambda, DECOMPOSE_DRAWS)):
        for p, gr in twisted_fine_classes(lam):
            moved = transport_grading(gr, random_twisted_automorphism(gr.algebra, rng))
            _, _, _, q = decompose_twisted_grading(moved)
            assert equivalent_fine(lam, p, q)


# sha256 of `decompose --format json` on the odd-l and l = 12 classes of the
# DECOMPOSE_DRAWS lambda, each moved by a seeded automorphism, as recorded
# when decompose met every remaining component with V_mu^l afresh each round
DECOMPOSE_DIGESTS = {
    (1, 6, 0): "0b14a5940066309c2d5b2ffb0ed833a2c2cb46527a383ce9bda4cd07da0b4eba",
    (3, 2, 0): "18feb3aaf32b8e8ef4fd63fbeaf90cdf3b9e168353bf9f0a2bea8aa53bead216",
    (12, 0, 1): "6610ed4f51ace7ea16f260e681fc91cef7646290c3005d8b623c4243d1648125",
}


def test_decompose_prints_the_recorded_bytes_on_odd_and_large_block_orders():
    rng = random.Random(33)
    digests = {}
    for p, gr in twisted_fine_classes(_lambda(DECOMPOSE_DRAWS[0])):
        if (p.l, p.s, p.r) in DECOMPOSE_DIGESTS:
            moved = transport_grading(gr, random_twisted_automorphism(gr.algebra, rng))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["decompose", json.dumps(grading_to_json(moved)),
                                 "--format", "json"])
            assert code == 0
            digests[p.l, p.s, p.r] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == DECOMPOSE_DIGESTS


def test_decompose_after_an_inner_automorphism(lam_iiii):
    # exp(ad h), h in the span of the e_i and ehat_i, moves u to
    # u + [h, u] + [h, [h, u]] / 2, so u' has nonzero e_i and ehat_i
    # coordinates: decompose must take the u'-part off each vector and read
    # the eigen-pairs shifted by z (the torus and u-translations leave u' in
    # the span of u and z)
    rng = random.Random(34)
    for lam in (lam_iiii, *map(_lambda, DECOMPOSE_DRAWS)):
        for p, gr in twisted_fine_classes(lam):
            f = random_inner_automorphism(gr.algebra, rng)
            u_new, _, _, q = decompose_twisted_grading(transport_grading(gr, f))
            assert u_new == f[0] and any(u_new[1:-1])
            assert equivalent_fine(lam, p, q)


def _eigenspace(a, u, l, mul):
    """rref of ker(ad(u)^l - mul), from the columns of ad(u)^l."""
    cols = [a.basis_vect(j) for j in range(a.dim)]
    for _ in range(l):
        cols = [a.bracket(u, c) for c in cols]
    rows = [[c[i] - mul if i == j else c[i] for j, c in enumerate(cols)] for i in range(a.dim)]
    return rref(kernel(rows, a.ctx, a.dim))


def test_decompose_pieces_are_the_intersections_with_the_eigenspaces(monkeypatch):
    # decompose projects each component V_g onto the V_mu^l it meets and
    # intersects nothing; each projection it reduces (fine calls rref for the
    # pieces only) must be V_g meet V_mu^l, intersected here the long way,
    # V_mu^l = ker(ad(u')^l - mu^l) as a kernel
    ctx = CycloCtx(8)
    cases = [twisted_fine_nontoral([ctx.from_fraction(i) for i in range(1, 13)])]
    rng = random.Random(35)
    for _, gr in twisted_fine_classes(_lambda(DECOMPOSE_DRAWS[0])):
        a = gr.algebra
        f = compose_maps(random_inner_automorphism(a, rng), random_twisted_automorphism(a, rng))
        cases.append(transport_grading(gr, f))
    intersection, pieces, calls, orders = _linalg.intersection, [], [0], set()

    def counted(*args):
        calls[0] += 1
        return intersection(*args)

    def recorded(rows):
        out = rref(rows)
        pieces.append(tuple(out[0]))
        return out

    for mod in [m for name, m in sys.modules.items() if name.startswith("heisgrad")]:
        for name, value in list(vars(mod).items()):
            if value is intersection:
                monkeypatch.setattr(mod, name, counted)
    monkeypatch.setattr(fine, "rref", recorded)
    for gr in cases:
        pieces.clear()
        u_new, _, _, q = decompose_twisted_grading(gr)
        assert calls[0] == 0
        lam, a = twist(gr.algebra), gr.algebra
        want = []
        for mul in dict.fromkeys(mu ** q.l for x in lam for mu in (x, -x)):
            span = _eigenspace(a, u_new, q.l, mul)
            want += [tuple(m) for g in gr.support
                     if (m := intersection(list(gr.components[g]), span, a.ctx))]
        assert len(pieces) == 2 * len(lam) and Counter(pieces) == Counter(want)
        orders.add(q.l)
    assert orders == {1, 2, 3, 4, 6, 12}, orders


# --- bracket work of the twisted constructor ------------------------------------

def _lambda(text):
    """The parameter vector named by text, at the conductor the CLI picks."""
    entries = text.split(",")
    ctx = CycloCtx(auto_conductor(text, len(entries)))
    return [parse_scalar(e, ctx) for e in entries]


def _count_brackets(monkeypatch):
    calls = [0]
    bracket = Algebra.bracket

    def counted(self, x, y):
        calls[0] += 1
        return bracket(self, x, y)

    monkeypatch.setattr(Algebra, "bracket", counted)
    return calls


def _pairs_bracketed_once(gr):
    """The number of pairs of components in gr's bracket memo, checked to
    hold each unordered pair in one orientation and every pair of
    gr.linked."""
    held = {frozenset(key) for key in gr._brackets}
    assert len(held) == len(gr._brackets)
    slot = [gr._slots[g][0] for g in gr.support]
    assert {frozenset((slot[x], slot[y])) for x, y, _ in gr.linked} <= held
    return len(held)


BRACKET_COUNTS = [  # lambda, and over all its classes the linked and the bracketed pairs
    ("1,zeta(6),zeta(6)^2,zeta(6)^3,zeta(6)^4,zeta(6)^5", 324, 336),
    ("1,i,-1,-i", 140, 144),
    ("1,zeta(3),zeta(3)^2,2,2*zeta(3),2*zeta(3)^2", 132, 144),
]


@pytest.mark.parametrize("text, linked, bracketed", BRACKET_COUNTS,
                         ids=[text for text, _, _ in BRACKET_COUNTS])
def test_each_class_brackets_each_pair_of_its_basis_once(monkeypatch, text, linked, bracketed):
    # the block checks and the universal group share the grading's memo,
    # which holds one orientation of each pair bracketed, diagonal included:
    # the pairs of Grading.linked and the pairs inside a block that the
    # block checks find zero; no other pair of the basis is bracketed
    lam = _lambda(text)
    calls = _count_brackets(monkeypatch)
    built = []
    monkeypatch.setattr(fine, "twisted", lambda lam: built.append(lam) or twisted(lam))
    classes = list(twisted_fine_classes(lam))
    assert len(built) == 1
    assert sum(len(gr.linked) for _, gr in classes) == linked
    assert calls[0] == sum(_pairs_bracketed_once(gr) for _, gr in classes) == bracketed
    for p, _ in classes:
        calls[0] = 0
        gr = twisted_fine(lam, p)
        assert calls[0] == _pairs_bracketed_once(gr)


def _scale_first_y(a, blk):
    two = a.ctx.from_fraction(2)
    return BlockI(blk.l, blk.alpha, blk.xs, (vscale(two, blk.ys[0]),) + blk.ys[1:])


def _swap_first_xs(a, blk):
    xs = (blk.xs[1], blk.xs[0]) + blk.xs[2:]
    if isinstance(blk, BlockI):
        return BlockI(blk.l, blk.alpha, xs, blk.ys)
    return BlockII(blk.l, blk.alpha, xs)


def _shear_xs(a, blk):
    # x_i + x_(i+1) keeps the ad(u) cycle, but the bracket of the first two
    # picks up [x_2, x_3], which pairs into z, where the block needs 0
    xs = blk.xs
    return BlockII(blk.l, blk.alpha, tuple(vadd(x, y) for x, y in zip(xs, xs[1:] + xs[:1])))


@pytest.mark.parametrize("shape, builder, corrupt, message", [
    ((4, 1, 0), "block_i", _scale_first_y, "type-I block: ad(u) fails on y_1"),
    ((4, 1, 0), "block_i", _swap_first_xs, "type-I block: ad(u) fails on x_1"),
    ((4, 0, 2), "block_ii", _swap_first_xs, "type-II block: ad(u) fails on x_1"),
    ((4, 0, 2), "block_ii", _shear_xs, "type-II block: unexpected nonzero bracket"),
], ids=["I-scaled-y", "I-swapped-x", "II-swapped-x", "II-nonzero-x-x"])
def test_block_checks_fire_on_the_memo_path(monkeypatch, ctx16, lam_iiii, shape,
                                            builder, corrupt, message):
    # twisted_fine checks its blocks on the grading's bracket memo, the
    # checked builders of the tests with a.bracket: a corrupted block fails
    # both alike
    one = ctx16.one()
    l, s, r = shape
    p = FineTwistedParams(l, s, r, (one,) * s, (one,) * r)
    original = getattr(fine, "_" + builder)
    calls = []

    def corrupted(a, *args):
        calls.append((a, args))
        return corrupt(a, original(a, *args))

    monkeypatch.setattr(fine, "_" + builder, corrupted)
    with pytest.raises(AssertionError) as memo_path:
        twisted_fine(lam_iiii, p)
    a, args = calls[0]
    with pytest.raises(AssertionError) as bracket_path:
        _helpers.checked(a, getattr(fine, "_" + builder)(a, *args))
    assert str(memo_path.value) == str(bracket_path.value) == message


@pytest.mark.parametrize("text", list(DISAGREEMENTS))
def test_per_lambda_classes_match_twisted_fine(text):
    lam = _lambda(text)
    got = list(twisted_fine_classes(lam))
    want = [(p, twisted_fine(lam, p)) for p in enumerate_twisted_fine(lam)]
    assert [p for p, _ in got] == [p for p, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert (g.group, g.components, g.family) == (w.group, w.components, w.family)


# --- the enumeration against the orbit oracle ----------------------------------

@st.composite
def lambda_texts(draw):
    """1-6 entries c * zeta(m)^j with m <= 12 for the whole list and c a small
    signed integer, drawn from a pool of at most three values so that
    repeats and orbits are likely."""
    m = draw(st.integers(1, 12))
    entry = st.tuples(st.sampled_from((1, -1, 2, -2, 3)), st.integers(0, m - 1))
    pool = draw(st.lists(entry, min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    # a whole coset c * <zeta(m)> now and then
    picks = [(c, (j + t) % m) for t, (c, j) in enumerate(picks)] if draw(st.booleans()) else picks
    return ",".join(f"{c}*zeta({m})^{j}" if j else str(c) for c, j in picks)


@given(lambda_texts())
def test_enumeration_matches_the_orbit_oracle(text):
    # the block orbits of ScalarClasses against orbits walked as powers of
    # their own xi: the spectrum condition on every extracted split and on
    # the first entries of lambda for every shape, the extraction itself (the
    # oracle reaches a split once per order of its choices, so the two are
    # compared as sets of normalized splits) and the enumeration; the
    # per-lambda builder matches the per-class one
    lam = _lambda(text)
    spec = _helpers.spectrum(lam)
    for l, s, r, xi in _helpers.shapes(lam):
        splits = _helpers.extract_blocks(spec, l, s, r, xi, CycloNum.sort_key)
        classes = fine.ScalarClasses(lam, l)
        got = fine._extract_blocks(spec, s, r, classes, CycloNum.sort_key)
        assert ({classes.normalize(FineTwistedParams(l, s, r, *split)) for split in got}
                == {classes.normalize(FineTwistedParams(l, s, r, *split)) for split in splits})
        naive = (tuple(lam[:s]), tuple(lam[j % len(lam)] for j in range(r)))
        for betas, alphas in splits + [naive]:
            p = FineTwistedParams(l, s, r, betas, alphas)
            assert spectrum_check(lam, p) == _helpers.spectrum_check(lam, p)
        # every extracted split passes, so the enumeration does not check them
        assert all(_helpers.spectrum_check(lam, FineTwistedParams(l, s, r, *split))
                   for split in splits)
    reps = enumerate_twisted_fine(lam)
    assert reps == _helpers.enumerate_twisted_fine(lam)
    got = list(twisted_fine_classes(lam))
    assert [p for p, _ in got] == reps
    for p, gr in got:
        want = twisted_fine(lam, p)
        assert (gr.group, gr.components, gr.family) == (want.group, want.components, want.family)


def _all_splits(lam):
    """(classes, split) for every extracted split of every shape of lam."""
    spec = _helpers.spectrum(lam)
    out = []
    for l, s, r, _ in _helpers.shapes(lam):
        classes = fine.ScalarClasses(lam, l)
        out += [(classes, FineTwistedParams(l, s, r, *split))
                for split in fine._extract_blocks(spec, s, r, classes, CycloNum.sort_key)]
    return out


@given(lambda_texts())
def test_extraction_gives_each_multiset_of_orbits_once(text):
    # every orbit is a whole class, so two splits of one shape that differ
    # as multisets of orbits differ after normalize; each split comes out
    # normalized, which the enumeration relies on
    splits = _all_splits(_lambda(text))
    assert all(classes.normalize(p) == p for classes, p in splits)
    assert len({p for _, p in splits}) == len(splits)


@given(lambda_texts(), st.data())
def test_enumeration_key_holds_exactly_for_equivalent_splits(text, data):
    # pairs of splits of any shapes, and each split against a rescaled,
    # reordered copy whose scalars are moved within their classes
    # (equivalent) or with one scalar moved to another spectrum value
    # (mostly not): equal keys exactly when ScalarClasses.equivalent holds
    lam = _lambda(text)
    splits = _all_splits(lam)
    pairs = [(a, b) for a in splits for b in splits][:150]
    values = sorted(set(_helpers.spectrum(lam)), key=lambda v: v.sort_key())
    for classes, p in splits:
        eps = data.draw(st.sampled_from(values)) / data.draw(st.sampled_from(values))

        def moved(xs, side):
            roots = classes.roots[side]
            out = [eps * x * data.draw(st.sampled_from(roots)) for x in xs]
            return tuple(data.draw(st.permutations(out)))

        betas, alphas = moved(p.betas, 0), moved(p.alphas, 1)
        q = FineTwistedParams(p.l, p.s, p.r, betas, alphas)
        assert classes.key(q) == classes.key(p) and classes.equivalent(p, q)
        if data.draw(st.booleans()) and betas:
            betas = (data.draw(st.sampled_from(values)),) + betas[1:]
        elif alphas:
            alphas = alphas[:-1] + (data.draw(st.sampled_from(values)),)
        pairs.append(((classes, p), (classes, FineTwistedParams(p.l, p.s, p.r, betas, alphas))))
    for (cp, p), (cq, q) in pairs:
        same = (p.l, p.s, p.r) == (q.l, q.s, q.r) and cp.equivalent(p, q)
        assert (cp.key(p) == cq.key(q)) == same, (p, q)


@given(lambda_texts())
def test_weyl_closed_form_and_brute_force_match_the_closure(text):
    # every class of a random lambda: the closed form equals the closure,
    # and on supports up to 12 so does the brute force, the one count that
    # does not read the spectrum rotations
    for _, gr in twisted_fine_classes(_lambda(text)):
        rep = weyl_group(gr, brute=len(gr.support) <= 12)
        assert rep.formula_order == rep.group.order
        assert rep.brute_order in (None, rep.group.order)
