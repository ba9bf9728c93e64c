import io
import json
import random
import time
from contextlib import redirect_stdout
from math import factorial, lcm, log2

import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.utilities.iterables import partitions

from heisgrad._linalg import mat_apply, mat_inverse, sparse, vadd, vscale
from heisgrad.abelian import AbGroup
from heisgrad.fine import (FineTwistedParams, ScalarClasses, enumerate_super_fine,
                           enumerate_twisted_fine, equivalent_fine, heisenberg_fine, super_fine,
                           twisted_fine, twisted_fine_nontoral, twisted_fine_toral)
from heisgrad.gradings import Grading
from heisgrad.liealg import Algebra
from heisgrad.scalars import CycloCtx, CycloNum, parse_scalar
from heisgrad.cli import auto_conductor, main
from heisgrad.weyl import (CapExceeded, _landau, _perm_order, _spectrum_rotations,
                           PermGroup, closure, generator_matrix,
                           induced_permutation, perm_cycles,
                           standard_generators, weyl_bruteforce, weyl_group,
                           weyl_order_formula)

import _helpers as oracle
from _helpers import (assert_table_matches_dense, compose_maps, dense_induced_permutation,
                      extendable_permutations, identity_map)


@pytest.fixture(scope="module")
def ctx16():
    return CycloCtx(16)


@pytest.fixture(scope="module")
def lam_iiii(ctx16):
    return [ctx16.one(), ctx16.one(), ctx16.i(), ctx16.i()]


def test_induced_permutation_flip_and_torus():
    gr = heisenberg_fine(1)
    a = gr.algebra
    ident = identity_map(a)
    flip = list(ident)
    flip[0] = a.basis_vect(1)
    flip[1] = vscale(a.ctx.from_fraction(-1), a.basis_vect(0))
    aut = induced_permutation(flip, gr)
    assert sorted(aut.perm) == [0, 1, 2]
    assert aut.perm != (0, 1, 2)  # swaps the e and ehat components
    torus = [vscale(a.ctx.from_fraction(2), ident[0]),
             vscale(a.ctx.from_fraction(3), ident[1]),
             vscale(a.ctx.from_fraction(6), ident[2])]
    assert induced_permutation(torus, gr).perm == (0, 1, 2)


def test_induced_permutation_rejects_non_equivalence():
    gr = heisenberg_fine(1)
    a = gr.algebra
    smear = list(identity_map(a))
    smear[0] = vadd(a.basis_vect(0), a.basis_vect(1))
    smear[1] = a.basis_vect(1)
    with pytest.raises(ValueError):
        induced_permutation(smear, gr)


def test_closure_basics():
    g = closure([(1, 0, 2)])
    assert g.order == 2
    assert closure([], degree=3).order == 1
    with pytest.raises(ValueError, match="need a degree"):
        closure([])
    # degree 0 has no levels and no point to compose on
    empty = closure([], degree=0)
    assert empty.order == 1 and empty.elements == [()] and empty.gens == []
    assert perm_cycles((1, 0, 2)) == "(0 1)"
    assert g.elements == [(0, 1, 2), (1, 0, 2)]


def test_flip_has_matrix_order_4_but_perm_order_2():
    gr = heisenberg_fine(1)
    aut = standard_generators(gr)[-1]
    assert aut.name == "symplectic_flip(1)"
    flip = generator_matrix(gr, aut)
    sq = compose_maps(flip, flip)
    assert sq != identity_map(gr.algebra)
    fourth = compose_maps(sq, sq)
    assert fourth == identity_map(gr.algebra)
    perm = induced_permutation(flip, gr).perm
    deg = len(perm)
    assert tuple(perm[perm[i]] for i in range(deg)) == tuple(range(deg))


def test_flip_commutation_with_pair_swaps():
    gr = heisenberg_fine(2)
    gens = {g.name: generator_matrix(gr, g) for g in standard_generators(gr)}
    swap = gens["pair_swap(1,2)"]
    flip1 = gens["symplectic_flip(1)"]
    # sigma mu_1 = mu_sigma(1) sigma at the permutation level
    a = gr.algebra
    flip2_cols = list(identity_map(a))
    flip2_cols[2] = a.basis_vect(3)
    flip2_cols[3] = vscale(a.ctx.from_fraction(-1), a.basis_vect(2))
    left = induced_permutation(compose_maps(swap, flip1), gr).perm
    right = induced_permutation(compose_maps(flip2_cols, swap), gr).perm
    assert left == right


def test_odd_flip_commutation_with_odd_pair_swap():
    gr = super_fine(0, 4, 2)
    gens = {g.name: generator_matrix(gr, g) for g in standard_generators(gr)}
    swap = gens["odd_pair_swap(1,2)"]
    flip1 = gens["odd_flip(1)"]
    left = induced_permutation(compose_maps(swap, flip1), gr).perm
    # mu'_sigma(1) on the second pair
    a = gr.algebra
    basis_pairs = gr.family.uv
    basis = [v for pair in basis_pairs for v in pair] + [gr.family.z]
    images = list(basis)
    images[2], images[3] = basis[3], basis[2]
    flip2 = [mat_apply(images, col) for col in mat_inverse(basis, a.ctx)]
    right = induced_permutation(compose_maps(flip2, swap), gr).perm
    assert left == right


def test_weyl_heisenberg_orders():
    for k in range(1, 5):
        rep = weyl_group(heisenberg_fine(k))
        assert rep.group.order == 2**k * factorial(k)
        assert rep.agree


def test_weyl_heisenberg_h5_bruteforce():
    gr = heisenberg_fine(2)
    rep = weyl_group(gr, brute=True)
    assert rep.group.order == rep.brute_order == 8


def test_weyl_super_orders():
    # the full family with k + m <= 6
    for k in range(0, 4):
        for m in range(0, 7 - k):
            if k + m == 0:
                continue
            for r in range(m // 2 + 1):
                gr = super_fine(k, m, r)
                rep = weyl_group(gr)
                q = m - 2 * r
                want = 2 ** (r + k) * factorial(k) * factorial(r) * factorial(q)
                assert rep.group.order == want
                assert rep.agree


def test_weyl_generic_twisted(ctx16):
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    rep2 = weyl_group(twisted_fine_toral(lam), brute=True)
    assert rep2.group.order == rep2.formula_order == rep2.brute_order == 2
    rep1 = weyl_group(twisted_fine_nontoral(lam), brute=True)
    assert rep1.group.order == rep1.formula_order == rep1.brute_order == 4


def test_weyl_formula_example_values(ctx16, lam_iiii):
    one, ii = ctx16.one(), ctx16.i()
    g1 = twisted_fine(lam_iiii, FineTwistedParams(2, 0, 4, (), (one, one, ii, ii)))
    assert weyl_order_formula(g1) == 128
    g2 = twisted_fine(lam_iiii, FineTwistedParams(1, 4, 0, (one, one, ii, ii), ()))
    assert weyl_order_formula(g2) == 16
    g3 = twisted_fine(lam_iiii, FineTwistedParams(4, 1, 0, (one,), ()))
    assert weyl_order_formula(g3) == 8


def test_weyl_closures_on_example_classes(ctx16, lam_iiii):
    want = {(1, 4, 0): 16, (2, 0, 4): 128, (2, 1, 2): 32,
            (2, 2, 0): 32, (4, 0, 2): 8, (4, 1, 0): 8}
    for p in enumerate_twisted_fine(lam_iiii):
        rep = weyl_group(twisted_fine(lam_iiii, p))
        assert rep.group.order == want[(p.l, p.s, p.r)]


def test_weyl_dihedral_pattern(ctx16, lam_iiii):
    gr = twisted_fine(lam_iiii, FineTwistedParams(4, 1, 0, (ctx16.one(),), ()))
    rep = weyl_group(gr)
    assert rep.group.order == 8
    assert rep.group.dihedral_pattern()
    assert not rep.group.is_abelian()


def test_single_block_weyl_groups():
    # one type-I block of size l: the rotation and the exchange generate
    # a dihedral group of order 2l
    ctx = CycloCtx(16)
    one = ctx.one()
    lam = [ctx.i(), -one]  # slice for a single type-II block with l' = 2
    a = None
    lamI = [-one, one]  # slice (xi beta, beta) for l = 2, beta = 1
    grI = twisted_fine(lamI, FineTwistedParams(2, 1, 0, (one,), ()))
    repI = weyl_group(grI)
    assert repI.group.order == 2 * 2  # D_2
    grII = twisted_fine(lam, FineTwistedParams(4, 0, 1, (), (one,)))
    repII = weyl_group(grII)
    assert repII.group.order == 2  # the half-period shift only


def test_spectrum_rotation_conjugates_cycles(ctx16):
    # with two same-size blocks exchanged by a spectrum rotation, the
    # rotation conjugates one block rotation into the other
    one, ii = ctx16.one(), ctx16.i()
    lam = [one, one, ii, ii]
    gr = twisted_fine(lam, FineTwistedParams(2, 2, 0, (one, ii), ()))
    gens = {g.name: generator_matrix(gr, g) for g in standard_generators(gr)}
    rotations = [f for name, f in gens.items()
                 if name.startswith("spectrum_rotation")]
    assert rotations
    th1 = gens["cycle_I(1)"]
    th2_perm = induced_permutation(gens["cycle_I(2)"], gr).perm
    hits = 0
    for g in rotations:
        g_inv = mat_inverse(g, gr.algebra.ctx)
        conj = compose_maps(g_inv, compose_maps(th1, g))
        if induced_permutation(conj, gr).perm == th2_perm:
            hits += 1
    assert hits >= 1  # a block-exchanging rotation conjugates the cycles


def test_root_of_unity_ratio_enlarges_weyl_group(ctx16):
    # for lambda = (1, i) the scalar i rotates the block classes, so the
    # Weyl groups of the l = 1 and l = 2 classes hold a rotation factor
    # q = 2 beyond the block symmetries; the closed form counts it and the
    # brute force confirms the closure
    one, ii = ctx16.one(), ctx16.i()
    lam = [one, ii]
    expect = {(1, 2, 0): 4, (2, 0, 2): 8, (4, 0, 1): 2}
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        assert rep.group.order == rep.formula_order == expect[(p.l, p.s, p.r)]
        assert set(bf.elements) == set(rep.group.elements)
        assert rep.agree


def test_repeated_generic_weyl_agrees(ctx16):
    one = ctx16.one()
    lam = [one, one]
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        assert rep.agree
        assert set(bf.elements) == set(rep.group.elements)


def _odd_l_rotation_grading():
    # two l = 3 blocks with scalars 1 and i
    n = lcm(8, 6, 4)
    ctx = CycloCtx(n)
    xi = ctx.zeta(n // 3)
    lam = []
    for base in (ctx.one(), ctx.i()):
        lam += [(xi ** q) * base for q in range(1, 4)]
    return lam, twisted_fine(lam, FineTwistedParams(3, 2, 0, (ctx.one(), ctx.i()), ()))


def test_odd_l_class_rotation_flagged():
    # epsilon = i rotates the scalar classes of an odd-l class: R holds
    # the twelve roots of order dividing 12 modulo the six class roots, so
    # q = 2 doubles the block count 2 * 3^2 and the closed form meets the
    # closure
    _, gr = _odd_l_rotation_grading()
    rotations = _spectrum_rotations(gr.family.classes, gr.family.params)
    assert 1 + len(rotations) == 2 * len(gr.family.classes.roots[0]) == 12
    rep = weyl_group(gr)
    assert rep.formula_order == rep.group.order == 36
    assert rep.agree


def test_flagged_formula_cases_confirmed_by_brute_force(ctx16, lam_iiii):
    # the brute force, the one check independent of the spectrum
    # rotations, confirms the closure and the closed form in two classes
    # where q = 2
    _, gr = _odd_l_rotation_grading()
    assert len(gr.support) == 14
    rep = weyl_group(gr, brute=True, cap=16)
    assert rep.brute_order == 36 == rep.group.order == rep.formula_order
    one, ii = ctx16.one(), ctx16.i()
    gr = twisted_fine(lam_iiii, FineTwistedParams(2, 2, 0, (one, ii), ()))
    rep = weyl_group(gr, brute=True, cap=16)
    assert rep.brute_order == 32 == rep.group.order == rep.formula_order


# Every fine twisted class of these lambda, at the conductor the CLI picks:
# the classes where a closed form that read the class split as a strict
# multiset partition undercounted the rotation factor q, as ((l, s, r),
# closure order, that formula's order), in enumeration order.  Counting q
# from the spectrum rotations themselves closes each gap.  The first 15
# lambda are the survey corpus; the 16th is the lambda of the odd-l
# grading above, whose (3,2,0) class is that grading.  The last three lie
# outside the survey: each has two entries of ratio i, which rotates
# their classes.
DISAGREEMENTS = {
    "1,1,i,i": [((2, 2, 0), 32, 16)],
    "1,1,1": [],
    "1,zeta(3),zeta(3)^2": [],
    "1,i,-1,-i": [((2, 2, 0), 32, 16)],
    "1,1,-1,-1": [],
    "1,2,3,4,5,6": [],
    "1,zeta(3),zeta(3)^2,2,2*zeta(3),2*zeta(3)^2": [],
    "1,i,-1,-i,2,3,5": [],
    "1,1,1,1": [],
    "1,-1,1,-1,2,-2": [],
    "1,zeta(3),zeta(3)^2,1,zeta(3),zeta(3)^2": [],
    "1,zeta(6),zeta(6)^2,zeta(6)^3,zeta(6)^4,zeta(6)^5": [],
    "1,i,1,i,1,i": [((1, 6, 0), 144, 72), ((2, 0, 6), 4608, 2304),
                    ((2, 2, 2), 128, 64)],
    "1,zeta(5),zeta(5)^2,zeta(5)^3,zeta(5)^4": [],
    "1,zeta(8),zeta(8)^2,zeta(8)^3,zeta(8)^4,zeta(8)^5,zeta(8)^6,zeta(8)^7": [
        ((2, 2, 4), 2048, 1024), ((2, 4, 0), 1024, 256), ((4, 0, 4), 128, 64),
        ((4, 2, 0), 128, 64)],
    "zeta(3),zeta(3)^2,1,i*zeta(3),i*zeta(3)^2,i": [
        ((1, 6, 0), 12, 6), ((2, 0, 6), 384, 192), ((3, 2, 0), 36, 18),
        ((6, 0, 2), 8, 4)],
    "1,i": [((1, 2, 0), 4, 2), ((2, 0, 2), 8, 4)],
    "1,-1,i,-i,zeta(8),zeta(8)^3": [((1, 6, 0), 16, 8), ((2, 0, 6), 512, 256),
                                    ((2, 2, 2), 128, 64)],
    "zeta(12)^2,zeta(12)^5": [((1, 2, 0), 4, 2), ((2, 0, 2), 8, 4)],
}


@pytest.mark.parametrize("text", list(DISAGREEMENTS))
def test_closed_form_disagreements_are_pinned(text):
    # the closed form equals the closure on every class; on each formerly
    # undercounted class the closure keeps its order, and brute force,
    # under the default cap, confirms it (the support-18 classes of the
    # zeta_8 orbit have no independent check)
    entries = text.split(",")
    ctx = CycloCtx(auto_conductor(text, len(entries)))
    lam = [parse_scalar(e, ctx) for e in entries]
    # (a shape can name several classes, so each is found by shape and order)
    former = {(shape, order) for shape, order, _ in DISAGREEMENTS[text]}
    met = set()
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        assert rep.agree and rep.group.order == rep.formula_order
        key = ((p.l, p.s, p.r), rep.group.order)
        if key in former:
            met.add(key)
            if len(gr.support) <= 16:
                assert weyl_bruteforce(gr).order == rep.group.order
    assert met == former


@pytest.mark.parametrize("text", list(DISAGREEMENTS))
def test_scalar_classes_match_the_key_oracle(text):
    # the spectrum rotations and the equivalence test read the same classes as the key-by-key oracle on every enumerated class;
    # each class also meets a copy with its scalars moved within their
    # classes by roots of unity and reordered
    entries = text.split(",")
    ctx = CycloCtx(auto_conductor(text, len(entries)))
    lam = [parse_scalar(e, ctx) for e in entries]
    classes = enumerate_twisted_fine(lam)
    copies = []
    for p in classes:
        rotations = _spectrum_rotations(ScalarClasses(lam, p.l), p)
        assert rotations == oracle.spectrum_rotations(lam, p)
        (bm, br), (am, ar) = oracle.scalar_class_data(lam, p.l)
        betas = [b * br ** (j + 1) for j, b in enumerate(p.betas)]
        alphas = [x * ar ** (j + 1) for j, x in enumerate(p.alphas)]
        copies.append(FineTwistedParams(p.l, p.s, p.r, tuple(reversed(betas)),
                                        tuple(reversed(alphas))))
    for p, q in zip(classes, copies):
        assert equivalent_fine(lam, p, q) and equivalent_fine(lam, q, p)
    for p in classes:
        for q in classes + copies:
            assert equivalent_fine(lam, p, q) == oracle.equivalent_fine(lam, p, q)


def test_triple_repeated_lambda_all_checks():
    ctx = CycloCtx(24)
    one = ctx.one()
    lam = [one, one, one]
    expect = {(1, 3, 0): 12, (2, 0, 3): 48, (2, 1, 1): 8}
    seen = set()
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        assert rep.group.order == rep.formula_order == bf.order == expect[(p.l, p.s, p.r)]
        seen.add((p.l, p.s, p.r))
    assert seen == set(expect)


def test_bruteforce_matches_closure_cases(ctx16):
    cases = [heisenberg_fine(1), heisenberg_fine(2)]
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    cases += [twisted_fine_toral(lam), twisted_fine_nontoral(lam)]
    for gr in cases:
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        assert set(bf.elements) == set(rep.group.elements)


def test_bruteforce_on_super_grading():
    # odd components with nonzero self-bracket cannot trade places with
    # hyperbolic ones; the brute force agrees with the closure
    gr = super_fine(0, 3, 1)
    rep = weyl_group(gr)
    bf = weyl_bruteforce(gr)
    assert rep.group.order == bf.order == 2
    gr2 = super_fine(1, 2, 1)
    assert weyl_bruteforce(gr2).order == weyl_group(gr2).group.order == 4


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        weyl_bruteforce(heisenberg_fine(3), cap=3)
    with pytest.raises(CapExceeded):
        weyl_bruteforce(heisenberg_fine(8))  # support 17 > the default 16


def _twisted_classes(text):
    entries = text.split(",")
    ctx = CycloCtx(auto_conductor(text, len(entries)))
    lam = [parse_scalar(e, ctx) for e in entries]
    return [pytest.param(twisted_fine(lam, p), id=f"twisted-{text}-{p.l},{p.s},{p.r}")
            for p in enumerate_twisted_fine(lam)]


def _oracle_cases():
    ctx16, ctx24 = CycloCtx(16), CycloCtx(24)
    one, ii = ctx16.one(), ctx16.i()
    out = [pytest.param(heisenberg_fine(k), id=f"heisenberg-{k}") for k in (1, 2, 3)]
    out += [pytest.param(super_fine(k, m, r), id=f"super-{k},{m}-r{r}")
            for k, m, r in ((1, 2, 0), (1, 2, 1), (2, 1, 0), (1, 3, 1))]
    for name, lam in (("1,1,1", [ctx24.one()] * 3), ("1,1,i,i", [one, one, ii, ii])):
        out += [pytest.param(twisted_fine(lam, p), id=f"twisted-{name}-{p.l},{p.s},{p.r}")
                for p in enumerate_twisted_fine(lam)]
    # in the (6,0,1) class a bracket can target a point placed before it:
    # the placement test must check that the image pair targets its image
    return out + _twisted_classes("1,zeta(3),zeta(3)^2")


@pytest.mark.parametrize("gr", _oracle_cases())
def test_bruteforce_matches_exhaustive_oracle(gr):
    bf = weyl_bruteforce(gr)
    assert bf.elements == extendable_permutations(gr)
    assert bf.leaves_tested <= bf.nodes_visited


def test_bruteforce_makes_no_rref_call(monkeypatch, ctx16, lam_iiii):
    # the point flags (parity, central, derived) are read off the table's
    # bracket pattern, with no echelon form of the center or derived algebra
    import sys
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("heisgrad") and hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref",
                                lambda rows, rref=module.rref: calls.append(rows) or rref(rows))
    grs = [heisenberg_fine(3), super_fine(1, 3, 1),
           twisted_fine(lam_iiii, FineTwistedParams(4, 1, 0, (ctx16.one(),), ()))]
    assert [weyl_bruteforce(gr).order for gr in grs] == [48, 4, 8]
    assert calls == []


@pytest.mark.parametrize("m, order", [(6, 1440), (8, 80640)])
def test_bruteforce_tests_a_few_leaves_per_orbit_point(m, order):
    # |W| extendable permutations, but one tested leaf per generator kept
    bf = weyl_bruteforce(super_fine(1, m, 0))
    assert bf.order == order
    assert bf.leaves_tested <= 18
    assert bf.leaves_tested == len(bf.gens)


def test_closure_subset_of_bruteforce(ctx16, lam_iiii):
    gr = twisted_fine(lam_iiii, FineTwistedParams(4, 1, 0, (ctx16.one(),), ()))
    rep = weyl_group(gr)
    bf = weyl_bruteforce(gr)
    assert set(rep.group.elements) <= set(bf.elements)
    assert bf.order == rep.group.order == 8


# --- the permutation layer against sympy's permutation groups --------------

def _oracle_gradings():
    ctx = CycloCtx(16)
    one, ii = ctx.one(), ctx.i()
    out = [heisenberg_fine(k) for k in range(1, 5)]
    out.append(super_fine(1, 4, 0))
    out.append(twisted_fine([one, one, ii, ii], FineTwistedParams(4, 1, 0, (one,), ())))
    return out


@pytest.fixture(scope="module")
def oracle_groups():
    return [weyl_group(gr).group for gr in _oracle_gradings()]


def test_closure_order_and_abelian_match_sympy(oracle_groups):
    for group in oracle_groups:
        ref = PermutationGroup([Permutation(list(g)) for g in group.gens])
        assert group.order == ref.order()
        assert group.is_abelian() == ref.is_abelian


def test_element_orders_and_cycles_match_sympy(oracle_groups):
    for group in oracle_groups:
        for p in group.elements:
            ref = Permutation(list(p))
            assert _perm_order(p) == ref.order()
            assert perm_cycles(p) == "".join(
                "(" + " ".join(map(str, c)) + ")" for c in ref.cyclic_form) or "()"


def test_perm_cycles_identity_and_fixed_points():
    assert perm_cycles(()) == "()"
    assert perm_cycles((0, 1, 2, 3)) == "()"
    assert perm_cycles((0, 2, 1, 3)) == "(1 2)"
    assert perm_cycles((3, 1, 0, 2, 4)) == "(0 3 2)"
    assert perm_cycles((1, 2, 0, 3, 5, 4)) == "(0 1 2)(4 5)"
    assert _perm_order((0, 1, 2, 3)) == 1
    assert _perm_order((1, 2, 0, 3, 5, 4)) == 6


# --- the stabilizer chain against sympy and a breadth-first reference ------

def _bfs_elements(perms, degree):
    """Every product of the generators, by breadth-first search."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {tuple(g[x] for x in p) for p in frontier for g in perms}
                    if q not in seen]
        seen.update(frontier)
    return seen


@st.composite
def generating_sets(draw):
    degree = draw(st.integers(0, 10))
    perms = draw(st.lists(st.permutations(range(degree)), max_size=4))
    return degree, [tuple(p) for p in perms]


@given(generating_sets())
def test_chain_matches_sympy_and_breadth_first_search(drawn):
    degree, perms = drawn
    group = closure(perms, degree=degree)
    ref = PermutationGroup([Permutation(list(p)) for p in perms] or
                           [Permutation(list(range(degree)))])
    assert group.order == ref.order()
    assert group.is_abelian() == ref.is_abelian
    assert len(group.gens) <= log2(group.order)
    # the same chain grown one add at a time, once with elements read after each
    grown, peeked = PermGroup(degree), PermGroup(degree)
    for p in perms:
        grown.add(p)
        peeked.add(p)
        if peeked.order <= 5040:
            assert len(peeked.elements) == peeked.order
    assert grown.order == peeked.order == group.order
    assert grown.gens == peeked.gens == group.gens
    if group.order <= 5040:  # the breadth-first reference stays cheap
        assert group.elements == sorted(_bfs_elements(perms, degree))
        assert {tuple(p.array_form) for p in ref.generate()} == set(group.elements)
        assert grown.elements == peeked.elements == group.elements


def _cyclic(n):
    return [tuple((i + 1) % n for i in range(n))]


def _dihedral(n):
    return _cyclic(n) + [tuple((-i) % n for i in range(n))]


def _elementary_abelian(k):
    # k disjoint transpositions on 2k points: order 2^k
    return [tuple(i ^ 1 if i // 2 == j else i for i in range(2 * k)) for j in range(k)]


@pytest.mark.parametrize("gens", [
    _cyclic(6), _cyclic(7), _dihedral(5), _dihedral(8), _elementary_abelian(2),
    _elementary_abelian(6), _elementary_abelian(9),
    # S_3 x C_2 = D_6 on five points: order 12 = 2 g(5), with an element of order 6
    [(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)],
    # S_4: order 24 > 2 g(4) = 8
    [(1, 2, 3, 0), (1, 0, 2, 3)],
])
def test_cyclic_index2_matches_an_element_walk(gens):
    group = closure(gens)
    walk = any(Permutation(list(p)).order() * 2 == group.order
               for p in _bfs_elements(gens, group.degree))
    assert group.has_cyclic_index2() == walk
    assert group.dihedral_pattern() == (walk and not group.is_abelian())


def test_cyclic_index2_bound_cases():
    d6 = closure([(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)])
    assert d6.order == 2 * _landau(5) and d6.has_cyclic_index2()
    big = closure(_elementary_abelian(9))
    assert big.order > 2 * _landau(big.degree)
    assert not big.has_cyclic_index2()
    assert "elements" not in vars(big)  # decided by the bound, no element walked


def test_landau_matches_partition_maximum():
    # OEIS A000793, n = 0..20
    oeis = [1, 1, 2, 3, 4, 6, 6, 12, 15, 20, 30, 30, 60, 60, 84, 105, 140,
            210, 210, 420, 420]
    for n in range(21):
        brute = max(lcm(*parts) for parts in
                    (list(p) for p in partitions(n)) if parts) if n else 1
        assert _landau(n) == brute == oeis[n]


def test_heisenberg_10_closure_order():
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        assert main(["weyl", "--heisenberg", "10"]) == 0
    assert time.perf_counter() - start < 10
    text = out.getvalue()
    assert 2 ** 10 * factorial(10) == 3715891200
    assert "  closure order: 3715891200\n" in text
    assert "  formula order: 3715891200\n" in text
    assert "  agreement: yes\n" in text
    assert "  abelian: no; dihedral pattern: no\n" in text


def test_bruteforce_generators_are_few():
    ctx = CycloCtx(16)
    one, ii = ctx.one(), ctx.i()
    for gr in (heisenberg_fine(3), super_fine(1, 4, 0),
               twisted_fine([one, one, ii, ii], FineTwistedParams(4, 1, 0, (one,), ()))):
        bf = weyl_bruteforce(gr)
        assert len(bf.gens) <= log2(bf.order)
        assert PermutationGroup([Permutation(list(g)) for g in bf.gens]).order() == bf.order
        assert closure(bf.gens, degree=len(gr.support)).elements == bf.elements


# --- induced permutations and Grading.table against dense oracles ------------

def _generator_cases():
    out = [pytest.param(heisenberg_fine(k), id=f"heisenberg-{k}") for k in range(1, 5)]
    out += [pytest.param(gr, id=f"super-{k},{m}-r{r}")
            for k, m in ((1, 6), (2, 3), (0, 4)) for r, gr in enumerate_super_fine(k, m)]
    for text in ("1,1,i,i", "1,i,-1,-i", "1,zeta(3),zeta(3)^2"):
        out += _twisted_classes(text)
    return out


@pytest.mark.parametrize("gr", _generator_cases())
def test_induced_permutation_matches_the_dense_oracle(gr):
    # the generators' own (sigma, c) and the reader of their written
    # matrices go through the one monomial check; the dense oracle, with
    # its own scales by line_coeff, shares no code with it
    gens = standard_generators(gr)
    assert gens
    for aut in gens:
        f = generator_matrix(gr, aut)
        oracle_aut, read = dense_induced_permutation(f, gr), induced_permutation(f, gr)
        assert aut.perm == oracle_aut.perm == read.perm, aut.name
        assert aut.scale == oracle_aut.scale == read.scale, aut.name


def _rejected_maps():
    """Maps that are not grading self-equivalences, with their grading."""
    gr = heisenberg_fine(1)
    a = gr.algebra
    ident = identity_map(a)
    smear = list(ident)
    smear[0] = vadd(a.basis_vect(0), a.basis_vect(1))
    # [2e, 3ehat] = 6z, but z goes to z
    torus = [vscale(a.ctx.from_fraction(2), ident[0]),
             vscale(a.ctx.from_fraction(3), ident[1]), ident[2]]
    unsigned_flip = [ident[1], ident[0], ident[2]]
    sgr = super_fine(1, 2, 0)
    swap = list(identity_map(sgr.algebra))  # e1 <-> w1: an even and an odd vector
    swap[0], swap[2] = swap[2], swap[0]
    # on an abelian superalgebra only the parity check can reject the swap
    zero = (a.ctx.zero(),) * 2
    ab = Algebra.from_table(a.ctx, ("x", "y"), (0, 1), ((zero, zero), (zero, zero)))
    z2 = AbGroup(0, (2,))
    agr = Grading(ab, z2, {z2.elt((), (0,)): (ab.basis_vect(0),),
                           z2.elt((), (1,)): (ab.basis_vect(1),)})
    # two even lines of an abelian algebra: only the bijection check can
    # reject sending both onto one
    even = Algebra.from_table(a.ctx, ("x", "y"), (0, 0), ((zero, zero), (zero, zero)))
    egr = Grading(even, z2, {z2.elt((), (0,)): (even.basis_vect(0),),
                             z2.elt((), (1,)): (even.basis_vect(1),)})
    return [pytest.param(gr, smear, id="smear"), pytest.param(gr, torus, id="torus"),
            pytest.param(gr, unsigned_flip, id="unsigned-flip"),
            pytest.param(sgr, swap, id="parity-swap"),
            pytest.param(agr, [ab.basis_vect(1), ab.basis_vect(0)], id="abelian-parity-swap"),
            pytest.param(egr, [even.basis_vect(0)] * 2, id="abelian-collapse"),
            pytest.param(gr, ident[:2], id="wrong-size")]


@pytest.mark.parametrize("gr, f", _rejected_maps())
def test_induced_permutation_and_oracle_reject_the_same_maps(gr, f):
    with pytest.raises(ValueError):
        dense_induced_permutation(f, gr)
    with pytest.raises(ValueError):
        induced_permutation(f, gr)


def test_induced_permutation_requires_one_dimensional_components():
    gr = heisenberg_fine(2)
    triv = AbGroup(0, ())
    coarse = Grading(gr.algebra, triv, {triv.zero(): tuple(
        v for g in gr.support for v in gr.components[g])})
    with pytest.raises(ValueError, match="one-dimensional components"):
        induced_permutation(identity_map(gr.algebra), coarse)


def test_generators_and_formula_need_a_family_record():
    # a grading read from JSON, say, carries no record of its constructor
    gr = heisenberg_fine(2)
    bare = Grading(gr.algebra, gr.group, gr.components)
    with pytest.raises(ValueError, match="fine-grading provenance"):
        standard_generators(bare)
    with pytest.raises(ValueError, match="fine-grading provenance"):
        weyl_order_formula(bare)


def _table_cases():
    ctx16 = CycloCtx(16)
    one, ii = ctx16.one(), ctx16.i()
    two = [one, ctx16.from_fraction(2)]
    out = [heisenberg_fine(k) for k in range(1, 7)]
    out += [super_fine(k, m, r) for k, m, r in
            ((0, 3, 1), (0, 4, 2), (1, 2, 0), (1, 2, 1), (1, 3, 1), (1, 4, 0), (2, 1, 0),
             (4, 4, 0))]
    out += [twisted_fine_toral(two), twisted_fine_nontoral(two), _odd_l_rotation_grading()[1]]
    out += [twisted_fine(lam, p) for lam in ([one, one, ii, ii], [CycloCtx(24).one()] * 3)
            for p in enumerate_twisted_fine(lam)]
    return out


def test_graded_table_matches_dense_brackets():
    for gr in _table_cases():
        assert_table_matches_dense(gr)


def test_sparse_inverse_of_every_table_basis():
    # mat_inverse on the nonzero coordinates of the component basis gives
    # the columns c_j, index ascending, with sum c_j[m] b_m = e_j, the
    # sparse form of the dense call's columns, and gr.table's inverse
    for gr in _table_cases():
        a = gr.algebra
        basis = [v for g in gr.support for v in gr.components[g]]
        inverse = mat_inverse(gr.nonzero_basis, a.ctx)
        assert inverse == [sparse(col) for col in mat_inverse(basis, a.ctx)]
        assert inverse == gr.table.inverse
        for j, col in enumerate(inverse):
            assert list(col) == sorted(col)
            assert mat_apply(basis, a.dense(col.items())) == a.basis_vect(j)


def test_generator_matrices_match_the_dense_product():
    # f = B diag(c) P B^-1: the columns of B are the component vectors, P
    # sends the m-th to the p(m)-th and c scales, as the family's moves
    # say; dense products against the sparse sums of generator_matrix
    from heisgrad.weyl import _GENERATORS
    for gr in _table_cases():
        a = gr.algebra
        basis = [v for g in gr.support for v in gr.components[g]]
        inverse = mat_inverse(basis, a.ctx)
        moves = _GENERATORS[type(gr.family)](a, gr.family)
        gens = standard_generators(gr)
        assert [aut.name for aut in gens] == [name for name, _ in moves]
        for aut, (name, named) in zip(gens, moves):
            perm, scale, q = list(range(len(basis))), [a.ctx.one()] * len(basis), identity_map(a)
            for b, b2, c in named:
                m, p = basis.index(b), basis.index(b2)
                perm[m], scale[m], q[m] = p, c, vscale(c, a.basis_vect(p))
            assert aut.perm == tuple(perm) and aut.scale == tuple(scale), name
            assert generator_matrix(gr, aut) == compose_maps(compose_maps(basis, q), inverse), name


def test_standard_generators_find_equal_copies_by_coordinates():
    # the moves name the family's own vector objects, found by identity; a
    # grading built on equal copies of them is read by nonzero coordinates
    for gr in _table_cases():
        copy = Grading(gr.algebra, gr.group,
                       {g: tuple(tuple(list(v)) for v in vs) for g, vs in gr.components.items()},
                       gr.family)
        assert all(v is not w for g in gr.support
                   for v, w in zip(gr.components[g], copy.components[g]))
        assert ([(aut.name, aut.perm, aut.scale, generator_matrix(copy, aut))
                 for aut in standard_generators(copy)]
                == [(aut.name, aut.perm, aut.scale, generator_matrix(gr, aut))
                    for aut in standard_generators(gr)])


def _count_calls(monkeypatch):
    """Counts of Algebra.bracket, is_automorphism and mat_inverse calls from
    here on."""
    import heisgrad._linalg as linalg
    import heisgrad.gradings as gradings
    import heisgrad.liealg as liealg
    import heisgrad.weyl as weyl
    calls = {"bracket": 0, "is_automorphism": 0, "mat_inverse": 0}
    bracket, is_aut, inverse = Algebra.bracket, liealg.is_automorphism, linalg.mat_inverse

    def counted_inverse(cols, ctx):
        calls["mat_inverse"] += 1
        return inverse(cols, ctx)

    def counted_bracket(self, x, y):
        calls["bracket"] += 1
        return bracket(self, x, y)

    def counted_is_aut(f, a):
        calls["is_automorphism"] += 1
        return is_aut(f, a)

    monkeypatch.setattr(Algebra, "bracket", counted_bracket)
    monkeypatch.setattr(liealg, "is_automorphism", counted_is_aut)
    monkeypatch.setattr(weyl, "is_automorphism", counted_is_aut, raising=False)
    for module in (linalg, gradings, weyl):
        monkeypatch.setattr(module, "mat_inverse", counted_inverse, raising=False)
    return calls


@pytest.mark.parametrize("make", [lambda: heisenberg_fine(6), lambda: super_fine(4, 4, 0)],
                         ids=["heisenberg-6", "super-4,4-r0"])
def test_weyl_group_brackets_each_basis_pair_once(monkeypatch, make):
    gr = make()
    calls = _count_calls(monkeypatch)
    rep = weyl_group(gr)
    assert rep.group.order == rep.formula_order
    n = len(gr.support)
    assert calls["bracket"] <= n * (n + 1) // 2
    assert calls["is_automorphism"] == 0


def test_heisenberg_40_generators_test_few_scalars(monkeypatch):
    # the table maps only nonzero brackets through the sparse inverse, the
    # basis is inverted on its nonzero coordinates, and each generator is
    # (sigma, c) with no matrix written.  The bound is the count at that
    # design (3,519 with a matrix per generator, 34,073 with the dense
    # inversion and a sum for every column)
    gr = heisenberg_fine(40)
    calls = [0]
    truth = CycloNum.__bool__

    def counted(self):
        calls[0] += 1
        return truth(self)

    monkeypatch.setattr(CycloNum, "__bool__", counted)
    gens = standard_generators(gr)
    assert len(gens) == 40 and calls[0] <= 3361, calls[0]


def _class_2_2_0_of_1_1_i_i():
    ctx = CycloCtx(16)
    one, ii = ctx.one(), ctx.i()
    return twisted_fine([one, one, ii, ii], FineTwistedParams(2, 2, 0, (one, ii), ()))


_ONE_TABLE_CASES = pytest.mark.parametrize(
    "make", [lambda: heisenberg_fine(6), lambda: super_fine(4, 4, 0), _class_2_2_0_of_1_1_i_i],
    ids=["heisenberg-6", "super-4,4-r0", "twisted-1,1,i,i-2,2,0"])


@_ONE_TABLE_CASES
def test_weyl_group_inverts_one_matrix_per_grading(monkeypatch, make):
    # the generators are moves between the component vectors: Grading.table
    # inverts that basis once, and every printed matrix is built from it
    gr = make()
    calls = _count_calls(monkeypatch)
    rep = weyl_group(gr)
    assert rep.generators
    assert calls["mat_inverse"] == 1


def _count_matrix_writes(monkeypatch):
    """Counts of generator_matrix calls (as heisgrad.weyl and heisgrad.cli
    see it), of sparse_apply as heisgrad.weyl sees it and of Algebra.dense
    from here on."""
    import heisgrad.cli as cli
    import heisgrad.weyl as weyl
    calls = {"generator_matrix": 0, "sparse_apply": 0, "dense": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    write = counted("generator_matrix", weyl.generator_matrix)
    for module in (weyl, cli):
        monkeypatch.setattr(module, "generator_matrix", write)
    monkeypatch.setattr(weyl, "sparse_apply", counted("sparse_apply", weyl.sparse_apply))
    monkeypatch.setattr(Algebra, "dense", counted("dense", Algebra.dense))
    return calls


@_ONE_TABLE_CASES
def test_weyl_group_writes_no_matrix(monkeypatch, make):
    # the generators are (sigma, c) on the table basis; closure, the closed
    # form and the agreement flag read no matrix, so none is written
    gr = make()
    calls = _count_matrix_writes(monkeypatch)
    rep = weyl_group(gr)
    assert rep.generators
    assert calls == {"generator_matrix": 0, "sparse_apply": 0, "dense": 0}


@pytest.mark.parametrize("argv", [["--twisted", "1,i"], ["--super", "1,2", "--format", "json"]],
                         ids=["twisted-1,i-text", "super-1,2-json"])
def test_weyl_cli_writes_one_matrix_per_printed_generator(monkeypatch, argv):
    calls = _count_matrix_writes(monkeypatch)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["weyl", *argv]) == 0
    text = out.getvalue()
    if "--format" in argv:
        printed = sum(len(g["generators"]) for g in json.loads(text)["gradings"])
    else:
        printed = text.count("\n  generator ")
    assert printed > 0 and calls["generator_matrix"] == printed


def test_brute_force_brackets_no_more_than_the_closure(monkeypatch, ctx16, lam_iiii):
    calls = _count_calls(monkeypatch)
    p = FineTwistedParams(2, 2, 0, (ctx16.one(), ctx16.i()), ())
    weyl_group(twisted_fine(lam_iiii, p))
    closure_calls = calls["bracket"]
    calls["bracket"] = 0
    assert weyl_group(twisted_fine(lam_iiii, p), brute=True).brute_order == 32
    assert 0 < calls["bracket"] <= closure_calls
    assert calls["is_automorphism"] == 0
