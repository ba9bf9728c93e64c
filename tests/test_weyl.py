import io
import random
import time
from contextlib import redirect_stdout
from math import factorial, lcm, log2

import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.utilities.iterables import partitions

from heisgrad._linalg import vadd, vscale
from heisgrad.fine import (FineTwistedParams, enumerate_twisted_fine,
                           heisenberg_fine, super_fine, twisted_fine,
                           twisted_fine_nontoral, twisted_fine_toral)
from heisgrad.liealg import compose_maps, identity_map
from heisgrad.scalars import CycloCtx
from heisgrad.cli import main
from heisgrad.weyl import (CapExceeded, _landau, _perm_order, closure, compute_pq,
                           induced_permutation, perm_cycles,
                           standard_generators, weyl_bruteforce, weyl_group,
                           weyl_order_formula)


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
    assert perm_cycles((1, 0, 2)) == "(0 1)"
    assert g.elements == [(0, 1, 2), (1, 0, 2)]


def test_flip_has_matrix_order_4_but_perm_order_2():
    gr = heisenberg_fine(1)
    name, flip = standard_generators(gr)[-1]
    assert name == "symplectic_flip(1)"
    sq = compose_maps(flip, flip)
    assert sq != identity_map(gr.algebra)
    fourth = compose_maps(sq, sq)
    assert fourth == identity_map(gr.algebra)
    perm = induced_permutation(flip, gr).perm
    deg = len(perm)
    assert tuple(perm[perm[i]] for i in range(deg)) == tuple(range(deg))


def test_flip_commutation_with_pair_swaps():
    gr = heisenberg_fine(2)
    gens = dict(standard_generators(gr))
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
    gens = dict(standard_generators(gr))
    swap = gens["odd_pair_swap(1,2)"]
    flip1 = gens["odd_flip(1)"]
    left = induced_permutation(compose_maps(swap, flip1), gr).perm
    # mu'_sigma(1) on the second pair
    a = gr.algebra
    basis_pairs = gr.family.uv
    from heisgrad.weyl import _map_from_basis_images
    basis = [v for pair in basis_pairs for v in pair] + [gr.family.z]
    images = list(basis)
    images[2], images[3] = basis[3], basis[2]
    [flip2] = _map_from_basis_images(a, basis, [images])
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


def test_compute_pq_examples(ctx16, lam_iiii):
    one, ii = ctx16.one(), ctx16.i()
    pq = compute_pq(lam_iiii, FineTwistedParams(1, 4, 0, (one, one, ii, ii), ()))
    assert (pq.p, pq.q) == (4, 2)
    pq = compute_pq(lam_iiii, FineTwistedParams(2, 0, 4, (), (one, one, ii, ii)))
    assert (pq.p, pq.q) == (4, 2)
    lam12 = [one, ctx16.from_fraction(2)]
    pq = compute_pq(lam12, FineTwistedParams(1, 2, 0, (one, ctx16.from_fraction(2)), ()))
    assert (pq.p, pq.q) == (1, 1)


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
    from heisgrad._linalg import mat_inverse
    gens = {name: f for name, f in standard_generators(gr)}
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
    # real Weyl groups are twice the closed-form count (which reads the
    # class split as a strict multiset partition); the brute force
    # confirms the closure
    one, ii = ctx16.one(), ctx16.i()
    lam = [one, ii]
    expect = {(1, 2, 0): (4, 2), (2, 0, 2): (8, 4), (4, 0, 1): (2, 2)}
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        closure_order, formula_order = expect[(p.l, p.s, p.r)]
        assert rep.group.order == closure_order
        assert rep.formula_order == formula_order
        assert set(bf.elements) == set(rep.group.elements)
        assert rep.agree == (closure_order == formula_order)


def test_repeated_generic_weyl_agrees(ctx16):
    one = ctx16.one()
    lam = [one, one]
    for p in enumerate_twisted_fine(lam):
        gr = twisted_fine(lam, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        assert rep.agree
        assert set(bf.elements) == set(rep.group.elements)


def test_odd_l_class_rotation_flagged():
    # two l = 3 blocks with scalars 1 and i: epsilon = i rotates the
    # scalar classes, so the closure is twice the closed-form count
    # (the strict multiset split sees p = q = 1); the disagreement is
    # reported, with the closure as ground truth
    from math import lcm
    n = lcm(8, 6, 4)
    ctx = CycloCtx(n)
    xi = ctx.zeta(n // 3)
    lam = []
    for base in (ctx.one(), ctx.i()):
        lam += [(xi ** q) * base for q in range(1, 4)]
    gr = twisted_fine(lam, FineTwistedParams(3, 2, 0, (ctx.one(), ctx.i()), ()))
    pq = compute_pq(lam, gr.family.params)
    assert (pq.p, pq.q) == (1, 1)
    rep = weyl_group(gr)
    assert rep.formula_order == 18
    assert rep.group.order == 36
    assert not rep.agree


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
    degree = draw(st.integers(1, 9))
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
    if group.order <= 5040:  # the breadth-first reference stays cheap
        assert group.elements == sorted(_bfs_elements(perms, degree))
        assert {tuple(p.array_form) for p in ref.generate()} == set(group.elements)


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
