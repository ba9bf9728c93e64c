"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Criteria are asserted exactly as stated, at the stated time
bounds."""

import random
import time
from fractions import Fraction
from math import factorial, lcm

import pytest

from heisgrad._linalg import rref
from heisgrad.abelian import AbGroup, smith_normal_form
from heisgrad.fine import (FineTwistedParams, decompose_twisted_grading, enumerate_super_fine,
                           enumerate_twisted_fine, equivalent_fine,
                           expected_twisted_group, heisenberg_fine,
                           primitive_root, super_fine, twisted_fine,
                           twisted_fine_nontoral, twisted_fine_toral)
from heisgrad.gradings import (PairedDecomposition, darboux_homogeneous_basis,
                               homogeneous_orthogonal_basis,
                               homogeneous_symplectic_basis, universal_group,
                               verify_grading)
from heisgrad.liealg import center, heisenberg, heisenberg_super, twisted, verify_axioms
from heisgrad.scalars import CycloCtx, sqrt_int
from heisgrad.weyl import weyl_bruteforce, weyl_group

from _helpers import (block_i, block_ii, random_heisenberg_automorphism,
                      random_twisted_automorphism, transport_grading)


def announce(number: int, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE CRITERION {number}: {state}{suffix}")


@pytest.fixture(scope="module")
def ctx16():
    return CycloCtx(16)


@pytest.fixture(scope="module")
def lam_iiii(ctx16):
    return [ctx16.one(), ctx16.one(), ctx16.i(), ctx16.i()]


def test_criterion_1_enumeration(ctx16, lam_iiii):
    """Exactly 6 equivalence classes on lambda = (1,1,i,i) with pairwise
    non-isomorphic universal groups, and l = 8 rejected, in under 10
    seconds.

    The classical list has seven parameter tuples, but the two (2,1,2)
    tuples (2,1,2; i; 1,1) and (2,1,2; 1; i,i) name equivalent gradings:
    test_fine exhibits an automorphism carrying one onto the other
    component by component.  Both must fall into one class here.
    """
    t0 = time.monotonic()
    reps = enumerate_twisted_fine(lam_iiii)
    groups = sorted(str(twisted_fine(lam_iiii, p).group) for p in reps)
    elapsed = time.monotonic() - t0
    rejects_8 = all(p.l != 8 for p in reps)
    want_groups = sorted([
        "Z^5", "Z x Z_2 x Z_2 x Z_2 x Z_2", "Z^2 x Z_2 x Z_2",
        "Z^3 x Z_2", "Z x Z_2 x Z_4", "Z^2 x Z_4"])
    one, ii = ctx16.one(), ctx16.i()
    pair = (FineTwistedParams(2, 1, 2, (ii,), (one, one)),
            FineTwistedParams(2, 1, 2, (one,), (ii, ii)))
    classes = [[r for r in reps if equivalent_fine(lam_iiii, p, r)]
               for p in pair]
    pair_merged = len(classes[0]) == 1 and classes[0] == classes[1]
    ok = (len(reps) == 6 and groups == want_groups and pair_merged
          and rejects_8 and elapsed < 10)
    announce(1, ok, f"{len(reps)} classes in {elapsed:.2f}s; "
                    f"(2,1,2) pair in one class: {pair_merged}; "
                    f"l=8 rejected: {rejects_8}")
    assert rejects_8
    assert elapsed < 10
    assert len(reps) == 6
    assert groups == want_groups
    assert pair_merged


def test_criterion_2_generic_twisted(ctx16):
    t0 = time.monotonic()
    ok = True
    for entries in ([1, 2], [1, 3, 9]):
        lam = [ctx16.from_fraction(e) for e in entries]
        k = len(lam)
        reps = enumerate_twisted_fine(lam)
        shapes = sorted((p.l, p.s, p.r) for p in reps)
        ok &= shapes == sorted([(1, k, 0), (2, 0, k)])
        rep2 = weyl_group(twisted_fine_toral(lam))
        rep1 = weyl_group(twisted_fine_nontoral(lam))
        ok &= rep2.group.order == 2
        ok &= rep1.group.order == 2**k
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5
    announce(2, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_heisenberg(ctx16):
    t0 = time.monotonic()
    rng = random.Random(123)
    ok = True
    for k in range(1, 5):
        gr = heisenberg_fine(k)
        ok &= verify_grading(gr).ok
        ok &= gr.group == AbGroup(k + 1, ())
        rep = weyl_group(gr)
        ok &= rep.group.order == 2**k * factorial(k)
        for _ in range(2):
            f = random_heisenberg_automorphism(gr.algebra, rng)
            moved = transport_grading(gr, f)
            ok &= verify_grading(moved).ok
            group, _ = universal_group(moved)
            ok &= group == AbGroup(k + 1, ())
            basis = darboux_homogeneous_basis(moved)  # raises on failure
            ok &= len(basis) == 2 * k + 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    announce(3, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_4_superalgebra():
    t0 = time.monotonic()
    ok = True
    for (k, m) in ((1, 2), (1, 3), (2, 4)):
        items = enumerate_super_fine(k, m)
        ok &= len(items) == m // 2 + 1
        for r, gr in items:
            ok &= verify_grading(gr).ok
            rep = weyl_group(gr)
            want = 2 ** (r + k) * factorial(k) * factorial(r) * factorial(m - 2 * r)
            ok &= rep.group.order == want
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    announce(4, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_5_universal_groups(ctx16, lam_iiii):
    ok = True
    for entries in (None, [1, 2], [1, 3, 9]):
        lam = lam_iiii if entries is None else [ctx16.from_fraction(e)
                                                for e in entries]
        for p in enumerate_twisted_fine(lam):
            gr = twisted_fine(lam, p)
            ok &= gr.group == expected_twisted_group(p.l, p.s, p.r)
    announce(5, ok)
    assert ok


def test_criterion_6_weyl_cross_check(ctx16, lam_iiii):
    t0 = time.monotonic()
    one, ii = ctx16.one(), ctx16.i()
    rep2 = weyl_group(twisted_fine_toral(lam_iiii))
    rep1 = weyl_group(twisted_fine_nontoral(lam_iiii))
    ok = rep2.group.order == 16 and rep1.group.order == 128
    g410 = twisted_fine(lam_iiii, FineTwistedParams(4, 1, 0, (one,), ()))
    rep410 = weyl_group(g410)
    ok &= rep410.group.order == 8 and rep410.group.dihedral_pattern()
    # the remaining classes: closure, formula and brute-force side by side;
    # acceptance is the internal consistency of closure vs brute force
    print("  remaining classes: closure / formula / brute")
    for p in enumerate_twisted_fine(lam_iiii):
        if (p.l, p.s, p.r) in ((1, 4, 0), (2, 0, 4), (4, 1, 0)):
            continue
        gr = twisted_fine(lam_iiii, p)
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        print(f"  (l,s,r)=({p.l},{p.s},{p.r}): {rep.group.order} / "
              f"{rep.formula_order} / {bf.order}"
              + ("" if rep.agree else "  [formula flagged]"))
        ok &= set(bf.elements) == set(rep.group.elements)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    announce(6, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_7_oracle_equivalence(ctx16):
    t0 = time.monotonic()
    lam = [ctx16.one(), ctx16.from_fraction(2)]
    cases = [heisenberg_fine(1), heisenberg_fine(2),
             twisted_fine_toral(lam), twisted_fine_nontoral(lam)]
    ok = True
    for gr in cases:
        rep = weyl_group(gr)
        bf = weyl_bruteforce(gr)
        ok &= set(bf.elements) == set(rep.group.elements)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    announce(7, ok, f"{elapsed:.2f}s")
    assert ok


def _random_scramble(rng, pieces, ctx):
    out = []
    for piece in pieces:
        n = len(piece)
        while True:
            rows = []
            for _ in range(n):
                row = tuple(ctx.from_fraction(rng.randint(-3, 3))
                            for _ in range(len(piece[0])))
                rows.append(row)
            new = []
            for row in rows:
                acc = tuple(ctx.zero() for _ in piece[0])
                for c, v in zip(row, piece):
                    acc = tuple(a + c * b for a, b in zip(acc, v))
                new.append(acc)
            if len(rref(new)[0]) == n:
                out.append(new)
                break
    rng.shuffle(out)
    return out


def test_criterion_8_property_suites(ctx16):
    t0 = time.monotonic()
    ok = True

    # constructors pass axiom verification across a randomized sweep
    for seed in range(100):
        rng = random.Random(seed)
        choice = rng.randrange(3)
        if choice == 0:
            a = heisenberg(rng.randint(1, 3))
        elif choice == 1:
            a = heisenberg_super(rng.randint(0, 2), rng.randint(0, 3) or 1)
        else:
            pool = [ctx16.from_fraction(rng.randint(1, 4)),
                    ctx16.i() * rng.randint(1, 3),
                    -ctx16.from_fraction(rng.randint(1, 3))]
            a = twisted([rng.choice(pool) for _ in range(rng.randint(1, 2))])
        ok &= verify_axioms(a).ok
        ok &= len(center(a)) == 1

    # exact square roots
    for l in range(1, 31):
        c = CycloCtx(4 * l)
        ok &= sqrt_int(l, c) ** 2 == c.from_fraction(l)

    # Smith normal form identity on 500 random matrices
    rng = random.Random(88)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        prod = [[sum(u[i][t] * mat[t][j] for t in range(rows))
                 for j in range(cols)] for i in range(rows)]
        prod = [[sum(prod[i][t] * v[t][j] for t in range(cols))
                 for j in range(cols)] for i in range(rows)]
        ok &= prod == d

    # homogeneous-basis algorithms on scrambled instances
    ctx1 = CycloCtx(1)
    one, zero = ctx1.one(), ctx1.zero()

    def unit(n, i):
        return tuple(one if j == i else zero for j in range(n))

    sympl_form = []
    for i in range(6):
        row = [zero] * 6
        if i % 2 == 0:
            row[i + 1] = one
        else:
            row[i - 1] = -one
        sympl_form.append(tuple(row))
    sympl_pieces = [[unit(6, 0), unit(6, 1)], [unit(6, 2)], [unit(6, 3)],
                    [unit(6, 4)], [unit(6, 5)]]
    rng = random.Random(314)
    for _ in range(100):
        d = PairedDecomposition(sympl_form,
                                _random_scramble(rng, sympl_pieces, ctx1),
                                "alternating")
        homogeneous_symplectic_basis(d)  # verifies its own output

    orth_form = []
    entries = {(0, 0): one, (1, 1): one, (2, 3): one, (3, 2): one, (4, 4): one}
    for i in range(5):
        orth_form.append(tuple(entries.get((i, j), zero) for j in range(5)))
    orth_pieces = [[unit(5, 0), unit(5, 1)], [unit(5, 2)], [unit(5, 3)],
                   [unit(5, 4)]]
    for _ in range(100):
        d = PairedDecomposition(orth_form,
                                _random_scramble(rng, orth_pieces, ctx1),
                                "symmetric")
        homogeneous_orthogonal_basis(d)  # verifies its own output

    # block relation verifiers for l <= 4 and sampled scalars
    for l in range(1, 5):
        n = lcm(8, 4 * l)
        c = CycloCtx(n)
        xi = primitive_root(c, l)
        for alpha in (c.one(), c.from_fraction(2), c.i()):
            lam = [(xi ** q) * alpha for q in range(1, l + 1)]
            a = twisted(lam)
            block_i(a, l, alpha, [(q, False) for q in range(l)])
        zeta = primitive_root(c, 2 * l)
        for alpha in (c.one(), c.from_fraction(3)):
            lam = [(zeta ** q) * alpha for q in range(1, l + 1)]
            a = twisted(lam)
            block_ii(a, l, alpha, [(q, False) for q in range(l)])

    elapsed = time.monotonic() - t0
    announce(8, ok, f"{elapsed:.2f}s")
    assert ok
