import random
from fractions import Fraction

import pytest

from heisgrad._linalg import mat_apply, vscale
from heisgrad.liealg import (algebra_from_json, algebra_to_json, center,
                             compose_maps, derived, heisenberg,
                             heisenberg_super, identity_map, is_automorphism,
                             similitude_factor, twisted, verify_axioms)
from heisgrad.scalars import CycloCtx

from _helpers import (random_heisenberg_automorphism,
                      random_super_automorphism, random_twisted_automorphism)


def test_heisenberg_h3():
    a = heisenberg(1)
    e, eh, z = (a.basis_vect(i) for i in range(3))
    assert a.bracket(e, eh) == z
    assert a.bracket(eh, e) == vscale(a.ctx.from_fraction(-1), z)
    assert verify_axioms(a).ok
    assert center(a) == [z]
    assert derived(a) == [z]


def test_heisenberg_h5_two_step_nilpotent():
    a = heisenberg(2)
    assert derived(a) == [a.basis_vect(4)]
    z = a.basis_vect(4)
    for i in range(a.dim):
        assert a.bracket(z, a.basis_vect(i)) == a.zero_vect()


def test_super_h11():
    a = heisenberg_super(0, 1)
    w, z = a.basis_vect(0), a.basis_vect(1)
    assert a.bracket(w, w) == z
    assert verify_axioms(a).ok
    assert center(a) == [z]


def test_super_axioms_and_center():
    a = heisenberg_super(1, 2)
    assert verify_axioms(a).ok
    assert len(center(a)) == 1


def test_twisted_relations():
    ctx = CycloCtx(4)
    a = twisted([ctx.one()])
    u, e, eh, z = (a.basis_vect(i) for i in range(4))
    assert a.bracket(e, eh) == z
    assert a.bracket(u, e) == eh
    assert a.bracket(u, eh) == e
    assert verify_axioms(a).ok


def test_twisted_derived_is_heisenberg():
    ctx = CycloCtx(4)
    a = twisted([ctx.one(), ctx.from_fraction(2)])
    der = derived(a)
    assert len(der) == 2 * 2 + 1
    # all derived vectors have zero u-coordinate
    assert all(not v[0] for v in der)


def test_twisted_center_with_i():
    ctx = CycloCtx(4)
    a = twisted([ctx.one(), ctx.i()])
    assert center(a) == [a.basis_vect(a.dim - 1)]


def test_perturbed_table_fails_jacobi():
    # set [e1, e2] = e1 (with its skew partner) so skew-symmetry still
    # holds but the triple (ehat1, e1, e2) violates the Jacobi identity
    a = heisenberg(2)
    table = [list(row) for row in a.table]
    e1 = a.basis_vect(0)
    table[0][2] = e1
    table[2][0] = vscale(a.ctx.from_fraction(-1), e1)
    from heisgrad.liealg import Algebra
    bad = Algebra(a.ctx, a.labels, a.parity, tuple(tuple(r) for r in table))
    report = verify_axioms(bad)
    assert not report.ok
    assert any(f.startswith("jacobi") for f in report.failures)


def test_is_automorphism_identity_and_torus():
    a = heisenberg(2)
    f = identity_map(a)
    assert is_automorphism(f, a)
    assert similitude_factor(f, a) == a.ctx.one()
    # diagonal torus element t_(l1, l2; l)
    lam = a.ctx.from_fraction(Fraction(3, 2))
    l1 = a.ctx.from_fraction(2)
    l2 = a.ctx.from_fraction(Fraction(-1, 3))
    cols = [vscale(l1, a.basis_vect(0)), vscale(lam / l1, a.basis_vect(1)),
            vscale(l2, a.basis_vect(2)), vscale(lam / l2, a.basis_vect(3)),
            vscale(lam, a.basis_vect(4))]
    assert is_automorphism(cols, a)
    assert similitude_factor(cols, a) == lam


def test_plain_swap_is_not_automorphism():
    a = heisenberg(1)
    cols = [a.basis_vect(1), a.basis_vect(0), a.basis_vect(2)]
    assert not is_automorphism(cols, a)


def test_singular_map_is_not_automorphism():
    a = heisenberg(1)
    cols = [a.basis_vect(0), a.basis_vect(0), a.basis_vect(2)]
    assert not is_automorphism(cols, a)


def test_parity_violating_map_rejected():
    a = heisenberg_super(1, 1)
    cols = identity_map(a)
    cols[2] = a.basis_vect(0)  # sends an odd vector to an even one
    assert not is_automorphism(cols, a)


def test_similitude_factor_is_multiplicative():
    rng = random.Random(11)
    a = heisenberg(2)
    for _ in range(5):
        f = random_heisenberg_automorphism(a, rng)
        g = random_heisenberg_automorphism(a, rng)
        fg = compose_maps(f, g)
        assert is_automorphism(fg, a)
        assert (similitude_factor(fg, a)
                == similitude_factor(f, a) * similitude_factor(g, a))


def test_random_automorphism_helpers():
    rng = random.Random(5)
    a = heisenberg_super(1, 3)
    for _ in range(5):
        random_super_automorphism(a, rng)
    ctx = CycloCtx(8)
    t = twisted([ctx.one(), ctx.from_fraction(3)])
    for _ in range(5):
        random_twisted_automorphism(t, rng)


def test_json_roundtrip_families():
    for a in (heisenberg(2), heisenberg_super(1, 2),
              twisted([CycloCtx(4).one()])):
        spec = algebra_to_json(a)
        b = algebra_from_json(spec)
        assert b.labels == a.labels
        assert b.table == a.table


def test_json_color_kind():
    spec = {
        "kind": "color",
        "conductor": 12,
        "type": {
            "group": {"rank": 0, "torsion": [2]},
            "g0": {"free": [], "torsion": [0]},
            "epsilon": [["-1"]],
            "dims": [
                {"degree": {"free": [], "torsion": [0]}, "dim": 1},
                {"degree": {"free": [], "torsion": [1]}, "dim": 2},
            ],
        },
    }
    a = algebra_from_json(spec)
    assert a.dim == 3
    assert len(center(a)) == 1


def test_json_custom_verified_on_load():
    a = heisenberg(1)
    spec = algebra_to_json(a)
    spec = {
        "kind": "custom",
        "conductor": 1,
        "labels": list(a.labels),
        "parity": list(a.parity),
        "table": [[["0", "0", "1" if (i, j) == (0, 1) else "0"]
                   for j in range(3)] for i in range(3)],
    }
    # [e1, ehat1] = z but [ehat1, e1] = 0 is not skew-symmetric
    with pytest.raises(ValueError):
        algebra_from_json(spec)


# --- the sparse bracket against a dense reference ---------------------------

def dense_bracket(a, u, v):
    """[u, v] summed over the whole dense structure-constant table."""
    out = [a.ctx.zero()] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                out[k] = out[k] + u[i] * v[j] * a.table[i][j][k]
    return tuple(out)


def dense_is_automorphism(f, a):
    """is_automorphism written over the dense table."""
    from heisgrad._linalg import mat_inverse
    if len(f) != a.dim or mat_inverse(f, a.ctx) is None:
        return False
    if any(c and a.parity[i] != a.parity[j]
           for j in range(a.dim) for i, c in enumerate(f[j])):
        return False
    return all(mat_apply(f, a.table[i][j]) == dense_bracket(a, f[i], f[j])
               for i in range(a.dim) for j in range(a.dim))


def _perturbed_heisenberg():
    a = heisenberg(2)
    table = [list(row) for row in a.table]
    table[0][2] = a.basis_vect(0)
    table[2][0] = vscale(a.ctx.from_fraction(-1), a.basis_vect(0))
    from heisgrad.liealg import Algebra
    return Algebra(a.ctx, a.labels, a.parity, tuple(tuple(r) for r in table))


def _moved(a, rng):
    """a in the basis given by the columns of a random unitriangular matrix,
    so that most structure constants are nonzero."""
    from heisgrad._linalg import mat_inverse
    from heisgrad.liealg import Algebra
    cols = [tuple(a.ctx.one() if r == c else
                  a.ctx.from_fraction(rng.randint(-2, 2)) if r < c else a.ctx.zero()
                  for r in range(a.dim)) for c in range(a.dim)]
    back = mat_inverse(cols, a.ctx)
    table = tuple(tuple(mat_apply(back, a.bracket(cols[i], cols[j]))
                        for j in range(a.dim)) for i in range(a.dim))
    return Algebra(a.ctx, a.labels, a.parity, table)


def _sample_algebras():
    from heisgrad.abelian import AbGroup
    from heisgrad.color import Bicharacter, ColorType, color_algebra
    ctx4, ctx12 = CycloCtx(4), CycloCtx(12)
    grp = AbGroup(2, ())
    z3 = ctx12.zeta(4)
    eps = Bicharacter(grp, [[ctx12.one(), z3], [z3.inv(), ctx12.one()]])
    e1, e2 = grp.elt((1, 0), ()), grp.elt((0, 1), ())
    color, _ = color_algebra(ColorType(grp, grp.zero(), eps, {
        grp.zero(): 1, e1: 1, -e1: 1, e2: 1, -e2: 1}), ctx12)
    sl2 = algebra_from_json({
        "kind": "custom", "conductor": 3, "labels": ["e", "f", "h"],
        "table": [[["0", "0", "0"], ["0", "0", "1"], ["-2", "0", "0"]],
                  [["0", "0", "-1"], ["0", "0", "0"], ["0", "2", "0"]],
                  [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]]})
    return [heisenberg(3), heisenberg_super(1, 2),
            twisted([ctx4.one(), ctx4.i(), ctx4.from_fraction(Fraction(2, 3))]),
            color, sl2, _perturbed_heisenberg(),
            _moved(twisted([ctx4.one(), ctx4.i()]), random.Random(3))]


def _random_vect(a, rng):
    ctx = a.ctx
    return tuple(ctx.zero() if rng.random() < 0.3 else
                 ctx.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 * ctx.zeta(rng.randrange(ctx.n)) for _ in range(a.dim))


def test_sparse_bracket_matches_dense_reference():
    rng = random.Random(2024)
    for a in _sample_algebras():
        for _ in range(12):
            u, v = _random_vect(a, rng), _random_vect(a, rng)
            assert a.bracket(u, v) == dense_bracket(a, u, v)
        for i in range(a.dim):
            for j in range(a.dim):
                assert a.bracket(a.basis_vect(i), a.basis_vect(j)) == a.table[i][j]


def test_sparse_terms_list_exactly_the_nonzero_constants():
    for a in _sample_algebras():
        listed = {(i, j, k): c for i, row in enumerate(a.terms)
                  for j, t in row for k, c in t}
        dense = {(i, j, k): a.table[i][j][k] for i in range(a.dim)
                 for j in range(a.dim) for k in range(a.dim) if a.table[i][j][k]}
        assert listed == dense


def test_is_automorphism_matches_dense_reference():
    rng = random.Random(99)
    outcomes = []
    for a in _sample_algebras():
        maps = [identity_map(a), [_random_vect(a, rng) for _ in range(a.dim)]]
        for _ in range(4):
            f = identity_map(a)
            i, j = rng.randrange(a.dim), rng.randrange(a.dim)
            f[j] = vscale(a.ctx.from_fraction(rng.randint(1, 3)), f[j])
            f[i] = tuple(x + y for x, y in zip(f[i], a.basis_vect(j)))
            maps.append(f)
        maps.append(list(reversed(identity_map(a))))
        maps.append([a.basis_vect(0)] * a.dim)
        for f in maps:
            got = is_automorphism(f, a)
            assert got == dense_is_automorphism(f, a)
            outcomes.append(got)
    heis = heisenberg(2)
    for _ in range(3):
        f = random_heisenberg_automorphism(heis, rng)
        assert is_automorphism(f, heis) and dense_is_automorphism(f, heis)
    assert True in outcomes and False in outcomes
