import random
from fractions import Fraction

import pytest

from heisgrad._linalg import mat_apply, sparse, vscale
from heisgrad.liealg import (Algebra, algebra_from_json, algebra_to_json, center,
                             derived, heisenberg, heisenberg_super, is_automorphism,
                             terms_of_table, twisted, verify_axioms)
from heisgrad.scalars import CycloCtx, parse_scalar

from _helpers import (color_table, compose_maps, dense_center, dense_derived, dense_table,
                      dense_verify_axioms, heisenberg_super_table, identity_map,
                      random_heisenberg_automorphism, random_super_automorphism,
                      random_twisted_automorphism, twisted_table)


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
    table = dense_table(a)
    e1 = a.basis_vect(0)
    table[0][2] = e1
    table[2][0] = vscale(a.ctx.from_fraction(-1), e1)
    bad = Algebra.from_table(a.ctx, a.labels, a.parity, table)
    report = verify_axioms(bad)
    assert not report.ok
    assert any(f.startswith("jacobi") for f in report.failures)


def _perturbed(a, rng, count):
    """a with count random table entries replaced by random sparse
    vectors, each with its skew partner entry half of the time."""
    ctx = a.ctx
    table = dense_table(a)
    for _ in range(count):
        i, j = rng.randrange(a.dim), rng.randrange(a.dim)
        v = [ctx.zero()] * a.dim
        for k in rng.sample(range(a.dim), rng.randint(1, 2)):
            v[k] = ctx.from_fraction(Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)))
        table[i][j] = tuple(v)
        if rng.random() < 0.5:
            sign = -1 if a.parity[i] and a.parity[j] else 1
            table[j][i] = vscale(ctx.from_fraction(-sign), tuple(v))
    return Algebra.from_table(ctx, a.labels, a.parity, table)


def test_sparse_axiom_check_matches_the_dense_oracle():
    # the failure lists agree entry for entry, including the stop at the
    # Jacobi failure that makes 9 failures
    ctx4 = CycloCtx(4)
    algebras = [heisenberg(1), heisenberg(2), heisenberg_super(1, 2),
                heisenberg_super(0, 1), heisenberg_super(2, 1),
                twisted([ctx4.one(), ctx4.from_fraction(2)]),
                twisted([ctx4.one(), ctx4.i()])]
    table = dense_table(algebras[1])
    table[0][2] = algebras[1].basis_vect(0)
    table[2][0] = vscale(algebras[1].ctx.from_fraction(-1), algebras[1].basis_vect(0))
    broken = Algebra.from_table(algebras[1].ctx, algebras[1].labels, algebras[1].parity,
                                table)
    rng = random.Random(5)
    cases = algebras + [broken] + [_perturbed(a, rng, rng.randint(1, 3))
                                   for a in algebras for _ in range(4)]
    cases += [_perturbed(a, rng, 40) for a in algebras[4:]]
    lengths = set()
    for a in cases:
        want, got = dense_verify_axioms(a), verify_axioms(a)
        assert (got.ok, got.failures) == (want.ok, want.failures)
        lengths.add(len(got.failures))
        if a is broken:
            assert got.failures == dense_verify_axioms(broken).failures != []
    assert 0 in lengths and max(lengths) > 9  # skew failures are not capped


def test_is_automorphism_identity_and_torus():
    a = heisenberg(2)
    f = identity_map(a)
    assert is_automorphism(f, a)
    # diagonal torus element t_(l1, l2; l)
    lam = a.ctx.from_fraction(Fraction(3, 2))
    l1 = a.ctx.from_fraction(2)
    l2 = a.ctx.from_fraction(Fraction(-1, 3))
    cols = [vscale(l1, a.basis_vect(0)), vscale(lam / l1, a.basis_vect(1)),
            vscale(l2, a.basis_vect(2)), vscale(lam / l2, a.basis_vect(3)),
            vscale(lam, a.basis_vect(4))]
    assert is_automorphism(cols, a)


def test_plain_swap_is_not_automorphism():
    a = heisenberg(1)
    cols = [a.basis_vect(1), a.basis_vect(0), a.basis_vect(2)]
    assert not is_automorphism(cols, a)


def test_singular_map_is_not_automorphism():
    a = heisenberg(1)
    cols = [a.basis_vect(0), a.basis_vect(0), a.basis_vect(2)]
    assert not is_automorphism(cols, a)


def test_zero_map_is_not_automorphism():
    # it preserves every bracket, [0, 0] = 0, but it is singular
    for a in (heisenberg(2), heisenberg_super(1, 2)):
        assert not is_automorphism([a.zero_vect()] * a.dim, a)


def test_parity_violating_map_rejected():
    a = heisenberg_super(1, 1)
    cols = identity_map(a)
    cols[2] = a.basis_vect(0)  # sends an odd vector to an even one
    assert not is_automorphism(cols, a)


def test_composed_random_automorphisms_are_automorphisms():
    rng = random.Random(11)
    a = heisenberg(2)
    for _ in range(5):
        f = random_heisenberg_automorphism(a, rng)
        g = random_heisenberg_automorphism(a, rng)
        fg = compose_maps(f, g)
        assert is_automorphism(fg, a)


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
        assert b.terms == a.terms


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
    table = dense_table(a)
    out = [a.ctx.zero()] * a.dim
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                out[k] = out[k] + u[i] * v[j] * table[i][j][k]
    return tuple(out)


def dense_is_automorphism(f, a):
    """is_automorphism written over the dense table."""
    from heisgrad._linalg import mat_inverse
    if len(f) != a.dim or mat_inverse(f, a.ctx) is None:
        return False
    if any(c and a.parity[i] != a.parity[j]
           for j in range(a.dim) for i, c in enumerate(f[j])):
        return False
    table = dense_table(a)
    return all(mat_apply(f, table[i][j]) == dense_bracket(a, f[i], f[j])
               for i in range(a.dim) for j in range(a.dim))


def _perturbed_heisenberg():
    a = heisenberg(2)
    table = heisenberg_super_table(2, 0, a.ctx)
    table[0][2] = a.basis_vect(0)
    table[2][0] = vscale(a.ctx.from_fraction(-1), a.basis_vect(0))
    return Algebra.from_table(a.ctx, a.labels, a.parity, table), table


def _moved(a, rng):
    """a in the basis given by the columns of a random unitriangular matrix,
    so that most structure constants are nonzero, with its dense table."""
    from heisgrad._linalg import mat_inverse
    cols = [tuple(a.ctx.one() if r == c else
                  a.ctx.from_fraction(rng.randint(-2, 2)) if r < c else a.ctx.zero()
                  for r in range(a.dim)) for c in range(a.dim)]
    back = mat_inverse(cols, a.ctx)
    table = [[mat_apply(back, a.bracket(cols[i], cols[j])) for j in range(a.dim)]
             for i in range(a.dim)]
    return Algebra.from_table(a.ctx, a.labels, a.parity, table), table


SL2_SPEC = {
    "kind": "custom", "conductor": 3, "labels": ["e", "f", "h"],
    "table": [[["0", "0", "0"], ["0", "0", "1"], ["-2", "0", "0"]],
              [["0", "0", "-1"], ["0", "0", "0"], ["0", "2", "0"]],
              [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]]}


def _sample_pairs():
    """The sample algebras, each with the dense table it was filled from:
    the family fills of tests/_helpers.py, or the table of a custom input."""
    from heisgrad.abelian import AbGroup
    from heisgrad.color import Bicharacter, ColorType, color_algebra
    ctx1, ctx4, ctx12 = CycloCtx(1), CycloCtx(4), CycloCtx(12)
    grp = AbGroup(2, ())
    z3 = ctx12.zeta(4)
    eps = Bicharacter(grp, [[ctx12.one(), z3], [z3.inv(), ctx12.one()]])
    e1, e2 = grp.elt((1, 0), ()), grp.elt((0, 1), ())
    ctype = ColorType(grp, grp.zero(), eps, {grp.zero(): 1, e1: 1, -e1: 1, e2: 1, -e2: 1})
    color, cgr = color_algebra(ctype, ctx12)
    sl2 = algebra_from_json(SL2_SPEC)
    lam = [ctx4.one(), ctx4.i(), ctx4.from_fraction(Fraction(2, 3))]
    return [(heisenberg(3), heisenberg_super_table(3, 0, ctx1)),
            (heisenberg_super(1, 2), heisenberg_super_table(1, 2, ctx4)),
            (twisted(lam), twisted_table(lam)),
            (color, color_table(color, cgr, ctype)),
            (sl2, [[tuple(parse_scalar(c, sl2.ctx) for c in t) for t in row]
                   for row in SL2_SPEC["table"]]),
            _perturbed_heisenberg(),
            _moved(twisted([ctx4.one(), ctx4.i()]), random.Random(3))]


def _sample_algebras():
    return [a for a, _ in _sample_pairs()]


def _random_vect(a, rng):
    ctx = a.ctx
    return tuple(ctx.zero() if rng.random() < 0.3 else
                 ctx.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 * ctx.zeta(rng.randrange(ctx.n)) for _ in range(a.dim))


def test_sparse_bracket_matches_dense_reference():
    # the result takes the form of the second argument
    rng = random.Random(2024)
    for a, table in _sample_pairs():
        for _ in range(12):
            u, v = _random_vect(a, rng), _random_vect(a, rng)
            assert a.bracket(u, v) == dense_bracket(a, u, v)
            assert a.bracket(sparse(u), v) == dense_bracket(a, u, v)
            assert a.bracket(u, sparse(v)) == sparse(dense_bracket(a, u, v))
            assert a.bracket(sparse(u), sparse(v)) == sparse(dense_bracket(a, u, v))
        for i in range(a.dim):
            for j in range(a.dim):
                assert a.bracket(a.basis_vect(i), a.basis_vect(j)) == table[i][j]


def test_bracket_drops_cancelled_entries_and_shares_its_zeros():
    # [e1 + ehat1, e1 + ehat1] = z - z: the sparse result tests the entry it
    # touched and drops it; the dense one keeps the zero entry
    a = heisenberg(1)
    v = tuple(x + y for x, y in zip(a.basis_vect(0), a.basis_vect(1)))
    assert a.bracket(sparse(v), sparse(v)) == {}
    assert a.bracket(v, v) == a.zero_vect() and a.bracket(v, v) is not a.zero_vect()
    # no structure constant met: one shared zero of each form
    z = a.basis_vect(2)
    assert a.bracket(v, z) is a.zero_vect()
    assert a.bracket(v, sparse(z)) == {} and a.bracket(v, sparse(z)) is a.bracket(z, sparse(v))


def test_sparse_terms_list_exactly_the_nonzero_constants():
    for a, table in _sample_pairs():
        listed = {(i, j, k): c for i, row in enumerate(a.terms)
                  for j, t in row for k, c in t}
        dense = {(i, j, k): table[i][j][k] for i in range(a.dim)
                 for j in range(a.dim) for k in range(a.dim) if table[i][j][k]}
        assert listed == dense
        assert dense_table(a) == [list(row) for row in table]


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


# --- structure constants written directly, against the dense fills ---------

def test_family_terms_match_their_dense_fills():
    # each constructor writes its nonzero constants directly; the dense
    # tables are filled entry by entry as the constructors once did
    for ctx in (CycloCtx(1), CycloCtx(4), CycloCtx(12)):
        for k, m in ((1, 0), (2, 0), (5, 0), (0, 1), (0, 3), (1, 2), (3, 4)):
            a = heisenberg_super(k, m, ctx)
            assert a.terms == terms_of_table(heisenberg_super_table(k, m, ctx)), (k, m)
            if m == 0:
                assert heisenberg(k, ctx).terms == a.terms
    for n, texts in ((4, ["1"]), (4, ["1", "i", "-1", "-i"]), (8, ["2/3", "zeta(8)", "-3"]),
                     (12, ["1", "zeta(3)", "zeta(3)^2", "5", "-i", "1/2"])):
        ctx = CycloCtx(n)
        lam = [parse_scalar(x, ctx) for x in texts]
        assert twisted(lam).terms == terms_of_table(twisted_table(lam)), texts


def test_color_terms_match_their_dense_fill():
    from heisgrad.abelian import AbGroup
    from heisgrad.color import Bicharacter, ColorType, color_algebra
    ctx = CycloCtx(12)
    one, z3 = ctx.one(), ctx.zeta(4)
    z2, line, free = AbGroup(0, (2,)), AbGroup(1, ()), AbGroup(2, ())
    even, odd = z2.elt((), (0,)), z2.elt((), (1,))
    cube = Bicharacter(free, [[one, z3], [z3.inv(), one]])
    g0 = free.elt((1, 1), ())
    types = [
        ColorType(z2, even, Bicharacter(z2, [[-one]]), {even: 3, odd: 2}),
        ColorType(line, line.elt((4,), ()), Bicharacter(line, [[one]]),
                  {line.elt((4,), ()): 1, line.elt((1,), ()): 2, line.elt((3,), ()): 2}),
        ColorType(free, g0, cube, {g0: 1, free.zero(): 0, free.elt((1, 0), ()): 2,
                                   free.elt((0, 1), ()): 2}),
        ColorType(free, free.zero(), cube,
                  {free.zero(): 3, free.elt((1, 0), ()): 2, free.elt((-1, 0), ()): 2,
                   free.elt((0, 1), ()): 1, free.elt((0, -1), ()): 1}),
    ]
    for t in types:
        a, gr = color_algebra(t, ctx)
        assert a.terms == terms_of_table(color_table(a, gr, t)), t.dims


def test_center_and_derived_match_the_dense_oracles():
    # both bases are reduced row echelon forms, unique for their spaces
    for a in _sample_algebras():
        assert center(a) == dense_center(a), a.labels
        assert derived(a) == dense_derived(a), a.labels


def test_custom_table_json_round_trip_is_byte_identical():
    import json
    # sl2 with its "0" entries, a table with nonzero constants everywhere,
    # and a superalgebra's table with its parity
    moved, _ = _moved(twisted([CycloCtx(4).one(), CycloCtx(4).i()]), random.Random(3))
    sup = heisenberg_super(1, 2)
    for spec in (dict(SL2_SPEC, parity=[0, 0, 0]), algebra_to_json(moved),
                 algebra_to_json(Algebra(sup.ctx, sup.labels, sup.parity, sup.terms))):
        text = json.dumps(spec, sort_keys=True)
        out = algebra_to_json(algebra_from_json(json.loads(text)))
        assert json.dumps(out, sort_keys=True) == text
    assert algebra_to_json(algebra_from_json(SL2_SPEC))["table"] == SL2_SPEC["table"]


def test_table_conversion_drops_zeros_and_sorts():
    ctx = CycloCtx(4)
    zero, one, i = ctx.zero(), ctx.one(), ctx.i()
    table = [[(zero, zero, zero), (zero, i, one), (zero, zero, zero)],
             [(one, zero, zero), (zero, zero, zero), (zero, zero, -i)],
             [(zero, zero, zero), (zero, zero, zero), (zero, zero, zero)]]
    assert terms_of_table(table) == (
        ((1, ((1, i), (2, one))),),
        ((0, ((0, one),)), (2, ((2, -i),))),
        ())
    a = Algebra.from_table(ctx, ("x", "y", "w"), (0, 0, 0), table)
    assert a.terms == terms_of_table(table)
    assert dense_table(a) == table
    assert Algebra.from_table(ctx, ("x",), (0,), [[(zero,)]]).terms == ((),)
