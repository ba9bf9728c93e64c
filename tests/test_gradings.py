import random
from fractions import Fraction

import pytest

from heisgrad._linalg import is_zero_vect, mat_apply, rref, vadd, vscale
from heisgrad.abelian import AbGroup, group_product
from heisgrad.fine import heisenberg_fine, super_fine, twisted_fine_nontoral
from heisgrad.gradings import (Grading, PairedDecomposition,
                               darboux_homogeneous_basis, coarsen,
                               grading_from_json, grading_to_json,
                               homogeneous_orthogonal_basis,
                               homogeneous_symplectic_basis,
                               universal_group, verify_grading)
from heisgrad.liealg import heisenberg
from heisgrad.scalars import CycloCtx

from _helpers import (assert_table_matches_dense, random_heisenberg_automorphism,
                      transport_grading)


def test_verify_fine_grading_passes():
    assert verify_grading(heisenberg_fine(2)).ok


def test_verify_grading_reduces_each_component_once(monkeypatch):
    import heisgrad.gradings as gradings
    calls = []
    monkeypatch.setattr(gradings, "rref", lambda rows: calls.append(rows) or rref(rows))
    ctx = CycloCtx(8)
    gr = twisted_fine_nontoral([ctx.one(), ctx.from_fraction(2)])
    assert verify_grading(gr).ok  # 12 nonzero bracket pairs, 6 components
    assert len(calls) == len(gr.support) == 6
    assert verify_grading(gr).ok and len(calls) == 6  # the spans are kept


def test_universal_group_after_verify_brackets_nothing_new(monkeypatch):
    import heisgrad.gradings as gradings
    from heisgrad.liealg import Algebra
    brackets, reductions = [], []
    bracket = Algebra.bracket
    monkeypatch.setattr(Algebra, "bracket",
                        lambda self, x, y: brackets.append(1) or bracket(self, x, y))
    monkeypatch.setattr(gradings, "rref",
                        lambda rows: reductions.append(rows) or rref(rows))
    ctx = CycloCtx(8)
    built = twisted_fine_nontoral([ctx.one(), ctx.from_fraction(2)])
    gr = Grading(built.algebra, built.group, dict(built.components))
    brackets.clear()
    assert verify_grading(gr).ok
    n = len(gr.support)
    pairs = n * (n + 1) // 2  # one-dimensional components: one per unordered pair
    assert len(brackets) == pairs
    group, regraded = universal_group(gr)
    assert len(brackets) == pairs
    # the regraded copy keeps the brackets and spans under its new degrees
    assert verify_grading(regraded).ok
    assert len(brackets) == pairs and len(reductions) == n
    assert list(regraded.spans) == regraded.support
    for i, g in enumerate(gr.support):
        h = regraded.degree_of(gr.components[g][0])
        assert regraded.components[h] == gr.components[g]
        assert regraded.spans[h] == gr.spans[g]
        for g2 in gr.support[i:]:
            h2 = regraded.degree_of(gr.components[g2][0])
            assert regraded.brackets(h, h2) == gr.brackets(g, g2)
    assert len(brackets) == pairs


def test_verify_coarsening_passes():
    gr = heisenberg_fine(1)
    # merge the e and ehat components
    sup = gr.support
    e_deg = next(g for g in sup if gr.components[g][0][0])
    h_deg = next(g for g in sup if gr.components[g][0][1])
    merged = dict(gr.components)
    merged[e_deg] = merged[e_deg] + merged.pop(h_deg)
    # over Z with degrees 1 (merged) and 2 (z): 1+1=2 compatible
    grp, gens = group_product([0])
    one_ = gens[0]
    z_deg = next(g for g in sup if g not in (e_deg, h_deg))
    comps = {one_: merged[e_deg], 2 * one_: gr.components[z_deg]}
    gr2 = Grading(gr.algebra, grp, comps)
    assert verify_grading(gr2).ok


def test_verify_detects_bracket_violation():
    gr = heisenberg_fine(1)
    a = gr.algebra
    sup = gr.support
    e_deg = next(g for g in sup if gr.components[g][0][0])
    h_deg = next(g for g in sup if gr.components[g][0][1])
    z_deg = next(g for g in sup if g not in (e_deg, h_deg))
    comps = {e_deg: (a.basis_vect(0), a.basis_vect(1)), z_deg: (a.basis_vect(2),)}
    bad = Grading(a, gr.group, comps)
    report = verify_grading(bad)
    assert not report.ok


def test_universal_group_heisenberg():
    for k in (1, 2, 3):
        gr = heisenberg_fine(k)
        group, regraded = universal_group(gr)
        assert group == AbGroup(k + 1, ())
        assert verify_grading(regraded).ok


def test_universal_group_twisted_nontoral():
    ctx = CycloCtx(8)
    lam = [ctx.one(), ctx.from_fraction(2)]
    gr = twisted_fine_nontoral(lam)
    assert gr.group == AbGroup(1, (2, 2))


def test_universal_group_trivial_grading():
    a = heisenberg(1)
    grp, _ = group_product([0])
    comps = {grp.zero(): tuple(a.basis_vect(i) for i in range(3))}
    gr = Grading(a, grp, comps)
    group, regraded = universal_group(gr)
    assert group == AbGroup(0, ())


def test_universal_group_idempotent():
    # the canonical group and the bracket-relation pattern on the
    # components are stable; degree coordinates may differ by a group
    # automorphism, so compare content-ordered relation triples
    def pattern(gr):
        items = sorted(gr.components.items(),
                       key=lambda kv: [v.sort_key() for vec in kv[1] for v in vec])
        degs = [g for g, _ in items]
        pos = {g.key(): i for i, g in enumerate(degs)}
        rels = set()
        a = gr.algebra
        for i, g in enumerate(degs):
            for j, h in enumerate(degs):
                prods = [a.bracket(v, w) for v in gr.components[g]
                         for w in gr.components[h]]
                if any(not is_zero_vect(p) for p in prods):
                    rels.add((i, j, pos[(g + h).key()]))
        return rels

    gr = heisenberg_fine(2)
    g1, r1 = universal_group(gr)
    g2, r2 = universal_group(r1)
    assert g1 == g2
    assert pattern(r1) == pattern(r2)


def test_toral_flags():
    assert universal_group(heisenberg_fine(2))[0].is_torsion_free()
    ctx = CycloCtx(8)
    lam = [ctx.one(), ctx.from_fraction(2)]
    assert not universal_group(twisted_fine_nontoral(lam))[0].is_torsion_free()
    assert universal_group(super_fine(1, 4, 2))[0].is_torsion_free()


def test_coarsen_to_trivial_and_identity():
    gr = heisenberg_fine(2)
    trivial, _ = group_product([])
    images = [trivial.zero()] * 3
    out = coarsen(gr, images)
    assert len(out.support) == 1
    ident = coarsen(gr, gr.group.generators())
    assert {g.key() for g in ident.support} == {g.key() for g in gr.support}


def test_coarsen_z_grading_on_h3():
    gr = heisenberg_fine(1)
    a = gr.algebra
    e_deg = next(g for g in gr.support if gr.components[g][0][0])
    h_deg = next(g for g in gr.support if gr.components[g][0][1])
    # send deg(e1) to 1 and deg(ehat1) to -1; both are a basis of Z^2
    target, gens = group_product([0])
    t = gens[0]
    mat = [list(e_deg.free), list(h_deg.free)]
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert abs(det) == 1
    # solve images of the canonical generators from the required images
    inv = [[mat[1][1] // det, -mat[0][1] // det],
           [-mat[1][0] // det, mat[0][0] // det]]
    images = [inv[0][0] * t + inv[1][0] * (-t), inv[0][1] * t + inv[1][1] * (-t)]
    out = coarsen(gr, images)
    comps = {g.free[0]: out.components[g] for g in out.support}
    assert set(comps) == {-1, 0, 1}
    assert comps[1] == (a.basis_vect(0),)
    assert comps[-1] == (a.basis_vect(1),)
    assert comps[0] == (a.basis_vect(2),)


def test_coarsen_then_universal_recovers_target():
    # when the epimorphism target is generated by the image support, the
    # coarsening's universal group is that target
    gr = heisenberg_fine(2)
    target, gens = group_product([0, 0])
    a, b = gens
    out = coarsen(gr, [a, a, b])  # merge the two symplectic pairs
    group, _ = universal_group(out)
    assert group == AbGroup(2, ())


def test_parity_decomposition_universal_group():
    # the coarsest super grading (even part / odd part) has universal
    # group Z_2 when the even part is non-abelian, and Z when the even
    # bracket vanishes and only the odd self-pairing remains
    from heisgrad.liealg import heisenberg_super
    for k, want in ((1, AbGroup(0, (2,))), (0, AbGroup(1, ()))):
        a = heisenberg_super(k, 2)
        grp, gens = group_product([2])
        even = tuple(a.basis_vect(i) for i in range(a.dim) if a.parity[i] == 0)
        odd = tuple(a.basis_vect(i) for i in range(a.dim) if a.parity[i] == 1)
        gr = Grading(a, grp, {grp.zero(): even, gens[0]: odd})
        assert verify_grading(gr).ok
        group, _ = universal_group(gr)
        assert group == want


def test_coarsen_rejects_relation_violation():
    ctx = CycloCtx(8)
    lam = [ctx.one(), ctx.from_fraction(2)]
    gr = twisted_fine_nontoral(lam)  # group Z x Z_2 x Z_2
    target, gens = group_product([0])
    t = gens[0]
    with pytest.raises(ValueError):
        coarsen(gr, [t, t, t])  # torsion generators cannot map to infinite order


# --- homogeneous bases -------------------------------------------------------

def _standard_symplectic(ctx, n):
    one, zero = ctx.one(), ctx.zero()
    form = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i % 2 == 0:
            row[i + 1] = one
        else:
            row[i - 1] = -one
        form.append(tuple(row))
    return form


def _unit(ctx, n, i):
    return tuple(ctx.one() if j == i else ctx.zero() for j in range(n))


def test_symplectic_single_component():
    ctx = CycloCtx(1)
    form = _standard_symplectic(ctx, 1)
    d = PairedDecomposition(form, [[_unit(ctx, 2, 0), _unit(ctx, 2, 1)]],
                            "alternating")
    pairs = homogeneous_symplectic_basis(d)
    assert len(pairs) == 1
    assert d.pairing(pairs[0][0], pairs[0][1]) == ctx.one()


def test_symplectic_cross_paired_lines():
    ctx = CycloCtx(1)
    form = _standard_symplectic(ctx, 1)
    d = PairedDecomposition(form, [[_unit(ctx, 2, 0)], [_unit(ctx, 2, 1)]],
                            "alternating")
    pairs = homogeneous_symplectic_basis(d)
    assert len(pairs) == 1


def _scramble_pieces(rng, pieces, ctx):
    out = []
    for piece in pieces:
        n = len(piece)
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            new = []
            for row in m:
                acc = tuple(ctx.zero() for _ in piece[0])
                for c, v in zip(row, piece):
                    acc = vadd(acc, vscale(ctx.from_fraction(c), v))
                new.append(acc)
            if len(rref(new)[0]) == n:
                out.append(new)
                break
    rng.shuffle(out)
    return out


def _check_symplectic_conditions(d, pairs):
    ctx = d.form[0][0].ctx
    flat = [v for p in pairs for v in p]
    assert len(flat) == len(d.form)
    # every output vector lies in exactly one component
    for v in flat:
        homes = [i for i, piece in enumerate(d.pieces)
                 if len(rref(piece + [v])[0]) == len(rref(piece)[0])]
        assert len(homes) == 1
    for a, (u1, v1) in enumerate(pairs):
        for b, (u2, v2) in enumerate(pairs):
            assert d.pairing(u1, u2) == ctx.zero()
            assert d.pairing(v1, v2) == ctx.zero()
            want = ctx.one() if a == b else ctx.zero()
            assert d.pairing(u1, v2) == want


def test_symplectic_scrambled():
    rng = random.Random(42)
    ctx = CycloCtx(1)
    form = _standard_symplectic(ctx, 3)
    # standard pieces: one self-paired plane, two cross-paired pairs of lines
    pieces = [[_unit(ctx, 6, 0), _unit(ctx, 6, 1)],
              [_unit(ctx, 6, 2)], [_unit(ctx, 6, 3)],
              [_unit(ctx, 6, 4)], [_unit(ctx, 6, 5)]]
    for _ in range(10):
        d = PairedDecomposition(form, _scramble_pieces(rng, pieces, ctx),
                                "alternating")
        pairs = homogeneous_symplectic_basis(d)
        _check_symplectic_conditions(d, pairs)


def test_orthogonal_single_component():
    ctx = CycloCtx(1)
    one, zero = ctx.one(), ctx.zero()
    form = [(one, zero), (zero, one)]
    d = PairedDecomposition(form, [[_unit(ctx, 2, 0), _unit(ctx, 2, 1)]],
                            "symmetric")
    pairs, diag = homogeneous_orthogonal_basis(d)
    assert not pairs and len(diag) == 2
    assert all(d.pairing(v, v) for v in diag)


def test_orthogonal_cross_paired_lines():
    ctx = CycloCtx(1)
    one, zero = ctx.one(), ctx.zero()
    form = [(zero, one), (one, zero)]
    d = PairedDecomposition(form, [[_unit(ctx, 2, 0)], [_unit(ctx, 2, 1)]],
                            "symmetric")
    pairs, diag = homogeneous_orthogonal_basis(d)
    assert len(pairs) == 1 and not diag
    assert d.pairing(pairs[0][0], pairs[0][1]) == one


def _check_orthogonal_conditions(d, pairs, diag):
    ctx = d.form[0][0].ctx
    flat = [v for p in pairs for v in p] + diag
    assert len(flat) == len(d.form)
    for v in flat:
        homes = [i for i, piece in enumerate(d.pieces)
                 if len(rref(piece + [v])[0]) == len(rref(piece)[0])]
        assert len(homes) == 1
    for z in diag:
        assert d.pairing(z, z) != ctx.zero()
    for u, v in pairs:
        assert d.pairing(u, v) == ctx.one()


def test_orthogonal_scrambled():
    rng = random.Random(99)
    ctx = CycloCtx(1)
    one, zero = ctx.one(), ctx.zero()
    # dim 5: an identity-form plane, a hyperbolic pair of lines, one diagonal line
    form = []
    entries = {(0, 0): one, (1, 1): one, (2, 3): one, (3, 2): one, (4, 4): one}
    for i in range(5):
        form.append(tuple(entries.get((i, j), zero) for j in range(5)))
    pieces = [[_unit(ctx, 5, 0), _unit(ctx, 5, 1)],
              [_unit(ctx, 5, 2)], [_unit(ctx, 5, 3)], [_unit(ctx, 5, 4)]]
    for _ in range(10):
        d = PairedDecomposition(form, _scramble_pieces(rng, pieces, ctx),
                                "symmetric")
        pairs, diag = homogeneous_orthogonal_basis(d)
        _check_orthogonal_conditions(d, pairs, diag)


def test_partners_are_found_once(monkeypatch):
    ctx = CycloCtx(1)
    d = PairedDecomposition(_standard_symplectic(ctx, 1),
                            [[_unit(ctx, 2, 0)], [_unit(ctx, 2, 1)]], "alternating")
    validate, calls = PairedDecomposition.validate, []
    monkeypatch.setattr(PairedDecomposition, "validate",
                        lambda self: calls.append(self) or validate(self))
    assert d.validate() == [1, 0]
    homogeneous_symplectic_basis(d)
    assert len(calls) == 2


def test_every_paired_basis_goes_through_one_routine(monkeypatch):
    import heisgrad.gradings as gradings
    from heisgrad.color import Bicharacter, ColorType, classify_color, color_algebra
    core, calls = gradings._paired_basis, []
    monkeypatch.setattr(gradings, "_paired_basis",
                        lambda *args: calls.append(args) or core(*args))
    ctx = CycloCtx(1)
    one, zero = ctx.one(), ctx.zero()
    lines = [[_unit(ctx, 2, 0)], [_unit(ctx, 2, 1)]]
    z2 = AbGroup(0, (2,))
    t = ColorType(z2, z2.zero(), Bicharacter(z2, [[one]]), {z2.zero(): 3})
    for caller in (
            lambda: homogeneous_symplectic_basis(
                PairedDecomposition(_standard_symplectic(ctx, 1), lines, "alternating")),
            lambda: homogeneous_orthogonal_basis(
                PairedDecomposition([(zero, one), (one, zero)], lines, "symmetric")),
            lambda: darboux_homogeneous_basis(heisenberg_fine(2)),
            lambda: classify_color(*color_algebra(t, ctx), t.epsilon)):
        calls.clear()
        caller()
        assert len(calls) == 1


@pytest.mark.parametrize("kind", ["alternating", "symmetric", "darboux"])
def test_gram_check_rejects_a_wrong_pair(monkeypatch, kind):
    # dual vectors scaled by 2 pair to 2, not 1
    import heisgrad.gradings as gradings
    dual = gradings.dual_vectors
    monkeypatch.setattr(gradings, "dual_vectors",
                        lambda pairing, left, right: [vscale(ctx.from_fraction(2), y)
                                                      for y in dual(pairing, left, right)])
    ctx = CycloCtx(1)
    one, zero = ctx.one(), ctx.zero()
    lines = [[_unit(ctx, 2, 0)], [_unit(ctx, 2, 1)]]
    with pytest.raises(AssertionError, match="wrong Gram matrix"):
        if kind == "alternating":
            homogeneous_symplectic_basis(PairedDecomposition(_standard_symplectic(ctx, 1), lines,
                                                             kind))
        elif kind == "symmetric":
            homogeneous_orthogonal_basis(PairedDecomposition([(zero, one), (one, zero)], lines,
                                                             kind))
        else:
            darboux_homogeneous_basis(heisenberg_fine(2))


def test_pairing_condition_violation_raises():
    ctx = CycloCtx(1)
    form = _standard_symplectic(ctx, 2)
    # one line pairs with two different components
    pieces = [[_unit(ctx, 4, 0)], [_unit(ctx, 4, 1), _unit(ctx, 4, 2)],
              [_unit(ctx, 4, 3)]]
    d = PairedDecomposition(form, pieces, "alternating")
    with pytest.raises(ValueError):
        homogeneous_symplectic_basis(d)


# --- Darboux bases -----------------------------------------------------------

def test_darboux_on_fine_grading():
    # on the fine grading itself the output is a rescaled standard basis
    gr = heisenberg_fine(2)
    basis = darboux_homogeneous_basis(gr)
    assert len(basis) == 5
    for v in basis:
        assert sum(1 for c in v if c) == 1


def _assert_darboux(gr, basis):
    # homogeneous, [u_p, u_p'] = z, and every other bracket zero
    a = gr.algebra
    z, us, vs = basis[0], basis[1::2], basis[2::2]
    assert len(basis) == a.dim and all(gr.degree_of(v) is not None for v in basis)
    for p, (u, v) in enumerate(zip(us, vs)):
        for q, (u2, v2) in enumerate(zip(us, vs)):
            assert a.bracket(u, v2) == (z if p == q else a.zero_vect())
            assert is_zero_vect(a.bracket(u, u2)) and is_zero_vect(a.bracket(v, v2))


def test_darboux_on_coarsening():
    gr = heisenberg_fine(2)
    # coarsen Z^3 onto Z_2 through the sum of coordinates
    target, gens = group_product([2])
    t = gens[0]
    out = coarsen(gr, [t, t, t])
    basis = darboux_homogeneous_basis(out)
    assert len(basis) == 5


# images of the generators of heisenberg_fine(k)'s group, the degrees of z,
# e_k, ..., e_1; ehat_i has degree deg z - deg e_i
@pytest.mark.parametrize("k, order, images", [
    (3, 4, (2, 1, 1, 1)),  # V_1 = all e_i, ehat_i
    (3, 2, (0, 1, 0, 0)),  # V_0 = z + a 4-dimensional complement
    (4, 2, (0, 1, 1, 1, 1)),
    (4, 4, (2, 1, 1, 1, 1)),
    (4, 2, (0, 1, 0, 0, 0)),
])
def test_darboux_on_self_paired_coarsenings(k, order, images):
    # a self-paired piece of dimension at least 4, from the grading and a transport
    gr = heisenberg_fine(k)
    target, gens = group_product([order])
    out = coarsen(gr, [c * gens[0] for c in images])
    moved = transport_grading(out, random_heisenberg_automorphism(out.algebra, random.Random(k)))
    for grading in (out, moved):
        _assert_darboux(grading, darboux_homogeneous_basis(grading))


def test_darboux_rejects_a_superalgebra():
    with pytest.raises(ValueError, match="needs a Lie algebra"):
        darboux_homogeneous_basis(super_fine(1, 2, 1))


def test_degree_of_finds_the_component():
    # the Z_2 coarsening has components of dimensions 2 and 3
    gr = heisenberg_fine(2)
    target, gens = group_product([2])
    out = coarsen(gr, [gens[0]] * 3)
    even, odd = out.support
    for g in out.support:
        for v in out.components[g]:
            assert out.degree_of(v) == g
    u, v = out.components[odd][:2]
    assert out.degree_of(vadd(u, vscale(out.algebra.ctx.from_fraction(3), v))) == odd
    # zero lies in every component; the first in support order wins
    assert out.degree_of(out.algebra.zero_vect()) == even
    assert out.degree_of(vadd(out.components[even][0], u)) is None


def test_darboux_on_transported_grading():
    rng = random.Random(3)
    gr = heisenberg_fine(2)
    for _ in range(5):
        f = random_heisenberg_automorphism(gr.algebra, rng)
        moved = transport_grading(gr, f)
        assert verify_grading(moved).ok
        basis = darboux_homogeneous_basis(moved)
        assert len(basis) == 5
        assert all(moved.degree_of(v) is not None for v in basis)


def test_grading_json_roundtrip():
    gr = heisenberg_fine(2)
    spec = grading_to_json(gr)
    back = grading_from_json(spec)
    assert verify_grading(back).ok
    group, _ = universal_group(back)
    assert group == gr.group


def test_grading_json_with_presented_group():
    # group given by generators and relations; degrees written over the
    # presentation's generators (here: deg z = deg e + deg ehat)
    spec = {
        "algebra": {"kind": "heisenberg", "k": 1},
        "group": {"n_gens": 3, "relations": [[1, 1, -1]]},
        "components": [
            {"degree": {"gens": [1, 0, 0]}, "vectors": [["1", "0", "0"]]},
            {"degree": {"gens": [0, 1, 0]}, "vectors": [["0", "1", "0"]]},
            {"degree": {"gens": [0, 0, 1]}, "vectors": [["0", "0", "1"]]},
        ],
    }
    gr = grading_from_json(spec)
    assert gr.group == AbGroup(2, ())
    assert verify_grading(gr).ok


def test_grading_json_rejects_wrong_vector_length():
    # zip would silently truncate a 4-coordinate vector to the 3-dim algebra
    spec = grading_to_json(heisenberg_fine(1))
    spec["components"][0]["vectors"][0].append("1")
    with pytest.raises(ValueError, match="length 4 in an algebra of dimension 3"):
        grading_from_json(spec)
    spec["components"][0]["vectors"][0][2:] = []
    with pytest.raises(ValueError, match="length 2"):
        grading_from_json(spec)


# --- Grading.table: which pairs of components it brackets in both orientations

def _parity_mixed_super_grading():
    """A Z^2-grading of H_(3,2) read from JSON: e +- u and ehat +- v span two
    components, u = w1 + i w2 and v = w1 - i w2, so four of its basis
    vectors mix parities."""
    vectors = (["1", "0", "1", "i", "0"], ["1", "0", "-1", "-i", "0"],
               ["0", "1", "1", "-i", "0"], ["0", "1", "-1", "i", "0"],
               ["0", "0", "0", "0", "1"])
    return grading_from_json({
        "algebra": {"kind": "super", "k": 1, "m": 2},
        "group": {"rank": 2, "torsion": []},
        "components": [{"degree": {"free": [1, 0]}, "vectors": vectors[:2]},
                       {"degree": {"free": [-1, 1]}, "vectors": vectors[2:4]},
                       {"degree": {"free": [0, 1]}, "vectors": vectors[4:]}]})


def _color_grading():
    from heisgrad.color import Bicharacter, ColorType, color_algebra
    ctx = CycloCtx(12)
    grp = AbGroup(0, (2,))
    even, odd = grp.elt((), (0,)), grp.elt((), (1,))
    _, gr = color_algebra(ColorType(grp, even, Bicharacter(grp, [[ctx.from_fraction(-1)]]),
                                    {even: 3, odd: 2}), ctx)
    return gr


@pytest.mark.parametrize("make, both", [
    (lambda: super_fine(1, 4, 1), False),
    (lambda: twisted_fine_nontoral([CycloCtx(8).one(), CycloCtx(8).from_fraction(2)]), False),
    (_parity_mixed_super_grading, True),
    (_color_grading, True),
], ids=["super-skew", "twisted-skew", "json-parity-mixed", "color"])
def test_graded_table_brackets_both_orientations_only_where_needed(make, both):
    # a skew algebra brackets each unordered pair of parity-homogeneous
    # components once and fills the other orientation by the sign rule; a
    # color algebra (not skew) and a component with a parity-mixed vector
    # get both orientations, and the dense brackets agree with each table
    built = make()
    gr = Grading(built.algebra, built.group, dict(built.components))
    assert verify_grading(gr).ok
    memo = gr._brackets
    memo.clear()
    assert_table_matches_dense(gr)
    assert (None in gr.table.parity) == (make is _parity_mixed_super_grading)
    n = len(gr.support)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert all(((i, j) in memo and (j, i) in memo) == both for i, j in pairs)
    assert all((i, j) in memo or (j, i) in memo for i, j in pairs)
