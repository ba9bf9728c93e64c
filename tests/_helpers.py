"""Shared helpers: random automorphisms of the Heisenberg families and
grading transport, used for randomized verification sweeps."""

import random
from fractions import Fraction

from heisgrad._linalg import mat_apply, vadd, vscale
from heisgrad.fine import twist
from heisgrad.gradings import Grading
from heisgrad.liealg import Algebra, LinMap, compose_maps, identity_map, is_automorphism


def rand_fraction(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if q or not nonzero:
            return q


def _column_update(a: Algebra, cols, idx, vec):
    cols = list(cols)
    cols[idx] = vec
    return cols


def random_heisenberg_automorphism(a: Algebra, rng: random.Random) -> LinMap:
    """A random automorphism of a plain Heisenberg algebra: diagonal torus
    element, pair permutation, symplectic flips, a shear and a central
    translation."""
    k = a.spec["k"]
    ctx = a.ctx
    ident = identity_map(a)
    z = a.dim - 1

    def diag():
        lam = ctx.from_fraction(rand_fraction(rng, nonzero=True))
        cols = list(ident)
        for i in range(k):
            li = ctx.from_fraction(rand_fraction(rng, nonzero=True))
            cols[2 * i] = vscale(li, ident[2 * i])
            cols[2 * i + 1] = vscale(lam / li, ident[2 * i + 1])
        cols[z] = vscale(lam, ident[z])
        return cols

    def flip():
        i = rng.randrange(k)
        cols = list(ident)
        cols[2 * i] = ident[2 * i + 1]
        cols[2 * i + 1] = vscale(ctx.from_fraction(-1), ident[2 * i])
        return cols

    def swap():
        if k < 2:
            return list(ident)
        i, j = rng.sample(range(k), 2)
        cols = list(ident)
        cols[2 * i], cols[2 * j] = ident[2 * j], ident[2 * i]
        cols[2 * i + 1], cols[2 * j + 1] = ident[2 * j + 1], ident[2 * i + 1]
        return cols

    def shear():
        # e_i -> e_i + c e_j, ehat_j -> ehat_j - c ehat_i preserves the form
        if k < 2:
            return list(ident)
        i, j = rng.sample(range(k), 2)
        c = ctx.from_fraction(rand_fraction(rng))
        cols = list(ident)
        cols[2 * i] = vadd(ident[2 * i], vscale(c, ident[2 * j]))
        cols[2 * j + 1] = vadd(ident[2 * j + 1],
                               vscale(-c, ident[2 * i + 1]))
        return cols

    def translate():
        # x -> x + ell(x) z for a functional vanishing on the center
        cols = list(ident)
        for i in range(a.dim - 1):
            c = ctx.from_fraction(rand_fraction(rng))
            cols[i] = vadd(ident[i], vscale(c, ident[z]))
        return cols

    out = identity_map(a)
    for _ in range(4):
        step = rng.choice([diag, flip, swap, shear, translate])()
        out = compose_maps(step, out)
    assert is_automorphism(out, a)
    return out


def random_super_automorphism(a: Algebra, rng: random.Random) -> LinMap:
    """A random automorphism of a Heisenberg superalgebra: an even-part
    Heisenberg automorphism with similitude 1 plus a signed permutation
    and rational rotations of the odd basis."""
    k, m = a.spec["k"], a.spec["m"]
    ctx = a.ctx
    ident = identity_map(a)
    z = a.dim - 1

    def even_diag():
        cols = list(ident)
        for i in range(k):
            li = ctx.from_fraction(rand_fraction(rng, nonzero=True))
            cols[2 * i] = vscale(li, ident[2 * i])
            cols[2 * i + 1] = vscale(li.inv(), ident[2 * i + 1])
        return cols

    def odd_signed_perm():
        perm = list(range(m))
        rng.shuffle(perm)
        cols = list(ident)
        for j in range(m):
            sgn = ctx.from_fraction(rng.choice((1, -1)))
            cols[2 * k + j] = vscale(sgn, ident[2 * k + perm[j]])
        return cols

    def odd_rotation():
        if m < 2:
            return list(ident)
        i, j = rng.sample(range(m), 2)
        # a Pythagorean rotation keeps the inner product and the field rational
        c, s = Fraction(3, 5), Fraction(4, 5)
        cols = list(ident)
        cols[2 * k + i] = vadd(vscale(ctx.from_fraction(c), ident[2 * k + i]),
                               vscale(ctx.from_fraction(s), ident[2 * k + j]))
        cols[2 * k + j] = vadd(vscale(ctx.from_fraction(-s), ident[2 * k + i]),
                               vscale(ctx.from_fraction(c), ident[2 * k + j]))
        return cols

    def even_translate():
        cols = list(ident)
        for i in range(2 * k):
            cols[i] = vadd(ident[i], vscale(
                ctx.from_fraction(rand_fraction(rng)), ident[z]))
        return cols

    out = identity_map(a)
    for _ in range(4):
        step = rng.choice([even_diag, odd_signed_perm, odd_rotation,
                           even_translate])()
        out = compose_maps(step, out)
    assert is_automorphism(out, a)
    return out


def random_twisted_automorphism(a: Algebra, rng: random.Random) -> LinMap:
    """A random automorphism of a twisted Heisenberg algebra: a torus
    element diagonal on the ad(u)-eigenbasis plus a u-translation."""
    lam = twist(a)
    k = len(lam)
    ctx = a.ctx
    ident = identity_map(a)
    z = a.dim - 1

    def uv(i):
        e, eh = ident[1 + 2 * i], ident[2 + 2 * i]
        return vadd(e, eh), vadd(e, vscale(ctx.from_fraction(-1), eh))

    def torus():
        gamma = ctx.from_fraction(rand_fraction(rng, nonzero=True)) ** 2
        cols = list(ident)
        for i in range(k):
            ai = ctx.from_fraction(rand_fraction(rng, nonzero=True))
            u_i, v_i = uv(i)
            fu = vscale(ai, u_i)
            fv = vscale(gamma / ai, v_i)
            half = ctx.from_fraction(Fraction(1, 2))
            cols[1 + 2 * i] = vscale(half, vadd(fu, fv))
            cols[2 + 2 * i] = vscale(half, vadd(fu, vscale(ctx.from_fraction(-1), fv)))
        cols[z] = vscale(gamma, ident[z])
        return cols

    def u_translate():
        cols = list(ident)
        cols[0] = vadd(ident[0], vscale(
            ctx.from_fraction(rand_fraction(rng)), ident[z]))
        return cols

    out = identity_map(a)
    for _ in range(3):
        step = rng.choice([torus, u_translate])()
        out = compose_maps(step, out)
    assert is_automorphism(out, a)
    return out


def transport_grading(gr: Grading, f: LinMap) -> Grading:
    """The grading with components pushed through the automorphism f."""
    comps = {g: tuple(mat_apply(f, v) for v in vecs)
             for g, vecs in gr.components.items()}
    return Grading(gr.algebra, gr.group, comps, {})
