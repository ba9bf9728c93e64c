"""Shared helpers: linear maps, spans and checked blocks that only the
tests use, random automorphisms of the Heisenberg families and grading
transport, used for randomized verification sweeps, an exhaustive oracle
for the Weyl-group brute force, dense structure-constant tables (each
family's own fill, and the table an algebra's sparse terms write out),
dense oracles for the center, the derived algebra, the sparse axiom
checks, the induced permutations and `Grading.table`, a key-based
oracle for the block-scalar classes, and the spectrum condition and the
enumeration walked with their own powers of xi."""

import random
from collections import Counter
from fractions import Fraction

from heisgrad import fine
from heisgrad._linalg import (is_zero_vect, kernel, line_coeff, mat_apply, reduce_against,
                              rref, sparse, transpose, vadd, vscale, vzero)
from heisgrad.abelian import smith_normal_form
from heisgrad.fine import check_block, primitive_root, twist
from heisgrad.gradings import Grading
from heisgrad.liealg import Algebra, LinMap, VerifyReport, center, derived, is_automorphism
from heisgrad.scalars import divisors, root_of_unity_order
from heisgrad.weyl import GradedAut, PermGroup


def identity_map(a: Algebra) -> LinMap:
    return [a.basis_vect(i) for i in range(a.dim)]


def compose_maps(f: LinMap, g: LinMap) -> LinMap:
    """The map f o g."""
    return [mat_apply(f, col) for col in g]


def same_span(rows_a, rows_b) -> bool:
    ra, pa = rref(rows_a)
    rb, pb = rref(rows_b)
    return ra == rb and pa == pb


def checked(a: Algebra, blk):
    """blk, once its block identities hold for a.bracket."""
    check_block(a, a.basis_vect(0), a.basis_vect(a.dim - 1), blk)
    return blk


def xi_powers(a: Algebra, order):
    """[xi^t : t < order] for the primitive order-th root the blocks use."""
    return fine.ScalarClasses(twist(a), order).roots[1]


def block_i(a: Algebra, l, alpha, pairs):
    """The checked type-I block of fine._block_i (looked up on the module,
    so that a test may replace it)."""
    return checked(a, fine._block_i(a, xi_powers(a, l), alpha, pairs))


def block_ii(a: Algebra, l, alpha, pairs):
    """The checked type-II block of fine._block_ii."""
    return checked(a, fine._block_ii(a, xi_powers(a, 2 * l), alpha, pairs))


# --- dense structure-constant tables ----------------------------------------

def dense_table(a: Algebra):
    """table[i][j] = [b_i, b_j] as dense vectors, written out from a.terms."""
    table = [[vzero(a.ctx, a.dim)] * a.dim for _ in range(a.dim)]
    for i, row in enumerate(a.terms):
        for j, t in row:
            w = list(vzero(a.ctx, a.dim))
            for k, c in t:
                w[k] = c
            table[i][j] = tuple(w)
    return table


def heisenberg_super_table(k, m, ctx):
    """The dense table of H_{2k+1,m} filled entry by entry:
    [e_i, ehat_i] = z = -[ehat_i, e_i] and [w_j, w_j] = z."""
    dim = 2 * k + m + 1
    table = [[vzero(ctx, dim)] * dim for _ in range(dim)]
    one = ctx.one()
    z_vec = tuple(one if i == dim - 1 else ctx.zero() for i in range(dim))
    for i in range(k):
        e, eh = 2 * i, 2 * i + 1
        table[e][eh] = z_vec
        table[eh][e] = vscale(-one, z_vec)
    for j in range(m):
        w = 2 * k + j
        table[w][w] = z_vec
    return table


def twisted_table(lam):
    """The dense table of the twisted Heisenberg algebra filled entry by
    entry: [e_i, ehat_i] = lam_i z, [u, e_i] = lam_i ehat_i, [u, ehat_i] =
    lam_i e_i, and the skew partners."""
    ctx, k = lam[0].ctx, len(lam)
    dim = 2 * k + 2
    table = [[vzero(ctx, dim)] * dim for _ in range(dim)]
    zero = ctx.zero()
    z_vec = tuple(ctx.one() if i == dim - 1 else zero for i in range(dim))

    def unit(i, c):
        return tuple(c if j == i else zero for j in range(dim))

    for i in range(k):
        e, eh = 1 + 2 * i, 2 + 2 * i
        table[e][eh] = vscale(lam[i], z_vec)
        table[eh][e] = vscale(-lam[i], z_vec)
        table[0][e] = unit(eh, lam[i])
        table[e][0] = unit(eh, -lam[i])
        table[0][eh] = unit(e, lam[i])
        table[eh][0] = unit(e, -lam[i])
    return table


def color_table(a: Algebra, gr: Grading, t):
    """The dense table of color_algebra(t) filled from its labels and the
    degrees of its grading: [u, uh] = z and [uh, u] = -eps(-g + g0, g) z for
    each pair u, uh with u of degree g, and [s, s] = z."""
    dim, index = a.dim, {name: i for i, name in enumerate(a.labels)}
    degree = {next(i for i, c in enumerate(v) if c): g
              for g, vecs in gr.components.items() for v in vecs}
    table = [[vzero(a.ctx, dim)] * dim for _ in range(dim)]
    z_vec = a.basis_vect(index["z"])
    for name, i in index.items():
        if name.startswith("uh"):
            u = index["u" + name[2:]]
            table[u][i] = z_vec
            table[i][u] = vscale(-t.epsilon(-degree[u] + t.g0, degree[u]), z_vec)
        elif name.startswith("s"):
            table[i][i] = z_vec
    return table


def dense_center(a: Algebra):
    """Basis (rref) of {x : [x, L] = 0}, from every entry of the dense table."""
    table = dense_table(a)
    rows = [row for j in range(a.dim)
            for row in transpose([table[i][j] for i in range(a.dim)])]
    return kernel(rows, a.ctx, a.dim)


def dense_derived(a: Algebra):
    """Basis (rref) of [L, L], from every nonzero entry of the dense table."""
    table = dense_table(a)
    basis, _ = rref([table[i][j] for i in range(a.dim) for j in range(a.dim)
                     if not is_zero_vect(table[i][j])])
    return basis


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


def extendable_permutations(gr: Grading) -> list[tuple[int, ...]]:
    """Every support permutation of a grading with one-dimensional
    components that extends to an automorphism, by exhaustive search: an
    oracle for `weyl_bruteforce`, which searches for generators only.

    Permutations are enumerated with pruning (center fixed, parity,
    derived-subalgebra membership and degree additivity preserved); each
    leaf is accepted iff the free relations of the Smith normal form of
    the exponent matrix hold for the ratios gamma[p(i)][p(j)] / gamma[i][j].
    Raises AssertionError when the accepted leaves do not form a group."""
    a = gr.algebra
    support = gr.support
    n = len(support)
    basis = [gr.components[g][0] for g in support]
    pos = {g.key(): i for i, g in enumerate(support)}

    gamma = [[None] * n for _ in range(n)]
    target = [[None] * n for _ in range(n)]
    for i, g in enumerate(support):
        for j, h in enumerate(support):
            w = a.bracket(basis[i], basis[j])
            if is_zero_vect(w):
                continue
            k = pos[(g + h).key()]
            gamma[i][j] = line_coeff(w, basis[k])
            target[i][j] = k

    cen, der = rref(center(a)), rref(derived(a))
    flags = [(a.vect_parity(sparse(v)), is_zero_vect(reduce_against(*cen, v)),
              is_zero_vect(reduce_against(*der, v))) for v in basis]

    perm = [None] * n
    used = [False] * n
    forced = {}
    found = []

    def compatible(i, m):
        if flags[i] != flags[m]:
            return False
        if (gamma[i][i] is None) != (gamma[m][m] is None):
            return False
        for j in range(n):
            if perm[j] is None:
                continue
            for (x, y) in ((i, j), (j, i)):
                px, py = (m if x == i else perm[x]), (m if y == i else perm[y])
                if (gamma[x][y] is None) != (gamma[px][py] is None):
                    return False
        return True

    def propagate(i, m, trail):
        for j in range(n):
            if perm[j] is None and j != i:
                continue
            for (x, y) in ((i, j), (j, i), (i, i)):
                if x != i and y != i:
                    continue
                px = m if x == i else perm[x]
                py = m if y == i else perm[y]
                if gamma[x][y] is None:
                    continue
                k = target[x][y]
                k2 = target[px][py]
                if k2 is None:
                    return False
                if perm[k] is not None:
                    if perm[k] != k2:
                        return False
                elif k in forced:
                    if forced[k] != k2:
                        return False
                else:
                    forced[k] = k2
                    trail.append(k)
        return True

    pairs = [(i, j) for i in range(n) for j in range(n) if gamma[i][j] is not None]
    rows = []
    for i, j in pairs:
        row = [0] * n
        row[target[i][j]] += 1
        row[i] -= 1
        row[j] -= 1
        rows.append(row)
    u, d, _ = smith_normal_form(rows)
    free = [[(pairs[c], e) for c, e in enumerate(urow) if e]
            for urow, drow in zip(u, d) if not any(drow)]
    one = a.ctx.one()

    def scalars_solvable(p):
        for rel in free:
            prod = one
            for (i, j), e in rel:
                prod = prod * (gamma[p[i]][p[j]] / gamma[i][j]) ** e
            if prod != one:
                return False
        return True

    order = sorted(range(n), key=lambda i: -sum(gamma[i][j] is not None
                                                for j in range(n)))

    def search(depth):
        if depth == n:
            p = tuple(perm)
            if scalars_solvable(p):
                found.append(p)
            return
        i = order[depth]
        cands = [forced[i]] if i in forced else range(n)
        for m in cands:
            if used[m] or not compatible(i, m):
                continue
            trail = []
            perm[i] = m
            used[m] = True
            if propagate(i, m, trail):
                search(depth + 1)
            perm[i] = None
            used[m] = False
            for k in trail:
                del forced[k]

    search(0)
    assert PermGroup(n, found).order == len(found), \
        "the extendable permutations do not form a group"
    return sorted(found)


def dense_verify_axioms(a: Algebra) -> VerifyReport:
    """(Super) skew-symmetry and Jacobi by dense brackets of basis vectors,
    stopping at the Jacobi failure that makes 9 failures: an oracle for
    the sparse `verify_axioms`."""
    failures = []
    dim, table = a.dim, dense_table(a)
    for i in range(dim):
        for j in range(i, dim):
            sign = -1 if (a.parity[i] and a.parity[j]) else 1
            lhs = table[i][j]
            rhs = vscale(a.ctx.from_fraction(-sign), table[j][i])
            if lhs != rhs:
                failures.append(
                    f"skew-symmetry fails on ({a.labels[i]}, {a.labels[j]})")
    # [bi, [bj, bk]] = [[bi, bj], bk] + (-1)^(pi pj) [bj, [bi, bk]]
    b = [a.basis_vect(i) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = a.bracket(b[i], table[j][k])
                t1 = a.bracket(table[i][j], b[k])
                t2 = a.bracket(b[j], table[i][k])
                sign = -1 if (a.parity[i] and a.parity[j]) else 1
                rhs = vadd(t1, vscale(a.ctx.from_fraction(sign), t2))
                if lhs != rhs:
                    failures.append(
                        "jacobi fails on "
                        f"({a.labels[i]}, {a.labels[j]}, {a.labels[k]})")
                    if len(failures) > 8:
                        return VerifyReport(False, failures)
    return VerifyReport(not failures, failures)


def dense_verify_color_axioms(a: Algebra, gr: Grading, eps) -> VerifyReport:
    """Color skew-symmetry and Jacobi by dense brackets of the component
    vectors, stopping at the first failure: an oracle for the sparse
    `verify_color_axioms` on gradings whose components form a basis."""
    items = [(g, v) for g in gr.support for v in gr.components[g]]
    for ga, va in items:
        for gb, vb in items:
            lhs = a.bracket(va, vb)
            rhs = vscale(-eps(ga, gb), a.bracket(vb, va))
            if lhs != rhs:
                return VerifyReport(False, [
                    f"color skew-symmetry fails on degrees {ga}, {gb}"])
    for ga, va in items:
        for gb, vb in items:
            for gc, vc in items:
                lhs = a.bracket(va, a.bracket(vb, vc))
                rhs = vadd(a.bracket(a.bracket(va, vb), vc),
                           vscale(eps(ga, gb), a.bracket(vb, a.bracket(va, vc))))
                if lhs != rhs:
                    return VerifyReport(False, [
                        f"color Jacobi fails on degrees {ga}, {gb}, {gc}"])
    return VerifyReport(True, [])


def dense_induced_permutation(f: LinMap, gr: Grading, name: str = "") -> GradedAut:
    """The (sigma, c) of f on a grading by lines, by the dense
    `is_automorphism`, a reduction of each image against every component
    span and `line_coeff` of the image on the line it lies in: an oracle
    for the monomial `induced_permutation`."""
    a = gr.algebra
    if not is_automorphism(f, a):
        raise ValueError("map is not an algebra automorphism")
    support = gr.support
    spans = gr.spans
    perm, scale = [], []
    for g in support:
        images = [mat_apply(f, v) for v in gr.components[g]]
        target = None
        for i, h in enumerate(support):
            rows, pivots = spans[h]
            if len(rows) == len(images) and all(
                    is_zero_vect(reduce_against(rows, pivots, w)) for w in images):
                target = i
                break
        if target is None:
            raise ValueError(f"image of component {g} is not a component")
        perm.append(target)
        scale.append(line_coeff(images[0], gr.components[support[target]][0]))
    if sorted(perm) != list(range(len(support))):
        raise ValueError("induced map on components is not a bijection")
    return GradedAut(tuple(perm), tuple(scale), name)


def assert_table_matches_dense(gr: Grading):
    """gr.table against the dense brackets of the component vectors: the
    inverse inverts the basis, and each [b_i, b_j] is the sum of its
    nonzero terms c b_k (the zero vector when it has none)."""
    a = gr.algebra
    basis, parity, inv, terms = gr.table
    assert basis == [v for g in gr.support for v in gr.components[g]]
    assert parity == [a.vect_parity(sparse(b)) for b in basis]
    assert all(all(col.values()) for col in inv)  # sparse columns: nonzero entries only
    dense_inv = [a.dense(col.items()) for col in inv]
    assert [mat_apply(dense_inv, b) for b in basis] == [a.basis_vect(i) for i in range(a.dim)]
    for i, row in enumerate(terms):
        row = dict(row)
        assert all(row.values())  # a listed pair has a nonzero term
        for j, bj in enumerate(basis):
            want = a.zero_vect()
            for k, c in row.get(j, ()):
                assert c
                want = vadd(want, vscale(c, basis[k]))
            assert a.bracket(basis[i], bj) == want, (i, j)


# --- block-scalar classes, one (modulus, root) pair per side ----------------
#
# The classes of the block scalars spelled out key by key: a class is
# (modulus, sort key of its least member), with members walked as powers
# of one primitive modulus-th root.  heisgrad.fine.ScalarClasses answers
# the same questions through memoized representatives.

def _class_members(x, modulus, root):
    out, cur = [], x
    for _ in range(modulus):
        out.append(cur)
        cur = cur * root
    return out


def class_rep(x, modulus, root):
    """The least member of x's class up to the powers of root."""
    return min(_class_members(x, modulus, root), key=lambda v: v.sort_key())


def scalar_class_key(x, modulus, root):
    return (modulus, class_rep(x, modulus, root).sort_key())


def _class_ratios(scalars, base, modulus, root):
    out = {}
    for x in scalars:
        for cur in _class_members(x / base, modulus, root):
            out[cur] = None
    return list(out)


def scalar_class_data(lam, l):
    """(modulus, root) of the type-I and of the type-II classes: the l-th
    roots of unity, except the 2l-th roots for type I when l is odd."""
    xi = primitive_root(lam[0].ctx, l)
    if l % 2 == 0:
        return (l, xi), (l, xi)
    # -xi^((l+1)/2) is a primitive 2l-th root with square xi
    return (2 * l, -(xi ** ((l + 1) // 2))), (l, xi)


def equivalent_fine(lam, p, q):
    if (p.l, p.s, p.r) != (q.l, q.s, q.r):
        return False
    (bm, br), (am, ar) = scalar_class_data(lam, p.l)
    pb = Counter(scalar_class_key(b, bm, br) for b in p.betas)
    pa = Counter(scalar_class_key(x, am, ar) for x in p.alphas)

    def matches(eps):
        qb = Counter(scalar_class_key(eps * b, bm, br) for b in q.betas)
        qa = Counter(scalar_class_key(eps * x, am, ar) for x in q.alphas)
        return qb == pb and qa == pa

    if p.s:
        cands = _class_ratios(p.betas, q.betas[0], bm, br)
    else:
        cands = _class_ratios(p.alphas, q.alphas[0], am, ar)
    return any(matches(eps) for eps in cands)


def _epsilon_candidates(lam, p):
    beta_cls, alpha_cls = scalar_class_data(lam, p.l)
    scalars, (mod, root) = (p.betas, beta_cls) if p.s else (p.alphas, alpha_cls)
    one = lam[0].ctx.one()
    cands = [eps for eps in _class_ratios(scalars, scalars[0], mod, root)
             if eps != one and root_of_unity_order(eps) is not None]
    return sorted(cands, key=lambda v: v.sort_key())


def _class_bijection(scalars, eps, mod, root):
    """tau with class(eps * scalars[j]) = class(scalars[tau(j)]); None when
    eps does not permute the class multiset."""
    if not scalars:
        return []
    keys = [scalar_class_key(x, mod, root) for x in scalars]
    if Counter(scalar_class_key(eps * x, mod, root) for x in scalars) != Counter(keys):
        return None
    pools = {}
    for j, key in enumerate(keys):
        pools.setdefault(key, []).append(j)
    return [pools[scalar_class_key(eps * x, mod, root)].pop(0) for x in scalars]


def spectrum_rotations(lam, p):
    """(eps, tau_b, tau_a) for each candidate eps permuting both class
    multisets, in candidate order."""
    beta_cls, alpha_cls = scalar_class_data(lam, p.l)
    out = []
    for eps in _epsilon_candidates(lam, p):
        tau_b = _class_bijection(p.betas, eps, *beta_cls)
        tau_a = _class_bijection(p.alphas, eps, *alpha_cls)
        if tau_b is not None and tau_a is not None:
            out.append((eps, tau_b, tau_a))
    return out


# --- the spectrum condition and the enumeration on their own orbits ---------
#
# Each block orbit is walked as powers of the primitive root that
# primitive_root picks, apart from heisgrad.fine.ScalarClasses.orbit.

def block_orbit(mu, xi, l, paired):
    """The multiset {xi^t mu : 0 <= t < l}, with each value's negative too
    when paired."""
    xs = [mu]
    for _ in range(l - 1):
        xs.append(xs[-1] * xi)
    return Counter(y for x in xs for y in ((x, -x) if paired else (x,)))


def spectrum(lam):
    """The multiset {+-lam_i}."""
    return Counter(y for x in lam for y in (x, -x))


def spectrum_check(lam, p):
    """Multiset equality of {+-lam_i} against the block orbit values."""
    if p.l * (p.r + 2 * p.s) != 2 * len(lam):
        return False
    xi = primitive_root(lam[0].ctx, p.l)
    if xi is None:
        return False
    need = Counter()
    for b in p.betas:
        need += block_orbit(b, xi, p.l, True)
    for a in p.alphas:
        need += block_orbit(a, xi, p.l, False)
    return spectrum(lam) == need


def extract_blocks(spec, l, s, r, xi, key):
    """All splits of the spectrum multiset into s type-I and r type-II
    orbits, each block scalar pinned to the least member of its orbit."""
    if s == 0 and r == 0:
        return [((), ())] if not +spec else []
    live = [x for x, c in spec.items() if c > 0]
    if not live:
        return []
    mu = min(live, key=key)
    out = []
    if s > 0:
        orbit = block_orbit(mu, xi, l, True)
        if all(spec[x] >= c for x, c in orbit.items()):
            for betas, alphas in extract_blocks(spec - orbit, l, s - 1, r, xi, key):
                out.append(((mu,) + betas, alphas))
    if r > 0:
        orbit = block_orbit(mu, xi, l, False)
        if all(spec[x] >= c for x, c in orbit.items()):
            for betas, alphas in extract_blocks(spec - orbit, l, s, r - 1, xi, key):
                out.append((betas, (mu,) + alphas))
    return out


def shapes(lam):
    """(l, s, r, xi) for every block order l with a primitive l-th root and
    every split of the 2k spectrum values into s type-I and r type-II blocks."""
    k = len(lam)
    for l in divisors(2 * k):
        xi = primitive_root(lam[0].ctx, l)
        if xi is None:
            continue
        per = 2 * k // l
        for s in range(per // 2 + 1):
            r = per - 2 * s
            if not (r and l % 2):
                yield l, s, r, xi


def enumerate_twisted_fine(lam):
    """Every split that passes the spectrum condition, with each scalar
    replaced by its class_rep, sorted, and kept when no earlier one is
    equivalent to it."""
    found = []
    for l, s, r, xi in shapes(lam):
        (bm, br), (am, ar) = scalar_class_data(lam, l)
        for betas, alphas in extract_blocks(spectrum(lam), l, s, r, xi,
                                            lambda v: v.sort_key()):
            p = fine.FineTwistedParams(l, s, r, betas, alphas)
            if spectrum_check(lam, p):
                found.append(fine.FineTwistedParams(
                    l, s, r,
                    tuple(sorted((class_rep(b, bm, br) for b in betas), key=lambda v: v.sort_key())),
                    tuple(sorted((class_rep(x, am, ar) for x in alphas), key=lambda v: v.sort_key()))))
    found.sort(key=lambda p: (p.l, p.s, p.r, tuple(b.sort_key() for b in p.betas),
                              tuple(x.sort_key() for x in p.alphas)))
    reps = []
    for p in found:
        if not any(equivalent_fine(lam, p, q) for q in reps):
            reps.append(p)
    return reps
