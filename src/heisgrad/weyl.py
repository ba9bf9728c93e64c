"""Weyl groups of the fine gradings.

The Weyl group acts faithfully on the homogeneous components, so it is
computed as a permutation group: explicit generator automorphisms from
the structure of each family, their induced permutations, and a
breadth-first closure.  A closed-form order count and an independent
brute-force search over support permutations (deciding extendability to
an automorphism exactly) serve as cross-checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial

from ._linalg import (Vect, in_span, is_zero_vect, mat_apply, mat_inverse,
                      rref, vadd, vscale, vzero)
from .abelian import smith_normal_form
from .fine import (BlockI, BlockII, FineTwistedParams, rebase_block_i,
                   rebase_block_ii, scalar_class, scalar_class_data,
                   scalar_class_key)
from .gradings import Grading
from .liealg import Algebra, LinMap, center, derived, is_automorphism
from .scalars import CycloNum, root_of_unity_order

__all__ = [
    "GradedAut", "PermGroup", "PQSplit",
    "induced_permutation", "standard_generators", "closure",
    "compute_pq", "weyl_order_formula", "weyl_group", "weyl_bruteforce",
    "WeylReport", "perm_cycles",
]

Perm = tuple[int, ...]


@dataclass
class GradedAut:
    """An automorphism together with its permutation of the support."""

    map: LinMap
    perm: Perm
    name: str = ""


@dataclass
class PermGroup:
    degree: int
    gens: list[Perm]
    elements: list[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        return all(_pmul(a, b) == _pmul(b, a)
                   for i, a in enumerate(self.gens) for b in self.gens[i + 1:])

    def has_cyclic_index2(self) -> bool:
        return any(_perm_order(p) * 2 == self.order for p in self.elements)

    def dihedral_pattern(self) -> bool:
        """Non-abelian with a cyclic subgroup of index 2."""
        return (not self.is_abelian()) and self.has_cyclic_index2()


def _pmul(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_order(p: Perm) -> int:
    n, q = 1, p
    ident = tuple(range(len(p)))
    while q != ident:
        q = _pmul(p, q)
        n += 1
    return n


def perm_cycles(p: Perm) -> str:
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        seen.add(i)
        out.append("(" + " ".join(str(c) for c in cyc) + ")")
    return "".join(out) if out else "()"


def closure(perms: list[Perm], degree: int | None = None) -> PermGroup:
    """Breadth-first closure of a set of permutations."""
    if not perms:
        if degree is None:
            raise ValueError("need a degree for an empty generating set")
        ident = tuple(range(degree))
        return PermGroup(degree, [], [ident])
    degree = len(perms[0])
    ident = tuple(range(degree))
    gens = [p for p in dict.fromkeys(perms) if p != ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _pmul(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return PermGroup(degree, gens, sorted(seen))


def induced_permutation(f: LinMap, gr: Grading, name: str = "") -> GradedAut:
    """The permutation of the (sorted) support induced by the
    automorphism f; raises if f is not a grading self-equivalence."""
    a = gr.algebra
    if not is_automorphism(f, a):
        raise ValueError("map is not an algebra automorphism")
    support = gr.support
    spans = {g: rref(list(gr.components[g]))[0] for g in support}
    perm = []
    for g in support:
        images = [mat_apply(f, v) for v in gr.components[g]]
        target = None
        for i, h in enumerate(support):
            if len(spans[h]) == len(images) and all(
                    in_span(list(spans[h]), w) for w in images):
                target = i
                break
        if target is None:
            raise ValueError(f"image of component {g} is not a component")
        perm.append(target)
    if sorted(perm) != list(range(len(support))):
        raise ValueError("induced map on components is not a bijection")
    return GradedAut(f, tuple(perm), name)


# --- standard generators ------------------------------------------------------

def _map_from_basis_images(a: Algebra, basis: list[Vect],
                           images: list[Vect]) -> LinMap:
    """The linear map (in algebra coordinates) sending basis[m] to images[m]."""
    inv = mat_inverse(list(basis), a.ctx)
    if inv is None:
        raise ValueError("basis vectors are not independent")
    cols = []
    for j in range(a.dim):
        acc = vzero(a.ctx, a.dim)
        for m in range(a.dim):
            c = inv[j][m]
            if c:
                acc = vadd(acc, vscale(c, images[m]))
        cols.append(acc)
    return cols


def _checked(a: Algebra, f: LinMap, name: str) -> tuple[str, LinMap]:
    if not is_automorphism(f, a):
        raise AssertionError(f"generator {name} is not an automorphism")
    return name, f


def _heisenberg_generators(a: Algebra, k: int) -> list[tuple[str, LinMap]]:
    out = []
    ident = [a.basis_vect(i) for i in range(a.dim)]
    for i in range(k - 1):  # adjacent pair transpositions
        cols = list(ident)
        cols[2 * i], cols[2 * i + 2] = ident[2 * i + 2], ident[2 * i]
        cols[2 * i + 1], cols[2 * i + 3] = ident[2 * i + 3], ident[2 * i + 1]
        out.append(_checked(a, cols, f"pair_swap({i + 1},{i + 2})"))
    cols = list(ident)
    cols[0] = ident[1]
    cols[1] = vscale(a.ctx.from_fraction(-1), ident[0])
    out.append(_checked(a, cols, "symplectic_flip(1)"))
    return out


def _super_generators(gr: Grading) -> list[tuple[str, LinMap]]:
    a = gr.algebra
    meta = gr.meta
    k, r = meta["k"], meta["r"]
    uv, zs, z = list(meta["uv"]), list(meta["zs"]), meta["z"]
    q = len(zs)
    basis = [a.basis_vect(i) for i in range(2 * k)]
    for u, v in uv:
        basis += [u, v]
    basis += zs + [z]
    out = []

    def build(images, name):
        return _checked(a, _map_from_basis_images(a, basis, images), name)

    ident = list(basis)
    if k >= 1:
        img = list(ident)
        img[0], img[1] = basis[1], vscale(a.ctx.from_fraction(-1), basis[0])
        out.append(build(img, "symplectic_flip(1)"))
    for i in range(k - 1):
        img = list(ident)
        img[2 * i], img[2 * i + 2] = basis[2 * i + 2], basis[2 * i]
        img[2 * i + 1], img[2 * i + 3] = basis[2 * i + 3], basis[2 * i + 1]
        out.append(build(img, f"pair_swap({i + 1},{i + 2})"))
    base_uv = 2 * k
    if r >= 1:
        # the odd pairing is symmetric, so the hyperbolic swap needs no sign
        img = list(ident)
        img[base_uv], img[base_uv + 1] = basis[base_uv + 1], basis[base_uv]
        out.append(build(img, "odd_flip(1)"))
    for j in range(r - 1):
        img = list(ident)
        p0, p1 = base_uv + 2 * j, base_uv + 2 * j + 2
        img[p0], img[p1] = basis[p1], basis[p0]
        img[p0 + 1], img[p1 + 1] = basis[p1 + 1], basis[p0 + 1]
        out.append(build(img, f"odd_pair_swap({j + 1},{j + 2})"))
    base_z = 2 * k + 2 * r
    for t in range(q - 1):
        img = list(ident)
        img[base_z + t], img[base_z + t + 1] = basis[base_z + t + 1], basis[base_z + t]
        out.append(build(img, f"diag_swap({t + 1},{t + 2})"))
    return out


def _twisted_block_basis(gr: Grading):
    a = gr.algebra
    meta = gr.meta
    blocks_i: list[BlockI] = meta["blocks_i"]
    blocks_ii: list[BlockII] = meta["blocks_ii"]
    basis = [meta["u"]]
    index = {}
    for j, blk in enumerate(blocks_i):
        for i, x in enumerate(blk.xs):
            index[("x", j, i)] = len(basis)
            basis.append(x)
        for i, y in enumerate(blk.ys):
            index[("y", j, i)] = len(basis)
            basis.append(y)
    for t, blk in enumerate(blocks_ii):
        for i, x in enumerate(blk.xs):
            index[("a", t, i)] = len(basis)
            basis.append(x)
    basis.append(meta["z"])
    return basis, index


def _twisted_generators(gr: Grading) -> list[tuple[str, LinMap]]:
    a = gr.algebra
    meta = gr.meta
    p: FineTwistedParams = meta["params"]
    lam = list(meta["lam"])
    blocks_i: list[BlockI] = meta["blocks_i"]
    blocks_ii: list[BlockII] = meta["blocks_ii"]
    l, s, r = p.l, p.s, p.r
    ctx = a.ctx
    basis, index = _twisted_block_basis(gr)
    ident = list(basis)
    u_pos, z_pos = 0, len(basis) - 1
    out = []

    def build(images, name):
        return _checked(a, _map_from_basis_images(a, basis, images), name)

    ii = ctx.i()
    minus = ctx.from_fraction(-1)

    # cyclic rotation inside one type-I block
    if l > 1:
        for j in range(s):
            img = list(ident)
            for i in range(l):
                img[index[("x", j, i)]] = vscale(ii, basis[index[("x", j, (i + 1) % l)]])
            for i in range(l):
                src = basis[index[("y", j, (i - 1) % l)]]
                if i == 0:
                    src = vscale(ctx.from_fraction((-1) ** l), src)
                img[index[("y", j, i)]] = vscale(ii, src)
            out.append(build(img, f"cycle_I({j + 1})"))
    if l % 2 == 0:
        # x/y exchange inside one type-I block
        for j in range(s):
            img = list(ident)
            for i in range(l):
                img[index[("x", j, i)]] = basis[index[("y", j, i)]]
                img[index[("y", j, i)]] = vscale(minus, basis[index[("x", j, i)]])
            out.append(build(img, f"flip_I({j + 1})"))
        # half-period shift inside one type-II block
        m = l // 2
        c = ii if m % 2 else ctx.one()
        for t in range(r):
            img = list(ident)
            for i in range(l):
                img[index[("a", t, i)]] = vscale(c, basis[index[("a", t, (i + m) % l)]])
            out.append(build(img, f"half_shift_II({t + 1})"))
    else:
        # global x/y exchange, negating u (odd l)
        img = list(ident)
        img[u_pos] = vscale(minus, basis[u_pos])
        for j in range(s):
            for i in range(l):
                sgn = ctx.from_fraction((-1) ** (i + 1))
                img[index[("x", j, i)]] = vscale(sgn, basis[index[("y", j, i)]])
                img[index[("y", j, i)]] = vscale(-sgn, basis[index[("x", j, i)]])
        out.append(build(img, "flip_all_I"))

    # swaps of adjacent blocks with equal scalars
    for j in range(s - 1):
        if p.betas[j] == p.betas[j + 1]:
            img = list(ident)
            for i in range(l):
                img[index[("x", j, i)]] = basis[index[("x", j + 1, i)]]
                img[index[("x", j + 1, i)]] = basis[index[("x", j, i)]]
                img[index[("y", j, i)]] = basis[index[("y", j + 1, i)]]
                img[index[("y", j + 1, i)]] = basis[index[("y", j, i)]]
            out.append(build(img, f"swap_I({j + 1},{j + 2})"))
    for t in range(r - 1):
        if p.alphas[t] == p.alphas[t + 1]:
            img = list(ident)
            for i in range(l):
                img[index[("a", t, i)]] = basis[index[("a", t + 1, i)]]
                img[index[("a", t + 1, i)]] = basis[index[("a", t, i)]]
            out.append(build(img, f"swap_II({t + 1},{t + 2})"))

    # spectrum rotations u -> u/eps for every root of unity eps that
    # permutes the block-scalar class multisets
    beta_cls, alpha_cls = scalar_class_data(lam, l)
    for eps in _epsilon_candidates(lam, p):
        tau_b = _class_bijection(p.betas, eps, *beta_cls)
        tau_a = _class_bijection(p.alphas, eps, *alpha_cls)
        if tau_b is None or tau_a is None:
            continue
        img = list(ident)
        img[u_pos] = vscale(eps.inv(), basis[u_pos])
        img[z_pos] = vscale(eps, basis[z_pos])
        for j in range(s):
            blk = rebase_block_i(a, blocks_i[tau_b[j]], eps * p.betas[j])
            for i in range(l):
                img[index[("x", j, i)]] = blk.xs[i]
                img[index[("y", j, i)]] = blk.ys[i]
        for t in range(r):
            blk = rebase_block_ii(a, blocks_ii[tau_a[t]], eps * p.alphas[t])
            for i in range(l):
                img[index[("a", t, i)]] = blk.xs[i]
        o = root_of_unity_order(eps)
        out.append(build(img, f"spectrum_rotation(order {o})"))
    return out


def _epsilon_candidates(lam: list[CycloNum], p: FineTwistedParams) -> list[CycloNum]:
    ctx = lam[0].ctx
    beta_cls, alpha_cls = scalar_class_data(lam, p.l)
    cands = {}
    scalars = list(p.betas) if p.s else list(p.alphas)
    mod, root = beta_cls if p.s else alpha_cls
    base = scalars[0]
    for target in scalars:
        cur = target / base
        for _ in range(mod):
            o = root_of_unity_order(cur)
            if o is not None and cur != ctx.one():
                cands.setdefault(cur.coeffs, cur)
            cur = cur * root
    return sorted(cands.values(), key=lambda v: v.sort_key())


def _class_bijection(scalars, eps, mod: int, root: CycloNum):
    """tau with class(eps * scalars[j]) = class(scalars[tau(j)]), grouping
    equal scalars; None when eps does not permute the class multiset."""
    if not scalars:
        return []
    keys = [scalar_class_key(x, mod, root) for x in scalars]
    if Counter(scalar_class_key(eps * x, mod, root) for x in scalars) != Counter(keys):
        return None
    pools: dict = {}
    for j, key in enumerate(keys):
        pools.setdefault(key, []).append(j)
    work = {k: list(v) for k, v in pools.items()}
    tau = [None] * len(scalars)
    for j, x in enumerate(scalars):
        key = scalar_class_key(eps * x, mod, root)
        tau[j] = work[key].pop(0)
    return tau


def standard_generators(gr: Grading) -> list[tuple[str, LinMap]]:
    """Explicit generator automorphisms of the Weyl group of a fine
    grading produced by this package."""
    fam = gr.meta.get("family")
    if fam == "heisenberg":
        return _heisenberg_generators(gr.algebra, gr.meta["k"])
    if fam == "super":
        return _super_generators(gr)
    if fam == "twisted":
        return _twisted_generators(gr)
    raise ValueError("grading does not carry fine-grading provenance")


# --- closed-form orders -------------------------------------------------------

@dataclass
class PQSplit:
    """The order p of the best spectrum-rotating root of unity and the
    least q with a class-trivial q-th power, plus the class sets."""

    p: int
    q: int
    eps: CycloNum
    x_classes: list
    y_classes: list


def compute_pq(lam: list[CycloNum], p: FineTwistedParams) -> PQSplit:
    ctx = lam[0].ctx
    (bm, br), (am, ar) = scalar_class_data(lam, p.l)
    bkeys = Counter(scalar_class_key(b, bm, br) for b in p.betas)
    akeys = Counter(scalar_class_key(x, am, ar) for x in p.alphas)

    def split_ok(eps, order) -> bool:
        # multiset reading: each orbit of classes has constant multiplicity
        # and order divides multiplicity * orbit length
        for keys, mod, root, scalars in ((bkeys, bm, br, p.betas),
                                         (akeys, am, ar, p.alphas)):
            if not scalars:
                continue
            seen = set()
            for key in keys:
                if key in seen:
                    continue
                rep = min((x for x in scalars
                           if scalar_class_key(x, mod, root) == key),
                          key=lambda v: v.sort_key())
                orbit = []
                cur = rep
                while True:
                    k = scalar_class_key(cur, mod, root)
                    if k in [o[0] for o in orbit]:
                        break
                    orbit.append((k, keys.get(k, 0)))
                    cur = eps * cur
                mults = {m for _, m in orbit}
                if len(mults) != 1 or 0 in mults:
                    return False
                mult = mults.pop()
                if (mult * len(orbit)) % order:
                    return False
                seen.update(k for k, _ in orbit)
        return True

    best = (1, ctx.one())
    for eps in _epsilon_candidates(lam, p):
        order = root_of_unity_order(eps)
        if order is None or order <= best[0]:
            continue
        if split_ok(eps, order):
            best = (order, eps)
    pval, eps = best
    q = 1
    if pval > 1:
        mod, root = (bm, br) if p.s else (am, ar)
        trivial = scalar_class_key(ctx.one(), mod, root)
        cur = eps
        while scalar_class_key(cur, mod, root) != trivial:
            cur = cur * eps
            q += 1
    y_classes = sorted({scalar_class(b, bm, br) for b in p.betas},
                       key=lambda c: c.rep.sort_key())
    x_classes = sorted({scalar_class(x, am, ar) for x in p.alphas},
                       key=lambda c: c.rep.sort_key())
    return PQSplit(pval, q, eps, x_classes, y_classes)


def _multiplicities(scalars) -> list[int]:
    counts = Counter(x.coeffs for x in scalars)
    return sorted(counts.values())


def weyl_order_formula(gr: Grading) -> int:
    """Closed-form order of the Weyl group of a fine grading."""
    fam = gr.meta.get("family")
    if fam == "heisenberg":
        k = gr.meta["k"]
        return 2**k * factorial(k)
    if fam == "super":
        k, m, r = gr.meta["k"], gr.meta["m"], gr.meta["r"]
        return 2 ** (r + k) * factorial(k) * factorial(r) * factorial(m - 2 * r)
    if fam == "twisted":
        p: FineTwistedParams = gr.meta["params"]
        lam = list(gr.meta["lam"])
        pq = compute_pq(lam, p)
        m_mults = _multiplicities(p.betas)
        n_mults = _multiplicities(p.alphas)
        if p.l % 2 == 0:
            out = pq.q * (2 * p.l) ** p.s * 2**p.r
            for v in m_mults + n_mults:
                out *= factorial(v)
        else:
            out = 2 * pq.q * p.l**p.s
            for v in m_mults:
                out *= factorial(v)
        return out
    raise ValueError("grading does not carry fine-grading provenance")


@dataclass
class WeylReport:
    grading: Grading
    generators: list[GradedAut]
    group: PermGroup
    formula_order: int
    agree: bool
    brute_order: int | None = None


def weyl_group(gr: Grading, brute: bool = False, cap: int = 12) -> WeylReport:
    """Closure of the standard generators, the closed-form order, and
    (optionally) the brute-force order; disagreements are reported via
    the `agree` flag, with the closure as ground truth."""
    if brute and len(gr.support) > cap:
        raise CapExceeded(f"support size {len(gr.support)} exceeds the cap {cap}")
    auts = [induced_permutation(f, gr, name)
            for name, f in standard_generators(gr)]
    group = closure([g.perm for g in auts], degree=len(gr.support))
    formula = weyl_order_formula(gr)
    brute_order = None
    if brute:
        brute_order = weyl_bruteforce(gr, cap).order
    return WeylReport(gr, auts, group, formula, group.order == formula, brute_order)


# --- brute force --------------------------------------------------------------

class CapExceeded(ValueError):
    pass


def weyl_bruteforce(gr: Grading, cap: int = 12) -> PermGroup:
    """All support permutations that extend to an automorphism.

    Permutations are enumerated with pruning (center fixed, parity,
    derived-subalgebra membership and degree additivity preserved); each
    survivor is accepted iff the induced multiplicative system on the
    per-component scalars is solvable, decided exactly via the Smith
    normal form of the exponent matrix (free relations must have
    product 1; torsion relations are radicals, always solvable over an
    algebraically closed extension)."""
    a = gr.algebra
    support = gr.support
    n = len(support)
    if n > cap:
        raise CapExceeded(f"support size {n} exceeds the cap {cap}")
    if any(len(gr.components[g]) != 1 for g in support):
        raise ValueError("brute force requires one-dimensional components")
    basis = [gr.components[g][0] for g in support]
    pos = {g.key(): i for i, g in enumerate(support)}

    gamma: list[list[CycloNum | None]] = [[None] * n for _ in range(n)]
    target: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, g in enumerate(support):
        for j, h in enumerate(support):
            w = a.bracket(basis[i], basis[j])
            if is_zero_vect(w):
                continue
            k = pos[(g + h).key()]
            b = basis[k]
            piv = next(t for t, c in enumerate(b) if c)
            coef = w[piv] / b[piv]
            gamma[i][j] = coef
            target[i][j] = k

    cen = center(a)
    der = derived(a)
    parity = [a.vect_parity(v) for v in basis]
    in_center = [in_span(cen, v) for v in basis]
    in_derived = [in_span(der, v) for v in basis]
    flags = list(zip(parity, in_center, in_derived))

    perm = [None] * n
    used = [False] * n
    forced: dict[int, int] = {}
    found: list[Perm] = []

    def compatible(i: int, m: int) -> bool:
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

    def propagate(i: int, m: int, trail: list[int]) -> bool:
        # record forced images of bracket targets; detect conflicts
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

    def scalars_solvable(p: Perm) -> bool:
        rows, rhs = [], []
        for i in range(n):
            for j in range(n):
                if gamma[i][j] is None:
                    continue
                k = target[i][j]
                row = [0] * n
                row[k] += 1
                row[i] -= 1
                row[j] -= 1
                rows.append(row)
                rhs.append(gamma[p[i]][p[j]] / gamma[i][j])
        if not rows:
            return True
        u, d, _ = smith_normal_form(rows)
        one = a.ctx.one()
        for ri in range(len(rows)):
            if all((d[ri][c] if c < n else 0) == 0 for c in range(n)):
                prod = one
                for c, e in enumerate(u[ri]):
                    if e:
                        prod = prod * rhs[c] ** e
                if prod != one:
                    return False
        return True

    order = sorted(range(n), key=lambda i: -sum(gamma[i][j] is not None
                                                for j in range(n)))

    def search(depth: int):
        if depth == n:
            p = tuple(perm)
            if scalars_solvable(p):
                found.append(p)
            return
        i = order[depth]
        cands = [forced[i]] if i in forced else [m for m in range(n) if not used[m]]
        for m in cands:
            if used[m] or not compatible(i, m):
                continue
            trail: list[int] = []
            perm[i] = m
            used[m] = True
            if propagate(i, m, trail):
                search(depth + 1)
            perm[i] = None
            used[m] = False
            for k in trail:
                del forced[k]

    search(0)
    ident = tuple(range(n))
    gens = [p for p in found if p != ident]
    return PermGroup(n, gens, sorted(found))
