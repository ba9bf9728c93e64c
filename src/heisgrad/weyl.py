"""Weyl groups of the fine gradings.

The Weyl group acts faithfully on the homogeneous components, so it is
computed as a permutation group: explicit generator automorphisms from
the structure of each family, their induced permutations, and a
stabilizer chain built from them by Schreier-Sims (Seress, Permutation
Group Algorithms, 2003, ch. 4).  A closed-form order count and an
independent brute-force search over support permutations (deciding
extendability to an automorphism exactly) serve as cross-checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial, lcm, prod

from ._linalg import (Vect, in_span, is_zero_vect, mat_apply, mat_inverse,
                      reduce_against, vscale)
from .abelian import smith_normal_form
from .fine import (FineTwistedParams, HeisenbergFine, SuperFine, TwistedFine,
                   class_ratios, rebase_block_i, rebase_block_ii,
                   scalar_class_data, scalar_class_key)
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


class PermGroup:
    """A stabilizer chain on the base 0..degree-1: level i holds the strong
    generators fixing the points below i and a transversal (orbit point of
    i -> coset representative u with u[i] = point, and u's inverse).  Each
    of gens is sifted through the chain built so far and kept only when it
    is not yet in the group."""

    def __init__(self, degree: int, gens: list[Perm] | tuple = ()):
        self.degree = degree
        self.gens: list[Perm] = []
        ident = tuple(range(degree))
        self.levels = [([], {i: (ident, ident)}) for i in range(degree)]
        for g in gens:
            i, h = self._sift(g)
            if i < degree:
                self.gens.append(g)
                self._grow(0, i, h)

    @property
    def order(self) -> int:
        return prod(len(trans) for _, trans in self.levels)

    @cached_property
    def elements(self) -> list[Perm]:
        out = [tuple(range(self.degree))]
        for _, trans in reversed(self.levels):
            out = [_pmul(u, g) for u, _ in trans.values() for g in out]
        return sorted(out)

    def _sift(self, g: Perm, start: int = 0) -> tuple[int, Perm]:
        # the first level whose orbit misses g's image of its point, with g's
        # residue there; (degree, identity) when g is in the group
        for i in range(start, self.degree):
            if g[i] != i:
                rep = self.levels[i][1].get(g[i])
                if rep is None:
                    return i, g
                g = _pmul(rep[1], g)
        return self.degree, g

    def _grow(self, lo: int, hi: int, h: Perm) -> None:
        # h fixes the points below hi: a strong generator of levels lo..hi
        todo = []
        for gens, trans in self.levels[lo:hi + 1]:
            gens.append(h)
            pairs = [(p, h) for p in trans]  # the new (point, generator) pairs
            for p, s in pairs:
                if s[p] not in trans:
                    u = _pmul(s, trans[p][0])
                    trans[s[p]] = (u, tuple(sorted(range(len(u)), key=u.__getitem__)))
                    pairs.extend((s[p], t) for t in gens)
            todo.append(pairs)
        for i in range(hi, lo - 1, -1):
            trans = self.levels[i][1]
            for p, s in todo[i - lo]:
                j, r = self._sift(_pmul(trans[s[p]][1], _pmul(s, trans[p][0])), i + 1)
                if j < self.degree:
                    self._grow(i + 1, j, r)

    def is_abelian(self) -> bool:
        return all(_pmul(a, b) == _pmul(b, a)
                   for i, a in enumerate(self.gens) for b in self.gens[i + 1:])

    def has_cyclic_index2(self) -> bool:
        # no element of S_degree has order above Landau's g(degree)
        if self.order > 2 * _landau(self.degree):
            return False
        return any(_perm_order(p) * 2 == self.order for p in self.elements)

    def dihedral_pattern(self) -> bool:
        """Non-abelian with a cyclic subgroup of index 2."""
        return (not self.is_abelian()) and self.has_cyclic_index2()


def _pmul(a: Perm, b: Perm) -> Perm:
    return tuple(map(a.__getitem__, b))


def _landau(n: int) -> int:
    """Landau's g(n), the largest element order in S_n (OEIS A000793)."""
    best = [1] * (n + 1)  # largest lcm of parts summing to at most m
    for p in (q for q in range(2, n + 1) if all(q % d for d in range(2, q))):
        for m in range(n, p - 1, -1):  # each prime once, as one power p^e <= m
            best[m] = max(best[m], *(best[m - p**e] * p**e
                                     for e in range(1, m.bit_length()) if p**e <= m))
    return best[n]


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p of length at least 2, each from its least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def _perm_order(p: Perm) -> int:
    return lcm(*(len(c) for c in _cycles(p)))


def perm_cycles(p: Perm) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in _cycles(p)) or "()"


def closure(perms: list[Perm], degree: int | None = None) -> PermGroup:
    """The group generated by a set of permutations, as a stabilizer chain."""
    if degree is None and not perms:
        raise ValueError("need a degree for an empty generating set")
    return PermGroup(len(perms[0]) if perms else degree, perms)


def induced_permutation(f: LinMap, gr: Grading, name: str = "") -> GradedAut:
    """The permutation of the (sorted) support induced by the
    automorphism f; raises if f is not a grading self-equivalence."""
    a = gr.algebra
    if not is_automorphism(f, a):
        raise ValueError("map is not an algebra automorphism")
    support = gr.support
    spans = gr.spans
    perm = []
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
    if sorted(perm) != list(range(len(support))):
        raise ValueError("induced map on components is not a bijection")
    return GradedAut(f, tuple(perm), name)


# --- standard generators ------------------------------------------------------
#
# Each family lists its generators as images of one homogeneous basis;
# standard_generators inverts that basis once for all of them.

Named = list[tuple[str, list[Vect]]]


def _map_from_basis_images(a: Algebra, basis: list[Vect],
                           image_lists: list[list[Vect]]) -> list[LinMap]:
    """For each image list, the linear map (in algebra coordinates)
    sending basis[m] to images[m]."""
    inv = mat_inverse(list(basis), a.ctx)
    if inv is None:
        raise ValueError("basis vectors are not independent")
    # column j of the map is sum_m inv[j][m] * images[m]
    return [[mat_apply(images, col) for col in inv] for images in image_lists]


def _swap_runs(basis: list[Vect], p0: int, p1: int, width: int) -> list[Vect]:
    """Images exchanging basis[p0:p0+width] with basis[p1:p1+width]."""
    img = list(basis)
    img[p0:p0 + width], img[p1:p1 + width] = basis[p1:p1 + width], basis[p0:p0 + width]
    return img


def _flip(a: Algebra, basis: list[Vect], p: int) -> list[Vect]:
    """Images of the symplectic flip (b_p, b_p+1) -> (b_p+1, -b_p)."""
    img = list(basis)
    img[p], img[p + 1] = basis[p + 1], vscale(a.ctx.from_fraction(-1), basis[p])
    return img


def _heisenberg_generators(a: Algebra, fam: HeisenbergFine) -> tuple[list[Vect], Named]:
    k = fam.k
    basis = [a.basis_vect(i) for i in range(a.dim)]
    gens = [(f"pair_swap({i + 1},{i + 2})", _swap_runs(basis, 2 * i, 2 * i + 2, 2))
            for i in range(k - 1)]
    gens.append(("symplectic_flip(1)", _flip(a, basis, 0)))
    return basis, gens


def _super_generators(a: Algebra, fam: SuperFine) -> tuple[list[Vect], Named]:
    k, r = fam.k, fam.r
    basis = [a.basis_vect(i) for i in range(2 * k)]
    for u, v in fam.uv:
        basis += [u, v]
    basis += list(fam.zs) + [fam.z]
    gens = [("symplectic_flip(1)", _flip(a, basis, 0))] if k >= 1 else []
    gens += [(f"pair_swap({i + 1},{i + 2})", _swap_runs(basis, 2 * i, 2 * i + 2, 2))
             for i in range(k - 1)]
    base_uv = 2 * k
    if r >= 1:
        # the odd pairing is symmetric, so the hyperbolic swap needs no sign
        gens.append(("odd_flip(1)", _swap_runs(basis, base_uv, base_uv + 1, 1)))
    gens += [(f"odd_pair_swap({j + 1},{j + 2})",
              _swap_runs(basis, base_uv + 2 * j, base_uv + 2 * j + 2, 2))
             for j in range(r - 1)]
    base_z = 2 * k + 2 * r
    gens += [(f"diag_swap({t + 1},{t + 2})", _swap_runs(basis, base_z + t, base_z + t + 1, 1))
             for t in range(len(fam.zs) - 1)]
    return basis, gens


def _twisted_block_basis(fam: TwistedFine):
    basis = [fam.u]
    index = {}
    for j, blk in enumerate(fam.blocks_i):
        for i, x in enumerate(blk.xs):
            index[("x", j, i)] = len(basis)
            basis.append(x)
        for i, y in enumerate(blk.ys):
            index[("y", j, i)] = len(basis)
            basis.append(y)
    for t, blk in enumerate(fam.blocks_ii):
        for i, x in enumerate(blk.xs):
            index[("a", t, i)] = len(basis)
            basis.append(x)
    basis.append(fam.z)
    return basis, index


def _twisted_generators(a: Algebra, fam: TwistedFine) -> tuple[list[Vect], Named]:
    p, lam = fam.params, list(fam.lam)
    blocks_i, blocks_ii = fam.blocks_i, fam.blocks_ii
    l, s, r = p.l, p.s, p.r
    ctx = a.ctx
    basis, index = _twisted_block_basis(fam)
    u_pos, z_pos = 0, len(basis) - 1
    gens: Named = []
    ii = ctx.i()
    minus = ctx.from_fraction(-1)

    # cyclic rotation inside one type-I block
    if l > 1:
        for j in range(s):
            img = list(basis)
            for i in range(l):
                img[index[("x", j, i)]] = vscale(ii, basis[index[("x", j, (i + 1) % l)]])
            for i in range(l):
                src = basis[index[("y", j, (i - 1) % l)]]
                if i == 0:
                    src = vscale(ctx.from_fraction((-1) ** l), src)
                img[index[("y", j, i)]] = vscale(ii, src)
            gens.append((f"cycle_I({j + 1})", img))
    if l % 2 == 0:
        # x/y exchange inside one type-I block
        for j in range(s):
            img = list(basis)
            for i in range(l):
                img[index[("x", j, i)]] = basis[index[("y", j, i)]]
                img[index[("y", j, i)]] = vscale(minus, basis[index[("x", j, i)]])
            gens.append((f"flip_I({j + 1})", img))
        # half-period shift inside one type-II block
        m = l // 2
        c = ii if m % 2 else ctx.one()
        for t in range(r):
            img = list(basis)
            for i in range(l):
                img[index[("a", t, i)]] = vscale(c, basis[index[("a", t, (i + m) % l)]])
            gens.append((f"half_shift_II({t + 1})", img))
    else:
        # global x/y exchange, negating u (odd l)
        img = list(basis)
        img[u_pos] = vscale(minus, basis[u_pos])
        for j in range(s):
            for i in range(l):
                sgn = ctx.from_fraction((-1) ** (i + 1))
                img[index[("x", j, i)]] = vscale(sgn, basis[index[("y", j, i)]])
                img[index[("y", j, i)]] = vscale(-sgn, basis[index[("x", j, i)]])
        gens.append(("flip_all_I", img))

    # swaps of adjacent blocks with equal scalars
    for j in range(s - 1):
        if p.betas[j] == p.betas[j + 1]:
            gens.append((f"swap_I({j + 1},{j + 2})", _swap_runs(
                basis, index[("x", j, 0)], index[("x", j + 1, 0)], 2 * l)))
    for t in range(r - 1):
        if p.alphas[t] == p.alphas[t + 1]:
            gens.append((f"swap_II({t + 1},{t + 2})", _swap_runs(
                basis, index[("a", t, 0)], index[("a", t + 1, 0)], l)))

    # spectrum rotations u -> u/eps for every root of unity eps that
    # permutes the block-scalar class multisets
    beta_cls, alpha_cls = scalar_class_data(lam, l)
    for eps in _epsilon_candidates(lam, p):
        tau_b = _class_bijection(p.betas, eps, *beta_cls)
        tau_a = _class_bijection(p.alphas, eps, *alpha_cls)
        if tau_b is None or tau_a is None:
            continue
        img = list(basis)
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
        gens.append((f"spectrum_rotation(order {o})", img))
    return basis, gens


def _epsilon_candidates(lam: list[CycloNum], p: FineTwistedParams) -> list[CycloNum]:
    """The roots of unity other than 1 among the ratios of block-scalar
    classes, sorted."""
    beta_cls, alpha_cls = scalar_class_data(lam, p.l)
    scalars, (mod, root) = (p.betas, beta_cls) if p.s else (p.alphas, alpha_cls)
    one = lam[0].ctx.one()
    cands = [eps for eps in class_ratios(scalars, scalars[0], mod, root)
             if eps != one and root_of_unity_order(eps) is not None]
    return sorted(cands, key=lambda v: v.sort_key())


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
    return [pools[scalar_class_key(eps * x, mod, root)].pop(0) for x in scalars]


_GENERATORS = {HeisenbergFine: _heisenberg_generators, SuperFine: _super_generators,
               TwistedFine: _twisted_generators}


def standard_generators(gr: Grading) -> list[tuple[str, LinMap]]:
    """Explicit generator automorphisms of the Weyl group of a fine
    grading produced by this package."""
    build = _GENERATORS.get(type(gr.family))
    if build is None:
        raise ValueError("grading does not carry fine-grading provenance")
    basis, gens = build(gr.algebra, gr.family)
    maps = _map_from_basis_images(gr.algebra, basis, [img for _, img in gens])
    return [(name, f) for (name, _), f in zip(gens, maps)]


# --- closed-form orders -------------------------------------------------------

@dataclass
class PQSplit:
    """The order p of the best spectrum-rotating root of unity and the
    least q with a class-trivial q-th power."""

    p: int
    q: int


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
    return PQSplit(pval, q)


def _multiplicities(scalars) -> list[int]:
    counts = Counter(scalars)
    return sorted(counts.values())


def weyl_order_formula(gr: Grading) -> int:
    """Closed-form order of the Weyl group of a fine grading."""
    fam = gr.family
    if isinstance(fam, HeisenbergFine):
        return 2**fam.k * factorial(fam.k)
    if isinstance(fam, SuperFine):
        k, m, r = fam.k, fam.m, fam.r
        return 2 ** (r + k) * factorial(k) * factorial(r) * factorial(m - 2 * r)
    if isinstance(fam, TwistedFine):
        p = fam.params
        pq = compute_pq(list(fam.lam), p)
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
    auts = [induced_permutation(f, gr, name) for name, f in standard_generators(gr)]
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
    normal form of the exponent matrix, computed once per grading (free
    relations must have product 1; torsion relations are radicals,
    always solvable over an algebraically closed extension)."""
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

    # the exponent rows e_k - e_i - e_j depend only on the grading; a leaf
    # is accepted iff the ratios gamma[p(i)][p(j)] / gamma[i][j] satisfy
    # the free relations: the rows of U whose row of D is zero
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

    def scalars_solvable(p: Perm) -> bool:
        for rel in free:
            prod = one
            for (i, j), e in rel:
                prod = prod * (gamma[p[i]][p[j]] / gamma[i][j]) ** e
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
    group = PermGroup(n, found)  # keeps as gens only the few not yet in the chain
    if group.order != len(found):
        raise ValueError("the extendable permutations do not form a group")
    group.elements = sorted(found)
    return group
