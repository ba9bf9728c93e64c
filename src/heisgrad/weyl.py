"""Weyl groups of the fine gradings.

The Weyl group acts faithfully on the homogeneous components, so it is
computed as a permutation group: explicit generator automorphisms from
the structure of each family, their induced permutations, and a
stabilizer chain built from them by Schreier-Sims (Seress, Permutation
Group Algorithms, 2003, ch. 4).  A closed-form order count and a
brute-force search over support permutations (deciding extendability to
an automorphism exactly) serve as cross-checks.  The closed form's
rotation factor counts the spectrum rotations that the generators use,
so only the brute force (support at most its cap, 16 by default) is
independent of the closure; the four support-18 classes of the zeta_8
orbit (1, zeta_8, ..., zeta_8^7) have no independent check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial, lcm, prod
from operator import itemgetter

from ._linalg import Vect, mat_apply, sparse, sparse_apply
from .abelian import smith_normal_form
from .fine import (FineTwistedParams, HeisenbergFine, ScalarClasses, SuperFine,
                   TwistedFine, rebase_scales_i, rebase_scales_ii)
from .gradings import Grading
from .liealg import Algebra, LinMap
from .scalars import CycloNum, root_of_unity_order

__all__ = [
    "GradedAut", "PermGroup",
    "induced_permutation", "standard_generators", "generator_matrix", "closure",
    "weyl_order_formula", "weyl_group", "weyl_bruteforce",
    "WeylReport", "perm_cycles",
]

Perm = tuple[int, ...]


@dataclass
class GradedAut:
    """A grading self-equivalence, b_m -> scale[m] b_perm[m] on the basis b of Grading.table."""

    perm: Perm
    scale: tuple[CycloNum, ...]
    name: str = ""


class PermGroup:
    """A stabilizer chain on the base 0..degree-1: level i holds the strong
    generators fixing the points below i and a transversal (orbit point of
    i -> coset representative u with u[i] = point, and u's inverse).  Each
    of gens is added in turn."""

    def __init__(self, degree: int, gens: list[Perm] | tuple = ()):
        self.degree = degree
        self.gens: list[Perm] = []
        self.ident = ident = tuple(range(degree))
        self.levels = [([], {i: (ident, ident)}) for i in range(degree)]
        for g in gens:
            self.add(g)

    def add(self, g: Perm) -> None:
        """Sift g through the chain and, when it is not yet in the group,
        keep it and grow the chain in place."""
        i, h = self._sift(g)
        if i < self.degree:
            self.gens.append(g)
            self._grow(0, i, h)
            self.__dict__.pop("elements", None)

    @property
    def order(self) -> int:
        return prod(len(trans) for _, trans in self.levels)

    @cached_property
    def elements(self) -> list[Perm]:
        out = [self.ident]
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
                if g == self.ident:
                    break
        return self.degree, g

    def _grow(self, lo: int, hi: int, h: Perm) -> None:
        # h fixes the points below hi: a strong generator of levels lo..hi
        todo = []
        for gens, trans in self.levels[lo:hi + 1]:
            gens.append(h)
            pairs = [(p, h) for p in trans]  # the new (point, generator) pairs
            schreier = []  # those off the tree: a tree edge's generator is 1
            for p, s in pairs:
                if s[p] not in trans:
                    u = _pmul(s, trans[p][0])
                    trans[s[p]] = (u, tuple(sorted(range(len(u)), key=u.__getitem__)))
                    pairs.extend((s[p], t) for t in gens)
                else:
                    schreier.append((p, s))
            todo.append(schreier)
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
    # one C call; itemgetter takes no empty index list and gives a bare item for one
    return itemgetter(*b)(a) if len(b) > 1 else tuple(map(a.__getitem__, b))


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


def _line_table(gr: Grading, what: str):
    """gr.table, for a grading whose components are lines forming a basis."""
    if any(len(vecs) != 1 for vecs in gr.components.values()) or gr.table.terms is None:
        raise ValueError(f"{what} requires one-dimensional components forming a basis")
    return gr.table


def induced_permutation(f: LinMap, gr: Grading, name: str = "") -> GradedAut:
    """The (sigma, c) of the automorphism f on the basis b of gr.table;
    raises if f is not a grading self-equivalence: f must be monomial in
    that basis, f(b_m) = c_m b_sigma(m), and pass _monomial_aut."""
    table = _line_table(gr, "an induced permutation")
    if len(f) != gr.algebra.dim:
        raise ValueError("map is not an algebra automorphism")
    images = [sparse_apply(table.inverse, sparse(mat_apply(f, b))) for b in table.basis]
    for g, image in zip(gr.support, images):
        if len(image) != 1:
            raise ValueError(f"image of component {g} is not a component")
    perm, scale = zip(*(term for image in images for term in image.items()))
    return _monomial_aut(gr, perm, scale, name)


def _monomial_aut(gr: Grading, perm, scale, name: str) -> GradedAut:
    """(perm, scale), b_m -> scale[m] b_perm[m] on the basis b of gr.table,
    once it is a grading self-equivalence: perm a bijection keeping the
    parities of the b_m (a mixed vector is rejected) that sends
    [b_m, b_n] = sum g_k b_k to sum c_k g_k b_perm(k), c = scale."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("induced map on components is not a bijection")
    par = gr.table.parity
    if any(par[m] is None or par[m] != par[p] for m, p in enumerate(perm)):
        raise ValueError("map is not an algebra automorphism")
    # p permutes the pairs, so the pairs with zero bracket go to such pairs
    terms = gr.table.terms
    rows = [dict(row) for row in terms]
    for m, row in enumerate(terms):
        for n, t in row:  # c_m c_n [b_p(m), b_p(n)] = f([b_m, b_n])
            if ({perm[k]: scale[k] * c for k, c in t}
                    != {k: scale[m] * scale[n] * c for k, c in rows[perm[m]].get(perm[n], ())}):
                raise ValueError("map is not an algebra automorphism")
    return GradedAut(tuple(perm), tuple(scale), name)


# --- standard generators ------------------------------------------------------
#
# Each family writes its generators as moves (b, b', c), b -> c b', between
# the component vectors of the grading; a vector no move names is fixed.

Move = tuple[Vect, Vect, CycloNum]
Named = list[tuple[str, list[Move]]]


def _swap(a: Algebra, xs, ys) -> list[Move]:
    """Moves exchanging xs[i] with ys[i]."""
    one = a.ctx.one()
    return [m for x, y in zip(xs, ys) for m in ((x, y, one), (y, x, one))]


def _flip(a: Algebra, x: Vect, y: Vect) -> list[Move]:
    """Moves of the symplectic flip (x, y) -> (y, -x)."""
    return [(x, y, a.ctx.one()), (y, x, a.ctx.from_fraction(-1))]


def _heisenberg_generators(a: Algebra, fam: HeisenbergFine) -> Named:
    b = a.basis_vect
    gens = [(f"pair_swap({i + 1},{i + 2})", _swap(a, (b(2 * i), b(2 * i + 1)),
                                                  (b(2 * i + 2), b(2 * i + 3))))
            for i in range(fam.k - 1)]
    return gens + [("symplectic_flip(1)", _flip(a, b(0), b(1)))]


def _super_generators(a: Algebra, fam: SuperFine) -> Named:
    b = a.basis_vect
    gens = [("symplectic_flip(1)", _flip(a, b(0), b(1)))] if fam.k >= 1 else []
    gens += [(f"pair_swap({i + 1},{i + 2})", _swap(a, (b(2 * i), b(2 * i + 1)),
                                                   (b(2 * i + 2), b(2 * i + 3))))
             for i in range(fam.k - 1)]
    uv = fam.uv
    if uv:
        # the odd pairing is symmetric, so the hyperbolic swap needs no sign
        gens.append(("odd_flip(1)", _swap(a, uv[0][:1], uv[0][1:])))
    gens += [(f"odd_pair_swap({j + 1},{j + 2})", _swap(a, uv[j], uv[j + 1]))
             for j in range(fam.r - 1)]
    gens += [(f"diag_swap({t + 1},{t + 2})", _swap(a, fam.zs[t:t + 1], fam.zs[t + 1:t + 2]))
             for t in range(len(fam.zs) - 1)]
    return gens


def _twisted_generators(a: Algebra, fam: TwistedFine) -> Named:
    p, l = fam.params, fam.params.l
    blocks_i, blocks_ii = fam.blocks_i, fam.blocks_ii
    ctx = a.ctx
    ii, minus, sign = ctx.i(), ctx.from_fraction(-1), ctx.from_fraction((-1) ** l)
    gens: Named = []

    # cyclic rotation inside one type-I block
    if l > 1:
        for j, blk in enumerate(blocks_i):
            xs, ys = blk.xs, blk.ys
            gens.append((f"cycle_I({j + 1})",
                         [(xs[i], xs[(i + 1) % l], ii) for i in range(l)]
                         + [(ys[i], ys[i - 1], sign * ii if i == 0 else ii)
                            for i in range(l)]))
    if l % 2 == 0:
        # x/y exchange inside one type-I block
        for j, blk in enumerate(blocks_i):
            gens.append((f"flip_I({j + 1})", [m for x, y in zip(blk.xs, blk.ys)
                                              for m in _flip(a, x, y)]))
        # half-period shift inside one type-II block
        m = l // 2
        c = ii if m % 2 else ctx.one()
        for t, blk in enumerate(blocks_ii):
            gens.append((f"half_shift_II({t + 1})",
                         [(blk.xs[i], blk.xs[(i + m) % l], c) for i in range(l)]))
    else:
        # global x/y exchange, negating u (odd l)
        moves = [(fam.u, fam.u, minus)]
        for blk in blocks_i:
            for i in range(l):
                sgn = ctx.from_fraction((-1) ** (i + 1))
                moves += [(blk.xs[i], blk.ys[i], sgn), (blk.ys[i], blk.xs[i], -sgn)]
        gens.append(("flip_all_I", moves))

    # swaps of adjacent blocks with equal scalars
    for j in range(p.s - 1):
        if p.betas[j] == p.betas[j + 1]:
            gens.append((f"swap_I({j + 1},{j + 2})",
                         _swap(a, blocks_i[j].elements(), blocks_i[j + 1].elements())))
    for t in range(p.r - 1):
        if p.alphas[t] == p.alphas[t + 1]:
            gens.append((f"swap_II({t + 1},{t + 2})",
                         _swap(a, blocks_ii[t].xs, blocks_ii[t + 1].xs)))

    # spectrum rotations u -> u/eps; block j goes onto block tau(j) rebased
    # to the scalar eps * beta_j
    for eps, tau_b, tau_a in _spectrum_rotations(fam.classes, p):
        moves = [(fam.u, fam.u, eps.inv()), (fam.z, fam.z, eps)]
        for blk, beta, src in zip(blocks_i, p.betas, (blocks_i[j] for j in tau_b)):
            swap, xsc, ysc = rebase_scales_i(l, eps * beta / src.alpha)
            xs, ys = (src.ys, src.xs) if swap else (src.xs, src.ys)
            moves += list(zip(blk.xs, xs, xsc)) + list(zip(blk.ys, ys, ysc))
        for blk, alpha, src in zip(blocks_ii, p.alphas, (blocks_ii[t] for t in tau_a)):
            moves += list(zip(blk.xs, src.xs, rebase_scales_ii(src.l, eps * alpha / src.alpha)))
        o = root_of_unity_order(eps)
        gens.append((f"spectrum_rotation(order {o})", moves))
    return gens


def _spectrum_rotations(classes: ScalarClasses, p: FineTwistedParams):
    """(eps, tau_b, tau_a) for each candidate eps that permutes the class
    multisets of the block scalars, in candidate order: tau sends j to an
    index whose scalar has the class of eps times the j-th."""
    profile = classes.profile(p)
    return [(eps, _class_bijection(classes, p.betas, eps, 0),
             _class_bijection(classes, p.alphas, eps, 1))
            for eps in classes.candidates(p) if classes.profile(p, eps) == profile]


def _class_bijection(classes: ScalarClasses, scalars, eps: CycloNum, side: int) -> list[int]:
    """tau with class(eps * scalars[j]) = class(scalars[tau(j)]), pairing
    the indices of one class in order; eps must permute the classes."""
    pools: dict = {}
    for j, x in enumerate(scalars):
        pools.setdefault(classes.rep(x, side), []).append(j)
    return [pools[classes.rep(eps * x, side)].pop(0) for x in scalars]


_GENERATORS = {HeisenbergFine: _heisenberg_generators, SuperFine: _super_generators,
               TwistedFine: _twisted_generators}


def standard_generators(gr: Grading) -> list[GradedAut]:
    """Explicit generator automorphisms of the Weyl group of a fine
    grading produced by this package, as (sigma, c) on the basis of
    gr.table, each checked by _monomial_aut."""
    build = _GENERATORS.get(type(gr.family))
    if build is None:
        raise ValueError("grading does not carry fine-grading provenance")
    a, basis, nonzero = gr.algebra, _line_table(gr, "the standard generators").basis, gr.nonzero_basis
    at = {id(b): m for m, b in enumerate(basis)}

    def index(b: Vect) -> int:  # the same object's position, else an equal copy's
        return at[id(b)] if id(b) in at else nonzero.index(sparse(b))

    out = []
    for name, moves in build(a, gr.family):
        perm, scale = list(range(len(basis))), [a.ctx.one()] * len(basis)
        for b, b2, c in moves:
            m = index(b)
            perm[m], scale[m] = index(b2), c
        out.append(_monomial_aut(gr, perm, scale, name))
    return out


def generator_matrix(gr: Grading, aut: GradedAut) -> LinMap:
    """The columns of B diag(c) P B^-1 for aut = (sigma, c), from the sparse inverse
    of gr.table: f(e_j) is the sum of inv_j[m] c_m b_sigma(m) over the nonzero
    inv_j[m], and e_j itself when each such m has sigma(m) = m and c_m = 1."""
    a, perm, scale, one = gr.algebra, aut.perm, aut.scale, gr.algebra.ctx.one()
    moved = {m for m, (p, c) in enumerate(zip(perm, scale)) if p != m or c != one}
    return [a.basis_vect(j) if moved.isdisjoint(col) else
            a.dense(sparse_apply(gr.nonzero_basis, {perm[m]: c * scale[m] for m, c in col.items()}).items())
            for j, col in enumerate(gr.table.inverse)]


# --- closed-form orders -------------------------------------------------------

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
        # R = {1} and the rotations the generators use; q = |R / mu_c|
        rotations = 1 + len(_spectrum_rotations(fam.classes, p))
        roots = len(fam.classes.roots[0 if p.s else 1])
        assert rotations % roots == 0, "the class roots do not divide the spectrum rotations"
        q = rotations // roots
        # the blocks of one scalar are permuted freely: v! for v of them
        swaps = [factorial(v) for v in Counter(p.betas).values()]
        if p.l % 2:
            return 2 * q * p.l**p.s * prod(swaps)
        swaps += [factorial(v) for v in Counter(p.alphas).values()]
        return q * (2 * p.l) ** p.s * 2**p.r * prod(swaps)
    raise ValueError("grading does not carry fine-grading provenance")


@dataclass
class WeylReport:
    grading: Grading
    generators: list[GradedAut]
    group: PermGroup
    formula_order: int
    agree: bool
    brute_order: int | None = None


def weyl_group(gr: Grading, brute: bool = False, cap: int = 16) -> WeylReport:
    """Closure of the standard generators, the closed-form order, and
    (optionally) the brute-force order; disagreements are reported via
    the `agree` flag, with the closure as ground truth."""
    if brute and len(gr.support) > cap:
        raise CapExceeded(f"support size {len(gr.support)} exceeds the cap {cap}")
    auts = standard_generators(gr)
    group = closure([g.perm for g in auts], degree=len(gr.support))
    formula = weyl_order_formula(gr)
    brute_order = weyl_bruteforce(gr, cap).order if brute else None
    return WeylReport(gr, auts, group, formula, group.order == formula, brute_order)


# --- brute force --------------------------------------------------------------

class CapExceeded(ValueError):
    pass


def weyl_bruteforce(gr: Grading, cap: int = 16) -> PermGroup:
    """The group of support permutations that extend to an automorphism.

    Permutations are built point by point in a fixed search order with
    pruning (center fixed, parity, derived-subalgebra membership and
    degree additivity preserved).  One extends iff the induced system on
    the per-component scalars is solvable: the free relations of one Smith
    normal form per grading must hold (torsion relations are radicals,
    always solvable), each checked once all its points are placed.  The
    extendable permutations form a group, so only generators are sought
    (Sims' subgroup search; Seress 2003, ch. 4): for t = n-1 down to 0,
    with the first t points of the search order fixed, one leaf per image
    of the t-th point outside the orbit of the group found so far, held in
    one stabilizer chain that each hit grows.  The nodes visited and the
    leaves tested are recorded on the result."""
    a = gr.algebra
    support = gr.support
    n = len(support)
    if n > cap:
        raise CapExceeded(f"support size {n} exceeds the cap {cap}")
    table = _line_table(gr, "brute force")
    gamma: list[list[CycloNum | None]] = [[None] * n for _ in range(n)]
    target: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, row in enumerate(table.terms):
        for j, ((k, c),) in row:  # one-dimensional components: one term
            gamma[i][j], target[i][j] = c, k

    # b_m is central iff its row and column of the table are empty, and in
    # the derived algebra iff some nonzero bracket lands on it
    hit = {k for row in target for k in row if k is not None}
    flags = [(par, not table.terms[m] and all(row[m] is None for row in target), m in hit)
             for m, par in enumerate(table.parity)]

    perm = [None] * n
    used = [False] * n
    forced: dict[int, int] = {}

    def place(i: int, m: int, trail: list[int]) -> bool:
        # perm[i] = m keeps the flags and which brackets with placed points
        # vanish; each nonzero one forces its target's image (forced, trail)
        if flags[i] != flags[m]:
            return False
        for j in range(n):
            if perm[j] is None:
                continue
            for x, y in ((i, j), (j, i)) if j != i else ((i, i),):
                k, k2 = target[x][y], target[perm[x]][perm[y]]
                if (k is None) != (k2 is None):
                    return False
                if k is None:
                    continue
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

    order = sorted(range(n), key=lambda i: -sum(gamma[i][j] is not None
                                                for j in range(n)))
    depth_of = sorted(range(n), key=order.__getitem__)  # the inverse of order

    # the exponent rows e_k - e_i - e_j depend only on the grading; a
    # permutation p is accepted iff the ratios gamma[p(i)][p(j)] / gamma[i][j]
    # satisfy the free relations: the rows of U whose row of D is zero
    pairs = [(i, j) for i in range(n) for j in range(n) if gamma[i][j] is not None]
    rows = []
    for i, j in pairs:
        row = [0] * n
        row[target[i][j]] += 1
        row[i] -= 1
        row[j] -= 1
        rows.append(row)
    u, d, _ = smith_normal_form(rows, with_v=False)
    one = a.ctx.one()

    def sides(terms, p) -> list[CycloNum]:
        # prod gamma[p(i)][p(j)]^|e|, over e > 0 and over e < 0
        out = [one, one]
        for (i, j), e in terms:
            out[e < 0] = out[e < 0] * gamma[p[i]][p[j]] ** abs(e)
        return out

    # relation prod (gamma[p(i)][p(j)] / gamma[i][j])^e = 1, checked as
    # num_p * den_1 == num_1 * den_p once the deepest of its points is placed
    checks: list[list] = [[] for _ in range(n)]
    for urow, drow in zip(u, d):
        if not any(drow):
            terms = [(pairs[c], e) for c, e in enumerate(urow) if e]
            last = max(depth_of[x] for (i, j), _ in terms for x in (i, j))
            checks[last].append((terms, *sides(terms, range(n))))

    def holds(terms, num1, den1) -> bool:
        num, den = sides(terms, perm)
        return num * den1 == num1 * den

    nodes = leaves = 0

    def search(depth: int, t: int, x: int) -> Perm | None:
        # the first accepted leaf fixing order[:t] and sending order[t] to x
        nonlocal nodes, leaves
        nodes += 1
        if depth == n:
            leaves += 1
            return tuple(perm)
        i = order[depth]
        want = i if depth < t else x if depth == t else None
        cands = [forced[i]] if i in forced else range(n)
        for m in cands:
            if used[m] or (want is not None and m != want):
                continue
            trail: list[int] = []
            perm[i] = m
            used[m] = True
            # the fixed identity prefix satisfies every relation
            hit = (place(i, m, trail)
                   and (depth < t or all(holds(*c) for c in checks[depth]))
                   and search(depth + 1, t, x))
            perm[i] = None
            used[m] = False
            for k in trail:
                del forced[k]
            if hit:
                return hit
        return None

    # the chain grows by each hit conjugated by the search order, so that
    # its base 0..n-1 is that order
    hits: list[Perm] = []
    chain = PermGroup(n)
    for t in range(n - 1, -1, -1):
        for x in order[t + 1:]:
            if depth_of[x] in chain.levels[t][1]:
                continue
            hit = search(0, t, x)
            if hit is not None:
                hits.append(hit)
                chain.add(tuple(depth_of[hit[i]] for i in order))
    group = PermGroup(n, hits)
    group.nodes_visited, group.leaves_tested = nodes, leaves
    return group
