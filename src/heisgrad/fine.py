"""Fine gradings on the Heisenberg families.

Constructors for the fine gradings on plain and super Heisenberg
algebras and for the block-built fine gradings on twisted Heisenberg
algebras, together with the spectrum condition, enumeration up to
equivalence, the equivalence test itself, and the decomposition that
recovers block data from an arbitrary grading on a twisted algebra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from typing import ClassVar, Iterator

from ._linalg import (SparseVect, Vect, combinations, intersection, is_zero_vect,
                      line_coeff, rref, sparse, transpose, vadd, vscale, vsub)
from .abelian import AbGroup, GroupElt, group_product
from .liealg import Algebra, heisenberg, heisenberg_super, twisted
from .gradings import Grading, universal_group
from .scalars import (CycloCtx, CycloNum, divisors, format_scalar,
                      root_of_unity_order, sqrt_int, sqrt_scalar)

__all__ = [
    "FineTwistedParams", "BlockI", "BlockII",
    "HeisenbergFine", "SuperFine", "TwistedFine", "twist",
    "heisenberg_fine", "super_fine", "enumerate_super_fine",
    "twisted_fine", "twisted_fine_classes", "twisted_fine_nontoral", "twisted_fine_toral",
    "rebase_scales_i", "rebase_scales_ii",
    "spectrum_check", "enumerate_twisted_fine", "equivalent_fine",
    "homogenize_u", "decompose_twisted_grading",
    "primitive_root", "ScalarClasses", "expected_twisted_group",
]


# --- scalar classes ----------------------------------------------------------

def primitive_root(ctx: CycloCtx, order: int) -> CycloNum | None:
    """A primitive `order`-th root of unity in ctx, if one exists.

    The roots of unity in Q(zeta_N) are the N-th roots for even N and the
    2N-th roots for odd N, so one exists exactly when order | N, or when N
    is odd and order = 2m with m | N: then it is -zeta_N^(N/m).
    """
    n = ctx.n
    if n % order == 0:
        return ctx.zeta(n // order)
    if n % 2 and order % 2 == 0 and n % (order // 2) == 0:
        return -ctx.zeta(2 * n // order)
    return None


class ScalarClasses:
    """The classes of the block scalars of block order l over lam: type-I
    scalars (side 0) and type-II scalars (side 1) up to the l-th roots of
    unity, except type-I scalars for odd l, taken up to the 2l-th roots.
    roots[side] lists those roots, starting from 1; roots[1] is the power
    list [xi^t : t < l] of the primitive l-th root xi that primitive_root
    picks, from which the blocks and their orbits are built.  rep and the
    rotation candidates are memoized: build one instance per (lam, l)."""

    def __init__(self, lam: list[CycloNum], l: int):
        xi = primitive_root(lam[0].ctx, l)
        if xi is None:
            raise ValueError(f"no primitive {l}-th root available")
        roots = [lam[0].ctx.one()]
        for _ in range(l - 1):
            roots.append(roots[-1] * xi)
        # for odd l the 2l-th roots are the l-th roots and their negatives
        self.roots = (roots + [-r for r in roots] if l % 2 else roots, roots)
        self._reps: tuple[dict, dict] = ({}, {})
        self._candidates: dict[FineTwistedParams, list[CycloNum]] = {}
        self._orbit_members: dict[CycloNum, list[CycloNum]] = {}
        self._ids: dict[CycloNum, int] = {}  # the numbering of key's scalars
        self._values: list[CycloNum] = []  # the numbered scalars, in order
        self._names: dict[tuple[int, int], tuple] = {}

    def rep(self, x: CycloNum, side: int) -> CycloNum:
        """The least member of x's class in sort_key order."""
        reps = self._reps[side]
        if x not in reps:
            members = self._members(x, side)
            reps.update(dict.fromkeys(members, min(members, key=lambda v: v.sort_key())))
        return reps[x]

    def _members(self, x: CycloNum, side: int) -> list[CycloNum]:
        return [x] + [x * r for r in self.roots[side][1:]]

    def orbit(self, mu: CycloNum, paired: bool) -> Counter:
        """The block orbit {xi^t mu : t < l} as a multiset, with each value's
        negative too when paired (a type-I block); the powers are formed
        once per mu."""
        members = self._orbit_members.get(mu)
        if members is None:
            members = self._orbit_members[mu] = self._members(mu, 1)
        return Counter(y for x in members for y in ((x, -x) if paired else (x,)))

    def orbits(self, p: FineTwistedParams) -> Counter:
        """The union of the block orbits of p's scalars, type I paired."""
        return sum((self.orbit(x, side == 0) for side, xs in enumerate((p.betas, p.alphas))
                    for x in xs), Counter())

    def profile(self, p: FineTwistedParams, eps: CycloNum | None = None):
        """The class multisets of eps * p.betas and eps * p.alphas."""
        return tuple(Counter(self.rep(x if eps is None else eps * x, side) for x in xs)
                     for side, xs in enumerate((p.betas, p.alphas)))

    def ratios(self, p: FineTwistedParams, q: FineTwistedParams) -> list[CycloNum]:
        """The candidate eps of an equivalence of q with p: each x / y * root
        for x among p's scalars of type I (type II when s = 0), y the first
        of q's and root a root of that side, once, in the order first met."""
        side = 0 if p.s else 1
        xs, y = (p.betas, q.betas[0]) if p.s else (p.alphas, q.alphas[0])
        return list(dict.fromkeys(m for x in xs for m in self._members(x / y, side)))

    def candidates(self, p: FineTwistedParams) -> list[CycloNum]:
        """The roots of unity other than 1 among the ratios of p's classes,
        sorted: the candidate eps of a spectrum rotation of p."""
        if p not in self._candidates:
            cands = [eps for eps in self.ratios(p, p)
                     if eps != eps.ctx.one() and root_of_unity_order(eps) is not None]
            self._candidates[p] = sorted(cands, key=lambda v: v.sort_key())
        return self._candidates[p]

    def equivalent(self, p: FineTwistedParams, q: FineTwistedParams) -> bool:
        """Equal shape (l, s, r) and an eps with the class multisets of eps *
        q's scalars equal to those of p's."""
        if (p.l, p.s, p.r) != (q.l, q.s, q.r):
            return False
        want = self.profile(p)
        return any(self.profile(q, eps) == want for eps in self.ratios(p, q))

    def key(self, p: FineTwistedParams) -> tuple:
        """(l, s, r) and the least, over the scalars x of p's first nonempty
        side, of the class multisets of p's scalars divided by x, side by
        side: equal exactly when equivalent(p, q) holds.  Scalars are
        numbered on first sight, so the class names are memoized by pairs
        of numbers."""
        ids = [self._ids.setdefault(y, len(self._ids)) for y in p.betas + p.alphas]
        sides = (ids[:p.s], ids[p.s:])
        return (p.l, p.s, p.r) + min(tuple(name for side in sides
                                           for name in sorted(self._name(y, x) for y in side))
                                     for x in set(sides[0] if p.s else sides[1]))

    def _name(self, i: int, j: int) -> tuple:
        """A name of the class of y / x for the scalars y, x numbered i, j:
        the coefficients of (y / x)^m for m = len(roots[0]), the order of
        the roots that the classes of both sides share when l is even.
        Those roots are every m-th root of unity in the field, so t^m = u^m
        exactly when t / u is one of them."""
        name = self._names.get((i, j))
        if name is None:
            if len(self._values) < len(self._ids):
                self._values = list(self._ids)  # in number order
            t = (self._values[i] / self._values[j]) ** len(self.roots[0]) if i != j else self.roots[0][0]
            name = self._names[i, j] = (t.num, t.den)
        return name

    def normalize(self, p: FineTwistedParams) -> FineTwistedParams:
        """p with each block scalar replaced by its class representative, sorted."""
        betas, alphas = (tuple(sorted((self.rep(x, side) for x in xs),
                                      key=lambda v: v.sort_key()))
                         for side, xs in enumerate((p.betas, p.alphas)))
        return FineTwistedParams(p.l, p.s, p.r, betas, alphas)


# --- parameters and the spectrum condition -----------------------------------

@dataclass(frozen=True)
class FineTwistedParams:
    """Shape data (l, s, r) and block scalars naming a fine grading on a
    twisted Heisenberg algebra: s blocks of type I with scalars betas and
    r blocks of type II with scalars alphas."""

    l: int
    s: int
    r: int
    betas: tuple[CycloNum, ...]
    alphas: tuple[CycloNum, ...]

    def __post_init__(self):
        if len(self.betas) != self.s or len(self.alphas) != self.r:
            raise ValueError("scalar counts must match (s, r)")
        if self.r and self.l % 2:
            raise ValueError("type-II blocks require an even l")

    def __str__(self):
        betas = ", ".join(format_scalar(b) for b in self.betas) or "(none)"
        alphas = ", ".join(format_scalar(a) for a in self.alphas) or "(none)"
        return (f"(l,s,r) = ({self.l},{self.s},{self.r}); type-I scalars: {betas}; "
                f"type-II scalars: {alphas}")


def _spectrum(lam) -> Counter:
    """The multiset {+-lam_i}."""
    return Counter(y for x in lam for y in (x, -x))


def _fitting_classes(lam: list[CycloNum], p: FineTwistedParams) -> ScalarClasses | None:
    """ScalarClasses(lam, p.l) when p passes the spectrum condition, else None."""
    if p.l * (p.r + 2 * p.s) != 2 * len(lam):
        return None
    try:
        classes = ScalarClasses(lam, p.l)
    except ValueError:  # no primitive l-th root in the field
        return None
    return classes if classes.orbits(p) == _spectrum(lam) else None


def spectrum_check(lam: list[CycloNum], p: FineTwistedParams) -> bool:
    """Multiset equality of {+-lam_i} against the block orbit values
    {+-xi^t beta_j} and {xi^t alpha_i}."""
    return _fitting_classes(lam, p) is not None


# --- blocks ------------------------------------------------------------------

@dataclass(frozen=True)
class BlockI:
    """2l homogeneous elements x_1, y_1, ..., x_l, y_l with the cyclic
    ad(u)-action of scale alpha and pairing [x_i, y_(l-i)] into z."""

    l: int
    alpha: CycloNum
    xs: tuple[Vect, ...]
    ys: tuple[Vect, ...]

    def elements(self) -> list[Vect]:
        return list(self.xs) + list(self.ys)


@dataclass(frozen=True)
class BlockII:
    """2l homogeneous elements x_1..x_2l with a single cyclic
    ad(u)-orbit of scale alpha pairing into z as [x_i, x_(2l-i+1)]."""

    l: int
    alpha: CycloNum
    xs: tuple[Vect, ...]

    def elements(self) -> list[Vect]:
        return list(self.xs)


def twist(a: Algebra) -> list[CycloNum]:
    """The parameter vector lam of a twisted Heisenberg algebra, read off
    its structure constants [u, e_i] = lam_i ehat_i."""
    if (a.spec or {}).get("kind") != "twisted":
        raise ValueError("the algebra is not a twisted Heisenberg algebra")
    u_row = dict(a.terms[0])
    return [dict(u_row[1 + 2 * i])[2 + 2 * i] for i in range(a.dim // 2 - 1)]


def _times(c: CycloNum, v: SparseVect) -> SparseVect:
    """c * v for c != 0, on the nonzero coordinates of v: none can vanish."""
    return {k: c * x for k, x in v.items()}


def verify_block_i(bracket, coords, u: Vect, z: Vect, blk: BlockI) -> None:
    """Check the type-I block identities on bracket(x, y) and coords(x), the
    nonzero coordinates of [x, y] and of x for u, z and the block's vectors.
    The algebra is Lie, so x-x and y-y pairs are checked for i < j only:
    [x_j, x_i] = -[x_i, x_j]."""
    l, alpha = blk.l, blk.alpha
    xs = (None,) + blk.xs  # 1-based
    ys = (None,) + blk.ys
    for i in range(1, l + 1):
        if bracket(u, xs[i]) != _times(alpha, coords(xs[i % l + 1])):
            raise AssertionError(f"type-I block: ad(u) fails on x_{i}")
        want = _times(alpha if i < l or l % 2 == 0 else -alpha, coords(ys[i % l + 1]))
        if bracket(u, ys[i]) != want:
            raise AssertionError(f"type-I block: ad(u) fails on y_{i}")
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            if j > i and bracket(xs[i], xs[j]):
                raise AssertionError("type-I block: nonzero x-x bracket")
            if j > i and bracket(ys[i], ys[j]):
                raise AssertionError("type-I block: nonzero y-y bracket")
            w = bracket(xs[i], ys[j])
            if (i + j) % l == 0:
                if w != _times(-alpha if j % 2 else alpha, coords(z)):
                    raise AssertionError(f"type-I block: pairing fails on x_{i}, y_{j}")
            elif w:
                raise AssertionError("type-I block: unexpected nonzero x-y bracket")


def verify_block_ii(bracket, coords, u: Vect, z: Vect, blk: BlockII) -> None:
    """As verify_block_i, for a type-II block; x-x pairs for i < j only."""
    l, alpha = blk.l, blk.alpha
    xs = (None,) + blk.xs
    n = 2 * l
    for i in range(1, n + 1):
        if bracket(u, xs[i]) != _times(alpha, coords(xs[i % n + 1])):
            raise AssertionError(f"type-II block: ad(u) fails on x_{i}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = bracket(xs[i], xs[j])
            if i + j == n + 1:
                if w != _times(-alpha if i % 2 else alpha, coords(z)):
                    raise AssertionError(f"type-II block: pairing fails on x_{i}, x_{j}")
            elif w:
                raise AssertionError("type-II block: unexpected nonzero bracket")


def check_block(a: Algebra, u: Vect, z: Vect, blk: BlockI | BlockII) -> None:
    """verify_block_i or verify_block_ii on a.bracket, from the nonzero
    coordinates of u, z and the block's vectors, each found once."""
    coords = {id(v): sparse(v) for v in (u, z, *blk.elements())}
    verify = verify_block_i if isinstance(blk, BlockI) else verify_block_ii
    verify(lambda x, y: a.bracket(coords[id(x)], coords[id(y)]),
           lambda v: coords[id(v)], u, z, blk)


def _block_slots(a: Algebra, l: int, powers: list[CycloNum], alpha: CycloNum,
                 pairs: list[tuple[int, bool]]) -> list[tuple[int, bool]]:
    """The position of e_i in the basis and the swap flag of each of the l
    eigen-pairs, pairs[q] carrying the eigenvalue xi^(q+1) * alpha, for
    powers = [xi^t : t < order] of a primitive root xi."""
    lam = twist(a)
    if len(pairs) != l:
        raise ValueError("need exactly l eigen-pairs")
    for q, (idx, swapped) in enumerate(pairs, start=1):
        val = powers[q % len(powers)] * alpha
        actual = -lam[idx] if swapped else lam[idx]
        if actual != val:
            raise ValueError(
                f"pair {idx} has eigenvalue {actual!r}, slot needs {val!r}")
    return [(1 + 2 * idx, swapped) for idx, swapped in pairs]


def _block_i(a: Algebra, powers: list[CycloNum], alpha: CycloNum,
             pairs: list[tuple[int, bool]]) -> BlockI:
    """A type-I block from l eigen-pairs of ad(u), for powers = [xi^t : t < l]
    of a primitive l-th root xi; pairs[q] gives the pair index and whether
    its (u_i, v_i) roles are swapped, and the pair's eigenvalue must be
    xi^(q+1) * alpha.  verify_block_i checks it."""
    ctx, l = a.ctx, len(powers)
    slots = _block_slots(a, l, powers, alpha, pairs)
    inv2l = ctx.from_fraction(Fraction(1, 2 * l))

    def entries(coeffs, minus):
        # sum of c_q w_q over the slots, w_q = u_q = e + ehat, or v_q = e - ehat
        # when minus, and the other one of the two for a swapped pair
        for (e, swapped), c in zip(slots, coeffs):
            yield e, c
            yield e + 1, -c if swapped != minus else c

    xs, ys = [], []
    for j in range(1, l + 1):
        scale = ctx.from_fraction(-((-1) ** j)) * inv2l
        xs.append(a.dense(entries([powers[j * q % l] for q in range(1, l + 1)], False)))
        ys.append(a.dense(entries([scale * powers[(j - 1) * q % l] for q in range(1, l + 1)],
                                  True)))
    return BlockI(l, alpha, tuple(xs), tuple(ys))


def _block_ii(a: Algebra, powers: list[CycloNum], alpha: CycloNum,
              pairs: list[tuple[int, bool]]) -> BlockII:
    """A type-II block (2l elements) from l eigen-pairs, for powers =
    [zeta^t : t < 2l] of a primitive 2l-th root zeta; pairs[q] must carry
    eigenvalue zeta^(q+1) * alpha (so the last slot carries -alpha).
    verify_block_ii checks it."""
    ctx, order = a.ctx, len(powers)
    l = order // 2
    slots = _block_slots(a, l, powers, alpha, pairs)
    scale = ctx.i() * sqrt_int(l, ctx) * ctx.from_fraction(Fraction(1, l))  # i / sqrt(l)
    # x_j = i / (2 sqrt(l)) times the sum of zeta^((j-1)q) (u_q + (-1)^(j-1) v_q)
    # over q, and u_q + v_q = 2 e, u_q - v_q = 2 ehat (-2 ehat for a swapped pair)
    xs = []
    for j in range(1, 2 * l + 1):
        cs = [scale * powers[(j - 1) * q % order] for q in range(1, l + 1)]
        xs.append(a.dense((e, c) if j % 2 else (e + 1, -c if swapped else c)
                          for (e, swapped), c in zip(slots, cs)))
    return BlockII(l, alpha, tuple(xs))


def rebase_scales_i(l: int, delta: CycloNum) -> tuple[bool, list[CycloNum], list[CycloNum]]:
    """How a type-I block with scalar alpha spans a block with scalar
    delta * alpha: (swap, x_scales, y_scales) with new x_i = x_scales[i] *
    old x_i and new y_i = y_scales[i] * old y_i, x and y exchanged on the
    right when swap.  Possible exactly when delta is an l-th root of unity
    (even l) or a 2l-th root (odd l)."""
    one = delta.ctx.one()
    if delta ** l == one:
        swap = False
    elif l % 2 and delta ** (2 * l) == one:
        swap = True
    else:
        raise ValueError("scalar change is not compatible with the block span")
    return (swap, [delta ** (1 - i) for i in range(1, l + 1)],
            [delta ** (l - i) for i in range(1, l + 1)])


def rebase_scales_ii(l: int, delta: CycloNum) -> list[CycloNum]:
    """As rebase_scales_i for a type-II block of 2l elements: new x_j =
    x_scales[j] * old x_j; requires delta to be a 2l-th root of unity."""
    if delta ** (2 * l) != delta.ctx.one():
        raise ValueError("scalar change is not compatible with the block span")
    return [delta ** (1 - j) for j in range(1, 2 * l + 1)]


# --- fine grading constructors ----------------------------------------------
#
# Each constructor records the data it built the grading from in a frozen
# record, Grading.family; `name` is the family's JSON name.

@dataclass(frozen=True)
class HeisenbergFine:
    name: ClassVar[str] = "heisenberg"
    k: int

    def title(self) -> str:
        return f"Heisenberg fine grading (k={self.k})"


@dataclass(frozen=True)
class SuperFine:
    """k even pairs, r hyperbolic odd pairs (u, v) and m - 2r odd vectors
    zs of nonzero square, with z spanning the center."""

    name: ClassVar[str] = "super"
    k: int
    m: int
    r: int
    uv: tuple[tuple[Vect, Vect], ...]
    zs: tuple[Vect, ...]
    z: Vect

    def title(self) -> str:
        return f"super fine grading (k={self.k}, m={self.m}, r={self.r})"


@dataclass(frozen=True)
class TwistedFine:
    """The parameter vector, the normalized parameters, u, z, the blocks
    that carry the grading and the ScalarClasses they were built with."""

    name: ClassVar[str] = "twisted"
    lam: tuple[CycloNum, ...]
    params: FineTwistedParams
    u: Vect
    z: Vect
    blocks_i: tuple[BlockI, ...]
    blocks_ii: tuple[BlockII, ...]
    classes: ScalarClasses = field(compare=False, repr=False)

    def title(self) -> str:
        return f"twisted fine grading {self.params}"


def heisenberg_fine(k: int, ctx: CycloCtx | None = None) -> Grading:
    """The fine grading on the Heisenberg algebra of dimension 2k+1,
    over its universal group Z^(k+1): each basis line is a component."""
    a = heisenberg(k, ctx)
    group, gens = group_product([0] * (k + 1))
    level = gens[-1]
    comps = {}
    for i in range(k):
        comps[gens[i] + level] = (a.basis_vect(2 * i),)
        comps[-gens[i] + level] = (a.basis_vect(2 * i + 1),)
    comps[2 * level] = (a.basis_vect(a.dim - 1),)
    return universal_group(Grading(a, group, comps, HeisenbergFine(k)))[1]


def super_fine(k: int, m: int, r: int, ctx: CycloCtx | None = None) -> Grading:
    """The fine grading with r hyperbolic odd pairs on the Heisenberg
    superalgebra H_(2k+1, m); requires 0 <= 2r <= m."""
    if not (0 <= 2 * r <= m):
        raise ValueError("need 0 <= 2r <= m")
    a = heisenberg_super(k, m, ctx)
    ctx = a.ctx
    ii = ctx.i()
    half = ctx.from_fraction(Fraction(1, 2))
    q = m - 2 * r

    def w(j):  # 1-based odd basis vector
        return a.basis_vect(2 * k + j - 1)

    uv = []
    for j in range(1, r + 1):
        u = vadd(w(2 * j - 1), vscale(ii, w(2 * j)))
        v = vscale(half, vsub(w(2 * j - 1), vscale(ii, w(2 * j))))
        uv.append((u, v))
    zs = [w(2 * r + t) for t in range(1, q + 1)]
    z = a.basis_vect(a.dim - 1)

    group, gens = group_product([0] * (1 + k + r) + [2] * q)
    level = gens[0]
    comps = {2 * level: (z,)}
    for i in range(k):
        comps[level + gens[1 + i]] = (a.basis_vect(2 * i),)
        comps[level - gens[1 + i]] = (a.basis_vect(2 * i + 1),)
    for j in range(r):
        comps[level + gens[1 + k + j]] = (uv[j][0],)
        comps[level - gens[1 + k + j]] = (uv[j][1],)
    for t in range(q):
        comps[level + gens[1 + k + r + t]] = (zs[t],)
    fam = SuperFine(k, m, r, tuple(uv), tuple(zs), z)
    return universal_group(Grading(a, group, comps, fam))[1]


def enumerate_super_fine(k: int, m: int) -> list[tuple[int, Grading]]:
    """All fine gradings on H_(2k+1, m) up to equivalence, one per r."""
    if m < 0:
        raise ValueError("need m >= 0")
    return [(r, super_fine(k, m, r)) for r in range(m // 2 + 1)]


def _assign_pairs(lam: list[CycloNum], values: list[CycloNum],
                  used: set[int]) -> list[tuple[int, bool]]:
    out = []
    for val in values:
        hit = next(((i, x != val) for i, x in enumerate(lam)
                    if i not in used and x in (val, -val)), None)
        if hit is None:
            raise ValueError("spectrum does not supply the block slice")
        used.add(hit[0])
        out.append(hit)
    return out


def expected_twisted_group(l: int, s: int, r: int) -> AbGroup:
    factors = [0] * (s + 1)
    if l > 1:
        factors.append(l)
    if r > 0:
        factors.extend([2] * (r - 1))
    return group_product(factors)[0]


def twisted_fine(lam: list[CycloNum], p: FineTwistedParams) -> Grading:
    """The fine grading named by p on the twisted Heisenberg algebra with
    parameter vector lam, over its universal grading group."""
    classes = _fitting_classes(lam, p)
    if classes is None:
        raise ValueError("parameters fail the spectrum condition")
    return _twisted_fine(twisted(lam), lam, classes.normalize(p), classes)


def _twisted_fine(a: Algebra, lam: list[CycloNum], p: FineTwistedParams,
                  classes: ScalarClasses) -> Grading:
    """twisted_fine for normalized p on a = twisted(lam), with classes =
    ScalarClasses(lam, p.l); the block checks read the grading's bracket
    memo, so each pair is bracketed once."""
    if classes.orbits(p) != _spectrum(lam):  # normalization preserves the orbits
        raise AssertionError("normalization broke the spectrum condition")
    l, s, r, powers = p.l, p.s, p.r, classes.roots[1]
    used: set[int] = set()
    blocks_i = []
    for b in p.betas:
        values = [powers[q % l] * b for q in range(1, l + 1)]
        blocks_i.append(_block_i(a, powers, b, _assign_pairs(lam, values, used)))
    blocks_ii = []
    for alpha in p.alphas:  # xi is a primitive 2m-th root, m = l/2
        values = [powers[q] * alpha for q in range(1, l // 2 + 1)]
        blocks_ii.append(_block_ii(a, powers, alpha, _assign_pairs(lam, values, used)))

    factors = ([l] if l > 1 else []) + [0] * s + [0] + ([2] * (r - 1) if r else [])
    group, gens = group_product(factors)
    cyc = gens[0] if l > 1 else group.zero()
    sgens = gens[(1 if l > 1 else 0):]
    bgens = sgens[:s]
    level = sgens[s]
    tgens = sgens[s + 1:]

    u_vec = a.basis_vect(0)
    z_vec = a.basis_vect(a.dim - 1)
    comps = {}

    def put(deg, vec):
        if deg in comps:
            raise AssertionError("degree collision while building the grading")
        comps[deg] = (vec,)

    put(cyc, u_vec)
    put(cyc + 2 * level, z_vec)
    for j, blk in enumerate(blocks_i):
        for i in range(1, l + 1):
            put((i + 1) * cyc + bgens[j] + level, blk.xs[i - 1])
            put(i * cyc - bgens[j] + level, blk.ys[i - 1])
    for t, blk in enumerate(blocks_ii):
        extra = tgens[t] if t < r - 1 else group.zero()
        for i in range(1, l + 1):
            put(i * cyc + level + extra, blk.xs[i - 1])

    family = TwistedFine(tuple(lam), p, u_vec, z_vec, tuple(blocks_i), tuple(blocks_ii), classes)
    raw = Grading(a, group, comps, family)
    degree = {id(v): g for g, (v,) in comps.items()}  # by identity: no O(dim) hash

    def bracket(x, y):
        return raw.brackets(degree[id(x)], degree[id(y)])[0]

    def coords(v):
        return raw._slots[degree[id(v)]][1][0]

    for blk in blocks_i:
        verify_block_i(bracket, coords, u_vec, z_vec, blk)
    for blk in blocks_ii:
        verify_block_ii(bracket, coords, u_vec, z_vec, blk)
    ugroup, out = universal_group(raw)
    if ugroup != expected_twisted_group(l, s, r):
        raise AssertionError(
            f"universal group {ugroup} does not match the expected "
            f"{expected_twisted_group(l, s, r)}")
    return out


def twisted_fine_nontoral(lam: list[CycloNum]) -> Grading:
    """The fine grading carried by the defining basis (nontoral for
    k > 0): all blocks of type II with l = 2."""
    return twisted_fine(lam, FineTwistedParams(2, 0, len(lam), (), tuple(lam)))


def twisted_fine_toral(lam: list[CycloNum]) -> Grading:
    """The toral fine grading carried by the ad(u)-eigenbasis: all blocks
    of type I with l = 1."""
    return twisted_fine(lam, FineTwistedParams(1, len(lam), 0, tuple(lam), ()))


# --- enumeration and equivalence ---------------------------------------------

def _extract_blocks(spec: Counter, s: int, r: int, classes: ScalarClasses,
                    key) -> list[tuple[tuple, tuple]]:
    """All ways to split the spectrum multiset into s type-I orbits and
    r type-II orbits of classes, each multiset of orbits once; the block
    scalar of an orbit is pinned to the minimal element it contains in
    sort-key order (key gives the sort key of a spectrum value).  Every
    orbit that holds the least live value mu is pinned at mu, so one step
    takes a paired and b unpaired orbits of mu whose copies of mu use up
    spec[mu] exactly, and the rest of the spectrum no longer holds mu
    (orderly generation: McKay, J. Algorithms 26, 1998)."""
    live = [x for x, c in spec.items() if c > 0]
    if not live:
        return [((), ())] if s == 0 and r == 0 else []
    mu = min(live, key=key)
    paired, unpaired = classes.orbit(mu, True), classes.orbit(mu, False)
    out = []
    for a in range(min(s, spec[mu] // paired[mu]) + 1):
        b = spec[mu] - a * paired[mu]  # an unpaired orbit holds mu once
        if b > r:
            continue
        take = Counter({x: a * c for x, c in paired.items()})
        take.update({x: b * c for x, c in unpaired.items()})
        if all(spec[x] >= c for x, c in take.items()):
            for betas, alphas in _extract_blocks(spec - take, s - a, r - b, classes, key):
                out.append(((mu,) * a + betas, (mu,) * b + alphas))
    return out


def _enumerate(lam: list[CycloNum]) -> tuple[list[FineTwistedParams], dict[int, ScalarClasses]]:
    """enumerate_twisted_fine(lam) and the ScalarClasses of each block
    order l that has a primitive l-th root, keyed by l.  Every extracted
    split of the spectrum passes the spectrum condition by construction,
    and no two are equal after normalize; of each class of equal keys
    (ScalarClasses.key), the first split in sort order is kept."""
    k = len(lam)
    spec = _spectrum(lam)
    # the rank of each spectrum value in sort-key order; one sort_key each
    rank = {x: i for i, x in enumerate(sorted(spec, key=CycloNum.sort_key))}
    found: list[FineTwistedParams] = []
    classes: dict[int, ScalarClasses] = {}
    for l in divisors(2 * k):
        try:
            classes[l] = ScalarClasses(lam, l)
        except ValueError:  # no primitive l-th root in the field
            continue
        per_block = 2 * k // l
        for s in range(per_block // 2 + 1):
            r = per_block - 2 * s
            if r and l % 2:
                continue
            # already normalized: a pinned scalar is the least value of its
            # orbit, which holds its class, and each side comes in rank order
            found.extend(FineTwistedParams(l, s, r, betas, alphas) for betas, alphas
                         in _extract_blocks(spec, s, r, classes[l], rank.__getitem__))
    found.sort(key=lambda p: (p.l, p.s, p.r, tuple(rank[b] for b in p.betas),
                              tuple(rank[x] for x in p.alphas)))
    shapes = Counter((p.l, p.s, p.r) for p in found)
    reps = {}
    for p in found:  # a shape with one split needs no key
        shape = (p.l, p.s, p.r)
        reps.setdefault(classes[p.l].key(p) if shapes[shape] > 1 else shape, p)
    return list(reps.values()), classes


def enumerate_twisted_fine(lam: list[CycloNum]) -> list[FineTwistedParams]:
    """Representatives of the equivalence classes of fine gradings on the
    twisted Heisenberg algebra with parameter vector lam."""
    return _enumerate(lam)[0]


def twisted_fine_classes(lam: list[CycloNum]) -> Iterator[tuple[FineTwistedParams, Grading]]:
    """(p, twisted_fine(lam, p)) for each enumerated class p in turn, on one
    twisted(lam), with the ScalarClasses the enumeration built."""
    reps, classes = _enumerate(lam)
    a = twisted(lam)
    for p in reps:
        yield p, _twisted_fine(a, lam, p, classes[p.l])


def equivalent_fine(lam: list[CycloNum], p: FineTwistedParams,
                    q: FineTwistedParams) -> bool:
    """Equivalence of two fine-grading parameter tuples: equal shape
    (l, s, r) and a scalar epsilon matching the class multisets of the
    block scalars (see ScalarClasses)."""
    return (p.l, p.s, p.r) == (q.l, q.s, q.r) and ScalarClasses(lam, p.l).equivalent(p, q)


# --- recovering block data from an arbitrary grading -------------------------

def homogenize_u(gr: Grading) -> tuple[Vect, list[tuple[Vect, Vect]], Vect]:
    """A homogeneous element u' outside the derived subalgebra together
    with an adjusted eigen-pair basis satisfying the defining twisted
    relations with respect to u'."""
    a = gr.algebra
    lam = twist(a)
    k = len(lam)
    # a nonzero u-coordinate puts a vector outside [L, L]
    witness = next((v for g in gr.support for v in gr.components[g] if v[0]), None)
    if witness is None:
        raise ValueError("grading has no homogeneous element outside the derived subalgebra")
    u_new = vscale(witness[0].inv(), witness)
    z = a.basis_vect(a.dim - 1)
    pairs = []
    for i in range(k):
        e, eh = a.basis_vect(1 + 2 * i), a.basis_vect(2 + 2 * i)
        u_i, v_i = vadd(e, eh), vsub(e, eh)  # the eigenvectors of ad(u)
        # u' = u + alpha z + sum alpha_i u_i + beta_i v_i in eigen coordinates
        e_c = u_new[1 + 2 * i]
        eh_c = u_new[2 + 2 * i]
        half = a.ctx.from_fraction(Fraction(1, 2))
        alpha_i = (e_c + eh_c) * half
        beta_i = (e_c - eh_c) * half
        pairs.append((vadd(u_i, vscale(2 * beta_i, z)),
                      vadd(v_i, vscale(2 * alpha_i, z))))
    # sanity: the adjusted basis keeps the defining relations
    for i, (ui, vi) in enumerate(pairs):
        if (a.bracket(u_new, ui) != vscale(lam[i], ui)
                or a.bracket(u_new, vi) != vscale(-lam[i], vi)):
            raise AssertionError("adjusted pair fails the ad(u') eigen relation")
        if a.bracket(ui, vi) != vscale(-2 * lam[i], z):
            raise AssertionError("adjusted pair fails the pairing relation")
    return u_new, pairs, z


def _graded_pieces(gr: Grading, ambient: list[Vect]) -> dict[GroupElt, list[Vect]]:
    """Intersections of a graded subspace with the components."""
    out = {}
    total = 0
    span = rref(ambient)
    for g in gr.support:
        inter = intersection(list(gr.components[g]), span, gr.algebra.ctx)
        if inter:
            out[g] = inter
            total += len(inter)
    if total != len(span[0]):
        raise ValueError("subspace is not graded")
    return out


def decompose_twisted_grading(gr: Grading):
    """Recover (u', type-I blocks, type-II blocks, params) from a grading
    on a twisted Heisenberg algebra, following the ad(u)-orbit
    extraction: split off one block at a time and pass to the
    centralizer of its span."""
    a = gr.algebra
    lam = twist(a)
    ctx = a.ctx
    _, gr = universal_group(gr)
    u_new, pairs, z = homogenize_u(gr)
    deg_u = gr.degree_of(u_new)
    if deg_u is None:
        raise AssertionError("homogenized u is not homogeneous")
    l = deg_u.order()
    if l is None:
        raise ValueError("the degree of u has infinite order; not a grading")

    phi = partial(a.bracket, sparse(u_new))  # ad(u'), on the nonzero coordinates of u'

    def block_orbit(x: Vect, mu: CycloNum) -> list[Vect]:  # [mu^-j phi^j(x) : j = 1..l]
        out = []
        for j in range(1, l + 1):
            x = phi(x)  # one bracket each
            out.append(vscale(mu ** -j, x))
        return out

    # V_mu^l = ker(phi^l - mu^l) inside [u', L]: the adjusted pairs span [u', L]
    # and are phi-eigenvectors (lam_i and -lam_i, checked by homogenize_u), so
    # V_mu^l is the span of those whose eigenvalue nu has nu^l = mu^l
    ambient = [p[0] for p in pairs] + [p[1] for p in pairs]
    powers = [x ** l for x in lam] + [(-x) ** l for x in lam]
    spectrum = sorted(_spectrum(lam), key=lambda v: v.sort_key())

    @cache
    def v_l(mu: CycloNum) -> tuple[list[Vect], list[int]]:  # rref of V_mu^l, once per mu
        mul = mu ** l
        return rref([v for v, nul in zip(ambient, powers) if nul == mul])

    remaining = _graded_pieces(gr, ambient)
    blocks_i: list[BlockI] = []
    blocks_ii: list[BlockII] = []

    def centralize(block_vecs: list[Vect]):
        nonlocal remaining
        new = {}
        for g, vecs in remaining.items():
            kept = _centralizer_in(a, vecs, block_vecs)
            if kept:
                new[g] = kept
        remaining = new

    while remaining:
        degrees = sorted(remaining, key=lambda e: e.key())
        # remaining[g] meets V_mu^l, once per (g, mu) of this round
        meet = cache(lambda g, mu: intersection(remaining[g], v_l(mu), ctx))
        hit = next(((mu, meet(g, mu)[0]) for mu in spectrum if v_l(mu)[0]
                    for g in degrees if meet(g, mu)), None)
        if hit is None:
            raise AssertionError("leftover graded subspace without eigen content")
        mu, x = hit
        if l % 2 == 0:
            found = _find_selfpaired(a, (meet(g, mu) for g in degrees), phi, z)
            if found is not None:
                x2, q = found  # [x2, phi(x2)] = q z, scaled to mu^2 z
                x2 = vscale(sqrt_scalar(mu * mu / q), x2)
                blk = BlockII(l // 2, mu, tuple(block_orbit(x2, mu)))
                check_block(a, u_new, z, blk)
                blocks_ii.append(blk)
                centralize(blk.elements())
                continue
        partner = mu if l % 2 == 0 else -mu  # V_mu^l = V_(-mu)^l for even l
        y, c = _find_partner(a, x, z, (meet(g, partner) for g in degrees))
        y = vscale(mu / c, y)  # [x, y] = c z, scaled to mu z
        blk = BlockI(l, mu, tuple(block_orbit(x, mu)), tuple(block_orbit(y, mu)))
        check_block(a, u_new, z, blk)
        blocks_i.append(blk)
        centralize(blk.elements())

    params = FineTwistedParams(l, len(blocks_i), len(blocks_ii),
                               tuple(b.alpha for b in blocks_i),
                               tuple(b.alpha for b in blocks_ii))
    if not spectrum_check(lam, params):
        raise AssertionError("recovered parameters fail the spectrum condition")
    return u_new, blocks_i, blocks_ii, params


def _centralizer_in(a: Algebra, vecs: list[Vect], targets: list[Vect]) -> list[Vect]:
    """{x in span(vecs) : [x, t] = 0 for all t in targets} as a basis."""
    rows = [row for t in targets for row in transpose([a.bracket(v, t) for v in vecs])]
    return combinations(vecs, rows, a.ctx)


def _find_selfpaired(a: Algebra, meets, phi, z: Vect) -> tuple[Vect, CycloNum] | None:
    """(x, q): a homogeneous x in the remaining part of V_mu^l (meets, its
    intersections with the remaining components), a basis vector or else a
    sum of two, with [x, phi(x)] = q z != 0; None when the pairing form
    vanishes identically there."""
    for inter in meets:
        sums = (vadd(v, w) for i, v in enumerate(inter) for w in inter[i + 1:])
        for x in chain(inter, sums):
            q = line_coeff(a.bracket(x, phi(x)), z)
            if q:
                return x, q
    return None


def _find_partner(a: Algebra, x: Vect, z: Vect, meets) -> tuple[Vect, CycloNum]:
    """(y, c): a homogeneous y in the remaining part of the partner eigenspace
    (meets, its intersections with the remaining components) with
    [x, y] = c z != 0."""
    for inter in meets:
        for y in inter:
            w = a.bracket(x, y)
            if not is_zero_vect(w):
                return y, line_coeff(w, z)
    raise AssertionError("no pairing partner found for the extracted orbit")

