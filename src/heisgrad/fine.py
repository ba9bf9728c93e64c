"""Fine gradings on the Heisenberg families.

Constructors for the fine gradings on plain and super Heisenberg
algebras and for the block-built fine gradings on twisted Heisenberg
algebras, together with the spectrum condition, enumeration up to
equivalence, the equivalence test itself, and the decomposition that
recovers block data from an arbitrary grading on a twisted algebra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from ._linalg import (Vect, in_span, intersection, is_zero_vect, kernel,
                      rref, vadd, vscale, vsub, vzero)
from .abelian import AbGroup, GroupElt, group_product
from .liealg import Algebra, heisenberg, heisenberg_super, twisted
from .gradings import Grading, universal_group
from .scalars import (CycloCtx, CycloNum, divisors, format_scalar,
                      root_of_unity_order, sqrt_int, sqrt_scalar)

__all__ = [
    "FineTwistedParams", "BlockI", "BlockII",
    "HeisenbergFine", "SuperFine", "TwistedFine", "twist",
    "heisenberg_fine", "super_fine", "enumerate_super_fine",
    "twisted_fine", "twisted_fine_nontoral", "twisted_fine_toral",
    "block_i", "block_ii", "rebase_block_i", "rebase_block_ii",
    "spectrum_check", "enumerate_twisted_fine", "equivalent_fine",
    "homogenize_u", "decompose_twisted_grading",
    "primitive_root", "class_rep", "class_ratios", "scalar_class_key",
    "scalar_class_data", "expected_twisted_group",
]


# --- scalar classes ----------------------------------------------------------

def _class_members(x: CycloNum, modulus: int, root: CycloNum) -> list[CycloNum]:
    out, cur = [], x
    for _ in range(modulus):
        out.append(cur)
        cur = cur * root
    return out


def class_rep(x: CycloNum, modulus: int, root: CycloNum) -> CycloNum:
    """The canonical (minimal) member of x's class up to multiplication by
    the modulus-th roots of unity, which are the powers of root."""
    return min(_class_members(x, modulus, root), key=lambda v: v.sort_key())


def scalar_class_key(x: CycloNum, modulus: int, root: CycloNum):
    return (modulus, class_rep(x, modulus, root).sort_key())


def class_ratios(scalars, base: CycloNum, modulus: int,
                 root: CycloNum) -> list[CycloNum]:
    """Each value x / base * root^m (x in scalars, 0 <= m < modulus) once,
    in the order first met."""
    out = {}
    for x in scalars:
        for cur in _class_members(x / base, modulus, root):
            out[cur] = None
    return list(out)


def primitive_root(ctx: CycloCtx, order: int, lam=()) -> CycloNum | None:
    """A primitive `order`-th root of unity in ctx, if one exists.

    Looks at zeta_N powers first, then at ratios of the supplied scalars
    (any root order forced by a spectrum condition is such a ratio).
    """
    if order == 1:
        return ctx.one()
    if order == 2:
        return ctx.from_fraction(-1)
    if ctx.n % order == 0:
        return ctx.zeta(ctx.n // order)
    for a in lam:
        for b in lam:
            for cand in (a / b, -(a / b)):
                if root_of_unity_order(cand) == order:
                    return cand
    return None


def scalar_class_data(lam: list[CycloNum], l: int):
    """The (modulus, root) pairs that define the classes of type-I and of
    type-II block scalars for block order l: classes modulo the l-th roots
    of unity, except type-I scalars for odd l, taken modulo 2l-th roots."""
    xi = primitive_root(lam[0].ctx, l, lam)
    if l % 2 == 0:
        return (l, xi), (l, xi)
    # -xi^((l+1)/2) is a primitive 2l-th root with square xi
    return (2 * l, -(xi ** ((l + 1) // 2))), (l, xi)


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


def spectrum_check(lam: list[CycloNum], p: FineTwistedParams) -> bool:
    """Multiset equality of {+-lam_i} against the block orbit values
    {+-xi^t beta_j} and {xi^t alpha_i}."""
    ctx = lam[0].ctx
    if p.l * (p.r + 2 * p.s) != 2 * len(lam):
        return False
    xi = primitive_root(ctx, p.l, lam)
    if xi is None:
        return False
    spec = Counter()
    for x in lam:
        spec[x] += 1
        spec[-x] += 1
    need = Counter()
    for b in p.betas:
        cur = b
        for _ in range(p.l):
            need[cur] += 1
            need[-cur] += 1
            cur = cur * xi
    for a in p.alphas:
        cur = a
        for _ in range(p.l):
            need[cur] += 1
            cur = cur * xi
    return spec == need


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
    return [a.table[0][1 + 2 * i][2 + 2 * i] for i in range(a.dim // 2 - 1)]


def _uv_vectors(a: Algebra, pair_index: int) -> tuple[Vect, Vect]:
    """The eigenvectors u_i = e_i + ehat_i and v_i = e_i - ehat_i."""
    e = a.basis_vect(1 + 2 * pair_index)
    eh = a.basis_vect(2 + 2 * pair_index)
    return vadd(e, eh), vsub(e, eh)


def _slot_vectors(a: Algebra, pair_index: int, swapped: bool) -> tuple[Vect, Vect]:
    u, v = _uv_vectors(a, pair_index)
    return (v, u) if swapped else (u, v)


def verify_block_i(a: Algebra, u: Vect, z: Vect, blk: BlockI) -> None:
    l, alpha = blk.l, blk.alpha
    xs = (None,) + blk.xs  # 1-based
    ys = (None,) + blk.ys
    sign = a.ctx.from_fraction((-1) ** l)
    for i in range(1, l + 1):
        want = vscale(alpha, xs[i % l + 1])
        if a.bracket(u, xs[i]) != want:
            raise AssertionError(f"type-I block: ad(u) fails on x_{i}")
        want = vscale(alpha, ys[i + 1]) if i < l else vscale(sign * alpha, ys[1])
        if a.bracket(u, ys[i]) != want:
            raise AssertionError(f"type-I block: ad(u) fails on y_{i}")
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            if not is_zero_vect(a.bracket(xs[i], xs[j])):
                raise AssertionError("type-I block: nonzero x-x bracket")
            if not is_zero_vect(a.bracket(ys[i], ys[j])):
                raise AssertionError("type-I block: nonzero y-y bracket")
            w = a.bracket(xs[i], ys[j])
            if (i + j) % l == 0:
                want = vscale(a.ctx.from_fraction((-1) ** j) * alpha, z)
                if w != want:
                    raise AssertionError(f"type-I block: pairing fails on x_{i}, y_{j}")
            elif not is_zero_vect(w):
                raise AssertionError("type-I block: unexpected nonzero x-y bracket")


def verify_block_ii(a: Algebra, u: Vect, z: Vect, blk: BlockII) -> None:
    l, alpha = blk.l, blk.alpha
    xs = (None,) + blk.xs
    n = 2 * l
    for i in range(1, n + 1):
        want = vscale(alpha, xs[i % n + 1])
        if a.bracket(u, xs[i]) != want:
            raise AssertionError(f"type-II block: ad(u) fails on x_{i}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w = a.bracket(xs[i], xs[j])
            if i + j == n + 1:
                want = vscale(a.ctx.from_fraction((-1) ** i) * alpha, z)
                if w != want:
                    raise AssertionError(f"type-II block: pairing fails on x_{i}, x_{j}")
            elif not is_zero_vect(w):
                raise AssertionError("type-II block: unexpected nonzero bracket")


def _block_slots(a: Algebra, l: int, order: int, alpha: CycloNum,
                 pairs: list[tuple[int, bool]]):
    """A primitive order-th root xi and the slot vectors (us, vs) of the l
    eigen-pairs, pairs[q] carrying the eigenvalue xi^(q+1) * alpha."""
    lam = twist(a)
    xi = primitive_root(a.ctx, order, lam)
    if xi is None:
        raise ValueError(f"no primitive {order}-th root available")
    if len(pairs) != l:
        raise ValueError("need exactly l eigen-pairs")
    us, vs = [], []
    for q, (idx, swapped) in enumerate(pairs, start=1):
        val = (xi ** q) * alpha
        actual = -lam[idx] if swapped else lam[idx]
        if actual != val:
            raise ValueError(
                f"pair {idx} has eigenvalue {actual!r}, slot needs {val!r}")
        u, v = _slot_vectors(a, idx, swapped)
        us.append(u)
        vs.append(v)
    return xi, us, vs


def block_i(a: Algebra, l: int, alpha: CycloNum,
            pairs: list[tuple[int, bool]]) -> BlockI:
    """Build a type-I block from l eigen-pairs of ad(u); pairs[q] gives
    the pair index and whether its (u_i, v_i) roles are swapped, and the
    pair's eigenvalue must be xi^(q+1) * alpha."""
    ctx = a.ctx
    xi, us, vs = _block_slots(a, l, l, alpha, pairs)
    xs, ys = [], []
    inv2l = ctx.from_fraction(Fraction(1, 2 * l))
    for j in range(1, l + 1):
        x = vzero(ctx, a.dim)
        y = vzero(ctx, a.dim)
        for q in range(1, l + 1):
            x = vadd(x, vscale(xi ** (j * q), us[q - 1]))
            y = vadd(y, vscale(xi ** ((j - 1) * q), vs[q - 1]))
        sign = ctx.from_fraction(-((-1) ** j))
        xs.append(x)
        ys.append(vscale(sign * inv2l, y))
    blk = BlockI(l, alpha, tuple(xs), tuple(ys))
    verify_block_i(a, a.basis_vect(0), a.basis_vect(a.dim - 1), blk)
    return blk


def block_ii(a: Algebra, l: int, alpha: CycloNum,
             pairs: list[tuple[int, bool]]) -> BlockII:
    """Build a type-II block (2l elements) from l eigen-pairs; pairs[q]
    must carry eigenvalue zeta^(q+1) * alpha for zeta a primitive 2l-th
    root (so the last slot carries -alpha)."""
    ctx = a.ctx
    zeta, us, vs = _block_slots(a, l, 2 * l, alpha, pairs)
    scale = ctx.i() / (2 * sqrt_int(l, ctx))
    xs = []
    for j in range(1, 2 * l + 1):
        x = vzero(ctx, a.dim)
        sgn = ctx.from_fraction((-1) ** (j - 1))
        for q in range(1, l + 1):
            term = vadd(us[q - 1], vscale(sgn, vs[q - 1]))
            x = vadd(x, vscale(zeta ** ((j - 1) * q), term))
        xs.append(vscale(scale, x))
    blk = BlockII(l, alpha, tuple(xs))
    verify_block_ii(a, a.basis_vect(0), a.basis_vect(a.dim - 1), blk)
    return blk


def rebase_block_i(a: Algebra, blk: BlockI, new_alpha: CycloNum) -> BlockI:
    """A type-I block with scalar new_alpha spanning the same subspace.

    Possible exactly when delta = new/old is an l-th root of unity (even
    l) or a 2l-th root (odd l)."""
    delta = new_alpha / blk.alpha
    l = blk.l
    if delta == a.ctx.one():
        return blk
    if delta ** l == a.ctx.one():
        xs = tuple(vscale(delta ** (1 - i), blk.xs[i - 1]) for i in range(1, l + 1))
        ys = tuple(vscale(delta ** (l - i), blk.ys[i - 1]) for i in range(1, l + 1))
    elif l % 2 and delta ** (2 * l) == a.ctx.one():
        xs = tuple(vscale(delta ** (1 - i), blk.ys[i - 1]) for i in range(1, l + 1))
        ys = tuple(vscale(delta ** (l - i), blk.xs[i - 1]) for i in range(1, l + 1))
    else:
        raise ValueError("scalar change is not compatible with the block span")
    out = BlockI(l, new_alpha, xs, ys)
    verify_block_i(a, a.basis_vect(0), a.basis_vect(a.dim - 1), out)
    return out


def rebase_block_ii(a: Algebra, blk: BlockII, new_alpha: CycloNum) -> BlockII:
    """A type-II block with scalar new_alpha on the same subspace;
    requires delta = new/old to be a 2l-th root of unity."""
    delta = new_alpha / blk.alpha
    l = blk.l
    if delta == a.ctx.one():
        return blk
    if delta ** (2 * l) != a.ctx.one():
        raise ValueError("scalar change is not compatible with the block span")
    xs = tuple(vscale(delta ** (1 - j), blk.xs[j - 1]) for j in range(1, 2 * l + 1))
    out = BlockII(l, new_alpha, xs)
    verify_block_ii(a, a.basis_vect(0), a.basis_vect(a.dim - 1), out)
    return out


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
    """The parameter vector, the normalized parameters, u, z and the
    blocks that carry the grading."""

    name: ClassVar[str] = "twisted"
    lam: tuple[CycloNum, ...]
    params: FineTwistedParams
    u: Vect
    z: Vect
    blocks_i: tuple[BlockI, ...]
    blocks_ii: tuple[BlockII, ...]

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
    raw = Grading(a, group, comps, HeisenbergFine(k))
    _, out = universal_group(raw)
    return out


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
    raw = Grading(a, group, comps, SuperFine(k, m, r, tuple(uv), tuple(zs), z))
    _, out = universal_group(raw)
    return out


def enumerate_super_fine(k: int, m: int) -> list[tuple[int, Grading]]:
    """All fine gradings on H_(2k+1, m) up to equivalence, one per r."""
    if m < 0:
        raise ValueError("need m >= 0")
    return [(r, super_fine(k, m, r)) for r in range(m // 2 + 1)]


def _normalize_params(lam: list[CycloNum], p: FineTwistedParams) -> FineTwistedParams:
    """Rescale block scalars to canonical class representatives and sort."""
    (bm, br), (am, ar) = scalar_class_data(lam, p.l)
    betas = sorted((class_rep(b, bm, br) for b in p.betas),
                   key=lambda v: v.sort_key())
    alphas = sorted((class_rep(x, am, ar) for x in p.alphas),
                    key=lambda v: v.sort_key())
    return FineTwistedParams(p.l, p.s, p.r, tuple(betas), tuple(alphas))


def _assign_pairs(lam: list[CycloNum], values: list[CycloNum],
                  used: set[int]) -> list[tuple[int, bool]]:
    out = []
    for val in values:
        hit = None
        for i, x in enumerate(lam):
            if i in used:
                continue
            if x == val:
                hit = (i, False)
                break
            if x == -val:
                hit = (i, True)
                break
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
    if not spectrum_check(lam, p):
        raise ValueError("parameters fail the spectrum condition")
    p = _normalize_params(lam, p)
    if not spectrum_check(lam, p):  # normalization preserves the orbits
        raise AssertionError("normalization broke the spectrum condition")
    a = twisted(lam)
    ctx = a.ctx
    l, s, r = p.l, p.s, p.r
    xi = primitive_root(ctx, l, lam)
    used: set[int] = set()
    blocks_i = []
    for b in p.betas:
        values = [(xi ** q) * b for q in range(1, l + 1)]
        blocks_i.append(block_i(a, l, b, _assign_pairs(lam, values, used)))
    blocks_ii = []
    for alpha in p.alphas:
        m = l // 2  # xi is a primitive 2m-th root
        values = [(xi ** q) * alpha for q in range(1, m + 1)]
        blocks_ii.append(block_ii(a, m, alpha, _assign_pairs(lam, values, used)))

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

    family = TwistedFine(tuple(lam), p, u_vec, z_vec, tuple(blocks_i), tuple(blocks_ii))
    raw = Grading(a, group, comps, family)
    ugroup, out = universal_group(raw)
    if ugroup != expected_twisted_group(l, s, r):
        raise AssertionError(
            f"universal group {ugroup} does not match the expected "
            f"{expected_twisted_group(l, s, r)}")
    return out


def twisted_fine_nontoral(lam: list[CycloNum]) -> Grading:
    """The fine grading carried by the defining basis (nontoral for
    k > 0): all blocks of type II with l = 2."""
    k = len(lam)
    return twisted_fine(lam, FineTwistedParams(2, 0, k, (), tuple(lam)))


def twisted_fine_toral(lam: list[CycloNum]) -> Grading:
    """The toral fine grading carried by the ad(u)-eigenbasis: all blocks
    of type I with l = 1."""
    k = len(lam)
    return twisted_fine(lam, FineTwistedParams(1, k, 0, tuple(lam), ()))


# --- enumeration and equivalence ---------------------------------------------

def _counter_contains(big: Counter, small: Counter) -> bool:
    return all(big[k] >= v for k, v in small.items())


def _extract_blocks(spec: Counter, l: int, s: int, r: int,
                    xi: CycloNum) -> list[tuple[tuple, tuple]]:
    """All ways to split the spectrum multiset into s type-I orbits and
    r type-II orbits; the block scalar of an orbit is pinned to the
    minimal element it contains, so the search never revisits a choice."""
    if s == 0 and r == 0:
        return [((), ())] if not +spec else []
    live = [x for x, c in spec.items() if c > 0]
    if not live:
        return []
    mu = min(live, key=lambda v: v.sort_key())
    out = []
    if s > 0:
        orbit = Counter()
        cur = mu
        for _ in range(l):
            orbit[cur] += 1
            orbit[-cur] += 1
            cur = cur * xi
        if _counter_contains(spec, orbit):
            for betas, alphas in _extract_blocks(spec - orbit, l, s - 1, r, xi):
                out.append(((mu,) + betas, alphas))
    if r > 0:
        orbit = Counter()
        cur = mu
        for _ in range(l):
            orbit[cur] += 1
            cur = cur * xi
        if _counter_contains(spec, orbit):
            for betas, alphas in _extract_blocks(spec - orbit, l, s, r - 1, xi):
                out.append((betas, (mu,) + alphas))
    return out


def param_sort_key(lam: list[CycloNum], p: FineTwistedParams):
    (bm, br), (am, ar) = scalar_class_data(lam, p.l)
    bkeys = sorted(scalar_class_key(b, bm, br) for b in p.betas)
    akeys = sorted(scalar_class_key(x, am, ar) for x in p.alphas)
    return (p.l, p.s, p.r, tuple(bkeys), tuple(akeys),
            tuple(b.sort_key() for b in p.betas),
            tuple(x.sort_key() for x in p.alphas))


def enumerate_twisted_fine(lam: list[CycloNum]) -> list[FineTwistedParams]:
    """Representatives of the equivalence classes of fine gradings on the
    twisted Heisenberg algebra with parameter vector lam."""
    ctx = lam[0].ctx
    k = len(lam)
    spec = Counter()
    for x in lam:
        spec[x] += 1
        spec[-x] += 1
    found: list[FineTwistedParams] = []
    for l in divisors(2 * k):
        xi = primitive_root(ctx, l, lam)
        if xi is None:
            continue
        per_block = 2 * k // l
        for s in range(per_block // 2 + 1):
            r = per_block - 2 * s
            if r and l % 2:
                continue
            for betas, alphas in _extract_blocks(spec, l, s, r, xi):
                p = FineTwistedParams(l, s, r, betas, alphas)
                if spectrum_check(lam, p):
                    found.append(_normalize_params(lam, p))
    found.sort(key=lambda p: param_sort_key(lam, p))
    reps: list[FineTwistedParams] = []
    for p in found:
        if not any(equivalent_fine(lam, p, q) for q in reps):
            reps.append(p)
    return reps


def equivalent_fine(lam: list[CycloNum], p: FineTwistedParams,
                    q: FineTwistedParams) -> bool:
    """Equivalence of two fine-grading parameter tuples: equal shape
    (l, s, r) and a scalar epsilon matching the class multisets of the
    block scalars (classes modulo l-th roots for even l, modulo 2l-th
    roots for odd l on the type-I side)."""
    if (p.l, p.s, p.r) != (q.l, q.s, q.r):
        return False
    (bm, br), (am, ar) = scalar_class_data(lam, p.l)
    pb = Counter(scalar_class_key(b, bm, br) for b in p.betas)
    pa = Counter(scalar_class_key(x, am, ar) for x in p.alphas)

    def matches(eps: CycloNum) -> bool:
        qb = Counter(scalar_class_key(eps * b, bm, br) for b in q.betas)
        if qb != pb:
            return False
        qa = Counter(scalar_class_key(eps * x, am, ar) for x in q.alphas)
        return qa == pa

    if p.s:
        cands = class_ratios(p.betas, q.betas[0], bm, br)
    else:
        cands = class_ratios(p.alphas, q.alphas[0], am, ar)
    return any(matches(eps) for eps in cands)


# --- recovering block data from an arbitrary grading -------------------------

def homogenize_u(gr: Grading) -> tuple[Vect, list[tuple[Vect, Vect]], Vect]:
    """A homogeneous element u' outside the derived subalgebra together
    with an adjusted eigen-pair basis satisfying the defining twisted
    relations with respect to u'."""
    a = gr.algebra
    lam = twist(a)
    k = len(lam)
    witness = None
    for g in gr.support:
        for v in gr.components[g]:
            if v[0]:  # nonzero u-coordinate: outside [L, L]
                witness = v
                break
        if witness is not None:
            break
    if witness is None:
        raise ValueError("grading has no homogeneous element outside the derived subalgebra")
    u_new = vscale(witness[0].inv(), witness)
    z = a.basis_vect(a.dim - 1)
    pairs = []
    for i in range(k):
        u_i, v_i = _uv_vectors(a, i)
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
        if a.bracket(u_new, ui) != vscale(lam[i], ui):
            raise AssertionError("adjusted pair fails the ad(u') eigen relation")
        if a.bracket(u_new, vi) != vscale(-lam[i], vi):
            raise AssertionError("adjusted pair fails the ad(u') eigen relation")
        if a.bracket(ui, vi) != vscale(-2 * lam[i], z):
            raise AssertionError("adjusted pair fails the pairing relation")
    return u_new, pairs, z


def _graded_pieces(gr: Grading, ambient: list[Vect]) -> dict[GroupElt, list[Vect]]:
    """Intersections of a graded subspace with the components."""
    out = {}
    total = 0
    for g in gr.support:
        inter = intersection(list(gr.components[g]), ambient, gr.algebra.ctx)
        if inter:
            out[g] = inter
            total += len(inter)
    if total != len(rref(ambient)[0]):
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
    deg_u = None
    for g in gr.support:
        if in_span(list(gr.components[g]), u_new):
            deg_u = g
            break
    if deg_u is None:
        raise AssertionError("homogenized u is not homogeneous")
    l = deg_u.order()
    if l is None:
        raise ValueError("the degree of u has infinite order; not a grading")

    def phi(v: Vect) -> Vect:
        return a.bracket(u_new, v)

    def phi_pow(v: Vect, n: int) -> Vect:
        for _ in range(n):
            v = phi(v)
        return v

    def z_coeff(v: Vect) -> CycloNum:
        rest = vsub(v, vscale(v[a.dim - 1], z))
        if not is_zero_vect(rest):
            raise AssertionError("bracket does not land on the center line")
        return v[a.dim - 1]

    # eigenvalue-power kernels V_mu^l = ker(phi^l - mu^l)
    ambient = [p[0] for p in pairs] + [p[1] for p in pairs]
    spectrum = []
    for x in lam:
        for v in (x, -x):
            if all(v != w for w in spectrum):
                spectrum.append(v)
    spectrum.sort(key=lambda v: v.sort_key())

    def v_l(mu: CycloNum) -> list[Vect]:
        rows = []
        mul = mu ** l
        cols = [vsub(phi_pow(a.basis_vect(j), l), vscale(mul, a.basis_vect(j)))
                for j in range(a.dim)]
        for i in range(a.dim):
            rows.append(tuple(cols[j][i] for j in range(a.dim)))
        ker = kernel(rows, ctx, a.dim)
        # restrict to [u', L]
        return intersection(ker, ambient, ctx)

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
        hit = None
        for mu in spectrum:
            vl = v_l(mu)
            if not vl:
                continue
            for g in sorted(remaining, key=lambda e: e.key()):
                inter = intersection(remaining[g], vl, ctx)
                if inter:
                    hit = (mu, inter, vl)
                    break
            if hit:
                break
        if hit is None:
            raise AssertionError("leftover graded subspace without eigen content")
        mu, inter, vl = hit
        if l % 2 == 0:
            x2 = _find_selfpaired(a, remaining, vl, ctx, phi, z_coeff)
            if x2 is not None:
                c = z_coeff(a.bracket(x2, phi(x2)))
                t = sqrt_scalar((mu * mu) / c)
                x2 = vscale(t, x2)
                xs = [vscale(mu ** -j, phi_pow(x2, j)) for j in range(1, l + 1)]
                blk = BlockII(l // 2, mu, tuple(xs))
                verify_block_ii(a, u_new, z, blk)
                blocks_ii.append(blk)
                centralize(blk.elements())
                continue
            vl_partner = vl  # V_mu^l = V_(-mu)^l for even l
        else:
            vl_partner = v_l(-mu)
        x = inter[0]
        y = _find_partner(a, remaining, x, vl_partner, ctx)
        c = z_coeff(a.bracket(x, y))
        y = vscale(mu / c, y)
        xs = [vscale(mu ** -j, phi_pow(x, j)) for j in range(1, l + 1)]
        ys = [vscale(mu ** -j, phi_pow(y, j)) for j in range(1, l + 1)]
        blk = BlockI(l, mu, tuple(xs), tuple(ys))
        verify_block_i(a, u_new, z, blk)
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
    if not vecs:
        return []
    rows = []
    for t in targets:
        images = [a.bracket(v, t) for v in vecs]
        for c in range(a.dim):
            rows.append(tuple(img[c] for img in images))
    coeffs = kernel(rows, a.ctx, len(vecs))
    out = []
    for co in coeffs:
        acc = vzero(a.ctx, a.dim)
        for c, v in zip(co, vecs):
            if c:
                acc = vadd(acc, vscale(c, v))
        out.append(acc)
    basis, _ = rref(out)
    return list(basis)


def _find_selfpaired(a: Algebra, remaining, vl: list[Vect], ctx, phi, z_coeff):
    """A homogeneous x in the remaining part of V_mu^l with [x, phi(x)] != 0,
    or None when the pairing form vanishes identically there."""

    def q_value(v: Vect) -> CycloNum:
        return z_coeff(a.bracket(v, phi(v)))

    for g in sorted(remaining, key=lambda e: e.key()):
        inter = intersection(remaining[g], vl, ctx)
        n = len(inter)
        for i in range(n):
            if q_value(inter[i]):
                return inter[i]
        for i in range(n):
            for j in range(i + 1, n):
                cand = vadd(inter[i], inter[j])
                if q_value(cand):
                    return cand
    return None


def _find_partner(a: Algebra, remaining, x: Vect, vl_partner: list[Vect], ctx) -> Vect:
    """A homogeneous y in the remaining part of the partner eigenspace
    with [x, y] != 0."""
    for g in sorted(remaining, key=lambda e: e.key()):
        for y in intersection(remaining[g], vl_partner, ctx):
            if not is_zero_vect(a.bracket(x, y)):
                return y
    raise AssertionError("no pairing partner found for the extracted orbit")

