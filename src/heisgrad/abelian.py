"""Finitely generated abelian groups in invariant-factor form.

Groups are presented by generators and integer relation rows, put into
canonical form Z^rank x Z_d1 x ... x Z_dk (d1 | d2 | ...) via the Smith
normal form, and carry exact element arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

__all__ = [
    "smith_normal_form",
    "AbPresentation",
    "AbGroup",
    "GroupElt",
    "canonicalize",
    "group_product",
    "generates",
    "subgroup_presentation",
]

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal
    with a divisibility chain d1 | d2 | ...

    Pivot choice: smallest nonzero absolute value in the active block,
    scanning rows before columns, so the output is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for c in range(cols):
            d[i][c] -= q * d[j][c]
        for c in range(rows):
            u[i][c] -= q * u[j][c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # locate pivot: least |entry| in the block, rows scanned first
        pi = pj = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, pi, pj = x, i, j
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if d[t][t] < 0:
            for c in range(cols):
                d[t][c] = -d[t][c]
            for c in range(rows):
                u[t][c] = -u[t][c]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                row_op(i, t, q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                col_op(j, t, q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        p = d[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to the pivot row
            continue
        t += 1
    return u, d, v


@dataclass(frozen=True)
class AbPresentation:
    """Generators and integer relation rows (one relation per row)."""

    n_gens: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.relations:
            if len(row) != self.n_gens:
                raise ValueError("relation length does not match generator count")


@dataclass(frozen=True)
class AbGroup:
    """Z^rank x Z_d1 x ... x Z_dk with d1 | d2 | ... and every di >= 2."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} violates the divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")

    def elt(self, free=(), torsion=()) -> "GroupElt":
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.rank or len(torsion) != len(self.torsion):
            raise ValueError("coordinate length mismatch")
        torsion = tuple(t % d for t, d in zip(torsion, self.torsion))
        return GroupElt(self, free, torsion)

    def zero(self) -> "GroupElt":
        return self.elt((0,) * self.rank, (0,) * len(self.torsion))

    def generators(self) -> list["GroupElt"]:
        """Canonical generators: free ones first, then torsion ones."""
        gens = []
        for i in range(self.rank):
            gens.append(self.elt(tuple(int(i == j) for j in range(self.rank)),
                                 (0,) * len(self.torsion)))
        for i in range(len(self.torsion)):
            gens.append(self.elt((0,) * self.rank,
                                 tuple(int(i == j) for j in range(len(self.torsion)))))
        return gens

    def is_torsion_free(self) -> bool:
        return not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class GroupElt:
    """An element of an AbGroup; torsion residues are kept reduced."""

    group: AbGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def _check(self, other):
        if not isinstance(other, GroupElt) or other.group != self.group:
            raise ValueError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return self.group.elt(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self):
        return self.group.elt(tuple(-a for a in self.free), tuple(-a for a in self.torsion))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n: int):
        return self.group.elt(
            tuple(n * a for a in self.free), tuple(n * a for a in self.torsion)
        )

    __rmul__ = __mul__

    def order(self) -> int | None:
        """Element order; None when infinite."""
        if any(self.free):
            return None
        out = 1
        for t, d in zip(self.torsion, self.group.torsion):
            if t:
                out = lcm(out, d // gcd(d, t))
        return out

    def key(self):
        return (self.free, self.torsion)

    def __str__(self):
        items = [str(x) for x in self.free] + [f"{t}m{d}" for t, d in
                                               zip(self.torsion, self.group.torsion)]
        return "(" + ",".join(items) + ")"


def canonicalize(p: AbPresentation) -> tuple[AbGroup, list[GroupElt]]:
    """Canonical form of the presented group plus the images of the
    original generators in canonical coordinates."""
    n, m = p.n_gens, len(p.relations)
    if n == 0:
        return AbGroup(0, ()), []
    # columns of M are the relation vectors; the group is Z^n / (column span)
    mat = [[p.relations[j][i] for j in range(m)] for i in range(n)] if m else [[] for _ in range(n)]
    if m:
        u, d, _ = smith_normal_form(mat)
        diag = [d[i][i] if i < m else 0 for i in range(n)]
    else:
        u = _identity(n)
        diag = [0] * n
    free_idx = [i for i in range(n) if diag[i] == 0]
    tors_idx = [i for i in range(n) if diag[i] >= 2]
    group = AbGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    images = []
    for j in range(n):
        free = tuple(u[i][j] for i in free_idx)
        tors = tuple(u[i][j] for i in tors_idx)
        images.append(group.elt(free, tors))
    return group, images


def group_product(factors: list[int]) -> tuple[AbGroup, list[GroupElt]]:
    """The product of cyclic factors (0 means Z, d >= 1 means Z_d), in
    canonical form, with one canonical generator per listed factor."""
    rels = []
    for i, d in enumerate(factors):
        if d < 0:
            raise ValueError("factors must be 0 (infinite) or positive")
        if d >= 1:
            row = [0] * len(factors)
            row[i] = d
            rels.append(tuple(row))
    return canonicalize(AbPresentation(len(factors), tuple(rels)))


def _elt_matrix(group: AbGroup, elts: list[GroupElt]) -> IntMatrix:
    """The coordinate rows of elts, then the torsion rows d_i * e_(rank+i)."""
    n = group.rank + len(group.torsion)
    return [list(e.free) + list(e.torsion) for e in elts] + [
        [d if j == group.rank + i else 0 for j in range(n)]
        for i, d in enumerate(group.torsion)]


def generates(group: AbGroup, elts: list[GroupElt]) -> bool:
    """Whether the given elements generate the whole group."""
    n = group.rank + len(group.torsion)
    if n == 0:
        return True
    rels = tuple(map(tuple, _elt_matrix(group, elts)))
    quotient, _ = canonicalize(AbPresentation(n, rels))
    return quotient.rank == 0 and not quotient.torsion


def express_in_terms(group: AbGroup, elts: list[GroupElt],
                     target: GroupElt) -> list[int] | None:
    """Integer coefficients c with sum(c_i * elts_i) = target, or None."""
    p = len(elts)
    t = len(group.torsion)
    n = group.rank + t
    if n == 0:
        return [0] * p
    mat = _elt_matrix(group, elts)
    u, dmat, v = smith_normal_form(mat)
    tgt = list(target.free) + list(target.torsion)
    c = [sum(tgt[i] * v[i][j] for i in range(n)) for j in range(n)]
    w_prime = [0] * len(mat)
    for i in range(n):
        d = dmat[i][i] if i < len(mat) else 0
        if d:
            if c[i] % d:
                return None
            w_prime[i] = c[i] // d
        elif c[i]:
            return None
    w = [sum(w_prime[i] * u[i][j] for i in range(len(mat)))
         for j in range(len(mat))]
    combo = w[:p]
    acc = group.zero()
    for coeff, e in zip(combo, elts):
        acc = acc + coeff * e
    if acc != target:
        return None
    return combo


def subgroup_presentation(group: AbGroup, elts: list[GroupElt]) -> AbPresentation:
    """A presentation of the subgroup generated by `elts`, with one
    generator per element (relations = all integer combinations that
    vanish in the ambient group)."""
    p = len(elts)
    t = len(group.torsion)
    if p == 0:
        return AbPresentation(0, ())
    # x . M must land in 0^rank x prod(d_i Z); torsion shifts sit below M
    mat = _elt_matrix(group, elts)
    u, dmat, _ = smith_normal_form(mat)
    rels = []
    width = group.rank + t
    for i in range(len(mat)):
        if all((dmat[i][j] if j < width else 0) == 0 for j in range(width)):
            rels.append(tuple(u[i][:p]))
    return AbPresentation(p, tuple(rels))
