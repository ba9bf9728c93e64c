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


def smith_normal_form(a: IntMatrix, with_v: bool = True) -> tuple[IntMatrix, IntMatrix, IntMatrix | None]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal
    with a divisibility chain d1 | d2 | ...; V is None without with_v,
    and U and D are the same either way.

    Pivot choice: smallest nonzero absolute value in the active block,
    scanning rows before columns, so the output is deterministic.  Rows
    and columns before the pivot's are zero in the active block, so the
    column steps skip the rows of D with no entry in the pivot column.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u = _identity(rows)
    v = _identity(cols) if with_v else None

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    t = 0
    while t < min(rows, cols):
        # locate pivot: least |entry| in the block, rows scanned first
        best = pi = 0
        for i in range(t, rows):
            least = min(map(abs, filter(None, d[i][t:])), default=0)
            if least and (not best or least < best):
                best, pi = least, i
                if least == 1:
                    break
        if not best:
            break
        pj = next(j for j in range(t, cols) if abs(d[pi][j]) == best)
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for m in (d, v) if with_v else (d,):
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        p = d[t][t]
        for i in range(t + 1, rows):
            if d[i][t]:
                row_op(i, t, d[i][t] // p)
        # col_j -= q_j * col_t for each j > t: q_j reads row t, which the
        # other column steps leave alone
        steps = [(j, x // p) for j, x in enumerate(d[t]) if j > t and x]
        for row in (d[t:] + v) if with_v else d[t:]:
            c = row[t]
            if c:
                for j, q in steps:
                    row[j] -= q * c
        if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1:]):
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = next((i for i in range(t + 1, rows)
                         if any(x % p for x in d[i][t + 1:])), None) if p > 1 else None
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
        if self.n_gens < 0:
            raise ValueError(f"n_gens must be >= 0, not {self.n_gens}")
        for row in self.relations:
            if len(row) != self.n_gens:
                raise ValueError("relation length does not match generator count")


@dataclass(frozen=True)
class AbGroup:
    """Z^rank x Z_d1 x ... x Z_dk with d1 | d2 | ... and every di >= 2."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, not {self.rank}")
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

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


class GroupElt:
    """An element of an AbGroup; torsion residues are kept reduced.  The
    constructor takes coordinates as they are: AbGroup.elt checks and
    reduces outside input, and the arithmetic reduces its own results.
    The hash is formed once, from the coordinates."""

    __slots__ = ("group", "free", "torsion", "_hash")

    def __init__(self, group: AbGroup, free: tuple[int, ...], torsion: tuple[int, ...]):
        self.group = group
        self.free = free
        self.torsion = torsion
        self._hash = hash((free, torsion))

    def __eq__(self, other):
        if other.__class__ is not GroupElt:
            return NotImplemented
        return (self.free == other.free and self.torsion == other.torsion
                and (self.group is other.group or self.group == other.group))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElt(group={self.group!r}, free={self.free!r}, torsion={self.torsion!r})"

    def _check(self, other):
        if other.__class__ is not GroupElt or (other.group is not self.group
                                               and other.group != self.group):
            raise ValueError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElt(self.group, tuple(a + b for a, b in zip(self.free, other.free)),
                        tuple((a + b) % d for a, b, d in
                              zip(self.torsion, other.torsion, self.group.torsion)))

    def __neg__(self):
        return GroupElt(self.group, tuple(-a for a in self.free),
                        tuple(-a % d for a, d in zip(self.torsion, self.group.torsion)))

    def __sub__(self, other):
        self._check(other)
        return GroupElt(self.group, tuple(a - b for a, b in zip(self.free, other.free)),
                        tuple((a - b) % d for a, b, d in
                              zip(self.torsion, other.torsion, self.group.torsion)))

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return GroupElt(self.group, tuple(n * a for a in self.free),
                        tuple(n * a % d for a, d in zip(self.torsion, self.group.torsion)))

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
        u, d, _ = smith_normal_form(mat, with_v=False)
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
        images.append(GroupElt(group, free, tuple(x % d for x, d in zip(tors, group.torsion))))
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
    u, dmat, _ = smith_normal_form(mat, with_v=False)
    rels = []
    width = group.rank + t
    for i in range(len(mat)):
        if all((dmat[i][j] if j < width else 0) == 0 for j in range(width)):
            rels.append(tuple(u[i][:p]))
    return AbPresentation(p, tuple(rels))
