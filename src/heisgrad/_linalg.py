"""Exact linear algebra over a cyclotomic field.

Vectors are tuples of CycloNum; matrices are lists of row tuples.  All
pivoting is first-nonzero in a fixed scan order, so results are
deterministic.
"""

from __future__ import annotations

from .scalars import CycloCtx, CycloNum

Vect = tuple[CycloNum, ...]

__all__ = [
    "Vect", "vzero", "vadd", "vsub", "vscale", "is_zero_vect",
    "rref", "rank", "in_span", "reduce_against", "kernel", "intersection",
    "mat_inverse", "mat_apply", "same_span",
]


def vzero(ctx: CycloCtx, n: int) -> Vect:
    z = ctx.zero()
    return (z,) * n


def vadd(a: Vect, b: Vect) -> Vect:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vect, b: Vect) -> Vect:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: CycloNum, a: Vect) -> Vect:
    return tuple(c * x for x in a)


def is_zero_vect(a: Vect) -> bool:
    return not any(a)


def rref(rows: list[Vect]) -> tuple[list[Vect], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    n_cols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inv()
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(rows: list[Vect]) -> int:
    return len(rref(rows)[0])


def reduce_against(basis_rref: list[Vect], pivots: list[int], v: Vect) -> Vect:
    """Residual of v after elimination against an rref basis."""
    out = list(v)
    for row, p in zip(basis_rref, pivots):
        c = out[p]
        if c:
            out = [x - c * y for x, y in zip(out, row)]
    return tuple(out)


def in_span(rows: list[Vect], v: Vect) -> bool:
    basis, pivots = rref(rows)
    return is_zero_vect(reduce_against(basis, pivots, v))


def same_span(rows_a: list[Vect], rows_b: list[Vect]) -> bool:
    ra, pa = rref(rows_a)
    rb, pb = rref(rows_b)
    return ra == rb and pa == pb


def kernel(rows: list[Vect], ctx: CycloCtx, n_unknowns: int) -> list[Vect]:
    """Basis of {x : A x = 0} where the rows of A are given."""
    basis, pivots = rref(rows)
    free_cols = [j for j in range(n_unknowns) if j not in pivots]
    out = []
    one, zero = ctx.one(), ctx.zero()
    for f in free_cols:
        x = [zero] * n_unknowns
        x[f] = one
        for row, p in zip(basis, pivots):
            x[p] = -row[f]
        out.append(tuple(x))
    return out


def intersection(rows_a: list[Vect], rows_b: list[Vect], ctx: CycloCtx) -> list[Vect]:
    """Basis (rref) of span(rows_a) intersected with span(rows_b)."""
    if not rows_a or not rows_b:
        return []
    na, nb = len(rows_a), len(rows_b)
    dim = len(rows_a[0])
    sys_rows = []
    for c in range(dim):
        sys_rows.append(tuple([rows_a[i][c] for i in range(na)]
                              + [-rows_b[j][c] for j in range(nb)]))
    combos = kernel(sys_rows, ctx, na + nb)
    out = []
    for co in combos:
        acc = vzero(ctx, dim)
        for coeff, v in zip(co[:na], rows_a):
            if coeff:
                acc = vadd(acc, vscale(coeff, v))
        if not is_zero_vect(acc):
            out.append(acc)
    basis, _ = rref(out)
    return list(basis)


def mat_apply(cols: list[Vect], v: Vect) -> Vect:
    """Apply the linear map with the given columns to v."""
    out = list(vzero(v[0].ctx, len(cols[0]))) if cols else []
    for c, col in zip(v, cols):
        if c:
            for i, x in enumerate(col):
                if x:
                    out[i] = out[i] + c * x
    return tuple(out)


def mat_inverse(cols: list[Vect], ctx: CycloCtx) -> list[Vect] | None:
    """Inverse of a square matrix given by columns, or None if singular."""
    n = len(cols)
    rows = []
    one, zero = ctx.one(), ctx.zero()
    for i in range(n):
        aug = [cols[j][i] for j in range(n)] + [one if i == j else zero for j in range(n)]
        rows.append(tuple(aug))
    red, pivots = rref(rows)
    if pivots[:n] != list(range(n)):
        return None
    inv_rows = [row[n:] for row in red]
    return [tuple(inv_rows[i][j] for i in range(n)) for j in range(n)]
