"""Exact linear algebra over a cyclotomic field.

Vectors are tuples of CycloNum; matrices are lists of row tuples.  The
echelon forms pivot on the first nonzero in a fixed scan order, so
results are deterministic.  Row operations skip zero entries, which most
of the sparse matrices here are made of; mat_inverse works on the
nonzero entries alone.
"""

from __future__ import annotations

from .scalars import CycloCtx, CycloNum

Vect = tuple[CycloNum, ...]
SparseVect = dict[int, CycloNum]  # the nonzero coordinates {index: value} of a vector

__all__ = [
    "Vect", "SparseVect", "vzero", "vadd", "vsub", "vscale", "is_zero_vect",
    "sparse", "sparse_apply", "rref", "rank", "in_span", "reduce_against", "kernel", "combinations",
    "intersection", "line_coeff", "transpose", "mat_inverse", "mat_apply",
]


def vzero(ctx: CycloCtx, n: int) -> Vect:
    z = ctx.zero()
    return (z,) * n


def vadd(a: Vect, b: Vect) -> Vect:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vect, b: Vect) -> Vect:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: CycloNum, a: Vect) -> Vect:
    return tuple(c * x if x else x for x in a)


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
        work[r] = [inv * x if x else x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [x - c * y if y else x for x, y in zip(work[i], work[r])]
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
            out = [x - c * y if y else x for x, y in zip(out, row)]
    return tuple(out)


def in_span(rows: list[Vect], v: Vect) -> bool:
    basis, pivots = rref(rows)
    return is_zero_vect(reduce_against(basis, pivots, v))


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


def combinations(vecs: list[Vect], rows: list[Vect], ctx: CycloCtx) -> list[Vect]:
    """Basis (rref) of {sum c_i vecs_i : rows . c = 0}."""
    basis, _ = rref([mat_apply(vecs, c) for c in kernel(rows, ctx, len(vecs))])
    return basis


def intersection(rows_a: list[Vect], span_b: tuple, ctx: CycloCtx) -> list[Vect]:
    """Basis (rref) of span(rows_a) intersected with that of span_b = rref(rows_b):
    the combinations of rows_a whose residues against span_b cancel."""
    basis, pivots = span_b
    if not rows_a or not basis:
        return []
    residues = [reduce_against(basis, pivots, v) for v in rows_a]
    return combinations(rows_a, transpose(residues), ctx)


def line_coeff(w: Vect, line: Vect) -> CycloNum:
    """The c with w = c * line (line nonzero); ValueError when w is off
    the line."""
    p = next(i for i, x in enumerate(line) if x)
    c = w[p] / line[p]
    if vscale(c, line) != w:
        raise ValueError("vector does not lie on the line")
    return c


def transpose(rows: list[Vect]) -> list[Vect]:
    return [tuple(col) for col in zip(*rows)]


def mat_apply(cols: list[Vect], v: Vect) -> Vect:
    """Apply the linear map with the given columns to v."""
    out = list(vzero(v[0].ctx, len(cols[0]))) if cols else []
    for c, col in zip(v, cols):
        if c:
            for i, x in enumerate(col):
                if x:
                    out[i] = out[i] + c * x
    return tuple(out)


def sparse(v: Vect) -> SparseVect:
    """The nonzero coordinates of v, index ascending."""
    return {i: c for i, c in enumerate(v) if c}


def sparse_apply(cols: list[SparseVect], v: SparseVect) -> SparseVect:
    """mat_apply on nonzero coordinates only: sum of v_i cols[i], sparse
    columns and vector in, the nonzero coordinates out (in order met)."""
    out: SparseVect = {}
    for i, c in v.items():
        for k, x in cols[i].items():
            out[k] = out[k] + c * x if k in out else c * x
    return {k: x for k, x in out.items() if x}


def mat_inverse(cols: list[Vect] | list[SparseVect], ctx: CycloCtx) -> list | None:
    """Inverse of a square matrix given by columns, dense or as SparseVect
    (as Algebra.bracket takes them), in the same form; None if singular.
    Gauss-Jordan on the nonzero entries of the rows of [M | I], M's at keys
    0..n-1 and I's at n..2n-1: column c pivots on the row with the fewest
    nonzeros of those not yet used that have one in column c."""
    n, dense, zero = len(cols), bool(cols) and not isinstance(cols[0], dict), ctx.zero()
    rows: list[SparseVect] = [{n + i: ctx.one()} for i in range(n)]
    for j, col in enumerate(cols):
        for i, x in (sparse(col) if dense else col).items():
            rows[i][j] = x
    free = list(range(n))
    for c in range(n):
        r = min((r for r in free if c in rows[r]), key=lambda r: len(rows[r]), default=None)
        if r is None:
            return None
        free.remove(r)
        inv = rows[r][c].inv()
        prow = rows[r] = {k: inv * x for k, x in rows[r].items()}
        for row in rows:
            if row is not prow and c in row:
                f = row.pop(c)
                for k, y in prow.items():
                    if k != c:
                        x = row.get(k, zero) - f * y
                        if x:
                            row[k] = x
                        else:
                            del row[k]
    rows.sort(key=min)  # now row c is e_c beside row c of the inverse
    out = [{c: row[k] for c, row in enumerate(rows) if k in row} for k in range(n, 2 * n)]
    return [tuple(col.get(i, zero) for i in range(n)) for col in out] if dense else out
