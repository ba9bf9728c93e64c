"""Exact linear algebra over a cyclotomic field.

Vectors are tuples of CycloNum; matrices are lists of row tuples.  Every
row reduction is one Gauss-Jordan elimination, _gauss_jordan, on the
nonzero coordinates of the rows: rref, rank, kernel and mat_inverse (on
[M | I]) call it.  Column c pivots on the row with the fewest nonzeros of
those not yet used that have one in column c, to keep the fill-in small.
The reduced row echelon form of a row space is unique, so that choice
changes the work and never a result.
"""

from __future__ import annotations

from .scalars import CycloCtx, CycloNum

Vect = tuple[CycloNum, ...]
SparseVect = dict[int, CycloNum]  # the nonzero coordinates {index: value} of a vector

__all__ = [
    "Vect", "SparseVect", "vzero", "vadd", "vsub", "vscale", "is_zero_vect",
    "sparse", "sparse_apply", "rref", "rank", "reduce_against", "kernel", "combinations",
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


def _gauss_jordan(rows: list[SparseVect], n_cols: int) -> tuple[list[SparseVect], list[int]]:
    """Reduce the sparse rows (in place) on columns 0..n_cols-1; returns the
    reduced pivot rows, in pivot order, and their pivot columns."""
    free, done = list(range(len(rows))), {}
    for c in range(n_cols):
        r = min((r for r in free if c in rows[r]), key=lambda r: len(rows[r]), default=None)
        if r is None:
            continue
        free.remove(r)
        inv = rows[r][c].inv()
        prow = rows[r] = {k: inv * x for k, x in rows[r].items()}
        for row in rows:
            if row is not prow and c in row:
                f = row.pop(c)
                for k, y in prow.items():
                    if k != c:
                        x = row.pop(k) - f * y if k in row else -(f * y)
                        if x:
                            row[k] = x
        done[c] = prow
    return list(done.values()), list(done)


def rref(rows: list[Vect]) -> tuple[list[Vect], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    n_cols = len(rows[0]) if rows else 0
    basis, pivots = _gauss_jordan([sparse(r) for r in rows], n_cols)
    zero = rows[0][0].ctx.zero() if basis else None
    return [tuple(row.get(k, zero) for k in range(n_cols)) for row in basis], pivots


def rank(rows: list[Vect]) -> int:
    return len(_gauss_jordan([sparse(r) for r in rows], len(rows[0]) if rows else 0)[1])


def reduce_against(basis_rref: list[Vect], pivots: list[int], v: Vect) -> Vect:
    """Residual of v after elimination against an rref basis."""
    out = list(v)
    for row, p in zip(basis_rref, pivots):
        c = out[p]
        if c:
            out = [x - c * y if y else x for x, y in zip(out, row)]
    return tuple(out)


def kernel(rows: list[Vect], ctx: CycloCtx, n_unknowns: int) -> list[Vect]:
    """Basis of {x : A x = 0} where the rows of A are given."""
    basis, pivots = _gauss_jordan([sparse(r) for r in rows], n_unknowns)
    out = []
    one, zero = ctx.one(), ctx.zero()
    for f in (j for j in range(n_unknowns) if j not in pivots):
        x = [zero] * n_unknowns
        x[f] = one
        for row, p in zip(basis, pivots):
            if f in row:
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
    The reduced form of [M | I], M's entries at keys 0..n-1 and I's at
    n..2n-1, is [I | M^-1] when all n columns of M pivot."""
    n, dense, zero = len(cols), bool(cols) and not isinstance(cols[0], dict), ctx.zero()
    rows: list[SparseVect] = [{n + i: ctx.one()} for i in range(n)]
    for j, col in enumerate(cols):
        for i, x in (sparse(col) if dense else col).items():
            rows[i][j] = x
    rows, pivots = _gauss_jordan(rows, n)
    if len(pivots) < n:
        return None
    out = [{c: row[k] for c, row in enumerate(rows) if k in row} for k in range(n, 2 * n)]
    return [tuple(col.get(i, zero) for i in range(n)) for col in out] if dense else out
