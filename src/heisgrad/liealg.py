"""Structure-constant Lie (super)algebras over a cyclotomic field.

An Algebra is a basis with labels, a parity vector (all zero for plain
Lie algebras) and a full bracket table.  The table is the constructor
and JSON form; the bracket itself runs over the nonzero structure
constants only, collected once when the algebra is built.  The
Heisenberg constructors cover the plain, super and twisted families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._linalg import (Vect, is_zero_vect, kernel, mat_apply, mat_inverse,
                      rref, vadd, vscale, vzero)
from .scalars import CycloCtx, CycloNum, format_scalar, parse_scalar

__all__ = [
    "Algebra", "LinMap", "VerifyReport",
    "heisenberg", "heisenberg_super", "twisted",
    "verify_axioms", "center", "derived",
    "is_automorphism", "similitude_factor",
    "identity_map", "compose_maps",
    "algebra_to_json", "algebra_from_json",
    "json_typed", "json_int", "json_ints", "vect_from_json",
]

LinMap = list[Vect]  # columns: image of the j-th basis vector


@dataclass
class VerifyReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


@dataclass
class Algebra:
    """A finite-dimensional (super)algebra given by its bracket table."""

    ctx: CycloCtx
    labels: tuple[str, ...]
    parity: tuple[int, ...]
    table: tuple[tuple[Vect, ...], ...]  # table[i][j] = [b_i, b_j]
    spec: dict | None = None  # JSON form of a heisenberg, super or twisted algebra
    # terms[i] = ((j, ((k, c), ...)), ...): the nonzero c = [b_i, b_j]_k
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.terms = tuple(
            tuple((j, tuple((k, c) for k, c in enumerate(t) if c))
                  for j, t in enumerate(row) if not is_zero_vect(t))
            for row in self.table)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vect(self, i: int) -> Vect:
        one, zero = self.ctx.one(), self.ctx.zero()
        return tuple(one if j == i else zero for j in range(self.dim))

    def zero_vect(self) -> Vect:
        return vzero(self.ctx, self.dim)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def is_super(self) -> bool:
        return any(self.parity)

    def bracket(self, a: Vect, b: Vect) -> Vect:
        out = list(self.zero_vect())
        for ai, row in zip(a, self.terms):
            if not ai:
                continue
            for j, t in row:
                bj = b[j]
                if not bj:
                    continue
                c = ai * bj
                for k, tk in t:
                    out[k] = out[k] + c * tk
        return tuple(out)

    def vect_parity(self, v: Vect) -> int | None:
        """0/1 for a parity-homogeneous vector, None for mixed."""
        seen = {self.parity[i] for i, c in enumerate(v) if c}
        if len(seen) == 1:
            return seen.pop()
        return None


def _empty_table(ctx: CycloCtx, dim: int):
    z = vzero(ctx, dim)
    return [[z] * dim for _ in range(dim)]


def _freeze_table(table) -> tuple[tuple[Vect, ...], ...]:
    return tuple(tuple(row) for row in table)


def heisenberg(k: int, ctx: CycloCtx | None = None) -> Algebra:
    """The Heisenberg algebra of dimension 2k+1 with basis
    e1, ehat1, ..., ek, ehatk, z and [ei, ehati] = z."""
    if k < 1:
        raise ValueError("heisenberg requires k >= 1")
    a = heisenberg_super(k, 0, ctx or CycloCtx(1))
    a.spec = {"kind": "heisenberg", "k": k}
    return a


def heisenberg_super(k: int, m: int, ctx: CycloCtx | None = None) -> Algebra:
    """The Heisenberg superalgebra H_{2k+1,m}: even part a Heisenberg
    algebra, odd basis w1..wm with [wj, wj] = z."""
    if k < 0 or m < 0 or k + m < 1:
        raise ValueError("heisenberg_super requires k,m >= 0 and k+m >= 1")
    ctx = ctx or CycloCtx(4)
    dim = 2 * k + m + 1
    labels = []
    for i in range(1, k + 1):
        labels += [f"e{i}", f"ehat{i}"]
    labels += [f"w{j}" for j in range(1, m + 1)]
    labels.append("z")
    parity = [0] * (2 * k) + [1] * m + [0]
    table = _empty_table(ctx, dim)
    one = ctx.one()
    z_vec = tuple(one if i == dim - 1 else ctx.zero() for i in range(dim))
    for i in range(k):
        e, eh = 2 * i, 2 * i + 1
        table[e][eh] = z_vec
        table[eh][e] = vscale(-one, z_vec)
    for j in range(m):
        w = 2 * k + j
        table[w][w] = z_vec
    return Algebra(ctx, tuple(labels), tuple(parity), _freeze_table(table),
                   {"kind": "super", "k": k, "m": m})


def twisted(lam: list[CycloNum]) -> Algebra:
    """The twisted Heisenberg algebra of dimension 2k+2 with basis
    u, e1, ehat1, ..., ek, ehatk, z and relations
    [ei, ehati] = lam_i z, [u, ei] = lam_i ehati, [u, ehati] = lam_i ei."""
    if not lam:
        raise ValueError("twisted requires at least one parameter")
    ctx = lam[0].ctx
    if any(x.ctx != ctx for x in lam):
        raise ValueError("twist parameters must share one conductor")
    if any(not x for x in lam):
        raise ValueError("twist parameters must be nonzero")
    if ctx.n % 4:
        raise ValueError("twisted requires a conductor divisible by 4")
    k = len(lam)
    dim = 2 * k + 2
    labels = ["u"]
    for i in range(1, k + 1):
        labels += [f"e{i}", f"ehat{i}"]
    labels.append("z")
    table = _empty_table(ctx, dim)
    zero = ctx.zero()
    z_vec = tuple(ctx.one() if i == dim - 1 else zero for i in range(dim))

    def unit(i, c):
        return tuple(c if j == i else zero for j in range(dim))

    for i in range(k):
        e, eh = 1 + 2 * i, 2 + 2 * i
        table[e][eh] = vscale(lam[i], z_vec)
        table[eh][e] = vscale(-lam[i], z_vec)
        table[0][e] = unit(eh, lam[i])
        table[e][0] = unit(eh, -lam[i])
        table[0][eh] = unit(e, lam[i])
        table[eh][0] = unit(e, -lam[i])
    return Algebra(ctx, tuple(labels), (0,) * dim, _freeze_table(table),
                   {"kind": "twisted", "lambda": [format_scalar(x) for x in lam],
                    "conductor": ctx.n})


def verify_axioms(a: Algebra) -> VerifyReport:
    """Check (super) skew-symmetry and the (super) Jacobi identity on the
    whole basis."""
    failures = []
    dim = a.dim
    for i in range(dim):
        for j in range(i, dim):
            sign = -1 if (a.parity[i] and a.parity[j]) else 1
            lhs = a.table[i][j]
            rhs = vscale(a.ctx.from_fraction(-sign), a.table[j][i])
            if lhs != rhs:
                failures.append(
                    f"skew-symmetry fails on ({a.labels[i]}, {a.labels[j]})")
    # [bi, [bj, bk]] = [[bi, bj], bk] + (-1)^(pi pj) [bj, [bi, bk]]
    b = [a.basis_vect(i) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = a.bracket(b[i], a.table[j][k])
                t1 = a.bracket(a.table[i][j], b[k])
                t2 = a.bracket(b[j], a.table[i][k])
                sign = -1 if (a.parity[i] and a.parity[j]) else 1
                rhs = vadd(t1, vscale(a.ctx.from_fraction(sign), t2))
                if lhs != rhs:
                    failures.append(
                        "jacobi fails on "
                        f"({a.labels[i]}, {a.labels[j]}, {a.labels[k]})")
                    if len(failures) > 8:
                        return VerifyReport(False, failures)
    return VerifyReport(not failures, failures)


def center(a: Algebra) -> list[Vect]:
    """Basis (rref) of {x : [x, L] = 0}."""
    rows = []
    for j in range(a.dim):
        for c in range(a.dim):
            rows.append(tuple(a.table[i][j][c] for i in range(a.dim)))
    return kernel(rows, a.ctx, a.dim)


def derived(a: Algebra) -> list[Vect]:
    """Basis (rref) of [L, L]."""
    rows = [a.table[i][j] for i in range(a.dim) for j in range(a.dim)
            if not is_zero_vect(a.table[i][j])]
    basis, _ = rref(rows)
    return basis


def identity_map(a: Algebra) -> LinMap:
    return [a.basis_vect(i) for i in range(a.dim)]


def compose_maps(f: LinMap, g: LinMap) -> LinMap:
    """The map f o g."""
    return [mat_apply(f, col) for col in g]


def is_automorphism(f: LinMap, a: Algebra) -> bool:
    """True iff f is invertible, bracket-preserving and parity-preserving."""
    if len(f) != a.dim:
        return False
    if mat_inverse(f, a.ctx) is None:
        return False
    if a.is_super():
        for j in range(a.dim):
            for i, c in enumerate(f[j]):
                if c and a.parity[i] != a.parity[j]:
                    return False
    zero = a.zero_vect()
    for i, row in enumerate(a.terms):
        nonzero = dict(row)
        for j in range(a.dim):
            lhs = mat_apply(f, a.table[i][j]) if j in nonzero else zero
            if lhs != a.bracket(f[i], f[j]):
                return False
    return True


def similitude_factor(f: LinMap, a: Algebra) -> CycloNum:
    """The scalar by which f acts on the (one-dimensional) center."""
    c = center(a)
    if len(c) != 1:
        raise ValueError("algebra does not have a one-dimensional center")
    z = c[0]
    fz = mat_apply(f, z)
    for i, zi in enumerate(z):
        if zi:
            lam = fz[i] / zi
            break
    if fz != vscale(lam, z):
        raise ValueError("map does not preserve the center line")
    return lam


# --- JSON interface ---------------------------------------------------------

def algebra_to_json(a: Algebra) -> dict:
    if a.spec:
        return dict(a.spec)
    return {
        "kind": "custom",
        "conductor": a.ctx.n,
        "labels": list(a.labels),
        "parity": list(a.parity),
        "table": [[[format_scalar(c) for c in a.table[i][j]]
                   for j in range(a.dim)] for i in range(a.dim)],
    }


_JSON_TYPES = {"object": dict, "array": (list, tuple), "integer": (int, str)}


def json_typed(value, kind: str, what: str):
    """value, if it has the JSON type `kind`; otherwise a ValueError."""
    if not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{what} must be a JSON {kind}, got {value!r:.40}")
    return value


def json_int(value, what: str) -> int:
    return int(json_typed(value, "integer", what))


def json_ints(value, what: str) -> tuple[int, ...]:
    return tuple(json_int(x, what) for x in json_typed(value, "array", what))


def vect_from_json(value, ctx: CycloCtx, dim: int) -> Vect:
    vec = json_typed(value, "array", "a vector")
    if len(vec) != dim:
        raise ValueError(f"vector of length {len(vec)} in an algebra "
                         f"of dimension {dim}")
    return tuple(parse_scalar(s, ctx) for s in vec)


def algebra_from_json(spec: dict, ctx: CycloCtx | None = None) -> Algebra:
    kind = json_typed(spec, "object", "the algebra").get("kind")
    if kind == "heisenberg":
        return heisenberg(json_int(spec["k"], "k"), ctx)
    if kind == "super":
        return heisenberg_super(json_int(spec["k"], "k"), json_int(spec["m"], "m"), ctx)
    if kind == "twisted":
        if ctx is None:
            n = spec.get("conductor")
            if n is None:
                raise ValueError("twisted algebra spec needs a conductor or context")
            ctx = CycloCtx(json_int(n, "conductor"))
        lam = [parse_scalar(s, ctx) for s in json_typed(spec["lambda"], "array", "lambda")]
        return twisted(lam)
    if kind == "color":
        from .color import color_algebra, color_type_from_json
        ctx = ctx or CycloCtx(json_int(spec.get("conductor", 12), "conductor"))
        t = color_type_from_json(spec["type"], ctx)
        algebra, _ = color_algebra(t, ctx)
        return algebra
    if kind == "custom":
        ctx = ctx or CycloCtx(json_int(spec.get("conductor", 1), "conductor"))
        labels = tuple(json_typed(spec["labels"], "array", "labels"))
        dim = len(labels)
        parity = json_ints(spec.get("parity", [0] * dim), "parity")
        rows = json_typed(spec["table"], "array", "the table")
        if len(parity) != dim or len(rows) != dim or any(
                len(json_typed(row, "array", "a table row")) != dim for row in rows):
            raise ValueError(f"parity and table must match the {dim} labels")
        table = tuple(tuple(vect_from_json(t, ctx, dim) for t in row) for row in rows)
        alg = Algebra(ctx, labels, parity, table)
        report = verify_axioms(alg)
        if not report.ok:
            raise ValueError("custom table fails the algebra axioms: "
                             + "; ".join(report.failures[:3]))
        return alg
    raise ValueError(f"unknown algebra kind {kind!r}")
