"""Structure-constant Lie (super)algebras over a cyclotomic field.

An Algebra is a basis with labels, a parity vector (all zero for plain
Lie algebras) and its nonzero structure constants, which the Heisenberg
constructors (plain, super and twisted) write directly.  A dense bracket
table is only an input and JSON form: Algebra.from_table converts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._linalg import (SparseVect, Vect, is_zero_vect, kernel, mat_apply, rank,
                      rref, sparse, vzero)
from .scalars import CycloCtx, CycloNum, format_scalar, parse_scalar

__all__ = [
    "MAX_DIM", "check_dim", "Algebra", "LinMap", "VerifyReport",
    "heisenberg", "heisenberg_super", "twisted",
    "axiom_failures", "verify_axioms", "center", "derived",
    "is_automorphism", "terms_of_table",
    "algebra_to_json", "algebra_from_json",
    "json_typed", "json_int", "json_ints", "vect_from_json",
]

LinMap = list[Vect]  # columns: image of the j-th basis vector
_NO_COORDS: SparseVect = {}  # every sparse bracket that meets no constant; read only

# the largest dimension of a Heisenberg (super), twisted or color algebra
# that is built; the stabilizer chain of a Weyl group of degree d stores
# about d^3 permutation entries
MAX_DIM = 256


def check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit {MAX_DIM}")


@dataclass
class VerifyReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class Algebra:
    """A finite-dimensional (super)algebra given by its structure constants."""

    ctx: CycloCtx
    labels: tuple[str, ...]
    parity: tuple[int, ...]
    # terms[i] = ((j, ((k, c), ...)), ...): the nonzero c = [b_i, b_j]_k, j and k ascending
    terms: tuple
    spec: dict | None = None  # JSON form of a heisenberg, super, twisted or color algebra
    _zero: Vect = field(init=False, repr=False, compare=False)  # the one zero_vect()

    def __post_init__(self):
        self._zero = vzero(self.ctx, self.dim)

    @classmethod
    def from_table(cls, ctx, labels, parity, table) -> Algebra:
        """The algebra of a dense bracket table, table[i][j] = [b_i, b_j]."""
        return cls(ctx, labels, parity, terms_of_table(table))

    @property
    def skew(self) -> bool:
        """[b_j, b_i] = -(-1)^(p_i p_j) [b_i, b_j]; false for a color algebra,
        whose table is skew only up to its bicharacter."""
        return (self.spec or {}).get("kind") != "color"

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vect(self, i: int) -> Vect:
        """e_i, one object per i, so that it can be found by identity."""
        return self._units[i]

    @cached_property
    def _units(self) -> list[Vect]:
        one, zero = self.ctx.one(), self.ctx.zero()
        return [tuple(one if j == i else zero for j in range(self.dim)) for i in range(self.dim)]

    def zero_vect(self) -> Vect:
        return self._zero

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def is_super(self) -> bool:
        return any(self.parity)

    def bracket(self, a: Vect | SparseVect, b: Vect | SparseVect) -> Vect | SparseVect:
        """[a, b], each side dense or given by its nonzero coordinates (as
        _linalg.sparse writes them), in the form of b; a bracket that meets
        no structure constant is zero_vect() itself for a dense b and one
        shared empty dict for a sparse b."""
        nonzero = isinstance(b, dict)
        get = b.get if nonzero else lambda j: b[j] or None
        out: SparseVect = {}
        terms = self.terms
        for i, ai in (a if isinstance(a, dict) else sparse(a)).items():
            for j, t in terms[i]:
                bj = get(j)
                if bj is not None:
                    c = ai * bj
                    for k, tk in t:
                        out[k] = out[k] + c * tk if k in out else c * tk
        if not out:
            return _NO_COORDS if nonzero else self._zero
        if nonzero:  # zero tests on the entries touched only
            return {k: x for k, x in out.items() if x}
        return self.dense(out.items())

    def vect_parity(self, v: SparseVect) -> int | None:
        """0/1 for a parity-homogeneous vector given by its nonzero
        coordinates (_linalg.sparse), None for mixed."""
        seen = {self.parity[i] for i in v}
        return seen.pop() if len(seen) == 1 else None

    def dense(self, t) -> Vect:
        """The vector with the coordinates t = ((k, c), ...), zero elsewhere."""
        out = list(self._zero)
        for k, c in t:
            out[k] = c
        return tuple(out)


def terms_of_table(rows) -> tuple:
    """The nonzero entries of rows[i][j], dense vectors, in the layout of
    Algebra.terms."""
    return tuple(tuple((j, tuple((k, c) for k, c in enumerate(w) if c))
                       for j, w in enumerate(row) if not is_zero_vect(w))
                 for row in rows)


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
    dim = 2 * k + m + 1
    check_dim(dim)
    ctx = ctx or CycloCtx(4)
    labels = []
    for i in range(1, k + 1):
        labels += [f"e{i}", f"ehat{i}"]
    labels += [f"w{j}" for j in range(1, m + 1)]
    labels.append("z")
    parity = [0] * (2 * k) + [1] * m + [0]
    one, z = ctx.one(), dim - 1
    terms = []
    for i in range(k):
        e, eh = 2 * i, 2 * i + 1
        terms += [((eh, ((z, one),)),), ((e, ((z, -one),)),)]
    terms += [((w, ((z, one),)),) for w in range(2 * k, 2 * k + m)]
    return Algebra(ctx, tuple(labels), tuple(parity), tuple(terms) + ((),),
                   {"kind": "super", "k": k, "m": m})


def twisted(lam: list[CycloNum]) -> Algebra:
    """The twisted Heisenberg algebra of dimension 2k+2 with basis
    u, e1, ehat1, ..., ek, ehatk, z and relations
    [ei, ehati] = lam_i z, [u, ei] = lam_i ehati, [u, ehati] = lam_i ei."""
    if not lam:
        raise ValueError("twisted requires at least one parameter")
    check_dim(2 * len(lam) + 2)
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
    z = dim - 1
    u_row, terms = [], []
    for i, c in enumerate(lam):
        e, eh = 1 + 2 * i, 2 + 2 * i
        u_row += [(e, ((eh, c),)), (eh, ((e, c),))]
        terms += [((0, ((eh, -c),)), (eh, ((z, c),))),
                  ((0, ((e, -c),)), (e, ((z, -c),)))]
    return Algebra(ctx, tuple(labels), (0,) * dim, (tuple(u_row), *terms, ()),
                   {"kind": "twisted", "lambda": [format_scalar(x) for x in lam],
                    "conductor": ctx.n})


def axiom_failures(terms, factor: list[list[CycloNum]]):
    """Index pairs i <= j where [b_i, b_j] = -f_ij [b_j, b_i] fails, then
    triples where [b_i, [b_j, b_k]] = [[b_i, b_j], b_k] + f_ij [b_j, [b_i, b_k]]
    fails, in scan order, for structure constants terms[i] = ((j, ((k, c),
    ...)), ...) as in Algebra.terms and a commutation factor matrix f."""
    rows = [dict(row) for row in terms]
    cols = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(len(rows))]

    def expand(acc, outer, inner, scale=None):
        # acc + scale * sum of c * inner[m] over (m, c) in outer, nonzero only
        for m, c in outer:
            c = c if scale is None else scale * c
            for t, d in inner.get(m, ()):
                acc[t] = acc[t] + c * d if t in acc else c * d
        return {t: x for t, x in acc.items() if x}

    for i, ri in enumerate(rows):
        for j in range(i, len(rows)):
            m = -factor[i][j]
            if ri.get(j, ()) != tuple((k, m * c) for k, c in rows[j].get(i, ())):
                yield i, j
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            for k, ck in enumerate(cols):
                rhs = expand(expand({}, ri.get(j, ()), ck), ri.get(k, ()), rj,
                             factor[i][j])
                if expand({}, rj.get(k, ()), ri) != rhs:
                    yield i, j, k


def verify_axioms(a: Algebra) -> VerifyReport:
    """Check (super) skew-symmetry and the (super) Jacobi identity on the
    whole basis; stops at the Jacobi failure that makes 9 failures."""
    minus, one = a.ctx.from_fraction(-1), a.ctx.one()
    factor = [[minus if p and q else one for q in a.parity] for p in a.parity]
    failures = []
    for fail in axiom_failures(a.terms, factor):
        kind = "skew-symmetry" if len(fail) == 2 else "jacobi"
        failures.append(f"{kind} fails on ({', '.join(str(a.labels[i]) for i in fail)})")
        if len(fail) == 3 and len(failures) > 8:
            break
    return VerifyReport(not failures, failures)


def center(a: Algebra) -> list[Vect]:
    """Basis (rref) of {x : [x, L] = 0}: sum_i x_i [b_i, b_j]_k = 0 for
    each (j, k) that some structure constant has."""
    rows = {}
    for i, row in enumerate(a.terms):
        for j, t in row:
            for k, c in t:
                rows.setdefault((j, k), list(a.zero_vect()))[i] = c
    return kernel([tuple(r) for r in rows.values()], a.ctx, a.dim)


def derived(a: Algebra) -> list[Vect]:
    """Basis (rref) of [L, L]."""
    basis, _ = rref([a.dense(t) for row in a.terms for _, t in row])
    return basis


def is_automorphism(f: LinMap, a: Algebra) -> bool:
    """True iff f is invertible, bracket-preserving and parity-preserving."""
    if len(f) != a.dim or rank(f) != a.dim:
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
            lhs = mat_apply(f, a.dense(nonzero[j])) if j in nonzero else zero
            if lhs != a.bracket(f[i], f[j]):
                return False
    return True


# --- JSON interface ---------------------------------------------------------

def algebra_to_json(a: Algebra) -> dict:
    if a.spec:
        return dict(a.spec)
    return {
        "kind": "custom",
        "conductor": a.ctx.n,
        "labels": list(a.labels),
        "parity": list(a.parity),
        "table": [[[format_scalar(c) for c in a.dense(row.get(j, ()))]
                   for j in range(a.dim)] for row in map(dict, a.terms)],
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


def _scalar_from_json(text, ctx: CycloCtx, memo: dict) -> CycloNum:
    """parse_scalar(text, ctx), once per distinct text of one JSON document:
    memo holds the values parsed so far, all in ctx, and lives for one call."""
    if not isinstance(text, str):  # no key (a list, say); parse_scalar says why
        return parse_scalar(text, ctx)
    if text not in memo:
        memo[text] = parse_scalar(text, ctx)
    return memo[text]


def vect_from_json(value, ctx: CycloCtx, dim: int, memo: dict) -> Vect:
    vec = json_typed(value, "array", "a vector")
    if len(vec) != dim:
        raise ValueError(f"vector of length {len(vec)} in an algebra "
                         f"of dimension {dim}")
    return tuple(_scalar_from_json(s, ctx, memo) for s in vec)


def algebra_from_json(spec: dict, ctx: CycloCtx | None = None, memo=None) -> Algebra:
    """The algebra of a JSON spec; lambda and a custom table share memo."""
    memo = {} if memo is None else memo
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
        lam = [_scalar_from_json(s, ctx, memo)
               for s in json_typed(spec["lambda"], "array", "lambda")]
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
        table = tuple(tuple(vect_from_json(t, ctx, dim, memo) for t in row) for row in rows)
        alg = Algebra.from_table(ctx, labels, parity, table)
        report = verify_axioms(alg)
        if not report.ok:
            raise ValueError("custom table fails the algebra axioms: "
                             + "; ".join(report.failures[:3]))
        return alg
    raise ValueError(f"unknown algebra kind {kind!r}")
