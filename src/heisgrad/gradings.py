"""Group gradings on structure-constant algebras.

Covers verification, the universal grading group (presented by the
support with one relation per nonzero bracket pair), coarsening along
group epimorphisms, the torality test for fine gradings, and the
constructive homogeneous-basis algorithms for symplectic and symmetric
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Any, Callable, NamedTuple

from ._linalg import (SparseVect, Vect, is_zero_vect, line_coeff, mat_apply,
                      mat_inverse, rank, rref, reduce_against, sparse,
                      sparse_apply, transpose, vadd, vscale, vsub)
from .abelian import (AbGroup, AbPresentation, GroupElt, canonicalize,
                      generates)
from .liealg import (Algebra, VerifyReport, algebra_from_json, algebra_to_json,
                     center, json_int, json_ints, json_typed, vect_from_json)
from .scalars import CycloNum, format_scalar

__all__ = [
    "Grading", "GradedTable", "PairedDecomposition",
    "verify_grading", "decomposition_failure", "universal_group",
    "coarsen",
    "dual_vectors", "symplectic_gram_schmidt", "orthogonal_gram_schmidt",
    "homogeneous_symplectic_basis", "homogeneous_orthogonal_basis",
    "darboux_homogeneous_basis",
    "grading_to_json", "grading_from_json", "group_from_json", "elt_from_json",
    "elt_to_json",
]


class GradedTable(NamedTuple):
    """The structure constants of a grading's homogeneous basis, in that basis."""
    basis: list[Vect]  # the component vectors, in support order
    parity: list[int | None]  # of each basis vector; None for a parity-mixed one
    inverse: list[SparseVect] | None  # column j: e_j in the basis; None if no basis
    terms: tuple | None  # the nonzero [b_i, b_j]_k as in Algebra.terms; None likewise


@dataclass
class Grading:
    """A group grading: map from group elements to component bases.
    `family` is the record of the fine-grading constructor that built it
    (fine.HeisenbergFine, SuperFine or TwistedFine), or None."""

    algebra: Algebra
    group: AbGroup
    components: dict[GroupElt, tuple[Vect, ...]]
    family: Any = None
    # (i, j) -> brackets() of the i-th and j-th entries of components
    _brackets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def support(self) -> list[GroupElt]:
        return sorted(self.components, key=lambda g: g.key())

    @cached_property
    def spans(self) -> dict[GroupElt, tuple[list[Vect], list[int]]]:
        """The reduced (rows, pivots) of each component, by degree."""
        return {g: rref(list(self.components[g])) for g in self.support}

    def degree_of(self, v: Vect) -> GroupElt | None:
        """The first degree, in support order, whose component holds v."""
        return next((g for g, (rows, pivots) in self.spans.items()
                     if is_zero_vect(reduce_against(rows, pivots, v))), None)

    @cached_property
    def _slots(self) -> dict[GroupElt, tuple[int, list[SparseVect]]]:
        """The position of each component in components and the nonzero
        coordinates of its vectors, which the bracket memo brackets."""
        return {g: (i, [sparse(v) for v in vs])
                for i, (g, vs) in enumerate(self.components.items())}

    @cached_property
    def linked(self) -> list[tuple[int, int, bool]]:
        """The pairs (x, y, once) of support positions that a structure constant
        links, [b_i, b_j] != 0 for i a coordinate of x's vectors and j of y's,
        row by row in support order; every other pair brackets to zero.  In a
        skew algebra (Algebra.skew) two components with parity-homogeneous
        vectors come once, in the row of the first, the memo's orientation or
        else support order: [V_h, V_g] = [V_g, V_h].  Others come both ways."""
        a, support, memo = self.algebra, self.support, self._brackets
        slots = [self._slots[g] for g in support]
        coords = [set().union(*vs) for _, vs in slots]
        owner: dict[int, list[int]] = {}  # coordinate -> positions whose vectors hold it
        for y, cs in enumerate(coords):
            for j in cs:
                owner.setdefault(j, []).append(y)
        once = [a.skew and None not in map(a.vect_parity, vs) for _, vs in slots]
        pairs = []
        for x, cs in enumerate(coords):
            cols = {j for i in cs for j, _ in a.terms[i]}
            for y in sorted({y for j in cols for y in owner.get(j, ())}):
                if x == y or not (once[x] and once[y]):
                    pairs.append((x, y, False))
                elif x < y:
                    i, j = slots[x][0], slots[y][0]
                    flip = (i, j) not in memo and (j, i) in memo  # the memo's orientation
                    pairs.append((y, x, True) if flip else (x, y, True))
        return pairs

    @cached_property
    def table(self) -> GradedTable:
        """brackets() of the linked components in the coordinates of the
        component basis, inverted once on its nonzero coordinates; a pair
        that comes once fills its mirror by [b_n, b_m] = -(-1)^(p_m p_n) [b_m, b_n]."""
        support, a = self.support, self.algebra
        basis = [v for g in support for v in self.components[g]]
        nonzero = self.nonzero_basis
        parity = [a.vect_parity(v) for v in nonzero]
        inv = mat_inverse(nonzero, a.ctx) if len(basis) == a.dim else None
        if inv is None:
            return GradedTable(basis, parity, None, None)
        rows: list[dict] = [{} for _ in basis]
        # the x-th component in support order spans basis[start[x]:start[x + 1]]
        start = [0, *accumulate(len(self.components[g]) for g in support)]
        one = a.ctx.one()
        for x, y, mirror in self.linked:
            # rows[m][n] = [b_m, b_n] for m in the x-th component, n in the y-th
            width = start[y + 1] - start[y]
            for e, w in enumerate(self.brackets(support[x], support[y])):
                if w:
                    m, n = start[x] + e // width, start[y] + e % width
                    rows[m][n] = tuple(sorted(sparse_apply(inv, w).items()))
                    if mirror:
                        sign = one if parity[m] and parity[n] else -one
                        rows[n][m] = tuple((k, sign * c) for k, c in rows[m][n])
        return GradedTable(basis, parity, inv, tuple(tuple(sorted(row.items())) for row in rows))

    @cached_property
    def nonzero_basis(self) -> list[SparseVect]:
        """The nonzero coordinates of the basis vectors of table, in its order."""
        return [v for g in self.support for v in self._slots[g][1]]

    def brackets(self, g: GroupElt, h: GroupElt) -> list[SparseVect]:
        """The nonzero coordinates of [x, y] for x in the basis of component g
        and y in that of component h, row by row (x outer), bracketed once
        per pair, on first use, from the nonzero coordinates of x and y."""
        (i, xs), (j, ys) = self._slots[g], self._slots[h]
        block = self._brackets.get((i, j))
        if block is None:
            bracket = self.algebra.bracket
            block = self._brackets[i, j] = [bracket(x, y) for x in xs for y in ys]
        return block


def decomposition_failure(vecs: list[Vect], dim: int) -> str:
    """The failure message for component vectors that are not a basis."""
    return (f"components do not decompose the algebra: {len(vecs)} vectors "
            f"of rank {rank(vecs)} in dimension {dim}")


def verify_grading(gr: Grading) -> VerifyReport:
    """Check span, independence, parity splitting (super), bracket
    compatibility and that the support generates the group; stops at the
    first failure.  The brackets are those of the pairs of gr.linked, in its
    order: a pair that comes there once has [V_h, V_g] = [V_g, V_h] once the
    components are parity-graded, and every other pair is zero."""
    a, support = gr.algebra, gr.support
    all_vecs = [v for g in support for v in gr.components[g]]
    if len(all_vecs) != a.dim or rank(all_vecs) != a.dim:
        return VerifyReport(False, [decomposition_failure(all_vecs, a.dim)])
    zero = a.ctx.zero()
    for g in support if a.is_super() else ():
        pieces = [tuple(c if a.parity[i] == p else zero for i, c in enumerate(v))
                  for v in gr.components[g] for p in (0, 1)]
        if rank(pieces) != len(gr.components[g]):
            return VerifyReport(False, [f"component {g} is not parity-graded"])
    for x, y, _ in gr.linked:
        g, h = support[x], support[y]
        prods = [w for w in gr.brackets(g, h) if w]
        if not prods:
            continue
        target = g + h
        if target not in gr.components:
            return VerifyReport(False, [
                f"bracket of degrees {g} and {h} is nonzero but {target} "
                "is outside the support"])
        basis, pivots = gr.spans[target]
        if any(not is_zero_vect(reduce_against(basis, pivots, a.dense(w.items())))
               for w in prods):
            return VerifyReport(False, [
                f"bracket of degrees {g} and {h} leaves component {target}"])
    if not generates(gr.group, support):
        return VerifyReport(False, ["support does not generate the grading group"])
    return VerifyReport(True, [])


def universal_group(gr: Grading) -> tuple[AbGroup, Grading]:
    """The universal grading group (one generator per support element,
    one relation per nonzero bracket pair) and the regraded copy, which
    keeps the brackets and spans computed so far under its new degrees.
    The pairs are those of gr.linked; a relation is kept once, in the order
    it first occurs."""
    support = gr.support
    n = len(support)
    pos = {g: i for i, g in enumerate(support)}
    rows = []
    for i, j, _ in gr.linked:
        if any(gr.brackets(support[i], support[j])):
            k = pos.get(support[i] + support[j])
            if k is None:
                raise ValueError("not a grading: bracket leaves the support")
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            if any(row):
                rows.append(tuple(row))
    group, images = canonicalize(AbPresentation(n, tuple(dict.fromkeys(rows))))
    if len(set(images)) != n:
        raise ValueError("universal regrading identified two support degrees")
    # the components keep their slots, so the bracket memo carries over as is
    new = dict(zip(support, images))
    out = Grading(gr.algebra, group, {new[g]: c for g, c in gr.components.items()},
                  gr.family)
    out._brackets = dict(gr._brackets)
    if "_slots" in vars(gr):
        out._slots = {new[g]: slot for g, slot in gr._slots.items()}
    if "spans" in vars(gr):
        old = dict(zip(images, support))
        out.spans = {h: gr.spans[old[h]] for h in out.support}
    return group, out


def coarsen(gr: Grading, images: list[GroupElt]) -> Grading:
    """Coarsen along the epimorphism sending the canonical generators of
    the grading group to `images` (all in one target group)."""
    gens = gr.group.generators()
    if len(images) != len(gens):
        raise ValueError(f"need {len(gens)} generator images, got {len(images)}")
    if not images:
        raise ValueError("cannot coarsen a grading over the trivial group this way")
    target = images[0].group
    for img in images:
        if img.group != target:
            raise ValueError("generator images lie in different groups")
    for d, img in zip([0] * gr.group.rank + list(gr.group.torsion), images):
        if d and not (d * img) == target.zero():
            raise ValueError(
                f"mapping violates a relation: order-{d} generator sent to {img}")

    def push(g: GroupElt) -> GroupElt:
        out = target.zero()
        for c, img in zip(list(g.free) + list(g.torsion), images):
            out = out + c * img
        return out

    comps: dict[GroupElt, list[Vect]] = {}
    for g in gr.support:
        comps.setdefault(push(g), []).extend(gr.components[g])
    merged = {g: tuple(v) for g, v in comps.items()}
    out = Grading(gr.algebra, target, merged)
    report = verify_grading(out)
    if not report.ok:
        raise ValueError("coarsening failed verification: " + "; ".join(report.failures))
    return out


# --- homogeneous bases for bilinear forms -----------------------------------

@dataclass
class PairedDecomposition:
    """A decomposition V = sum V_i with a nondegenerate form that pairs
    each component with exactly one component."""

    form: list[Vect]  # Gram matrix rows in ambient coordinates
    pieces: list[list[Vect]]  # component bases
    kind: str  # "alternating" | "symmetric"

    def pairing(self, x: Vect, y: Vect) -> CycloNum:
        ctx = x[0].ctx
        acc = ctx.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.form[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    acc = acc + xi * row[j] * yj
        return acc

    def validate(self) -> list[int]:
        """Check the form and the components; the partner of each component,
        the one component it pairs with."""
        n = len(self.form)
        if self.kind not in ("alternating", "symmetric"):
            raise ValueError(f"unknown form kind {self.kind!r}")
        sign = -1 if self.kind == "alternating" else 1
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != sign * self.form[j][i]:
                    raise ValueError("form does not match its declared kind")
        vecs = [v for piece in self.pieces for v in piece]
        r = rank(vecs)
        if len(vecs) != r:
            raise ValueError("components are not independent")
        if r != n:
            raise ValueError("components do not span the space")
        partner = []
        for i, pi in enumerate(self.pieces):
            mates = [j for j, pj in enumerate(self.pieces)
                     if any(self.pairing(x, y) for x in pi for y in pj)]
            if len(mates) != 1:
                raise ValueError(
                    f"component {i} pairs with {len(mates)} components, not 1")
            partner.append(mates[0])
        return partner


Pairing = Callable[[Vect, Vect], CycloNum]


def dual_vectors(pairing: Pairing, left: list[Vect], right: list[Vect]) -> list[Vect]:
    """A basis (y_q) of span(right) with pairing(left_q, y_p) = delta_qp."""
    if len(left) != len(right):
        raise ValueError("pairing between partnered components is degenerate")
    if not left:
        return []
    ctx = left[0][0].ctx
    inv = mat_inverse(transpose([[pairing(x, y) for y in right] for x in left]), ctx)
    if inv is None:
        raise ValueError("pairing between partnered components is degenerate")
    duals = [mat_apply(right, col) for col in inv]
    for q in range(len(left)):
        for p in range(len(left)):
            want = ctx.one() if p == q else ctx.zero()
            if pairing(left[q], duals[p]) != want:
                raise AssertionError("dual basis construction failed")
    return duals


def symplectic_gram_schmidt(pairing: Pairing,
                            vectors: list[Vect]) -> list[tuple[Vect, Vect]]:
    """Darboux pairs (x, y), pairing(x, y) = 1, spanning span(vectors) for
    an alternating pairing that is nondegenerate there."""
    pairs = []
    work = [tuple(v) for v in vectors]
    while work:
        x = work[0]
        mate = next((y for y in work[1:] if pairing(x, y)), None)
        if mate is None:
            raise ValueError("degenerate restriction on a self-paired component")
        y = vscale(pairing(x, mate).inv(), mate)
        pairs.append((x, y))
        rest = []
        for w in work:
            if w is x or w is mate:
                continue
            w2 = vsub(w, vscale(pairing(w, y), x))
            w2 = vadd(w2, vscale(pairing(w, x), y))
            if not is_zero_vect(w2):
                rest.append(w2)
        work = rest
    return pairs


def orthogonal_gram_schmidt(pairing: Pairing, vectors: list[Vect]) -> list[Vect]:
    """An orthogonal basis of span(vectors), all of nonzero norm, for a
    symmetric pairing that is nondegenerate there."""
    diag = []
    work = [tuple(v) for v in vectors]
    while work:
        x = next((v for v in work if pairing(v, v)), None)
        if x is None:
            # char 0: polarize two isotropic vectors with nonzero pairing
            hit = next(((a, b) for a in range(len(work))
                        for b in range(a + 1, len(work))
                        if pairing(work[a], work[b])), None)
            if hit is None:
                raise ValueError("degenerate restriction on a self-paired component")
            work[hit[0]] = vadd(work[hit[0]], work[hit[1]])
            continue
        nx = pairing(x, x)
        diag.append(x)
        rest = []
        for w in work:
            if w is x:
                continue
            w2 = vsub(w, vscale(pairing(w, x) / nx, x))
            if not is_zero_vect(w2):
                rest.append(w2)
        work = rest
    return diag


def _paired_basis(pairing: Pairing, pieces: list[list[Vect]], partner: list[int],
                  alternating: Callable[[int], bool]) -> list[tuple]:
    """The homogeneous basis of sum(pieces) under a pairing, nondegenerate
    there, that pairs piece i with piece partner[i] alone: for each piece i
    at or before its partner j, (i, j, pairs, diag).  pairs are the dual
    pairs of piece i against piece j when j != i; when j = i, they are the
    Darboux pairs of piece i if alternating(i), and diag is its orthogonal
    family otherwise."""
    blocks = []
    for i, (piece, j) in enumerate(zip(pieces, partner)):
        if j > i:
            blocks.append((i, j, list(zip(piece, dual_vectors(pairing, piece, pieces[j]))), []))
        elif j == i and alternating(i):
            blocks.append((i, i, symplectic_gram_schmidt(pairing, piece), []))
        elif j == i:
            blocks.append((i, i, [], orthogonal_gram_schmidt(pairing, piece)))
    return blocks


def _homogeneous_basis(d: PairedDecomposition) -> tuple[list[tuple[Vect, Vect]], list[Vect]]:
    """The (pairs, diag) of _paired_basis on d, checked on their Gram matrix."""
    alternating = d.kind == "alternating"
    blocks = _paired_basis(d.pairing, d.pieces, d.validate(), lambda i: alternating)
    pairs = [pair for _, _, block, _ in blocks for pair in block]
    diag = [v for *_, block in blocks for v in block]
    _check_gram(d.pairing, pairs, diag, -1 if alternating else 1)
    return pairs, diag


def _check_gram(pairing: Pairing, pairs, diag, back: int):
    """The Gram matrix of u1, u1', u2, u2', ..., then diag: <u_p, u_p'> = 1,
    <u_p', u_p> = back (-1 for an alternating pairing, 1 for a symmetric
    one), nonzero norms on diag, and zero elsewhere."""
    flat = [v for pair in pairs for v in pair] + diag
    n = 2 * len(pairs)
    for a, x in enumerate(flat):
        for b, y in enumerate(flat):
            val = pairing(x, y)
            if a < n and b == a ^ 1:
                ok = val == (1 if a < b else back)
            else:
                ok = bool(val) == (a == b >= n)
            if not ok:
                raise AssertionError("homogeneous basis has the wrong Gram matrix")


def homogeneous_symplectic_basis(d: PairedDecomposition) -> list[tuple[Vect, Vect]]:
    """Darboux pairs (u, u') inside the union of the components, with
    <u_i, u_j'> = delta_ij and all other pairings zero."""
    if d.kind != "alternating":
        raise ValueError("symplectic basis requires an alternating form")
    return _homogeneous_basis(d)[0]


def homogeneous_orthogonal_basis(
    d: PairedDecomposition,
) -> tuple[list[tuple[Vect, Vect]], list[Vect]]:
    """For a symmetric form: hyperbolic pairs (u, v) with <u, v> = 1 from
    cross-paired components and an orthogonal family (nonzero norms) from
    self-paired ones, all inside the union of the components."""
    if d.kind != "symmetric":
        raise ValueError("orthogonal basis requires a symmetric form")
    return _homogeneous_basis(d)


def _graded_paired_basis(gr: Grading, z: Vect, alternating: Callable[[GroupElt], bool]):
    """_paired_basis on a grading with a homogeneous center line z, under
    the pairing [x, y] = <x, y> z, which pairs V_g with V_(-g+g0) for g0
    the degree of z.  The first piece is a complement of z in V_g0, then
    come V_0 (when g0 != 0) and the rest of the support in order.  Returns
    (degrees, pieces, blocks, pairing): the degree of each piece, g0 first, and <x, y>."""
    a = gr.algebra
    g0 = gr.degree_of(z)
    if g0 is None:
        raise ValueError("center is not homogeneous")
    zero = gr.group.zero()
    piv = next(i for i, c in enumerate(z) if c)
    left, _ = rref([vsub(v, vscale(v[piv] / z[piv], z)) for v in gr.components[g0]])
    degrees = [g0] + [zero] * (g0 != zero) + [g for g in gr.support if g not in (g0, zero)]
    pieces = [list(left)] + [list(gr.components.get(g, ())) for g in degrees[1:]]
    index = {g: i for i, g in enumerate(degrees)}
    partner = []
    for g in degrees:
        if -g + g0 not in index:
            raise ValueError(f"degree {g} has no partner component at {-g + g0}")
        partner.append(index[-g + g0])

    def pairing(x: Vect, y: Vect) -> CycloNum:
        return line_coeff(a.bracket(x, y), z)

    return degrees, pieces, _paired_basis(pairing, pieces, partner,
                                          lambda i: alternating(degrees[i])), pairing


def darboux_homogeneous_basis(gr: Grading) -> list[Vect]:
    """A homogeneous basis z, u1, u1', ... of a graded Heisenberg algebra
    with [ui, ui'] = z and all other brackets zero: the paired basis of the
    components under [x, y] = <x, y> z, alternating on every self-paired
    one."""
    a = gr.algebra
    cen = center(a)
    if len(cen) != 1:
        raise ValueError("algebra does not have a one-dimensional center")
    if a.is_super():
        raise ValueError("a Darboux basis needs a Lie algebra: odd components pair symmetrically")
    z = cen[0]
    _, _, blocks, pairing = _graded_paired_basis(gr, z, lambda g: True)
    pairs = [pair for _, _, block, _ in blocks for pair in block]
    _check_gram(pairing, pairs, [], -1)
    return [z] + [v for pair in pairs for v in pair]


# --- JSON interface ---------------------------------------------------------

def elt_to_json(g: GroupElt) -> dict:
    return {"free": list(g.free), "torsion": list(g.torsion)}


def group_from_json(spec: dict) -> AbGroup:
    spec = json_typed(spec, "object", "the group")
    return AbGroup(json_int(spec.get("rank", 0), "rank"),
                   json_ints(spec.get("torsion", ()), "torsion"))


def elt_from_json(group: AbGroup, spec: dict) -> GroupElt:
    spec = json_typed(spec, "object", "a degree")
    return group.elt(json_ints(spec.get("free", ()), "free"),
                     json_ints(spec.get("torsion", ()), "torsion"))


def grading_to_json(gr: Grading) -> dict:
    zero = gr.algebra.ctx.zero()  # most zero entries are this object
    return {
        "algebra": algebra_to_json(gr.algebra),
        "group": {"rank": gr.group.rank, "torsion": list(gr.group.torsion)},
        "components": [
            {
                "degree": elt_to_json(g),
                "vectors": [["0" if c is zero else format_scalar(c) for c in v]
                            for v in gr.components[g]],
            }
            for g in gr.support
        ],
    }


def grading_from_json(spec: dict, ctx=None) -> Grading:
    """The grading of a JSON spec; one memo parses each scalar text once."""
    spec = json_typed(spec, "object", "the grading")
    memo: dict = {}
    algebra = algebra_from_json(spec["algebra"], ctx, memo)
    gspec = json_typed(spec["group"], "object", "the group")
    images = None
    if "relations" in gspec:
        relations = json_typed(gspec["relations"], "array", "relations")
        group, images = canonicalize(
            AbPresentation(json_int(gspec["n_gens"], "n_gens"),
                           tuple(json_ints(r, "a relation") for r in relations)))
    else:
        group = group_from_json(gspec)
    comps: dict[GroupElt, tuple[Vect, ...]] = {}
    for entry in json_typed(spec["components"], "array", "components"):
        entry = json_typed(entry, "object", "a component")
        dspec = json_typed(entry["degree"], "object", "a degree")
        if "gens" in dspec:
            # coefficients over the presentation's own generators
            if images is None:
                raise ValueError(
                    "degrees over generators need a relation-presented group")
            g = group.zero()
            for c, img in zip(json_ints(dspec["gens"], "gens"), images):
                g = g + c * img
        else:
            g = elt_from_json(group, dspec)
        vecs = tuple(vect_from_json(v, algebra.ctx, algebra.dim, memo)
                     for v in json_typed(entry["vectors"], "array", "vectors"))
        if g in comps:
            raise ValueError(f"duplicate component degree {g}")
        comps[g] = vecs
    return Grading(algebra, group, comps)
