"""Group gradings on structure-constant algebras.

Covers verification, the universal grading group (presented by the
support with one relation per nonzero bracket pair), coarsening along
group epimorphisms, the torality test for fine gradings, and the
constructive homogeneous-basis algorithms for symplectic and symmetric
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from ._linalg import (Vect, is_zero_vect, mat_inverse, rank, rref,
                      reduce_against, vadd, vscale, vsub)
from .abelian import (AbGroup, AbPresentation, GroupElt, canonicalize,
                      generates)
from .liealg import (Algebra, VerifyReport, algebra_from_json, algebra_to_json,
                     center, json_int, json_ints, json_typed, vect_from_json)
from .scalars import CycloNum, format_scalar

__all__ = [
    "Grading", "PairedDecomposition",
    "verify_grading", "universal_group", "is_toral_fine", "coarsen",
    "dual_vectors", "symplectic_gram_schmidt", "orthogonal_gram_schmidt",
    "homogeneous_symplectic_basis", "homogeneous_orthogonal_basis",
    "darboux_homogeneous_basis",
    "grading_to_json", "grading_from_json", "group_from_json", "elt_from_json",
]


@dataclass
class Grading:
    """A group grading: map from group elements to component bases.
    `family` is the record of the fine-grading constructor that built it
    (fine.HeisenbergFine, SuperFine or TwistedFine), or None."""

    algebra: Algebra
    group: AbGroup
    components: dict[GroupElt, tuple[Vect, ...]]
    family: Any = None

    @property
    def support(self) -> list[GroupElt]:
        return sorted(self.components, key=lambda g: g.key())

    @cached_property
    def spans(self) -> dict[GroupElt, tuple[list[Vect], list[int]]]:
        """The reduced (rows, pivots) of each component, by degree."""
        return {g: rref(list(self.components[g])) for g in self.support}

    def component(self, g: GroupElt) -> tuple[Vect, ...]:
        return self.components.get(g, ())


def _bracket_component(gr: Grading, g: GroupElt, h: GroupElt) -> list[Vect]:
    a = gr.algebra
    out = []
    for va in gr.components[g]:
        for vb in gr.components[h]:
            w = a.bracket(va, vb)
            if not is_zero_vect(w):
                out.append(w)
    return out


def verify_grading(gr: Grading) -> VerifyReport:
    """Check span, independence, parity splitting (super), bracket
    compatibility and that the support generates the group."""
    a = gr.algebra
    failures = []
    all_vecs = [v for g in gr.support for v in gr.components[g]]
    if len(all_vecs) != a.dim or rank(all_vecs) != a.dim:
        failures.append(
            f"components do not decompose the algebra: {len(all_vecs)} vectors "
            f"of rank {rank(all_vecs)} in dimension {a.dim}")
        return VerifyReport(False, failures)
    for g in gr.support:
        if any(is_zero_vect(v) for v in gr.components[g]):
            failures.append(f"zero vector listed in component {g}")
            return VerifyReport(False, failures)
    if a.is_super():
        for g in gr.support:
            comp = list(gr.components[g])
            even = [tuple(c if a.parity[i] == 0 else a.ctx.zero()
                          for i, c in enumerate(v)) for v in comp]
            odd = [tuple(c if a.parity[i] == 1 else a.ctx.zero()
                         for i, c in enumerate(v)) for v in comp]
            pieces = [v for v in even + odd if not is_zero_vect(v)]
            if rank(pieces) != len(comp):
                failures.append(f"component {g} is not parity-graded")
                return VerifyReport(False, failures)
    support = gr.support
    for g in support:
        for h in support:
            prods = _bracket_component(gr, g, h)
            if not prods:
                continue
            target = g + h
            if target not in gr.components:
                failures.append(
                    f"bracket of degrees {g} and {h} is nonzero but {target} "
                    "is outside the support")
                return VerifyReport(False, failures)
            basis, pivots = gr.spans[target]
            for w in prods:
                if not is_zero_vect(reduce_against(basis, pivots, w)):
                    failures.append(
                        f"bracket of degrees {g} and {h} leaves component {target}")
                    return VerifyReport(False, failures)
    if not generates(gr.group, support):
        failures.append("support does not generate the grading group")
    return VerifyReport(not failures, failures)


def _bracket_relations(gr: Grading) -> list[tuple[int, int, int]]:
    """Indices (i, j, k) into the sorted support with 0 != [L_i, L_j] <= L_k."""
    support = gr.support
    pos = {g: i for i, g in enumerate(support)}
    rels = []
    for i, g in enumerate(support):
        for j in range(i, len(support)):
            h = support[j]
            if _bracket_component(gr, g, h):
                target = g + h
                if target not in pos:
                    raise ValueError("not a grading: bracket leaves the support")
                rels.append((i, j, pos[target]))
    return rels


def universal_group(gr: Grading) -> tuple[AbGroup, Grading]:
    """The universal grading group (one generator per support element,
    one relation per nonzero bracket pair) and the regraded copy."""
    support = gr.support
    n = len(support)
    rows = []
    for i, j, k in _bracket_relations(gr):
        row = [0] * n
        row[i] += 1
        row[j] += 1
        row[k] -= 1
        if any(row):
            rows.append(tuple(row))
    group, images = canonicalize(AbPresentation(n, tuple(dict.fromkeys(rows))))
    if len(set(images)) != n:
        raise ValueError("universal regrading identified two support degrees")
    comps = {images[i]: gr.components[g] for i, g in enumerate(support)}
    return group, Grading(gr.algebra, group, comps, gr.family)


def is_toral_fine(gr: Grading) -> bool:
    """Torality of a fine grading: its universal group is torsion-free."""
    group, _ = universal_group(gr)
    return group.is_torsion_free()


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

    def validate(self):
        n = len(self.form)
        if self.kind not in ("alternating", "symmetric"):
            raise ValueError(f"unknown form kind {self.kind!r}")
        sign = -1 if self.kind == "alternating" else 1
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != sign * self.form[j][i]:
                    raise ValueError("form does not match its declared kind")
        vecs = [v for piece in self.pieces for v in piece]
        if len(vecs) != rank(vecs):
            raise ValueError("components are not independent")
        if rank(vecs) != n:
            raise ValueError("components do not span the space")
        self._partner()  # raises on violation

    def _partner(self) -> list[int]:
        out = []
        for i, pi in enumerate(self.pieces):
            partners = []
            for j, pj in enumerate(self.pieces):
                if any(self.pairing(x, y) for x in pi for y in pj):
                    partners.append(j)
            if len(partners) != 1:
                raise ValueError(
                    f"component {i} pairs with {len(partners)} components, not 1")
            out.append(partners[0])
        return out


Pairing = Callable[[Vect, Vect], CycloNum]


def dual_vectors(pairing: Pairing, left: list[Vect], right: list[Vect]) -> list[Vect]:
    """A basis (y_q) of span(right) with pairing(left_q, y_p) = delta_qp."""
    if len(left) != len(right):
        raise ValueError("pairing between partnered components is degenerate")
    if not left:
        return []
    ctx = left[0][0].ctx
    gram = [[pairing(x, y) for y in right] for x in left]
    inv = mat_inverse([tuple(gram[i][j] for i in range(len(left)))
                       for j in range(len(right))], ctx)
    if inv is None:
        raise ValueError("pairing between partnered components is degenerate")
    duals = []
    for q in range(len(left)):
        acc = tuple(ctx.zero() for _ in right[0])
        for p in range(len(right)):
            if inv[q][p]:
                acc = vadd(acc, vscale(inv[q][p], right[p]))
        duals.append(acc)
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


def _partnered_pieces(d: PairedDecomposition):
    """Each component once, with its partner component, or None when it
    pairs with itself."""
    d.validate()
    partner = d._partner()
    done = set()
    for i, piece in enumerate(d.pieces):
        j = partner[i]
        if i not in done:
            done.update((i, j))
            yield [tuple(v) for v in piece], (None if j == i else d.pieces[j])


def homogeneous_symplectic_basis(d: PairedDecomposition) -> list[tuple[Vect, Vect]]:
    """Darboux pairs (u, u') inside the union of the components, with
    <u_i, u_j'> = delta_ij and all other pairings zero."""
    if d.kind != "alternating":
        raise ValueError("symplectic basis requires an alternating form")
    pairs: list[tuple[Vect, Vect]] = []
    for piece, mate in _partnered_pieces(d):
        if mate is None:
            pairs += symplectic_gram_schmidt(d.pairing, piece)
        else:
            pairs += zip(piece, dual_vectors(d.pairing, piece, mate))
    _check_symplectic(d, pairs)
    return pairs


def _check_symplectic(d: PairedDecomposition, pairs):
    ctx = pairs[0][0][0].ctx
    one, zero = ctx.one(), ctx.zero()
    for a, (u1, v1) in enumerate(pairs):
        for b, (u2, v2) in enumerate(pairs):
            if d.pairing(u1, u2) != zero or d.pairing(v1, v2) != zero:
                raise AssertionError("symplectic basis has nonzero u-u or u'-u' pairing")
            want = one if a == b else zero
            if d.pairing(u1, v2) != want:
                raise AssertionError("symplectic basis pairing is not the identity")


def homogeneous_orthogonal_basis(
    d: PairedDecomposition,
) -> tuple[list[tuple[Vect, Vect]], list[Vect]]:
    """For a symmetric form: hyperbolic pairs (u, v) with <u, v> = 1 from
    cross-paired components and an orthogonal family (nonzero norms) from
    self-paired ones, all inside the union of the components."""
    if d.kind != "symmetric":
        raise ValueError("orthogonal basis requires a symmetric form")
    pairs: list[tuple[Vect, Vect]] = []
    diag: list[Vect] = []
    for piece, mate in _partnered_pieces(d):
        if mate is None:
            diag += orthogonal_gram_schmidt(d.pairing, piece)
        else:
            pairs += zip(piece, dual_vectors(d.pairing, piece, mate))
    _check_orthogonal(d, pairs, diag)
    return pairs, diag


def _check_orthogonal(d: PairedDecomposition, pairs, diag):
    ctx = d.form[0][0].ctx
    one, zero = ctx.one(), ctx.zero()
    flat = [v for p in pairs for v in p] + list(diag)
    for z in diag:
        if not d.pairing(z, z):
            raise AssertionError("orthogonal basis vector has zero norm")
    for a, x in enumerate(flat):
        for b, y in enumerate(flat):
            val = d.pairing(x, y)
            in_pair = any(x is u and y is v or x is v and y is u for u, v in pairs)
            if in_pair:
                if val != one:
                    raise AssertionError("hyperbolic pair does not pair to 1")
            elif a == b:
                continue
            elif val != zero:
                raise AssertionError("unexpected nonzero pairing in orthogonal basis")


def darboux_homogeneous_basis(gr: Grading) -> list[Vect]:
    """A homogeneous basis z, u1, u1', ... of a graded Heisenberg algebra
    with [ui, ui'] = z and all other brackets zero.

    Pushes the grading to the symplectic quotient by the center, extracts
    a homogeneous symplectic basis there, and lifts with zero
    z-coordinate.
    """
    a = gr.algebra
    cen = center(a)
    if len(cen) != 1:
        raise ValueError("algebra does not have a one-dimensional center")
    z = cen[0]
    z_idx = next(i for i, c in enumerate(z) if c)
    dim_p = a.dim - 1
    idxs = [i for i in range(a.dim) if i != z_idx]

    def project(v: Vect) -> Vect:
        # representative with zero z-coordinate, then drop that coordinate
        shifted = vsub(v, vscale(v[z_idx] / z[z_idx], z))
        return tuple(shifted[i] for i in idxs)

    def lift(v: Vect) -> Vect:
        out = [a.ctx.zero()] * a.dim
        for pos, i in enumerate(idxs):
            out[i] = v[pos]
        return tuple(out)

    # form on the quotient: <x, y> z = [x, y]
    form = []
    for i in idxs:
        row = []
        for j in idxs:
            w = a.table[i][j]
            row.append(w[z_idx] / z[z_idx])
        form.append(tuple(row))
    pieces = []
    for g in gr.support:
        vecs = [project(v) for v in gr.components[g]]
        basis, _ = rref([v for v in vecs if not is_zero_vect(v)])
        if basis:
            pieces.append(list(basis))
    d = PairedDecomposition(form, pieces, "alternating")
    pairs = homogeneous_symplectic_basis(d)
    basis = [z]
    for u, v in pairs:
        basis += [lift(u), lift(v)]
    _check_darboux(a, z, basis)
    return basis


def _check_darboux(a: Algebra, z: Vect, basis: list[Vect]):
    n = (len(basis) - 1) // 2
    for p in range(n):
        u, v = basis[1 + 2 * p], basis[2 + 2 * p]
        if a.bracket(u, v) != z:
            raise AssertionError("Darboux pair does not bracket to z")
        for q in range(n):
            u2, v2 = basis[1 + 2 * q], basis[2 + 2 * q]
            if not is_zero_vect(a.bracket(u, u2)) or not is_zero_vect(a.bracket(v, v2)):
                raise AssertionError("unexpected nonzero bracket in Darboux basis")
            if p != q and not is_zero_vect(a.bracket(u, v2)):
                raise AssertionError("cross pair brackets to nonzero value")


# --- JSON interface ---------------------------------------------------------

def _elt_to_json(g: GroupElt) -> dict:
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
    return {
        "algebra": algebra_to_json(gr.algebra),
        "group": {"rank": gr.group.rank, "torsion": list(gr.group.torsion)},
        "components": [
            {
                "degree": _elt_to_json(g),
                "vectors": [[format_scalar(c) for c in v] for v in gr.components[g]],
            }
            for g in gr.support
        ],
    }


def grading_from_json(spec: dict, ctx=None) -> Grading:
    spec = json_typed(spec, "object", "the grading")
    algebra = algebra_from_json(spec["algebra"], ctx)
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
        vecs = tuple(vect_from_json(v, algebra.ctx, algebra.dim)
                     for v in json_typed(entry["vectors"], "array", "vectors"))
        if g in comps:
            raise ValueError(f"duplicate component degree {g}")
        comps[g] = vecs
    return Grading(algebra, group, comps)
