"""Heisenberg Lie color algebras.

Bicharacters on finitely generated abelian groups, the standard-form
construction from (group, distinguished degree, bicharacter, dimension
table), color axiom verification, the super-realizability test, and
recognition of arbitrary graded structures as standard forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from ._linalg import (Vect, in_span, is_zero_vect, rref, vadd, vscale, vsub,
                      vzero)
from .abelian import (AbGroup, GroupElt, canonicalize, express_in_terms,
                      generates, subgroup_presentation)
from .gradings import (Grading, dual_vectors, elt_from_json, group_from_json,
                       orthogonal_gram_schmidt, symplectic_gram_schmidt)
from .liealg import Algebra, VerifyReport, center, derived, json_int, json_typed
from .scalars import (CycloCtx, CycloNum, format_scalar, parse_scalar,
                      sqrt_scalar)

__all__ = [
    "Bicharacter", "ColorType",
    "color_algebra", "verify_color_axioms", "is_super_realizable",
    "classify_color", "color_type_to_json", "color_type_from_json",
    "epsilon_from_json",
]


@dataclass
class Bicharacter:
    """A skew-symmetric bicharacter on an abelian group, specified by its
    values on the canonical generators and extended biadditively."""

    group: AbGroup
    values: list[list[CycloNum]]  # values[i][j] = eps(gen_i, gen_j)
    ctx: CycloCtx | None = None

    def __post_init__(self):
        gens = self.group.generators()
        n = len(gens)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("need one value per generator pair")
        if self.ctx is None:
            if not self.values:
                raise ValueError("a bicharacter on the trivial group needs a context")
            self.ctx = self.values[0][0].ctx
        one = self.ctx.one()
        for i in range(n):
            for j in range(n):
                if self.values[i][j] * self.values[j][i] != one:
                    raise ValueError(
                        f"values on generators ({i},{j}) are not skew-symmetric")
        orders = [0] * self.group.rank + list(self.group.torsion)
        for i in range(n):
            for j in range(n):
                d = orders[i]
                if d and self.values[i][j] ** d != one:
                    raise ValueError(
                        f"value on generators ({i},{j}) ignores the order-{d} relation")

    def __call__(self, g: GroupElt, h: GroupElt) -> CycloNum:
        if g.group != self.group or h.group != self.group:
            raise ValueError("elements do not belong to the bicharacter's group")
        gc = list(g.free) + list(g.torsion)
        hc = list(h.free) + list(h.torsion)
        out = self.ctx.one()
        for i, a in enumerate(gc):
            if not a:
                continue
            for j, b in enumerate(hc):
                if b:
                    out = out * self.values[i][j] ** (a * b)
        return out


@dataclass
class ColorType:
    """Standard-form data: the grading group, the degree g0 carrying the
    center, the bicharacter, and component dimensions."""

    group: AbGroup
    g0: GroupElt
    epsilon: Bicharacter
    dims: dict[GroupElt, int]

    def validate(self):
        if self.g0.group != self.group or self.epsilon.group != self.group:
            raise ValueError("group mismatch in color type data")
        zero = self.group.zero()
        for g, d in self.dims.items():
            if d < 0:
                raise ValueError("component dimensions must be nonnegative")
            if g in (self.g0, zero):
                continue
            partner = -g + self.g0
            if d != self.dims.get(partner, 0):
                raise ValueError(f"dims at {g} and {partner} differ")
        d0 = self.dims.get(zero, 0)
        dg0 = self.dims.get(self.g0, 0)
        if self.g0 != zero and dg0 != d0 + 1:
            raise ValueError("dimension at g0 must exceed the dimension at 0 by 1")
        if self.g0 == zero and dg0 % 2 == 0:
            raise ValueError("dimension at g0 = 0 must be odd (center plus pairs)")
        for g, d in self.dims.items():
            if d and 2 * g == self.g0 and g != self.g0:
                val = self.epsilon(g, g)
                if val != val.ctx.from_fraction(-1):
                    raise ValueError(
                        f"epsilon({g},{g}) must be -1 on a self-paired component")

    def support(self):
        return sorted((g for g, d in self.dims.items() if d), key=lambda g: g.key())


def _pair_classes(t: ColorType):
    """Support split into the distinguished pair, self-paired degrees and
    cross pairs."""
    zero = t.group.zero()
    crosses, selfs = [], []
    seen = set()
    for g in t.support():
        if g in (t.g0, zero) or g in seen:
            continue
        partner = -g + t.g0
        if partner == g:
            selfs.append(g)
            seen.add(g)
        else:
            crosses.append((g, partner))
            seen.update((g, partner))
    return crosses, selfs


def color_algebra(t: ColorType, ctx: CycloCtx | None = None) -> tuple[Algebra, Grading]:
    """The standard-form Heisenberg Lie color algebra of the given type,
    with its grading."""
    t.validate()
    ctx = ctx or t.epsilon.values[0][0].ctx
    zero_elt = t.group.zero()
    labels: list[str] = []
    degrees: list[GroupElt] = []

    def add(label, g):
        labels.append(label)
        degrees.append(g)
        return len(labels) - 1

    z_idx = add("z", t.g0)
    pairs: list[tuple[int, int, GroupElt]] = []  # (u index, uhat index, degree of u)
    selfs: list[tuple[int, GroupElt]] = []
    n0 = t.dims.get(zero_elt, 0) if t.g0 != zero_elt else (t.dims.get(zero_elt, 0) - 1) // 2
    for i in range(1, n0 + 1):
        u = add(f"u0_{i}", t.g0)
        uh = add(f"uh0_{i}", zero_elt)
        pairs.append((u, uh, t.g0))
    crosses, self_degs = _pair_classes(t)
    for g, partner in crosses:
        for i in range(1, t.dims[g] + 1):
            u = add(f"u{_deg_tag(g)}_{i}", g)
            uh = add(f"uh{_deg_tag(g)}_{i}", partner)
            pairs.append((u, uh, g))
    for g in self_degs:
        for i in range(1, t.dims[g] + 1):
            selfs.append((add(f"s{_deg_tag(g)}_{i}", g), g))

    dim = len(labels)
    zv = [ctx.zero()] * dim
    zv[z_idx] = ctx.one()
    z_vec = tuple(zv)
    table = [[vzero(ctx, dim)] * dim for _ in range(dim)]
    for u, uh, g in pairs:
        table[u][uh] = z_vec
        table[uh][u] = vscale(-t.epsilon(-g + t.g0, g), z_vec)
    for s, g in selfs:
        table[s][s] = z_vec
    algebra = Algebra(ctx, tuple(labels), (0,) * dim,
                      tuple(tuple(row) for row in table))
    comps: dict[GroupElt, list[Vect]] = {}
    for i, g in enumerate(degrees):
        comps.setdefault(g, []).append(algebra.basis_vect(i))
    grading = Grading(algebra, t.group, {g: tuple(v) for g, v in comps.items()})
    report = verify_color_axioms(algebra, grading, t.epsilon)
    if not report.ok:
        raise AssertionError("constructed color algebra fails its axioms: "
                             + "; ".join(report.failures[:3]))
    return algebra, grading


def _deg_tag(g: GroupElt) -> str:
    return "_".join(str(c) for c in list(g.free) + list(g.torsion))


def verify_color_axioms(a: Algebra, gr: Grading, eps: Bicharacter) -> VerifyReport:
    """Color skew-symmetry and the color Jacobi identity on a homogeneous
    basis (the component bases of the grading)."""
    failures = []
    items = []
    for g in gr.support:
        for v in gr.components[g]:
            items.append((g, v))
    for ga, va in items:
        for gb, vb in items:
            lhs = a.bracket(va, vb)
            rhs = vscale(-eps(ga, gb), a.bracket(vb, va))
            if lhs != rhs:
                failures.append(f"color skew-symmetry fails on degrees {ga}, {gb}")
                return VerifyReport(False, failures)
    for ga, va in items:
        for gb, vb in items:
            for gc, vc in items:
                lhs = a.bracket(va, a.bracket(vb, vc))
                rhs = vadd(a.bracket(a.bracket(va, vb), vc),
                           vscale(eps(ga, gb), a.bracket(vb, a.bracket(va, vc))))
                if lhs != rhs:
                    failures.append(
                        f"color Jacobi fails on degrees {ga}, {gb}, {gc}")
                    return VerifyReport(False, failures)
    return VerifyReport(True, [])


def is_super_realizable(t: ColorType):
    """When eps(g, -g+g0) is +-1 on the support, the split of the support
    by that sign; None otherwise."""
    t.validate()
    ctx = t.epsilon.values[0][0].ctx
    one = ctx.one()
    even, odd = [], []
    for g in t.support():
        val = t.epsilon(g, -g + t.g0)
        if val == one:
            even.append(g)
        elif val == -one:
            odd.append(g)
        else:
            return None
    return even, odd


def classify_color(a: Algebra, gr: Grading, eps: Bicharacter):
    """Recognize a graded structure as a standard-form Heisenberg Lie
    color algebra: locate the degree of the center, pair the components,
    and produce a standard basis realizing the defining products."""
    report = verify_color_axioms(a, gr, eps)
    if not report.ok:
        raise ValueError("input fails the color axioms: " + report.failures[0])
    cen = center(a)
    der = derived(a)
    if len(cen) != 1 or len(der) != 1 or not in_span(cen, der[0]):
        raise ValueError("structure is not Heisenberg: need [L,L] = Z(L) of dimension 1")
    z = cen[0]
    g0 = None
    for g in gr.support:
        if in_span(list(gr.components[g]), z):
            g0 = g
            break
    if g0 is None:
        raise ValueError("center is not homogeneous")

    group = gr.group
    if not generates(group, gr.support):
        # restrict to the subgroup generated by the support
        support = gr.support
        group2, images = canonicalize(subgroup_presentation(gr.group, support))
        remap = {g: images[i] for i, g in enumerate(support)}
        comps = {remap[g]: gr.components[g] for g in support}
        # express each canonical generator of the subgroup through the
        # support and evaluate the bicharacter there
        gens = group2.generators()
        combos = []
        for gen in gens:
            combo = express_in_terms(group2, [remap[g] for g in support], gen)
            if combo is None:
                raise AssertionError("support does not generate its own subgroup")
            combos.append(combo)
        one = eps.ctx.one()
        vals = []
        for ca in combos:
            row = []
            for cb in combos:
                val = one
                for i, ai in enumerate(ca):
                    if not ai:
                        continue
                    for j, bj in enumerate(cb):
                        if bj:
                            val = val * eps(support[i], support[j]) ** (ai * bj)
                row.append(val)
            vals.append(row)
        eps = Bicharacter(group2, vals, eps.ctx)
        gr = Grading(a, group2, comps, gr.family)
        g0 = remap[g0]
        group = group2

    ctx = a.ctx
    zero_elt = group.zero()

    def pairing(x: Vect, y: Vect) -> CycloNum:
        # [x, y] = pairing(x, y) z; alternating on degree 0 when g0 = 0
        # (eps(0, 0) = 1), symmetric on self-paired degrees (eps(g, g) = -1)
        w = a.bracket(x, y)
        piv = next(i for i, c in enumerate(z) if c)
        rest = vsub(w, vscale(w[piv] / z[piv], z))
        if not is_zero_vect(rest):
            raise ValueError("bracket leaves the center line")
        return w[piv] / z[piv]

    basis: list[tuple[str, GroupElt, Vect]] = [("z", g0, z)]
    dims: dict[GroupElt, int] = {}
    handled = set()

    def add_pairs(tag, g, h, pairs):
        for i, (u, uh) in enumerate(pairs, start=1):
            basis.append((f"u{tag}_{i}", g, u))
            basis.append((f"uh{tag}_{i}", h, uh))

    # the distinguished pair {g0, 0}
    others = [v for v in gr.components[g0] if not in_span([z], v)]
    left = _complement_of_line(others, z, ctx)
    if g0 != zero_elt:
        right = list(gr.components.get(zero_elt, ()))
        pairs = zip(left, dual_vectors(pairing, left, right))
        dims[g0], dims[zero_elt] = len(left) + 1, len(right)
    else:
        # g0 = 0: split off z, then hyperbolic pairs inside one component
        pairs = symplectic_gram_schmidt(pairing, left)
        dims[zero_elt] = len(left) + 1
    add_pairs("0", g0, zero_elt, pairs)
    handled.update((g0, zero_elt))

    for g in gr.support:
        if g in handled:
            continue
        partner = -g + g0
        if partner == g:
            # self-paired: orthogonalize (Gram-Schmidt) and normalize [x, x] = z
            if eps(g, g) != -ctx.one():
                raise ValueError(f"epsilon({g},{g}) must be -1 on a self-paired degree")
            diag = orthogonal_gram_schmidt(pairing, gr.components[g])
            for i, x in enumerate(diag, start=1):
                x = vscale(sqrt_scalar(pairing(x, x).inv()), x)
                basis.append((f"s{_deg_tag(g)}_{i}", g, x))
            dims[g] = len(diag)
        else:
            if partner not in gr.components:
                raise ValueError(f"degree {g} has no partner component at {partner}")
            left = list(gr.components[g])
            duals = dual_vectors(pairing, left, list(gr.components[partner]))
            add_pairs(_deg_tag(g), g, partner, zip(left, duals))
            dims[g] = dims[partner] = len(left)
        handled.update((g, partner))

    t = ColorType(group, g0, eps, dims)
    t.validate()
    _check_standard_products(a, eps, g0, basis, z)
    return t, basis


def _check_standard_products(a: Algebra, eps: Bicharacter, g0, basis, z):
    named = {name: (g, v) for name, g, v in basis}
    for name, g, v in basis:
        if name == "z":
            continue
        if name.startswith("uh"):
            continue
        if name.startswith("u"):
            mate = "uh" + name[1:]
            gh, vh = named[mate]
            if a.bracket(v, vh) != z:
                raise AssertionError(f"[{name}, {mate}] is not z")
            want = vscale(-eps(-g + g0, g), z)
            if a.bracket(vh, v) != want:
                raise AssertionError(f"[{mate}, {name}] has the wrong sign")
        elif name.startswith("s"):
            if a.bracket(v, v) != z:
                raise AssertionError(f"[{name}, {name}] is not z")


def _complement_of_line(vectors: list[Vect], line: Vect, ctx) -> list[Vect]:
    """A basis of span(vectors + line) transverse to the line."""
    piv = next(i for i, c in enumerate(line) if c)
    out = []
    for v in vectors:
        w = vsub(v, vscale(v[piv] / line[piv], line))
        if not is_zero_vect(w):
            out.append(w)
    basis, _ = rref(out)
    return list(basis)


# --- JSON interface ---------------------------------------------------------

def color_type_to_json(t: ColorType) -> dict:
    return {
        "group": {"rank": t.group.rank, "torsion": list(t.group.torsion)},
        "g0": {"free": list(t.g0.free), "torsion": list(t.g0.torsion)},
        "epsilon": [[format_scalar(v) for v in row] for row in t.epsilon.values],
        "dims": [
            {"degree": {"free": list(g.free), "torsion": list(g.torsion)},
             "dim": d}
            for g, d in sorted(t.dims.items(), key=lambda kv: kv[0].key()) if d
        ],
    }


def epsilon_from_json(rows, ctx: CycloCtx) -> list[list[CycloNum]]:
    """A bicharacter's value matrix, given as rows of scalar strings."""
    return [[parse_scalar(s, ctx) for s in json_typed(row, "array", "an epsilon row")]
            for row in json_typed(rows, "array", "epsilon")]


def color_type_from_json(spec: dict, ctx: CycloCtx) -> ColorType:
    spec = json_typed(spec, "object", "the color type")
    group = group_from_json(spec["group"])
    g0 = elt_from_json(group, spec["g0"])
    eps = Bicharacter(group, epsilon_from_json(spec["epsilon"], ctx))
    dims = {}
    for entry in json_typed(spec["dims"], "array", "dims"):
        entry = json_typed(entry, "object", "a dims entry")
        dims[elt_from_json(group, entry["degree"])] = json_int(entry["dim"], "dim")
    return ColorType(group, g0, eps, dims)
