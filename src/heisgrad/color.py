"""Heisenberg Lie color algebras.

Bicharacters on finitely generated abelian groups, the standard-form
construction from (group, distinguished degree, bicharacter, dimension
table), color axiom verification, the super-realizability test, and
recognition of arbitrary graded structures as standard forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from ._linalg import Vect, rank, vscale
from .abelian import (AbGroup, GroupElt, canonicalize, express_in_terms,
                      generates, subgroup_presentation)
from .gradings import (Grading, _graded_paired_basis, decomposition_failure,
                       elt_from_json, elt_to_json, group_from_json)
from .liealg import (Algebra, VerifyReport, axiom_failures, center, check_dim, derived,
                     json_int, json_typed)
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
        check_dim(sum(self.dims.values()))
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
    ctx = ctx or t.epsilon.ctx
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
    one = ctx.one()
    terms = [()] * dim  # each basis vector but z brackets with one other
    for u, uh, g in pairs:
        terms[u] = ((uh, ((z_idx, one),)),)
        terms[uh] = ((u, ((z_idx, -t.epsilon(-g + t.g0, g)),)),)
    for s, g in selfs:
        terms[s] = ((s, ((z_idx, one),)),)
    spec = {"kind": "color", "type": color_type_to_json(t), "conductor": ctx.n}
    algebra = Algebra(ctx, tuple(labels), (0,) * dim, tuple(terms), spec)
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
    """Color skew-symmetry and the color Jacobi identity, checked on the
    structure constants in the homogeneous basis that the component bases
    of the grading form; components that are not a basis of a fail."""
    support = gr.support
    table = gr.table
    if table.terms is None:
        return VerifyReport(False, [decomposition_failure(table.basis, a.dim)])
    degrees = [g for g in support for _ in gr.components[g]]
    value = {(g, h): eps(g, h) for g in support for h in support}
    factor = [[value[g, h] for h in degrees] for g in degrees]
    for fail in axiom_failures(table.terms, factor):
        kind = "skew-symmetry" if len(fail) == 2 else "Jacobi"
        return VerifyReport(False, [f"color {kind} fails on degrees "
                                    + ", ".join(str(degrees[i]) for i in fail)])
    return VerifyReport(True, [])


def is_super_realizable(t: ColorType):
    """When eps(g, -g+g0) is +-1 on the support, the split of the support
    by that sign; None otherwise."""
    t.validate()
    ctx = t.epsilon.ctx
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
    if len(cen) != 1 or len(der) != 1 or rank(cen + der) != 1:
        raise ValueError("structure is not Heisenberg: need [L,L] = Z(L) of dimension 1")
    z = cen[0]

    group = gr.group
    if not generates(group, gr.support):
        # restrict to the subgroup generated by the support
        support = gr.support
        group2, images = canonicalize(subgroup_presentation(gr.group, support))
        remap = {g: images[i] for i, g in enumerate(support)}
        comps = {remap[g]: gr.components[g] for g in support}
        # the canonical generators of the subgroup, expressed through the
        # support and mapped back into the ambient group; eps is
        # biadditive, so its values there restrict it
        ambient = []
        for gen in group2.generators():
            combo = express_in_terms(group2, [remap[g] for g in support], gen)
            if combo is None:
                raise AssertionError("support does not generate its own subgroup")
            ambient.append(sum((c * g for c, g in zip(combo, support)), group.zero()))
        eps = Bicharacter(group2, [[eps(x, y) for y in ambient] for x in ambient], eps.ctx)
        gr = Grading(a, group2, comps, gr.family)
        group = group2

    zero_elt, minus_one = group.zero(), -a.ctx.one()

    def alternating(g: GroupElt) -> bool:
        # on a self-paired V_g, [x, y] = -eps(g, g) [y, x]: alternating on
        # degree 0 (when g0 = 0), symmetric (eps(g, g) = -1) elsewhere
        if g == zero_elt:
            return True
        if eps(g, g) != minus_one:
            raise ValueError(f"epsilon({g},{g}) must be -1 on a self-paired degree")
        return False

    degrees, pieces, blocks, pairing = _graded_paired_basis(gr, z, alternating)
    g0 = degrees[0]
    basis: list[tuple[str, GroupElt, Vect]] = [("z", g0, z)]
    products = []  # (x, y, w, failure): the standard products [x, y] = w
    for i, j, pairs, diag in blocks:
        tag = "0" if i == 0 else _deg_tag(degrees[i])
        back = vscale(-eps(degrees[j], degrees[i]), z)
        for n, (u, uh) in enumerate(pairs, start=1):
            name, mate = f"u{tag}_{n}", f"uh{tag}_{n}"
            basis += [(name, degrees[i], u), (mate, degrees[j], uh)]
            products += [(u, uh, z, f"[{name}, {mate}] is not z"),
                         (uh, u, back, f"[{mate}, {name}] has the wrong sign")]
        for n, x in enumerate(diag, start=1):
            x = vscale(sqrt_scalar(pairing(x, x).inv()), x)  # [x, x] = z
            basis.append((f"s{tag}_{n}", degrees[i], x))
            products.append((x, x, z, f"[s{tag}_{n}, s{tag}_{n}] is not z"))
    dims = {g: len(piece) for g, piece in zip(degrees, pieces)}
    dims[g0] += 1  # z, which the first piece leaves out

    t = ColorType(group, g0, eps, dims)
    t.validate()
    for x, y, w, failure in products:
        if a.bracket(x, y) != w:
            raise AssertionError(failure)
    return t, basis


# --- JSON interface ---------------------------------------------------------

def color_type_to_json(t: ColorType) -> dict:
    return {
        "group": {"rank": t.group.rank, "torsion": list(t.group.torsion)},
        "g0": elt_to_json(t.g0),
        "epsilon": [[format_scalar(v) for v in row] for row in t.epsilon.values],
        "dims": [
            {"degree": elt_to_json(g), "dim": d}
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
    eps = Bicharacter(group, epsilon_from_json(spec["epsilon"], ctx), ctx)
    dims = {}
    for entry in json_typed(spec["dims"], "array", "dims"):
        entry = json_typed(entry, "object", "a dims entry")
        dims[elt_from_json(group, entry["degree"])] = json_int(entry["dim"], "dim")
    return ColorType(group, g0, eps, dims)
