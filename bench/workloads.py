"""Seeded inputs for the benchmark workloads.

Every workload is a list of jobs.  A job is the argv handed to
``heisgrad.cli.main`` plus an ``expect`` record that the output checks
read; the program under test sees only the argv.  Inputs are built from
the package's public API (``enumerate_twisted_fine``, ``twisted_fine``,
``grading_to_json``, ``is_automorphism`` to assert that each random map
is an automorphism, the color-type constructors) and never from the
test helpers.

Each workload draws its jobs from fixed slots whose alternatives cost
about the same, so the seed changes the numbers the program sees but
not how much work a batch holds.  That keeps the batch wall time
comparable from one seed to the next: the batches of enumerate seeds
0-5 cost within 6 % of their mean, and the weyl-closure alternatives
move its batch by at most 7 %.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from heisgrad.abelian import AbGroup
from heisgrad.cli import auto_conductor
from heisgrad.color import (Bicharacter, ColorType, color_algebra,
                            color_type_to_json)
from heisgrad.fine import enumerate_twisted_fine, twisted_fine
from heisgrad.gradings import Grading, grading_to_json
from heisgrad.liealg import is_automorphism, twisted
from heisgrad.scalars import CycloCtx, format_scalar, parse_scalar

WORKLOADS = ("enumerate", "weyl-closure", "weyl-brute", "roundtrip")

# Coset multipliers: distinct absolute values, so two cosets never merge
# under a root of unity and the class structure depends on the shape only;
# numerators and denominators from 2 to 5, so that no seed's arithmetic
# is much heavier than another's.
MULTIPLIERS = ("2/3", "3/2", "2/5", "5/2", "3/4", "4/3", "3/5", "5/3", "4/5", "5/4")

# lambda shapes: a tuple of (order of omega, coset length) per coset;
# several block orders l survive on each.
ENUMERATE_SHAPES = (
    ((4, 4),),                  # c<i>
    ((2, 2), (2, 2)),           # c1<-1> u c2<-1>
    ((6, 6),),                  # c<zeta6>
    ((3, 3), (3, 3)),           # c1<zeta3> u c2<zeta3>
)
BRUTE_SHAPE = ((2, 2), (1, 1))  # c1<-1> u {c2}: all classes, support 8

WARMUP = {
    "enumerate": ["enumerate-fine", "--twisted", "1,2", "--format", "json"],
    "weyl-closure": ["weyl", "--heisenberg", "3", "--format", "json"],
    "weyl-brute": ["weyl", "--heisenberg", "3", "--brute", "--format", "json"],
    "roundtrip": ["enumerate-fine", "--twisted", "1,2", "--format", "json"],
}


def _root(order: int, j: int) -> str:
    j %= order
    if order == 1 or j == 0:
        return ""
    if order == 2:
        return "-1"
    return f"zeta({order})^{j}" if j > 1 else f"zeta({order})"


def _scalar(c: str, order: int, j: int, sign: int) -> str:
    root = _root(order, j)
    if root == "-1":
        sign, root = -sign, ""
    text = c if not root else (root if c == "1" else f"{c}*{root}")
    return ("-" if sign < 0 else "") + text


def random_lambda(rng: random.Random, shape) -> str:
    """A twist parameter list made of the cosets c*<omega> named by shape,
    with seeded multipliers c, their signs and the entry order.  A sign
    goes with the whole coset: one per entry could repeat an entry and
    change the classes."""
    mults = rng.sample(MULTIPLIERS, len(shape))
    entries = []
    for c, (order, length) in zip(mults, shape):
        sign = rng.choice((1, -1))
        entries += [_scalar(c, order, j, sign) for j in range(length)]
    rng.shuffle(entries)
    return ",".join(entries)


def _parse_lambda(text: str):
    entries = text.split(",")
    ctx = CycloCtx(auto_conductor(text, len(entries)))
    return [parse_scalar(e, ctx) for e in entries], ctx


def _params_arg(p) -> str:
    return (f"{p.l},{p.s},{p.r};" + ",".join(format_scalar(b) for b in p.betas)
            + ";" + ",".join(format_scalar(a) for a in p.alphas))


def _weyl(args: list[str], brute: bool) -> dict:
    argv = ["weyl", *args] + (["--brute"] if brute else []) + ["--format", "json"]
    return {"argv": argv, "expect": {"kind": "weyl", "brute": brute}}


# --- enumerate ------------------------------------------------------------------

def enumerate_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for shape in ENUMERATE_SHAPES:
        lam = random_lambda(rng, shape)
        jobs.append({"argv": ["enumerate-fine", f"--twisted={lam}", "--format", "json"],
                     "expect": {"kind": "enumerate", "k": len(lam.split(","))}})
    rng.shuffle(jobs)
    return jobs


# --- weyl-closure ---------------------------------------------------------------

# Every job's group has an order from 3840 to 46080.  The closure and
# the group-shape checks grow with the order while building the
# generators does not, so smaller groups would leave weyl.* under half
# of the time (--super 4,3 --r 0, |W| 2304: a third).  The seed picks
# one job from each later slot and the order of the jobs.
CLOSURE_SLOTS = (
    (["--heisenberg", "6"],),
    (["--heisenberg", "5"],),
    (["--super", "1,7", "--r", "0"], ["--super", "4,4", "--r", "0"]),
    (["--super", "2,6", "--r", "0"], ["--super", "3,5", "--r", "0"]),
)


def weyl_closure_jobs(rng: random.Random) -> list[dict]:
    jobs = [_weyl(rng.choice(slot), brute=False) for slot in CLOSURE_SLOTS]
    rng.shuffle(jobs)
    return jobs


# --- weyl-brute -----------------------------------------------------------------

def weyl_brute_jobs(rng: random.Random) -> list[dict]:
    jobs = [_weyl([f"--twisted={random_lambda(rng, BRUTE_SHAPE)}"], brute=True)]
    # the (4,1,0) class of a length-4 lambda c<i>: support 10
    lam_text = random_lambda(rng, ((4, 4),))
    lam, _ = _parse_lambda(lam_text)
    top = max(enumerate_twisted_fine(lam), key=lambda p: (p.l, p.s))
    jobs.append(_weyl([f"--twisted={lam_text}", f"--params={_params_arg(top)}"],
                      brute=True))
    jobs.append(_weyl(["--super", "1,6", "--r", "0"], brute=True))
    jobs.append(_weyl(["--heisenberg", "4"], brute=True))
    rng.shuffle(jobs)
    return jobs


# --- roundtrip ------------------------------------------------------------------

def _rand_q(rng: random.Random) -> Fraction:
    """A random nonzero rational of height 2 or 3: the seed moves values
    around without making the exact arithmetic heavier or lighter."""
    return Fraction(*rng.choice(((1, 2), (2, 1), (2, 3), (3, 2)))) * rng.choice((1, -1))


def random_twisted_automorphism(a, rng: random.Random):
    """Columns of torus o exp(ad h) o (u -> u + t z) for a random h in the
    Heisenberg ideal; ad h is nilpotent of index 3, so the exponential is
    the truncated series."""
    ctx, n = a.ctx, a.dim
    q = lambda x: ctx.from_fraction(x)  # noqa: E731
    zero = ctx.zero()

    def apply(cols, v):
        out = [zero] * n
        for j, c in enumerate(v):
            if c:
                for i in range(n):
                    out[i] = out[i] + c * cols[j][i]
        return tuple(out)

    basis = [a.basis_vect(i) for i in range(n)]
    h = tuple(zero if i == 0 else q(_rand_q(rng)) for i in range(n))
    ad = [a.bracket(h, e) for e in basis]
    ad2 = [apply(ad, col) for col in ad]
    half = q(Fraction(1, 2))
    exp = [tuple(e[i] + ad[j][i] + half * ad2[j][i] for i in range(n))
           for j, e in enumerate(basis)]
    shift = list(basis)
    shift[0] = tuple(basis[0][i] + (q(_rand_q(rng)) if i == n - 1 else zero)
                     for i in range(n))
    # torus on the ad(u)-eigenvectors e +- ehat, scaled by x and c/x; all
    # squares, so decomposing the moved grading needs no new square roots
    c = _rand_q(rng) ** 2
    torus = list(basis)
    torus[n - 1] = tuple(q(c) * x for x in basis[n - 1])
    for i in range(1, n - 1, 2):
        x = _rand_q(rng) ** 2
        y = c / x
        plus, minus = q((x + y) / 2), q((x - y) / 2)
        torus[i] = tuple(plus if r == i else minus if r == i + 1 else zero
                         for r in range(n))
        torus[i + 1] = tuple(minus if r == i else plus if r == i + 1 else zero
                             for r in range(n))
    f = [apply(torus, apply(exp, col)) for col in shift]
    if not is_automorphism(f, a):
        raise AssertionError("generated map is not an automorphism")
    return f, apply


def _color_types(rng: random.Random, ctx: CycloCtx) -> list[ColorType]:
    """One standard-form type from each of three families: a self-paired
    Z_4 type, a torsion-free Z^2 type with a seeded root-of-unity
    commutation factor, and a super (Z_2) type.  Dimensions are fixed so
    that every seed asks for the same amount of work."""
    z4 = AbGroup(0, (4,))
    t4 = lambda c: z4.elt((), (c,))  # noqa: E731
    z2 = AbGroup(2, ())
    f2 = lambda a, b: z2.elt((a, b), ())  # noqa: E731
    w = ctx.zeta(rng.choice((1, 2, 3, 5)))
    s = AbGroup(0, (2,))
    minus_one = ctx.from_fraction(-1)
    return [
        ColorType(z4, t4(2), Bicharacter(z4, [[minus_one]]),
                  {t4(2): 2, t4(0): 1, t4(1): 2, t4(3): 1}),
        ColorType(z2, z2.zero(), Bicharacter(z2, [[ctx.one(), w], [w.inv(), ctx.one()]]),
                  {z2.zero(): 1, f2(1, 0): 1, f2(-1, 0): 1, f2(0, 1): 1,
                   f2(0, -1): 1, f2(1, 1): 1, f2(-1, -1): 1}),
        ColorType(s, s.zero(), Bicharacter(s, [[minus_one]]), {s.zero(): 3, s.elt((), (1,)): 3}),
    ]


def _scramble(vecs, rng: random.Random, ctx: CycloCtx, orthogonal: bool):
    """A random recombination of a component basis: a product of rational
    rotations and a scale when the component pairs with itself (so its
    orthonormal basis needs no square root), else unit lower times
    invertible upper triangular."""
    d = len(vecs)
    if orthogonal:
        scale = _rand_q(rng)
        mat = [[Fraction(scale if i == j else 0) for j in range(d)] for i in range(d)]
        for _ in range(2 * d if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            a, b = rng.choice(((3, 4), (4, 3)))
            cs, sn = Fraction(a * a - b * b, a * a + b * b), Fraction(2 * a * b, a * a + b * b)
            mat[i], mat[j] = ([cs * x + sn * y for x, y in zip(mat[i], mat[j])],
                              [-sn * x + cs * y for x, y in zip(mat[i], mat[j])])
        mat = [[ctx.from_fraction(x) for x in row] for row in mat]
    else:
        q = lambda: ctx.from_fraction(_rand_q(rng))  # noqa: E731
        upper = [[q() if j >= i else ctx.zero() for j in range(d)] for i in range(d)]
        lower = [[ctx.one() if j == i else q() if j < i else ctx.zero()
                  for j in range(d)] for i in range(d)]
        mat = [[sum((lower[i][t] * upper[t][j] for t in range(d)), ctx.zero())
                for j in range(d)] for i in range(d)]
    return tuple(tuple(sum((mat[i][j] * vecs[j][c] for j in range(d)), ctx.zero())
                       for c in range(len(vecs[0]))) for i in range(d))


# (lambda shape, (l, s, r) of the fine grading pushed through an automorphism)
ROUNDTRIP_CLASSES = (
    (ENUMERATE_SHAPES[0], (4, 1, 0)),
    (ENUMERATE_SHAPES[1], (2, 1, 2)),
)


def roundtrip_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for shape, lsr in ROUNDTRIP_CLASSES:
        lam_text = random_lambda(rng, shape)
        lam, _ = _parse_lambda(lam_text)
        p = rng.choice([p for p in enumerate_twisted_fine(lam)
                        if (p.l, p.s, p.r) == lsr])
        gr = twisted_fine(lam, p)
        f, apply = random_twisted_automorphism(gr.algebra, rng)
        moved = Grading(gr.algebra, gr.group,
                        {g: tuple(apply(f, v) for v in vs)
                         for g, vs in gr.components.items()})
        spec = json.dumps(grading_to_json(moved), sort_keys=True)
        jobs.append({"argv": ["verify", spec, "--format", "json"],
                     "expect": {"kind": "verify"}})
        jobs.append({"argv": ["universal-group", spec, "--format", "json"],
                     "expect": {"kind": "universal-group", "lsr": list(lsr)}})
        jobs.append({"argv": ["decompose", spec, "--format", "json"],
                     "expect": {"kind": "decompose", "lsr": list(lsr)}})
    ctx = CycloCtx(12)
    for t in _color_types(rng, ctx):
        algebra, grading = color_algebra(t, ctx)
        comps = {g: _scramble(vs, rng, ctx, 2 * g == t.g0 and g != t.g0)
                 for g, vs in grading.components.items()}
        gspec = grading_to_json(Grading(algebra, t.group, comps))
        tspec = color_type_to_json(t)
        gspec["algebra"] = {"kind": "color", "type": tspec, "conductor": ctx.n}
        spec = json.dumps({"conductor": ctx.n, "grading": gspec,
                           "epsilon": tspec["epsilon"]}, sort_keys=True)
        jobs.append({"argv": ["color-classify", spec, "--format", "json"],
                     "expect": {"kind": "color", "g0": tspec["g0"], "dims": tspec["dims"]}})
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "enumerate": enumerate_jobs,
    "weyl-closure": weyl_closure_jobs,
    "weyl-brute": weyl_brute_jobs,
    "roundtrip": roundtrip_jobs,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded batch of one workload; equal seeds give equal batches."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)


def inputs_digest(jobs: list[dict]) -> str:
    """sha256 over every argv and expectation, in batch order."""
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
