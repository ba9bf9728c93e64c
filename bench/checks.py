"""Output checks that do not trust the code under test.

Each check reads a job's captured stdout and its ``expect`` record from
the input generator, and returns a list of problems (empty when the
output is right):

* weyl: the closure order is recomputed with sympy's
  ``PermutationGroup`` from the generator cycles; with ``--brute`` the
  brute-force order must equal it; a Heisenberg grading of rank k has
  a Weyl group of order 2^k k!.  The closure is ground truth, so a
  formula disagreement (``agreement: false``) is not a failure, but the
  flag must match the two orders it summarises.
* enumerate: class count, rejected block orders, block shapes, and each
  class's universal group against Z^(s+1) x Z_2^(r-1) x Z_l.
* verify / universal-group / decompose: the grading was built from a
  known (l, s, r), which the outputs must report back.
* color-classify: the standard form must have the generated type's
  center degree and component dimensions.

Recorded stdout digests (``expected.json``) pin the exact bytes for the
seeds they were recorded at.
"""

from __future__ import annotations

import json
from math import factorial

from sympy.combinatorics import Permutation, PermutationGroup


def _cycles(text: str, degree: int) -> Permutation:
    cycles = [[int(x) for x in c.split()] for c in text.strip("()").split(")(") if c]
    return Permutation(cycles, size=degree) if cycles else Permutation(list(range(degree)))


def twisted_group_str(l: int, s: int, r: int) -> str:
    """Z^(s+1) x Z_2^(r-1) x Z_l in invariant-factor form, printed the
    way the CLI prints abelian groups."""
    parts = ["Z" if s == 0 else f"Z^{s + 1}"]
    parts += ["Z_2"] * max(r - 1, 0)
    if l > 1:
        parts.append(f"Z_{l}")
    return " x ".join(parts)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def check_weyl(out: dict, expect: dict, argv: list[str]) -> list[str]:
    problems = []
    if not out.get("gradings"):
        return ["no gradings reported"]
    for i, g in enumerate(out["gradings"]):
        n = g["support_size"]
        gens = [_cycles(gen["cycles"], n) for gen in g["generators"]]
        order = PermutationGroup(gens).order() if gens else 1
        if order != g["closure_order"]:
            problems.append(f"grading {i}: closure order {g['closure_order']} != sympy {order}")
        if g["agreement"] != (g["closure_order"] == g["formula_order"]):
            problems.append(f"grading {i}: agreement flag contradicts the orders")
        if expect["brute"] and g["brute_order"] != g["closure_order"]:
            problems.append(f"grading {i}: brute order {g['brute_order']} != "
                            f"closure order {g['closure_order']}")
        if g["family"] == "heisenberg":
            k = int(argv[argv.index("--heisenberg") + 1])
            if g["closure_order"] != 2 ** k * factorial(k):
                problems.append(f"grading {i}: heisenberg order != 2^k k!")
    return problems


def check_enumerate(out: dict, expect: dict, argv: list[str]) -> list[str]:
    problems = []
    classes = out["classes"]
    if out["count"] != len(classes) or not classes:
        problems.append(f"count {out['count']} vs {len(classes)} classes")
    k = expect["k"]
    seen_l = {c["params"]["l"] for c in classes}
    if sorted(seen_l | set(out["rejected_l"])) != _divisors(2 * k) or seen_l & set(out["rejected_l"]):
        problems.append("surviving and rejected block orders do not split the divisors of 2k")
    for i, c in enumerate(classes):
        p = c["params"]
        l, s, r = p["l"], p["s"], p["r"]
        if l * (r + 2 * s) != 2 * k or len(p["betas"]) != s or len(p["alphas"]) != r:
            problems.append(f"class {i}: shape ({l},{s},{r}) does not fit k={k}")
        if c["universal_group"] != twisted_group_str(l, s, r):
            problems.append(f"class {i}: universal group {c['universal_group']!r}, "
                            f"expected {twisted_group_str(l, s, r)!r}")
        if c["toral"] != (l == 1):  # the group above is torsion-free iff l = 1
            problems.append(f"class {i}: toral flag {c['toral']} for l={l}")
        shapes = sorted((b["type"], b["l"]) for b in c["blocks"])
        want = sorted([("I", l)] * s + [("II", l // 2)] * r)
        if shapes != want:
            problems.append(f"class {i}: blocks {shapes}, expected {want}")
        if len(c["homogeneous_basis"]) != 2 * k + 2:
            problems.append(f"class {i}: homogeneous basis of size {len(c['homogeneous_basis'])}")
    return problems


def check_verify(out: dict, expect: dict, argv: list[str]) -> list[str]:
    return [] if out.get("ok") is True and not out.get("failures") else ["verification failed"]


def check_universal_group(out: dict, expect: dict, argv: list[str]) -> list[str]:
    want = twisted_group_str(*expect["lsr"])
    return [] if out["universal_group"] == want else [
        f"universal group {out['universal_group']!r}, expected {want!r}"]


def check_decompose(out: dict, expect: dict, argv: list[str]) -> list[str]:
    p = out["params"]
    got = [p["l"], p["s"], p["r"]]
    return [] if got == expect["lsr"] else [f"(l,s,r) {got}, expected {expect['lsr']}"]


def check_color(out: dict, expect: dict, argv: list[str]) -> list[str]:
    t = out["color_type"]
    problems = []
    if t["g0"] != expect["g0"]:
        problems.append(f"center degree {t['g0']}, expected {expect['g0']}")
    if t["dims"] != expect["dims"]:
        problems.append(f"dims {t['dims']}, expected {expect['dims']}")
    if len(out["standard_basis"]) != sum(d["dim"] for d in expect["dims"]):
        problems.append("standard basis has the wrong size")
    return problems


CHECKS = {
    "weyl": check_weyl,
    "enumerate": check_enumerate,
    "verify": check_verify,
    "universal-group": check_universal_group,
    "decompose": check_decompose,
    "color": check_color,
}


def check_job(job: dict, result: dict) -> list[str]:
    """Problems with one job's result; exit code first, then content."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"]
    try:
        out = json.loads(result["stdout"])
        return CHECKS[job["expect"]["kind"]](out, job["expect"], job["argv"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
